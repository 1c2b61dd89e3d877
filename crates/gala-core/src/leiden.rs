//! The Leiden algorithm (Traag, Waltman & van Eck 2019) — the paper's
//! reference \[54\], whose relaxed movement rule GALA's RM strategy comes
//! from. Implemented as a sequential quality baseline.
//!
//! Leiden repairs Louvain's badly-connected-communities defect with a
//! three-step round: (1) fast local moving, (2) *refinement* — each
//! community is re-partitioned from singletons, merging only inside it, so
//! every final community is internally connected — and (3) aggregation on
//! the refined partition, with the aggregated vertices initially labelled
//! by their step-1 communities.
//!
//! The headline guarantee ("communities are well-connected") is verified by
//! [`communities_are_connected`] and enforced in tests.

use crate::backend::BackendKind;
use crate::kernels::KernelKind;
use crate::modularity::modularity_with_resolution;
use crate::observe::Obs;
use crate::sequential::{local_moving, Sweep};
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::partition::CommunityId;
use gala_graph::subgraph::community_subgraph;
use gala_graph::traversal::connected_components;
use gala_graph::{Graph, Partition, VertexId};
use std::time::Instant;

/// Configuration of a Leiden run.
#[derive(Clone, Copy, Debug)]
pub struct LeidenConfig {
    /// Resolution parameter γ (1.0 = classic modularity).
    pub resolution: f64,
    /// Stop a local-moving pass once its total gain falls below θ.
    pub theta: f64,
    /// Cap on local-moving sweeps per round.
    pub max_sweeps: usize,
    /// Cap on rounds (move + refine + aggregate repetitions).
    pub max_rounds: usize,
    /// Execution backend for the aggregation (phase-2 contraction) between
    /// rounds. The sequential local moving itself is host-side either way.
    pub backend: BackendKind,
}

impl Default for LeidenConfig {
    fn default() -> Self {
        Self {
            resolution: 1.0,
            theta: 1e-6,
            max_sweeps: 200,
            max_rounds: 20,
            backend: BackendKind::Sim,
        }
    }
}

/// Result of a Leiden run.
#[derive(Clone, Debug)]
pub struct LeidenResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final (generalised) modularity.
    pub modularity: f64,
    /// Rounds executed.
    pub rounds: usize,
}

/// Runs Leiden to convergence.
pub fn leiden(graph: &Graph, config: LeidenConfig) -> LeidenResult {
    leiden_with(graph, config, &mut Obs::off())
}

/// [`leiden`] observed through `obs`: the same `run_start` / `span` /
/// `round_end` / `run_end` event sequence as the BSP drivers.
/// The sequential local-moving pass is one wall-clock-timed `superstep`
/// tree per round (`"host"` backend, unit `"ns"`); the per-round `refine` +
/// `contract` tree goes through the configured [`BackendKind`] like
/// louvain's phase 2, so a sim-backed run charges real simulated cycles
/// for the aggregation while a native run charges wall time. Each
/// `round_end` counts the round's local-moving sweeps as its supersteps.
pub fn leiden_with(graph: &Graph, config: LeidenConfig, obs: &mut Obs) -> LeidenResult {
    let backend = config.backend.resolve();
    obs.run_start("leiden", graph, 1);
    let mut current: Option<Graph> = None;
    // `labels` carries the working graph's initial communities into each
    // round (Leiden's aggregated vertices do NOT restart as singletons).
    let mut labels: Option<Vec<CommunityId>> = None;
    let mut flat: Option<Partition> = None;
    let mut rounds = 0;
    let mut cscratch = CoarsenScratch::default();
    let mut sweep = Sweep::default();
    for round in 0..config.max_rounds {
        let g = current.as_ref().unwrap_or(graph);
        let mut comm: Vec<CommunityId> = labels
            .take()
            .unwrap_or_else(|| (0..g.num_vertices() as CommunityId).collect());
        obs.enter_round();
        let mut sub = obs.sub();
        let (sweeps, moved) = sub.scope("superstep", |p| {
            p.scope("decide", |p| {
                let started = Instant::now();
                let moving = p.scope("cpu", |p| {
                    let moving = local_moving(
                        g,
                        &mut comm,
                        config.resolution,
                        config.theta,
                        config.max_sweeps,
                        None,
                        &mut sweep,
                    );
                    p.count("items", g.num_vertices() as u64);
                    moving
                });
                p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
                moving
            })
        });
        obs.span(round as u32, 0, "phase1", None, sub);
        rounds += 1;
        let partition = Partition::from_assignment(comm.clone());
        let (dense, k) = partition.renumbered();
        if k == g.num_vertices() {
            // Nothing merged: converged. Record this level and stop.
            obs.exit_round();
            flat = Some(match flat {
                None => dense,
                Some(prev) => prev.compose(&dense),
            });
            break;
        }
        let mut sub = obs.sub();
        // Refinement: re-partition each community from singletons.
        let refined = sub.scope("refine", |p| {
            let started = Instant::now();
            let refined = refine_partition(g, &partition, config.resolution, config.max_sweeps);
            p.count("communities", refined.num_communities() as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            refined
        });
        let instrumented = obs.instrumented();
        let coarse = sub.scope("contract", |p| {
            let started = Instant::now();
            let coarse = backend.contract(
                g,
                &refined,
                KernelKind::default(),
                instrumented,
                p,
                &mut cscratch,
            );
            p.count("vertices", g.num_vertices() as u64);
            p.count("arcs", g.num_arcs() as u64);
            p.count("communities", coarse.num_communities as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            coarse
        });
        obs.span(round as u32, 1, "contract", Some(config.backend), sub);
        obs.exit_round();
        // The aggregated graph's vertices start in their step-1 community.
        let refined_dense = &coarse.renumbered;
        let mut next_labels = vec![0 as CommunityId; coarse.num_communities];
        for v in 0..g.num_vertices() {
            let super_v = refined_dense.community_of(v as VertexId) as usize;
            next_labels[super_v] = dense.community_of(v as VertexId);
        }
        let level = match flat {
            None => refined_dense.clone(),
            Some(prev) => prev.compose(refined_dense),
        };
        let (communities, arcs) = (coarse.num_communities, coarse.graph.num_arcs());
        obs.round_end(round as u32, "phase1", sweeps, communities, arcs, || {
            modularity_with_resolution(graph, &level, config.resolution)
        });
        flat = Some(level);
        if !moved {
            break;
        }
        labels = Some(next_labels);
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        cscratch.reclaim_assignment(coarse.renumbered);
        current = Some(coarse.graph);
    }
    // Flatten maps original vertices to the last refined level; compose
    // with the final labels if a round ended early with labels pending.
    let mut partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
    if let Some(last) = labels {
        partition = partition.compose(&Partition::from_assignment(last));
    }
    let q = modularity_with_resolution(graph, &partition, config.resolution);
    // Only the aggregation runs on the simulated device; its cycles live in
    // the emitted `contract` span trees.
    obs.run_end(q, rounds, 0.0);
    LeidenResult {
        partition,
        modularity: q,
        rounds,
    }
}

/// Leiden's refinement as a standalone operation: within each community of
/// `partition`, re-partition from singletons by local moving restricted to
/// that community. Every refined community is internally connected by
/// construction (merges only follow internal edges).
///
/// Exposed publicly so other drivers can borrow it —
/// [`crate::louvain::LouvainConfig::refine`] runs it between BSP phase 1
/// and the coarsening, which repairs the badly-connected communities
/// simultaneous moves sometimes glue together.
pub fn refine_partition(
    graph: &Graph,
    partition: &Partition,
    resolution: f64,
    max_sweeps: usize,
) -> Partition {
    // Refined labels start as singletons (label = own vertex id).
    let mut refined: Vec<CommunityId> = (0..graph.num_vertices() as CommunityId).collect();
    let mut sweep = Sweep::default();
    local_moving(
        graph,
        &mut refined,
        resolution,
        0.0,
        max_sweeps,
        Some(partition),
        &mut sweep,
    );
    Partition::from_assignment(refined)
}

/// Checks Leiden's guarantee: every community of `partition` induces a
/// connected subgraph of `graph`. (Louvain offers no such guarantee; its
/// communities can be internally disconnected.)
pub fn communities_are_connected(graph: &Graph, partition: &Partition) -> bool {
    let (ids, members) = partition.groups();
    for (&c, vs) in ids.iter().zip(&members) {
        if vs.len() <= 1 {
            continue;
        }
        let sub = community_subgraph(graph, partition, c);
        let (_, k) = connected_components(&sub.graph);
        if k != 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;
    use gala_graph::generators::sbm::PlantedPartition;

    #[test]
    fn finds_two_cliques() {
        let g = fixtures::two_cliques(6);
        let r = leiden(&g, LeidenConfig::default());
        assert_eq!(r.partition.num_communities(), 2);
        assert!(r.modularity > 0.45);
    }

    #[test]
    fn communities_are_always_connected() {
        let gt = PlantedPartition {
            num_communities: 10,
            community_size: 30,
            internal_degree: 6.0,
            mixing: 0.25,
        }
        .generate(5);
        let r = leiden(&gt.graph, LeidenConfig::default());
        assert!(
            communities_are_connected(&gt.graph, &r.partition),
            "Leiden produced a disconnected community"
        );
    }

    #[test]
    fn quality_comparable_to_louvain() {
        let g = fixtures::ring_of_cliques(8, 5);
        let leiden_q = leiden(&g, LeidenConfig::default()).modularity;
        let louvain_q = crate::sequential::sequential_louvain(
            &g,
            crate::sequential::SequentialConfig::default(),
        )
        .modularity;
        assert!(
            leiden_q >= louvain_q - 0.02,
            "leiden {leiden_q} vs louvain {louvain_q}"
        );
    }

    #[test]
    fn instrumented_run_matches_plain_and_profiles_both_units() {
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(8, 5);
        let plain = leiden(&g, LeidenConfig::default());
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = leiden_with(&g, LeidenConfig::default(), &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        // Local moving profiles as host wall time; the sim-backed
        // aggregation charges real simulated cycles.
        let mut saw_host_phase1 = false;
        let mut saw_sim_contract = false;
        for event in &sink.events {
            if let TraceEvent::Span(span) = event {
                let profile = span.profile().expect("a span names its backend");
                let (backend, unit, spans) = (span.backend.as_str(), profile.unit, &profile.spans);
                match span.phase.as_str() {
                    "phase1" => {
                        assert_eq!((backend, unit), ("host", "ns"));
                        let decide = spans.iter().find(|s| s.path == "superstep/decide").unwrap();
                        assert!(decide.total > 0.0);
                        saw_host_phase1 = true;
                    }
                    "contract" => {
                        assert_eq!((backend, unit), ("sim", "cycles"));
                        let contract = spans.iter().find(|s| s.path == "contract").unwrap();
                        assert!(contract.total > 0.0, "device contract kernel cycles");
                        assert_eq!(contract.components.total(), contract.total);
                        saw_sim_contract = true;
                    }
                    other => panic!("unexpected profile phase {other}"),
                }
            }
        }
        assert!(saw_host_phase1 && saw_sim_contract);
        let round = tree.child("round").expect("round span");
        assert!(round.child("superstep").is_some());
        assert!(round.child("refine").is_some());
        assert!(round.child("contract").is_some());
    }

    #[test]
    fn respects_resolution() {
        let g = fixtures::ring_of_cliques(20, 4);
        let coarse = leiden(&g, LeidenConfig::default())
            .partition
            .num_communities();
        let fine = leiden(
            &g,
            LeidenConfig {
                resolution: 4.0,
                ..LeidenConfig::default()
            },
        )
        .partition
        .num_communities();
        assert!(fine >= coarse);
        assert_eq!(fine, 20);
    }

    #[test]
    fn karate_club_quality() {
        let g = fixtures::karate_club();
        let r = leiden(&g, LeidenConfig::default());
        assert!(r.modularity > 0.38, "q = {}", r.modularity);
        assert!(communities_are_connected(&g, &r.partition));
    }

    #[test]
    fn connectivity_checker_spots_disconnected_partition() {
        // Two far-apart cliques forced into one community.
        let g = fixtures::two_cliques(3);
        let bad = Partition::from_assignment(vec![0, 0, 1, 1, 0, 0]);
        assert!(!communities_are_connected(&g, &bad));
        let good = fixtures::two_cliques_truth(3);
        assert!(communities_are_connected(&g, &good));
    }

    #[test]
    fn edgeless_graph() {
        let g = gala_graph::GraphBuilder::new(4).build();
        let r = leiden(&g, LeidenConfig::default());
        assert_eq!(r.partition.num_communities(), 4);
    }
}
