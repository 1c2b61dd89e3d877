//! Label propagation (Raghavan, Albert & Kumara 2007) — the third of the
//! paper's three community-detection families (Section 1: "label
//! propagation takes a majority voting mechanism"). Near-linear time, no
//! objective function; a useful speed/quality contrast to modularity-based
//! methods.
//!
//! This is the *synchronous*, weighted, deterministically tie-broken
//! variant: every vertex simultaneously adopts the label carrying the
//! largest incident weight (smallest label id on ties), BSP-style — the
//! same superstep discipline as GALA's Louvain, so runs are reproducible.
//!
//! Synchronous updates can fall into a period-2 cycle, two labelings
//! that sweep into each other. A sweep that reproduces the labels of two
//! sweeps back has entered one, and no later sweep leaves it, so the run
//! stops there and returns the half with the higher modularity.

use crate::modularity::modularity;
use crate::observe::Obs;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition, VertexId};
use gala_telemetry::{Superstep, TraceEvent};
use rayon::prelude::*;
use std::collections::HashMap;

/// Configuration for label propagation.
#[derive(Clone, Copy, Debug)]
pub struct LabelPropConfig {
    /// Stop after this many supersteps even if labels still change
    /// (synchronous LPA can oscillate on bipartite structures).
    pub max_iterations: usize,
}

impl Default for LabelPropConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
        }
    }
}

/// Result of a label-propagation run.
#[derive(Clone, Debug)]
pub struct LabelPropResult {
    /// Final label of each vertex.
    pub partition: Partition,
    /// Supersteps executed.
    pub iterations: usize,
    /// Whether the run reached a fixed point (no label changed). A run
    /// that stopped in a period-2 cycle did not.
    pub converged: bool,
}

/// Runs synchronous weighted label propagation.
pub fn label_propagation(graph: &Graph, config: LabelPropConfig) -> LabelPropResult {
    label_propagation_with(graph, config, &mut Obs::off())
}

/// [`label_propagation`] observed through `obs`: `run_start`, one
/// `superstep` event per sweep (every vertex is active; `moved` counts
/// the labels that changed), then `round_end` and `run_end` for the one
/// round. LPA optimises no objective, so the modularity each event
/// carries is computed only when the sink or the live recorder will see
/// it, and otherwise only to pick a half of a period-2 cycle. The
/// partition is the same with observation on or off.
pub fn label_propagation_with(
    graph: &Graph,
    config: LabelPropConfig,
    obs: &mut Obs,
) -> LabelPropResult {
    obs.run_start("lpa", graph, 1);
    let n = graph.num_vertices();
    let observed = obs.observed();
    let q_of = |labels: &Partition| {
        if observed {
            modularity(graph, labels)
        } else {
            0.0
        }
    };
    let mut labels = Partition::singletons(n);
    // The labels of the sweep before `labels`'.
    let mut before: Option<Partition> = None;
    let mut q = q_of(&labels);
    let mut iterations = 0;
    let mut converged = false;
    for superstep in 0..config.max_iterations {
        iterations += 1;
        let next: Vec<CommunityId> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| best_label(graph, labels.assignment(), v))
            .collect();
        let moved = next
            .iter()
            .zip(labels.assignment())
            .filter(|(a, b)| a != b)
            .count();
        let cycled = moved > 0 && before.as_ref().is_some_and(|b| b.assignment() == next);
        before = Some(std::mem::replace(
            &mut labels,
            Partition::from_assignment(next),
        ));
        let prev_q = q;
        q = q_of(&labels);
        obs.superstep(graph, 0, superstep as u32, n, moved, q, || {
            Some(TraceEvent::Superstep(Superstep {
                round: 0,
                superstep: superstep as u32,
                active: n as u64,
                moved: moved as u64,
                pruned: 0,
                unmoved: (n - moved) as u64,
                modularity: q,
                delta_q: q - prev_q,
                ..Superstep::default()
            }))
        });
        if moved == 0 {
            converged = true;
            break;
        }
        if cycled {
            // Keep the better half of the cycle; the later one on a tie.
            let other = before.take().expect("the cycle's other half");
            let (q_other, q_last) = (modularity(graph, &other), modularity(graph, &labels));
            if q_other > q_last {
                labels = other;
            }
            q = q_other.max(q_last);
            break;
        }
    }
    obs.round_end(
        0,
        "phase1",
        iterations,
        labels.num_communities(),
        graph.num_arcs(),
        || q,
    );
    obs.run_end(q, 1, 0.0);
    LabelPropResult {
        partition: labels,
        iterations,
        converged,
    }
}

/// The label with maximal incident weight around `v` (self-loops vote for
/// `v`'s own label); smallest id wins ties; isolated vertices keep theirs.
fn best_label(graph: &Graph, labels: &[CommunityId], v: VertexId) -> CommunityId {
    let mut votes: HashMap<CommunityId, f64> = HashMap::with_capacity(graph.degree(v));
    for (u, w) in graph.neighbors(v) {
        let label = if u == v {
            labels[v as usize]
        } else {
            labels[u as usize]
        };
        *votes.entry(label).or_insert(0.0) += w;
    }
    if votes.is_empty() {
        return labels[v as usize];
    }
    let mut best = (f64::NEG_INFINITY, CommunityId::MAX);
    for (&label, &weight) in &votes {
        if weight > best.0 || (weight == best.0 && label < best.1) {
            best = (weight, label);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::nmi;
    use gala_graph::generators::fixtures;
    use gala_graph::generators::sbm::PlantedPartition;

    #[test]
    fn labels_cliques() {
        let g = fixtures::two_cliques(6);
        let r = label_propagation(&g, LabelPropConfig::default());
        // Each clique collapses onto one label.
        let c0 = r.partition.community_of(0);
        for v in 0..6 {
            assert_eq!(r.partition.community_of(v), c0);
        }
        let c1 = r.partition.community_of(6);
        for v in 6..12 {
            assert_eq!(r.partition.community_of(v), c1);
        }
    }

    #[test]
    fn deterministic() {
        let gt = PlantedPartition {
            num_communities: 6,
            community_size: 25,
            internal_degree: 6.0,
            mixing: 0.1,
        }
        .generate(2);
        let a = label_propagation(&gt.graph, LabelPropConfig::default());
        let b = label_propagation(&gt.graph, LabelPropConfig::default());
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn recovers_strong_planted_communities() {
        let gt = PlantedPartition {
            num_communities: 8,
            community_size: 40,
            internal_degree: 10.0,
            mixing: 0.05,
        }
        .generate(3);
        let r = label_propagation(&gt.graph, LabelPropConfig::default());
        let score = nmi(&r.partition, &gt.ground_truth);
        assert!(score > 0.8, "NMI = {score}");
    }

    #[test]
    fn iteration_cap_respected() {
        // A 4-cycle oscillates under synchronous LPA; the cap must bite.
        let g = fixtures::ring_of_cliques(2, 2); // tiny cycle-ish graph
        let r = label_propagation(&g, LabelPropConfig { max_iterations: 3 });
        assert!(r.iterations <= 3);
    }

    #[test]
    fn traced_run_matches_plain_and_emits_one_superstep_per_sweep() {
        let g = fixtures::two_cliques(6);
        let plain = label_propagation(&g, LabelPropConfig::default());
        let mut sink = gala_telemetry::VecSink::default();
        let traced =
            label_propagation_with(&g, LabelPropConfig::default(), &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, plain.partition);
        assert!(traced.converged);
        let steps: Vec<&Superstep> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Superstep(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(steps.len(), traced.iterations);
        assert!(steps.iter().all(|s| s.active == 12 && s.pruned == 0));
        assert_eq!(
            steps.last().unwrap().moved,
            0,
            "the converged sweep moves nothing"
        );
        let q = modularity(&g, &traced.partition);
        assert_eq!(steps.last().unwrap().modularity, q);
        match (sink.events.first(), sink.events.last()) {
            (Some(TraceEvent::RunStart(start)), Some(TraceEvent::RunEnd(end))) => {
                assert_eq!(start.algorithm, "lpa");
                assert_eq!(end.modularity, q);
                assert_eq!(end.rounds, 1);
            }
            other => panic!("unbracketed trace: {other:?}"),
        }
    }

    /// `gala generate sbm --n 2000 --seed 7 --mixing 0.25`.
    fn cycling_sbm() -> Graph {
        gala_graph::generators::sbm::PowerLawSbm {
            num_vertices: 2000,
            min_community: 15,
            max_community: 100,
            size_exponent: 2.0,
            internal_degree: 10.0,
            mixing: 0.25,
        }
        .generate(7)
        .graph
    }

    #[test]
    fn a_period_two_cycle_stops_the_run_at_its_better_half() {
        let g = cycling_sbm();
        let config = LabelPropConfig::default();
        let r = label_propagation(&g, config);
        assert!(
            r.iterations < config.max_iterations,
            "ran all {} sweeps",
            r.iterations
        );
        assert!(!r.converged);
        // The two halves sweep into each other, and the returned one is
        // no worse than the other.
        let q = modularity(&g, &r.partition);
        let next: Vec<CommunityId> = (0..g.num_vertices() as VertexId)
            .map(|v| best_label(&g, r.partition.assignment(), v))
            .collect();
        let next = Partition::from_assignment(next);
        assert_ne!(next, r.partition, "not a fixed point");
        let after: Vec<CommunityId> = (0..g.num_vertices() as VertexId)
            .map(|v| best_label(&g, next.assignment(), v))
            .collect();
        assert_eq!(after.as_slice(), r.partition.assignment(), "not a 2-cycle");
        assert!(q >= modularity(&g, &next), "kept the worse half");
        // What the 100 capped sweeps used to return is no better.
        let mut last = Partition::singletons(g.num_vertices());
        for _ in 0..config.max_iterations {
            let labels: Vec<CommunityId> = (0..g.num_vertices() as VertexId)
                .map(|v| best_label(&g, last.assignment(), v))
                .collect();
            last = Partition::from_assignment(labels);
        }
        assert!(q >= modularity(&g, &last), "{q} below the last sweep's Q");
    }

    #[test]
    fn isolated_vertices_keep_labels() {
        let g = gala_graph::GraphBuilder::new(3).build();
        let r = label_propagation(&g, LabelPropConfig::default());
        assert_eq!(r.partition.assignment(), &[0, 1, 2]);
        assert!(r.converged);
    }
}
