//! The classic *sequential* Louvain algorithm (Blondel et al. 2008).
//!
//! Unlike the BSP variant, state updates are applied immediately as each
//! vertex is processed, so a vertex always sees the freshest community
//! assignment. This is the quality gold standard the parallel versions are
//! compared against, and the slowest baseline of Figure 5.

use crate::modularity::modularity;
use crate::observe::Obs;
use gala_graph::coarsen::{coarsen_into, CoarsenScratch};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition, VertexId};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration for the sequential baseline.
#[derive(Clone, Copy, Debug)]
pub struct SequentialConfig {
    /// Stop a phase-1 sweep loop once the modularity gain drops below θ.
    pub theta: f64,
    /// Cap on full sweeps per round.
    pub max_sweeps: usize,
    /// Cap on hierarchy rounds.
    pub max_rounds: usize,
}

impl Default for SequentialConfig {
    fn default() -> Self {
        Self {
            theta: 1e-6,
            max_sweeps: 500,
            max_rounds: 20,
        }
    }
}

/// Result of a sequential Louvain run.
#[derive(Clone, Debug)]
pub struct SequentialResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Hierarchy rounds executed.
    pub rounds: usize,
}

/// Runs sequential Louvain to convergence.
pub fn sequential_louvain(graph: &Graph, config: SequentialConfig) -> SequentialResult {
    sequential_louvain_with(graph, config, &mut Obs::off())
}

/// [`sequential_louvain`] observed through `obs`: the same `run_start` /
/// `span` / `round_end` / `run_end` event sequence as the BSP
/// drivers, with one wall-clock-timed `superstep` span tree per round
/// (sequential phase 1 is one indivisible host pass) plus the usual
/// `contract` tree. All spans charge host nanoseconds — this baseline has
/// no simulated device, so its spans carry the `"host"` backend and
/// profile in unit `"ns"`.
pub fn sequential_louvain_with(
    graph: &Graph,
    config: SequentialConfig,
    obs: &mut Obs,
) -> SequentialResult {
    obs.run_start("sequential", graph, 1);
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut rounds = 0;
    let mut cscratch = CoarsenScratch::default();
    let mut sweep = Sweep::default();
    for round in 0..config.max_rounds {
        let g = current.as_ref().unwrap_or(graph);
        obs.enter_round();
        let mut sub = obs.sub();
        let assignment = sub.scope("superstep", |p| {
            p.scope("decide", |p| {
                let started = Instant::now();
                let assignment = p.scope("cpu", |p| {
                    let mut assignment: Vec<CommunityId> =
                        (0..g.num_vertices() as CommunityId).collect();
                    local_moving(
                        g,
                        &mut assignment,
                        1.0,
                        config.theta,
                        config.max_sweeps,
                        None,
                        &mut sweep,
                    );
                    p.count("items", g.num_vertices() as u64);
                    assignment
                });
                p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
                assignment
            })
        });
        obs.span(round as u32, 0, "phase1", None, sub);
        rounds += 1;
        let mut sub = obs.sub();
        let coarse = sub.scope("contract", |p| {
            let started = Instant::now();
            let coarse = coarsen_into(g, &Partition::from_assignment(assignment), &mut cscratch);
            p.count("vertices", g.num_vertices() as u64);
            p.count("arcs", g.num_arcs() as u64);
            p.count("communities", coarse.num_communities as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            coarse
        });
        obs.span(round as u32, 1, "contract", None, sub);
        obs.exit_round();
        let merged_everything = coarse.num_communities == g.num_vertices();
        let level = match flat {
            None => coarse.renumbered.clone(),
            Some(prev) => prev.compose(&coarse.renumbered),
        };
        // One deterministic `progress` event per round (sequential phase 1
        // is one indivisible host pass, so there is no superstep
        // granularity).
        let (communities, arcs) = (coarse.num_communities, g.num_arcs());
        obs.round_end(round as u32, "phase1", 1, communities, arcs, || {
            modularity(graph, &level)
        });
        flat = Some(level);
        if merged_everything {
            break;
        }
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        cscratch.reclaim_assignment(coarse.renumbered);
        current = Some(coarse.graph);
    }
    let partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
    let q = modularity(graph, &partition);
    // Host-only baseline: no simulated cycles to report.
    obs.run_end(q, rounds, 0.0);
    SequentialResult {
        partition,
        modularity: q,
        rounds,
    }
}

/// Reusable buffers of [`local_moving`], hoisted so a driver recycles one
/// allocation set across its rounds instead of reallocating per call.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    /// `D_V(C)` per community id slot.
    d_tot: Vec<f64>,
    /// Per-vertex `(community, d_vc)` aggregation map.
    agg: HashMap<CommunityId, f64>,
}

/// Sequential local moving, the one sweep behind sequential Louvain's
/// phase 1 and Leiden's local moving and refinement. Starting from `comm`,
/// each sweep visits every vertex and applies its move at once, so a
/// vertex always sees the freshest assignment. A vertex moves to the
/// neighbouring community with the highest score `d_vc − γ·d_v·D/m2`
/// (`D` the community's total degree without `v`), ties going to the lower
/// id; it stays unless some community strictly beats staying or ties with
/// a lower id.
///
/// With `within`, only neighbours in `v`'s own `within` community count,
/// so no community grows past one `within` community (Leiden's
/// refinement). Sweeps stop once one moves nothing or gains less than
/// `theta` in modularity, or after `max_sweeps`. Returns whether anything
/// moved.
pub(crate) fn local_moving(
    graph: &Graph,
    comm: &mut [CommunityId],
    gamma: f64,
    theta: f64,
    max_sweeps: usize,
    within: Option<&Partition>,
    sweep: &mut Sweep,
) -> bool {
    let n = graph.num_vertices();
    let m2 = graph.total_weight();
    if m2 == 0.0 {
        return false;
    }
    let Sweep { d_tot, agg } = sweep;
    let slots = comm.iter().copied().max().map_or(0, |c| c as usize + 1);
    d_tot.clear();
    d_tot.resize(slots.max(n), 0.0);
    for v in 0..n {
        d_tot[comm[v] as usize] += graph.degree_w(v as VertexId);
    }
    let mut any_moved = false;
    for _ in 0..max_sweeps {
        let mut moved = false;
        let mut sweep_gain = 0.0;
        for v in 0..n as VertexId {
            let cv = comm[v as usize];
            let d_v = graph.degree_w(v);
            let parent = within.map(|p| (p, p.community_of(v)));
            agg.clear();
            for (u, w) in graph.neighbors(v) {
                if u != v && parent.is_none_or(|(p, c)| p.community_of(u) == c) {
                    *agg.entry(comm[u as usize]).or_insert(0.0) += w;
                }
            }
            if agg.is_empty() {
                continue;
            }
            // Extract v from its community.
            d_tot[cv as usize] -= d_v;
            let score = |d_vc: f64, dt: f64| d_vc - gamma * d_v * dt / m2;
            let stay = score(agg.get(&cv).copied().unwrap_or(0.0), d_tot[cv as usize]);
            let mut best_c = cv;
            let mut best = stay;
            for (&c, &d_vc) in agg.iter() {
                if c == cv {
                    continue;
                }
                let s = score(d_vc, d_tot[c as usize]);
                if s > best || (s == best && c < best_c) {
                    best = s;
                    best_c = c;
                }
            }
            d_tot[best_c as usize] += d_v;
            if best_c != cv {
                comm[v as usize] = best_c;
                moved = true;
                sweep_gain += 2.0 / m2 * (best - stay);
            }
        }
        any_moved |= moved;
        if !moved || sweep_gain < theta {
            break;
        }
    }
    any_moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn recovers_two_cliques() {
        let g = fixtures::two_cliques(6);
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 2);
        assert!(r.modularity > 0.45);
    }

    #[test]
    fn recovers_ring_of_cliques() {
        let g = fixtures::ring_of_cliques(8, 5);
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 8);
    }

    #[test]
    fn karate_club_quality() {
        let g = fixtures::karate_club();
        let r = sequential_louvain(&g, SequentialConfig::default());
        // Published Louvain modularity on karate is ~0.41-0.42.
        assert!(r.modularity > 0.38, "q = {}", r.modularity);
        let k = r.partition.num_communities();
        assert!((2..=6).contains(&k), "k = {k}");
    }

    #[test]
    fn quality_at_least_parallel_ballpark() {
        let g = fixtures::ring_of_cliques(6, 6);
        let seq = sequential_louvain(&g, SequentialConfig::default());
        let par = crate::louvain::Louvain::new(Default::default()).run(&g);
        assert!((seq.modularity - par.modularity).abs() < 0.05);
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = gala_graph::GraphBuilder::new(4).build();
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 4);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn instrumented_run_emits_host_profile_events() {
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let plain = sequential_louvain(&g, SequentialConfig::default());
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = sequential_louvain_with(&g, SequentialConfig::default(), &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        let profiles: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(span) => {
                    let profile = span.profile().expect("a span names its backend");
                    Some((
                        span.backend.as_str(),
                        profile.unit,
                        span.phase.as_str(),
                        profile.spans,
                    ))
                }
                _ => None,
            })
            .collect();
        assert!(profiles.iter().any(|(.., p, _)| *p == "phase1"));
        assert!(profiles.iter().any(|(.., p, _)| *p == "contract"));
        assert!(profiles.iter().all(|(b, u, ..)| *b == "host" && *u == "ns"));
        let (.., spans) = profiles.iter().find(|(.., p, _)| *p == "phase1").unwrap();
        let decide = spans.iter().find(|s| s.path == "superstep/decide").unwrap();
        assert!(decide.total > 0.0, "decide must carry wall time");
        assert_eq!(decide.components.compute, decide.total);
        let round = tree.child("round").expect("round span");
        assert!(round.child("superstep").is_some());
        assert!(round.child("contract").is_some());
    }
}
