//! The classic *sequential* Louvain algorithm (Blondel et al. 2008).
//!
//! Unlike the BSP variant, state updates are applied immediately as each
//! vertex is processed, so a vertex always sees the freshest community
//! assignment. This is the quality gold standard the parallel versions are
//! compared against, and the slowest baseline of Figure 5.

use crate::modularity::{gain_score, modularity};
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
/// `span` / `profile` / `round_end` / `run_end` event sequence as the BSP
/// drivers, with one wall-clock-timed `superstep` span tree per round
/// (sequential phase 1 is one indivisible host pass) plus the usual
/// `contract` tree. All spans charge host nanoseconds — this baseline has
/// no simulated device, so its `profile` events carry the `"host"`
/// backend and unit `"ns"`.
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
    for round in 0..config.max_rounds {
        let g = current.as_ref().unwrap_or(graph);
        obs.enter_round();
        let mut sub = obs.sub();
        let assignment = sub.scope("superstep", |p| {
            p.scope("decide", |p| {
                let started = Instant::now();
                let assignment = p.scope("cpu", |p| {
                    let assignment = phase1(g, config.theta, config.max_sweeps);
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

/// One phase-1 pass: repeated sweeps over all vertices with immediate
/// (sequential-consistent) state updates.
fn phase1(graph: &Graph, theta: f64, max_sweeps: usize) -> Vec<CommunityId> {
    let n = graph.num_vertices();
    let m2 = graph.total_weight();
    let mut comm: Vec<CommunityId> = (0..n as CommunityId).collect();
    let mut d_tot: Vec<f64> = (0..n).map(|v| graph.degree_w(v as VertexId)).collect();
    if m2 == 0.0 {
        return comm;
    }
    let mut agg: HashMap<CommunityId, f64> = HashMap::new();
    for _ in 0..max_sweeps {
        let mut sweep_gain = 0.0;
        for v in 0..n as VertexId {
            let cv = comm[v as usize];
            let d_v = graph.degree_w(v);
            agg.clear();
            for (u, w) in graph.neighbors(v) {
                if u != v {
                    *agg.entry(comm[u as usize]).or_insert(0.0) += w;
                }
            }
            if agg.is_empty() {
                continue;
            }
            // Extract v from its community.
            d_tot[cv as usize] -= d_v;
            let stay = gain_score(
                agg.get(&cv).copied().unwrap_or(0.0),
                d_v,
                d_tot[cv as usize],
                m2,
            );
            let mut best_c = cv;
            let mut best = stay;
            for (&c, &d_vc) in agg.iter() {
                if c == cv {
                    continue;
                }
                let score = gain_score(d_vc, d_v, d_tot[c as usize], m2);
                if score > best || (score == best && c < best_c) {
                    best = score;
                    best_c = c;
                }
            }
            d_tot[best_c as usize] += d_v;
            if best_c != cv {
                comm[v as usize] = best_c;
                sweep_gain += 2.0 / m2 * (best - stay);
            }
        }
        if sweep_gain < theta {
            break;
        }
    }
    comm
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
        use gala_telemetry::{PhaseProfile, TraceEvent, VecSink};
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
                TraceEvent::Profile(PhaseProfile {
                    backend,
                    unit,
                    phase,
                    spans,
                    ..
                }) => Some((backend.as_str(), unit.as_str(), phase.as_str(), spans)),
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
