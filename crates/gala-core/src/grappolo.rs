//! Grappolo-style CPU parallel Louvain (Lu, Halappanavar & Kalyanaraman,
//! Parallel Computing 2015) — the "Grappolo (CPU)" baseline of Figure 5.
//!
//! This is a lean, self-contained BSP implementation on rayon with
//! per-vertex hash maps and *no* pruning, no simulated-GPU accounting, and
//! naive weight maintenance — i.e. exactly the algorithmic baseline GALA
//! improves on, timed without simulator overhead for fair wall-clock
//! comparisons.

use crate::kernels::cpu;
use crate::louvain::{DipPatience, DIP_PATIENCE};
use crate::observe::Obs;
use crate::state::BspState;
use crate::weight::{self, WeightUpdateMode};
use gala_graph::coarsen::{coarsen_into, CoarsenScratch};
use gala_graph::{Graph, Partition};
use std::time::Instant;

/// Result of a Grappolo baseline run.
#[derive(Clone, Debug)]
pub struct GrappoloResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Supersteps executed in the first round's phase 1 (the quantity the
    /// paper's experiments focus on).
    pub first_round_iterations: usize,
}

/// Runs one phase-1 round (the paper's measured region) and returns the
/// resulting state plus the number of supersteps.
pub fn phase1(graph: &Graph, theta: f64, max_iterations: usize) -> (BspState, usize) {
    let mut obs = Obs::off().driver("grappolo");
    phase1_round(graph, theta, max_iterations, 0, &mut obs)
}

/// [`phase1`] at hierarchy round `round` with the louvain-style
/// per-superstep span tree (decide → apply → weight_update → modularity)
/// going through `obs`. All spans charge host wall time: this baseline
/// deliberately runs without simulated-GPU accounting.
fn phase1_round(
    graph: &Graph,
    theta: f64,
    max_iterations: usize,
    round: u32,
    obs: &mut Obs,
) -> (BspState, usize) {
    let mut state = BspState::new(graph);
    // Same dip-tolerant convergence as louvain.rs so the two drivers reach
    // identical modularity.
    let mut dips = DipPatience::new(&state, state.modularity(graph), theta, DIP_PATIENCE);
    let mut iterations = 0;
    // No pruning: the all-active mask never changes, and the decide output
    // is recycled across supersteps like louvain.rs's Phase1Scratch.
    let n = graph.num_vertices();
    let active = vec![true; n];
    let mut out = crate::kernels::DecideOutput::default();
    for iteration in 0..max_iterations {
        let mut sub = obs.sub();
        sub.scope("decide", |p| {
            let started = Instant::now();
            p.scope("cpu", |p| {
                cpu::decide_into(graph, &state, &active, &mut out);
                p.count("items", n as u64);
            });
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        });
        let summary = sub.scope("apply", |p| {
            let summary = state.apply_moves(graph, &out.next_comm);
            p.count("moved", summary.num_moved() as u64);
            summary
        });
        sub.scope("weight_update", |p| {
            let started = Instant::now();
            weight::update(WeightUpdateMode::Naive, graph, &mut state, &summary);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        });
        iterations += 1;
        let q = sub.scope("modularity", |p| {
            p.count("items", n as u64);
            state.modularity(graph)
        });
        obs.span(round, iteration as u32, "phase1", None, sub);
        // Live observation only: this baseline emits no `superstep` events
        // (and has no pruning, so every vertex is always active).
        let moved = summary.num_moved();
        obs.superstep(graph, round, iteration as u32, n, moved, q, || None);
        if dips.step(&state, q, moved) {
            break;
        }
    }
    dips.finish(graph, &mut state);
    (state, iterations)
}

/// Full multi-round Grappolo run.
pub fn grappolo(graph: &Graph, theta: f64) -> GrappoloResult {
    grappolo_with(graph, theta, &mut Obs::off())
}

/// [`grappolo`] observed through `obs`: the same `run_start` /
/// per-superstep `span` and `profile` / `round_end` / `run_end` event
/// sequence as the BSP drivers, all spans charging host wall nanoseconds
/// (`"host"` backend).
pub fn grappolo_with(graph: &Graph, theta: f64, obs: &mut Obs) -> GrappoloResult {
    obs.run_start("grappolo", graph, 1);
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut first_round_iterations = 0;
    let mut rounds = 0;
    let mut cscratch = CoarsenScratch::default();
    for round in 0..20 {
        let g = current.as_ref().unwrap_or(graph);
        obs.enter_round();
        rounds += 1;
        let (state, iters) = phase1_round(g, theta, 500, round, obs);
        if round == 0 {
            first_round_iterations = iters;
        }
        let mut sub = obs.sub();
        let coarse = sub.scope("contract", |p| {
            let started = Instant::now();
            let coarse = coarsen_into(g, &state.partition(), &mut cscratch);
            p.count("vertices", g.num_vertices() as u64);
            p.count("arcs", g.num_arcs() as u64);
            p.count("communities", coarse.num_communities as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            coarse
        });
        obs.span(round, iters as u32, "contract", None, sub);
        obs.exit_round();
        let stalled = coarse.num_communities == g.num_vertices();
        let level = match flat {
            None => coarse.renumbered.clone(),
            Some(prev) => prev.compose(&coarse.renumbered),
        };
        let (communities, arcs) = (coarse.num_communities, g.num_arcs());
        obs.round_end(round, "phase1", iters, communities, arcs, || {
            crate::modularity::modularity(graph, &level)
        });
        flat = Some(level);
        if stalled {
            break;
        }
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        cscratch.reclaim_assignment(coarse.renumbered);
        current = Some(coarse.graph);
    }
    let partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
    let modularity = crate::modularity::modularity(graph, &partition);
    obs.run_end(modularity, rounds, 0.0);
    GrappoloResult {
        partition,
        modularity,
        first_round_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn finds_cliques() {
        let g = fixtures::ring_of_cliques(6, 5);
        let r = grappolo(&g, 1e-6);
        assert_eq!(r.partition.num_communities(), 6);
        assert!(r.first_round_iterations >= 1);
    }

    #[test]
    fn instrumented_run_matches_plain_and_emits_profiles() {
        use gala_telemetry::{PhaseProfile, TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let plain = grappolo(&g, 1e-6);
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = grappolo_with(&g, 1e-6, &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        let mut phase1_profiles = 0;
        for event in &sink.events {
            if let TraceEvent::Profile(PhaseProfile {
                backend,
                unit,
                phase,
                spans,
                ..
            }) = event
            {
                assert_eq!(backend, "host");
                assert_eq!(unit, "ns");
                if phase == "phase1" {
                    phase1_profiles += 1;
                    let decide = spans.iter().find(|s| s.path == "decide").unwrap();
                    assert!(decide.total > 0.0);
                    assert!(spans.iter().any(|s| s.path == "decide/cpu"));
                }
            }
        }
        assert!(phase1_profiles >= traced.first_round_iterations);
        let round = tree.child("round").expect("round span");
        assert!(round
            .child("superstep")
            .and_then(|s| s.child("decide"))
            .is_some());
        assert!(round.child("contract").is_some());
    }

    #[test]
    fn matches_gala_modularity_exactly() {
        // GALA with no pruning uses the same kernels/heuristics: both
        // follow Grappolo's convergence strategy, so Q is identical
        // (the paper makes the same observation in Section 5.1).
        let g = fixtures::ring_of_cliques(7, 4);
        let gala = crate::louvain::Louvain::new(crate::louvain::LouvainConfig::default()).run(&g);
        let grap = grappolo(&g, 1e-6);
        assert!(
            (gala.modularity - grap.modularity).abs() < 1e-9,
            "gala {} vs grappolo {}",
            gala.modularity,
            grap.modularity
        );
    }
}
