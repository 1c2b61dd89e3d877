//! Native DecideAndMove execution: the same per-vertex decision functions
//! as the simulated kernels, run directly on the work-stealing pool with no
//! warp emulation, no hashtable placement simulation, and no [`MemTally`]
//! cost accounting — the wall-clock half of
//! [`crate::backend::NativeBackend`].
//!
//! Bit-identity with the simulator is an accumulation-order argument, not
//! an accident:
//!
//! * [`cpu::decide_one`] folds each community's `d_vc` in neighbor-list
//!   order. The hash kernel's `VertexTable` upserts in neighbor order and
//!   drains in insertion order — the same left fold, for any edge weights.
//!   The shuffle kernel's grouped reduce sums each 32-lane chunk in
//!   ascending lane order, so *single-chunk* vertices (degree below
//!   [`super::SHUFFLE_DEGREE_THRESHOLD`]) are that fold too — and the
//!   workload-aware dispatcher routes exactly those to the shuffle kernel.
//!   Hence `Cpu`, `Hash`, and `WorkloadAware` all reduce to
//!   [`cpu::decide_one`] bit-for-bit, and the native path runs that fold
//!   on rayon with nothing else in the loop. Each pool participant
//!   threads its own reusable [`cpu::Fold`] through its vertices, so a
//!   superstep allocates nothing per vertex. The fold does not split by
//!   degree: every vertex gathers its candidates through one dense index
//!   over community ids, which lists them in first-occurrence order with
//!   each `d_vc` summed in neighbor order — the canonical order itself,
//!   at any degree. That cut the decide pass's wall ns per decided arc
//!   at pool width 2 by 11–24% on the four benchmark workloads (see
//!   [`cpu`]). The dispatcher's split survives as a per-chunk count by
//!   degree, which is the routing split, so reporting it costs no pass
//!   over the active mask.
//! * Explicit `Shuffle` on multi-chunk vertices merges per-chunk partial
//!   sums, `Sort` accumulates in sorted order (after an unstable bitonic
//!   sort), and `Replicated` merges by tree reduction — different
//!   summation orders. For those ablation kinds the native path runs the
//!   simulator's own list pass ([`super::decide_list`]) with a disabled
//!   profiler and discards its tally and table statistics, trading some
//!   speed for guaranteed bit-identity.
//!
//! All candidates funnel through the same [`super::choose`] rule either
//! way, so the two backends agree on every assignment — the property the
//! backend-equivalence proptests and CI job pin down.

use super::{cpu, DecideOutput, DecideScratch, KernelKind, RoutingStats};
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_gpu::profile::Profiler;
use gala_graph::{Graph, VertexId};
use std::time::Instant;

/// Runs the native equivalent of the simulator's [`super::decide_list`]
/// over the vertices of `work` (ascending), setting `out.moves`;
/// `out.next_comm` is not written. Same routing semantics, zero simulated
/// cost. When `prof` is enabled the pass records a `"decide"` span whose
/// kernel children carry `"items"` counters and whose scope carries a real
/// `"elapsed_ns"` counter instead of a memory tally.
pub(crate) fn decide_list(
    kind: KernelKind,
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    prof: &mut Profiler,
    scratch: &mut DecideScratch,
    out: &mut DecideOutput,
) {
    let started = Instant::now();
    match kind {
        KernelKind::Cpu | KernelKind::Hash(_) | KernelKind::WorkloadAware(_) => {
            let DecideScratch {
                certs, comm_out, ..
            } = scratch;
            let counts = cpu::decide_list(graph, state, work, certs.armed(), comm_out);
            out.set_moves(state, work, comm_out);
            out.routing = route_lean(kind, counts);
        }
        KernelKind::Shuffle | KernelKind::Sort | KernelKind::Replicated => {
            super::decide_list(
                kind,
                graph,
                state,
                work,
                &mut Profiler::disabled(),
                scratch,
                out,
            );
        }
    }
    out.tally = MemTally::new();
    out.hash_stats = Default::default();
    let routing = out.routing;
    if prof.is_enabled() {
        let elapsed = started.elapsed().as_nanos() as u64;
        prof.scope("decide", |p| {
            if matches!(kind, KernelKind::WorkloadAware(_)) {
                p.scope("shuffle", |k| k.count("items", routing.shuffle_vertices));
                p.scope("hash", |k| k.count("items", routing.hash_vertices));
            } else {
                let items =
                    routing.shuffle_vertices + routing.hash_vertices + routing.other_vertices;
                p.scope(kernel_name(kind), |k| k.count("items", items));
            }
            p.count("elapsed_ns", elapsed);
        });
    }
}

/// Routing counts for the lean (cpu-fold) path, matching the simulator's
/// semantics per kernel kind. The fold's tally counts the workload-aware
/// dispatcher's degree split as it decides, so no pass over `active` is
/// needed.
fn route_lean(kind: KernelKind, counts: cpu::FoldCounts) -> RoutingStats {
    match kind {
        KernelKind::Cpu => RoutingStats {
            other_vertices: counts.total(),
            ..RoutingStats::default()
        },
        KernelKind::Hash(_) => RoutingStats {
            hash_vertices: counts.total(),
            ..RoutingStats::default()
        },
        KernelKind::WorkloadAware(_) => RoutingStats {
            shuffle_vertices: counts.shuffle,
            hash_vertices: counts.hash,
            other_vertices: 0,
        },
        _ => unreachable!("lean routing is only for cpu/hash/workload-aware"),
    }
}

/// Span name for a single-kernel pass, matching the simulator's child
/// span names so cross-backend trace comparisons line up.
fn kernel_name(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Cpu => "cpu",
        KernelKind::Shuffle => "shuffle",
        KernelKind::Hash(_) => "hash",
        KernelKind::Sort => "sort",
        KernelKind::Replicated => "replicated",
        KernelKind::WorkloadAware(_) => "decide",
    }
}

#[cfg(test)]
mod tests {
    use super::super::decide;
    use super::*;
    use crate::backend::{ExecutionBackend, NativeBackend};
    use crate::kernels::hashtable::HashConfig;
    use gala_graph::coarsen::coarsen;
    use gala_graph::generators::fixtures;

    fn all_kinds() -> Vec<KernelKind> {
        vec![
            KernelKind::Cpu,
            KernelKind::Shuffle,
            KernelKind::Hash(HashConfig::default()),
            KernelKind::Sort,
            KernelKind::Replicated,
            KernelKind::WorkloadAware(HashConfig::default()),
        ]
    }

    /// A coarse (weighted, self-looped) level with fewer vertices than the
    /// pool's length threshold but at least that many arcs, so the native
    /// fold goes to the pool by its arcs alone.
    fn short_heavy_coarse_level() -> Graph {
        let g = cpu::weighted_planted(24, 50, 8.0, 0.3, 3);
        let coarse = coarsen(&g, &cpu::settled_state(&g).partition()).graph;
        assert!(
            coarse.num_vertices() < rayon::min_par_len()
                && coarse.num_arcs() >= rayon::min_par_len(),
            "{} vertices, {} arcs",
            coarse.num_vertices(),
            coarse.num_arcs()
        );
        coarse
    }

    #[test]
    fn native_decide_matches_sim_per_kind() {
        // star(40) exercises both sides of the degree threshold; the
        // coarse level is weighted and reaches the pool with a work list
        // shorter than the pool's length threshold.
        for g in [
            fixtures::ring_of_cliques(4, 6),
            fixtures::star(40),
            short_heavy_coarse_level(),
        ] {
            let s = BspState::new(&g);
            let active = vec![true; g.num_vertices()];
            for kind in all_kinds() {
                let sim = decide(kind, &g, &s, &active);
                for width in [1, 2, 8] {
                    let mut scratch = DecideScratch::default();
                    let mut out = DecideOutput::default();
                    rayon::with_parallelism(width, || {
                        NativeBackend.decide(
                            kind,
                            &g,
                            &s,
                            &active,
                            &mut Profiler::disabled(),
                            &mut scratch,
                            &mut out,
                        )
                    });
                    assert_eq!(out.next_comm, sim.next_comm, "{kind:?}, width {width}");
                    assert_eq!(out.routing, sim.routing, "{kind:?}, width {width}");
                    assert_eq!(out.tally, MemTally::new(), "{kind:?} charged a tally");
                }
            }
        }
    }

    #[test]
    fn native_decide_respects_inactive_vertices() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let mut active = vec![true; 6];
        active[1] = false;
        for kind in all_kinds() {
            let mut scratch = DecideScratch::default();
            let mut out = DecideOutput::default();
            NativeBackend.decide(
                kind,
                &g,
                &s,
                &active,
                &mut Profiler::disabled(),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.next_comm[1], 1, "{kind:?} moved an inactive vertex");
        }
    }

    #[test]
    fn native_spans_carry_items_and_elapsed() {
        let g = fixtures::star(40);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let mut prof = Profiler::new();
        let mut scratch = DecideScratch::default();
        let mut out = DecideOutput::default();
        NativeBackend.decide(
            KernelKind::default(),
            &g,
            &s,
            &active,
            &mut prof,
            &mut scratch,
            &mut out,
        );
        let tree = prof.finish();
        let decide = tree.child("decide").expect("decide span");
        assert_eq!(decide.child("shuffle").unwrap().counter("items"), 40);
        assert_eq!(decide.child("hash").unwrap().counter("items"), 1);
        assert_eq!(decide.total_tally(), MemTally::new());
    }
}
