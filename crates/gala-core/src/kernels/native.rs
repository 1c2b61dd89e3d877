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
//!   on rayon with nothing else in the loop. Each pool chunk threads one
//!   reusable [`cpu::Fold`] through its vertices, so a superstep allocates
//!   nothing per vertex. The fold makes the dispatcher's split itself: a
//!   linear candidate search below the threshold, a stamped hash table at
//!   or above it. Its per-chunk tally of the two is the routing split, so
//!   reporting it costs no pass over the active mask.
//! * Explicit `Shuffle` on multi-chunk vertices merges per-chunk partial
//!   sums, `Sort` accumulates in sorted order (after an unstable bitonic
//!   sort), and `Replicated` merges by tree reduction — different
//!   summation orders. For those kinds the native path reuses the
//!   simulator's own per-vertex functions with a discarded tally, trading
//!   some speed for guaranteed bit-identity.
//!
//! All candidates funnel through the same [`super::choose`] rule either
//! way, so the two backends agree on every assignment — the property the
//! backend-equivalence proptests and CI job pin down.

use super::{
    cpu, replicated, shuffle, sort, DecideOutput, DecideScratch, KernelKind, RoutingStats,
};
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_gpu::profile::Profiler;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};
use std::time::Instant;

/// Runs the native equivalent of [`super::decide_profiled_into`] over the
/// vertices of `work` (ascending), setting `out.moves`; `out.next_comm` is
/// not written. Same routing semantics, zero simulated cost. When `prof`
/// is enabled the pass records a `"decide"` span whose kernel children
/// carry `"items"` counters and whose scope carries a real `"elapsed_ns"`
/// counter instead of a memory tally.
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
    let DecideScratch {
        certs, comm_out, ..
    } = scratch;
    let routing = match kind {
        KernelKind::Cpu | KernelKind::Hash(_) | KernelKind::WorkloadAware(_) => {
            let counts = cpu::decide_list(graph, state, work, certs.armed(), comm_out);
            route_lean(kind, counts)
        }
        KernelKind::Shuffle => RoutingStats {
            shuffle_vertices: run_sim_kernel(graph, state, work, comm_out, shuffle::decide_one),
            ..RoutingStats::default()
        },
        KernelKind::Sort => RoutingStats {
            other_vertices: run_sim_kernel(graph, state, work, comm_out, sort::decide_one),
            ..RoutingStats::default()
        },
        KernelKind::Replicated => RoutingStats {
            other_vertices: run_sim_kernel(graph, state, work, comm_out, replicated::decide_one),
            ..RoutingStats::default()
        },
    };
    out.set_moves(state, work, comm_out);
    out.tally = MemTally::new();
    out.hash_stats = Default::default();
    out.routing = routing;
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
/// semantics per kernel kind. The fold's own degree split is the
/// workload-aware dispatcher's, so no pass over `active` is needed.
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
            shuffle_vertices: counts.linear,
            hash_vertices: counts.hashed,
            other_vertices: 0,
        },
        _ => unreachable!("lean routing is only for cpu/hash/workload-aware"),
    }
}

/// A simulator's per-vertex decision function.
type SimKernel = fn(VertexId, &Graph, &BspState, &mut MemTally) -> CommunityId;

/// Runs a simulated per-vertex decision function over `work` on the pool,
/// discarding its tallies, into `next`. Returns the number of vertices
/// decided.
fn run_sim_kernel(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    next: &mut Vec<CommunityId>,
    kernel: SimKernel,
) -> u64 {
    let _ = rayon::par_map_accum_into(work, next, MemTally::new, |&v, tally| {
        kernel(v, graph, state, tally)
    });
    work.len() as u64
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

    #[test]
    fn native_decide_matches_sim_per_kind() {
        // star(40) exercises both sides of the degree threshold; the
        // weighted path is covered by the backend proptests on coarse
        // (weighted) hierarchy levels.
        for g in [fixtures::ring_of_cliques(4, 6), fixtures::star(40)] {
            let s = BspState::new(&g);
            let active = vec![true; g.num_vertices()];
            for kind in all_kinds() {
                let sim = decide(kind, &g, &s, &active);
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
                assert_eq!(out.next_comm, sim.next_comm, "{kind:?}");
                assert_eq!(out.routing, sim.routing, "{kind:?}");
                assert_eq!(out.tally, MemTally::new(), "{kind:?} charged a tally");
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
