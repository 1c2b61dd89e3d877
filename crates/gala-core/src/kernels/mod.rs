//! DecideAndMove kernels (paper Section 4).
//!
//! Every kernel computes, for each active vertex, the same function: the
//! weight `d_C(v)` to each neighboring community, the gain score of moving
//! there, and the best target under Grappolo's deterministic tie-breaking.
//! They differ in *where the intermediate state lives*:
//!
//! * [`cpu`] — host reference: rayon over vertices, each pool
//!   participant aggregating through its own reusable fold, one dense
//!   index over community ids.
//! * [`shuffle`] — paper Algorithm 2: a warp per vertex, state in lane
//!   registers, aggregation via `__match_any_sync` + grouped reduce.
//! * [`hash`] — paper Algorithm 3: a block per vertex, state in a
//!   [`hashtable::VertexTable`] that is global-only, unified, or
//!   hierarchical (the paper's contribution).
//! * [`sort`] — the cuGraph-style baseline: materialise `(community,
//!   weight)` pairs in global scratch, bitonic-sort, segmented-reduce.
//! * [`replicated`] — per-thread private tables merged by reduction (the
//!   conflict-free design of the paper's reference \[32\], kept as a
//!   measurable ablation).
//!
//! Every kernel launches over an ascending work list of vertices and
//! writes one decision per listed vertex; `decide_list` is the
//! simulator's one pass over such a list, and [`decide`] the mask-taking
//! form tests and the figure bins call.
//!
//! All kernels funnel their per-community aggregates through [`choose`], so
//! on unit-weight graphs (exact f64 sums) they make bit-identical decisions
//! — a property the cross-kernel tests enforce.

pub mod contract;
pub mod cpu;
pub mod hash;
pub mod hashtable;
pub(crate) mod native;
pub mod replicated;
pub mod shuffle;
pub mod sort;

use crate::pruning::certificate::Certificates;
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_gpu::profile::Profiler;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};
use hashtable::{HashConfig, TableStats};

/// Which DecideAndMove kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Host reference implementation (per-thread reusable fold on rayon).
    Cpu,
    /// Warp-level shuffle-based kernel (Algorithm 2).
    Shuffle,
    /// Block-level hash-based kernel (Algorithm 3) with the given table.
    Hash(HashConfig),
    /// cuGraph-style sort + segmented-reduce baseline.
    Sort,
    /// Per-thread replicated tables merged by reduction — the design of
    /// the paper's reference \[32\], kept as a measurable ablation.
    Replicated,
    /// GALA's workload-aware dispatch: shuffle for degree < threshold,
    /// hash-based (hierarchical table by default) otherwise. This is the
    /// paper's "MM" memory-management optimisation.
    WorkloadAware(HashConfig),
}

impl Default for KernelKind {
    fn default() -> Self {
        KernelKind::WorkloadAware(HashConfig::default())
    }
}

/// Degree below which the workload-aware dispatcher uses the shuffle kernel
/// (one warp's worth of neighbors).
pub const SHUFFLE_DEGREE_THRESHOLD: usize = 32;

/// How a decide pass routed its active vertices across kernels — the
/// paper's Fig 9 quantity. For the workload-aware dispatcher this is the
/// degree-threshold split; single-kernel runs put everything in one field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Vertices handled by the warp-shuffle kernel.
    pub shuffle_vertices: u64,
    /// Vertices handled by a hash-based kernel.
    pub hash_vertices: u64,
    /// Vertices handled by any other kernel (cpu / sort / replicated).
    pub other_vertices: u64,
}

/// Output of a DecideAndMove pass.
#[derive(Clone, Debug, Default)]
pub struct DecideOutput {
    /// Chosen community per vertex (unchanged for inactive vertices).
    /// Written only by the mask-taking
    /// [`crate::backend::ExecutionBackend::decide`]; the work-list passes
    /// leave it as it was.
    pub next_comm: Vec<CommunityId>,
    /// `(vertex, new community)` of every decided vertex that changes
    /// community, in ascending vertex order. Written by every pass.
    pub moves: Vec<(VertexId, CommunityId)>,
    /// Summed simulated memory tally.
    pub tally: MemTally,
    /// Hashtable placement statistics (hash-based kernels only).
    pub hash_stats: TableStats,
    /// Per-kernel routing counts for this pass.
    pub routing: RoutingStats,
}

/// Reusable scratch buffers for decide passes. Drivers keep one of these
/// across supersteps (and rounds) so the work lists and kernel launch
/// outputs are recycled instead of reallocated every superstep. Every
/// buffer but `certs` carries no state between calls — every pass fully
/// rewrites what it uses.
///
/// `certs` holds the `mgd` stay certificates ([`crate::pruning`]). They
/// ride here because this is what reaches the decide fold on one device
/// and on several alike. The Louvain driver arms them for its rounds; a
/// default scratch keeps them disarmed, so other callers decide exactly
/// as before.
#[derive(Debug, Default)]
pub struct DecideScratch {
    /// Stay certificates the fold records into while armed.
    pub(crate) certs: Certificates,
    /// The work list the mask adapter builds from its mask.
    listed: Vec<VertexId>,
    /// Decisions of a launched kernel, in its work list's order (the
    /// shuffle half of a workload-aware pass).
    comm_out: Vec<CommunityId>,
    /// Decisions of the hash half of a workload-aware pass.
    hash_next: Vec<CommunityId>,
    /// Launch outputs of the hash kernel (community + table stats).
    hash_out: Vec<(CommunityId, TableStats)>,
    /// Workload-aware work list below the degree threshold.
    shuffle_work: Vec<VertexId>,
    /// Workload-aware work list at or above the degree threshold.
    hash_work: Vec<VertexId>,
}

impl DecideScratch {
    /// Runs the work-list pass `pass` over the vertices `active` marks:
    /// the one mask-taking form of a decide pass. `out.next_comm` is
    /// rebuilt from `state` and the pass's moves.
    pub(crate) fn decide_masked(
        &mut self,
        state: &BspState,
        active: &[bool],
        out: &mut DecideOutput,
        pass: impl FnOnce(&[VertexId], &mut Self, &mut DecideOutput),
    ) {
        let mut work = std::mem::take(&mut self.listed);
        work.clear();
        work.extend((0..active.len() as VertexId).filter(|&v| active[v as usize]));
        pass(&work, self, out);
        self.listed = work;
        out.next_comm.clear();
        out.next_comm.extend_from_slice(&state.comm);
        for &(v, c) in &out.moves {
            out.next_comm[v as usize] = c;
        }
    }
}

impl DecideOutput {
    /// Sets `moves` from a work-list pass's decisions: `next[i]` is the
    /// community chosen for `work[i]`.
    pub(crate) fn set_moves(&mut self, state: &BspState, work: &[VertexId], next: &[CommunityId]) {
        self.moves.clear();
        self.moves.extend(
            work.iter()
                .copied()
                .zip(next.iter().copied())
                .filter(|&(v, c)| c != state.comm[v as usize]),
        );
    }
}

/// Runs the selected kernel on the simulator over all `active` vertices:
/// [`SimBackend`]'s mask-taking decide with a fresh scratch and no
/// profiler.
///
/// [`SimBackend`]: crate::backend::SimBackend
pub fn decide(kind: KernelKind, graph: &Graph, state: &BspState, active: &[bool]) -> DecideOutput {
    use crate::backend::{ExecutionBackend, SimBackend};
    let mut out = DecideOutput::default();
    SimBackend.decide(
        kind,
        graph,
        state,
        active,
        &mut Profiler::disabled(),
        &mut DecideScratch::default(),
        &mut out,
    );
    out
}

/// The simulator's DecideAndMove pass: runs `kind` over the vertices of
/// `work` (ascending), one simulated warp or block per vertex. `out` is
/// rewritten but for `next_comm`: `moves` lists the movers, and the tally,
/// table statistics and routing are the pass's. Recorded as a `"decide"`
/// span on `prof` with one child span per kernel launched (the
/// workload-aware dispatcher produces both a `"shuffle"` and a `"hash"`
/// child). Each kernel span carries its memory tally — including
/// divergence and coalescing counters — plus an `"items"` counter, and
/// hash-based kernels add their table statistics.
pub(crate) fn decide_list(
    kind: KernelKind,
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    prof: &mut Profiler,
    scratch: &mut DecideScratch,
    out: &mut DecideOutput,
) {
    let DecideScratch {
        certs,
        comm_out,
        hash_next,
        hash_out,
        shuffle_work,
        hash_work,
        ..
    } = scratch;
    let items = work.len() as u64;
    out.hash_stats = TableStats::default();
    out.routing = RoutingStats::default();
    let name = match kind {
        KernelKind::Cpu => {
            cpu::decide_list(graph, state, work, certs.armed(), comm_out);
            out.tally = MemTally::new();
            out.routing.other_vertices = items;
            "cpu"
        }
        KernelKind::Shuffle => {
            out.tally = shuffle::decide_list(graph, state, work, comm_out);
            out.routing.shuffle_vertices = items;
            "shuffle"
        }
        KernelKind::Hash(cfg) => {
            (out.tally, out.hash_stats) =
                hash::decide_list(graph, state, work, cfg, hash_out, comm_out);
            out.routing.hash_vertices = items;
            "hash"
        }
        KernelKind::Sort => {
            out.tally = sort::decide_list(graph, state, work, comm_out);
            out.routing.other_vertices = items;
            "sort"
        }
        KernelKind::Replicated => {
            out.tally = replicated::decide_list(graph, state, work, comm_out);
            out.routing.other_vertices = items;
            "replicated"
        }
        KernelKind::WorkloadAware(cfg) => {
            let below = |v: VertexId| graph.degree(v) < SHUFFLE_DEGREE_THRESHOLD;
            shuffle_work.clear();
            hash_work.clear();
            for &v in work {
                if below(v) {
                    shuffle_work.push(v);
                } else {
                    hash_work.push(v);
                }
            }
            let small = shuffle::decide_list(graph, state, shuffle_work, comm_out);
            let (large, stats) =
                hash::decide_list(graph, state, hash_work, cfg, hash_out, hash_next);
            out.routing.shuffle_vertices = shuffle_work.len() as u64;
            out.routing.hash_vertices = hash_work.len() as u64;
            if prof.is_enabled() {
                let r = out.routing;
                prof.scope("decide", |p| {
                    record_kernel_span(
                        p,
                        "shuffle",
                        r.shuffle_vertices,
                        &small,
                        &TableStats::default(),
                    );
                    record_kernel_span(p, "hash", r.hash_vertices, &large, &stats);
                });
            }
            out.tally = small;
            out.tally += large;
            out.hash_stats = stats;
            // Both halves are ascending: walking `work` and taking the next
            // decision of the half each vertex went to merges them.
            let (mut small, mut large) = (comm_out.iter(), hash_next.iter());
            out.moves.clear();
            out.moves.extend(
                work.iter()
                    .map(|&v| {
                        let half = if below(v) { &mut small } else { &mut large };
                        (v, *half.next().expect("one decision per listed vertex"))
                    })
                    .filter(|&(v, c)| c != state.comm[v as usize]),
            );
            return;
        }
    };
    out.set_moves(state, work, comm_out);
    if prof.is_enabled() {
        prof.scope("decide", |p| {
            record_kernel_span(p, name, items, &out.tally, &out.hash_stats)
        });
    }
}

/// Records one kernel child span: tally, item count, and (for hash-based
/// kernels) the table statistics as named counters.
fn record_kernel_span(
    prof: &mut Profiler,
    name: &str,
    items: u64,
    tally: &MemTally,
    stats: &TableStats,
) {
    prof.scope(name, |p| {
        p.record(tally);
        p.count("items", items);
        if *stats != TableStats::default() {
            p.count("hash_shared_keys", stats.shared_keys);
            p.count("hash_global_keys", stats.global_keys);
            p.count("hash_shared_accesses", stats.shared_accesses);
            p.count("hash_global_accesses", stats.global_accesses);
            p.count("hash_shared_capacity", stats.shared_capacity);
            p.count("hash_evictions", stats.shared_evictions);
        }
    });
}

/// Shared decision rule: given the aggregated `(community, d_vc)` candidates
/// of vertex `v`, picks the next community under the extraction-convention
/// gain with Grappolo's heuristics:
///
/// 1. Foreign candidates are ranked by gain score; ties go to the smaller
///    community id (deterministic under any parallel schedule).
/// 2. The vertex moves only if the best foreign score beats the stay score,
///    or equals it with a smaller community id.
/// 3. Singleton-swap guard: a vertex alone in its community only moves into
///    another *singleton* community of smaller id, preventing the classic
///    two-singleton oscillation of parallel Louvain.
#[inline]
pub fn choose(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    candidates: &[(CommunityId, f64)],
) -> CommunityId {
    choose_with_margin(v, graph, state, candidates).0
}

/// [`choose`], also returning the stay margin: the stay score minus the
/// best foreign score, `+∞` when `v` has no foreign candidate. The margin
/// is positive exactly when `v` stays because staying strictly wins; every
/// move, tie and singleton-guard stay has a margin ≤ 0. Stay certificates
/// ([`crate::pruning`]) are built from it.
#[inline]
pub(crate) fn choose_with_margin(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    candidates: &[(CommunityId, f64)],
) -> (CommunityId, f64) {
    let cv = state.comm[v as usize];
    let d_v = graph.degree_w(v);
    let mut stay_d_vc = 0.0;
    let mut best: Option<(f64, CommunityId)> = None;
    for &(c, d_vc) in candidates {
        if c == cv {
            stay_d_vc = d_vc;
            continue;
        }
        let score = state.score(d_vc, d_v, state.d_tot[c as usize]);
        best = match best {
            None => Some((score, c)),
            Some((bs, bc)) => {
                if score > bs || (score == bs && c < bc) {
                    Some((score, c))
                } else {
                    Some((bs, bc))
                }
            }
        };
    }
    let Some((best_score, best_c)) = best else {
        // No foreign neighbor community: nothing to move to.
        return (cv, f64::INFINITY);
    };
    let stay_score = state.score(stay_d_vc, d_v, state.d_tot_without(v, graph));
    let margin = stay_score - best_score;
    let wants_move = best_score > stay_score || (best_score == stay_score && best_c < cv);
    if !wants_move {
        return (cv, margin);
    }
    // Singleton-swap guard (Grappolo): singleton may only join a singleton
    // with a smaller id.
    if state.comm_size[cv as usize] == 1 && state.comm_size[best_c as usize] == 1 && best_c > cv {
        return (cv, margin);
    }
    (best_c, margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, SimBackend};
    use gala_graph::coarsen::coarsen;
    use gala_graph::generators::fixtures;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Fresh singleton state over the two-cliques fixture.
    fn setup() -> (Graph, BspState) {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        (g, s)
    }

    #[test]
    fn choose_moves_toward_positive_gain() {
        let (g, s) = setup();
        // Vertex 1 (inside clique 0) with singleton communities everywhere:
        // all neighbors are singleton communities; guard restricts moves to
        // smaller ids, so it must pick community 0.
        let cands: Vec<(CommunityId, f64)> = g
            .neighbors(1)
            .map(|(u, w)| (s.comm[u as usize], w))
            .collect();
        assert_eq!(choose(1, &g, &s, &cands), 0);
    }

    #[test]
    fn choose_respects_singleton_guard() {
        let (g, s) = setup();
        // Vertex 0's neighbors are communities 1 and 2, both singletons
        // with larger ids: the guard forbids both moves.
        let cands: Vec<(CommunityId, f64)> = g
            .neighbors(0)
            .map(|(u, w)| (s.comm[u as usize], w))
            .collect();
        assert_eq!(choose(0, &g, &s, &cands), 0);
    }

    #[test]
    fn choose_stays_without_candidates() {
        let (g, s) = setup();
        assert_eq!(choose(4, &g, &s, &[]), 4);
    }

    #[test]
    fn choose_prefers_smaller_id_on_tie() {
        let (g, mut s) = setup();
        // Make communities 1 and 2 identical targets for vertex 0.
        s.comm = vec![0, 1, 1, 2, 2, 5];
        s.comm_size = vec![1, 2, 2, 0, 0, 1];
        s.d_tot = vec![
            g.degree_w(0),
            g.degree_w(1) + g.degree_w(2),
            g.degree_w(3) + g.degree_w(4),
            0.0,
            0.0,
            g.degree_w(5),
        ];
        // Vertex 0 connects to 1 and 2, both in community 1 — single
        // candidate; then symmetric fake: d_vc equal to both communities.
        let cands = vec![(1u32, 1.0), (2u32, 1.0)];
        // d_tot of community 1 vs 2: clique degrees are symmetric except
        // bridge; vertex 2 and 3 carry the bridge. Compute scores directly:
        let cv = choose(0, &g, &s, &cands);
        // community 2 contains the bridge endpoint 3 (degree 3), community 1
        // also contains bridge endpoint 2 (degree 3): d_tot equal → tie →
        // smaller id wins.
        assert_eq!(cv, 1);
    }

    #[test]
    fn routing_stats_follow_the_degree_threshold() {
        // star(40): hub degree 40 ≥ threshold → hash; 40 leaves → shuffle.
        let g = fixtures::star(40);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let out = decide(KernelKind::default(), &g, &s, &active);
        assert_eq!(out.routing.shuffle_vertices, 40);
        assert_eq!(out.routing.hash_vertices, 1);
        assert_eq!(out.routing.other_vertices, 0);
        // Single-kernel runs put every active vertex in their own bucket.
        let out = decide(KernelKind::Shuffle, &g, &s, &active);
        assert_eq!(out.routing.shuffle_vertices, 41);
        let out = decide(KernelKind::Cpu, &g, &s, &active);
        assert_eq!(out.routing.other_vertices, 41);
    }

    #[test]
    fn workload_aware_matches_cpu() {
        let g = fixtures::ring_of_cliques(4, 6);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let a = decide(KernelKind::Cpu, &g, &s, &active);
        let b = decide(KernelKind::default(), &g, &s, &active);
        assert_eq!(a.next_comm, b.next_comm);
    }

    fn all_kinds() -> [KernelKind; 6] {
        [
            KernelKind::Cpu,
            KernelKind::Shuffle,
            KernelKind::Hash(HashConfig::default()),
            KernelKind::Sort,
            KernelKind::Replicated,
            KernelKind::WorkloadAware(HashConfig::default()),
        ]
    }

    /// `kind` over `work` one vertex at a time on the calling thread,
    /// through the per-vertex kernel each vertex is routed to: the movers,
    /// the summed tally and the summed table statistics.
    fn one_by_one(
        kind: KernelKind,
        g: &Graph,
        s: &BspState,
        work: &[VertexId],
    ) -> (Vec<(VertexId, CommunityId)>, MemTally, TableStats) {
        let (mut moves, mut tally, mut stats) =
            (Vec::new(), MemTally::new(), TableStats::default());
        for &v in work {
            let kernel = match kind {
                KernelKind::WorkloadAware(_) if g.degree(v) < SHUFFLE_DEGREE_THRESHOLD => {
                    KernelKind::Shuffle
                }
                KernelKind::WorkloadAware(cfg) => KernelKind::Hash(cfg),
                kind => kind,
            };
            let mut t = MemTally::new();
            let c = match kernel {
                KernelKind::Cpu => cpu::decide_one(v, g, s),
                KernelKind::Shuffle => shuffle::decide_one(v, g, s, &mut t),
                KernelKind::Hash(cfg) => {
                    let (c, st) = hash::decide_one(v, g, s, cfg, &mut t);
                    stats += st;
                    c
                }
                KernelKind::Sort => sort::decide_one(v, g, s, &mut t),
                KernelKind::Replicated => replicated::decide_one(v, g, s, &mut t),
                KernelKind::WorkloadAware(_) => unreachable!("routed above"),
            };
            tally += t;
            if c != s.comm[v as usize] {
                moves.push((v, c));
            }
        }
        (moves, tally, stats)
    }

    /// Checks the simulator's list pass over the empty list, one vertex,
    /// every vertex and a random ascending sub-list of `g` against the
    /// mask pass over the matching mask and against [`one_by_one`], for
    /// every kind at pool widths 1, 2 and 8: movers, tally, table
    /// statistics, routing and the `decide` span tree.
    fn assert_list_pass_is_mask_pass(g: &Graph, s: &BspState, seed: u64) {
        let n = g.num_vertices() as VertexId;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let lists = [
            vec![],
            vec![rng.gen_range(0..n)],
            (0..n).collect(),
            (0..n).filter(|_| rng.gen_bool(0.3)).collect::<Vec<_>>(),
        ];
        for work in &lists {
            let mut active = vec![false; n as usize];
            for &v in work {
                active[v as usize] = true;
            }
            for kind in all_kinds() {
                let (moves, tally, stats) = one_by_one(kind, g, s, work);
                let masked = decide(kind, g, s, &active);
                assert_eq!(masked.moves, moves, "{kind:?}, {} listed", work.len());
                assert_eq!(masked.tally, tally, "{kind:?}");
                assert_eq!(masked.hash_stats, stats, "{kind:?}");
                let mut mask_prof = Profiler::new();
                SimBackend.decide(
                    kind,
                    g,
                    s,
                    &active,
                    &mut mask_prof,
                    &mut DecideScratch::default(),
                    &mut DecideOutput::default(),
                );
                let mask_tree = mask_prof.finish();
                for width in [1, 2, 8] {
                    let mut prof = Profiler::new();
                    let mut out = DecideOutput::default();
                    rayon::with_parallelism(width, || {
                        SimBackend.decide_list(
                            kind,
                            g,
                            s,
                            work,
                            &mut prof,
                            &mut DecideScratch::default(),
                            &mut out,
                        )
                    });
                    let at = format!("{kind:?}, width {width}, {} listed", work.len());
                    assert_eq!(out.moves, masked.moves, "{at}");
                    assert_eq!(out.tally, masked.tally, "{at}");
                    assert_eq!(out.hash_stats, masked.hash_stats, "{at}");
                    assert_eq!(out.routing, masked.routing, "{at}");
                    assert!(
                        out.next_comm.is_empty(),
                        "{at}: the list pass wrote next_comm"
                    );
                    assert_eq!(prof.finish(), mask_tree, "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The simulator's work-list pass is the mask pass: on `star(40)`
        /// (both sides of the degree threshold), a weighted planted graph
        /// and its coarse, self-looped level.
        #[test]
        fn list_pass_matches_mask_pass(
            communities in 12usize..20,
            size in 20usize..30,
            seed in any::<u64>(),
        ) {
            let star = fixtures::star(40);
            assert_list_pass_is_mask_pass(&star, &BspState::new(&star), seed);
            let g = cpu::weighted_planted(communities, size, 8.0, 0.3, seed);
            let settled = cpu::settled_state(&g);
            assert_list_pass_is_mask_pass(&g, &settled, seed);
            let coarse = coarsen(&g, &settled.partition()).graph;
            assert_list_pass_is_mask_pass(&coarse, &BspState::new(&coarse), seed);
        }
    }
}
