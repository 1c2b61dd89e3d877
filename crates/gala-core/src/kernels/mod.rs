//! DecideAndMove kernels (paper Section 4).
//!
//! Every kernel computes, for each active vertex, the same function: the
//! weight `d_C(v)` to each neighboring community, the gain score of moving
//! there, and the best target under Grappolo's deterministic tie-breaking.
//! They differ in *where the intermediate state lives*:
//!
//! * [`cpu`] — host reference: rayon over vertices, each pool chunk
//!   aggregating through one reusable open-addressed fold.
//! * [`shuffle`] — paper Algorithm 2: a warp per vertex, state in lane
//!   registers, aggregation via `__match_any_sync` + grouped reduce.
//! * [`hash`] — paper Algorithm 3: a block per vertex, state in a
//!   [`hashtable::VertexTable`] that is global-only, unified, or
//!   hierarchical (the paper's contribution).
//! * [`sort`] — the cuGraph-style baseline: materialise `(community,
//!   weight)` pairs in global scratch, bitonic-sort, segmented-reduce.
//! * [`replicated`] — per-thread private tables merged by reduction (the
//!   conflict-free design of the paper's reference [32], kept as a
//!   measurable ablation).
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
    /// Host reference implementation (per-chunk reusable fold on rayon).
    Cpu,
    /// Warp-level shuffle-based kernel (Algorithm 2).
    Shuffle,
    /// Block-level hash-based kernel (Algorithm 3) with the given table.
    Hash(HashConfig),
    /// cuGraph-style sort + segmented-reduce baseline.
    Sort,
    /// Per-thread replicated tables merged by reduction — the design of
    /// the paper's reference [32], kept as a measurable ablation.
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
    /// Written by every mask-taking pass; the native work-list pass
    /// ([`crate::backend::ExecutionBackend::decide_list`]) leaves it as
    /// it was.
    pub next_comm: Vec<CommunityId>,
    /// `(vertex, new community)` of every decided vertex that changes
    /// community, in ascending vertex order. Written by the work-list
    /// passes and by [`crate::backend::ExecutionBackend::decide`]; the
    /// simulated kernels' own mask-taking entry points leave it as it was.
    pub moves: Vec<(VertexId, CommunityId)>,
    /// Summed simulated memory tally.
    pub tally: MemTally,
    /// Hashtable placement statistics (hash-based kernels only).
    pub hash_stats: TableStats,
    /// Per-kernel routing counts for this pass.
    pub routing: RoutingStats,
}

/// Reusable scratch buffers for decide passes. Drivers keep one of these
/// across supersteps (and rounds) so the work lists, masks and kernel
/// launch outputs are recycled instead of reallocated every superstep.
/// Every buffer but `certs` carries no state between calls — every pass
/// fully rewrites what it uses.
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
    /// Active-vertex work list handed to the grid launcher.
    work: Vec<VertexId>,
    /// The work list a mask-taking pass hands to its work-list form.
    listed: Vec<VertexId>,
    /// The mask a simulated work-list pass hands to its kernels.
    mask: Vec<bool>,
    /// Launch outputs of kernels returning a plain community id.
    comm_out: Vec<CommunityId>,
    /// Launch outputs of the hash kernel (community + table stats).
    hash_out: Vec<(CommunityId, TableStats)>,
    /// Workload-aware small-degree mask.
    small: Vec<bool>,
    /// Workload-aware large-degree mask.
    large: Vec<bool>,
    /// Workload-aware secondary output (the hash half).
    sub: DecideOutput,
}

impl DecideScratch {
    /// Runs the work-list pass `pass` over the vertices `active` marks:
    /// the mask-taking form of a decide pass. `out.next_comm` is rebuilt
    /// from `state` and the pass's moves.
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

    /// Runs the mask-taking pass `pass` over the vertices of `work`: the
    /// work-list form of a simulated decide pass, whose kernels launch
    /// over a mask. `out.moves` is read off `out.next_comm`.
    pub(crate) fn decide_listed(
        &mut self,
        state: &BspState,
        work: &[VertexId],
        out: &mut DecideOutput,
        pass: impl FnOnce(&[bool], &mut Self, &mut DecideOutput),
    ) {
        let mut mask = std::mem::take(&mut self.mask);
        mask.clear();
        mask.resize(state.num_vertices(), false);
        for &v in work {
            mask[v as usize] = true;
        }
        pass(&mask, self, out);
        self.mask = mask;
        out.moves.clear();
        out.moves.extend(
            work.iter()
                .map(|&v| (v, out.next_comm[v as usize]))
                .filter(|&(v, c)| c != state.comm[v as usize]),
        );
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

/// Runs the selected kernel over all `active` vertices.
pub fn decide(kind: KernelKind, graph: &Graph, state: &BspState, active: &[bool]) -> DecideOutput {
    decide_profiled(kind, graph, state, active, &mut Profiler::disabled())
}

/// [`decide`], recorded as a `"decide"` span on `prof` with one child span
/// per kernel actually launched (the workload-aware dispatcher produces
/// both a `"shuffle"` and a `"hash"` child). Each kernel span carries its
/// memory tally — including divergence and coalescing counters — plus an
/// `"items"` counter, and hash-based kernels add their table statistics.
pub fn decide_profiled(
    kind: KernelKind,
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    prof: &mut Profiler,
) -> DecideOutput {
    let mut scratch = DecideScratch::default();
    let mut out = DecideOutput::default();
    decide_profiled_into(kind, graph, state, active, prof, &mut scratch, &mut out);
    out
}

/// [`decide_profiled`] writing into caller-owned buffers: `out` is fully
/// rewritten and `scratch` provides the recycled intermediates. This is the
/// hot entry point the Louvain driver calls every superstep, on one device
/// or split over several.
pub fn decide_profiled_into(
    kind: KernelKind,
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    prof: &mut Profiler,
    scratch: &mut DecideScratch,
    out: &mut DecideOutput,
) {
    let DecideScratch {
        certs,
        work,
        comm_out,
        hash_out,
        small,
        large,
        sub,
        ..
    } = scratch;
    match kind {
        KernelKind::Cpu => {
            out.routing = RoutingStats {
                other_vertices: cpu::decide_into(graph, state, active, certs.armed(), work, out)
                    .total(),
                ..RoutingStats::default()
            };
            record_kernel(prof, "cpu", out);
        }
        KernelKind::Shuffle => {
            shuffle::decide_into(graph, state, active, work, comm_out, out);
            out.routing.shuffle_vertices = work.len() as u64;
            record_kernel(prof, "shuffle", out);
        }
        KernelKind::Hash(cfg) => {
            hash::decide_into(graph, state, active, cfg, work, hash_out, out);
            out.routing.hash_vertices = work.len() as u64;
            record_kernel(prof, "hash", out);
        }
        KernelKind::Sort => {
            sort::decide_into(graph, state, active, work, comm_out, out);
            out.routing.other_vertices = work.len() as u64;
            record_kernel(prof, "sort", out);
        }
        KernelKind::Replicated => {
            replicated::decide_into(graph, state, active, work, comm_out, out);
            out.routing.other_vertices = work.len() as u64;
            record_kernel(prof, "replicated", out);
        }
        KernelKind::WorkloadAware(cfg) => {
            small.clear();
            small.resize(active.len(), false);
            large.clear();
            large.resize(active.len(), false);
            let (mut n_small, mut n_large) = (0u64, 0u64);
            for v in 0..active.len() {
                if !active[v] {
                    continue;
                }
                if graph.degree(v as VertexId) < SHUFFLE_DEGREE_THRESHOLD {
                    small[v] = true;
                    n_small += 1;
                } else {
                    large[v] = true;
                    n_large += 1;
                }
            }
            shuffle::decide_into(graph, state, small, work, comm_out, out);
            hash::decide_into(graph, state, large, cfg, work, hash_out, sub);
            if prof.is_enabled() {
                prof.scope("decide", |p| {
                    record_kernel_span(p, "shuffle", n_small, out);
                    record_kernel_span(p, "hash", n_large, sub);
                });
            }
            for (v, is_large) in large.iter().enumerate() {
                if *is_large {
                    out.next_comm[v] = sub.next_comm[v];
                }
            }
            out.tally += sub.tally;
            out.hash_stats = sub.hash_stats;
            out.routing = RoutingStats {
                shuffle_vertices: n_small,
                hash_vertices: n_large,
                other_vertices: 0,
            };
        }
    }
}

/// Refills `work` with the active vertex ids (allocation recycled) and
/// resets `out` to "every vertex keeps its community".
pub(crate) fn reset_pass(
    state: &BspState,
    active: &[bool],
    work: &mut Vec<VertexId>,
    out: &mut DecideOutput,
) {
    work.clear();
    work.extend((0..active.len() as VertexId).filter(|&v| active[v as usize]));
    out.next_comm.clear();
    out.next_comm.extend_from_slice(&state.comm);
    out.tally = MemTally::new();
    out.hash_stats = TableStats::default();
    out.routing = RoutingStats::default();
}

/// Records a single-kernel output as a `"decide"` span with one child,
/// whose `"items"` are the vertices `out.routing` counts.
fn record_kernel(prof: &mut Profiler, name: &str, out: &DecideOutput) {
    if prof.is_enabled() {
        let r = out.routing;
        let items = r.shuffle_vertices + r.hash_vertices + r.other_vertices;
        prof.scope("decide", |p| record_kernel_span(p, name, items, out));
    }
}

/// Records one kernel child span: tally, item count, and (for hash-based
/// kernels) the table statistics as named counters.
fn record_kernel_span(prof: &mut Profiler, name: &str, items: u64, out: &DecideOutput) {
    prof.scope(name, |p| {
        p.record(&out.tally);
        p.count("items", items);
        let stats = &out.hash_stats;
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
    use gala_graph::generators::fixtures;

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
}
