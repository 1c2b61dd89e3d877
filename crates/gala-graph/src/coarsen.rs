//! Louvain phase 2: build the compressed (coarsened) graph.
//!
//! Each community of the input partition becomes a super-vertex. Edge
//! weights between two different communities are aggregated into one super
//! edge; weights *within* a community (each internal undirected edge counted
//! twice, plus existing self-loops) become the super-vertex's self-loop,
//! i.e. `D_C(C)` in the paper's notation. This makes the coarse graph's
//! modularity over singleton communities equal the fine graph's modularity
//! over the input partition — the invariant the Louvain hierarchy relies on.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use crate::fold::with_fold;
use crate::partition::{CommunityId, Partition};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Result of coarsening: the super-graph plus the dense renumbering used,
/// so callers can compose hierarchy levels.
#[derive(Clone, Debug)]
pub struct Coarsened {
    /// The compressed graph; vertex `c` corresponds to community `c` of
    /// `renumbered`.
    pub graph: Graph,
    /// The input partition with community ids renumbered to `0..k`.
    pub renumbered: Partition,
    /// Number of super-vertices `k`.
    pub num_communities: usize,
}

/// Coarsens `graph` according to `partition` (Louvain phase 2).
pub fn coarsen(graph: &Graph, partition: &Partition) -> Coarsened {
    assert_eq!(
        partition.len(),
        graph.num_vertices(),
        "partition covers {} vertices, graph has {}",
        partition.len(),
        graph.num_vertices()
    );
    let (renumbered, k) = partition.renumbered();
    let comm = renumbered.assignment();

    // Aggregate arc weights between community pairs. For cu != cv we see the
    // arc from both endpoints, so halve when emitting undirected edges. For
    // cu == cv (internal), the arc sum already equals the doubled internal
    // weight (each internal edge seen from both sides, self-loops stored
    // doubled), which is exactly the super self-loop's stored value — and the
    // builder doubles self-loop input, so emit half and let it double back.
    let mut agg: HashMap<(VertexId, VertexId), f64> = HashMap::new();
    for v in graph.vertices() {
        let cv = comm[v as usize];
        for (u, w) in graph.neighbors(v) {
            let cu = comm[u as usize];
            let key = if cv <= cu { (cv, cu) } else { (cu, cv) };
            *agg.entry(key).or_insert(0.0) += w;
        }
    }

    // `with_capacity(k, _)` pins the vertex count, so isolated communities
    // keep their super-vertex slot even with no incident super edges.
    let mut b = GraphBuilder::with_capacity(k, agg.len());
    for ((c1, c2), w) in agg {
        // Every pair weight was accumulated from both directions: halve.
        b.add_edge(c1, c2, w / 2.0);
    }

    Coarsened {
        graph: b.build(),
        renumbered,
        num_communities: k,
    }
}

/// Recycled working state for [`coarsen_into`], the contraction analogue of
/// the phase-1 `Phase1Scratch`: hold one across hierarchy rounds and every
/// histogram, member list, chunk pair buffer and (via
/// [`CoarsenScratch::reclaim_graph`] /
/// [`CoarsenScratch::reclaim_assignment`]) even the output CSR buffers are
/// reused, so steady-state rounds run without contraction-path allocations.
#[derive(Default)]
pub struct CoarsenScratch {
    /// Per original community id: member count (parallel histogram).
    hist: Vec<AtomicU32>,
    /// Original community id → dense coarse id.
    new_id: Vec<CommunityId>,
    /// Per-vertex dense community id for the round in flight; moved out as
    /// the result's renumbered assignment and restored via
    /// [`CoarsenScratch::reclaim_assignment`].
    renumbered: Vec<CommunityId>,
    /// Coarse row → start of its member run (length `k + 1`).
    vert_offsets: Vec<usize>,
    /// Counting-sort write cursors, one per coarse row.
    cursor: Vec<usize>,
    /// Vertices grouped by coarse community, ascending within each run.
    members: Vec<VertexId>,
    /// Per coarse row: number of distinct neighbor communities (pass 1).
    row_deg: Vec<usize>,
    /// Pool of chunk pair buffers, popped by chunk workers and returned
    /// after each pass.
    pair_bufs: Mutex<Vec<Vec<(CommunityId, f64)>>>,
    /// Output CSR buffers, normally reclaimed from the previous round's
    /// dropped coarse graph.
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    out_weights: Vec<f64>,
}

impl CoarsenScratch {
    /// Takes back the CSR allocations of a coarse graph the driver is about
    /// to drop. Rounds only shrink, so the reclaimed capacity covers every
    /// later round's output.
    pub fn reclaim_graph(&mut self, graph: Graph) {
        let (offsets, targets, weights) = graph.into_csr();
        self.out_offsets = offsets;
        self.out_targets = targets;
        self.out_weights = weights;
    }

    /// Takes back the assignment allocation of a spent hierarchy level's
    /// renumbered partition.
    pub fn reclaim_assignment(&mut self, partition: Partition) {
        self.renumbered = partition.into_assignment();
    }

    /// Dense per-vertex community ids of the round prepared by
    /// [`renumber_and_group`].
    #[inline]
    pub fn renumbered(&self) -> &[CommunityId] {
        &self.renumbered
    }

    /// Coarse row → start of its member run in
    /// [`CoarsenScratch::community_members`] (length `k + 1`).
    #[inline]
    pub fn community_offsets(&self) -> &[usize] {
        &self.vert_offsets
    }

    /// Vertices grouped by coarse community id, ascending within each run.
    #[inline]
    pub fn community_members(&self) -> &[VertexId] {
        &self.members
    }

    /// Moves the prepared dense assignment out (for building the result's
    /// renumbered [`Partition`] without a copy).
    #[inline]
    pub fn take_renumbered(&mut self) -> Vec<CommunityId> {
        std::mem::take(&mut self.renumbered)
    }
}

/// Community ids at or above `8n + 1024` fall back to the `HashMap` path:
/// the dense histogram would be sized by the largest id, which only pays
/// off while ids are `O(n)` — always true inside the Louvain hierarchy,
/// where ids descend from vertex ids. Public so partitioned multi-device
/// drivers can detect the fallback condition and route the whole round to
/// the host [`coarsen`] path instead of grouping per device.
pub fn ids_too_sparse(n: usize, comm: &[CommunityId]) -> bool {
    let bound = n.saturating_mul(8).saturating_add(1024);
    comm.iter().any(|&c| c as usize >= bound)
}

/// Phases 1–2 of [`coarsen_into`]: renumbers communities densely (parallel
/// histogram + presence prefix sum, same ascending-id order as
/// [`Partition::renumbered`]) and groups vertices by coarse community with
/// a stable counting sort. Returns the number of communities `k`; the
/// grouping is readable through the [`CoarsenScratch`] accessors. Exposed
/// so the simulated device contract kernel can share the grouping while
/// doing its own (tally-charged) aggregation.
pub fn renumber_and_group(
    graph: &Graph,
    partition: &Partition,
    scratch: &mut CoarsenScratch,
) -> usize {
    assert_eq!(
        partition.len(),
        graph.num_vertices(),
        "partition covers {} vertices, graph has {}",
        partition.len(),
        graph.num_vertices()
    );
    let n = graph.num_vertices();
    let comm = partition.assignment();
    scratch.vert_offsets.clear();
    scratch.members.clear();
    scratch.renumbered.clear();
    if n == 0 {
        scratch.vert_offsets.push(0);
        return 0;
    }
    let max_id = comm.par_iter().map(|&c| c).reduce(|| 0, |a, b| a.max(b)) as usize;
    let width = max_id + 1;
    if scratch.hist.len() < width {
        scratch.hist.resize_with(width, || AtomicU32::new(0));
    }
    let hist = &scratch.hist[..width];
    hist.par_iter().for_each(|h| h.store(0, Ordering::Relaxed));
    comm.par_iter().for_each(|&c| {
        hist[c as usize].fetch_add(1, Ordering::Relaxed);
    });
    // Presence prefix sum: dense ids in ascending original-id order —
    // identical renumbering to `Partition::renumbered()`.
    scratch.new_id.clear();
    scratch.new_id.resize(width, 0);
    let mut k: CommunityId = 0;
    let mut run = 0usize;
    for (c, h) in hist.iter().enumerate() {
        let cnt = h.load(Ordering::Relaxed) as usize;
        if cnt > 0 {
            scratch.new_id[c] = k;
            scratch.vert_offsets.push(run);
            run += cnt;
            k += 1;
        }
    }
    scratch.vert_offsets.push(run);
    debug_assert_eq!(run, n);
    let new_id = &scratch.new_id;
    rayon::par_map_accum_into(
        comm,
        &mut scratch.renumbered,
        || (),
        |&c, _| new_id[c as usize],
    );
    // Stable counting-sort scatter of vertices into their community's run.
    // Kept sequential: a parallel scatter needs one atomic per write and
    // loses the ascending member order the deterministic (width-invariant)
    // row accumulation relies on; this O(n) pass is dwarfed by the O(m)
    // aggregation pass.
    scratch.cursor.clear();
    scratch
        .cursor
        .extend_from_slice(&scratch.vert_offsets[..k as usize]);
    scratch.members.resize(n, 0);
    for v in 0..n {
        let c = scratch.renumbered[v] as usize;
        scratch.members[scratch.cursor[c]] = v as VertexId;
        scratch.cursor[c] += 1;
    }
    k as usize
}

impl CoarsenScratch {
    /// Folds the coarse rows `rows` of the prepared grouping on the pool,
    /// writes each row's degree (distinct neighbor communities) into
    /// `row_deg`, and hands `emit` the pool chunks' buffers of sorted
    /// `(community, weight)` pairs, contiguous rows each, in row order.
    fn fold_rows(
        &self,
        graph: &Graph,
        rows: std::ops::Range<usize>,
        row_deg: &mut Vec<usize>,
        emit: impl FnOnce(&[Vec<(CommunityId, f64)>]),
    ) {
        let pool = &self.pair_bufs;
        let take = || {
            let popped = pool.lock().expect("pair pool poisoned").pop();
            let mut pairs = popped.unwrap_or_default();
            pairs.clear();
            pairs
        };
        let bufs = rayon::par_map_indexed_accum_into(rows.len(), row_deg, take, |i, pairs| {
            self.fold_row(graph, rows.start + i, pairs)
        });
        emit(&bufs);
        pool.lock().expect("pair pool poisoned").extend(bufs);
    }

    /// One coarse row's canonical accumulation — members ascending × CSR
    /// neighbor order, on the thread's fold — shared by every aggregation
    /// path (host, per device), so they agree bit for bit. Appends the
    /// row's sorted `(community, weight)` pairs to `pairs` and returns
    /// their count.
    fn fold_row(&self, graph: &Graph, r: usize, pairs: &mut Vec<(CommunityId, f64)>) -> usize {
        let (vo, renum): (&[usize], &[CommunityId]) = (&self.vert_offsets, &self.renumbered);
        with_fold(|fold| {
            fold.begin(vo.len() - 1);
            for &v in &self.members[vo[r]..vo[r + 1]] {
                for (&u, &w) in graph.neighbor_ids(v).iter().zip(graph.neighbor_weights(v)) {
                    fold.add(renum[u as usize], w);
                }
            }
            fold.finish_sorted(pairs)
        })
    }
}

/// Aggregates the contiguous coarse-row range `rows` of a grouping prepared
/// by [`renumber_and_group`], through the same pooled fold pass as
/// [`coarsen_into`]: each row's degree is appended to `row_deg` and its
/// sorted `(community, weight)` pairs to `pairs`, both in ascending row
/// order. This is one device's slice of the partitioned multi-device
/// contraction — concatenating the outputs of adjacent ranges in range
/// order reproduces the [`coarsen_into`] CSR body bit for bit, at every
/// pool width.
///
/// Takes the scratch by shared reference (the pair-buffer pool is internally
/// synchronised), so a driver can hold the grouping fixed while devices
/// aggregate their ranges.
pub fn aggregate_rows(
    graph: &Graph,
    scratch: &CoarsenScratch,
    rows: std::ops::Range<usize>,
    row_deg: &mut Vec<u64>,
    pairs: &mut Vec<(CommunityId, f64)>,
) {
    let mut degs = Vec::new();
    scratch.fold_rows(graph, rows, &mut degs, |bufs| {
        bufs.iter().for_each(|buf| pairs.extend_from_slice(buf))
    });
    row_deg.extend(degs.iter().map(|&d| d as u64));
}

/// [`coarsen`] through a parallel, allocation-reusing counting-sort
/// pipeline (no comparison sort over edges, no `HashMap`):
///
/// 1. communities are renumbered with a parallel histogram + presence
///    prefix sum and vertices grouped per community by a stable counting
///    sort ([`renumber_and_group`]);
/// 2. one pooled pass over each super-vertex's member arcs folds its
///    neighbor communities on the thread's [`crate::fold::Fold`], appending
///    each finished row's sorted `(community, weight)` pairs to the
///    chunk's recycled pair buffer and recording the row's degree;
/// 3. the chunk buffers — contiguous ascending row ranges, in chunk order —
///    stream straight into the targets/weights arrays, reserved once for
///    the buffers' total arc count, and a prefix sum over the degrees
///    gives the offsets.
///
/// Every row is accumulated sequentially in a fixed order (members
/// ascending × CSR neighbor order), so the result is bit-for-bit identical
/// at every pool width. Structure (offsets/targets) matches [`coarsen`]
/// exactly; weights agree up to floating-point summation order.
///
/// `scratch` is recycled across hierarchy rounds; see [`CoarsenScratch`].
pub fn coarsen_into(
    graph: &Graph,
    partition: &Partition,
    scratch: &mut CoarsenScratch,
) -> Coarsened {
    if ids_too_sparse(graph.num_vertices(), partition.assignment()) {
        return coarsen(graph, partition);
    }
    let k = renumber_and_group(graph, partition, scratch);

    // The one aggregation pass: fold each row and stream the chunks' sorted
    // pairs straight into the CSR body, sized once to the arc count; its
    // buffers are reclaimed from the previous round.
    let mut row_deg = std::mem::take(&mut scratch.row_deg);
    let mut targets = std::mem::take(&mut scratch.out_targets);
    let mut weights = std::mem::take(&mut scratch.out_weights);
    targets.clear();
    weights.clear();
    scratch.fold_rows(graph, 0..k, &mut row_deg, |bufs| {
        let arcs = bufs.iter().map(Vec::len).sum();
        targets.reserve(arcs);
        weights.reserve(arcs);
        for buf in bufs {
            targets.extend(buf.iter().map(|&(c, _)| c));
            weights.extend(buf.iter().map(|&(_, w)| w));
        }
    });

    // Exact coarse CSR offsets from the distinct counts.
    let mut offsets = std::mem::take(&mut scratch.out_offsets);
    offsets.clear();
    offsets.push(0);
    offsets.extend(row_deg.iter().scan(0, |run, &d| {
        *run += d;
        Some(*run)
    }));
    debug_assert_eq!(offsets[k], targets.len());
    scratch.row_deg = row_deg;

    // The row-internal arc sum (each internal edge seen from both sides,
    // self-loops stored doubled) is already the super self-loop's stored
    // value, and cross rows each accumulate their full (symmetric) arc
    // weight — so the buffers are the final CSR, no halving or re-doubling.
    let graph = Graph::from_csr(offsets, targets, weights);
    Coarsened {
        graph,
        renumbered: Partition::from_assignment(scratch.take_renumbered()),
        num_communities: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Two triangles joined by one bridge edge.
    fn two_triangles() -> Graph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        b.build()
    }

    #[test]
    fn coarsen_two_triangles() {
        let g = two_triangles();
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let c = coarsen(&g, &p);
        assert_eq!(c.num_communities, 2);
        assert_eq!(c.graph.num_vertices(), 2);
        // Each triangle: 3 internal edges counted twice = self-loop 6.
        assert_eq!(c.graph.self_loop(0), 6.0);
        assert_eq!(c.graph.self_loop(1), 6.0);
        // One bridge edge of weight 1 between the super vertices.
        assert_eq!(c.graph.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn total_weight_preserved() {
        let g = two_triangles();
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let c = coarsen(&g, &p);
        assert!((c.graph.total_weight() - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn noncontiguous_ids_renumbered() {
        let g = two_triangles();
        let p = Partition::from_assignment(vec![10, 10, 10, 42, 42, 42]);
        let c = coarsen(&g, &p);
        assert_eq!(c.num_communities, 2);
        assert_eq!(c.renumbered.assignment(), &[0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn singleton_partition_is_identity_shape() {
        let g = two_triangles();
        let p = Partition::singletons(6);
        let c = coarsen(&g, &p);
        assert_eq!(c.graph.num_vertices(), 6);
        assert!((c.graph.total_weight() - g.total_weight()).abs() < 1e-9);
        assert_eq!(c.graph.edge_weight(2, 3), Some(1.0));
    }

    #[test]
    fn existing_self_loops_fold_in() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 2.0); // stored as 4.0
        let g = b.build();
        let p = Partition::from_assignment(vec![0, 0]);
        let c = coarsen(&g, &p);
        assert_eq!(c.graph.num_vertices(), 1);
        // Internal: edge {0,1} doubled (2) + loop (4) = 6.
        assert_eq!(c.graph.self_loop(0), 6.0);
        assert!((c.graph.total_weight() - g.total_weight()).abs() < 1e-9);
    }

    /// Structure must match exactly; weights may differ by summation order
    /// (here all weights are small integers, so they are exact too).
    fn assert_matches_seed(g: &Graph, p: &Partition) {
        let seed = coarsen(g, p);
        let mut scratch = CoarsenScratch::default();
        let new = coarsen_into(g, p, &mut scratch);
        assert_eq!(new.num_communities, seed.num_communities);
        assert_eq!(new.renumbered, seed.renumbered);
        assert_eq!(new.graph.offsets(), seed.graph.offsets());
        assert_eq!(new.graph.targets(), seed.graph.targets());
        assert!(new.graph.arc_weights().eq(seed.graph.arc_weights()));
    }

    #[test]
    fn coarsen_into_matches_seed_on_fixtures() {
        let g = two_triangles();
        for assignment in [
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 0, 1, 1, 2, 2],
            vec![10, 10, 10, 42, 42, 42],
            vec![0, 1, 2, 3, 4, 5],
            vec![3, 3, 3, 3, 3, 3],
        ] {
            assert_matches_seed(&g, &Partition::from_assignment(assignment));
        }
    }

    #[test]
    fn coarsen_into_folds_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 2.0);
        let g = b.build();
        assert_matches_seed(&g, &Partition::from_assignment(vec![0, 0]));
        assert_matches_seed(&g, &Partition::from_assignment(vec![0, 1]));
    }

    #[test]
    fn coarsen_into_empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        let p = Partition::from_assignment(vec![]);
        let mut scratch = CoarsenScratch::default();
        let c = coarsen_into(&g, &p, &mut scratch);
        assert_eq!(c.num_communities, 0);
        assert_eq!(c.graph.num_vertices(), 0);
    }

    #[test]
    fn coarsen_into_isolated_vertices() {
        // Vertices with no arcs still get super-vertex slots.
        let g = Graph::from_csr(vec![0, 0, 0, 0], vec![], vec![]);
        assert_matches_seed(&g, &Partition::from_assignment(vec![0, 1, 0]));
    }

    #[test]
    fn sparse_huge_ids_fall_back_to_seed_path() {
        let g = two_triangles();
        let p = Partition::from_assignment(vec![0, 0, 0, 3_000_000, 3_000_000, 3_000_000]);
        let mut scratch = CoarsenScratch::default();
        let c = coarsen_into(&g, &p, &mut scratch);
        assert_eq!(c.num_communities, 2);
        assert_eq!(c.renumbered.assignment(), &[0, 0, 0, 1, 1, 1]);
        assert!(
            scratch.hist.is_empty(),
            "fallback should not size the histogram"
        );
    }

    #[test]
    fn scratch_reuse_does_not_reallocate_after_first_round() {
        // A two-level hierarchy: after reclaiming the round-1 output, every
        // later (smaller) round must reuse the same buffers.
        let g = crate::generators::fixtures::ring_of_cliques(16, 8);
        let p = Partition::from_assignment(
            (0..g.num_vertices() as CommunityId)
                .map(|v| v / 4)
                .collect(),
        );
        let mut scratch = CoarsenScratch::default();
        let c1 = coarsen_into(&g, &p, &mut scratch);
        let coarse_p = Partition::from_assignment(
            (0..c1.num_communities as CommunityId)
                .map(|v| v / 2)
                .collect(),
        );
        scratch.reclaim_assignment(c1.renumbered);
        let ptrs = (
            scratch.hist.as_ptr(),
            scratch.members.as_ptr(),
            scratch.renumbered.as_ptr(),
            scratch.vert_offsets.as_ptr(),
        );
        let caps = (
            scratch.renumbered.capacity(),
            scratch.out_targets.capacity(),
        );
        let c2 = coarsen_into(&c1.graph, &coarse_p, &mut scratch);
        scratch.reclaim_graph(c1.graph);
        scratch.reclaim_assignment(c2.renumbered);
        let c3 = coarsen_into(
            &c2.graph,
            &Partition::from_assignment(vec![0; c2.num_communities]),
            &mut scratch,
        );
        assert_eq!(c3.num_communities, 1);
        assert_eq!(scratch.hist.as_ptr(), ptrs.0, "histogram reallocated");
        assert_eq!(scratch.members.as_ptr(), ptrs.1, "members reallocated");
        assert_eq!(scratch.vert_offsets.as_ptr(), ptrs.3, "offsets reallocated");
        assert!(
            scratch.renumbered.capacity() <= caps.0,
            "assignment buffer grew past the round-1 high-water mark"
        );
    }

    #[test]
    fn aggregate_rows_splits_reproduce_coarsen_into() {
        let g = crate::generators::fixtures::ring_of_cliques(12, 7);
        let p = Partition::from_assignment(
            (0..g.num_vertices() as CommunityId)
                .map(|v| v / 3)
                .collect(),
        );
        let mut ref_scratch = CoarsenScratch::default();
        let whole = coarsen_into(&g, &p, &mut ref_scratch);
        let mut scratch = CoarsenScratch::default();
        let k = renumber_and_group(&g, &p, &mut scratch);
        assert_eq!(k, whole.num_communities);
        for splits in [vec![0, k], vec![0, 1, k], vec![0, k / 3, k / 2, k, k]] {
            let mut row_deg = Vec::new();
            let mut pairs = Vec::new();
            for w in splits.windows(2) {
                aggregate_rows(&g, &scratch, w[0]..w[1], &mut row_deg, &mut pairs);
            }
            assert_eq!(row_deg.len(), k);
            let mut run = 0usize;
            for (r, &d) in row_deg.iter().enumerate() {
                run += d as usize;
                assert_eq!(run, whole.graph.offsets()[r + 1], "row {r} degree");
            }
            let flat: Vec<(CommunityId, u64)> =
                pairs.iter().map(|&(c, w)| (c, w.to_bits())).collect();
            let expect: Vec<(CommunityId, u64)> = whole
                .graph
                .targets()
                .iter()
                .zip(whole.graph.arc_weights())
                .map(|(&c, w)| (c, w.to_bits()))
                .collect();
            assert_eq!(flat, expect, "splits {splits:?}");
        }
    }

    #[test]
    fn renumber_and_group_orders_members_ascending() {
        let g = two_triangles();
        let p = Partition::from_assignment(vec![1, 0, 1, 0, 1, 0]);
        let mut scratch = CoarsenScratch::default();
        let k = renumber_and_group(&g, &p, &mut scratch);
        assert_eq!(k, 2);
        assert_eq!(scratch.community_offsets(), &[0, 3, 6]);
        assert_eq!(scratch.community_members(), &[1, 3, 5, 0, 2, 4]);
        assert_eq!(scratch.renumbered(), &[1, 0, 1, 0, 1, 0]);
    }
}
