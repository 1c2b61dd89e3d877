//! Accumulating graph builder: edge list → symmetric weighted CSR.
//!
//! The builder is forgiving where [`crate::Graph::from_csr`] is strict: it
//! accepts edges in any order and direction, merges duplicates by summing
//! their weights, symmetrises automatically, and doubles self-loop input
//! weights so that the stored graph obeys the crate's self-loop convention.
//!
//! One back half turns every in-memory record stream into a CSR: the
//! builder's arc list (two 16-byte arcs per edge, one CSR entry each), the
//! streaming builder's unspilled chunk (arcs again), and the text loader's
//! edge lists (one 16-byte record per edge, written to both endpoints'
//! rows). It is a counting sort in which the histogram, the scatter, the
//! row finish (sortedness check, duplicate merge, compaction) and the
//! weighted degree sums all run per row range across the pool; only
//! `O(n)` steps, and a `memmove` per range when duplicates merged, are
//! serial. The result does not depend on the pool width
//! or on the record kind. Its output is symmetric by construction, so it
//! skips [`Graph::from_csr`]'s `O(n + m)` audit in release builds; debug
//! builds still run the audit on every build.

use std::collections::TryReserveError;

use crate::csr::{row_weight, Graph, VertexId};

/// Anything that can accept a stream of undirected edges: the in-memory
/// [`GraphBuilder`], the out-of-core [`crate::stream::StreamingBuilder`],
/// and test doubles. `crate::io::parse_edge_list_into` is generic over
/// this trait so the byte-level parser feeds either path.
///
/// Implementations must apply the crate's edge conventions themselves
/// (self-loop doubling, symmetrisation, duplicate merging at build time)
/// so that every sink fed the same edge multiset produces the same graph.
pub trait EdgeSink {
    /// Adds an undirected edge `{u, v}` of weight `w`. Panics on
    /// non-finite or negative weights, like [`GraphBuilder::add_edge`].
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64);

    /// Ensures the built graph has at least `n` vertices.
    fn reserve_vertices(&mut self, n: usize);
}

impl<S: EdgeSink + ?Sized> EdgeSink for &mut S {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        (**self).add_edge(u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        (**self).reserve_vertices(n);
    }
}

/// Validates an edge weight (shared by every [`EdgeSink`]).
#[inline]
pub(crate) fn assert_weight(w: f64) {
    assert!(
        w.is_finite() && w >= 0.0,
        "edge weight must be finite and >= 0, got {w}"
    );
}

/// Builds a [`Graph`] from an arbitrary stream of undirected edges.
///
/// ```
/// use gala_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 0, 1.0); // duplicate, merged: weight becomes 2.0
/// b.add_edge(2, 3, 0.5);
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(2.0));
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// One entry per *directed arc*; self-loops appear once with doubled
    /// weight. Sorted and merged at `build()` time.
    arcs: Vec<Record>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `num_vertices` vertices.
    /// The count grows automatically if a larger endpoint id is added.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            arcs: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved space for `num_edges` edges.
    ///
    /// The arc vector is reserved exactly once (each edge contributes at
    /// most two arcs), so feeding exactly `num_edges` edges never
    /// reallocates and never over-doubles: callers that know their edge
    /// count — file ingestion, [`crate::reorder::apply`], streaming-chunk
    /// replay — get a single right-sized allocation instead of the
    /// amortised-growth worst case of ~2x the final size.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            arcs: Vec::with_capacity(num_edges.saturating_mul(2)),
        }
    }

    /// Current vertex count (grows with added endpoints).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Ensures the built graph has at least `n` vertices (for isolated
    /// trailing vertices that no edge mentions).
    pub fn reserve_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Adds an undirected edge `{u, v}` of weight `w`.
    ///
    /// A self-loop (`u == v`) is stored once with weight `2w` per the crate
    /// convention. Duplicate edges are merged by summing weights at build
    /// time, so calling this twice with weight 1 is equivalent to calling it
    /// once with weight 2.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not finite or is negative (modularity is undefined
    /// for negative weights).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert_weight(w);
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        if u == v {
            self.arcs.push((u, v, 2.0 * w));
        } else {
            self.arcs.push((u, v, w));
            self.arcs.push((v, u, w));
        }
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId, f64)>>(&mut self, iter: I) {
        for (u, v, w) in iter {
            self.add_edge(u, v, w);
        }
    }

    /// Adds every edge from an iterator of unweighted `(u, v)` pairs with
    /// weight 1.
    pub fn extend_unweighted<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v, 1.0);
        }
    }

    /// Number of arcs accumulated so far (before dedup).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Finalises the builder into a CSR [`Graph`], merging duplicates.
    ///
    /// Arcs are counting-sorted by source using the offsets histogram — no
    /// global comparison sort — straight into the output arrays. A row
    /// that arrives strictly sorted (the common case for edge lists that
    /// are themselves sorted) is left as it is; only the other rows are
    /// sorted by target, at `Σ d(v) log d(v)` instead of `m log m` total.
    ///
    /// Every pass runs across the pool, one row range per thread; each
    /// range receives its arcs in insertion order, so the graph is the
    /// same at every pool width. Duplicate `(u, v)` arcs are summed **in
    /// insertion order** (the counting sort is stable and the per-row sort
    /// is stable), which pins the floating-point merge result: the
    /// out-of-core [`crate::stream::StreamingBuilder`] reproduces it
    /// bit-for-bit at any chunk size.
    ///
    /// Panics when the vertex arrays for the declared vertex count cannot
    /// be allocated; [`crate::io::read_edge_list`] reports that case as an
    /// error instead.
    pub fn build(self) -> Graph {
        let n = self.num_vertices;
        let mut arcs = self.arcs;
        // Unused growth slack is returned before the output arrays below
        // are allocated, trimming the build's transient peak.
        arcs.shrink_to_fit();
        build_from_arcs(n, arcs).expect("the CSR vertex arrays fit in memory")
    }
}

/// One record awaiting the CSR build, `(u, v, w)`: an arc (one CSR entry,
/// in row `u`) or an undirected edge (two entries, one in each endpoint's
/// row; a self-loop once, its weight already doubled).
pub(crate) type Record = (VertexId, VertexId, f64);

/// Undirected edge records for [`build_from_edges`], 16 bytes per edge:
/// each edge once, a self-loop at doubled weight. The text loader's sink.
#[derive(Default)]
pub(crate) struct EdgeRecords(pub(crate) Vec<Record>);

impl EdgeSink for EdgeRecords {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert_weight(w);
        self.0.push((u, v, if u == v { 2.0 * w } else { w }));
    }

    fn reserve_vertices(&mut self, _n: usize) {}
}

/// An arc list → CSR: the back half of [`GraphBuilder::build`] and of the
/// streaming builder's no-spill fast path. See [`build_csr`].
pub(crate) fn build_from_arcs(n: usize, arcs: Vec<Record>) -> Result<Graph, TryReserveError> {
    build_csr::<false>(n, vec![arcs])
}

/// Edge lists → CSR: the back half of the text loader
/// ([`crate::io::read_edge_list`]), which stores each edge once. See
/// [`build_csr`].
pub(crate) fn build_from_edges(
    n: usize,
    chunks: Vec<Vec<Record>>,
) -> Result<Graph, TryReserveError> {
    build_csr::<true>(n, chunks)
}

/// Calls `entry(row, target, weight)` for each CSR entry `record` stands
/// for: the arc itself, or both directions of an edge, the source's row
/// first (a self-loop once).
#[inline(always)]
fn for_each_entry<const EDGES: bool>(
    &(u, v, w): &Record,
    mut entry: impl FnMut(VertexId, VertexId, f64),
) {
    entry(u, v, w);
    if EDGES && u != v {
        entry(v, u, w);
    }
}

/// Record lists → CSR, read as arcs or, with `EDGES`, as edges. `chunks`
/// are consecutive pieces of one record stream, in stream order; they are
/// read in place, never concatenated. Stable counting sort by source +
/// stable per-row sort by target: the same total order as a stable global
/// `(u, v)` sort over the stream's entries, so every caller produces
/// bit-identical graphs, and an edge stream builds the graph of the arc
/// stream that lists each edge's two arcs in its place.
///
/// Every `O(m)` pass but the join's `memmove`, which runs only when
/// duplicates merged, runs per row range on the pool. Each reads the whole
/// stream once per range, so no pass does more than `P` reads of it at
/// pool width `P`:
///
/// 1. **Histogram.** The rows are cut into `P` ranges of equal row count;
///    each worker counts the entries of its own rows into its slice of
///    `offsets`. A serial `O(n)` prefix sum follows.
/// 2. **Scatter and finish.** The rows are cut again, into `P` ranges of
///    near-equal entry count ([`rayon::row_cuts`]). Each worker writes
///    the entries of its rows into its own disjoint `targets`/`weights`
///    segment, using its slice of `offsets` as the row cursors, so each
///    row receives its entries in stream order at any pool width. It then
///    finishes its rows in place: a row that arrived strictly sorted stays
///    as it is; any other is sorted stably by target and its duplicates
///    are summed left to right, in stream order. Rows are compacted
///    leftwards within the segment over the slots merged duplicates freed,
///    and each row's weighted degree is summed.
/// 3. **Join.** When some range merged duplicates, each later segment is
///    moved left over the gap with one `memmove`, in order. Without
///    duplicates nothing moves.
///
/// The records are freed once the rows are finished, so the peak is the
/// record lists plus the output: 16 B per edge plus 24 B per edge of CSR
/// for the text loader, 32 B per edge (two arcs) plus the CSR for the
/// arc builders. The output is symmetric by construction, so it is wrapped
/// through [`Graph::from_csr_built`]: no release-mode audit, a full one in
/// debug builds.
///
/// `n` may come from a `#vertices` directive that no record backs, so the
/// vertex arrays (`offsets` and the degrees) are reserved fallibly: a count
/// beyond memory is an error, not an abort.
fn build_csr<const EDGES: bool>(
    n: usize,
    chunks: Vec<Vec<Record>>,
) -> Result<Graph, TryReserveError> {
    let mut offsets = Vec::new();
    offsets.try_reserve_exact(n + 1)?;
    offsets.resize(n + 1, 0usize);
    let mut degree_w = Vec::new();
    degree_w.try_reserve_exact(n)?;
    degree_w.resize(n, 0.0f64);
    let parts = rayon::current_parallelism().min(n).max(1);

    // 1. Histogram into `offsets[r + 1]`, per equal row range.
    let mut ranges = Vec::with_capacity(parts);
    let (mut counts, mut start) = (&mut offsets[1..], 0usize);
    for k in 1..=parts {
        let end = n * k / parts;
        let (range, rest) = counts.split_at_mut(end - start);
        ranges.push((start, range));
        (counts, start) = (rest, end);
    }
    rayon::par_map_tasks(ranges, |(start, counts)| {
        for chunk in &chunks {
            for record in chunk {
                for_each_entry::<EDGES>(record, |r, _, _| {
                    // Wraps for rows below the range, so one compare
                    // rejects both sides.
                    if let Some(c) = counts.get_mut((r as usize).wrapping_sub(start)) {
                        *c += 1;
                    }
                });
            }
        }
    });
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }

    // 2. Scatter and finish, per near-equal entry range.
    let total = offsets[n];
    let mut targets: Vec<VertexId> = vec![0; total];
    let mut weights: Vec<f64> = vec![0.0; total];
    let cuts = rayon::row_cuts(&offsets, parts);
    let bases: Vec<usize> = cuts.iter().map(|&c| offsets[c]).collect();
    let mut ranges = Vec::with_capacity(parts);
    let (mut rest_o, mut rest_d) = (&mut offsets[..n], &mut degree_w[..]);
    let (mut rest_t, mut rest_w) = (&mut targets[..], &mut weights[..]);
    for k in 0..parts {
        let (rows, len) = (cuts[k + 1] - cuts[k], bases[k + 1] - bases[k]);
        let (starts, tail_o) = rest_o.split_at_mut(rows);
        let (degrees, tail_d) = rest_d.split_at_mut(rows);
        let (seg_t, tail_t) = rest_t.split_at_mut(len);
        let (seg_w, tail_w) = rest_w.split_at_mut(len);
        ranges.push((cuts[k], bases[k], starts, degrees, seg_t, seg_w));
        (rest_o, rest_d, rest_t, rest_w) = (tail_o, tail_d, tail_t, tail_w);
    }
    let kept = rayon::par_map_tasks(ranges, |(first, base, starts, degrees, seg_t, seg_w)| {
        // Segment-local row starts, advanced as cursors by the scatter:
        // afterwards `starts[i]` is where row `first + i` ends.
        for s in starts.iter_mut() {
            *s -= base;
        }
        for chunk in &chunks {
            for record in chunk {
                for_each_entry::<EDGES>(record, |r, v, w| {
                    if let Some(c) = starts.get_mut((r as usize).wrapping_sub(first)) {
                        seg_t[*c] = v;
                        seg_w[*c] = w;
                        *c += 1;
                    }
                });
            }
        }
        finish_rows(base, starts, degrees, seg_t, seg_w)
    });
    drop(chunks);

    // 3. Join the segments when merged duplicates left gaps between them.
    let mut out = 0usize;
    for k in 0..parts {
        let (base, len) = (bases[k], kept[k]);
        if out != base {
            targets.copy_within(base..base + len, out);
            weights.copy_within(base..base + len, out);
            for o in &mut offsets[cuts[k]..cuts[k + 1]] {
                *o -= base - out;
            }
        }
        out += len;
    }
    offsets[n] = out;
    targets.truncate(out);
    weights.truncate(out);
    shrink_if_material(&mut targets, &mut weights);
    Ok(Graph::from_csr_built(offsets, targets, weights, degree_w))
}

/// Finishes one row range after the scatter, in place: `ends[i]` is where
/// its `i`-th row ends within the segment `seg_t`/`seg_w`. Rows with
/// duplicates or out-of-order targets are sorted stably and merged through
/// a row-sized scratch buffer; every row is compacted leftwards (never past
/// its own start) and gets its weighted degree in `degrees`. `ends[i]`
/// becomes the row's global start, `base` plus its compacted position.
/// Returns the compacted length of the segment.
fn finish_rows(
    base: usize,
    ends: &mut [usize],
    degrees: &mut [f64],
    seg_t: &mut [VertexId],
    seg_w: &mut [f64],
) -> usize {
    let mut row: Vec<(VertexId, f64)> = Vec::new();
    let (mut lo, mut out) = (0usize, 0usize);
    for (end, degree) in ends.iter_mut().zip(degrees.iter_mut()) {
        let (hi, start) = (*end, out);
        *end = base + start;
        if seg_t[lo..hi].windows(2).all(|p| p[0] < p[1]) {
            if out != lo {
                seg_t.copy_within(lo..hi, out);
                seg_w.copy_within(lo..hi, out);
            }
            out += hi - lo;
        } else {
            row.clear();
            row.extend(
                seg_t[lo..hi]
                    .iter()
                    .copied()
                    .zip(seg_w[lo..hi].iter().copied()),
            );
            // Stable: equal targets keep stream order, so the merge below
            // sums duplicate weights left to right as inserted.
            row.sort_by_key(|&(v, _)| v);
            for &(v, w) in &row {
                if out > start && seg_t[out - 1] == v {
                    seg_w[out - 1] += w;
                } else {
                    seg_t[out] = v;
                    seg_w[out] = w;
                    out += 1;
                }
            }
        }
        *degree = row_weight(&seg_w[start..out]);
        lo = hi;
    }
    out
}

/// Returns the merged-duplicate slack of freshly built CSR arrays when it
/// is material; a shrink of a few percent is not worth the realloc.
pub(crate) fn shrink_if_material(targets: &mut Vec<VertexId>, weights: &mut Vec<f64>) {
    if targets.len() < targets.capacity() / 16 * 15 {
        targets.shrink_to_fit();
        weights.shrink_to_fit();
    }
}

impl EdgeSink for GraphBuilder {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        GraphBuilder::add_edge(self, u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        GraphBuilder::reserve_vertices(self, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The back half `build_from_arcs` had before it scattered straight
    /// into the output: counting sort through an intermediate
    /// `(target, weight)` buffer, a stable sort and merge of every row,
    /// then a copy into exactly-sized arrays. Kept as the bit-identity
    /// reference.
    fn reference_build(n: usize, arcs: Vec<(VertexId, VertexId, f64)>) -> Graph {
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut binned: Vec<(VertexId, f64)> = vec![(0, 0.0); arcs.len()];
        for (u, v, w) in arcs {
            let slot = &mut cursor[u as usize];
            binned[*slot] = (v, w);
            *slot += 1;
        }
        let mut merged_offsets = vec![0usize];
        let mut row_lens = Vec::with_capacity(n);
        let mut total = 0usize;
        for r in 0..n {
            let row = &mut binned[offsets[r]..offsets[r + 1]];
            row.sort_by_key(|&(v, _)| v);
            let mut len = 0usize;
            for i in 0..row.len() {
                if len > 0 && row[len - 1].0 == row[i].0 {
                    row[len - 1].1 += row[i].1;
                } else {
                    row[len] = row[i];
                    len += 1;
                }
            }
            row_lens.push(len);
            total += len;
            merged_offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for r in 0..n {
            for &(v, w) in &binned[offsets[r]..offsets[r] + row_lens[r]] {
                targets.push(v);
                weights.push(w);
            }
        }
        Graph::from_csr(merged_offsets, targets, weights)
    }

    fn assert_bit_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        let wa: Vec<u64> = a.weights().iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = b.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place build is bit-identical to the reference on edge
        /// multisets with duplicates, self-loops and inexact weights, fed
        /// in random order (0), sorted so that every row arrives strictly
        /// sorted and stays in place (1), in reverse sorted order (2), or
        /// sorted with some edges repeated at the end (3), at pool widths
        /// 1, 2 and 8 (one row range per thread in each pass), as one arc
        /// list and as pieces of an edge-record list.
        #[test]
        fn build_matches_reference(
            n in 1u32..16,
            raw in proptest::collection::vec((0u32..16, 0u32..16, 1u32..100), 0..80),
            order in 0usize..4,
        ) {
            let mut edges: Vec<(u32, u32, f64)> = raw
                .iter()
                .map(|&(u, v, w)| (u % n, v % n, w as f64 * 0.1))
                .collect();
            if order > 0 {
                edges.sort_by_key(|&(u, v, _)| (u.min(v), u.max(v)));
                edges.dedup_by_key(|e| (e.0.min(e.1), e.0.max(e.1)));
            }
            if order == 2 {
                edges.reverse();
            }
            if order == 3 {
                let again: Vec<_> = edges.iter().step_by(3).copied().collect();
                edges.extend(again);
            }
            let mut b = GraphBuilder::new(n as usize);
            b.extend_edges(edges.iter().copied());
            let expect = reference_build(n as usize, b.arcs.clone());
            let mut records = EdgeRecords::default();
            for &(u, v, w) in &edges {
                records.add_edge(u, v, w);
            }
            for width in [1, 2, 8] {
                let got = rayon::with_parallelism(width, || b.clone().build());
                assert_bit_identical(&got, &expect);
                // The same stream as edge records, in pieces of up to 7.
                let pieces = records.0.chunks(7).map(<[Record]>::to_vec).collect();
                let got = rayon::with_parallelism(width, || build_from_edges(n as usize, pieces));
                assert_bit_identical(&got.unwrap(), &expect);
            }
        }
    }

    #[test]
    fn merges_duplicate_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn grows_vertex_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 7, 1.0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.degree(6), 0);
    }

    #[test]
    fn self_loop_doubled() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0, 3.0);
        let g = b.build();
        assert_eq!(g.self_loop(0), 6.0);
        assert_eq!(g.total_weight(), 6.0);
    }

    #[test]
    fn extend_unweighted_defaults_to_one() {
        let mut b = GraphBuilder::new(3);
        b.extend_unweighted([(0, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn rejects_negative_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let edges = [
            (3u32, 1u32, 1.0),
            (0, 2, 2.0),
            (2, 2, 0.5),
            (1, 3, 1.5), // duplicate of (3, 1)
            (0, 4, 1.0),
            (4, 0, 3.0), // duplicate of (0, 4)
        ];
        let mut fwd = GraphBuilder::new(5);
        fwd.extend_edges(edges);
        let mut rev = GraphBuilder::new(5);
        rev.extend_edges(edges.iter().rev().copied());
        let a = fwd.build();
        let b = rev.build();
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.edge_weight(3, 1), Some(2.5));
        assert_eq!(a.edge_weight(0, 4), Some(4.0));
        assert_eq!(a.self_loop(2), 1.0);
    }
}
