//! Accumulating graph builder: edge list → symmetric weighted CSR.
//!
//! The builder is forgiving where [`crate::Graph::from_csr`] is strict: it
//! accepts edges in any order and direction, merges duplicates by summing
//! their weights, symmetrises automatically, and doubles self-loop input
//! weights so that the stored graph obeys the crate's self-loop convention.

use crate::csr::{Graph, VertexId};

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
    arcs: Vec<(VertexId, VertexId, f64)>,
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

    /// Reserves space for `additional` more *edges* (up to two arcs each)
    /// in one exact reservation. Streaming callers that replay bounded
    /// chunks call this once per chunk instead of relying on push-time
    /// doubling, which can transiently hold ~2x the needed memory.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.arcs.reserve_exact(additional.saturating_mul(2));
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
    /// Duplicate `(u, v)` arcs are summed **in insertion order** (the
    /// counting sort is stable and the per-row sort is stable), which
    /// pins the floating-point merge result: the out-of-core
    /// [`crate::stream::StreamingBuilder`] reproduces it bit-for-bit at
    /// any chunk size.
    pub fn build(self) -> Graph {
        let n = self.num_vertices;
        let mut arcs = self.arcs;
        // Unused growth slack is returned before the output arrays below
        // are allocated, trimming the build's transient peak.
        arcs.shrink_to_fit();
        build_from_arcs(n, arcs)
    }
}

/// Directed-arc list → CSR, the shared back half of [`GraphBuilder::build`]
/// and the streaming builder's no-spill fast path: arcs must already follow
/// the crate conventions (both directions present, self-loops once at
/// doubled weight). Stable counting sort by source + stable per-row sort by
/// target — the same total order as a stable global `(u, v)` sort, so both
/// callers produce bit-identical graphs.
///
/// The scatter writes straight into the final `targets`/`weights`, and
/// the arc list is freed once scattered, so the peak is the arc list plus
/// the output. Rows with duplicates or out-of-order targets are sorted
/// and merged through a row-sized scratch buffer and compacted leftwards
/// in place, over the slots their merged duplicates freed.
pub(crate) fn build_from_arcs(n: usize, arcs: Vec<(VertexId, VertexId, f64)>) -> Graph {
    // Counting sort by source: histogram, prefix sum, scatter.
    let mut offsets = vec![0usize; n + 1];
    for &(u, _, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut targets: Vec<VertexId> = vec![0; arcs.len()];
    let mut weights: Vec<f64> = vec![0.0; arcs.len()];
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for (u, v, w) in arcs {
        let slot = &mut cursor[u as usize];
        targets[*slot] = v;
        weights[*slot] = w;
        *slot += 1;
    }
    drop(cursor);
    // Rewrite each row in place: `lo..hi` is its scattered range, `out`
    // the compacted write position (never past `lo`).
    let mut row: Vec<(VertexId, f64)> = Vec::new();
    let mut out = 0usize;
    let mut lo = 0usize;
    for r in 0..n {
        let hi = offsets[r + 1];
        offsets[r] = out;
        if targets[lo..hi].windows(2).all(|p| p[0] < p[1]) {
            if out != lo {
                targets.copy_within(lo..hi, out);
                weights.copy_within(lo..hi, out);
            }
            out += hi - lo;
        } else {
            row.clear();
            row.extend(
                targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(weights[lo..hi].iter().copied()),
            );
            // Stable: equal targets keep insertion order, so the merge
            // below sums duplicate weights left-to-right as inserted.
            row.sort_by_key(|&(v, _)| v);
            for &(v, w) in &row {
                if out > offsets[r] && targets[out - 1] == v {
                    weights[out - 1] += w;
                } else {
                    targets[out] = v;
                    weights[out] = w;
                    out += 1;
                }
            }
        }
        lo = hi;
    }
    offsets[n] = out;
    targets.truncate(out);
    weights.truncate(out);
    shrink_if_material(&mut targets, &mut weights);
    Graph::from_csr(offsets, targets, weights)
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
        /// sorted with some edges repeated at the end (3).
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
            b.extend_edges(edges);
            let expect = reference_build(n as usize, b.arcs.clone());
            assert_bit_identical(&b.build(), &expect);
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
