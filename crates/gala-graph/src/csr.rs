//! Weighted undirected graph in compressed-sparse-row (CSR) form.
//!
//! The representation is immutable after construction; mutation happens
//! through [`crate::builder::GraphBuilder`]. All Louvain layers operate on
//! `&Graph`, which is `Sync` and can be shared freely across threads and
//! simulated GPU devices.
//!
//! **Unit weights.** A [`Graph`] stores no per-arc weight array exactly
//! when every stored arc weight is 1.0, as it is for the unweighted SNAP
//! and KONECT inputs. Its rows then read their weights from one shared
//! row of ones, as long as the longest row, so
//! [`Graph::neighbor_weights`] (and [`Graph::neighbors`],
//! [`Graph::edge_weight`], [`Graph::self_loop`]) look the same either
//! way, and the CSR takes 4 bytes per arc instead of 12. The rule is
//! about *stored* weights: a self-loop stores twice its input weight, so
//! an input self-loop of weight 1 keeps the array, as does a merged
//! duplicate edge (weight 2) or any weight other than 1.0. Every
//! constructor applies the rule, so two equal graphs compare equal
//! whichever way they were built.

use std::fmt;
use std::path::{Path, PathBuf};

/// Vertex identifier. `u32` keeps hot state dense and cache-friendly; the
/// paper's largest graph stand-ins are far below `u32::MAX` vertices.
pub type VertexId = u32;

/// A weighted undirected graph in CSR form.
///
/// See the crate-level docs for the self-loop convention: a self-loop is
/// stored once and its stored weight is its doubled contribution, so that
/// `2|E| == Σ_v d(v)` holds exactly. See the module docs for the
/// unit-weight representation.
#[derive(Clone, PartialEq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s adjacency in `targets` /
    /// `weights`. Length `n + 1`.
    offsets: Vec<usize>,
    /// Neighbor ids, sorted ascending within each adjacency list.
    targets: Vec<VertexId>,
    /// Edge weights parallel to `targets`, or empty when every arc weighs
    /// 1.0.
    weights: Vec<f64>,
    /// When `weights` is empty, ones as long as the longest row: each
    /// row's weights are a prefix of it. Empty otherwise.
    ones: Vec<f64>,
    /// Cached weighted degree `d(v)` per vertex (includes self-loop weight
    /// once at its stored, doubled value).
    degree_w: Vec<f64>,
    /// Cached `2|E| = Σ_v d(v)`.
    total_weight: f64,
}

impl Graph {
    /// Builds a graph from raw CSR arrays, auditing them in `O(n + m)`.
    /// `weights` holds one weight per arc; if every one is 1.0 the graph
    /// drops the array (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong lengths, decreasing
    /// offsets, unsorted adjacency, out-of-range targets, or an arc
    /// without a reverse arc of equal weight, within `1e-9·max(|w|, 1)`).
    /// Use [`crate::builder::GraphBuilder`] for forgiving construction.
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<f64>) -> Self {
        Self::try_from_csr(offsets, targets, weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::from_csr`] with the audit's verdict as a `Result`, so
    /// loaders can turn corrupt input into a typed error.
    pub(crate) fn try_from_csr(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
    ) -> Result<Self, String> {
        audit_csr(&offsets, &targets, Some(&weights))?;
        Ok(Self::assemble(offsets, targets, weights, None))
    }

    /// [`Self::try_from_csr`] for arrays whose weighted degrees a loader
    /// has already summed with [`row_weight`], row by row. Like every
    /// crate-internal constructor below, it takes an empty `weights` for
    /// a graph whose arcs all weigh 1.0.
    pub(crate) fn try_from_csr_built(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
        degree_w: Vec<f64>,
    ) -> Result<Self, String> {
        audit_csr(&offsets, &targets, stored(&weights))?;
        Ok(Self::assemble(offsets, targets, weights, Some(degree_w)))
    }

    /// Builds a graph from CSR arrays that are valid by construction or
    /// by checksum: the builders' output ([`crate::builder`] and
    /// [`crate::stream`] push both arcs of every edge and merge
    /// duplicates in one order) or an exact permutation
    /// ([`crate::reorder::apply`]). Skips the `O(n + m)` structural and
    /// symmetry audit of [`Self::from_csr`] in release builds; debug
    /// builds still run it and panic on a violation, so the debug test
    /// tier audits every trusted construction.
    pub(crate) fn from_csr_trusted(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(audit_csr(&offsets, &targets, stored(&weights)), Ok(()));
        Self::assemble(offsets, targets, weights, None)
    }

    /// [`Self::from_csr_trusted`] for arrays whose weighted degrees are
    /// already summed, each row in order as [`Self::from_csr`] sums them
    /// (so they are bit-identical): the builder's output, summed across
    /// the pool, and a checksummed v2 container ([`crate::io`], mapped),
    /// summed while it loads.
    pub(crate) fn from_csr_built(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
        degree_w: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(audit_csr(&offsets, &targets, stored(&weights)), Ok(()));
        Self::assemble(offsets, targets, weights, Some(degree_w))
    }

    /// Wraps CSR arrays that passed the audit (or are trusted to), applies
    /// the unit-weight rule, and caches the weighted degrees: `degree_w`
    /// when the caller summed them, otherwise summed here.
    fn assemble(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        mut weights: Vec<f64>,
        degree_w: Option<Vec<f64>>,
    ) -> Self {
        if weights.iter().all(|&w| w == 1.0) {
            weights = Vec::new();
        }
        let ones = if weights.is_empty() {
            vec![1.0; offsets.windows(2).map(|o| o[1] - o[0]).max().unwrap_or(0)]
        } else {
            Vec::new()
        };
        let mut graph = Self {
            offsets,
            targets,
            weights,
            ones,
            degree_w: Vec::new(),
            total_weight: 0.0,
        };
        graph.degree_w = match degree_w {
            Some(degree_w) => {
                debug_assert!(
                    degree_w.len() == graph.num_vertices()
                        && degree_w
                            .iter()
                            .zip(graph.row_weights())
                            .all(|(d, s)| d.to_bits() == s.to_bits())
                );
                degree_w
            }
            None => graph.row_weights().collect(),
        };
        graph.total_weight = graph.degree_w.iter().sum();
        graph
    }

    /// Each row's weights summed with [`row_weight`], in vertex order.
    fn row_weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.vertices()
            .map(|v| row_weight(self.neighbor_weights(v)))
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored adjacency entries (directed arcs). Each undirected
    /// edge contributes two entries; each self-loop contributes one.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges, counting self-loops once.
    pub fn num_edges(&self) -> usize {
        let loops = (0..self.num_vertices() as VertexId)
            .filter(|&v| self.edge_weight(v, v).is_some())
            .count();
        (self.num_arcs() - loops) / 2 + loops
    }

    /// `2|E| = Σ_v d(v)`, the modularity normaliser.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted degree `d(v)` (self-loop counted once at its stored,
    /// doubled weight).
    #[inline]
    pub fn degree_w(&self, v: VertexId) -> f64 {
        self.degree_w[v as usize]
    }

    /// Unweighted degree: the number of adjacency entries of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.neighbor_ids(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Neighbor id slice of `v` (sorted ascending).
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge weight slice of `v`, parallel to [`Self::neighbor_ids`]: a
    /// prefix of the shared row of ones when the graph has unit weights.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[f64] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        if self.weights.is_empty() {
            &self.ones[..hi - lo]
        } else {
            &self.weights[lo..hi]
        }
    }

    /// Every arc's weight, in CSR order (row by row, parallel to
    /// [`Self::targets`]).
    pub fn arc_weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.vertices()
            .flat_map(|v| self.neighbor_weights(v).iter().copied())
    }

    /// Whether every arc weighs 1.0, so that the graph stores no per-arc
    /// weight array (see the module docs).
    #[inline]
    pub fn has_unit_weights(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight of edge `{v, u}` if present. `O(log deg(v))`.
    pub fn edge_weight(&self, v: VertexId, u: VertexId) -> Option<f64> {
        let ids = self.neighbor_ids(v);
        let idx = ids.binary_search(&u).ok()?;
        Some(self.neighbor_weights(v)[idx])
    }

    /// Self-loop weight of `v` (its doubled contribution), or 0.
    #[inline]
    pub fn self_loop(&self, v: VertexId) -> f64 {
        self.edge_weight(v, v).unwrap_or(0.0)
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Maximum unweighted degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Raw offsets array (length `n + 1`). Exposed for kernel code that
    /// wants direct CSR indexing.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets array. Exposed for kernel code.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Decomposes the graph back into its stored CSR arrays
    /// `(offsets, targets, weights)`; `weights` is empty when the graph
    /// has unit weights. Hierarchy drivers use this to hand a
    /// coarse graph's allocations back to
    /// [`crate::coarsen::CoarsenScratch`] just before dropping it, so the
    /// next contraction round can build its (never larger) output without
    /// fresh allocations.
    pub fn into_csr(self) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
        (self.offsets, self.targets, self.weights)
    }
}

/// The weighted degree of one row: its weights summed in order. Every
/// constructor sums through this, a unit-weight row over its prefix of
/// ones, so cached degrees agree to the bit.
#[inline]
pub(crate) fn row_weight(weights: &[f64]) -> f64 {
    weights.iter().sum()
}

/// The weights a crate-internal constructor was handed: `None` for the
/// empty array of a unit-weight graph.
fn stored(weights: &[f64]) -> Option<&[f64]> {
    (!weights.is_empty()).then_some(weights)
}

/// The audit behind [`Graph::from_csr`], in `O(n + m)`.
///
/// A first pass checks the lengths, monotone offsets, strictly sorted
/// rows and in-range targets. The symmetry pass then keeps one cursor per
/// row: rows are visited in ascending order, so the arcs `(v, u)` with
/// `v < u` reach row `u` in ascending `v`, and `cursor[u]` walks row `u`'s
/// entries below `u` exactly once, matching each to its reverse arc. When
/// row `v` itself comes up, its cursor must already have passed every
/// entry below `v`. Each pair's weights are compared once, against the
/// stricter of the two directions' tolerances `1e-9·max(|w|, 1)`, so the
/// audit accepts exactly the arrays a per-arc reverse lookup accepts.
/// `weights` is `None` for a unit-weight graph, whose pairs always match.
fn audit_csr(
    offsets: &[usize],
    targets: &[VertexId],
    weights: Option<&[f64]>,
) -> Result<(), String> {
    let Some(n) = offsets.len().checked_sub(1) else {
        return Err("offsets must have length n + 1".into());
    };
    if offsets[0] != 0 {
        return Err(format!("offsets[0] must be 0, got {}", offsets[0]));
    }
    if offsets[n] != targets.len() {
        return Err(format!(
            "offsets must end at targets.len() ({} != {})",
            offsets[n],
            targets.len()
        ));
    }
    if let Some(weights) = weights.filter(|w| w.len() != targets.len()) {
        return Err(format!(
            "targets/weights length mismatch ({} != {})",
            targets.len(),
            weights.len()
        ));
    }
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        if lo > hi || hi > targets.len() {
            return Err("offsets must be nondecreasing".into());
        }
        let adj = &targets[lo..hi];
        if adj.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(format!("adjacency of {v} must be strictly sorted"));
        }
        // Sorted, so the last target is the largest.
        if let Some(&u) = adj.last().filter(|&&u| u as usize >= n) {
            return Err(format!("target {u} out of range (n = {n})"));
        }
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for v in 0..n {
        let hi = offsets[v + 1];
        let mut i = cursor[v];
        if i < hi && (targets[i] as usize) < v {
            return Err(format!("edge ({v},{}) has no reverse edge", targets[i]));
        }
        if i < hi && targets[i] as usize == v {
            i += 1; // the self-loop is its own reverse
        }
        for j in i..hi {
            let u = targets[j] as usize;
            let c = cursor[u];
            if c == offsets[u + 1] || targets[c] as usize > v {
                return Err(format!("edge ({v},{u}) has no reverse edge"));
            }
            if (targets[c] as usize) < v {
                return Err(format!("edge ({u},{}) has no reverse edge", targets[c]));
            }
            if let Some(weights) = weights {
                let (w, back) = (weights[j], weights[c]);
                let tol = 1e-9 * w.abs().max(1.0).min(back.abs().max(1.0));
                // Phrased so that a NaN difference is rejected.
                let within = (back - w).abs() <= tol;
                if !within {
                    return Err(format!(
                        "edge ({v},{u}) weight {w} != reverse weight {back}"
                    ));
                }
            }
            cursor[u] = c + 1;
        }
    }
    Ok(())
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("total_weight", &self.total_weight)
            .finish()
    }
}

/// A graph loaded read-only from the aligned v2 binary container
/// ([`crate::io`]), retaining its backing-file provenance.
///
/// The workspace forbids `unsafe`, so there is no true `mmap(2)` here:
/// the sections are streamed from disk into exactly-sized buffers. The
/// container checksum guards the bytes against damage, and the load's
/// per-element checks (offsets sound, targets below `n`, finite weights)
/// guard the kernels against a crafted container that indexes out of
/// bounds. Together they replace the `O(n + m)` structural audit that the
/// owned path pays in [`Graph::from_csr`]: sorted rows and symmetric arcs
/// are not checked. The type keeps the same
/// seam a real mapping would use — drivers see `&Graph`, the store knows
/// where the bytes came from — so swapping in OS mapping later only
/// touches [`crate::io`].
#[derive(Debug)]
pub struct MappedGraph {
    graph: Graph,
    source: PathBuf,
    mapped_bytes: u64,
}

impl MappedGraph {
    /// Internal constructor used by [`crate::io::load_binary_mapped`].
    pub(crate) fn new(graph: Graph, source: PathBuf, mapped_bytes: u64) -> Self {
        Self {
            graph,
            source,
            mapped_bytes,
        }
    }

    /// The loaded graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Path of the backing container file.
    pub fn source(&self) -> &Path {
        &self.source
    }

    /// Size in bytes of the mapped (checksummed) container payload.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }
}

/// How a graph is held in memory: fully owned, or backed by a v2 binary
/// container. Drivers consume either transparently via [`Deref`] /
/// [`GraphStore::graph`]; only load/report paths care which it is.
///
/// [`Deref`]: std::ops::Deref
#[derive(Debug)]
pub enum GraphStore {
    /// Built in memory (builder, generators, v1 binary, text).
    Owned(Graph),
    /// Loaded read-only from an aligned v2 container.
    Mapped(MappedGraph),
}

impl GraphStore {
    /// Borrows the graph regardless of backing.
    #[inline]
    pub fn graph(&self) -> &Graph {
        match self {
            GraphStore::Owned(g) => g,
            GraphStore::Mapped(m) => m.graph(),
        }
    }

    /// Converts into an owned [`Graph`] (free for both variants — the
    /// emulated mapping already owns its buffers).
    pub fn into_graph(self) -> Graph {
        match self {
            GraphStore::Owned(g) => g,
            GraphStore::Mapped(m) => m.graph,
        }
    }

    /// `"owned"` or `"mapped"`, for report metadata.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphStore::Owned(_) => "owned",
            GraphStore::Mapped(_) => "mapped",
        }
    }
}

impl std::ops::Deref for GraphStore {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        self.graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// The audit `from_csr` ran before the cursor pass: the same
    /// structural checks, then one reverse binary search per arc,
    /// `O(m log d)`. Kept as the reference the cursor pass must agree with.
    fn reference_accepts(offsets: &[usize], targets: &[VertexId], weights: &[f64]) -> bool {
        let Some(n) = offsets.len().checked_sub(1) else {
            return false;
        };
        if offsets[0] != 0 || offsets[n] != targets.len() || targets.len() != weights.len() {
            return false;
        }
        for v in 0..n {
            if offsets[v] > offsets[v + 1] || offsets[v + 1] > targets.len() {
                return false;
            }
            let adj = &targets[offsets[v]..offsets[v + 1]];
            if adj.windows(2).any(|p| p[0] >= p[1]) || adj.iter().any(|&u| u as usize >= n) {
                return false;
            }
        }
        let row = |v: usize| offsets[v]..offsets[v + 1];
        for v in 0..n {
            for j in row(v) {
                let (u, w) = (targets[j] as usize, weights[j]);
                if u == v {
                    continue;
                }
                let Ok(k) = targets[row(u)].binary_search(&(v as VertexId)) else {
                    return false;
                };
                let back = weights[offsets[u] + k];
                let within = (back - w).abs() <= 1e-9 * w.abs().max(1.0);
                if !within {
                    return false;
                }
            }
        }
        true
    }

    /// Weights that exercise the tolerance: inexact decimals, zero, large
    /// magnitudes (relative tolerance) and values below 1 (absolute).
    const WEIGHTS: [f64; 6] = [0.1, 0.3, 1.0, 2.5, 0.0, 1e10];

    /// Multiples of a weight's tolerance `1e-9·max(|w|, 1)` to nudge it by:
    /// inside, at and across the bound, plus non-finite replacements.
    const NUDGES: [f64; 8] = [0.5, 0.999, 1.0, 1.001, 2.0, -1.5, f64::NAN, f64::INFINITY];

    /// A valid CSR from a random edge multiset (duplicates merged,
    /// self-loops kept), as raw arrays.
    fn random_csr(n: u32, edges: &[(u32, u32, usize)]) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in edges {
            b.add_edge(u, v, WEIGHTS[w % WEIGHTS.len()]);
        }
        let g = b.build();
        let weights = g.arc_weights().collect();
        let (offsets, targets, _) = g.into_csr();
        (offsets, targets, weights)
    }

    /// Inserts arc `(v, u, w)` at position `at` of row `v`.
    fn insert_arc(
        csr: &mut (Vec<usize>, Vec<VertexId>, Vec<f64>),
        v: usize,
        at: usize,
        u: VertexId,
        w: f64,
    ) {
        let (offsets, targets, weights) = csr;
        targets.insert(at, u);
        weights.insert(at, w);
        offsets[v + 1..].iter_mut().for_each(|o| *o += 1);
    }

    /// Applies perturbation `kind` (0 = none) to a valid CSR. `pick` and
    /// `nudge` choose where and how much.
    fn perturb(
        csr: &mut (Vec<usize>, Vec<VertexId>, Vec<f64>),
        kind: usize,
        pick: u64,
        nudge: usize,
    ) {
        let n = csr.0.len() - 1;
        let m = csr.1.len();
        let row_of = |offsets: &[usize], i: usize| offsets.partition_point(|&o| o <= i) - 1;
        match kind {
            // Drop one arc.
            1 if m > 0 => {
                let i = pick as usize % m;
                let v = row_of(&csr.0, i);
                csr.1.remove(i);
                csr.2.remove(i);
                csr.0[v + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            // Nudge one weight by a multiple of its tolerance, or replace
            // it with a non-finite value.
            2 if m > 0 => {
                let i = pick as usize % m;
                let w = csr.2[i];
                let f = NUDGES[nudge % NUDGES.len()];
                csr.2[i] = if f.is_finite() {
                    w + f * 1e-9 * w.abs().max(1.0)
                } else {
                    f
                };
            }
            // Append an out-of-range target to a row (keeps it sorted).
            3 => {
                let v = pick as usize % n;
                let at = csr.0[v + 1];
                insert_arc(csr, v, at, n as VertexId, 1.0);
            }
            // Unsort a row by swapping its first two entries.
            4 => {
                if let Some(v) = (0..n).find(|&v| csr.0[v + 1] - csr.0[v] >= 2) {
                    let i = csr.0[v];
                    csr.1.swap(i, i + 1);
                    csr.2.swap(i, i + 1);
                }
            }
            // Add one arc without its reverse, keeping the row sorted.
            5 => {
                let v = pick as usize % n;
                let u = ((pick >> 32) as usize % n) as VertexId;
                let row = &csr.1[csr.0[v]..csr.0[v + 1]];
                if let Err(k) = row.binary_search(&u) {
                    let at = csr.0[v] + k;
                    insert_arc(csr, v, at, u, 1.0);
                }
            }
            // Retarget one arc (may also unsort its row).
            6 if m > 0 => {
                let i = pick as usize % m;
                csr.1[i] = ((pick >> 32) as usize % n) as VertexId;
            }
            // Shift one inner offset.
            7 if n > 1 => {
                let k = 1 + pick as usize % (n - 1);
                csr.0[k] += 1;
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The cursor audit accepts exactly what the reverse-lookup
        /// reference accepts, on valid CSRs and single perturbations.
        #[test]
        fn audit_matches_reference(
            n in 1u32..12,
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0usize..6), 0..40),
            kind in 0usize..8,
            pick in any::<u64>(),
            nudge in 0usize..8,
        ) {
            let edges: Vec<_> = edges.into_iter().map(|(u, v, w)| (u % n, v % n, w)).collect();
            let mut csr = random_csr(n, &edges);
            prop_assert!(audit_csr(&csr.0, &csr.1, Some(&csr.2)).is_ok());
            perturb(&mut csr, kind, pick, nudge);
            let (offsets, targets, weights) = &csr;
            prop_assert_eq!(
                audit_csr(offsets, targets, Some(weights)).is_ok(),
                reference_accepts(offsets, targets, weights),
                "kind {} on {:?}", kind, csr
            );
        }
    }

    #[test]
    fn every_perturbation_kind_is_caught() {
        // Path 0-1-2 with a self-loop on 1: each perturbation below breaks
        // it, and both audits must say so.
        let base = || {
            (
                vec![0, 1, 4, 5],
                vec![1, 0, 1, 2, 1],
                vec![1.0, 1.0, 2.0, 1.0, 1.0],
            )
        };
        for (kind, pick, nudge) in [
            (1, 0, 0),
            (2, 0, 4),
            (2, 0, 6),
            (3, 0, 0),
            (4, 0, 0),
            (5, 2, 0),
            (7, 0, 0),
        ] {
            let mut csr = base();
            perturb(&mut csr, kind, pick, nudge);
            let (o, t, w) = &csr;
            assert!(audit_csr(o, t, Some(w)).is_err(), "kind {kind}: {csr:?}");
            assert!(!reference_accepts(o, t, w), "kind {kind}: {csr:?}");
        }
    }

    #[test]
    fn missing_reverse_names_the_arc() {
        // Arc (2,0) has no reverse; (0,1)/(1,0) is a proper pair.
        let err = audit_csr(&[0, 1, 2, 3], &[1, 0, 0], Some(&[1.0; 3])).unwrap_err();
        assert_eq!(err, "edge (2,0) has no reverse edge");
        // Arc (1,0) has no reverse, and row 2's visit finds it first.
        let err = audit_csr(&[0, 1, 3, 4], &[2, 0, 2, 0], Some(&[1.0; 4])).unwrap_err();
        assert_eq!(err, "edge (1,0) has no reverse edge");
        // Arc (0,2) has no reverse.
        let err = audit_csr(&[0, 1, 1, 1], &[2], Some(&[1.0])).unwrap_err();
        assert_eq!(err, "edge (0,2) has no reverse edge");
    }

    #[test]
    fn tolerance_is_the_stricter_direction() {
        // |a - b| is within 1e-9·max(|b|, 1) but not within 1e-9·max(|a|, 1):
        // the pair is rejected, as the per-arc reference rejects it.
        let a = 1.074f64;
        let b = 1.074000001074;
        let csr = (vec![0, 1, 2], vec![1, 0], vec![a, b]);
        assert!((b - a).abs() > 1e-9 * a.abs().max(1.0));
        assert!((b - a).abs() <= 1e-9 * b.abs().max(1.0));
        assert!(audit_csr(&csr.0, &csr.1, Some(&csr.2)).is_err());
        assert!(!reference_accepts(&csr.0, &csr.1, &csr.2));
        let swapped = (vec![0, 1, 2], vec![1, 0], vec![b, a]);
        assert!(audit_csr(&swapped.0, &swapped.1, Some(&swapped.2)).is_err());
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.build()
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree_w(0), 4.0);
        assert_eq!(g.degree_w(1), 3.0);
        assert_eq!(g.degree_w(2), 5.0);
        assert_eq!(g.total_weight(), 12.0);
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 1.0), (2, 3.0)]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.self_loop(0), 0.0);
    }

    #[test]
    fn self_loop_counts_once_in_degree() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 1.0); // builder doubles: stored weight 2.0
        let g = b.build();
        assert_eq!(g.self_loop(0), 2.0);
        assert_eq!(g.degree_w(0), 3.0);
        assert_eq!(g.total_weight(), 4.0); // 2*|E| with |E| = 1 + 1(loop)
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "reverse edge")]
    fn asymmetric_graph_rejected() {
        // Directed arc 0 -> 1 only.
        Graph::from_csr(vec![0, 1, 1], vec![1], vec![1.0]);
    }

    /// Debug builds audit trusted constructions too, so a builder that
    /// stopped producing symmetric output would fail the debug tests.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reverse edge")]
    fn trusted_asymmetric_csr_panics_in_debug() {
        Graph::from_csr_trusted(vec![0, 1, 1], vec![1], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_adjacency_rejected() {
        Graph::from_csr(vec![0, 2, 3, 5], vec![2, 1, 2, 0, 1], vec![1.0; 5]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Graph::from_csr(vec![0, 0, 0, 0], vec![], vec![]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree_w(1), 0.0);
    }
}
