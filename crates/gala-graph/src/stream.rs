//! Out-of-core graph construction: bounded-memory edge ingestion.
//!
//! [`crate::GraphBuilder`] materialises every directed arc in one `Vec`
//! before sorting, so its transient peak is ~28 bytes per arc (the 16-byte
//! arc list plus the 12-byte CSR it scatters into) — fine for the paper's
//! scaled stand-ins, hopeless for its real inputs (uk-2007: 3.4 B edges).
//! [`StreamingBuilder`] accepts the same edge stream in bounded chunks:
//! each full chunk is stably sorted and spilled to a temporary *run*
//! file, and `finish()` k-way-merges the sorted runs straight into the
//! final CSR arrays. Peak memory is the chunk budget
//! plus the output graph itself, independent of the input edge count.
//!
//! ## Bit-identity
//!
//! The result is **bit-identical** to `GraphBuilder::build()` on the same
//! edge multiset, at any chunk size:
//!
//! * both paths order arcs by `(source, target)` with *stable* sorts, so
//!   duplicate arcs keep their insertion order;
//! * spilled runs keep duplicates unmerged, and the k-way merge breaks
//!   ties by run index (= chunk age), so the final left-to-right
//!   duplicate-weight summation happens in global insertion order —
//!   exactly the order the in-memory builder sums in.
//!
//! The equivalence proptests in `tests/ingest_equivalence.rs` pin this
//! across chunk sizes and host-pool widths.

use crate::builder::{assert_weight, EdgeSink};
use crate::csr::{Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per arc in a spilled run file: `u32 u`, `u32 v`, `f64 w`, LE.
const SPILL_ARC_BYTES: usize = 16;

/// Estimated resident bytes per buffered arc: 16 in the chunk `Vec` plus
/// the stable sort's temporary half-size buffer, rounded up.
const CHUNK_ARC_MEM_BYTES: usize = 24;

/// Default chunk budget when the caller does not set one: 256 MiB keeps
/// ~11 M arcs in flight, a good trade for multi-hundred-million-arc runs.
const DEFAULT_CHUNK_BUDGET_BYTES: usize = 256 << 20;

/// Floor on the chunk size so degenerate budgets still make progress.
const MIN_CHUNK_ARCS: usize = 1024;

/// Ceiling on the per-run read buffer during the merge; the realised size
/// shrinks with the run count so the buffers together stay within the
/// chunk budget (freed just before they are allocated).
const MERGE_READ_BUF_BYTES: usize = 256 << 10;

static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How often the k-way merge reports progress: once per this many merged
/// arcs (~16 M arcs ≈ 256 MiB of spill traffic between reports).
const MERGE_REPORT_EVERY_ARCS: u64 = 1 << 24;

/// One ingestion progress report, handed to the callback installed with
/// [`StreamingBuilder::on_progress`]. This crate stays observability-
/// agnostic: callers (the CLI, the stress benches) forward these to the
/// telemetry layer's flight recorder themselves.
#[derive(Clone, Copy, Debug)]
pub struct IngestProgress {
    /// `"spill"` while chunks are being sorted and parked on disk,
    /// `"merge"` while the k-way merge drains the runs into the CSR.
    pub phase: &'static str,
    /// Arcs accepted so far (spill phase) or merged so far (merge phase).
    pub arcs: u64,
    /// Run files on disk right now.
    pub runs: usize,
    /// Bytes currently parked in spill files.
    pub spilled_bytes: u64,
}

/// The boxed callback type [`StreamingBuilder::on_progress`] installs.
pub type IngestProgressFn = Box<dyn FnMut(&IngestProgress) + Send>;

/// Accumulates undirected edges under a fixed memory budget, spilling
/// sorted arc runs to disk, and k-way-merges them into a CSR [`Graph`]
/// bit-identical to [`crate::GraphBuilder::build`] on the same edges.
///
/// ```
/// use gala_graph::stream::StreamingBuilder;
/// use gala_graph::GraphBuilder;
/// let edges = [(0u32, 1u32, 1.0), (1, 2, 0.5), (0, 1, 2.0)];
/// let mut s = StreamingBuilder::with_budget_bytes(3, 1 << 10); // tiny: spills
/// let mut b = GraphBuilder::new(3);
/// for &(u, v, w) in &edges {
///     s.add_edge(u, v, w);
///     b.add_edge(u, v, w);
/// }
/// let streamed = s.finish().unwrap();
/// assert_eq!(streamed, b.build());
/// ```
pub struct StreamingBuilder {
    num_vertices: usize,
    /// Arcs buffered before the next spill.
    chunk: Vec<(VertexId, VertexId, f64)>,
    /// Arcs per chunk, derived from the memory budget.
    chunk_arcs: usize,
    /// Where run files go. Lazily created; removed on drop when owned.
    spill_dir: Option<PathBuf>,
    /// Whether this builder created (and must remove) `spill_dir`.
    owns_spill_dir: bool,
    /// Spilled runs as `(path, arc_count)`.
    runs: Vec<(PathBuf, u64)>,
    /// Total arcs accepted (pre-dedup), including spilled ones.
    total_arcs: u64,
    /// First spill/IO failure, surfaced by `finish()`.
    pending_err: Option<io::Error>,
    /// Observation hook: called after every spill and periodically during
    /// the merge. `None` costs one branch per spill.
    progress: Option<IngestProgressFn>,
}

impl StreamingBuilder {
    /// Creates a streaming builder with the default 256 MiB chunk budget.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_budget_bytes(num_vertices, DEFAULT_CHUNK_BUDGET_BYTES)
    }

    /// Creates a streaming builder whose in-flight chunk stays within
    /// `budget_bytes` of resident memory (the final CSR itself is not
    /// part of the budget — it is the output).
    pub fn with_budget_bytes(num_vertices: usize, budget_bytes: usize) -> Self {
        let chunk_arcs = (budget_bytes / CHUNK_ARC_MEM_BYTES).max(MIN_CHUNK_ARCS);
        Self {
            num_vertices,
            chunk: Vec::new(),
            chunk_arcs,
            spill_dir: None,
            owns_spill_dir: false,
            runs: Vec::new(),
            total_arcs: 0,
            pending_err: None,
            progress: None,
        }
    }

    /// Installs a progress callback, invoked with an [`IngestProgress`]
    /// after every spilled chunk and roughly every 16 M merged arcs during
    /// [`Self::finish`]. Graph construction is unaffected — the hook is
    /// pure observation.
    pub fn on_progress(mut self, cb: IngestProgressFn) -> Self {
        self.progress = Some(cb);
        self
    }

    fn report(&mut self, phase: &'static str, arcs: u64) {
        if let Some(cb) = self.progress.as_mut() {
            cb(&IngestProgress {
                phase,
                arcs,
                runs: self.runs.len(),
                spilled_bytes: self.runs.iter().map(|&(_, a)| a).sum::<u64>()
                    * SPILL_ARC_BYTES as u64,
            });
        }
    }

    /// Overrides the chunk size in arcs directly (the budget constructors
    /// derive it). Exposed for tests and tuning sweeps that need exact
    /// spill boundaries; clamped to at least 1.
    pub fn with_chunk_arcs(mut self, arcs: usize) -> Self {
        assert!(
            self.chunk.is_empty() && self.runs.is_empty(),
            "with_chunk_arcs must be called before the first edge"
        );
        self.chunk_arcs = arcs.max(1);
        self
    }

    /// Directs spilled runs into `dir` (created if missing, not removed
    /// on drop — only the run files are). Must be called before the
    /// first spill. Defaults to a fresh directory under the system temp
    /// dir that is removed when the builder is dropped or finished.
    pub fn spill_to<P: AsRef<Path>>(mut self, dir: P) -> Self {
        assert!(
            self.runs.is_empty(),
            "spill_to must be called before the first spill"
        );
        self.spill_dir = Some(dir.as_ref().to_path_buf());
        self.owns_spill_dir = false;
        self
    }

    /// Current vertex count (grows with added endpoints).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Ensures the built graph has at least `n` vertices.
    pub fn reserve_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Total arcs accepted so far (pre-dedup), including spilled arcs.
    pub fn num_arcs(&self) -> u64 {
        self.total_arcs
    }

    /// Number of run files spilled so far.
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Bytes currently parked in spill files.
    pub fn spilled_bytes(&self) -> u64 {
        self.runs.iter().map(|&(_, arcs)| arcs).sum::<u64>() * SPILL_ARC_BYTES as u64
    }

    /// Adds an undirected edge `{u, v}` of weight `w`, with the same
    /// conventions as [`crate::GraphBuilder::add_edge`]: self-loops are
    /// stored once at doubled weight, duplicates merge at finish time.
    ///
    /// Spill-file IO errors are deferred and returned by [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `w` is not finite or is negative.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert_weight(w);
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        if self.pending_err.is_some() {
            return; // poisoned: finish() will report the stored error
        }
        if self.chunk.capacity() == 0 {
            // One exact reservation per chunk lifetime; the Vec is
            // recycled across spills so steady state allocates nothing.
            self.chunk.reserve_exact(self.chunk_arcs);
        }
        if u == v {
            self.push_arc(u, v, 2.0 * w);
        } else {
            self.push_arc(u, v, w);
            self.push_arc(v, u, w);
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

    fn push_arc(&mut self, u: VertexId, v: VertexId, w: f64) {
        self.chunk.push((u, v, w));
        self.total_arcs += 1;
        if self.chunk.len() >= self.chunk_arcs {
            if let Err(e) = self.spill_chunk() {
                self.pending_err = Some(e);
                self.chunk = Vec::new(); // drop the buffer: the build is lost anyway
            }
        }
    }

    /// Stably sorts the current chunk by `(source, target)` and writes it
    /// as one run file. Duplicates are *not* merged here: the final merge
    /// must sum them in global insertion order for bit-identity with the
    /// in-memory builder.
    fn spill_chunk(&mut self) -> io::Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        let dir = self.ensure_spill_dir()?;
        let path = dir.join(format!("run-{:05}.arcs", self.runs.len()));
        self.chunk.sort_by_key(|&(u, v, _)| (u, v));
        let mut w = BufWriter::with_capacity(MERGE_READ_BUF_BYTES, File::create(&path)?);
        for &(u, v, wt) in &self.chunk {
            w.write_all(&u.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
            w.write_all(&wt.to_le_bytes())?;
        }
        w.flush()?;
        self.runs.push((path, self.chunk.len() as u64));
        self.chunk.clear();
        self.report("spill", self.total_arcs);
        Ok(())
    }

    fn ensure_spill_dir(&mut self) -> io::Result<PathBuf> {
        if let Some(dir) = &self.spill_dir {
            fs::create_dir_all(dir)?;
            return Ok(dir.clone());
        }
        let dir = std::env::temp_dir().join(format!(
            "gala-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        self.spill_dir = Some(dir.clone());
        self.owns_spill_dir = true;
        Ok(dir)
    }

    /// Finalises into a CSR [`Graph`], merging spilled runs and the
    /// resident chunk. Run files (and the owned spill directory) are
    /// removed before returning.
    pub fn finish(mut self) -> io::Result<Graph> {
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        let n = self.num_vertices;
        let total = self.total_arcs as usize;
        let graph = if self.runs.is_empty() {
            // Everything fit in one chunk: no IO, and no reason to pay the
            // merge machinery either — hand the arcs to the in-memory
            // builder's counting-sort back half. Its stable source scatter
            // + stable per-row target sort realises the same total order
            // as the spill path's stable `(u, v)` sort, so the result
            // stays bit-identical while matching `GraphBuilder::build`
            // throughput (the `--gate` floor in bench_ingest).
            let mut chunk = std::mem::take(&mut self.chunk);
            chunk.shrink_to_fit();
            crate::builder::build_from_arcs(n, chunk)
                .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))?
        } else {
            self.spill_chunk()?;
            // Free the recycled chunk buffer before the output allocates.
            self.chunk = Vec::new();
            // The freed chunk's allowance is re-spent on the merge's read
            // buffers: per-run size shrinks with the run count so their
            // total never exceeds the chunk budget, keeping the documented
            // "budget + output" peak honest even for tiny budgets (many
            // runs) instead of silently costing 256 KiB per run.
            let buf_bytes = (self.chunk_arcs * CHUNK_ARC_MEM_BYTES / self.runs.len())
                .clamp(4 << 10, MERGE_READ_BUF_BYTES);
            let mut readers = Vec::with_capacity(self.runs.len());
            for (path, arcs) in &self.runs {
                readers.push(RunReader::open(path, *arcs, buf_bytes)?);
            }
            let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(readers.len());
            for (idx, r) in readers.iter_mut().enumerate() {
                if let Some((u, v, w)) = r.next_arc()? {
                    heap.push(Reverse(HeapEntry { u, v, run: idx, w }));
                }
            }
            let mut acc = CsrAccumulator::new(n, total);
            let mut merged = 0u64;
            while let Some(Reverse(e)) = heap.pop() {
                acc.push(e.u, e.v, e.w);
                merged += 1;
                if merged.is_multiple_of(MERGE_REPORT_EVERY_ARCS) {
                    self.report("merge", merged);
                }
                if let Some((u, v, w)) = readers[e.run].next_arc()? {
                    heap.push(Reverse(HeapEntry {
                        u,
                        v,
                        run: e.run,
                        w,
                    }));
                }
            }
            self.report("merge", merged);
            acc.finish()
        };
        self.cleanup();
        Ok(graph)
    }

    fn cleanup(&mut self) {
        for (path, _) in self.runs.drain(..) {
            let _ = fs::remove_file(path);
        }
        if self.owns_spill_dir {
            if let Some(dir) = self.spill_dir.take() {
                let _ = fs::remove_dir(dir);
            }
        }
    }
}

impl Drop for StreamingBuilder {
    fn drop(&mut self) {
        self.cleanup();
    }
}

impl EdgeSink for StreamingBuilder {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        StreamingBuilder::add_edge(self, u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        StreamingBuilder::reserve_vertices(self, n);
    }
}

/// Merge-heap entry. Ordering is `(u, v, run)`: the run index breaks ties
/// so duplicate arcs drain in chunk-age order — i.e. insertion order —
/// which pins the duplicate-weight summation (see the module docs).
#[derive(PartialEq)]
struct HeapEntry {
    u: VertexId,
    v: VertexId,
    run: usize,
    w: f64,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.u, self.v, self.run).cmp(&(other.u, other.v, other.run))
    }
}

/// Buffered reader over one spilled run.
struct RunReader {
    rd: BufReader<File>,
    remaining: u64,
}

impl RunReader {
    fn open(path: &Path, arcs: u64, buf_bytes: usize) -> io::Result<Self> {
        Ok(Self {
            rd: BufReader::with_capacity(buf_bytes, File::open(path)?),
            remaining: arcs,
        })
    }

    fn next_arc(&mut self) -> io::Result<Option<(VertexId, VertexId, f64)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; SPILL_ARC_BYTES];
        self.rd.read_exact(&mut buf)?;
        self.remaining -= 1;
        let u = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let v = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let w = f64::from_le_bytes(buf[8..16].try_into().unwrap());
        Ok(Some((u, v, w)))
    }
}

/// Builds exact-size CSR arrays from a `(u, v)`-sorted arc stream,
/// summing consecutive duplicates left-to-right.
struct CsrAccumulator {
    n: usize,
    /// Per-row merged arc counts, prefix-summed into offsets at the end.
    counts: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    last: Option<(VertexId, VertexId)>,
}

impl CsrAccumulator {
    fn new(n: usize, upper_arcs: usize) -> Self {
        let mut targets = Vec::new();
        targets.reserve_exact(upper_arcs);
        let mut weights = Vec::new();
        weights.reserve_exact(upper_arcs);
        Self {
            n,
            counts: vec![0usize; n + 1],
            targets,
            weights,
            last: None,
        }
    }

    fn push(&mut self, u: VertexId, v: VertexId, w: f64) {
        debug_assert!(
            self.last.is_none_or(|last| last <= (u, v)),
            "arc stream must arrive sorted"
        );
        if self.last == Some((u, v)) {
            *self.weights.last_mut().unwrap() += w;
        } else {
            self.counts[u as usize + 1] += 1;
            self.targets.push(v);
            self.weights.push(w);
            self.last = Some((u, v));
        }
    }

    fn finish(mut self) -> Graph {
        for i in 0..self.n {
            self.counts[i + 1] += self.counts[i];
        }
        // Return over-reservation slack (duplicates).
        crate::builder::shrink_if_material(&mut self.targets, &mut self.weights);
        // Symmetric by construction: every edge pushed both of its arcs
        // into the runs, and duplicates merge in one order.
        Graph::from_csr_trusted(self.counts, self.targets, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn edge_set() -> Vec<(u32, u32, f64)> {
        // Duplicates (including a triple with distinct weights, which
        // pins summation order), self-loops, isolated vertex 6.
        vec![
            (0, 1, 1.0),
            (3, 2, 0.25),
            (1, 0, 0.5),
            (2, 2, 1.5),
            (0, 1, 0.125),
            (4, 5, 1.0),
            (2, 3, 2.0),
            (5, 4, 0.75),
            (0, 1, 3.5),
        ]
    }

    fn reference(edges: &[(u32, u32, f64)]) -> Graph {
        let mut b = GraphBuilder::new(7);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    fn assert_bit_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        let wa: Vec<u64> = a.arc_weights().map(f64::to_bits).collect();
        let wb: Vec<u64> = b.arc_weights().map(f64::to_bits).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn no_spill_path_matches_builder() {
        let edges = edge_set();
        let mut s = StreamingBuilder::new(7);
        s.extend_edges(edges.iter().copied());
        assert_eq!(s.spilled_runs(), 0);
        let g = s.finish().unwrap();
        assert_bit_identical(&g, &reference(&edges));
    }

    #[test]
    fn every_tiny_chunk_size_matches_builder() {
        let edges = edge_set();
        let expect = reference(&edges);
        for chunk_arcs in 1..=8 {
            let mut s = StreamingBuilder::with_budget_bytes(7, 1);
            s.chunk_arcs = chunk_arcs; // force pathological chunking
            s.extend_edges(edges.iter().copied());
            assert!(s.spilled_runs() > 0, "chunk size {chunk_arcs} must spill");
            let g = s.finish().unwrap();
            assert_bit_identical(&g, &expect);
        }
    }

    #[test]
    fn caller_provided_spill_dir_is_kept() {
        let dir = std::env::temp_dir().join(format!("gala-spill-test-{}", std::process::id()));
        let edges = edge_set();
        let mut s = StreamingBuilder::with_budget_bytes(7, 1).spill_to(&dir);
        s.chunk_arcs = 2;
        s.extend_edges(edges.iter().copied());
        assert!(s.spilled_bytes() > 0);
        let g = s.finish().unwrap();
        assert_bit_identical(&g, &reference(&edges));
        // Directory survives, run files do not.
        assert!(dir.is_dir());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir(dir);
    }

    #[test]
    fn progress_callback_sees_spills_and_merge_without_changing_output() {
        use std::sync::{Arc, Mutex};
        let edges = edge_set();
        type Seen = Arc<Mutex<Vec<(&'static str, u64, usize)>>>;
        let seen: Seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut s = StreamingBuilder::with_budget_bytes(7, 1).on_progress(Box::new(move |p| {
            sink.lock().unwrap().push((p.phase, p.arcs, p.runs));
        }));
        s.chunk_arcs = 4;
        s.extend_edges(edges.iter().copied());
        let g = s.finish().unwrap();
        assert_bit_identical(&g, &reference(&edges));
        let seen = seen.lock().unwrap();
        let spills = seen.iter().filter(|(p, ..)| *p == "spill").count();
        assert!(spills >= 2, "tiny chunks must spill more than once");
        // The merge reports at least its final tally, covering every arc.
        let (_, merged, _) = seen
            .iter()
            .rev()
            .find(|(p, ..)| *p == "merge")
            .expect("a merge report");
        let total: u64 = edges
            .iter()
            .map(|&(u, v, _)| if u == v { 1 } else { 2 })
            .sum();
        assert_eq!(*merged, total);
    }

    #[test]
    fn empty_and_isolated() {
        let g = StreamingBuilder::new(4).finish().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_bad_weight() {
        StreamingBuilder::new(2).add_edge(0, 1, f64::INFINITY);
    }

    #[test]
    fn self_loop_and_growth_conventions_match() {
        let mut s = StreamingBuilder::new(0);
        s.add_edge(5, 5, 3.0);
        let g = s.finish().unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.self_loop(5), 6.0);
    }
}
