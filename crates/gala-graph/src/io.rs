//! Graph IO: whitespace-separated edge-list text and a compact binary format.
//!
//! The text format is the de-facto standard used by SNAP / KONECT dumps:
//! one `u v [w]` triple per line, `#` or `%` comment lines ignored, weight
//! defaulting to 1. Directed inputs are symmetrised by the builder (the
//! paper converts directed graphs such as TW and EW to undirected ones).
//! Parsing is byte-level: plain `u v [w]` lines take a single-scan fast
//! path, every other line the general tokenizer, and nothing is allocated
//! per edge. Weights must be finite and `>= 0`; anything else is an
//! `InvalidData` error naming the line, as is every malformed line.
//!
//! Text reaches a graph two ways, through one line loop:
//!
//! * **In memory** ([`load_edge_list`], [`read_edge_list`]): the whole
//!   input is read into one buffer and cut into about four line-aligned
//!   chunks per pool thread. The chunks are parsed in parallel, each into
//!   its own exactly reserved arc list, and the text is dropped before
//!   the build. The builder scatters the lists into the CSR by row ranges
//!   across the pool and wraps its symmetric-by-construction output
//!   without a release-mode audit (debug builds still run it). The graph
//!   is bit-identical to a serial parse at any pool width, and a
//!   malformed input reports its first bad line, as the serial parser
//!   does.
//! * **Streaming** ([`parse_edge_list_into`]): bounded memory, in place
//!   in the reader's buffer (only a line split across two refills is
//!   copied), generic over [`EdgeSink`] so it also feeds the out-of-core
//!   [`crate::stream::StreamingBuilder`].
//!
//! **Vertex-count bound.** The in-memory loaders size the graph by its
//! largest id. Without a `#vertices N` directive, that count may not
//! exceed `2 × edges + 2^20`: a graph without isolated vertices has
//! `n <= 2m`, and the slack (8 MiB of offsets) admits hand-written files
//! with gaps in their ids. A larger id is an `InvalidData` error naming
//! the id and the edge count, not a multi-gigabyte allocation; a
//! `#vertices N` directive raises the limit to `N`. The streaming parser
//! applies no bound of its own. Both parsers reject a directive whose `N`
//! exceeds the `2^32` vertices a `u32` id can name.
//!
//! ## Binary containers
//!
//! Two little-endian on-disk versions exist:
//!
//! * **v1** (`GALAGRF1`): magic, `n`, `arcs`, then packed offsets /
//!   targets / weights. Read-compatible; no longer written.
//! * **v2** (`GALAGRF2`): a 64-byte header carrying explicit 8-byte
//!   aligned section positions and an FNV-1a checksum over the section
//!   bytes. [`save_binary`] streams it without materialising the
//!   container in memory; [`load_binary_mapped`] uses the checksum in
//!   place of the `O(n + m)` structural audit and decodes through the
//!   trusted CSR constructor into a [`MappedGraph`]. The workspace
//!   forbids `unsafe`, so the "mapping" is emulated — sections are
//!   streamed into exactly-sized buffers — but the header layout is
//!   mmap-ready: every section is aligned and its position explicit.
//!
//! v2 header layout (all fields `u64` LE unless noted):
//!
//! | offset | field                                  |
//! |-------:|----------------------------------------|
//! |      0 | magic `GALAGRF2` (8 bytes)             |
//! |      8 | `n` (vertex count)                     |
//! |     16 | `arcs` (adjacency entries)             |
//! |     24 | offsets section position (= 64)        |
//! |     32 | targets section position               |
//! |     40 | weights section position               |
//! |     48 | FNV-1a checksum of all section bytes   |
//! |     56 | reserved (0)                           |

use crate::builder::{EdgeSink, GraphBuilder};
use crate::csr::{Graph, MappedGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the legacy (packed, unchecksummed) container.
const MAGIC_V1: &[u8; 8] = b"GALAGRF1";

/// Magic bytes of the aligned, checksummed container.
const MAGIC_V2: &[u8; 8] = b"GALAGRF2";

/// v2 header size; also the (8-aligned) position of the offsets section.
const HEADER_BYTES: u64 = 64;

/// Header position of the checksum field (patched after streaming).
const CHECKSUM_POS: u64 = 48;

/// Section streaming granularity. A multiple of 8 so no element straddles
/// a chunk boundary.
const IO_CHUNK_BYTES: usize = 1 << 20;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Edge-list text format
// ---------------------------------------------------------------------------

/// Returns the next whitespace-delimited token of `line` starting at
/// `*pos`, advancing `*pos` past it.
fn next_token<'a>(line: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    while *pos < line.len() && line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    let start = *pos;
    while *pos < line.len() && !line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    (*pos > start).then(|| &line[start..*pos])
}

fn parse_vertex(tok: &[u8], lineno: usize, what: &str) -> io::Result<VertexId> {
    let mut val: u64 = 0;
    if tok.is_empty() {
        return Err(bad_data(format!("line {lineno}: missing {what}")));
    }
    for &b in tok {
        if !b.is_ascii_digit() {
            return Err(bad_data(format!(
                "line {lineno}: invalid {what} '{}'",
                String::from_utf8_lossy(tok)
            )));
        }
        val = val * 10 + (b - b'0') as u64;
        if val > VertexId::MAX as u64 {
            return Err(bad_data(format!(
                "line {lineno}: {what} '{}' exceeds the u32 vertex-id range",
                String::from_utf8_lossy(tok)
            )));
        }
    }
    Ok(val as VertexId)
}

/// Parses an edge weight: any `f64` literal that is finite and `>= 0`,
/// the weights [`EdgeSink::add_edge`] accepts.
fn parse_weight(tok: &[u8], lineno: usize) -> io::Result<f64> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|w| w.is_finite() && *w >= 0.0)
        .ok_or_else(|| {
            bad_data(format!(
                "line {lineno}: invalid weight '{}' (must be a finite number >= 0)",
                String::from_utf8_lossy(tok)
            ))
        })
}

/// The most vertices a `#vertices N` directive may declare: one per
/// [`VertexId`].
const MAX_DECLARED_VERTICES: u64 = 1 << 32;

/// Parses the count of a `#vertices N` directive. `None` when the token is
/// not a number, so the line stays a comment; a number above
/// [`MAX_DECLARED_VERTICES`] is an `InvalidData` error naming the line.
fn parse_vertex_count(tok: &[u8], lineno: usize) -> io::Result<Option<usize>> {
    let text = String::from_utf8_lossy(tok);
    match text.parse::<u64>() {
        Ok(n) if n <= MAX_DECLARED_VERTICES => Ok(Some(n as usize)),
        Err(e) if *e.kind() != std::num::IntErrorKind::PosOverflow => Ok(None),
        _ => Err(bad_data(format!(
            "line {lineno}: `#vertices {text}` exceeds the {MAX_DECLARED_VERTICES} \
             vertices a u32 id can name"
        ))),
    }
}

/// Parses one complete line (its `\n` included, when it has one) with the
/// general tokenizer: comments, the `#vertices` directive, any ASCII
/// whitespace, decimal weights, trailing tokens, and every error.
fn parse_line<S: EdgeSink>(line: &[u8], lineno: usize, sink: &mut S) -> io::Result<()> {
    let mut pos = 0usize;
    let Some(first) = next_token(line, &mut pos) else {
        return Ok(()); // blank line
    };
    if first[0] == b'#' || first[0] == b'%' {
        // Honor our own writer's vertex-count directive so isolated
        // trailing vertices survive a round-trip.
        if first == b"#vertices" {
            if let Some(tok) = next_token(line, &mut pos) {
                if let Some(n) = parse_vertex_count(tok, lineno)? {
                    sink.reserve_vertices(n);
                }
            }
        }
        return Ok(());
    }
    let u = parse_vertex(first, lineno, "source")?;
    let v = match next_token(line, &mut pos) {
        Some(tok) => parse_vertex(tok, lineno, "target")?,
        None => return Err(bad_data(format!("line {lineno}: missing target"))),
    };
    let w = match next_token(line, &mut pos) {
        Some(tok) => parse_weight(tok, lineno)?,
        None => 1.0,
    };
    sink.add_edge(u, v, w);
    Ok(())
}

/// Ids of at most this many digits always fit a [`VertexId`].
const FAST_ID_DIGITS: usize = 9;

/// Integer weights of at most this many digits are exact in an `f64`
/// (`10^15 < 2^53`).
const FAST_WEIGHT_DIGITS: usize = 15;

/// Reads up to `max` ASCII digits at `*pos`; `None` if there are none.
/// A longer run leaves a digit at `*pos`, which the caller's delimiter
/// check then rejects.
#[inline]
fn fast_digits(buf: &[u8], pos: &mut usize, max: usize) -> Option<u64> {
    let start = *pos;
    let mut val = 0u64;
    while *pos - start < max {
        match buf.get(*pos) {
            Some(&b) if b.is_ascii_digit() => val = val * 10 + (b - b'0') as u64,
            _ => break,
        }
        *pos += 1;
    }
    (*pos > start).then_some(val)
}

/// Skips spaces at `*pos`, returning how many there were.
#[inline]
fn skip_spaces(buf: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while buf.get(*pos) == Some(&b' ') {
        *pos += 1;
    }
    *pos - start
}

/// The fast path for the common line shape
/// `digits ' '+ digits (' '+ digits)? ' '* '\n'`, with ids of at most
/// [`FAST_ID_DIGITS`] digits and an integer weight of at most
/// [`FAST_WEIGHT_DIGITS`]: both convert exactly, so the edge equals what
/// [`parse_line`] makes of the same line. Returns the edge and the line's
/// length including its `\n`, or `None` for any other line (or one cut
/// off by the end of `buf`).
#[inline]
fn fast_line(buf: &[u8]) -> Option<(VertexId, VertexId, f64, usize)> {
    let mut pos = 0usize;
    let u = fast_digits(buf, &mut pos, FAST_ID_DIGITS)?;
    if skip_spaces(buf, &mut pos) == 0 {
        return None;
    }
    let v = fast_digits(buf, &mut pos, FAST_ID_DIGITS)?;
    let mut w = 1.0;
    if skip_spaces(buf, &mut pos) > 0 && buf.get(pos).is_some_and(u8::is_ascii_digit) {
        w = fast_digits(buf, &mut pos, FAST_WEIGHT_DIGITS)? as f64;
        skip_spaces(buf, &mut pos);
    }
    (buf.get(pos) == Some(&b'\n')).then_some((u as VertexId, v as VertexId, w, pos + 1))
}

/// Parses every complete (`\n`-terminated) line of `buf`, numbering them
/// on from `*lineno`, and returns the length of that prefix; whatever
/// follows it is one unterminated line. Plain `u v [w]` lines with short
/// integer tokens take the single-scan [`fast_line`]; every other line
/// goes through the general tokenizer [`parse_line`], which produces the
/// same edges. The one line loop of both the streaming
/// [`parse_edge_list_into`] and the chunked in-memory loader.
fn parse_lines<S: EdgeSink>(buf: &[u8], lineno: &mut usize, sink: &mut S) -> io::Result<usize> {
    let mut pos = 0usize;
    while pos < buf.len() {
        let rest = &buf[pos..];
        if let Some((u, v, w, line_len)) = fast_line(rest) {
            *lineno += 1;
            sink.add_edge(u, v, w);
            pos += line_len;
            continue;
        }
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            break;
        };
        *lineno += 1;
        parse_line(&rest[..=nl], *lineno, sink)?;
        pos += nl + 1;
    }
    Ok(pos)
}

/// Parses an edge-list from a reader into any [`EdgeSink`]. Lines starting
/// with `#` or `%` are comments; each data line is `u v` or `u v w`
/// (weight defaults to 1 and must be finite and `>= 0`; extra trailing
/// tokens are ignored). The `#vertices N` directive written by
/// [`write_edge_list`] reserves isolated trailing vertices. Malformed
/// lines are reported with their 1-based line number.
///
/// This is the bounded-memory streaming parser, for sinks such as the
/// out-of-core [`crate::stream::StreamingBuilder`] that must never hold
/// the whole input. Complete lines are parsed in place in the reader's
/// buffer (`fill_buf`/`consume`); only a line that straddles a refill is
/// copied, into one reused carry buffer. Parsing allocates nothing per
/// edge.
pub fn parse_edge_list_into<R: BufRead, S: EdgeSink>(
    mut reader: R,
    sink: &mut S,
) -> io::Result<()> {
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let len = buf.len();
        if len == 0 {
            // End of input: the carry holds a last line without a newline.
            if !carry.is_empty() {
                parse_line(&carry, lineno + 1, sink)?;
            }
            return Ok(());
        }
        let mut pos = 0usize;
        if !carry.is_empty() {
            // Finish the line that straddled the previous refill.
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(buf);
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&buf[..=nl]);
            lineno += 1;
            parse_line(&carry, lineno, sink)?;
            carry.clear();
            pos = nl + 1;
        }
        pos += parse_lines(&buf[pos..], &mut lineno, sink)?;
        carry.extend_from_slice(&buf[pos..]);
        reader.consume(len);
    }
}

/// Without a `#vertices N` directive, an in-memory text load may name at
/// most `2 × edges + UNDECLARED_VERTEX_SLACK` vertices. A graph without
/// isolated vertices has `n <= 2m`; the slack (8 MiB of offsets) admits
/// hand-written files with gaps in their ids.
pub const UNDECLARED_VERTEX_SLACK: usize = 1 << 20;

/// One chunk's parse: its arcs (in a builder that sees only the edges)
/// plus what the vertex-count bound needs.
struct TextChunk {
    builder: GraphBuilder,
    edges: usize,
    /// Largest `#vertices` count in the chunk.
    declared: usize,
}

impl EdgeSink for TextChunk {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        self.edges += 1;
        self.builder.add_edge(u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        self.declared = self.declared.max(n);
    }
}

/// Cuts `text` at line starts into `chunks` pieces of near-equal byte
/// length (some empty when lines are long or few). Returns the
/// `chunks + 1` cut positions; every piece but the last ends in `\n`.
fn line_cuts(text: &[u8], chunks: usize) -> Vec<usize> {
    let mut cuts = vec![0usize];
    for c in 1..chunks {
        let goal = (text.len() * c / chunks).max(cuts[c - 1]);
        let cut = match goal {
            0 => 0,
            _ => text[goal - 1..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| goal + i),
        };
        cuts.push(cut);
    }
    cuts.push(text.len());
    cuts
}

/// The in-memory text loader behind [`read_edge_list`] and
/// [`load_edge_list`]: the whole input in one buffer, parsed in
/// line-aligned chunks across the pool, then built by
/// [`crate::builder::build_from_arcs`].
///
/// A first pool pass counts each chunk's newlines, which gives every
/// chunk its first line number and its exact arc reservation (two arcs
/// per line, so no arc list reallocates). A second pass parses each chunk
/// into its own arc list with [`parse_lines`]. The lists are handed to the
/// build in chunk order and never concatenated, so the graph is
/// bit-identical to the serial parse at any chunk count. A malformed line
/// stops its chunk; the earliest chunk's error is returned, which is the
/// error of the first bad line, with its global line number. The text is
/// dropped before the build starts.
pub(crate) fn parse_text_chunked(text: Vec<u8>, chunks: usize) -> io::Result<Graph> {
    let cuts = line_cuts(&text, chunks.max(1));
    let pieces: Vec<&[u8]> = cuts.windows(2).map(|c| &text[c[0]..c[1]]).collect();
    let newlines = rayon::par_map_tasks(pieces.clone(), |piece| {
        piece.iter().filter(|&&b| b == b'\n').count()
    });
    let mut tasks = Vec::with_capacity(pieces.len());
    let mut first_line = 0usize;
    for (piece, &nl) in pieces.into_iter().zip(&newlines) {
        tasks.push((piece, first_line, nl));
        first_line += nl;
    }
    let parsed = rayon::par_map_tasks(tasks, |(piece, mut lineno, newlines)| {
        // Only the last piece can end in a line without a newline.
        let lines = newlines + usize::from(piece.last().is_some_and(|&b| b != b'\n'));
        let mut sink = TextChunk {
            builder: GraphBuilder::with_capacity(0, lines),
            edges: 0,
            declared: 0,
        };
        let done = parse_lines(piece, &mut lineno, &mut sink)?;
        if done < piece.len() {
            parse_line(&piece[done..], lineno + 1, &mut sink)?;
        }
        Ok(sink)
    });
    drop(text);
    let parts = parsed.into_iter().collect::<io::Result<Vec<TextChunk>>>()?;
    let edges: usize = parts.iter().map(|p| p.edges).sum();
    let ids = parts
        .iter()
        .map(|p| p.builder.num_vertices())
        .max()
        .unwrap_or(0);
    let declared = parts.iter().map(|p| p.declared).max().unwrap_or(0);
    let limit = edges
        .saturating_mul(2)
        .saturating_add(UNDECLARED_VERTEX_SLACK)
        .max(declared);
    if ids > limit {
        return Err(bad_data(format!(
            "largest vertex id {} is out of proportion to the {edges} edges read: \
             without a `#vertices N` directive, an edge list may name at most \
             2 × edges + {UNDECLARED_VERTEX_SLACK} = {limit} vertices; \
             declare the vertex count with a `#vertices N` line to load it",
            ids - 1
        )));
    }
    let arcs = parts.into_iter().map(|p| p.builder.into_arcs()).collect();
    let n = ids.max(declared);
    crate::builder::build_from_arcs(n, arcs).map_err(|e| {
        bad_data(if declared == n {
            format!("`#vertices {n}`: cannot reserve the vertex arrays of a {n}-vertex graph ({e})")
        } else {
            format!("cannot reserve the vertex arrays of a {n}-vertex graph ({e})")
        })
    })
}

/// Chunks per pool thread of the in-memory text loader: more than one so
/// uneven chunks balance.
const TEXT_CHUNKS_PER_THREAD: usize = 4;

/// Parses a whole edge-list from a reader into a [`Graph`], in memory and
/// in parallel (see the module docs). The format is that of
/// [`parse_edge_list_into`]. The graph is bit-identical to a serial parse
/// at any pool width.
///
/// Without a `#vertices N` directive, the vertex count (largest id + 1)
/// may not exceed `2 × edges + 2^20`; a larger id is an `InvalidData`
/// error rather than a multi-gigabyte allocation. A directive raises the
/// limit to its `N`. Use [`parse_edge_list_into`] with a
/// [`crate::stream::StreamingBuilder`] for inputs that must not be held
/// in memory.
pub fn read_edge_list<R: Read>(mut reader: R) -> io::Result<Graph> {
    let mut text = Vec::new();
    reader.read_to_end(&mut text)?;
    parse_text_chunked(text, TEXT_CHUNKS_PER_THREAD * rayon::current_parallelism())
}

/// Loads an edge-list file. See [`read_edge_list`].
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_edge_list(File::open(path)?)
}

/// Writes the graph as an edge list (each undirected edge once, `u <= v`).
pub fn write_edge_list<W: Write>(graph: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "#vertices {}", graph.num_vertices())?;
    for v in graph.vertices() {
        for (u, wt) in graph.neighbors(v) {
            if u >= v {
                // Self-loop stored weight is doubled; write the user-facing value.
                let out = if u == v { wt / 2.0 } else { wt };
                writeln!(w, "{v} {u} {out}")?;
            }
        }
    }
    Ok(())
}

/// Saves an edge-list file. See [`write_edge_list`].
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    write_edge_list(graph, BufWriter::new(File::create(path)?))
}

// ---------------------------------------------------------------------------
// Binary container
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit): the container checksum. Deterministic,
/// dependency-free, and byte-order-stable.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn align8(pos: u64) -> u64 {
    pos.next_multiple_of(8)
}

/// v2 section positions for a graph of `n` vertices and `arcs` entries:
/// `(targets_pos, weights_pos, total_len)`.
fn v2_layout(n: u64, arcs: u64) -> (u64, u64, u64) {
    let targets_pos = HEADER_BYTES + (n + 1) * 8;
    let weights_pos = align8(targets_pos + arcs * 4);
    (targets_pos, weights_pos, weights_pos + arcs * 8)
}

fn v2_header(graph: &Graph, checksum: u64) -> [u8; HEADER_BYTES as usize] {
    let n = graph.num_vertices() as u64;
    let arcs = graph.num_arcs() as u64;
    let (targets_pos, weights_pos, _) = v2_layout(n, arcs);
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..8].copy_from_slice(MAGIC_V2);
    h[8..16].copy_from_slice(&n.to_le_bytes());
    h[16..24].copy_from_slice(&arcs.to_le_bytes());
    h[24..32].copy_from_slice(&HEADER_BYTES.to_le_bytes());
    h[32..40].copy_from_slice(&targets_pos.to_le_bytes());
    h[40..48].copy_from_slice(&weights_pos.to_le_bytes());
    h[48..56].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Streams the three CSR sections (with alignment padding) to `w`,
/// returning the FNV-1a checksum over everything written.
fn write_v2_sections<W: Write>(graph: &Graph, w: &mut W) -> io::Result<u64> {
    let mut fnv = Fnv1a::new();
    let mut buf: Vec<u8> = Vec::with_capacity(IO_CHUNK_BYTES);
    let flush = |buf: &mut Vec<u8>, w: &mut W, fnv: &mut Fnv1a, force: bool| -> io::Result<()> {
        if force || buf.len() >= IO_CHUNK_BYTES {
            fnv.update(buf);
            w.write_all(buf)?;
            buf.clear();
        }
        Ok(())
    };
    for &o in graph.offsets() {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    for &t in graph.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    let (targets_pos, weights_pos, _) =
        v2_layout(graph.num_vertices() as u64, graph.num_arcs() as u64);
    let padding = (weights_pos - targets_pos - graph.num_arcs() as u64 * 4) as usize;
    buf.resize(padding, 0);
    flush(&mut buf, w, &mut fnv, true)?;
    for &wt in graph.weights() {
        buf.extend_from_slice(&wt.to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    Ok(fnv.finish())
}

/// Serialises the graph into the v2 binary container.
pub fn to_bytes(graph: &Graph) -> Vec<u8> {
    let (_, _, total) = v2_layout(graph.num_vertices() as u64, graph.num_arcs() as u64);
    let mut buf = Vec::with_capacity(total as usize);
    buf.extend_from_slice(&v2_header(graph, 0));
    let checksum = write_v2_sections(graph, &mut buf).expect("Vec write is infallible");
    buf[CHECKSUM_POS as usize..][..8].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Saves the binary container (v2) to a file, streaming the sections —
/// peak memory is one IO chunk, not the whole container. The checksum is
/// patched into the header after the sections are written.
pub fn save_binary<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(IO_CHUNK_BYTES, File::create(path)?);
    w.write_all(&v2_header(graph, 0))?;
    let checksum = write_v2_sections(graph, &mut w)?;
    let mut f = w.into_inner().map_err(|e| e.into_error())?;
    f.seek(SeekFrom::Start(CHECKSUM_POS))?;
    f.write_all(&checksum.to_le_bytes())?;
    f.flush()
}

/// Decoded v2 CSR arrays plus the number of checksummed bytes consumed.
struct V2Sections {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    section_bytes: u64,
}

/// Reads `total` bytes in aligned chunks, feeding each chunk to `consume`
/// and folding it into `fnv`.
fn read_chunked<R: Read>(
    r: &mut R,
    mut total: usize,
    fnv: &mut Fnv1a,
    mut consume: impl FnMut(&[u8]),
) -> io::Result<()> {
    let mut buf = vec![0u8; IO_CHUNK_BYTES.min(total.max(1))];
    while total > 0 {
        let take = buf.len().min(total);
        r.read_exact(&mut buf[..take])?;
        fnv.update(&buf[..take]);
        consume(&buf[..take]);
        total -= take;
    }
    Ok(())
}

/// Reads and checksum-verifies the v2 sections that follow an
/// already-consumed header, from a container of `container_len` bytes.
/// Each section is streamed straight into its exactly-sized output vector
/// (1x peak, no whole-file staging buffer); the header's sizes are checked
/// against `container_len` before anything is allocated.
fn read_v2_sections<R: Read>(
    header: &[u8; HEADER_BYTES as usize],
    r: &mut R,
    container_len: u64,
) -> io::Result<V2Sections> {
    let field = |i: usize| u64_at(header, i);
    let (n, arcs) = (field(8), field(16));
    let (offsets_pos, targets_pos, weights_pos) = (field(24), field(32), field(40));
    let want_checksum = field(48);
    // Far beyond any real graph, and small enough that the layout
    // arithmetic below cannot overflow.
    const MAX_COUNT: u64 = 1 << 56;
    if n >= MAX_COUNT || arcs >= MAX_COUNT {
        return Err(bad_data("v2 container: inconsistent section layout".into()));
    }
    let (expect_targets, expect_weights, total) = v2_layout(n, arcs);
    if offsets_pos != HEADER_BYTES || targets_pos != expect_targets || weights_pos != expect_weights
    {
        return Err(bad_data("v2 container: inconsistent section layout".into()));
    }
    if container_len < total {
        return Err(bad_data(format!(
            "v2 container: truncated ({container_len} of {total} bytes)"
        )));
    }
    let (n, arcs) = (n as usize, arcs as usize);
    let mut fnv = Fnv1a::new();
    let mut offsets: Vec<usize> = Vec::new();
    offsets.reserve_exact(n + 1);
    read_chunked(r, (n + 1) * 8, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(8) {
            offsets.push(u64::from_le_bytes(c.try_into().unwrap()) as usize);
        }
    })?;
    let mut targets: Vec<VertexId> = Vec::new();
    targets.reserve_exact(arcs);
    read_chunked(r, arcs * 4, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(4) {
            targets.push(u32::from_le_bytes(c.try_into().unwrap()));
        }
    })?;
    let padding = (weights_pos - targets_pos) as usize - arcs * 4;
    read_chunked(r, padding, &mut fnv, |_| {})?;
    let mut weights: Vec<f64> = Vec::new();
    weights.reserve_exact(arcs);
    read_chunked(r, arcs * 8, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(8) {
            weights.push(f64::from_le_bytes(c.try_into().unwrap()));
        }
    })?;
    if fnv.finish() != want_checksum {
        return Err(bad_data("v2 container: checksum mismatch".into()));
    }
    // Cheap O(n) structural check; the checksum covers the rest.
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&arcs)
        || offsets.windows(2).any(|p| p[0] > p[1])
    {
        return Err(bad_data("v2 container: corrupt offsets".into()));
    }
    Ok(V2Sections {
        offsets,
        targets,
        weights,
        section_bytes: total - HEADER_BYTES,
    })
}

/// Reads the little-endian `u64` at `data[i..i + 8]`.
fn u64_at(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("an 8-byte slice"))
}

/// Decodes packed little-endian `N`-byte values.
fn decode_le<T, const N: usize>(bytes: &[u8], from_le: fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(N)
        .map(|c| from_le(c.try_into().expect("chunks_exact yields N bytes")))
        .collect()
}

/// Parses a v1 body (everything after the magic) into an audited graph.
fn read_v1_body(data: &[u8]) -> io::Result<Graph> {
    let truncated = || bad_data("truncated graph container".into());
    if data.len() < 16 {
        return Err(truncated());
    }
    let (n, arcs, body) = (u64_at(data, 0), u64_at(data, 8), &data[16..]);
    // In u128, so a corrupt header cannot overflow the size arithmetic.
    if (body.len() as u128) < (n as u128 + 1) * 8 + arcs as u128 * 12 {
        return Err(truncated());
    }
    let (n, arcs) = (n as usize, arcs as usize);
    let (offset_bytes, rest) = body.split_at((n + 1) * 8);
    let (target_bytes, rest) = rest.split_at(arcs * 4);
    let offsets = decode_le(offset_bytes, |b| u64::from_le_bytes(b) as usize);
    let targets = decode_le(target_bytes, u32::from_le_bytes);
    let weights = decode_le(&rest[..arcs * 8], f64::from_le_bytes);
    audited(offsets, targets, weights, "v1")
}

/// Audits decoded CSR arrays, turning a structural fault into
/// `InvalidData` that names the container version and the fault.
fn audited(
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    version: &str,
) -> io::Result<Graph> {
    Graph::try_from_csr(offsets, targets, weights)
        .map_err(|e| bad_data(format!("{version} container: corrupt graph: {e}")))
}

/// Deserialises a graph from a binary container (v1 or v2), with full
/// structural validation. Corrupt or truncated containers fail with
/// `InvalidData`.
pub fn from_bytes(data: &[u8]) -> io::Result<Graph> {
    if data.len() >= 8 && &data[..8] == MAGIC_V1 {
        return read_v1_body(&data[8..]);
    }
    if data.len() >= HEADER_BYTES as usize && &data[..8] == MAGIC_V2 {
        let header: [u8; HEADER_BYTES as usize] = data[..HEADER_BYTES as usize].try_into().unwrap();
        let mut rest = &data[HEADER_BYTES as usize..];
        let s = read_v2_sections(&header, &mut rest, data.len() as u64)?;
        return audited(s.offsets, s.targets, s.weights, "v2");
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a binary container (v1 or v2) into a fully-validated owned
/// [`Graph`]. Corrupt or truncated containers fail with `InvalidData`.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let file = File::open(path)?;
    let container_len = file.metadata()?.len();
    let mut r = BufReader::with_capacity(IO_CHUNK_BYTES, file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC_V1 {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        return read_v1_body(&buf);
    }
    if &magic == MAGIC_V2 {
        let mut header = [0u8; HEADER_BYTES as usize];
        header[..8].copy_from_slice(&magic);
        r.read_exact(&mut header[8..])?;
        let s = read_v2_sections(&header, &mut r, container_len)?;
        return audited(s.offsets, s.targets, s.weights, "v2");
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a v2 container read-only through the emulated mapping path:
/// sections stream into exactly-sized buffers, the header checksum
/// replaces the structural audit, and decoding goes through the trusted
/// CSR constructor. Errors on v1 containers (re-save with
/// [`save_binary`] to upgrade).
pub fn load_binary_mapped<P: AsRef<Path>>(path: P) -> io::Result<MappedGraph> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let container_len = file.metadata()?.len();
    let mut r = BufReader::with_capacity(IO_CHUNK_BYTES, file);
    let mut header = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut header)?;
    if &header[..8] == MAGIC_V1 {
        return Err(bad_data(
            "mapped load requires the v2 container; re-save with save_binary".into(),
        ));
    }
    if &header[..8] != MAGIC_V2 {
        return Err(bad_data("bad magic".into()));
    }
    let s = read_v2_sections(&header, &mut r, container_len)?;
    let graph = Graph::from_csr_trusted(s.offsets, s.targets, s.weights);
    Ok(MappedGraph::new(graph, path.to_path_buf(), s.section_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        b.add_edge(3, 3, 1.0);
        b.build()
    }

    /// A legacy v1 container around raw, possibly corrupt, CSR arrays
    /// (the old writer's layout, kept for back-compat coverage).
    fn v1_container(n: u64, offsets: &[usize], targets: &[u32], weights: &[f64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V1);
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&(targets.len() as u64).to_le_bytes());
        for &o in offsets {
            buf.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &t in targets {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for &w in weights {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    /// A checksum-valid v2 container around raw, possibly corrupt, CSR
    /// arrays, written byte by byte like [`v1_container`].
    fn v2_container(offsets: &[usize], targets: &[u32], weights: &[f64]) -> Vec<u8> {
        let (n, arcs) = (offsets.len() as u64 - 1, targets.len() as u64);
        let (targets_pos, weights_pos, _) = v2_layout(n, arcs);
        let mut sections = Vec::new();
        for &o in offsets {
            sections.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &t in targets {
            sections.extend_from_slice(&t.to_le_bytes());
        }
        sections.resize((weights_pos - HEADER_BYTES) as usize, 0);
        for &w in weights {
            sections.extend_from_slice(&w.to_le_bytes());
        }
        let mut fnv = Fnv1a::new();
        fnv.update(&sections);
        let mut buf = MAGIC_V2.to_vec();
        for field in [
            n,
            arcs,
            HEADER_BYTES,
            targets_pos,
            weights_pos,
            fnv.finish(),
            0,
        ] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf.extend_from_slice(&sections);
        buf
    }

    #[test]
    fn v2_container_helper_matches_the_writer() {
        let g = sample();
        let bytes = v2_container(g.offsets(), g.targets(), g.weights());
        assert_eq!(bytes, to_bytes(&g));
    }

    /// Serialises a graph in the legacy v1 layout.
    fn to_bytes_v1(graph: &Graph) -> Vec<u8> {
        let n = graph.num_vertices() as u64;
        v1_container(n, graph.offsets(), graph.targets(), graph.weights())
    }

    /// One sink call, weights as bits so comparisons are exact.
    #[derive(Debug, PartialEq)]
    enum Call {
        Edge(VertexId, VertexId, u64),
        Reserve(usize),
    }

    /// An [`EdgeSink`] that records every call in order.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder(Vec<Call>);

    impl EdgeSink for Recorder {
        fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
            self.0.push(Call::Edge(u, v, w.to_bits()));
        }

        fn reserve_vertices(&mut self, n: usize) {
            self.0.push(Call::Reserve(n));
        }
    }

    /// The per-line parser the buffered one replaced: `read_until` each
    /// line into a buffer, then the general tokenizer. The reference for
    /// edges, weight bits, reservations, line numbers and errors.
    fn reference_parse(text: &[u8], sink: &mut Recorder) -> io::Result<()> {
        let mut reader = Cursor::new(text);
        let mut line = Vec::new();
        let mut lineno = 0usize;
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                return Ok(());
            }
            lineno += 1;
            parse_line(&line, lineno, sink)?;
        }
    }

    /// One generated line. Kinds below 22 are the shapes the fast path
    /// must hand to the general tokenizer (five of them errors); the rest
    /// are plain fast-path lines.
    fn gen_line(kind: usize, a: u32, b: u32, c: u32) -> String {
        let (u, v, w) = (a % 1000, b % 1000, c % 100);
        match kind {
            0 => format!("{u}\t{v}\t{w}\n"),
            1 => format!("{u} {v} {w}\r\n"),
            2 => format!("  {u} {v}\n"),
            3 => format!("# comment {u}\n"),
            4 => format!("% konect {u} {v}\n"),
            5 => format!("#vertices {}\n", u + 1),
            6 => format!("{u:010} {v}\n"),
            7 => format!("{} {v}\n", 4_294_966_000 + a % 1000),
            8 => format!("{u} {v} {}\n", 1_000_000_000_000_000u64 + c as u64),
            9 => format!("{u} {v} {w:016}\n"),
            10 => format!("{u} {v} {w}.{}\n", c % 10),
            11 => format!("{u} {v} {w}e-1\n"),
            12 => format!("{u} {v} {w} trailing tokens\n"),
            13 => "\n".into(),
            14 => "   \n".into(),
            15 => format!("{u}{v}{w}\n"),
            16 => format!("{u}\n"),
            17 => format!("{u} x{v}\n"),
            18 => format!("{u} {v} nan\n"),
            19 => format!("{u} {v} -{w}\n"),
            20 => format!("{u} 4294967296\n"),
            21 => format!("{u} {v} {w:015}  \n"),
            k if k % 3 == 0 => format!("{u} {v}\n"),
            k if k % 3 == 1 => format!("{u} {v} {w}\n"),
            _ => format!("{u}   {v}  {w}  \n"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The buffered fast-path parser makes exactly the sink calls,
        /// and returns exactly the error, of the per-line reference, at
        /// buffer sizes that split lines anywhere.
        #[test]
        fn parser_matches_per_line_reference(
            lines in proptest::collection::vec((0usize..400, 0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 0..40),
            final_newline in proptest::prelude::any::<bool>(),
        ) {
            let mut text: String = lines.iter().map(|&(k, a, b, c)| gen_line(k, a, b, c)).collect();
            if !final_newline && text.ends_with('\n') {
                text.pop();
            }
            let mut expect = Recorder::default();
            let expect_result = reference_parse(text.as_bytes(), &mut expect).map_err(|e| e.to_string());
            for k in [1usize, 7, 64, 8192] {
                let mut got = Recorder::default();
                let reader = BufReader::with_capacity(k, Cursor::new(text.as_bytes()));
                let result = parse_edge_list_into(reader, &mut got).map_err(|e| e.to_string());
                proptest::prop_assert_eq!(&result, &expect_result, "capacity {}", k);
                proptest::prop_assert_eq!(&got, &expect, "capacity {}", k);
            }
        }
    }

    /// One well-formed generated line over ids `0..12`, so duplicate
    /// edges (with inexact fractional weights) land in different chunks.
    fn valid_line(kind: usize, a: u32, b: u32, c: u32) -> String {
        let (u, v) = (a % 12, b % 12);
        let w = format!("{}.{}", c % 7, c % 10);
        match kind {
            0 => format!("{u} {v}\n"),
            1 => format!("{u} {v} {}\n", c % 9),
            2 => format!("{u} {v} {w}\n"),
            3 => format!("{u} {v} {w}\r\n"),
            4 => format!("{u}\t{v}\t{w}\n"),
            5 => format!("{u} {u} {w}\n"),
            6 => format!("# comment {u} {v}\n"),
            7 => format!("% konect {u}\n"),
            8 => "\n".into(),
            9 => "  \r\n".into(),
            _ => format!("#vertices {}\n", 10 + c % 8),
        }
    }

    fn assert_bit_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        let wa: Vec<u64> = a.weights().iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = b.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb);
    }

    /// The serial reference: the streaming parser into one builder, built
    /// at pool width 1.
    fn serial_load(text: &[u8]) -> io::Result<Graph> {
        let mut b = GraphBuilder::new(0);
        parse_edge_list_into(Cursor::new(text), &mut b)?;
        Ok(rayon::with_parallelism(1, || b.build()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The chunked in-memory loader builds the serial parse's graph,
        /// bit for bit, at every pool width and chunk count.
        #[test]
        fn chunked_load_matches_serial_parse(
            lines in proptest::collection::vec((0usize..14, 0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 0..40),
            final_newline in proptest::prelude::any::<bool>(),
        ) {
            let mut text: String = lines.iter().map(|&(k, a, b, c)| valid_line(k, a, b, c)).collect();
            if !final_newline && text.ends_with('\n') {
                text.pop();
            }
            let expect = serial_load(text.as_bytes()).unwrap();
            for width in [1usize, 2, 8] {
                for chunks in [1usize, 2, 7, lines.len() + 1] {
                    let got = rayon::with_parallelism(width, || {
                        parse_text_chunked(text.clone().into_bytes(), chunks)
                    })
                    .unwrap();
                    assert_bit_identical(&got, &expect);
                }
            }
        }
    }

    #[test]
    fn chunked_load_reports_the_first_bad_line_like_the_serial_parser() {
        let good: String = (0..40)
            .map(|i| format!("{} {}\n", i % 9, (i * 7) % 11))
            .collect();
        for (tail, want) in [
            ("3 x4\n5 6\n", "line 41: invalid target 'x4'"),
            ("3 4 -1\n", "line 41: invalid weight '-1'"),
            ("3 4\n7\n8 y\n", "line 42: missing target"),
            ("3 4\n9 4294967296", "line 42: target '4294967296' exceeds"),
        ] {
            let text = format!("{good}{tail}");
            let expect = serial_load(text.as_bytes()).unwrap_err().to_string();
            assert!(expect.contains(want), "{expect}");
            for width in [1usize, 2, 8] {
                for chunks in [1usize, 2, 7, 45] {
                    let err = rayon::with_parallelism(width, || {
                        parse_text_chunked(text.clone().into_bytes(), chunks)
                    })
                    .unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert_eq!(err.to_string(), expect, "width {width}, {chunks} chunks");
                }
            }
        }
    }

    #[test]
    fn huge_ids_need_a_vertices_directive() {
        let err = read_edge_list(Cursor::new("0 999999999\n")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        for want in ["999999999", "1 edges", "#vertices"] {
            assert!(msg.contains(want), "{want}: {msg}");
        }
        // One edge allows 2 + 2^20 vertices: ids up to 2^20 + 1.
        let limit = 2 + UNDECLARED_VERTEX_SLACK;
        let g = read_edge_list(Cursor::new(format!("0 {}\n", limit - 1))).unwrap();
        assert_eq!(g.num_vertices(), limit);
        assert!(read_edge_list(Cursor::new(format!("0 {limit}\n"))).is_err());
        // A directive raises the limit to its count.
        let text = format!("#vertices {}\n0 {limit}\n", limit + 1);
        assert_eq!(
            read_edge_list(Cursor::new(text)).unwrap().num_vertices(),
            limit + 1
        );
        // The streaming parser applies no bound of its own.
        let mut b = GraphBuilder::new(0);
        parse_edge_list_into(Cursor::new(format!("0 {limit}\n")), &mut b).unwrap();
        assert_eq!(b.num_vertices(), limit + 1);
    }

    #[test]
    fn vertices_directive_beyond_u32_ids_is_an_error() {
        for n in [
            "4294967297",
            "6000000000",
            "18446744073709551615",
            "99999999999999999999",
        ] {
            let text = format!("% header\n#vertices {n}\n0 1\n");
            let err = read_edge_list(Cursor::new(text.clone())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.starts_with("line 2: `#vertices"), "{msg}");
            assert!(msg.contains(n), "{msg}");
            let mut b = GraphBuilder::new(0);
            let err = parse_edge_list_into(Cursor::new(text), &mut b).unwrap_err();
            assert_eq!(err.to_string(), msg);
        }
        // 2^32 vertices is the largest declarable count (checked without
        // building: the streaming builder only records it).
        let mut b = GraphBuilder::new(0);
        parse_edge_list_into(Cursor::new("#vertices 4294967296\n"), &mut b).unwrap();
        assert_eq!(b.num_vertices(), 1 << 32);
        // A directive whose count is not a number stays a comment.
        for line in [
            "#vertices\n",
            "#vertices many\n",
            "#vertices -3\n",
            "#vertices 1e9\n",
        ] {
            let g = read_edge_list(Cursor::new(format!("{line}0 1\n"))).unwrap();
            assert_eq!(g.num_vertices(), 2, "{line:?}");
        }
    }

    #[test]
    fn line_cuts_fall_on_line_starts() {
        let text = b"0 1\n22 33\n4 5";
        for chunks in 1..20 {
            let cuts = line_cuts(text, chunks);
            assert_eq!(cuts.len(), chunks + 1);
            assert_eq!((cuts[0], cuts[chunks]), (0, text.len()));
            assert!(cuts.windows(2).all(|p| p[0] <= p[1]));
            assert!(cuts
                .iter()
                .all(|&c| c == 0 || c == text.len() || text[c - 1] == b'\n'));
        }
    }

    #[test]
    fn fast_line_takes_only_its_exact_shape() {
        assert_eq!(fast_line(b"12 34\n"), Some((12, 34, 1.0, 6)));
        assert_eq!(fast_line(b"12  34 7  \n9"), Some((12, 34, 7.0, 11)));
        assert_eq!(
            fast_line(b"999999999 0 999999999999999\n"),
            Some((999_999_999, 0, 999_999_999_999_999.0, 28))
        );
        for line in [
            &b"12 34"[..],
            b"12\t34\n",
            b"12 34\r\n",
            b" 12 34\n",
            b"12 34 0.5\n",
            b"12 34 1 2\n",
            b"1000000000 1\n",
            b"1 2 1000000000000000\n",
            b"12\n",
            b"#vertices 3\n",
        ] {
            assert_eq!(fast_line(line), None, "{}", String::from_utf8_lossy(line));
        }
    }

    #[test]
    fn text_rejects_hostile_weights() {
        for tok in [
            "nan", "NaN", "inf", "-inf", "infinity", "-1", "-0.5", "1e400",
        ] {
            let err = read_edge_list(Cursor::new(format!("0 1\n1 2 {tok}\n"))).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("line 2: invalid weight"), "{msg}");
            assert!(msg.contains(tok), "{msg}");
        }
        let g = read_edge_list(Cursor::new("0 1 0\n1 2 -0\n")).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(0.0));
    }

    /// Decodes a container through both owned loaders, returning the
    /// `from_bytes` error (which `load_binary` must repeat).
    fn owned_load_error(bytes: &[u8], name: &str) -> io::Error {
        let err = from_bytes(bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let p = std::env::temp_dir().join(format!("gala_io_{name}_{}.bin", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        let file_err = load_binary(&p).unwrap_err();
        let _ = std::fs::remove_file(p);
        assert_eq!(file_err.kind(), io::ErrorKind::InvalidData, "{file_err}");
        assert_eq!(file_err.to_string(), err.to_string());
        err
    }

    #[test]
    fn corrupt_v1_containers_fail_with_typed_errors() {
        let cases: [(&str, Vec<u8>, &str); 5] = [
            (
                "missing_reverse",
                v1_container(2, &[0, 1, 1], &[1], &[1.0]),
                "reverse edge",
            ),
            (
                "out_of_range",
                v1_container(2, &[0, 1, 2], &[1, 7], &[1.0, 1.0]),
                "out of range",
            ),
            (
                "unsorted",
                v1_container(3, &[0, 2, 3, 4], &[2, 1, 0, 0], &[1.0; 4]),
                "strictly sorted",
            ),
            (
                "bad_offsets",
                v1_container(2, &[0, 5, 1], &[1], &[1.0]),
                "nondecreasing",
            ),
            (
                "huge_n",
                v1_container(u64::MAX, &[0], &[], &[]),
                "truncated",
            ),
        ];
        for (name, bytes, want) in cases {
            let err = owned_load_error(&bytes, name);
            assert!(err.to_string().contains(want), "{name}: {err}");
        }
    }

    #[test]
    fn corrupt_v2_containers_fail_with_typed_errors() {
        // A checksum-valid container around an asymmetric CSR: the owned
        // loaders audit it, the mapped loader trusts the checksum.
        let bytes = v2_container(&[0, 1, 1], &[1], &[1.0]);
        let err = owned_load_error(&bytes, "v2_asym");
        assert!(
            err.to_string().contains("v2 container: corrupt graph"),
            "{err}"
        );
        assert!(err.to_string().contains("reverse edge"), "{err}");
        // A header claiming an absurd vertex count allocates nothing.
        let mut huge = to_bytes(&sample());
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = owned_load_error(&huge, "v2_huge");
        assert!(err.to_string().contains("layout"), "{err}");
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(Cursor::new(out)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_parses_comments_and_default_weight() {
        let text = "# header\n% konect style\n0 1\n1 2 3.5\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.5));
    }

    #[test]
    fn text_handles_no_trailing_newline_and_crlf() {
        let g = read_edge_list(Cursor::new("0 1 2.0\r\n1 2")).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    fn text_rejects_garbage_with_line_number() {
        let err = read_edge_list(Cursor::new("0 1\n0 x\n")).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = read_edge_list(Cursor::new("0 1 bogus\n")).unwrap_err();
        assert!(err.to_string().contains("invalid weight"), "{err}");
    }

    #[test]
    fn text_rejects_missing_target() {
        let err = read_edge_list(Cursor::new("7\n")).unwrap_err();
        assert!(err.to_string().contains("missing target"), "{err}");
    }

    #[test]
    fn text_rejects_out_of_range_vertex() {
        let err = read_edge_list(Cursor::new("0 4294967296\n")).unwrap_err();
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_v1_still_loads() {
        let g = sample();
        let v1 = to_bytes_v1(&g);
        assert_eq!(from_bytes(&v1).unwrap(), g);
    }

    #[test]
    fn v2_sections_are_aligned() {
        let g = sample();
        let bytes = to_bytes(&g);
        let field = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        assert_eq!(&bytes[..8], MAGIC_V2);
        assert_eq!(field(24) % 8, 0);
        assert_eq!(field(32) % 8, 0);
        assert_eq!(field(40) % 8, 0);
        // Odd arc counts force real padding between targets and weights.
        assert_eq!(g.num_arcs() % 2, 1);
        assert_eq!(field(40), align8(field(32) + g.num_arcs() as u64 * 4));
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(from_bytes(b"NOTAGRAPHXXXXXXXXXXXXXXXXX").is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let bytes = to_bytes(&g);
        let err = owned_load_error(&bytes[..bytes.len() - 4], "truncated");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let mut bytes = to_bytes(&g);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one weight bit
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir();
        let p1 = dir.join("gala_io_test.txt");
        let p2 = dir.join("gala_io_test.bin");
        save_edge_list(&g, &p1).unwrap();
        save_binary(&g, &p2).unwrap();
        assert_eq!(load_edge_list(&p1).unwrap(), g);
        assert_eq!(load_binary(&p2).unwrap(), g);
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn mapped_load_matches_owned_bitwise() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_test.bin");
        save_binary(&g, &p).unwrap();
        let owned = load_binary(&p).unwrap();
        let mapped = load_binary_mapped(&p).unwrap();
        let m = mapped.graph();
        assert_eq!(m.offsets(), owned.offsets());
        assert_eq!(m.targets(), owned.targets());
        let wa: Vec<u64> = m.weights().iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = owned.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb);
        assert_eq!(mapped.source(), p.as_path());
        assert!(mapped.mapped_bytes() > 0);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn mapped_load_rejects_corruption() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_corrupt_test.bin");
        save_binary(&g, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() - 9;
        bytes[mid] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert!(load_binary_mapped(&p).is_err());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn mapped_load_rejects_v1() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_v1_test.bin");
        std::fs::write(&p, to_bytes_v1(&g)).unwrap();
        assert!(load_binary_mapped(&p).is_err());
        let _ = std::fs::remove_file(p);
    }
}
