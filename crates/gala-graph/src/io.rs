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
//! * **In memory** ([`load_edge_list`], [`read_edge_list`]): the input is
//!   read through one reused 8 MiB block buffer, never whole. Each block
//!   ends at its last newline (the partial line after it starts the next
//!   block) and is cut into about four line-aligned pieces per pool
//!   thread, parsed in parallel, each into its own exactly reserved list
//!   of edge records: one 16-byte `(u, v, w)` per undirected edge, a
//!   self-loop at doubled weight. The buffer is freed before the build.
//!   The builder ([`crate::builder`]) writes each record into both
//!   endpoints' rows; its histogram, scatter, row finish and degree sums
//!   all run per row range across the pool. The build peaks at the
//!   records plus the CSR, 16 + 24 = 40 bytes per edge (an arc list would
//!   take 32 + 24 = 56), or 16 + 8 = 24 when every weight is 1.0 and the
//!   graph stores no weight array. The graph is bit-identical to a serial parse into
//!   a [`crate::GraphBuilder`] at any pool width and block size, and a
//!   malformed input reports its first bad line, as the serial parser
//!   does.
//! * **Streaming** ([`parse_edge_list_into`]): bounded memory, in place
//!   in the reader's buffer (only a line split across two refills is
//!   copied), generic over [`EdgeSink`] so it also feeds the out-of-core
//!   [`crate::stream::StreamingBuilder`].
//!
//! **Vertex-id rule.** Both parsers apply one rule, at the end of the
//! input. A graph is sized by its largest id; without a `#vertices N`
//! directive, that count may not exceed `2 × edges + 2^20`: a graph
//! without isolated vertices has `n <= 2m`, and the slack (8 MiB of
//! offsets) admits hand-written files with gaps in their ids. A larger id
//! is an `InvalidData` error naming the id and the edge count, returned
//! before any vertex array is reserved, not a multi-gigabyte allocation;
//! a `#vertices N` directive raises the limit to `N`. Both parsers also
//! reject a directive whose `N` exceeds the `2^32` vertices a `u32` id
//! can name.
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
//!   container in memory; [`load_binary_mapped`] decodes it through the
//!   trusted CSR constructor into a [`MappedGraph`]. The workspace
//!   forbids `unsafe`, so the "mapping" is emulated — sections are
//!   streamed into exactly-sized buffers — but the header layout is
//!   mmap-ready: every section is aligned and its position explicit.
//!
//! **What guards a v2 load.** The checksum guards against damage: a
//! flipped, lost or truncated byte anywhere in the sections, padding
//! included. It does not guard against a container written wrong with a
//! matching checksum, so every load also checks each element as it is
//! decoded: the offsets start at 0, never decrease and end at the arc
//! count; every target is below `n`; every weight is finite. These keep a
//! crafted container from indexing out of bounds or poisoning
//! modularity, and fail with an `InvalidData` error naming the fault (a
//! checksum mismatch is reported first). The owned loaders
//! ([`load_binary`], [`from_bytes`]) then run the full `O(n + m)` audit
//! (sorted rows, symmetric arcs); the mapped load trusts the checksum for
//! those. Weights of 1.0 are counted, not stored, until the first other
//! weight, so a unit-weight container loads into a graph without a
//! weight array; a save streams the ones back, so the container's bytes
//! do not depend on the representation.
//!
//! **Pipelined checksum.** FNV-1a is one serial chain of a multiply per
//! byte, the largest cost of a binary load. Reads and writes therefore
//! move the sections in 1 MiB chunks through two buffers, and each step
//! is a [`rayon::join`]: a pool worker folds chunk k into the hash while
//! the caller reads and decodes chunk k + 1 (on a save: writes chunk k
//! and serialises chunk k + 1). The element checks and the weighted
//! degree of each row, summed as its last weight arrives, run on the
//! caller's side and hide under the hash. The hash covers the same bytes
//! in the same order at every pool width; at width 1 both sides run
//! inline, in turn.
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

use crate::builder::{EdgeRecords, EdgeSink, Record};
use crate::csr::{row_weight, Graph, MappedGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the legacy (packed, unchecksummed) container.
const MAGIC_V1: &[u8; 8] = b"GALAGRF1";

/// Magic bytes of the aligned, checksummed container.
const MAGIC_V2: &[u8; 8] = b"GALAGRF2";

/// v2 header size; also the (8-aligned) position of the offsets section.
const HEADER_BYTES: u64 = 64;

/// Header position of the checksum field (patched after streaming).
const CHECKSUM_POS: u64 = 48;

/// Section streaming granularity: the chunk the pipelined checksum
/// hashes while the next one is read or written. The pipeline takes any
/// size (values straddling a chunk are carried over); a multiple of 8
/// keeps every value whole.
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
/// The vertex-id rule is [`read_edge_list`]'s: at the end of the input, a
/// largest id beyond `2 × edges + 2^20` without a `#vertices` directive
/// that covers it is an `InvalidData` error. The sink has then seen every
/// edge, but a builder has reserved no vertex array yet: it does that
/// when it is built, and the caller does not build it after an error.
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
    let sink = &mut Tally::new(sink);
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
            return sink.counts.vertex_count().map(drop);
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

/// Without a `#vertices N` directive, a text load may name at most
/// `2 × edges + UNDECLARED_VERTEX_SLACK` vertices. A graph without
/// isolated vertices has `n <= 2m`; the slack (8 MiB of offsets) admits
/// hand-written files with gaps in their ids.
pub const UNDECLARED_VERTEX_SLACK: usize = 1 << 20;

/// What the vertex-count bound needs to know of the edges read so far.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    edges: usize,
    /// Largest id + 1.
    ids: usize,
    /// Largest `#vertices` count.
    declared: usize,
}

impl Counts {
    fn merge(&mut self, other: &Counts) {
        self.edges += other.edges;
        self.ids = self.ids.max(other.ids);
        self.declared = self.declared.max(other.declared);
    }

    /// The vertex-id rule of both text parsers: the vertex count of the
    /// edges read, or an `InvalidData` error when their largest id is out
    /// of proportion to their number (see the module docs).
    fn vertex_count(&self) -> io::Result<usize> {
        let Counts {
            edges,
            ids,
            declared,
        } = *self;
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
        Ok(ids.max(declared))
    }
}

/// An [`EdgeSink`] that forwards to `sink` and keeps the [`Counts`].
struct Tally<S> {
    sink: S,
    counts: Counts,
}

impl<S> Tally<S> {
    fn new(sink: S) -> Self {
        Self {
            sink,
            counts: Counts::default(),
        }
    }
}

impl<S: EdgeSink> EdgeSink for Tally<S> {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        self.counts.edges += 1;
        self.counts.ids = self.counts.ids.max(u.max(v) as usize + 1);
        self.sink.add_edge(u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        self.counts.declared = self.counts.declared.max(n);
        self.sink.reserve_vertices(n);
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

/// Bytes of text the in-memory loader reads, and then parses across the
/// pool, at a time. Below 8 MiB, the detect that follows a load took more
/// page faults on the benchmark inputs: glibc's mmap threshold grows to
/// the largest block freed, and smaller blocks leave it below the buffers
/// detect allocates.
const TEXT_BLOCK_BYTES: usize = 8 << 20;

/// Chunks per pool thread of each block: more than one so uneven chunks
/// balance.
const TEXT_CHUNKS_PER_THREAD: usize = 4;

/// The in-memory text loader behind [`read_edge_list`]: the input is read
/// through one reused buffer of `block_bytes`, each block parsed in
/// `chunks` line-aligned pieces across the pool into edge records, and the
/// records built by [`crate::builder::build_from_edges`].
///
/// A block ends at its last newline; the partial line after it moves to
/// the front of the buffer and the next read fills in behind it, and a
/// line longer than the whole buffer doubles it. Within a block, a first
/// pool pass counts each piece's newlines, which gives every piece its
/// first line number and its exact record reservation (one per line, so no
/// list reallocates). A second pass parses each piece into its own list
/// with [`parse_lines`]. The lists go to the build in stream order and are
/// never concatenated, so the graph is bit-identical to the serial parse
/// at any block size and chunk count. A malformed line stops its piece;
/// the earliest piece's error is returned, which is the error of the first
/// bad line, with its global line number. The buffer is freed before the
/// build starts.
fn parse_text_blocks<R: Read>(
    mut reader: R,
    block_bytes: usize,
    chunks: usize,
) -> io::Result<Graph> {
    let mut block = vec![0u8; block_bytes.max(1)];
    let (mut filled, mut lineno) = (0usize, 0usize);
    let mut counts = Counts::default();
    let mut records = Vec::new();
    loop {
        let eof = fill_block(&mut reader, &mut block, &mut filled)?;
        let cut = if eof {
            filled
        } else if let Some(nl) = block.iter().rposition(|&b| b == b'\n') {
            nl + 1
        } else {
            block.resize(2 * block.len(), 0);
            continue;
        };
        parse_block(
            &block[..cut],
            chunks,
            &mut lineno,
            &mut counts,
            &mut records,
        )?;
        block.copy_within(cut..filled, 0);
        filled -= cut;
        if eof {
            break;
        }
    }
    drop(block);
    let n = counts.vertex_count()?;
    crate::builder::build_from_edges(n, records).map_err(|e| {
        bad_data(if counts.declared == n {
            format!("`#vertices {n}`: cannot reserve the vertex arrays of a {n}-vertex graph ({e})")
        } else {
            format!("cannot reserve the vertex arrays of a {n}-vertex graph ({e})")
        })
    })
}

/// Reads into `block[*filled..]` until it is full or the input ends;
/// returns whether the input ended.
fn fill_block<R: Read>(reader: &mut R, block: &mut [u8], filled: &mut usize) -> io::Result<bool> {
    while *filled < block.len() {
        match reader.read(&mut block[*filled..]) {
            Ok(0) => return Ok(true),
            Ok(read) => *filled += read,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Counts the `\n` bytes of `text`, in runs of 255 whose byte-wide sums
/// cannot overflow, so the compare-and-add vectorises: about four times
/// faster than counting one byte at a time.
fn count_newlines(text: &[u8]) -> usize {
    text.chunks(255)
        .map(|run| run.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum()
}

/// Parses one block of whole lines (the last may lack its newline only at
/// the end of the input) across the pool, numbering them on from
/// `*lineno`: each piece's edge records are appended to `records` in
/// order, and its counts merged into `counts`.
fn parse_block(
    text: &[u8],
    chunks: usize,
    lineno: &mut usize,
    counts: &mut Counts,
    records: &mut Vec<Vec<Record>>,
) -> io::Result<()> {
    let cuts = line_cuts(text, chunks.max(1));
    let pieces: Vec<&[u8]> = cuts.windows(2).map(|c| &text[c[0]..c[1]]).collect();
    let newlines = rayon::par_map_tasks(pieces.clone(), count_newlines);
    let mut tasks = Vec::with_capacity(pieces.len());
    for (piece, &nl) in pieces.into_iter().zip(&newlines) {
        tasks.push((piece, *lineno, nl));
        *lineno += nl;
    }
    let parsed = rayon::par_map_tasks(tasks, |(piece, mut lineno, newlines)| {
        // Only the input's last piece can end in a line without a newline.
        let lines = newlines + usize::from(piece.last().is_some_and(|&b| b != b'\n'));
        let mut sink = Tally::new(EdgeRecords(Vec::with_capacity(lines)));
        let done = parse_lines(piece, &mut lineno, &mut sink)?;
        if done < piece.len() {
            parse_line(&piece[done..], lineno + 1, &mut sink)?;
        }
        Ok::<_, io::Error>(sink)
    });
    for part in parsed {
        let part = part?;
        counts.merge(&part.counts);
        if !part.sink.0.is_empty() {
            records.push(part.sink.0);
        }
    }
    Ok(())
}

/// Parses a whole edge-list from a reader into a [`Graph`], in memory and
/// in parallel (see the module docs). The format is that of
/// [`parse_edge_list_into`], and so is the vertex-id rule: without a
/// `#vertices N` directive, the vertex count (largest id + 1) may not
/// exceed `2 × edges + 2^20`; a larger id is an `InvalidData` error rather
/// than a multi-gigabyte allocation. A directive raises the limit to its
/// `N`. The graph is bit-identical to a serial parse into a
/// [`crate::GraphBuilder`] at any pool width. Use [`parse_edge_list_into`]
/// with a [`crate::stream::StreamingBuilder`] for inputs that must not be
/// held in memory.
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<Graph> {
    parse_text_blocks(
        reader,
        TEXT_BLOCK_BYTES,
        TEXT_CHUNKS_PER_THREAD * rayon::current_parallelism(),
    )
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

/// Where the offsets, targets, padding and weights sections end, counted
/// from the first section byte: the layout of the stream the checksum
/// covers. Callers have bounded `n` and `arcs`, so nothing overflows.
fn section_ends(n: usize, arcs: usize) -> [usize; 4] {
    let (targets_pos, weights_pos, total) = v2_layout(n as u64, arcs as u64);
    [
        (targets_pos - HEADER_BYTES) as usize,
        (targets_pos - HEADER_BYTES) as usize + arcs * 4,
        (weights_pos - HEADER_BYTES) as usize,
        (total - HEADER_BYTES) as usize,
    ]
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

/// Appends bytes `lo..hi` of the packed little-endian encoding of `items`
/// to `out`. Whole elements are encoded in one run; an element cut by
/// either end contributes only its bytes inside the range.
fn encode_le<T, const N: usize>(
    items: &[T],
    (lo, hi): (usize, usize),
    out: &mut Vec<u8>,
    to_le: fn(&T) -> [u8; N],
) {
    let mut pos = lo;
    while pos < hi {
        let (i, skip) = (pos / N, pos % N);
        if skip == 0 && hi - pos >= N {
            let whole = (hi - pos) / N;
            for item in &items[i..i + whole] {
                out.extend_from_slice(&to_le(item));
            }
            pos += whole * N;
        } else {
            let take = (N - skip).min(hi - pos);
            out.extend_from_slice(&to_le(&items[i])[skip..skip + take]);
            pos += take;
        }
    }
}

/// Appends bytes `range` of `graph`'s v2 section stream (offsets, targets,
/// zero padding, weights; laid out by [`section_ends`]) to `out`.
fn encode_sections(graph: &Graph, ends: &[usize; 4], range: (usize, usize), out: &mut Vec<u8>) {
    let mut start = 0;
    for (section, &end) in ends.iter().enumerate() {
        let (lo, hi) = (range.0.max(start), range.1.min(end));
        if lo < hi {
            let local = (lo - start, hi - start);
            match section {
                0 => encode_le(graph.offsets(), local, out, |&o| (o as u64).to_le_bytes()),
                1 => encode_le(graph.targets(), local, out, |t| t.to_le_bytes()),
                2 => out.resize(out.len() + hi - lo, 0),
                _ => encode_weights(graph, local, out),
            }
        }
        start = end;
    }
}

/// Appends bytes `lo..hi` of the weights section to `out`, row by row
/// from the row that holds byte `lo`: a unit-weight graph streams its
/// rows' ones, so the container is the same either way.
fn encode_weights(graph: &Graph, (lo, hi): (usize, usize), out: &mut Vec<u8>) {
    let offsets = graph.offsets();
    let mut v = offsets.partition_point(|&o| o * 8 <= lo) - 1;
    while offsets[v] * 8 < hi {
        let start = offsets[v] * 8;
        let (a, b) = (lo.max(start), hi.min(offsets[v + 1] * 8));
        if a < b {
            let row = graph.neighbor_weights(v as VertexId);
            encode_le(row, (a - start, b - start), out, |w| w.to_le_bytes());
        }
        v += 1;
    }
}

/// Writes the three CSR sections (with alignment padding) to `w` in
/// `chunk`-byte pieces, returning the FNV-1a checksum over everything
/// written. Each step is one [`rayon::join`]: the caller writes chunk k
/// and serialises chunk k + 1 into the second buffer while a pool worker
/// folds chunk k into the hash. At pool width 1 both run inline, in turn.
fn write_v2_sections<W: Write + Send>(graph: &Graph, w: &mut W, chunk: usize) -> io::Result<u64> {
    let ends = section_ends(graph.num_vertices(), graph.num_arcs());
    let total = ends[3];
    let chunk = chunk.clamp(1, total);
    let mut fnv = Fnv1a::new();
    let (mut cur, mut next) = (Vec::with_capacity(chunk), Vec::with_capacity(chunk));
    encode_sections(graph, &ends, (0, chunk), &mut cur);
    let mut pos = chunk;
    while !cur.is_empty() {
        let end = (pos + chunk).min(total);
        let (written, ()) = rayon::join(
            || {
                w.write_all(&cur)?;
                next.clear();
                encode_sections(graph, &ends, (pos, end), &mut next);
                Ok::<_, io::Error>(())
            },
            || fnv.update(&cur),
        );
        written?;
        pos = end;
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(fnv.finish())
}

/// Serialises the graph into the v2 binary container.
pub fn to_bytes(graph: &Graph) -> Vec<u8> {
    let (_, _, total) = v2_layout(graph.num_vertices() as u64, graph.num_arcs() as u64);
    let mut buf = Vec::with_capacity(total as usize);
    buf.extend_from_slice(&v2_header(graph, 0));
    let checksum =
        write_v2_sections(graph, &mut buf, IO_CHUNK_BYTES).expect("Vec write is infallible");
    buf[CHECKSUM_POS as usize..][..8].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Saves the binary container (v2) to a file, streaming the sections —
/// peak memory is two IO chunks, not the whole container. The checksum is
/// patched into the header after the sections are written.
pub fn save_binary<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(&v2_header(graph, 0))?;
    let checksum = write_v2_sections(graph, &mut f, IO_CHUNK_BYTES)?;
    f.seek(SeekFrom::Start(CHECKSUM_POS))?;
    f.write_all(&checksum.to_le_bytes())?;
    f.flush()
}

/// Decoded v2 CSR arrays (`weights` empty when every weight is 1.0),
/// their weighted degrees, and the number of checksummed bytes consumed.
struct V2Sections {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    degree_w: Vec<f64>,
    section_bytes: u64,
}

impl V2Sections {
    /// The owned load: the full structural and symmetry audit.
    fn audited(self) -> io::Result<Graph> {
        Graph::try_from_csr_built(self.offsets, self.targets, self.weights, self.degree_w)
            .map_err(|e| bad_data(format!("v2 container: corrupt graph: {e}")))
    }
}

/// Appends the packed little-endian `N`-byte values of `part` to `out`.
/// A value cut by the end of one part waits in `carry` for the rest of its
/// bytes, which start the next part of the same section.
fn decode_le_into<T, const N: usize>(
    carry: &mut Vec<u8>,
    mut part: &[u8],
    out: &mut Vec<T>,
    from_le: fn([u8; N]) -> T,
) {
    if !carry.is_empty() {
        let take = (N - carry.len()).min(part.len());
        carry.extend_from_slice(&part[..take]);
        part = &part[take..];
        if carry.len() < N {
            return;
        }
        out.push(from_le(carry[..].try_into().expect("a full carry")));
        carry.clear();
    }
    let whole = part.chunks_exact(N);
    carry.extend_from_slice(whole.remainder());
    out.extend(whole.map(|c| from_le(c.try_into().expect("chunks_exact yields N bytes"))));
}

/// Decodes the v2 section stream into exactly sized CSR arrays as its
/// bytes arrive, in pieces of any length, and checks every element on the
/// way: offsets start at 0, never decrease and end at `arcs`; every target
/// is below `n`; every weight is finite. Once the offsets are known to be
/// sound, each row's weighted degree is summed with [`row_weight`] as soon
/// as its last weight arrives. The first fault is kept for
/// [`Self::finish`], which reports a checksum mismatch ahead of it.
///
/// Weights of 1.0 are counted, not stored: the `arcs`-long weight array
/// is allocated at the first other weight and back-filled with the ones
/// before it, so a unit-weight container loads into a [`Graph`] without
/// one.
struct SectionDecoder {
    n: usize,
    arcs: usize,
    ends: [usize; 4],
    /// Stream bytes decoded so far.
    pos: usize,
    /// The leading bytes of a value cut by the end of the last piece.
    carry: Vec<u8>,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    /// Empty while every weight decoded so far is 1.0.
    weights: Vec<f64>,
    /// Weights decoded so far.
    weights_seen: usize,
    /// The last piece's weights, while `weights` is empty.
    fresh: Vec<f64>,
    /// Ones as long as the longest row: the rows' weights while
    /// `weights` is empty, for their degree sums.
    ones: Vec<f64>,
    degree_w: Vec<f64>,
    /// Whether the offsets passed their check (rows can be summed).
    rows_sound: bool,
    fault: Option<String>,
}

impl SectionDecoder {
    fn new(n: usize, arcs: usize) -> Self {
        Self {
            n,
            arcs,
            ends: section_ends(n, arcs),
            pos: 0,
            carry: Vec::with_capacity(8),
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(arcs),
            weights: Vec::new(),
            weights_seen: 0,
            fresh: Vec::new(),
            ones: Vec::new(),
            degree_w: Vec::with_capacity(n),
            rows_sound: false,
            fault: None,
        }
    }

    /// Decodes the next `bytes` of the stream (never past its end).
    fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let section = self
                .ends
                .iter()
                .position(|&end| self.pos < end)
                .expect("the stream is no longer than its layout");
            let (part, rest) = bytes.split_at(bytes.len().min(self.ends[section] - self.pos));
            match section {
                0 => decode_le_into(&mut self.carry, part, &mut self.offsets, |b| {
                    u64::from_le_bytes(b) as usize
                }),
                1 => {
                    let from = self.targets.len();
                    decode_le_into(&mut self.carry, part, &mut self.targets, u32::from_le_bytes);
                    self.check_targets(from);
                }
                2 => {}
                _ => {
                    self.decode_weights(part);
                    self.sum_rows();
                }
            }
            self.pos += part.len();
            if section == 0 && self.pos == self.ends[0] {
                self.check_offsets();
                self.sum_rows();
            }
            bytes = rest;
        }
    }

    fn note(&mut self, fault: impl FnOnce() -> String) {
        if self.fault.is_none() {
            self.fault = Some(fault());
        }
    }

    fn check_offsets(&mut self) {
        let o = &self.offsets;
        self.rows_sound = o.first() == Some(&0)
            && o.last() == Some(&self.arcs)
            && o.windows(2).all(|p| p[0] <= p[1]);
        if self.rows_sound {
            let longest = o.windows(2).map(|p| p[1] - p[0]).max().unwrap_or(0);
            self.ones = vec![1.0; longest];
        } else {
            self.note(|| "v2 container: corrupt offsets".into());
        }
    }

    fn check_targets(&mut self, from: usize) {
        let n = self.n;
        if let Some(&t) = self.targets[from..].iter().find(|&&t| t as usize >= n) {
            self.note(|| format!("v2 container: corrupt graph: target {t} out of range (n = {n})"));
        }
    }

    /// Decodes and checks the weights in `part`: into `weights` once it
    /// is allocated, otherwise into `fresh`, where the first weight other
    /// than 1.0 allocates it.
    fn decode_weights(&mut self, part: &[u8]) {
        let from = self.weights_seen;
        let unit = self.weights.is_empty();
        let out = if unit {
            self.fresh.clear();
            &mut self.fresh
        } else {
            &mut self.weights
        };
        decode_le_into(&mut self.carry, part, out, f64::from_le_bytes);
        let fresh = if unit {
            &self.fresh[..]
        } else {
            &self.weights[from..]
        };
        let (len, bad) = (fresh.len(), fresh.iter().position(|w| !w.is_finite()));
        if let Some(i) = bad {
            let (arc, w) = (from + i, fresh[i]);
            self.note(|| {
                format!("v2 container: corrupt graph: weight {w} of arc {arc} is not finite")
            });
        }
        self.weights_seen += len;
        if let Some(i) = unit
            .then(|| self.fresh.iter().position(|&w| w != 1.0))
            .flatten()
        {
            self.weights.reserve_exact(self.arcs);
            self.weights.resize(from + i, 1.0);
            self.weights.extend_from_slice(&self.fresh[i..]);
        }
    }

    /// Sums the weighted degree of every row whose weights have all arrived.
    fn sum_rows(&mut self) {
        if !self.rows_sound {
            return;
        }
        let mut v = self.degree_w.len();
        while v < self.n && self.offsets[v + 1] <= self.weights_seen {
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            let row = if self.weights.is_empty() {
                &self.ones[..hi - lo]
            } else {
                &self.weights[lo..hi]
            };
            self.degree_w.push(row_weight(row));
            v += 1;
        }
    }

    /// The decoded sections, or the error: a checksum mismatch first, then
    /// the first fault the checks found.
    fn finish(self, checksum_matches: bool) -> io::Result<V2Sections> {
        if !checksum_matches {
            return Err(bad_data("v2 container: checksum mismatch".into()));
        }
        if let Some(fault) = self.fault {
            return Err(bad_data(fault));
        }
        debug_assert_eq!(self.degree_w.len(), self.n);
        Ok(V2Sections {
            offsets: self.offsets,
            targets: self.targets,
            weights: self.weights,
            degree_w: self.degree_w,
            section_bytes: self.ends[3] as u64,
        })
    }
}

/// Reads and checksum-verifies the v2 sections that follow an
/// already-consumed header, from a container of `container_len` bytes.
/// The header's sizes are checked against `container_len` before anything
/// is allocated; then each section is decoded straight into its exactly
/// sized output vector (1x peak, no whole-file staging buffer).
///
/// The stream is read in `chunk`-byte pieces through two buffers, and
/// each step is one [`rayon::join`]: the caller reads chunk k + 1 and
/// decodes it ([`SectionDecoder`]: range and finiteness checks, row
/// degrees) while a pool worker folds chunk k into the FNV-1a hash, in
/// file order, padding included. The serial hash sets the pace; the rest
/// of the load hides under it. At pool width 1 both run inline, in turn.
/// A read error ends the load once the step's hash is done, so no task
/// outlives the call.
fn read_v2_sections<R: Read + Send>(
    header: &[u8; HEADER_BYTES as usize],
    r: &mut R,
    container_len: u64,
    chunk: usize,
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
    let mut dec = SectionDecoder::new(n as usize, arcs as usize);
    let stream = dec.ends[3];
    let chunk = chunk.clamp(1, stream);
    let mut fnv = Fnv1a::new();
    let (mut cur, mut next) = (vec![0u8; chunk], vec![0u8; chunk]);
    let read_and_decode = |r: &mut R, buf: &mut [u8], dec: &mut SectionDecoder| {
        r.read_exact(buf)?;
        dec.feed(buf);
        Ok::<_, io::Error>(())
    };
    read_and_decode(r, &mut cur, &mut dec)?;
    let (mut pos, mut len) = (chunk, chunk);
    while len > 0 {
        let take = chunk.min(stream - pos);
        let (read, ()) = rayon::join(
            || read_and_decode(r, &mut next[..take], &mut dec),
            || fnv.update(&cur[..len]),
        );
        read?;
        (pos, len) = (pos + take, take);
        std::mem::swap(&mut cur, &mut next);
    }
    dec.finish(fnv.finish() == want_checksum)
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
    Graph::try_from_csr(offsets, targets, weights)
        .map_err(|e| bad_data(format!("v1 container: corrupt graph: {e}")))
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
        return read_v2_sections(&header, &mut rest, data.len() as u64, IO_CHUNK_BYTES)?.audited();
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a binary container (v1 or v2) into a fully-validated owned
/// [`Graph`]. Corrupt or truncated containers fail with `InvalidData`.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let mut file = File::open(path)?;
    let container_len = file.metadata()?.len();
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic == MAGIC_V1 {
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        return read_v1_body(&buf);
    }
    if &magic == MAGIC_V2 {
        let mut header = [0u8; HEADER_BYTES as usize];
        header[..8].copy_from_slice(&magic);
        file.read_exact(&mut header[8..])?;
        return read_v2_sections(&header, &mut file, container_len, IO_CHUNK_BYTES)?.audited();
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a v2 container read-only through the emulated mapping path:
/// sections stream into exactly-sized buffers, and the header checksum
/// plus the per-element checks of the load (offsets sound, targets below
/// `n`, weights finite) replace the structural audit: the arrays are not
/// checked for sorted rows or symmetry. The weighted degrees are summed
/// while the file loads, and the graph is built through the trusted CSR
/// constructor. Errors on v1 containers (re-save with [`save_binary`] to
/// upgrade).
pub fn load_binary_mapped<P: AsRef<Path>>(path: P) -> io::Result<MappedGraph> {
    let path = path.as_ref();
    let mut file = File::open(path)?;
    let container_len = file.metadata()?.len();
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut header)?;
    if &header[..8] == MAGIC_V1 {
        return Err(bad_data(
            "mapped load requires the v2 container; re-save with save_binary".into(),
        ));
    }
    if &header[..8] != MAGIC_V2 {
        return Err(bad_data("bad magic".into()));
    }
    let s = read_v2_sections(&header, &mut file, container_len, IO_CHUNK_BYTES)?;
    let graph = Graph::from_csr_built(s.offsets, s.targets, s.weights, s.degree_w);
    Ok(MappedGraph::new(graph, path.to_path_buf(), s.section_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingBuilder;
    use crate::GraphBuilder;
    use std::io::{BufReader, Cursor};

    /// The whole text as one block, parsed in `chunks` pieces.
    fn parse_text_chunked(text: Vec<u8>, chunks: usize) -> io::Result<Graph> {
        parse_text_blocks(text.as_slice(), text.len(), chunks)
    }

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        b.add_edge(3, 3, 1.0);
        b.build()
    }

    /// Every arc's weight, in CSR order.
    fn arc_weights(g: &Graph) -> Vec<f64> {
        g.arc_weights().collect()
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
        let bytes = v2_container(g.offsets(), g.targets(), &arc_weights(&g));
        assert_eq!(bytes, to_bytes(&g));
    }

    /// Serialises a graph in the legacy v1 layout.
    fn to_bytes_v1(graph: &Graph) -> Vec<u8> {
        let n = graph.num_vertices() as u64;
        v1_container(n, graph.offsets(), graph.targets(), &arc_weights(graph))
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
    /// line into a buffer, then the general tokenizer, and the vertex-id
    /// rule at the end. The reference for edges, weight bits,
    /// reservations, line numbers and errors.
    fn reference_parse(text: &[u8], sink: &mut Recorder) -> io::Result<()> {
        let mut reader = Cursor::new(text);
        let mut line = Vec::new();
        let mut lineno = 0usize;
        let sink = &mut Tally::new(sink);
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                return sink.counts.vertex_count().map(drop);
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
        let wa: Vec<u64> = a.arc_weights().map(f64::to_bits).collect();
        let wb: Vec<u64> = b.arc_weights().map(f64::to_bits).collect();
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

    /// One edge line over ids `0..120` (so duplicates in both directions
    /// and self-loops are common and rows arrive unsorted) in one of four
    /// shapes, with the weight [`GraphBuilder::add_edge`] must see.
    fn edge_line(u: u32, v: u32, c: u32, shape: usize) -> (String, f64) {
        let frac = format!("{}.{}", c / 10, c % 10);
        let w: f64 = frac.parse().unwrap();
        match shape {
            0 => (format!("{u} {v}\n"), 1.0),
            1 => (format!("{u} {v} {c}\n"), c as f64),
            2 => (format!("{u} {v} {frac}\r\n"), w),
            _ => (format!("{u}\t{v}\t{frac}\n"), w),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The block loader builds `GraphBuilder::build`'s graph, bit for
        /// bit, through `read_edge_list` at pool widths 1, 2 and 8, and at
        /// block sizes down to a few bytes, where most lines straddle two
        /// blocks. The input has a few thousand edges with duplicates,
        /// self-loops, unsorted rows, fractional weights, CRLF line ends
        /// and a `#vertices` line somewhere in the middle.
        #[test]
        fn block_load_matches_graph_builder(
            edges in proptest::collection::vec((0u32..120, 0u32..120, 0u32..1000, 0usize..4), 1000..3000),
            declared in 0usize..200,
            at in 0usize..3000,
        ) {
            let mut text = String::new();
            let mut builder = GraphBuilder::new(0);
            for (i, &(u, v, c, shape)) in edges.iter().enumerate() {
                if i == at % edges.len() {
                    text.push_str(&format!("#vertices {declared}\n"));
                    builder.reserve_vertices(declared);
                }
                let (line, w) = edge_line(u % 120, v % 120, c, shape);
                text.push_str(&line);
                builder.add_edge(u % 120, v % 120, w);
            }
            let expect = rayon::with_parallelism(1, || builder.build());
            for width in [1usize, 2, 8] {
                let got = rayon::with_parallelism(width, || {
                    read_edge_list(Cursor::new(text.as_bytes())).unwrap()
                });
                assert_bit_identical(&got, &expect);
            }
            for block in [3usize, 29, 1000] {
                let got = rayon::with_parallelism(2, || {
                    parse_text_blocks(text.as_bytes(), block, 8).unwrap()
                });
                assert_bit_identical(&got, &expect);
            }
        }
    }

    #[test]
    fn block_load_reports_a_bad_line_that_starts_a_block() {
        let good: String = (0..40)
            .map(|i| format!("{} {}\n", i % 9, (i * 7) % 11))
            .collect();
        for (bad, want) in [
            ("3 x4\n5 6\n", "line 41: invalid target 'x4'"),
            ("7\n8 9\n", "line 41: missing target"),
            ("3 4 -1", "line 41: invalid weight '-1'"),
        ] {
            let text = format!("{good}{bad}");
            let expect = serial_load(text.as_bytes()).unwrap_err().to_string();
            assert!(expect.contains(want), "{expect}");
            // The first block is exactly the good lines.
            for width in [1usize, 2, 8] {
                let err = rayon::with_parallelism(width, || {
                    parse_text_blocks(text.as_bytes(), good.len(), 4 * width)
                })
                .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(err.to_string(), expect, "width {width}");
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
        // The streaming parser applies the same rule.
        let mut b = GraphBuilder::new(0);
        parse_edge_list_into(Cursor::new(format!("0 {}\n", limit - 1)), &mut b).unwrap();
        assert_eq!(b.num_vertices(), limit);
        let err = parse_edge_list_into(Cursor::new(format!("0 {limit}\n")), &mut b).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn streaming_parse_rejects_a_huge_id_before_any_vertex_array() {
        // Into the out-of-core builder, which reserves its vertex arrays
        // only when it is finished: the parse fails first.
        let mut sink = StreamingBuilder::new(0);
        let err = parse_edge_list_into(Cursor::new("0 4000000000\n"), &mut sink).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        for want in ["id 4000000000", "1 edges", "#vertices"] {
            assert!(msg.contains(want), "{want}: {msg}");
        }
        assert_eq!(
            err.to_string(),
            read_edge_list(Cursor::new("0 4000000000\n"))
                .unwrap_err()
                .to_string()
        );
        // A directive that covers the id admits it.
        let mut sink = StreamingBuilder::new(0);
        parse_edge_list_into(
            Cursor::new("#vertices 4000000001\n0 4000000000\n"),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.num_vertices(), 4_000_000_001);
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

    /// Every vertex's weighted degree, as bits.
    fn degree_bits(g: &Graph) -> Vec<u64> {
        g.vertices().map(|v| g.degree_w(v).to_bits()).collect()
    }

    /// Splits a v2 container into its header and section stream.
    fn split_header(bytes: &[u8]) -> ([u8; HEADER_BYTES as usize], &[u8]) {
        let (header, sections) = bytes.split_at(HEADER_BYTES as usize);
        (header.try_into().unwrap(), sections)
    }

    /// Runs the pipelined reader over `bytes` in `chunk`-byte pieces.
    fn read_chunked(bytes: &[u8], chunk: usize) -> io::Result<V2Sections> {
        let (header, mut sections) = split_header(bytes);
        read_v2_sections(&header, &mut sections, bytes.len() as u64, chunk)
    }

    /// Chunk sizes that cut elements, sections and the padding anywhere,
    /// plus the production size.
    const TEST_CHUNKS: [usize; 6] = [1, 3, 5, 8, 13, IO_CHUNK_BYTES];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The pipelined writer produces the serial reference's bytes and
        /// checksum, and the pipelined reader its arrays and degree bits,
        /// at pool widths 1, 2 and 8 and at chunk sizes of a few bytes,
        /// where every section boundary and the padding fall inside a
        /// chunk or across two.
        #[test]
        fn pipelined_container_io_matches_serial_reference(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u32..1000), 0..120),
        ) {
            let mut b = GraphBuilder::new(n);
            for &(u, v, c) in &edges {
                b.add_edge(u % n as u32, v % n as u32, c as f64 / 7.0);
            }
            let g = rayon::with_parallelism(1, || b.build());
            // Byte by byte through one serial Fnv1a.
            let expect = v2_container(g.offsets(), g.targets(), &arc_weights(&g));
            let checksum = u64_at(&expect, CHECKSUM_POS as usize);
            for width in [1usize, 2, 8] {
                for chunk in TEST_CHUNKS {
                    let (bytes, got) = rayon::with_parallelism(width, || {
                        let mut bytes = v2_header(&g, 0).to_vec();
                        let got = write_v2_sections(&g, &mut bytes, chunk).unwrap();
                        (bytes, got)
                    });
                    proptest::prop_assert_eq!(got, checksum, "width {}, chunk {}", width, chunk);
                    proptest::prop_assert_eq!(&bytes[HEADER_BYTES as usize..], &expect[HEADER_BYTES as usize..]);
                    let s = rayon::with_parallelism(width, || read_chunked(&expect, chunk)).unwrap();
                    proptest::prop_assert_eq!(s.section_bytes, expect.len() as u64 - HEADER_BYTES);
                    let loaded = Graph::from_csr_built(s.offsets, s.targets, s.weights, s.degree_w);
                    assert_bit_identical(&loaded, &g);
                    proptest::prop_assert_eq!(degree_bits(&loaded), degree_bits(&g));
                }
            }
        }
    }

    #[test]
    fn a_flipped_byte_anywhere_is_a_checksum_mismatch() {
        let bytes = to_bytes(&sample());
        let (targets_pos, weights_pos) = (u64_at(&bytes, 32) as usize, u64_at(&bytes, 40) as usize);
        assert!(
            weights_pos > targets_pos + sample().num_arcs() * 4,
            "no padding"
        );
        let positions = [
            ("offsets", HEADER_BYTES as usize + 3),
            ("last offset", targets_pos - 1),
            ("targets", targets_pos + 1),
            ("padding", weights_pos - 1),
            ("weights", weights_pos + 6),
            ("last weight", bytes.len() - 1),
            // Either side of the boundary between the 5th and 6th 8-byte chunks.
            ("chunk end", HEADER_BYTES as usize + 5 * 8 - 1),
            ("chunk start", HEADER_BYTES as usize + 5 * 8),
        ];
        for (what, at) in positions {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            for width in [1usize, 2, 8] {
                for chunk in TEST_CHUNKS {
                    let err = rayon::with_parallelism(width, || read_chunked(&bad, chunk))
                        .err()
                        .unwrap_or_else(|| panic!("{what}: width {width}, chunk {chunk}: loaded"));
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert_eq!(
                        err.to_string(),
                        "v2 container: checksum mismatch",
                        "{what}: width {width}, chunk {chunk}"
                    );
                }
            }
        }
    }

    /// A reader that yields `data` and then fails, as a disk might.
    struct FailingReader<'a> {
        data: &'a [u8],
    }

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                return Err(io::Error::other("device went away"));
            }
            self.data.read(buf)
        }
    }

    #[test]
    fn truncation_and_read_errors_end_the_load() {
        let bytes = to_bytes(&sample());
        let (header, sections) = split_header(&bytes);
        for width in [1usize, 2, 8] {
            for chunk in TEST_CHUNKS {
                for keep in [0, 7, 9, sections.len() / 2, sections.len() - 1] {
                    let len = bytes.len() as u64;
                    let (eof, failed) = rayon::with_parallelism(width, || {
                        // The header's sizes fit `len`, so only the reads
                        // can find the end.
                        let eof = read_v2_sections(&header, &mut &sections[..keep], len, chunk);
                        let mut failing = FailingReader {
                            data: &sections[..keep],
                        };
                        let failed = read_v2_sections(&header, &mut failing, len, chunk);
                        (eof.err().unwrap(), failed.err().unwrap())
                    });
                    assert_eq!(
                        eof.kind(),
                        io::ErrorKind::UnexpectedEof,
                        "width {width}, chunk {chunk}"
                    );
                    assert_eq!(failed.to_string(), "device went away");
                }
            }
        }
    }

    #[test]
    fn crafted_containers_fail_on_both_load_paths() {
        let g = sample();
        let mut out_of_range = g.targets().to_vec();
        out_of_range[1] = 1000;
        let mut nan = arc_weights(&g);
        nan[2] = f64::NAN;
        let mut inf = arc_weights(&g);
        inf[0] = f64::INFINITY;
        let cases = [
            (
                "range",
                v2_container(g.offsets(), &out_of_range, &arc_weights(&g)),
                "v2 container: corrupt graph: target 1000 out of range (n = 4)",
            ),
            (
                "nan",
                v2_container(g.offsets(), g.targets(), &nan),
                "v2 container: corrupt graph: weight NaN of arc 2 is not finite",
            ),
            (
                "inf",
                v2_container(g.offsets(), g.targets(), &inf),
                "v2 container: corrupt graph: weight inf of arc 0 is not finite",
            ),
            (
                "offsets",
                v2_container(&[0, 2, 1, 3], &[1, 0, 2], &[1.0; 3]),
                "v2 container: corrupt offsets",
            ),
            // Non-finite weights after a run of ones, which the load
            // counts without storing.
            (
                "nan after ones",
                v2_container(
                    &PATH_OFFSETS,
                    &PATH_TARGETS,
                    &[1.0, 1.0, 1.0, f64::NAN, 1.0, 1.0],
                ),
                "v2 container: corrupt graph: weight NaN of arc 3 is not finite",
            ),
            (
                "inf last",
                v2_container(
                    &PATH_OFFSETS,
                    &PATH_TARGETS,
                    &[1.0, 1.0, 1.0, 1.0, 1.0, f64::INFINITY],
                ),
                "v2 container: corrupt graph: weight inf of arc 5 is not finite",
            ),
        ];
        for (name, bytes, want) in cases {
            assert_eq!(owned_load_error(&bytes, name).to_string(), want, "{name}");
            let p = std::env::temp_dir()
                .join(format!("gala_io_crafted_{name}_{}.bin", std::process::id()));
            std::fs::write(&p, &bytes).unwrap();
            let err = load_binary_mapped(&p).unwrap_err();
            let _ = std::fs::remove_file(p);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert_eq!(err.to_string(), want, "{name}");
        }
    }

    /// The path 0-1-2-3 as CSR arrays.
    const PATH_OFFSETS: [usize; 5] = [0, 1, 3, 5, 6];
    const PATH_TARGETS: [u32; 6] = [1, 0, 2, 1, 3, 2];

    /// A unit-weight container loads without a weight array, and one
    /// other weight anywhere (the first edge, a middle one, the last edge,
    /// or a self-loop as the last arc) makes the load allocate it and
    /// back-fill the ones before it, at every pool width and at chunk
    /// sizes that cut the weights anywhere: the graph and its degree bits
    /// are those of the explicit arrays through `from_csr`.
    #[test]
    fn unit_weights_are_counted_until_the_first_other_weight() {
        // The path 0-1-2-3 with a self-loop on 3, as CSR arrays.
        let offsets = vec![0, 1, 3, 5, 7];
        let targets = vec![1, 0, 2, 1, 3, 2, 3];
        for (arcs, w) in [
            (&[][..], 1.0),
            (&[0, 1], 2.0),
            (&[2, 3], 2.0),
            (&[4, 5], 0.0),
            (&[6], 2.0),
        ] {
            let mut weights = vec![1.0; 7];
            arcs.iter().for_each(|&a| weights[a] = w);
            let expect = Graph::from_csr(offsets.clone(), targets.clone(), weights.clone());
            assert_eq!(expect.has_unit_weights(), arcs.is_empty());
            let bytes = v2_container(&offsets, &targets, &weights);
            for width in [1usize, 2, 8] {
                for chunk in TEST_CHUNKS {
                    let s = rayon::with_parallelism(width, || read_chunked(&bytes, chunk)).unwrap();
                    assert_eq!(s.weights.is_empty(), arcs.is_empty());
                    let loaded = Graph::from_csr_built(s.offsets, s.targets, s.weights, s.degree_w);
                    assert_eq!(
                        loaded, expect,
                        "arcs {arcs:?}: width {width}, chunk {chunk}"
                    );
                    assert_eq!(degree_bits(&loaded), degree_bits(&expect));
                }
            }
        }
    }

    #[test]
    fn mapped_load_matches_owned_bitwise() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_test.bin");
        save_binary(&g, &p).unwrap();
        let owned = load_binary(&p).unwrap();
        let mapped = load_binary_mapped(&p).unwrap();
        let m = mapped.graph();
        assert_bit_identical(m, &owned);
        assert_eq!(degree_bits(m), degree_bits(&owned));
        assert_eq!(m.total_weight().to_bits(), owned.total_weight().to_bits());
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
