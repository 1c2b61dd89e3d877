//! Out-of-core ingestion bench: streaming spill-and-merge vs in-memory.
//!
//! The paper's real inputs (uk-2007-02: 3.4 B edges) never fit the
//! in-memory `GraphBuilder`, whose transient peak is ~28 bytes per arc.
//! This binary measures the [`StreamingBuilder`] replacement against it on
//! restartable [`CommunityStream`] graphs — the same edge sequence is fed
//! to both builders and the resulting CSRs are asserted **bit-identical**
//! (offsets, targets, weight bit patterns) before any timing is reported.
//! Peak RSS per build phase comes from the gala-telemetry procfs probe
//! (`VmHWM` reset between phases); the streaming phase is measured first
//! so allocator reuse of freed pages cannot flatter it.
//!
//! Sections:
//!
//! * **ingest** — per-graph: streaming build (budgeted chunks, spilled
//!   runs, k-way merge) vs in-memory build; wall time, Marcs/s, peak MiB.
//! * **parse** — `io::read_edge_list` on a cached fixture
//!   (`GALA_INGEST_FIXTURE` names it; regenerated when absent): the
//!   parallel in-memory text path, block reads parsed in line-aligned
//!   pieces across the pool into edge records and built by row ranges,
//!   parse and build together.
//! * **load** — v2 binary container: owned load (full structural audit)
//!   vs mapped load (checksum verify, trusted CSR), bit-identical.
//! * **reorder** — degree preprocessing: `mean_edge_span` before/after.
//!
//! ```text
//! GALA_SCALE=test bench_ingest --quick --gate --report BENCH_ingest.json
//! ```
//!
//! `--gate` enforces the out-of-core contract: on the largest row the
//! streaming build's peak RSS must be at most half the in-memory build's,
//! and on the smallest (unspilled) row its throughput must stay within
//! 20% of the in-memory path.

use gala_bench::{eng, new_report, time, BenchArgs, Table};
use gala_graph::generators::stream::CommunityStream;
use gala_graph::stream::StreamingBuilder;
use gala_graph::{io, reorder, Graph, GraphBuilder};
use gala_telemetry::mem::{mib, PhasePeak};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Streaming peak RSS must be at most this fraction of the in-memory
/// peak on the largest (spilled) row.
const GATE_PEAK_RATIO: f64 = 0.5;

/// Streaming throughput must be at least this fraction of the in-memory
/// throughput on the smallest (in-budget, unspilled) row.
const GATE_THROUGHPUT_RATIO: f64 = 0.8;

/// One benchmark graph: a [`CommunityStream`] recipe plus the streaming
/// builder's chunk budget. The first row's budget always holds the whole
/// arc stream (the throughput-overhead row); the last row's never does
/// (the spill row the memory gate watches).
struct Row {
    label: &'static str,
    stream: CommunityStream,
    budget_bytes: usize,
}

fn rows(quick: bool) -> Vec<Row> {
    let recipe = |label, n, budget_bytes| Row {
        label,
        stream: CommunityStream {
            num_vertices: n,
            community_size: 64,
            intra: 5,
            chords: 1,
            seed: 0x1A6E57,
        },
        budget_bytes,
    };
    if quick {
        vec![
            recipe("cs-50k", 50_000, 256 << 20),
            recipe("cs-500k", 500_000, 4 << 20),
        ]
    } else {
        vec![
            recipe("cs-500k", 500_000, 256 << 20),
            recipe("cs-2m", 2_000_000, 64 << 20),
            recipe("cs-4m", 4_000_000, 64 << 20),
        ]
    }
}

/// Fails loudly when the two CSRs differ anywhere, including weight
/// mantissa bits — timing a non-equivalent builder would be meaningless.
fn assert_bit_identical(streamed: &Graph, inmem: &Graph, label: &str) {
    assert_eq!(streamed.offsets(), inmem.offsets(), "{label}: offsets");
    assert_eq!(streamed.targets(), inmem.targets(), "{label}: targets");
    assert!(
        streamed
            .arc_weights()
            .map(f64::to_bits)
            .eq(inmem.arc_weights().map(f64::to_bits)),
        "{label}: weight bit patterns diverged"
    );
}

struct BuildMeasure {
    graph: Graph,
    wall: Duration,
    peak_bytes: Option<u64>,
    spilled_runs: usize,
}

/// Streams the recipe's edges into the budgeted out-of-core builder,
/// recording wall time and phase-peak RSS.
fn build_streaming(row: &Row) -> BuildMeasure {
    let probe = PhasePeak::begin();
    let ((graph, spilled_runs), wall) = time(|| {
        let mut b = StreamingBuilder::with_budget_bytes(row.stream.num_vertices, row.budget_bytes);
        b.extend_unweighted(row.stream.edges());
        let runs = b.spilled_runs();
        (b.finish().expect("streaming build failed"), runs)
    });
    BuildMeasure {
        graph,
        wall,
        peak_bytes: probe.end(),
        spilled_runs,
    }
}

/// Feeds the identical edge sequence to the in-memory builder.
fn build_inmem(row: &Row) -> BuildMeasure {
    let probe = PhasePeak::begin();
    let (graph, wall) = time(|| {
        let mut b = GraphBuilder::new(row.stream.num_vertices);
        b.extend_unweighted(row.stream.edges());
        b.build()
    });
    BuildMeasure {
        graph,
        wall,
        peak_bytes: probe.end(),
        spilled_runs: 0,
    }
}

fn marcs_per_s(arcs: u64, wall: Duration) -> f64 {
    arcs as f64 / wall.as_secs_f64().max(1e-9) / 1e6
}

fn fmt_peak(peak: Option<u64>) -> String {
    match peak {
        Some(b) => format!("{:.1}", mib(b)),
        // Distinguish "probe unavailable" from a measured zero: "n/a"
        // parses as non-numeric, so the report simply omits the metric.
        None => "n/a".into(),
    }
}

/// The text-parse fixture path: `GALA_INGEST_FIXTURE` when set (CI caches
/// it there), a temp-dir default otherwise.
fn fixture_path(quick: bool) -> PathBuf {
    match std::env::var_os("GALA_INGEST_FIXTURE") {
        Some(p) => PathBuf::from(p),
        None => std::env::temp_dir().join(format!(
            "gala-ingest-fixture-{}.txt",
            if quick { "quick" } else { "full" }
        )),
    }
}

/// Writes the recipe's edge stream as a plain `u v` edge-list file that
/// exercises the byte-level parser; skipped when the cached file exists.
fn ensure_fixture(path: &PathBuf, stream: &CommunityStream) -> std::io::Result<u64> {
    if let Ok(meta) = std::fs::metadata(path) {
        if meta.len() > 0 {
            return Ok(meta.len());
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# CommunityStream fixture for bench_ingest")?;
    writeln!(w, "#vertices {}", stream.num_vertices)?;
    for (u, v) in stream.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    let rows = rows(quick);

    println!("bench_ingest — streaming out-of-core build vs in-memory GraphBuilder\n");

    let mut ingest = Table::new(&[
        "Graph",
        "Vertices",
        "Arcs",
        "Budget MiB",
        "Runs",
        "Stream ms",
        "Stream Marcs/s",
        "Stream peak MiB",
        "Inmem ms",
        "Inmem Marcs/s",
        "Inmem peak MiB",
        "Peak ratio",
    ]);
    struct GateRow {
        label: &'static str,
        stream_tp: f64,
        inmem_tp: f64,
        stream_peak: Option<u64>,
        inmem_peak: Option<u64>,
    }
    let mut gate_rows: Vec<GateRow> = Vec::new();

    for (idx, row) in rows.iter().enumerate() {
        println!(
            "{}: streaming build (budget {} MiB)...",
            row.label,
            row.budget_bytes >> 20
        );
        // Streaming first: the in-memory phase would otherwise donate
        // freed pages the allocator silently reuses, hiding RSS growth.
        let mut streamed = build_streaming(row);
        let mut inmem = build_inmem(row);
        assert_bit_identical(&streamed.graph, &inmem.graph, row.label);
        // The first row is the throughput-gate row and small enough to
        // repeat: best-of-3 walls keep scheduler noise out of the ratio.
        if idx == 0 {
            for _ in 0..2 {
                streamed.wall = streamed.wall.min(build_streaming(row).wall);
                inmem.wall = inmem.wall.min(build_inmem(row).wall);
            }
        }

        let arcs = streamed.graph.num_arcs() as u64;
        let s_tp = marcs_per_s(arcs, streamed.wall);
        let i_tp = marcs_per_s(arcs, inmem.wall);
        let ratio = match (streamed.peak_bytes, inmem.peak_bytes) {
            (Some(s), Some(i)) if i > 0 => format!("{:.2}", s as f64 / i as f64),
            _ => "n/a".into(),
        };
        println!(
            "  {} arcs: stream {:.0} ms ({} runs, peak {} MiB) vs inmem {:.0} ms (peak {} MiB)",
            eng(arcs as f64),
            streamed.wall.as_secs_f64() * 1e3,
            streamed.spilled_runs,
            fmt_peak(streamed.peak_bytes),
            inmem.wall.as_secs_f64() * 1e3,
            fmt_peak(inmem.peak_bytes),
        );
        ingest.row(vec![
            row.label.into(),
            row.stream.num_vertices.to_string(),
            arcs.to_string(),
            (row.budget_bytes >> 20).to_string(),
            streamed.spilled_runs.to_string(),
            format!("{:.1}", streamed.wall.as_secs_f64() * 1e3),
            format!("{s_tp:.1}"),
            fmt_peak(streamed.peak_bytes),
            format!("{:.1}", inmem.wall.as_secs_f64() * 1e3),
            format!("{i_tp:.1}"),
            fmt_peak(inmem.peak_bytes),
            ratio,
        ]);
        gate_rows.push(GateRow {
            label: row.label,
            stream_tp: s_tp,
            inmem_tp: i_tp,
            stream_peak: streamed.peak_bytes,
            inmem_peak: inmem.peak_bytes,
        });
    }
    println!();
    ingest.print();

    // ---- text parser on the cached fixture -----------------------------
    let parse_stream = rows[0].stream;
    let fixture = fixture_path(quick);
    let bytes = ensure_fixture(&fixture, &parse_stream).expect("fixture generation failed");
    let (parsed, parse_wall) = time(|| {
        io::read_edge_list(BufReader::new(File::open(&fixture).expect("open fixture")))
            .expect("fixture must parse")
    });
    let parse_reference = build_inmem(&rows[0]).graph;
    assert_bit_identical(&parsed, &parse_reference, "parse fixture");
    let mut parse = Table::new(&["Fixture", "Bytes", "Arcs", "Parse ms", "Parse Marcs/s"]);
    parse.row(vec![
        "edge-list".into(),
        bytes.to_string(),
        parsed.num_arcs().to_string(),
        format!("{:.1}", parse_wall.as_secs_f64() * 1e3),
        format!("{:.1}", marcs_per_s(parsed.num_arcs() as u64, parse_wall)),
    ]);
    println!();
    parse.print();

    // ---- owned vs mapped binary load -----------------------------------
    let bin_path = std::env::temp_dir().join(format!("gala-ingest-{}.bin", std::process::id()));
    io::save_binary(&parse_reference, &bin_path).expect("save_binary");
    let bin_bytes = std::fs::metadata(&bin_path).map_or(0, |m| m.len());
    let (owned, owned_wall) = time(|| io::load_binary(&bin_path).expect("owned load"));
    let (mapped, mapped_wall) = time(|| io::load_binary_mapped(&bin_path).expect("mapped load"));
    let _ = std::fs::remove_file(&bin_path);
    assert_bit_identical(&owned, &parse_reference, "owned load");
    assert_bit_identical(mapped.graph(), &parse_reference, "mapped load");
    let mut load = Table::new(&["Loader", "Bytes", "Load ms", "Load MB/s"]);
    for (name, wall) in [("owned", owned_wall), ("mapped", mapped_wall)] {
        load.row(vec![
            name.into(),
            bin_bytes.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!(
                "{:.0}",
                bin_bytes as f64 / wall.as_secs_f64().max(1e-9) / 1e6
            ),
        ]);
    }
    println!();
    load.print();

    // ---- degree reordering as an ingestion post-pass -------------------
    let ord = reorder::degree_order(&parse_reference);
    let (reordered, reorder_wall) = time(|| reorder::apply(&parse_reference, &ord));
    let mut reorder_t = Table::new(&["Pass", "Span before", "Span after", "Apply ms"]);
    reorder_t.row(vec![
        "degree".into(),
        format!("{:.1}", reorder::mean_edge_span(&parse_reference)),
        format!("{:.1}", reorder::mean_edge_span(&reordered)),
        format!("{:.1}", reorder_wall.as_secs_f64() * 1e3),
    ]);
    println!();
    reorder_t.print();

    let mut report = new_report("bench_ingest")
        .meta("gate_peak_ratio", format!("{GATE_PEAK_RATIO}"))
        .meta("gate_throughput_ratio", format!("{GATE_THROUGHPUT_RATIO}"));
    ingest.add_to_report(&mut report, "ingest");
    parse.add_to_report(&mut report, "parse");
    load.add_to_report(&mut report, "load");
    reorder_t.add_to_report(&mut report, "reorder");
    args.write_report(&report);

    let mut failures = Vec::new();
    let (small, large) = (gate_rows.first().unwrap(), gate_rows.last().unwrap());
    if small.stream_tp < small.inmem_tp * GATE_THROUGHPUT_RATIO {
        failures.push(format!(
            "{}: streaming throughput {:.1} Marcs/s below {:.0}% of in-memory {:.1} Marcs/s",
            small.label,
            small.stream_tp,
            GATE_THROUGHPUT_RATIO * 100.0,
            small.inmem_tp
        ));
    }
    let mut peak_verdict = format!("peak ratio <= {GATE_PEAK_RATIO} on {}", large.label);
    match (large.stream_peak, large.inmem_peak) {
        (Some(s), Some(i)) => {
            if s as f64 > i as f64 * GATE_PEAK_RATIO {
                failures.push(format!(
                    "{}: streaming peak {:.1} MiB above {:.0}% of in-memory {:.1} MiB",
                    large.label,
                    mib(s),
                    GATE_PEAK_RATIO * 100.0,
                    mib(i)
                ));
            }
        }
        // A missing probe (no procfs on this platform) is a reduced
        // measurement, not a regression: skip the memory half of the gate
        // with a warning and keep the throughput verdict.
        _ => {
            eprintln!(
                "warning: {}: no RSS probe available, memory gate SKIPPED",
                large.label
            );
            peak_verdict = format!("peak gate skipped on {} (no RSS probe)", large.label);
        }
    }
    args.finish_gate(
        &failures,
        &format!(
            "{peak_verdict}, throughput >= {GATE_THROUGHPUT_RATIO}x on {}",
            small.label
        ),
    );
}
