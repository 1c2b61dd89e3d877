//! Command execution: graph IO, algorithm dispatch, and reporting.

use crate::args::{
    Algorithm, Command, DetectArgs, Format, GenerateArgs, Pruning, Reorder, Store, USAGE,
};
use gala_core::label_prop::{label_propagation, LabelPropConfig};
use gala_core::leiden::{leiden_with, LeidenConfig};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::metrics::summarize;
use gala_core::modularity::modularity_with_resolution;
use gala_core::observe::Obs;
use gala_core::pruning::PruningKind;
use gala_core::sequential::{sequential_louvain_with, SequentialConfig};
use gala_core::validation::{coverage, mean_conductance};
use gala_gpu::memory::CostModel;
use gala_gpu::profile::SpanRecord;
use gala_graph::generators::ba::barabasi_albert;
use gala_graph::generators::gnp::gnp;
use gala_graph::generators::lfr::LfrParams;
use gala_graph::generators::rmat::{rmat, RmatParams};
use gala_graph::generators::sbm::PowerLawSbm;
use gala_graph::generators::ws::watts_strogatz;
use gala_graph::reorder::{self, Ordering};
use gala_graph::stats::GraphStats;
use gala_graph::{io, metis, Graph, GraphStore, Partition};
use gala_telemetry::{recorder, JsonlSink, MetricRow, NullSink, Report, TraceSink};
use std::fs::File;
use std::io::{BufWriter, IsTerminal, Write};
use std::time::{Duration, Instant};

/// Boxed error type for command failures.
pub type Error = Box<dyn std::error::Error>;

/// Executes a parsed command.
pub fn execute(cmd: Command) -> Result<(), Error> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Stats { input, format } => stats(&input, format),
        Command::Convert { input, output } => convert(&input, &output),
        Command::Compare { a, b, graph } => compare(&a, &b, graph.as_deref()),
        Command::Generate(args) => generate(args),
        Command::Detect(args) => detect(args),
        Command::Analyze(args) => crate::analyze::run(&args),
        Command::Profile(args) => crate::profile::run(&args),
        Command::Trend(args) => crate::trend::run(&args),
    }
}

/// Reads a `vertex community` assignment file (as written by `detect
/// --output`). Missing vertices default to singleton labels.
pub fn load_assignment(path: &str, num_vertices: usize) -> Result<Partition, Error> {
    let text = std::fs::read_to_string(path)?;
    let mut n = num_vertices;
    let mut pairs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let bad = || format!("{path} line {}: expected `vertex community`", lineno + 1);
        let v: usize = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let c: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        n = n.max(v + 1);
        pairs.push((v, c));
    }
    let mut assignment: Vec<u32> = (0..n as u32).collect();
    // Avoid label collisions with explicit assignments: shift defaults up.
    let max_label = pairs.iter().map(|&(_, c)| c).max().unwrap_or(0);
    for x in assignment.iter_mut() {
        *x += max_label + 1;
    }
    for (v, c) in pairs {
        assignment[v] = c;
    }
    Ok(Partition::from_assignment(assignment))
}

fn compare(a: &str, b: &str, graph: Option<&str>) -> Result<(), Error> {
    use gala_core::metrics::nmi;
    use gala_core::validation::adjusted_rand_index;
    let pa = load_assignment(a, 0)?;
    let pb = load_assignment(b, pa.len())?;
    let pa = if pa.len() < pb.len() {
        load_assignment(a, pb.len())?
    } else {
        pa
    };
    println!("vertices: {}", pa.len());
    println!(
        "communities: {} vs {}",
        pa.num_communities(),
        pb.num_communities()
    );
    println!("NMI: {:.5}", nmi(&pa, &pb));
    println!("ARI: {:.5}", adjusted_rand_index(&pa, &pb));
    if let Some(gpath) = graph {
        let g = load(gpath, None)?;
        if g.num_vertices() != pa.len() {
            return Err(format!(
                "graph has {} vertices, assignments cover {}",
                g.num_vertices(),
                pa.len()
            )
            .into());
        }
        println!(
            "Q: {:.5} vs {:.5}",
            modularity_with_resolution(&g, &pa, 1.0),
            modularity_with_resolution(&g, &pb, 1.0)
        );
    }
    Ok(())
}

/// Loads a graph with the given (or inferred) format.
pub fn load(path: &str, format: Option<Format>) -> Result<Graph, Error> {
    let format = format.unwrap_or_else(|| Format::from_path(path));
    Ok(match format {
        Format::EdgeList => io::load_edge_list(path)?,
        Format::Metis => metis::load_metis(path)?,
        Format::Binary => io::load_binary(path)?,
    })
}

/// Saves a graph with the format inferred from the extension.
pub fn save(graph: &Graph, path: &str) -> Result<(), Error> {
    match Format::from_path(path) {
        Format::EdgeList => io::save_edge_list(graph, path)?,
        Format::Metis => metis::save_metis(graph, path)?,
        Format::Binary => io::save_binary(graph, path)?,
    }
    Ok(())
}

fn stats(input: &str, format: Option<Format>) -> Result<(), Error> {
    let g = load(input, format)?;
    let s = GraphStats::compute(&g);
    println!("vertices:        {}", s.num_vertices);
    println!("edges:           {}", s.num_edges);
    println!("total weight:    {}", s.total_weight);
    println!(
        "degree min/mean/max: {} / {:.2} / {}",
        s.min_degree, s.mean_degree, s.max_degree
    );
    println!("degree < 32:     {:.1}%", s.small_degree_fraction * 100.0);
    let (_, components) = gala_graph::traversal::connected_components(&g);
    println!("components:      {components}");
    Ok(())
}

fn convert(input: &str, output: &str) -> Result<(), Error> {
    let g = load(input, None)?;
    save(&g, output)?;
    println!(
        "converted {input} -> {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn generate(args: GenerateArgs) -> Result<(), Error> {
    let GenerateArgs {
        kind,
        out,
        n,
        seed,
        mixing,
    } = args;
    let graph = match kind.as_str() {
        "sbm" => {
            PowerLawSbm {
                num_vertices: n,
                min_community: 15,
                max_community: (n / 20).max(30) as u32,
                size_exponent: 2.0,
                internal_degree: 10.0,
                mixing,
            }
            .generate(seed)
            .graph
        }
        "lfr" => {
            LfrParams {
                num_vertices: n,
                min_degree: 5,
                max_degree: 50,
                degree_exponent: 2.5,
                min_community: 20,
                max_community: (n / 20).max(40) as u32,
                community_exponent: 1.5,
                mixing,
            }
            .generate(seed)
            .graph
        }
        "rmat" => {
            let scale = (n.max(2) as f64).log2().ceil() as u32;
            rmat(
                &RmatParams {
                    scale,
                    edge_factor: 12.0,
                    ..RmatParams::default()
                },
                seed,
            )
        }
        "ba" => barabasi_albert(n, 8, seed),
        "ws" => watts_strogatz(n, 8, mixing.clamp(0.0, 1.0), seed),
        "gnp" => gnp(n, 16.0 / n.max(1) as f64, seed),
        other => return Err(format!("unknown generator `{other}`").into()),
    };
    save(&graph, &out)?;
    println!(
        "generated {kind} graph: {} vertices, {} edges -> {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

/// Flattens a profiling span tree into report rows, one per span, labelled
/// by slash-joined path (`span/round/superstep/decide/hash`). Empty trees
/// (profiling off, or a non-GALA algorithm) add nothing.
fn push_span_rows(report: &mut Report, span: &SpanRecord, prefix: &str) {
    let cost = CostModel::default();
    for child in &span.children {
        let path = format!("{prefix}/{}", child.name);
        let total = child.total_tally();
        report.push(
            MetricRow::new(path.as_str())
                .metric("invocations", child.invocations as f64)
                .metric("self_cycles", child.self_cycles(&cost))
                .metric("total_cycles", child.total_cycles(&cost))
                .metric("divergence", total.divergence())
                .metric("coalescing_efficiency", total.coalescing_efficiency()),
        );
        push_span_rows(report, child, &path);
    }
}

fn detect(args: DetectArgs) -> Result<(), Error> {
    let format = args
        .format
        .unwrap_or_else(|| Format::from_path(&args.input));
    let store = if args.store == Store::Mapped {
        if format != Format::Binary {
            return Err("--store mapped requires a binary graph (--format bin)".into());
        }
        GraphStore::Mapped(io::load_binary_mapped(&args.input)?)
    } else {
        GraphStore::Owned(load(&args.input, Some(format))?)
    };
    let store_kind = store.kind();
    // --reorder: renumber for locality before detection. The ordering is
    // kept so `--output` can map assignments back to the original ids.
    let (graph, ordering, spans): (Graph, Option<Ordering>, Option<(f64, f64)>) = match args.reorder
    {
        Reorder::None => (store.into_graph(), None, None),
        kind => {
            let base = store.graph();
            let before = reorder::mean_edge_span(base);
            let ord = match kind {
                Reorder::Degree => reorder::degree_order(base),
                Reorder::Bfs => reorder::bfs_order(base),
                Reorder::None => unreachable!(),
            };
            let reordered = reorder::apply(base, &ord);
            let after = reorder::mean_edge_span(&reordered);
            (reordered, Some(ord), Some((before, after)))
        }
    };
    // --trace: the run's JSONL event stream (every algorithm but label
    // propagation emits one; lpa leaves the file empty).
    let mut jsonl = match &args.trace {
        Some(path) => Some(JsonlSink::new(BufWriter::new(File::create(path)?))),
        None => None,
    };
    let mut null = NullSink;
    let sink: &mut dyn TraceSink = match jsonl.as_mut() {
        Some(s) => s,
        None => &mut null,
    };
    // --progress: arm the flight recorder for live observation. The ring
    // filter honours GALA_LOG; the status line renders on stderr (rewritten
    // in place on a TTY, one plain line per snapshot otherwise) so stdout
    // stays clean for reports. A watchdog flags supersteps that go silent,
    // and a panic hook drains the ring into a provenance-stamped crash dump.
    let progress_tty = if args.progress {
        recorder::init_from_env();
        let tty = std::io::stderr().is_terminal();
        recorder::set_progress_callback(Box::new(move |snap| {
            let line = snap.render_line();
            if tty {
                eprint!("\r\x1b[2K{line}");
                let _ = std::io::stderr().flush();
            } else {
                eprintln!("{line}");
            }
        }));
        recorder::arm_watchdog(Duration::from_secs(30));
        recorder::install_panic_hook(
            recorder::Manifest::with_cmdline()
                .entry("input", &args.input)
                .entry("algorithm", &format!("{:?}", args.algorithm))
                .entry("backend", &format!("{}", args.backend))
                .entry("devices", &format!("{}", args.devices))
                .entry("resolution", &format!("{}", args.resolution))
                .entry("schema", &format!("{}", gala_telemetry::SCHEMA_VERSION)),
        );
        Some(tty)
    } else {
        None
    };
    // One observer carries the trace sink and, under --report, the
    // run-level profiler (so the report carries the span tree; lpa leaves
    // it empty). Built after the recorder is armed: it samples the
    // recorder's switches.
    let mut obs = Obs::traced(sink);
    if args.report.is_some() {
        obs = obs.profiled();
    }
    let start = Instant::now();
    let (name, partition): (&str, Partition) = match args.algorithm {
        Algorithm::Gala => {
            let pruning = match args.pruning {
                Pruning::Mgd => PruningKind::GainDamped,
                Pruning::Mg => PruningKind::Gain,
                Pruning::Sm => PruningKind::Strict,
                Pruning::Rm => PruningKind::Relaxed,
                Pruning::Pm => PruningKind::probabilistic_default(),
                Pruning::MgRm => PruningKind::GainRelaxed,
                Pruning::None => PruningKind::None,
            };
            let r = Louvain::new(LouvainConfig {
                pruning,
                resolution: args.resolution,
                backend: args.backend,
                devices: args.devices,
                contract: args.mg_contract,
                ..LouvainConfig::default()
            })
            .run_with(&graph, &mut obs);
            let name = if args.devices > 1 {
                "GALA (multi-device)"
            } else {
                "GALA"
            };
            (name, r.partition)
        }
        Algorithm::Leiden => {
            let r = leiden_with(
                &graph,
                LeidenConfig {
                    resolution: args.resolution,
                    backend: args.backend,
                    ..LeidenConfig::default()
                },
                &mut obs,
            );
            ("Leiden", r.partition)
        }
        Algorithm::Lpa => {
            let r = label_propagation(&graph, LabelPropConfig::default());
            ("label propagation", r.partition)
        }
        Algorithm::Sequential => {
            let r = sequential_louvain_with(&graph, SequentialConfig::default(), &mut obs);
            ("sequential Louvain", r.partition)
        }
    };
    let elapsed = start.elapsed();
    let span_tree = obs.finish();
    if let Some(tty) = progress_tty {
        recorder::disarm_watchdog();
        recorder::clear_progress_callback();
        if tty {
            // Terminate the in-place status line.
            eprintln!();
        }
        // Append the recorder's buffered log lines to the trace (a no-op
        // without --trace): readers accept `log` events after `run_end`.
        recorder::drain_into_sink(sink);
    }
    if let Some(s) = jsonl {
        // Flush the trace before anything else can fail.
        s.into_inner();
    }
    let q = modularity_with_resolution(&graph, &partition, args.resolution);
    let s = summarize(&partition);
    if let Some(path) = &args.report {
        let mut report = Report::new("run", "detect")
            .meta("algorithm", name)
            .meta("backend", format!("{}", args.backend))
            .meta("input", args.input.as_str())
            .meta("resolution", format!("{}", args.resolution))
            .meta("devices", format!("{}", args.devices))
            .meta("contract", format!("{}", args.mg_contract))
            .meta("store", store_kind)
            .meta(
                "reorder",
                match args.reorder {
                    Reorder::None => "none",
                    Reorder::Degree => "degree",
                    Reorder::Bfs => "bfs",
                },
            );
        report.push(
            MetricRow::new("summary")
                .metric("vertices", graph.num_vertices() as f64)
                .metric("edges", graph.num_edges() as f64)
                .metric("modularity", q)
                .metric("communities", s.num_communities as f64)
                .metric("coverage", coverage(&graph, &partition))
                .metric("mean_conductance", mean_conductance(&graph, &partition))
                .metric("seconds", elapsed.as_secs_f64()),
        );
        if let Some((before, after)) = spans {
            report.push(
                MetricRow::new("reorder")
                    .metric("mean_edge_span_before", before)
                    .metric("mean_edge_span_after", after),
            );
        }
        push_span_rows(&mut report, &span_tree, "span");
        report.write_to(path)?;
    }
    if !args.quiet {
        println!(
            "{name}: {} vertices, {} edges, {:.2}s",
            graph.num_vertices(),
            graph.num_edges(),
            elapsed.as_secs_f64()
        );
        println!(
            "Q(gamma={}) = {:.5}, {} communities (sizes {}..{}, mean {:.1})",
            args.resolution, q, s.num_communities, s.min_size, s.max_size, s.mean_size
        );
        println!(
            "coverage = {:.4}, mean conductance = {:.4}",
            coverage(&graph, &partition),
            mean_conductance(&graph, &partition)
        );
        if let Some((before, after)) = spans {
            println!("mean edge span: {before:.1} -> {after:.1} (reordered)");
        }
    }
    if let Some(path) = args.output {
        let mut w = BufWriter::new(File::create(&path)?);
        // Assignments are written against the ORIGINAL vertex ids: when a
        // reorder ran, each original vertex reads its label through its
        // renumbered id.
        for v in 0..partition.len() {
            let c = match &ordering {
                Some(ord) => partition.community_of(ord.new_id[v]),
                None => partition.community_of(v as u32),
            };
            writeln!(w, "{v} {c}")?;
        }
        if !args.quiet {
            println!("assignments written to {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use gala_graph::generators::fixtures;
    use gala_telemetry::{read_trace, TraceEvent};

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gala_cli_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Every event of the trace file at `path`, decoded.
    fn trace_events(path: &str) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        read_trace(path, |e| {
            events.push(e);
            Ok(())
        })
        .unwrap();
        events
    }

    #[test]
    fn load_save_roundtrip_every_format() {
        let g = fixtures::two_cliques(4);
        for ext in ["txt", "metis", "bin"] {
            let path = format!("{}.{ext}", tmp("roundtrip"));
            save(&g, &path).unwrap();
            let g2 = load(&path, None).unwrap();
            assert_eq!(g, g2, "{ext}");
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn detect_pipeline_end_to_end() {
        let g = fixtures::two_cliques(5);
        let graph_path = format!("{}.txt", tmp("detect"));
        let out_path = format!("{}.out", tmp("detect"));
        save(&g, &graph_path).unwrap();
        let cmd = Command::parse(
            &[
                "detect",
                graph_path.as_str(),
                "--output",
                out_path.as_str(),
                "--quiet",
            ]
            .map(String::from),
        )
        .unwrap();
        execute(cmd).unwrap();
        let text = std::fs::read_to_string(&out_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10);
        // Two communities: vertices 0-4 share one label, 5-9 the other.
        let label_of = |v: usize| lines[v].split_whitespace().nth(1).unwrap().to_string();
        assert_eq!(label_of(0), label_of(4));
        assert_eq!(label_of(5), label_of(9));
        assert_ne!(label_of(0), label_of(5));
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn detect_writes_trace_and_report() {
        let g = fixtures::ring_of_cliques(5, 4);
        let graph_path = format!("{}.txt", tmp("tr"));
        let trace_path = format!("{}.jsonl", tmp("tr"));
        let report_path = format!("{}.json", tmp("tr"));
        save(&g, &graph_path).unwrap();
        let cmd = Command::parse(
            &[
                "detect",
                graph_path.as_str(),
                "--trace",
                trace_path.as_str(),
                "--report",
                report_path.as_str(),
                "--quiet",
            ]
            .map(String::from),
        )
        .unwrap();
        execute(cmd).unwrap();

        // Trace: valid JSONL, bracketed by run_start/run_end.
        let events = trace_events(&trace_path);
        assert!(events.len() >= 3);
        assert_eq!(events[0].kind(), "run_start");
        assert_eq!(events.last().unwrap().kind(), "run_end");
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Superstep(s) if s.moved > 0)));

        // Report: parses back through the schema and carries the result.
        let report = Report::read_from(&report_path).unwrap();
        assert_eq!(report.kind, "run");
        assert_eq!(report.meta_value("algorithm"), Some("GALA"));
        let row = report.row("summary").unwrap();
        assert_eq!(row.get("vertices"), Some(20.0));
        assert_eq!(row.get("communities"), Some(5.0));
        assert!(row.get("modularity").unwrap() > 0.5);

        // --report also captures the profiling span tree as span/* rows.
        let decide = report
            .rows
            .iter()
            .find(|r| r.label.ends_with("/decide"))
            .expect("report must carry span rows");
        assert!(decide.get("total_cycles").unwrap() > 0.0);
        assert!(decide.get("invocations").unwrap() >= 1.0);

        // And the trace now carries span events alongside supersteps.
        assert!(events.iter().any(|e| e.kind() == "span"));
        for p in [graph_path, trace_path, report_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn multi_device_detect_traces_sync_events() {
        let g = fixtures::ring_of_cliques(4, 4);
        let graph_path = format!("{}.txt", tmp("mdtr"));
        let trace_path = format!("{}.jsonl", tmp("mdtr"));
        save(&g, &graph_path).unwrap();
        let cmd = Command::parse(
            &[
                "detect",
                graph_path.as_str(),
                "--devices",
                "2",
                "--trace",
                trace_path.as_str(),
                "--quiet",
            ]
            .map(String::from),
        )
        .unwrap();
        execute(cmd).unwrap();
        let syncs = trace_events(&trace_path)
            .iter()
            .filter(|e| e.kind() == "sync")
            .count();
        assert!(syncs > 0, "multi-device trace must contain sync events");
        for p in [graph_path, trace_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn partitioned_detect_runs_the_full_hierarchy_and_traces_exchanges() {
        let g = fixtures::ring_of_cliques(6, 5);
        let graph_path = format!("{}.txt", tmp("mgfull"));
        let trace_path = format!("{}.jsonl", tmp("mgfull"));
        let report_path = format!("{}.json", tmp("mgfull"));
        let out_host = format!("{}.host.txt", tmp("mgfull"));
        let out_part = format!("{}.part.txt", tmp("mgfull"));
        save(&g, &graph_path).unwrap();
        // Host reference assignment at one device.
        execute(
            Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--output",
                    out_host.as_str(),
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap(),
        )
        .unwrap();
        execute(
            Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--devices",
                    "4",
                    "--mg-contract",
                    "partitioned",
                    "--trace",
                    trace_path.as_str(),
                    "--report",
                    report_path.as_str(),
                    "--output",
                    out_part.as_str(),
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap(),
        )
        .unwrap();
        // The partitioned full hierarchy lands on the same assignment as
        // the single-device host run (one clique per community).
        assert_eq!(
            std::fs::read_to_string(&out_host).unwrap(),
            std::fs::read_to_string(&out_part).unwrap()
        );
        // The trace carries exchange syncs and survives `analyze --check`.
        assert!(
            trace_events(&trace_path)
                .iter()
                .any(|e| matches!(e, TraceEvent::Sync(y) if y.mode.starts_with("exchange-"))),
            "partitioned trace must contain exchange sync events"
        );
        execute(
            Command::parse(&["analyze", trace_path.as_str(), "--check"].map(String::from)).unwrap(),
        )
        .unwrap();
        let report = Report::read_from(&report_path).unwrap();
        assert_eq!(report.meta_value("algorithm"), Some("GALA (multi-device)"));
        assert_eq!(report.meta_value("contract"), Some("partitioned"));
        for p in [graph_path, trace_path, report_path, out_host, out_part] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn progress_detect_runs_and_its_trace_survives_check() {
        // Non-TTY path (test harness stderr is a pipe): plain status lines,
        // deterministic trace content, and the trailing ring flush must not
        // break `analyze --check`.
        let g = fixtures::ring_of_cliques(5, 4);
        let graph_path = format!("{}.txt", tmp("prog"));
        let trace_path = format!("{}.jsonl", tmp("prog"));
        save(&g, &graph_path).unwrap();
        execute(
            Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--progress",
                    "--trace",
                    trace_path.as_str(),
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap(),
        )
        .unwrap();
        assert!(
            trace_events(&trace_path)
                .iter()
                .any(|e| e.kind() == "progress"),
            "trace must carry deterministic progress events"
        );
        execute(
            Command::parse(&["analyze", trace_path.as_str(), "--check"].map(String::from)).unwrap(),
        )
        .unwrap();
        for p in [graph_path, trace_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn generate_and_stats() {
        let path = format!("{}.bin", tmp("gen"));
        execute(
            Command::parse(
                &["generate", "sbm", "--out", path.as_str(), "--n", "500"].map(String::from),
            )
            .unwrap(),
        )
        .unwrap();
        let g = load(&path, None).unwrap();
        assert_eq!(g.num_vertices(), 500);
        execute(Command::parse(&["stats", path.as_str()].map(String::from)).unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn every_algorithm_runs() {
        let g = fixtures::two_cliques(4);
        let graph_path = format!("{}.txt", tmp("algos"));
        save(&g, &graph_path).unwrap();
        for algo in ["gala", "leiden", "lpa", "sequential"] {
            let cmd = Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--algorithm",
                    algo,
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap();
            execute(cmd).unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
        let _ = std::fs::remove_file(graph_path);
    }

    #[test]
    fn native_backend_detect_matches_sim() {
        let g = fixtures::ring_of_cliques(6, 4);
        let graph_path = format!("{}.txt", tmp("nb"));
        save(&g, &graph_path).unwrap();
        let mut outs = Vec::new();
        for backend in ["sim", "native"] {
            let out_path = format!("{}_{backend}.out", tmp("nb"));
            let report_path = format!("{}_{backend}.json", tmp("nb"));
            let cmd = Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--backend",
                    backend,
                    "--output",
                    out_path.as_str(),
                    "--report",
                    report_path.as_str(),
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap();
            execute(cmd).unwrap();
            let report = Report::read_from(&report_path).unwrap();
            assert_eq!(report.meta_value("backend"), Some(backend));
            outs.push(std::fs::read_to_string(&out_path).unwrap());
            for p in [out_path, report_path] {
                let _ = std::fs::remove_file(p);
            }
        }
        assert_eq!(outs[0], outs[1], "backends must agree on assignments");
        let _ = std::fs::remove_file(graph_path);
    }

    #[test]
    fn compare_pipeline() {
        let g = fixtures::two_cliques(4);
        let gp = format!("{}.txt", tmp("cmpg"));
        let a1 = format!("{}.a", tmp("cmp"));
        let a2 = format!("{}.b", tmp("cmp"));
        save(&g, &gp).unwrap();
        std::fs::write(&a1, "0 0\n1 0\n2 0\n3 0\n4 1\n5 1\n6 1\n7 1\n").unwrap();
        std::fs::write(&a2, "0 5\n1 5\n2 5\n3 5\n4 9\n5 9\n6 9\n7 9\n").unwrap();
        let cmd = Command::parse(
            &["compare", a1.as_str(), a2.as_str(), "--graph", gp.as_str()].map(String::from),
        )
        .unwrap();
        execute(cmd).unwrap();
        // Identical up to relabel: NMI must be exactly 1 (checked via the
        // library call the command uses).
        let pa = load_assignment(&a1, 0).unwrap();
        let pb = load_assignment(&a2, 0).unwrap();
        assert_eq!(gala_core::metrics::nmi(&pa, &pb), 1.0);
        for p in [gp, a1, a2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn load_assignment_defaults_missing_vertices_to_singletons() {
        let path = format!("{}.a", tmp("sparse"));
        std::fs::write(&path, "0 7\n2 7\n").unwrap();
        let p = load_assignment(&path, 4).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.community_of(0), 7);
        assert_eq!(p.community_of(2), 7);
        // 1 and 3 are singletons distinct from 7 and from each other.
        assert_ne!(p.community_of(1), 7);
        assert_ne!(p.community_of(3), 7);
        assert_ne!(p.community_of(1), p.community_of(3));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reordered_detect_matches_unordered_up_to_labels() {
        let g = fixtures::ring_of_cliques(6, 4);
        let graph_path = format!("{}.txt", tmp("reord"));
        save(&g, &graph_path).unwrap();
        let base_out = format!("{}_none.out", tmp("reord"));
        execute(
            Command::parse(
                &[
                    "detect",
                    graph_path.as_str(),
                    "--output",
                    base_out.as_str(),
                    "--quiet",
                ]
                .map(String::from),
            )
            .unwrap(),
        )
        .unwrap();
        let base = load_assignment(&base_out, 0).unwrap();
        for kind in ["degree", "bfs"] {
            let out = format!("{}_{kind}.out", tmp("reord"));
            let report_path = format!("{}_{kind}.json", tmp("reord"));
            execute(
                Command::parse(
                    &[
                        "detect",
                        graph_path.as_str(),
                        "--reorder",
                        kind,
                        "--output",
                        out.as_str(),
                        "--report",
                        report_path.as_str(),
                        "--quiet",
                    ]
                    .map(String::from),
                )
                .unwrap(),
            )
            .unwrap();
            // Output is keyed by ORIGINAL ids: same partition up to labels.
            let p = load_assignment(&out, 0).unwrap();
            assert_eq!(
                gala_core::metrics::nmi(&base, &p),
                1.0,
                "--reorder {kind} must not change the partition"
            );
            let report = Report::read_from(&report_path).unwrap();
            assert_eq!(report.meta_value("reorder"), Some(kind));
            let row = report.row("reorder").expect("span metrics row");
            assert!(row.get("mean_edge_span_before").unwrap() > 0.0);
            assert!(row.get("mean_edge_span_after").unwrap() > 0.0);
            for p in [out, report_path] {
                let _ = std::fs::remove_file(p);
            }
        }
        for p in [graph_path, base_out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn mapped_store_detect_matches_owned_on_both_backends() {
        let g = fixtures::ring_of_cliques(5, 4);
        let graph_path = format!("{}.bin", tmp("mapped"));
        save(&g, &graph_path).unwrap();
        for backend in ["sim", "native"] {
            let mut outs = Vec::new();
            for store in ["owned", "mapped"] {
                let out = format!("{}_{backend}_{store}.out", tmp("mapped"));
                let report_path = format!("{}_{backend}_{store}.json", tmp("mapped"));
                execute(
                    Command::parse(
                        &[
                            "detect",
                            graph_path.as_str(),
                            "--backend",
                            backend,
                            "--store",
                            store,
                            "--output",
                            out.as_str(),
                            "--report",
                            report_path.as_str(),
                            "--quiet",
                        ]
                        .map(String::from),
                    )
                    .unwrap(),
                )
                .unwrap();
                let report = Report::read_from(&report_path).unwrap();
                assert_eq!(report.meta_value("store"), Some(store));
                let q = report.row("summary").unwrap().get("modularity").unwrap();
                outs.push((std::fs::read_to_string(&out).unwrap(), q));
                for p in [out, report_path] {
                    let _ = std::fs::remove_file(p);
                }
            }
            assert_eq!(
                outs[0].0, outs[1].0,
                "{backend}: mapped and owned stores must agree on assignments"
            );
            assert_eq!(
                outs[0].1, outs[1].1,
                "{backend}: mapped and owned stores must agree on modularity"
            );
        }
        let _ = std::fs::remove_file(graph_path);
    }

    #[test]
    fn mapped_store_requires_binary_input() {
        let g = fixtures::two_cliques(3);
        let graph_path = format!("{}.txt", tmp("mappedtxt"));
        save(&g, &graph_path).unwrap();
        let cmd = Command::parse(
            &[
                "detect",
                graph_path.as_str(),
                "--store",
                "mapped",
                "--quiet",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(execute(cmd).is_err());
        let _ = std::fs::remove_file(graph_path);
    }

    #[test]
    fn missing_file_is_an_error() {
        let cmd = Command::parse(&["stats", "/no/such/file.txt"].map(String::from)).unwrap();
        assert!(execute(cmd).is_err());
    }

    #[test]
    fn unknown_generator_is_an_error() {
        let cmd = Command::parse(&["generate", "fractal", "--out", "/tmp/x.txt"].map(String::from))
            .unwrap();
        assert!(execute(cmd).is_err());
    }
}
