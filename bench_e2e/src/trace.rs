//! Trace mode: the per-layer numbers, from one pass over each layer.
//!
//! Every timing here comes from the benchmark's own clock around calls into
//! public functions: both ingest paths, the replayed `Louvain::run` loop
//! ([`crate::replay`]), a one-thread run for scaling, and the sequential,
//! Grappolo and Leiden baselines on the same loaded graph. Nothing is
//! instrumented inside the program.

use crate::replay::{self, Layer};
use crate::run::native_config;
use crate::workload::{Format, Inputs, Workload};
use crate::Outcome;
use gala_core::backend::BackendKind;
use gala_core::grappolo::grappolo;
use gala_core::leiden::{leiden, LeidenConfig};
use gala_core::louvain::Louvain;
use gala_core::metrics::nmi;
use gala_core::sequential::{sequential_louvain, SequentialConfig};
use gala_graph::{io, GraphBuilder, GraphStore};
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

fn ensure(ok: bool, problem: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| problem.to_string())
}

pub fn trace(workload: &Workload, inputs: &Inputs) -> Result<Outcome, String> {
    let truth = inputs.truth().map_err(|e| format!("ground truth: {e}"))?;
    let mut outcome = Outcome::default();
    let mut check = |result: Result<(), String>| {
        outcome.attempted += 1;
        if let Err(problem) = result {
            outcome.failed += 1;
            outcome.problems.push(problem);
        }
    };

    // Ingest: both paths on every workload, so each layer has a number.
    let file = File::open(&inputs.text).map_err(|e| format!("{}: {e}", inputs.text.display()))?;
    let mut builder = GraphBuilder::new(0);
    let (parsed, parse_s) = timed(|| io::parse_edge_list_into(BufReader::new(file), &mut builder));
    parsed.map_err(|e| format!("parse: {e}"))?;
    let (from_text, build_s) = timed(|| builder.build());
    let (mapped, load_binary_s) = timed(|| io::load_binary_mapped(&inputs.binary));
    let from_binary = GraphStore::Mapped(mapped.map_err(|e| format!("load: {e}"))?).into_graph();
    check(ensure(
        from_text == from_binary,
        "text and binary inputs load to different CSRs",
    ));
    let graph = match workload.format {
        Format::Text => from_text,
        Format::Binary => from_binary,
    };

    // `Louvain::run`, then its replay: the guard compares them. The first
    // run also warms the pool and the allocator, so the replay's overhead is
    // taken against a second, warm run.
    let cfg = native_config();
    let reference = Louvain::new(cfg).run(&graph);
    let rep = replay::replay(&graph, &cfg);
    let fidelity = replay::check_fidelity(&rep, &reference);
    check(fidelity.map_err(|e| format!("replay fidelity: {e}")));
    let (again, detect_s) = timed(|| Louvain::new(cfg).run(&graph));
    check(ensure(
        again.partition == reference.partition,
        "a repeated run returned another partition",
    ));
    let (single, detect_1t_s) =
        timed(|| rayon::with_parallelism(1, || Louvain::new(cfg).run(&graph)));
    check(ensure(
        single.partition == reference.partition,
        "one-thread partition differs from the full-width one",
    ));

    // Reference rows: recorded, not gated.
    let (seq, seq_s) = timed(|| sequential_louvain(&graph, SequentialConfig::default()));
    let (_, grappolo_s) = timed(|| grappolo(&graph, cfg.theta));
    let (lei, leiden_s) = timed(|| {
        leiden(
            &graph,
            LeidenConfig {
                backend: BackendKind::Native,
                ..LeidenConfig::default()
            },
        )
    });

    let replay_s = rep.wall.as_secs_f64();
    let layers_s: f64 = Layer::ALL.iter().map(|&l| rep.time(l).as_secs_f64()).sum();
    let decide_s = rep.time(Layer::Decide).as_secs_f64();
    let work = rep.work;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut metrics = vec![
        ("io.parse_s", parse_s),
        ("builder.build_s", build_s),
        ("io.load_binary_s", load_binary_s),
        ("pruning.active_frac", ratio(work.active, work.candidates)),
        ("kernels.active_arcs", work.active_arcs as f64),
        ("kernels.arcs_per_s", work.active_arcs as f64 / decide_s),
        ("kernels.hash_frac", ratio(work.hash_routed, work.active)),
        ("louvain.moved_per_active", ratio(work.moved, work.active)),
        (
            "louvain.supersteps",
            rep.supersteps.iter().sum::<usize>() as f64,
        ),
        ("louvain.rounds", rep.supersteps.len() as f64),
        ("trace.replay_s", replay_s),
        ("trace.other_s", replay_s - layers_s),
        ("trace.overhead_frac", replay_s / detect_s - 1.0),
        ("scaling.detect_1t_s", detect_1t_s),
        ("scaling.speedup", detect_1t_s / detect_s),
        ("sequential.wall_s", seq_s),
        ("sequential.modularity", seq.modularity),
        ("sequential.nmi", nmi(&seq.partition, &truth)),
        ("grappolo.wall_s", grappolo_s),
        ("leiden.wall_s", leiden_s),
        ("leiden.modularity", lei.modularity),
        ("leiden.nmi", nmi(&lei.partition, &truth)),
        ("gala.vs_sequential", seq_s / detect_s),
    ];
    metrics.extend(
        Layer::ALL
            .iter()
            .map(|&l| (l.metric(), rep.time(l).as_secs_f64())),
    );
    outcome.metrics = metrics;
    outcome.notes = vec![
        ("detect_s".into(), detect_s.to_string()),
        (
            "layer_share_of_replay".into(),
            (layers_s / replay_s).to_string(),
        ),
        (
            "supersteps_per_round".into(),
            format!("{:?}", rep.supersteps),
        ),
    ];
    Ok(outcome)
}
