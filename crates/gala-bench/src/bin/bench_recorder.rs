//! Flight-recorder overhead gate: the observability layer must be free.
//!
//! Runs phase 1 on a few stand-in graphs twice per dataset — once with the
//! recorder idle, once with a live progress callback (what `gala detect
//! --progress` turns on) — and gates on:
//!
//! * **wall**: the best paired wall delta (each on-rep minus its
//!   temporally adjacent off-rep, pair order alternating; minimum over
//!   the pairs) stays within 1% of the uninstrumented min wall, plus a
//!   small absolute slack. A real instrumentation cost is a floor under
//!   *every* pair's delta, so the minimum estimates it while shrugging
//!   off scheduler noise — which on a shared box swings individual
//!   paired deltas by ±2% in either direction, more than enough to make
//!   a mean/median gate flake both ways;
//! * **determinism**: simulated cycle totals and final modularity are
//!   bit-for-bit identical (`f64::to_bits`) across modes and repetitions —
//!   observation is host-side only and must never feed back into the run;
//! * **crash path**: an injected panic after one delivered snapshot
//!   produces a `crash-<pid>.json` dump (in a scratch `GALA_CRASH_DIR`)
//!   that carries that snapshot and that [`recorder::validate_crash_dump`]
//!   accepts — the same validator `gala analyze --check` applies;
//! * **baseline**: `results/baseline_cycles.json` is byte-identical before
//!   and after the run (the recorder writes nothing it does not own).
//!
//! CI runs `GALA_SCALE=test bench_recorder --quick --gate` and keeps the
//! report as `results/BENCH_recorder.json` for the trend dashboard.

use gala_bench::{
    all_datasets, eng, ms, new_report, run_phase1_timed, scale_from_env, BenchArgs, Table,
};
use gala_core::louvain::LouvainConfig;
use gala_gpu::memory::CostModel;
use gala_graph::Graph;
use gala_telemetry::recorder::{self, ProgressSnapshot};
use gala_telemetry::{json, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Absolute slack on top of the 1% wall budget: test-scale graphs finish
/// in well under a millisecond, where 1% is smaller than timer jitter.
const SLACK: Duration = Duration::from_millis(2);

/// One mode's accumulated measurement: best wall over the reps plus the
/// simulated results, which every rep must reproduce bit-for-bit.
struct Measured {
    wall: Duration,
    cycles: f64,
    modularity: f64,
    steps: usize,
}

impl Measured {
    fn new() -> Self {
        Measured {
            wall: Duration::MAX,
            cycles: 0.0,
            modularity: 0.0,
            steps: 0,
        }
    }

    /// Folds one repetition in: keeps the minimum wall, flags any drift
    /// in the simulated results between repetitions, and returns this
    /// repetition's wall for paired-delta statistics.
    fn fold(
        &mut self,
        g: &Graph,
        cost: &CostModel,
        label: &str,
        failures: &mut Vec<String>,
    ) -> Duration {
        let (stats, w) = run_phase1_timed(g, LouvainConfig::paper());
        let cycles = cost.cycles(&stats.decide_tally()) + cost.cycles(&stats.weight_tally());
        if self.steps != 0
            && (cycles.to_bits() != self.cycles.to_bits()
                || stats.modularity.to_bits() != self.modularity.to_bits()
                || stats.iterations.len() != self.steps)
        {
            failures.push(format!(
                "{label}: simulated results vary between repetitions"
            ));
        }
        self.wall = self.wall.min(w);
        self.cycles = cycles;
        self.modularity = stats.modularity;
        self.steps = stats.iterations.len();
        w
    }
}

/// Delivers one snapshot, injects a panic under an armed recorder, and
/// checks that the crash dump it leaves behind validates and carries that
/// snapshot. The default hook is silenced for the drill so the bench
/// output stays a report, not a backtrace.
fn crash_drill() -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("gala-crash-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let prev_dir = std::env::var_os("GALA_CRASH_DIR");
    std::env::set_var("GALA_CRASH_DIR", &dir);
    let snap = ProgressSnapshot {
        driver: "bench_recorder".to_string(),
        round: 1,
        phase: "crash-drill".to_string(),
        superstep: 7,
        modularity: 0.5,
        active_frac: 0.25,
        moved_frac: 0.125,
        arcs: 4096,
        rss_bytes: 0,
    };
    recorder::set_progress_callback(Box::new(|_| {}));
    recorder::observe_progress(&snap);
    std::panic::set_hook(Box::new(|_| {}));
    recorder::install_panic_hook(
        recorder::Manifest::with_cmdline().entry("drill", "bench_recorder"),
    );
    let unwound = std::panic::catch_unwind(|| panic!("injected: bench_recorder crash drill"));
    let _ = std::panic::take_hook(); // back to the standard hook
    recorder::clear_progress_callback();
    match prev_dir {
        Some(v) => std::env::set_var("GALA_CRASH_DIR", v),
        None => std::env::remove_var("GALA_CRASH_DIR"),
    }
    if unwound.is_ok() {
        return Err("injected panic did not unwind".to_string());
    }
    let path = dir.join(format!("crash-{}.json", std::process::id()));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("crash dump {} unreadable: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("crash dump does not parse: {e:?}"))?;
    let verdict = recorder::validate_crash_dump(&doc)?;
    let carried = doc.get("progress").map(TraceEvent::from_json);
    if carried != Some(Ok(TraceEvent::Progress(snap))) {
        return Err(format!(
            "crash dump does not carry the drill's snapshot (found {carried:?})"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(verdict)
}

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let cost = CostModel::default();
    let reps = args.reps(3, 7);
    let num_graphs = if args.quick { 2 } else { 3 };

    let baseline_path = "results/baseline_cycles.json";
    let baseline_before = std::fs::read(baseline_path).ok();

    println!("bench_recorder — flight-recorder overhead gate ({reps} reps, min wall)\n");
    let mut table = Table::new(&[
        "Graph",
        "Steps",
        "Total cyc",
        "Off ms",
        "On ms",
        "Ratio",
        "Snapshots",
    ]);
    let mut failures: Vec<String> = Vec::new();

    for (d, g) in all_datasets(scale).iter().take(num_graphs) {
        // The instrumented mode mirrors what `gala detect --progress` flips
        // on: a live progress callback. Repetitions interleave off/on —
        // alternating which mode runs first in each pair — so clock drift,
        // thermal ramps, and cache warmth bias both modes equally.
        let snaps = Arc::new(AtomicU64::new(0));
        let mut off = Measured::new();
        let mut on = Measured::new();
        // Per-pair wall deltas (on − off). Each pair is temporally
        // adjacent, so machine drift cancels within it; the minimum over
        // pairs is the gate statistic, because real instrumentation cost
        // bounds every pair's delta from below while noise only ever
        // inflates one. A min-vs-min or mean-based gate flakes both ways
        // on this kind of shared hardware.
        let mut deltas = Vec::with_capacity(reps);
        for rep in 0..reps {
            let fold_off = |off: &mut Measured, failures: &mut Vec<String>| {
                off.fold(g, &cost, &format!("{}/off", d.abbr()), failures)
            };
            let fold_on = |on: &mut Measured, failures: &mut Vec<String>| {
                let counter = Arc::clone(&snaps);
                recorder::set_progress_callback(Box::new(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
                let wall = on.fold(g, &cost, &format!("{}/on", d.abbr()), failures);
                recorder::clear_progress_callback();
                wall
            };
            let (off_w, on_w) = if rep % 2 == 0 {
                let o = fold_off(&mut off, &mut failures);
                let n = fold_on(&mut on, &mut failures);
                (o, n)
            } else {
                let n = fold_on(&mut on, &mut failures);
                let o = fold_off(&mut off, &mut failures);
                (o, n)
            };
            deltas.push(on_w.as_secs_f64() - off_w.as_secs_f64());
        }
        deltas.sort_by(f64::total_cmp);
        let best_delta = deltas[0];

        if on.cycles.to_bits() != off.cycles.to_bits()
            || on.modularity.to_bits() != off.modularity.to_bits()
            || on.steps != off.steps
        {
            failures.push(format!(
                "{}: instrumented run changed simulated results \
                 (cycles {} vs {}, Q {:.6} vs {:.6}, steps {} vs {})",
                d.abbr(),
                on.cycles,
                off.cycles,
                on.modularity,
                off.modularity,
                on.steps,
                off.steps
            ));
        }
        let snap_count = snaps.load(Ordering::Relaxed);
        if snap_count == 0 {
            failures.push(format!(
                "{}: instrumented run produced no progress snapshots",
                d.abbr()
            ));
        }
        let limit = off.wall.as_secs_f64() * 0.01 + SLACK.as_secs_f64();
        if best_delta > limit {
            failures.push(format!(
                "{}: instrumented phase 1 ran {:.1} ms slower in its best of {} \
                 paired reps ({} ms uninstrumented; limit 1% + {} ms slack)",
                d.abbr(),
                best_delta * 1e3,
                reps,
                ms(off.wall),
                ms(SLACK)
            ));
        }
        let ratio = 1.0 + best_delta.max(0.0) / off.wall.as_secs_f64().max(1e-9);
        table.row(vec![
            d.abbr().to_string(),
            off.steps.to_string(),
            eng(off.cycles),
            ms(off.wall),
            ms(on.wall),
            format!("{ratio:.2}x"),
            snap_count.to_string(),
        ]);
    }
    table.print();

    println!();
    match crash_drill() {
        Ok(verdict) => println!("crash drill OK: {verdict}"),
        Err(e) => failures.push(format!("crash drill: {e}")),
    }

    let baseline_after = std::fs::read(baseline_path).ok();
    if baseline_before != baseline_after {
        failures.push(format!("{baseline_path} changed during the run"));
    } else if baseline_before.is_some() {
        println!("{baseline_path}: untouched");
    }

    let mut report = new_report("bench_recorder").meta("reps", reps.to_string());
    table.add_to_report(&mut report, "overhead");
    args.write_report(&report);

    args.finish_gate(
        &failures,
        &format!(
            "instrumented phase 1 within 1% (+{} ms slack), \
             simulated cycles bit-identical, crash dump carries the last snapshot",
            ms(SLACK)
        ),
    );
}
