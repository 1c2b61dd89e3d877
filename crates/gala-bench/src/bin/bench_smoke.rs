//! CI smoke benchmark: deterministic simulated-cycle totals for a small
//! matrix of configurations, diffable against a checked-in baseline.
//!
//! The simulator is deterministic, so the cycle counts below are exact
//! functions of the code — any drift is a real behaviour change. CI runs
//!
//! ```text
//! GALA_SCALE=test bench_smoke --report current.json \
//!     --check results/baseline_cycles.json
//! ```
//!
//! and fails when any metric moves more than ±10% against the baseline
//! (both directions: an unexplained improvement usually means the workload
//! changed, not the code getting faster). Refresh the baseline with
//! `GALA_SCALE=test bench_smoke --report results/baseline_cycles.json`
//! and commit the diff alongside the change that explains it.
//!
//! Beyond the per-config cycle totals the matrix gates hashtable eviction
//! counts and, in a second table, the multi-device sync byte volumes
//! (dense vs. sparse mode decisions included). `--trace <file>` also
//! writes a full instrumented trace (superstep + span events) of the
//! first dataset's run — CI feeds that to `gala analyze --check`.

use gala_bench::{all_datasets, conclude, eng, new_report, scale_from_env, BenchArgs, Table};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::observe::Obs;
use gala_gpu::memory::CostModel;
use gala_telemetry::{JsonlSink, Report, TraceEvent, VecSink};
use std::fs::File;
use std::io::BufWriter;

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let cost = CostModel::default();
    let configs: [(&str, LouvainConfig); 2] = [
        ("gala", LouvainConfig::paper()),
        ("baseline", LouvainConfig::baseline()),
    ];

    println!("bench_smoke — deterministic phase-1 cycle totals\n");
    let mut table = Table::new(&[
        "Run",
        "Steps",
        "Decide cyc",
        "Weight cyc",
        "Total cyc",
        "Evictions",
        "Q",
    ]);
    // The first three stand-in datasets keep the smoke run fast; the full
    // experiment binaries cover the rest.
    let datasets = all_datasets(scale);
    for (d, g) in datasets.iter().take(3) {
        for (cname, cfg) in &configs {
            let (_, stats) = Louvain::new(*cfg).run_phase1(g);
            let decide = cost.cycles(&stats.decide_tally());
            let weight = cost.cycles(&stats.weight_tally());
            let evictions: u64 = stats
                .iterations
                .iter()
                .map(|i| i.hash_stats.shared_evictions)
                .sum();
            table.row(vec![
                format!("{}/{cname}", d.abbr()),
                stats.iterations.len().to_string(),
                eng(decide),
                eng(weight),
                eng(decide + weight),
                evictions.to_string(),
                format!("{:.4}", stats.modularity),
            ]);
        }
    }
    table.print();

    // Multi-device smoke: total sync traffic must stay put too — a shift
    // in the dense/sparse decision or the per-move byte model shows up
    // here before it shows up in end-to-end numbers.
    println!("\nmulti-device sync traffic\n");
    let mut sync_table = Table::new(&["Run", "Steps", "Sync bytes", "Dense", "Sparse"]);
    for (d, g) in datasets.iter().take(2) {
        for devices in [2usize, 4] {
            // One round: the first phase 1 is what the baseline gates.
            let mut sink = VecSink::default();
            let r = Louvain::new(LouvainConfig {
                devices,
                max_rounds: 1,
                ..LouvainConfig::paper()
            })
            .run_with(g, &mut Obs::traced(&mut sink));
            let (mut bytes, mut dense, mut sparse) = (0u64, 0u64, 0u64);
            for ev in &sink.events {
                if let TraceEvent::Sync { bytes: b, mode, .. } = ev {
                    bytes += b;
                    match mode.as_str() {
                        "dense" => dense += 1,
                        _ => sparse += 1,
                    }
                }
            }
            sync_table.row(vec![
                format!("{}/d{devices}", d.abbr()),
                r.num_iterations().to_string(),
                eng(bytes as f64),
                dense.to_string(),
                sparse.to_string(),
            ]);
        }
    }
    sync_table.print();

    let mut report = new_report("bench_smoke");
    table.add_to_report(&mut report, "smoke");
    sync_table.add_to_report(&mut report, "sync");
    args.write_report(&report);

    // --trace: write an instrumented single-device trace of the first
    // dataset under the default config (superstep, span, round events).
    if let Some(path) = &args.trace {
        let (d, g) = &datasets[0];
        let file = match File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
        };
        let mut sink = JsonlSink::new(BufWriter::new(file));
        Louvain::new(LouvainConfig::paper()).run_with(g, &mut Obs::traced(&mut sink));
        sink.into_inner();
        println!("\ntrace of {} written to {path}", d.abbr());
    }

    if let Some(path) = &args.check {
        let baseline = match Report::read_from(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let regressions: Vec<String> = report
            .compare(&baseline, 0.10)
            .iter()
            .map(|r| format!("{path}: {r}"))
            .collect();
        let metrics: usize = baseline.rows.iter().map(|r| r.metrics.len()).sum();
        let ok = format!("{metrics} metrics within \u{b1}10% of {path}");
        if conclude("check", true, &regressions, &ok) {
            std::process::exit(1);
        }
    }
}
