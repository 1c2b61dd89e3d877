//! Simulated cycles vs native wall-clock, side by side.
//!
//! The simulator backend prices every memory access through [`MemTally`]
//! and the cost model — its *cycle* totals are the paper-facing metric,
//! but the accounting itself dominates host wall-clock. The native
//! backend runs the same shuffle/hash/sort decision algorithms on the
//! work-stealing pool with no cost model at all, so its wall-clock is the
//! honest host number. This binary runs full Louvain through both
//! backends on every dataset and thread width, asserts they produce
//! identical partitions and bit-equal modularity *before* timing anything,
//! and reports three series per row:
//!
//! * **Sim cycles** — the simulated cost (`CostModel` over the run tally),
//!   invariant under the host executor;
//! * **Sim ns** — wall-clock of the simulator run (cycle accounting on);
//! * **Native ns** — wall-clock of the native run (no accounting).
//!
//! ```text
//! GALA_SCALE=test bench_native --quick --gate --report BENCH_native.json
//! ```
//!
//! `--gate` exits non-zero when, on any width-8 row, the native run is
//! not at least 2x faster than the simulator run — the accounting
//! overhead the native backend exists to shed is far larger than that on
//! every graph in the suite, so the gate has headroom anywhere.

use gala_bench::{all_datasets, new_report, scale_from_env, time, BenchArgs, Table};
use gala_core::backend::BackendKind;
use gala_core::louvain::{Louvain, LouvainConfig, LouvainResult};
use gala_gpu::memory::CostModel;
use rayon::{configured_threads, with_parallelism};
use std::time::Duration;

/// Thread width the `--gate` comparison runs at (the acceptance row).
const GATE_THREADS: usize = 8;

/// Speedup the native backend must reach over the simulator at
/// [`GATE_THREADS`] for the gate to pass.
const GATE_SPEEDUP: f64 = 2.0;

fn runner(backend: BackendKind) -> Louvain {
    Louvain::new(LouvainConfig {
        backend,
        ..LouvainConfig::paper()
    })
}

/// Best-of-`reps` wall time of `f` (after one untimed warmup call).
fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    (0..reps)
        .map(|_| time(&mut f).1)
        .min()
        .expect("reps must be > 0")
}

fn supersteps(r: &LouvainResult) -> usize {
    r.rounds.iter().map(|round| round.iterations.len()).sum()
}

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let gate_width = configured_threads();
    let sweep = args.thread_sweep(gate_width);
    let reps = args.reps(1, 3);
    // Same graph budget as bench_host/bench_contract: the two largest
    // smoke graphs. The hash-heavy tail (OR, HW) spends most of its
    // wall-clock in passes both backends share (weight maintenance,
    // modularity), which dilutes the decide-path speedup below the gate
    // floor without saying anything about the backend itself.
    let num_graphs = args.reps(1, 2);
    let datasets = all_datasets(scale);
    let cost = CostModel::default();

    println!(
        "bench_native — simulated cycles vs native wall-clock ({} hardware threads)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut table = Table::new(&[
        "Run",
        "Vertices",
        "Steps",
        "Sim cycles",
        "Sim ns",
        "Native ns",
        "Speedup",
    ]);
    // (row label, width, sim ns, native ns) for the gate.
    let mut gate_rows: Vec<(String, usize, u128, u128)> = Vec::new();
    for (d, g) in datasets.iter().take(num_graphs) {
        for &k in &sweep {
            // Both backends must agree exactly before their times mean
            // anything — this is the same invariant CI's
            // backend-equivalence job checks through the CLI.
            let (sim, native) = with_parallelism(k, || {
                (
                    runner(BackendKind::Sim).run(g),
                    runner(BackendKind::Native).run(g),
                )
            });
            assert_eq!(
                sim.partition,
                native.partition,
                "{}/t{k}: backends diverged on assignments",
                d.abbr()
            );
            assert_eq!(
                sim.modularity.to_bits(),
                native.modularity.to_bits(),
                "{}/t{k}: backends diverged on modularity",
                d.abbr()
            );
            let cycles = cost.cycles(&sim.total_tally());
            let steps = supersteps(&sim);

            let sim_ns = best_of(reps, || {
                with_parallelism(k, || {
                    std::hint::black_box(runner(BackendKind::Sim).run(g));
                })
            })
            .as_nanos();
            let native_ns = best_of(reps, || {
                with_parallelism(k, || {
                    std::hint::black_box(runner(BackendKind::Native).run(g));
                })
            })
            .as_nanos();
            let label = format!("{}/t{k}", d.abbr());
            table.row(vec![
                label.clone(),
                g.num_vertices().to_string(),
                steps.to_string(),
                format!("{cycles:.0}"),
                sim_ns.to_string(),
                native_ns.to_string(),
                format!("{:.2}x", sim_ns as f64 / native_ns as f64),
            ]);
            gate_rows.push((label, k, sim_ns, native_ns));
        }
    }
    table.print();

    let mut report = new_report("bench_native")
        .meta("gate_width", gate_width.to_string())
        .meta(
            "hardware_threads",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        );
    table.add_to_report(&mut report, "native");
    args.write_report(&report);

    if args.gate {
        let mut failures = Vec::new();
        for (row, k, sim_ns, native_ns) in &gate_rows {
            if *k != GATE_THREADS {
                continue;
            }
            if (*native_ns as f64) * GATE_SPEEDUP > *sim_ns as f64 {
                failures.push(format!(
                    "{row}: native {native_ns}ns vs sim {sim_ns}ns (need {GATE_SPEEDUP}x)"
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "\ngate OK: native backend at least {GATE_SPEEDUP}x faster than the simulator at width {GATE_THREADS}"
            );
        } else {
            eprintln!("\ngate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
