//! Host-side wall-clock benchmark of the parallel launch path.
//!
//! Everything else in the harness measures *simulated* GPU cycles, which
//! are invariant under the host executor. This binary measures the host
//! itself: how fast `grid::launch` actually dispatches kernels through the
//! vendored rayon shim's persistent worker pool, against two references —
//!
//! * **seq** — `grid::launch_seq`, the zero-overhead sequential floor;
//! * **seed** — a faithful port of the original shim's spawn-per-call
//!   executor (clone the items into owned chunks, spawn a fresh scope
//!   thread per chunk on every launch), kept here as the regression
//!   yardstick after the library moved to the pool.
//!
//! A second table records the end-to-end phase-1 cost (ns/superstep) per
//! graph per thread count, using `with_parallelism` to sweep widths on any
//! machine. `GALA_THREADS` (via [`rayon::configured_threads`]) picks the
//! gate width; `--threads <k>` restricts the sweep.
//!
//! ```text
//! GALA_SCALE=test bench_host --quick --gate --report BENCH_host.json
//! ```
//!
//! `--gate` exits non-zero when, at the configured width, the pooled
//! launch is more than 15% slower than either reference — on a single
//! hardware thread the pool runs inline, so the gate is safe anywhere.

use gala_bench::{
    all_datasets, best_of, hardware_threads, new_report, scale_from_env, BenchArgs, Table,
};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_graph::{Graph, VertexId};
use rayon::{configured_threads, with_parallelism};
use std::time::Duration;

/// The seed shim's executor, reimplemented verbatim as a benchmark
/// reference: every call clones the items into owned chunks and spawns a
/// scope thread per chunk.
fn seed_launch<I, R>(
    items: &[I],
    threads: usize,
    kernel: impl Fn(&I, &mut MemTally) -> R + Sync,
) -> (Vec<R>, MemTally)
where
    I: Clone + Send + Sync,
    R: Send,
{
    let mut tally = MemTally::new();
    if threads <= 1 || items.len() < 1024 {
        let out = items.iter().map(|i| kernel(i, &mut tally)).collect();
        return (out, tally);
    }
    let chunk_len = items.len().div_ceil(threads);
    let chunks: Vec<Vec<I>> = items.chunks(chunk_len).map(|c| c.to_vec()).collect();
    let kernel = &kernel;
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut t = MemTally::new();
                    let out: Vec<R> = chunk.iter().map(|i| kernel(i, &mut t)).collect();
                    (out, t)
                })
            })
            .collect();
        for h in handles {
            let (out, t) = h.join().expect("parallel worker panicked");
            results.extend(out);
            tally += t;
        }
    });
    (results, tally)
}

/// Per-vertex neighbor scan with the memory shape of a decide kernel:
/// a gather over the CSR row plus a weighted accumulation.
fn scan_kernel(graph: &Graph) -> impl Fn(&VertexId, &mut MemTally) -> f64 + Sync + '_ {
    move |&v, tally| {
        let ids = graph.neighbor_ids(v);
        let ws = graph.neighbor_weights(v);
        tally.load(Space::Global, 2 * ids.len() as u64);
        let mut acc = 0.0;
        for (&u, &w) in ids.iter().zip(ws) {
            acc += w * (1.0 + (u as f64) * 1e-12);
        }
        acc
    }
}

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let gate_width = configured_threads();
    let sweep = args.thread_sweep(gate_width);
    let launch_reps = args.reps(3, 10);
    let phase1_reps = args.reps(1, 3);
    let num_graphs = args.reps(1, 2);
    let datasets = all_datasets(scale);

    println!(
        "bench_host — wall-clock launch path ({} hardware threads, gate width {gate_width})\n",
        hardware_threads()
    );

    // Table 1: one grid::launch of a decide-shaped kernel, per executor.
    let mut launch_table = Table::new(&[
        "Run",
        "Vertices",
        "Seq ns",
        "Pooled ns",
        "Seed ns",
        "vs seq",
        "vs seed",
    ]);
    // (graph, width, pooled, seq, seed) rows the gate inspects.
    let mut gate_rows: Vec<(String, usize, u128, u128, u128)> = Vec::new();
    // Launches per timed repetition: the launch path is exercised once per
    // superstep, so per-call overhead is what matters — batching keeps the
    // timer noise below it.
    const BATCH: u32 = 4;
    for (d, g) in datasets.iter().take(num_graphs) {
        let n = g.num_vertices();
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        let kernel = scan_kernel(g);

        // The three executors must agree before their times mean anything.
        let expect = grid::launch_seq(&all, &kernel);
        for &k in &sweep {
            let pooled = with_parallelism(k, || grid::launch(&all, &kernel));
            assert_eq!(pooled.outputs, expect.outputs, "pooled diverged at {k}");
            assert_eq!(pooled.tally, expect.tally, "pooled tally diverged at {k}");
            let (seed_out, seed_tally) = seed_launch(&all, k, &kernel);
            assert_eq!(seed_out, expect.outputs, "seed diverged at {k}");
            assert_eq!(seed_tally, expect.tally, "seed tally diverged at {k}");
        }

        // Two work sizes per graph: the full vertex set (a round's first
        // supersteps) and an active-set-sized slice (the long pruned tail,
        // where per-launch overhead dominates).
        let mut slices = vec![("", &all[..])];
        if n > 2048 {
            slices.push(("act", &all[..2048]));
        }
        for (suffix, items) in slices {
            let label = |k: usize| {
                if suffix.is_empty() {
                    format!("{}/t{k}", d.abbr())
                } else {
                    format!("{}-{suffix}/t{k}", d.abbr())
                }
            };
            let seq = best_of(launch_reps, || {
                for _ in 0..BATCH {
                    std::hint::black_box(grid::launch_seq(items, &kernel));
                }
            }) / BATCH;
            for &k in &sweep {
                let pooled = best_of(launch_reps, || {
                    with_parallelism(k, || {
                        for _ in 0..BATCH {
                            std::hint::black_box(grid::launch(items, &kernel));
                        }
                    })
                }) / BATCH;
                let seed = best_of(launch_reps, || {
                    for _ in 0..BATCH {
                        std::hint::black_box(seed_launch(items, k, &kernel));
                    }
                }) / BATCH;
                launch_table.row(vec![
                    label(k),
                    items.len().to_string(),
                    ns(seq).to_string(),
                    ns(pooled).to_string(),
                    ns(seed).to_string(),
                    format!("{:.2}x", ns(seq) as f64 / ns(pooled) as f64),
                    format!("{:.2}x", ns(seed) as f64 / ns(pooled) as f64),
                ]);
                gate_rows.push((label(k), k, ns(pooled), ns(seq), ns(seed)));
            }
        }
    }
    launch_table.print();

    // Table 2: end-to-end phase 1, ns per superstep, per width.
    println!("\nphase-1 supersteps (default config)\n");
    let mut phase_table = Table::new(&["Run", "Vertices", "Steps", "ns/superstep"]);
    for (d, g) in datasets.iter().take(num_graphs) {
        for &k in &sweep {
            let runner = Louvain::new(LouvainConfig::default());
            let mut steps = 0usize;
            let wall = best_of(phase1_reps, || {
                with_parallelism(k, || {
                    let (_, stats) = runner.run_phase1(g);
                    steps = stats.iterations.len();
                })
            });
            phase_table.row(vec![
                format!("{}/t{k}", d.abbr()),
                g.num_vertices().to_string(),
                steps.to_string(),
                (ns(wall) / steps.max(1) as u128).to_string(),
            ]);
        }
    }
    phase_table.print();

    let mut report = new_report("bench_host")
        .meta("gate_width", gate_width.to_string())
        .meta("hardware_threads", hardware_threads().to_string());
    launch_table.add_to_report(&mut report, "launch");
    phase_table.add_to_report(&mut report, "phase1");
    args.write_report(&report);

    // Throughput gate at the configured width only: on a single hardware
    // thread that width is 1 and the pool runs inline, so this cannot
    // flake on small CI machines.
    let tolerance = 1.15;
    let mut failures = Vec::new();
    for (row, _, pooled, seq, seed) in gate_rows.iter().filter(|(_, k, ..)| *k == gate_width) {
        if *pooled as f64 > *seq as f64 * tolerance {
            failures.push(format!(
                "{row}: pooled {pooled}ns vs seq {seq}ns (limit {tolerance}x)"
            ));
        }
        if *pooled as f64 > *seed as f64 * tolerance {
            failures.push(format!(
                "{row}: pooled {pooled}ns vs seed {seed}ns (limit {tolerance}x)"
            ));
        }
    }
    args.finish_gate(
        &failures,
        &format!("pooled launch within {tolerance}x of both references at width {gate_width}"),
    );
}
