//! Host-side wall-clock benchmark of the phase-2 contraction path.
//!
//! The seed contraction (`gala_graph::coarsen::coarsen`) renumbers through
//! a `HashMap`, accumulates super-edges in a `HashMap<(min, max), f64>` and
//! finalises through the general `GraphBuilder` — allocating everything
//! afresh each round. The pooled path (`coarsen_into`) replaces all of that
//! with a counting-sort pipeline over a recycled [`CoarsenScratch`]:
//! histogram renumbering, per-community binning, flat stamp-map dedup
//! written straight into pre-sized CSR buffers.
//!
//! This binary times both on real phase-1 partitions of the stand-in
//! graphs, checks they agree before any number is printed, and reports
//! ns/arc per pool width. `--gate` enforces the PR's throughput floor:
//! never slower than the seed at width 1, and at least 2x faster at the
//! width-8 row.
//!
//! ```text
//! GALA_SCALE=test bench_contract --quick --gate --report BENCH_contract.json
//! ```

use gala_bench::{
    all_datasets, best_of, hardware_threads, new_report, scale_from_env, BenchArgs, Table,
};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_graph::coarsen::{coarsen, coarsen_into, CoarsenScratch};
use rayon::{configured_threads, with_parallelism};
use std::time::Duration;

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let gate_width = configured_threads();
    let sweep = args.thread_sweep(gate_width);
    let reps = args.reps(3, 10);
    let num_graphs = args.reps(2, 4);
    let datasets = all_datasets(scale);

    println!(
        "bench_contract — wall-clock phase-2 contraction ({} hardware threads, gate width {gate_width})\n",
        hardware_threads()
    );

    let mut table = Table::new(&[
        "Run",
        "Vertices",
        "Arcs",
        "Comms",
        "Seed ns",
        "Pooled ns",
        "ns/arc",
        "Speedup",
    ]);
    // (row label, width, pooled ns, seed ns) for the gate.
    let mut gate_rows: Vec<(String, usize, u128, u128)> = Vec::new();
    for (d, g) in datasets.iter().take(num_graphs) {
        // A real first-round partition, not a synthetic one: the community
        // size distribution is what the dedup maps and binning actually see.
        let (state, _) = Louvain::new(LouvainConfig::default()).run_phase1(g);
        let partition = state.partition();
        let arcs = g.num_arcs().max(1);

        // Both paths must agree at every width before their times mean
        // anything. Structure is exact; weights may differ only by f64
        // summation order.
        let reference = coarsen(g, &partition);
        for &k in &sweep {
            let got = with_parallelism(k, || {
                let mut scratch = CoarsenScratch::default();
                coarsen_into(g, &partition, &mut scratch)
            });
            assert_eq!(
                got.num_communities, reference.num_communities,
                "community count diverged at width {k}"
            );
            assert_eq!(
                got.renumbered, reference.renumbered,
                "renumbering diverged at width {k}"
            );
            assert_eq!(
                got.graph.offsets(),
                reference.graph.offsets(),
                "coarse offsets diverged at width {k}"
            );
            assert_eq!(
                got.graph.targets(),
                reference.graph.targets(),
                "coarse targets diverged at width {k}"
            );
            for (a, b) in got.graph.weights().iter().zip(reference.graph.weights()) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "coarse weight diverged at width {k}: {a} vs {b}"
                );
            }
        }

        // The seed path is sequential; time it once per graph.
        let seed_ns = ns(best_of(reps, || {
            std::hint::black_box(coarsen(g, &partition));
        }));
        for &k in &sweep {
            // Steady-state loop: the coarse graph's buffers flow back into
            // the scratch, so after the warmup no iteration allocates.
            let mut scratch = CoarsenScratch::default();
            let pooled_ns = ns(best_of(reps, || {
                with_parallelism(k, || {
                    let c = coarsen_into(g, &partition, &mut scratch);
                    scratch.reclaim_assignment(c.renumbered);
                    scratch.reclaim_graph(c.graph);
                })
            }));
            let label = format!("{}/t{k}", d.abbr());
            table.row(vec![
                label.clone(),
                g.num_vertices().to_string(),
                arcs.to_string(),
                reference.num_communities.to_string(),
                seed_ns.to_string(),
                pooled_ns.to_string(),
                format!("{:.2}", pooled_ns as f64 / arcs as f64),
                format!("{:.2}x", seed_ns as f64 / pooled_ns as f64),
            ]);
            gate_rows.push((label, k, pooled_ns, seed_ns));
        }
    }
    table.print();

    let mut report = new_report("bench_contract")
        .meta("gate_width", gate_width.to_string())
        .meta("hardware_threads", hardware_threads().to_string());
    table.add_to_report(&mut report, "contract");
    args.write_report(&report);

    // Width 1 runs the pipeline inline, so "never slower than the seed"
    // is an algorithmic claim (counting sort vs HashMap) that cannot flake
    // on a single-core CI machine; the 2x floor at the width-8 row is the
    // headline.
    let tolerance = 1.15;
    let floor = 2.0;
    let mut failures = Vec::new();
    for (row, k, pooled, seed) in &gate_rows {
        if *k == 1 && *pooled as f64 > *seed as f64 * tolerance {
            failures.push(format!(
                "{row}: pooled {pooled}ns vs seed {seed}ns (limit {tolerance}x)"
            ));
        }
        if *k == 8 && (*seed as f64) < *pooled as f64 * floor {
            failures.push(format!(
                "{row}: pooled {pooled}ns vs seed {seed}ns (floor {floor}x)"
            ));
        }
    }
    args.finish_gate(
        &failures,
        &format!(
            "pooled contraction within {tolerance}x of seed at width 1, >= {floor}x at width 8"
        ),
    );
}
