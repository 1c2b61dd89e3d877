//! Multi-device partitioned phase-2 contraction benchmark.
//!
//! Runs the partitioned contraction ([`gala_core::mg_contract`]) on real
//! phase-1 partitions of the stand-in graphs across 1/2/4/8 simulated
//! devices: every device renumbers and aggregates its slice of coarse
//! rows, ghost rows travel through the modelled all-to-all, and the
//! assembled CSR must match the host `coarsen_into` **bit for bit** before
//! any number is printed. The table reports the modelled per-device
//! compute time, the exchange/assembly communication time, and the native
//! backend's measured wall time per device count.
//!
//! `--gate` enforces two scale-robust floors:
//! * at 1 device the native partitioned path is within `tolerance` of the
//!   plain host contraction (the partitioning layer is free when there is
//!   nothing to partition), and
//! * the modelled compute time at 4 devices lands in a sanity band around
//!   the ideal 0.25x of the 1-device time (balanced row partitioning).
//!
//! ```text
//! GALA_SCALE=test bench_mg_contract --quick --gate --report BENCH_mg_contract.json
//! ```

use gala_bench::{
    all_datasets, best_of, hardware_threads, new_report, scale_from_env, BenchArgs, Table,
};
use gala_core::backend::BackendKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::mg_contract::contract_partitioned;
use gala_core::multi_gpu::SyncMode;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{coarsen_into, CoarsenScratch, Coarsened};
use gala_graph::{Graph, Partition};

fn fingerprint(c: &Coarsened) -> (usize, Vec<u32>, Vec<usize>, Vec<u32>, Vec<u64>) {
    (
        c.num_communities,
        c.renumbered.assignment().to_vec(),
        c.graph.offsets().to_vec(),
        c.graph.targets().to_vec(),
        c.graph.weights().iter().map(|w| w.to_bits()).collect(),
    )
}

fn config(devices: usize, backend: BackendKind) -> LouvainConfig {
    LouvainConfig {
        devices,
        backend,
        sync: SyncMode::Adaptive,
        ..LouvainConfig::paper()
    }
}

/// One partitioned contraction with the coarse buffers recycled back into
/// the scratch (the steady-state loop `Louvain::run` runs).
fn contract_once(
    graph: &Graph,
    partition: &Partition,
    cfg: &LouvainConfig,
    scratch: &mut CoarsenScratch,
) -> gala_core::mg_contract::ContractRoundStats {
    let (coarse, stats) = contract_partitioned(
        graph,
        partition,
        cfg,
        cfg.backend.resolve(),
        &mut Profiler::disabled(),
        scratch,
    );
    scratch.reclaim_assignment(coarse.renumbered);
    scratch.reclaim_graph(coarse.graph);
    stats
}

fn main() {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    let device_counts = [1usize, 2, 4, 8];
    let reps = args.reps(2, 6);
    let num_graphs = args.reps(2, 4);
    let datasets = all_datasets(scale);

    println!(
        "bench_mg_contract — partitioned multi-device phase-2 contraction ({scale:?} scale)\n"
    );

    let mut table = Table::new(&[
        "Run",
        "Devices",
        "Rows",
        "Ghost rows",
        "Compute us",
        "Exchange us",
        "Total us",
        "Speedup",
        "Native ns",
    ]);
    // (row label, devices, modelled compute us, modelled total us,
    //  native ns, host ns) for the gate.
    let mut gate_rows: Vec<(String, usize, f64, f64, u128, u128)> = Vec::new();
    for (d, g) in datasets.iter().take(num_graphs) {
        // A real first-round partition: the ghost-row distribution is what
        // the exchange model actually sees.
        let partition = Louvain::new(LouvainConfig::paper())
            .run_phase1(g)
            .0
            .partition();
        let reference = fingerprint(&coarsen_into(g, &partition, &mut CoarsenScratch::default()));

        // The host path's wall time is the 1-device parity baseline.
        let mut host_scratch = CoarsenScratch::default();
        let host_ns = best_of(reps, || {
            let c = coarsen_into(g, &partition, &mut host_scratch);
            host_scratch.reclaim_assignment(c.renumbered);
            host_scratch.reclaim_graph(c.graph);
        })
        .as_nanos();

        let mut total_at_1 = f64::NAN;
        for &p in &device_counts {
            // Bit-identity before timing, on both backends.
            for backend in [BackendKind::Sim, BackendKind::Native] {
                let (coarse, stats) = contract_partitioned(
                    g,
                    &partition,
                    &config(p, backend),
                    backend.resolve(),
                    &mut Profiler::disabled(),
                    &mut CoarsenScratch::default(),
                );
                assert_eq!(
                    fingerprint(&coarse),
                    reference,
                    "{}: partitioned contraction diverged at {p} devices ({backend})",
                    d.abbr()
                );
                // The sparse exchange model must agree with the ghost rows
                // it was derived from.
                assert_eq!(
                    stats.sparse_bytes,
                    stats.ghost_members * 8 + stats.ghost_arcs * 12,
                    "{}: exchange byte model inconsistent at {p} devices",
                    d.abbr()
                );
            }

            // Modelled times come from the simulated backend's tallies.
            let mut scratch = CoarsenScratch::default();
            let sim_cfg = config(p, BackendKind::Sim);
            let stats = contract_once(g, &partition, &sim_cfg, &mut scratch);
            let total_us = stats.total_us();
            if p == 1 {
                total_at_1 = total_us;
            }

            // The native backend's measured wall time at the same width.
            let mut native_scratch = CoarsenScratch::default();
            let native_cfg = config(p, BackendKind::Native);
            let native_ns = best_of(reps, || {
                contract_once(g, &partition, &native_cfg, &mut native_scratch);
            })
            .as_nanos();

            let label = format!("{}/p{p}", d.abbr());
            table.row(vec![
                label.clone(),
                p.to_string(),
                stats.rows.to_string(),
                stats.ghost_members.to_string(),
                format!("{:.1}", stats.compute_us),
                format!("{:.1}", stats.comm_us()),
                format!("{total_us:.1}"),
                format!("{:.2}x", total_at_1 / total_us),
                native_ns.to_string(),
            ]);
            gate_rows.push((label, p, stats.compute_us, total_us, native_ns, host_ns));
        }
    }
    table.print();

    let mut report =
        new_report("bench_mg_contract").meta("hardware_threads", hardware_threads().to_string());
    table.add_to_report(&mut report, "mg_contract");
    args.write_report(&report);

    // 1-device parity is an algorithmic claim (the partitioning layer
    // degenerates to one whole-range aggregation, and the collectives are
    // free at p = 1), so it cannot flake on a loaded CI machine the way a
    // cross-width speedup could. The 4-device band checks the row
    // partitioning actually balances modelled compute without gating on
    // the comm-dominated total.
    let tolerance = 1.35;
    let band = (0.15, 0.65);
    let mut failures = Vec::new();
    for (row, p, compute_us, _total, native_ns, host_ns) in &gate_rows {
        if *p == 1 && *native_ns as f64 > *host_ns as f64 * tolerance {
            failures.push(format!(
                "{row}: native partitioned {native_ns}ns vs host {host_ns}ns (limit {tolerance}x)"
            ));
        }
        if *p == 4 {
            let graph = row.rsplit_once("/p").map(|(g, _)| g).unwrap_or(row);
            let base = gate_rows
                .iter()
                .find(|(r, q, ..)| *q == 1 && r.rsplit_once("/p").map(|(x, _)| x) == Some(graph))
                .map(|(_, _, c, ..)| *c);
            let base = match base {
                Some(c) if c > 0.0 => c,
                _ => continue,
            };
            let ratio = compute_us / base;
            if !(band.0..=band.1).contains(&ratio) {
                failures.push(format!(
                    "{row}: modelled compute ratio {ratio:.2} vs 1 device outside [{}, {}]",
                    band.0, band.1
                ));
            }
        }
    }
    args.finish_gate(
        &failures,
        &format!(
            "1-device native within {tolerance}x of host; \
             4-device modelled compute in [{}, {}] of 1 device",
            band.0, band.1
        ),
    );
}
