//! Figure 10: multi-GPU scalability.
//!
//! * (a) speedup of phase 1 from 1 → 8 simulated devices on every graph
//!   (paper: 2.5× average at 8 GPUs — sublinear because communication
//!   stays roughly constant while compute shrinks).
//! * (b) compute vs. communication breakdown on the OR graph.
//! * (c) full-hierarchy per-phase breakdown (phase 1 / contract /
//!   exchange) under the partitioned multi-device contraction, OR graph.

use gala_bench::{all_datasets, new_report, scale_from_env, BenchArgs, Table};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::multi_gpu::{ContractMode, SyncMode};
use gala_graph::datasets::Dataset;

/// GALA on `devices` simulated devices with adaptive sync.
fn on(devices: usize, contract: ContractMode) -> Louvain {
    Louvain::new(LouvainConfig {
        devices,
        sync: SyncMode::Adaptive,
        contract,
        ..LouvainConfig::paper()
    })
}

fn main() {
    let scale = scale_from_env();
    let device_counts = [1usize, 2, 4, 8];
    println!("Figure 10(a) — modelled phase-1 speedup vs 1 device ({scale:?} scale)\n");
    let mut table = Table::new(&["Graph", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"]);
    let mut avg8 = 0.0f64;
    let datasets = all_datasets(scale);
    for (d, g) in &datasets {
        let times: Vec<f64> = device_counts
            .iter()
            .map(|&p| on(p, ContractMode::Host).run_phase1(g).1.total_us())
            .collect();
        let mut row = vec![d.abbr().to_string()];
        for t in &times {
            row.push(format!("{:.2}x", times[0] / t));
        }
        avg8 += times[0] / times[3];
        table.row(row);
    }
    table.print();
    let mut report = new_report("fig10_scaling");
    table.add_to_report(&mut report, "fig10a");
    println!(
        "\navg speedup at 8 devices: {:.2}x (paper: 2.5x)\n",
        avg8 / datasets.len() as f64
    );

    println!("Figure 10(b) — compute vs communication breakdown, OR stand-in\n");
    let g = Dataset::OR.generate(scale);
    let mut table = Table::new(&["GPUs", "Compute us", "Comm us", "Comm %"]);
    let mut computes = Vec::new();
    for &p in &device_counts {
        let (_, r) = on(p, ContractMode::Host).run_phase1(&g);
        computes.push(r.compute_us());
        table.row(vec![
            p.to_string(),
            format!("{:.0}", r.compute_us()),
            format!("{:.0}", r.comm_us()),
            format!("{:.0}%", r.comm_us() / r.total_us().max(1e-9) * 100.0),
        ]);
    }
    table.print();
    table.add_to_report(&mut report, "fig10b");
    println!(
        "\ncompute reduction 1 -> 8 devices: {:.1}x (paper: 4.4x); \
         paper: comm ~constant, 43% of runtime at 8 GPUs.",
        computes[0] / computes[3]
    );

    println!("\nFigure 10(c) — full hierarchy per-phase breakdown, partitioned contraction, OR stand-in\n");
    let mut table = Table::new(&[
        "GPUs",
        "Phase1 us",
        "Contract us",
        "Exchange us",
        "Total us",
        "Contract %",
    ]);
    for &p in &device_counts {
        let r = on(p, ContractMode::Partitioned).run(&g);
        let phase1: f64 = r.rounds.iter().map(|r| r.total_us()).sum();
        let contract: f64 = r.contracts.iter().map(|c| c.compute_us).sum();
        let exchange: f64 = r.contracts.iter().map(|c| c.comm_us()).sum();
        let total = phase1 + contract + exchange;
        table.row(vec![
            p.to_string(),
            format!("{phase1:.0}"),
            format!("{contract:.0}"),
            format!("{exchange:.0}"),
            format!("{total:.0}"),
            format!("{:.0}%", (contract + exchange) / total.max(1e-9) * 100.0),
        ]);
    }
    table.print();
    table.add_to_report(&mut report, "fig10c");
    BenchArgs::parse().write_report(&report);
}
