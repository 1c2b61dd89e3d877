//! Figure 4: shared-memory maintenance rate and access rate of the unified
//! vs. hierarchical hashtable, iteration by iteration, on the LiveJournal
//! stand-in.
//!
//! Paper claims to reproduce: hierarchical ≫ unified on both rates (≈4.7×
//! access-rate gap); hierarchical rates *increase* over iterations (fewer
//! communities → more fit in shared memory) while unified stays flat; the
//! access rate exceeds the maintenance rate (hot communities live in
//! shared memory).

use gala_bench::{new_report, run_phase1_timed, scale_from_env, BenchArgs, Table};
use gala_core::kernels::hashtable::{HashConfig, HashTableKind};
use gala_core::kernels::KernelKind;
use gala_core::louvain::LouvainConfig;
use gala_core::pruning::PruningKind;
use gala_graph::datasets::Dataset;

fn main() {
    let scale = scale_from_env();
    let g = Dataset::LJ.generate(scale);
    println!(
        "Figure 4 — shared-memory rates of the hashtable designs, LJ stand-in ({} vertices)\n",
        g.num_vertices()
    );
    // Small shared table so placement pressure is visible, pure hash kernel
    // so every vertex exercises the table.
    let shared_buckets = 16;
    let run = |kind: HashTableKind| {
        let cfg = LouvainConfig {
            pruning: PruningKind::None,
            kernel: KernelKind::Hash(HashConfig {
                kind,
                shared_buckets,
            }),
            ..LouvainConfig::paper()
        };
        run_phase1_timed(&g, cfg).0
    };
    let uni = run(HashTableKind::Unified);
    let hier = run(HashTableKind::Hierarchical);
    let mut table = Table::new(&[
        "Iter",
        "Unified maint%",
        "Unified access%",
        "Hier maint%",
        "Hier access%",
    ]);
    let iters = uni.iterations.len().min(hier.iterations.len());
    let mut gains = Vec::new();
    for i in 0..iters {
        let u = uni.iterations[i].hash_stats;
        let h = hier.iterations[i].hash_stats;
        table.row(vec![
            i.to_string(),
            format!("{:.1}", u.maintenance_rate() * 100.0),
            format!("{:.1}", u.access_rate() * 100.0),
            format!("{:.1}", h.maintenance_rate() * 100.0),
            format!("{:.1}", h.access_rate() * 100.0),
        ]);
        if u.access_rate() > 0.0 {
            gains.push(h.access_rate() / u.access_rate());
        }
    }
    table.print();
    let mut report = new_report("fig04_hashtable_rates");
    table.add_to_report(&mut report, "lj");
    BenchArgs::parse().write_report(&report);
    if !gains.is_empty() {
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        println!("\nhierarchical / unified access-rate ratio: {avg:.1}x (paper: 4.7x)");
    }
}
