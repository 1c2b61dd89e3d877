//! Figure 6: impact of GALA's two optimisations on every graph.
//!
//! * `Baseline` — no pruning, global-only hashtable, naive weight update.
//! * `+MG` — adds modularity-gain pruning (and the Section 3.5 delta
//!   weight update that makes it pay off).
//! * `+MG+MM` — adds the memory-management optimisation (workload-aware
//!   shuffle/hash dispatch with the hierarchical hashtable).
//!
//! Paper claims to reproduce: MG alone ≈2.4× (better on larger graphs);
//! MM adds ≈1.4×; combined ≈3.4×.

use gala_bench::{
    all_datasets, ms, new_report, run_phase1_timed, scale_from_env, BenchArgs, Table,
};
use gala_core::kernels::hashtable::HashConfig;
use gala_core::kernels::KernelKind;
use gala_core::louvain::LouvainConfig;
use gala_core::pruning::PruningKind;
use gala_core::weight::WeightUpdateMode;
use gala_gpu::memory::CostModel;

fn main() {
    let scale = scale_from_env();
    let cost = CostModel::default();
    println!("Figure 6 — impact of the MG and MM optimisations ({scale:?} scale)\n");
    let mut table = Table::new(&[
        "Graph",
        "Base ms",
        "+MG ms",
        "+MG+MM ms",
        "MG x (cyc)",
        "MM x (cyc)",
        "Total x (cyc)",
    ]);
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for (d, g) in all_datasets(scale) {
        let base_cfg = LouvainConfig::baseline();
        let mg_cfg = LouvainConfig {
            pruning: PruningKind::Gain,
            weight_update: WeightUpdateMode::Delta,
            ..LouvainConfig::baseline()
        };
        let full_cfg = LouvainConfig {
            pruning: PruningKind::Gain,
            weight_update: WeightUpdateMode::Delta,
            kernel: KernelKind::WorkloadAware(HashConfig::default()),
            ..LouvainConfig::paper()
        };
        let (base, base_wall) = run_phase1_timed(&g, base_cfg);
        let (mg, mg_wall) = run_phase1_timed(&g, mg_cfg);
        let (full, full_wall) = run_phase1_timed(&g, full_cfg);
        let (bc, mc, fc) = (
            cost.cycles(&base.total_tally()),
            cost.cycles(&mg.total_tally()),
            cost.cycles(&full.total_tally()),
        );
        table.row(vec![
            d.abbr().into(),
            ms(base_wall),
            ms(mg_wall),
            ms(full_wall),
            format!("{:.2}", bc / mc),
            format!("{:.2}", mc / fc),
            format!("{:.2}", bc / fc),
        ]);
        sums[0] += bc / mc;
        sums[1] += mc / fc;
        sums[2] += bc / fc;
        count += 1;
    }
    table.print();
    let mut report = new_report("fig06_ablation");
    table.add_to_report(&mut report, "ablation");
    BenchArgs::parse().write_report(&report);
    let n = count as f64;
    println!(
        "\navg speedups (simulated cycles): MG {:.2}x, MM {:.2}x, total {:.2}x \
         (paper: 2.4x / 1.4x / 3.4x).",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
}
