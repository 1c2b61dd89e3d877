//! Figure 8: runtime breakdown of the two-stage pruning optimisation.
//!
//! Three configurations on each graph:
//!
//! * `B` — baseline: no pruning, naive weight maintenance.
//! * `P1` — MG pruning of DecideAndMove, still naive weight maintenance:
//!   the weight update becomes the new bottleneck (paper: 45.7% of
//!   runtime).
//! * `P2` — MG pruning *and* the delta weight update: maintenance collapses
//!   (paper: 7.3× faster weight updating), DecideAndMove dominates
//!   again.
//!
//! Reported: % of *simulated device cycles* spent in DecideAndMove vs. the
//! weight-maintenance kernel (both phases are GPU kernels in GALA; host
//! wall-clock would mis-weigh them because the host-side weight scan pays
//! no simulation overhead).

use gala_bench::{new_report, run_phase1_timed, scale_from_env, BenchArgs, Table};
use gala_core::louvain::{LouvainConfig, RoundStats};
use gala_core::pruning::PruningKind;
use gala_core::weight::WeightUpdateMode;
use gala_gpu::memory::CostModel;
use gala_graph::datasets::Dataset;

fn breakdown(stats: &RoundStats) -> (f64, f64, f64) {
    let cost = CostModel::default();
    let decide = cost.cycles(&stats.decide_tally());
    let weight = cost.cycles(&stats.weight_tally());
    let total = (decide + weight).max(1e-12);
    (decide / total * 100.0, weight / total * 100.0, total)
}

fn main() {
    let scale = scale_from_env();
    let mut report = new_report("fig08_breakdown");
    for d in [Dataset::LJ, Dataset::OR] {
        let g = d.generate(scale);
        println!(
            "\nFigure 8 — two-stage pruning breakdown, {} ({} vertices)\n",
            d.abbr(),
            g.num_vertices()
        );
        let configs = [
            (
                "B",
                LouvainConfig {
                    pruning: PruningKind::None,
                    weight_update: WeightUpdateMode::Naive,
                    ..LouvainConfig::paper()
                },
            ),
            (
                "P1",
                LouvainConfig {
                    pruning: PruningKind::Gain,
                    weight_update: WeightUpdateMode::Naive,
                    ..LouvainConfig::paper()
                },
            ),
            (
                "P2",
                LouvainConfig {
                    pruning: PruningKind::Gain,
                    weight_update: WeightUpdateMode::Delta,
                    ..LouvainConfig::paper()
                },
            ),
        ];
        let mut table = Table::new(&["Stage", "DecideAndMove%", "WeightUpdate%", "Total Gcyc"]);
        let mut weight_cycles = Vec::new();
        let cost = CostModel::default();
        for (label, cfg) in configs {
            let (stats, _) = run_phase1_timed(&g, cfg);
            let (dec, wei, total) = breakdown(&stats);
            weight_cycles.push(cost.cycles(&stats.weight_tally()));
            table.row(vec![
                label.into(),
                format!("{dec:.1}"),
                format!("{wei:.1}"),
                format!("{:.2}", total / 1e9),
            ]);
        }
        table.print();
        table.add_to_report(&mut report, d.abbr());
        if weight_cycles[2] > 0.0 {
            println!(
                "weight-update speedup P1 -> P2: {:.1}x (paper: 7.3x)",
                weight_cycles[1] / weight_cycles[2]
            );
        }
    }
    BenchArgs::parse().write_report(&report);
    println!("\npaper shape: B decide-dominated (65.5%), P1 weight-update-heavy (45.7%), P2 decide-dominated again.");
}
