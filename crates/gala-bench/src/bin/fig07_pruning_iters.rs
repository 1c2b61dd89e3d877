//! Figure 7: pruned proportion (inactive rate) per iteration for the SM,
//! RM, PM, MG, and MG+RM strategies on FR, LJ, OR, and UK.
//!
//! Unlike Table 1 (shared baseline trajectory), here each strategy runs its
//! *own* Louvain phase 1, exactly as in the paper's figure — PM may
//! terminate earlier (it over-prunes), and MG+RM should show the highest
//! pruning rates.

use gala_bench::{new_report, run_phase1_timed, scale_from_env, BenchArgs, Table};
use gala_core::louvain::LouvainConfig;
use gala_core::pruning::PruningKind;
use gala_graph::datasets::Dataset;

fn main() {
    let scale = scale_from_env();
    let kinds = [
        PruningKind::Strict,
        PruningKind::Relaxed,
        PruningKind::probabilistic_default(),
        PruningKind::Gain,
        PruningKind::GainRelaxed,
    ];
    let mut report = new_report("fig07_pruning_iters");
    for d in Dataset::figure7() {
        let g = d.generate(scale);
        let n = g.num_vertices() as f64;
        println!(
            "\nFigure 7 — inactive rate per iteration, {} ({} vertices)\n",
            d.abbr(),
            g.num_vertices()
        );
        let runs: Vec<_> = kinds
            .iter()
            .map(|&k| {
                run_phase1_timed(
                    &g,
                    LouvainConfig {
                        pruning: k,
                        ..LouvainConfig::paper()
                    },
                )
                .0
            })
            .collect();
        let max_iters = runs.iter().map(|r| r.iterations.len()).max().unwrap_or(0);
        let mut table = Table::new(&["Iter", "SM%", "RM%", "PM%", "MG%", "MG+RM%"]);
        for i in 0..max_iters {
            let mut row = vec![i.to_string()];
            for r in &runs {
                row.push(match r.iterations.get(i) {
                    Some(it) => format!("{:.1}", (n - it.num_active as f64) / n * 100.0),
                    None => "-".into(), // strategy already terminated
                });
            }
            table.row(row);
        }
        table.print();
        table.add_to_report(&mut report, d.abbr());
        let avg = |idx: usize| -> f64 {
            let r = &runs[idx];
            let s: f64 = r
                .iterations
                .iter()
                .map(|it| (n - it.num_active as f64) / n)
                .sum();
            s / r.iterations.len().max(1) as f64 * 100.0
        };
        println!(
            "avg inactive rate: SM {:.1}%  RM {:.1}%  PM {:.1}%  MG {:.1}%  MG+RM {:.1}%",
            avg(0),
            avg(1),
            avg(2),
            avg(3),
            avg(4)
        );
    }
    BenchArgs::parse().write_report(&report);
    println!(
        "\npaper shape: SM lowest (<4%), MG+RM highest (up to 91.9%), rates rise over iterations."
    );
}
