//! Table 3: final modularity of full Louvain runs under each pruning
//! strategy.
//!
//! Paper claims to reproduce: Baseline, MG, and SM yield *identical*
//! modularity (both are FN-free); RM and PM lose a small amount (paper
//! averages: 0.00119 and 0.00413).

use gala_bench::{all_datasets, new_report, scale_from_env, BenchArgs, Table};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::pruning::PruningKind;

fn main() {
    let scale = scale_from_env();
    println!("Table 3 — modularity by pruning strategy ({scale:?} scale)\n");
    let kinds = [
        PruningKind::None,
        PruningKind::Gain,
        PruningKind::Strict,
        PruningKind::Relaxed,
        PruningKind::probabilistic_default(),
    ];
    let mut table = Table::new(&[
        "Graph",
        "Baseline",
        "MG",
        "SM",
        "RM (loss)",
        "PM (loss)",
        "PaperQ",
    ]);
    let mut rm_losses = Vec::new();
    let mut pm_losses = Vec::new();
    for (d, g) in all_datasets(scale) {
        let qs: Vec<f64> = kinds
            .iter()
            .map(|&k| {
                Louvain::new(LouvainConfig {
                    pruning: k,
                    ..LouvainConfig::paper()
                })
                .run(&g)
                .modularity
            })
            .collect();
        rm_losses.push(qs[0] - qs[3]);
        pm_losses.push(qs[0] - qs[4]);
        table.row(vec![
            d.abbr().into(),
            format!("{:.5}", qs[0]),
            format!("{:.5}", qs[1]),
            format!("{:.5}", qs[2]),
            format!("{:.5} ({:.5})", qs[3], qs[0] - qs[3]),
            format!("{:.5} ({:.5})", qs[4], qs[0] - qs[4]),
            format!("{:.5}", d.paper_modularity()),
        ]);
    }
    table.print();
    let mut report = new_report("table3_modularity");
    table.add_to_report(&mut report, "table3");
    BenchArgs::parse().write_report(&report);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\navg loss: RM {:.5}, PM {:.5} (paper: 0.00119 / 0.00413); \
         Baseline == MG == SM must hold exactly.",
        avg(&rm_losses),
        avg(&pm_losses)
    );
}
