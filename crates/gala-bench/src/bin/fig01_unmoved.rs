//! Figure 1(b): the proportion of pruned (inactive) and unmoved vertices
//! per iteration on the LiveJournal stand-in, under MG pruning.
//!
//! The paper reports that up to 95% of vertices are unmoved in late
//! iterations and MG prunes up to 69% of them; the reproduced shape is the
//! same: both curves rise monotonically-ish toward convergence.

use gala_bench::{new_report, run_phase1_timed, scale_from_env, BenchArgs, Table};
use gala_core::louvain::LouvainConfig;
use gala_core::pruning::PruningKind;
use gala_graph::datasets::Dataset;

fn main() {
    let scale = scale_from_env();
    let g = Dataset::LJ.generate(scale);
    let n = g.num_vertices() as f64;
    println!(
        "Figure 1(b) — pruned & unmoved proportions per iteration, LJ stand-in ({} vertices)\n",
        g.num_vertices()
    );
    let (stats, _) = run_phase1_timed(
        &g,
        LouvainConfig {
            pruning: PruningKind::Gain,
            ..LouvainConfig::paper()
        },
    );
    let mut table = Table::new(&["Iter", "Pruned(inactive)%", "Unmoved%"]);
    for it in &stats.iterations {
        table.row(vec![
            it.iteration.to_string(),
            format!("{:.1}", (n - it.num_active as f64) / n * 100.0),
            format!("{:.1}", (n - it.num_moved as f64) / n * 100.0),
        ]);
    }
    table.print();
    let mut report = new_report("fig01_unmoved");
    table.add_to_report(&mut report, "lj");
    BenchArgs::parse().write_report(&report);
    println!(
        "\npaper shape: unmoved -> ~95%, pruned -> ~69% by late iterations; \
         pruned <= unmoved in every iteration (MG is FN-free)."
    );
}
