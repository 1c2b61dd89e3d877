//! Figure 5: GALA vs. the state-of-the-art baselines on all seven graphs.
//!
//! The vendors' binaries (cuGraph, Gunrock, nido, Grappolo GPU) cannot run
//! here — we re-implement their *algorithmic strategies* on the same
//! simulated GPU (see DESIGN.md substitutions):
//!
//! * `GALA`            — MG pruning + workload-aware kernels + delta update.
//! * `SortKernel`      — cuGraph-style sort-based DecideAndMove, no pruning.
//! * `GlobalHash`      — Grappolo-GPU-style global-only hashtable, no pruning.
//! * `Grappolo (CPU)`  — `LouvainConfig::grappolo()`: no pruning, host fold,
//!   naive weights, on the native pool (no simulator overhead).
//! * `Sequential`      — classic Blondel Louvain.
//!
//! Reported per graph: phase-1 wall time (host), simulated GPU cycles
//! (kernels only), and the speedup of GALA over each baseline. Paper claims
//! to reproduce: GALA fastest on every graph; sort-based slowest of the GPU
//! strategies (paper: 17–53× vs. cuGraph/Gunrock); CPU baselines far behind
//! (222× vs. Grappolo CPU on wall time at the paper's scale).

use gala_bench::{
    all_datasets, eng, ms, new_report, run_phase1_timed, scale_from_env, time, BenchArgs, Table,
};
use gala_core::kernels::hashtable::{HashConfig, HashTableKind};
use gala_core::kernels::KernelKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::pruning::PruningKind;
use gala_core::sequential::{sequential_louvain, SequentialConfig};
use gala_core::weight::WeightUpdateMode;
use gala_gpu::memory::CostModel;

fn main() {
    let scale = scale_from_env();
    let cost = CostModel::default();
    println!("Figure 5 — GALA vs state-of-the-art strategies ({scale:?} scale)\n");
    let mut table = Table::new(&[
        "Graph",
        "GALA ms",
        "GALA cyc",
        "Sort ms",
        "Sort cyc",
        "GlobalHash ms",
        "GlobalHash cyc",
        "GrappoloCPU ms",
        "Sequential ms",
    ]);
    let mut sums = [0.0f64; 4]; // speedup accumulators: sort, ghash, cpu, seq
    let mut count = 0usize;
    for (d, g) in all_datasets(scale) {
        let gala_cfg = LouvainConfig::paper();
        let (gala_stats, gala_wall) = run_phase1_timed(&g, gala_cfg);
        let gala_cyc = cost.cycles(&gala_stats.total_tally());

        let sort_cfg = LouvainConfig {
            pruning: PruningKind::None,
            kernel: KernelKind::Sort,
            weight_update: WeightUpdateMode::Naive,
            ..LouvainConfig::paper()
        };
        let (sort_stats, sort_wall) = run_phase1_timed(&g, sort_cfg);
        let sort_cyc = cost.cycles(&sort_stats.total_tally());

        let ghash_cfg = LouvainConfig {
            pruning: PruningKind::None,
            kernel: KernelKind::Hash(HashConfig {
                kind: HashTableKind::GlobalOnly,
                shared_buckets: 0,
            }),
            weight_update: WeightUpdateMode::Naive,
            ..LouvainConfig::paper()
        };
        let (ghash_stats, ghash_wall) = run_phase1_timed(&g, ghash_cfg);
        let ghash_cyc = cost.cycles(&ghash_stats.total_tally());

        let (_, cpu_wall) = time(|| Louvain::new(LouvainConfig::grappolo()).run_phase1(&g));
        let (_, seq_wall) = time(|| {
            sequential_louvain(
                &g,
                SequentialConfig {
                    max_rounds: 1,
                    ..SequentialConfig::default()
                },
            )
        });

        table.row(vec![
            d.abbr().into(),
            ms(gala_wall),
            eng(gala_cyc),
            ms(sort_wall),
            eng(sort_cyc),
            ms(ghash_wall),
            eng(ghash_cyc),
            ms(cpu_wall),
            ms(seq_wall),
        ]);
        sums[0] += sort_cyc / gala_cyc;
        sums[1] += ghash_cyc / gala_cyc;
        sums[2] += cpu_wall.as_secs_f64() / gala_wall.as_secs_f64();
        sums[3] += seq_wall.as_secs_f64() / gala_wall.as_secs_f64();
        count += 1;
    }
    table.print();
    let mut report = new_report("fig05_sota");
    table.add_to_report(&mut report, "sota");
    BenchArgs::parse().write_report(&report);
    let n = count as f64;
    println!(
        "\nGALA speedups (avg, simulated device cycles): {:.1}x vs sort-kernel \
         (cuGraph-style), {:.1}x vs global-hash (Grappolo-GPU-style).",
        sums[0] / n,
        sums[1] / n
    );
    println!(
        "paper: 17x cuGraph, 53x Gunrock, 6x Grappolo(GPU)*. The CPU columns \
         (Grappolo CPU {:.1}x, sequential {:.1}x relative to GALA's *host* wall \
         time) are reference only: the simulated kernels pay host-side \
         accounting overhead, so wall-clock cannot reproduce the paper's 222x \
         GPU-vs-CPU gap — the cycle model is the comparable currency.",
        sums[2] / n,
        sums[3] / n
    );
}
