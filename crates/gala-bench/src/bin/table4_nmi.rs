//! Table 4: NMI against LFR ground truth under each pruning strategy.
//!
//! The paper generates three 100k-vertex LFR graphs; we mirror their
//! flavours (same vertex count, edge counts in the same ballpark, low /
//! high / medium modularity regimes via the mixing parameter). Claims to
//! reproduce: baseline = MG = SM NMI; RM and PM slightly lower (paper:
//! −0.2% / −0.3% on average).

use gala_bench::{new_report, scale_from_env, BenchArgs, Table};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::metrics::nmi;
use gala_core::pruning::PruningKind;
use gala_graph::datasets::Scale;
use gala_graph::generators::lfr::LfrParams;

fn main() {
    let scale = scale_from_env();
    let n = match scale {
        Scale::Test => 5_000,
        Scale::Full => 100_000,
    };
    // Graph1: sparse, weak communities (paper Q 0.35); Graph2: strong
    // communities (Q 0.92); Graph3: dense but blurred (Q 0.43).
    let configs = [
        (
            "Graph1",
            LfrParams {
                num_vertices: n,
                min_degree: 5,
                max_degree: 50,
                degree_exponent: 2.5,
                min_community: 20,
                max_community: 200,
                community_exponent: 1.5,
                mixing: 0.55,
            },
        ),
        (
            "Graph2",
            LfrParams {
                num_vertices: n,
                min_degree: 15,
                max_degree: 80,
                degree_exponent: 2.5,
                min_community: 30,
                max_community: 300,
                community_exponent: 1.5,
                mixing: 0.05,
            },
        ),
        (
            "Graph3",
            LfrParams {
                num_vertices: n,
                min_degree: 15,
                max_degree: 80,
                degree_exponent: 2.5,
                min_community: 30,
                max_community: 300,
                community_exponent: 1.5,
                mixing: 0.45,
            },
        ),
    ];
    let kinds = [
        PruningKind::None,
        PruningKind::Gain,
        PruningKind::Strict,
        PruningKind::Relaxed,
        PruningKind::probabilistic_default(),
    ];
    println!("Table 4 — NMI vs LFR ground truth ({scale:?} scale, n = {n})\n");
    let mut table = Table::new(&[
        "Graph",
        "#Vertices",
        "#Edges",
        "Baseline",
        "MG",
        "SM",
        "RM",
        "PM",
    ]);
    for (name, params) in configs {
        let gt = params.generate(0x1F2);
        let mut row = vec![
            name.to_string(),
            gt.graph.num_vertices().to_string(),
            gt.graph.num_edges().to_string(),
        ];
        for &k in &kinds {
            let result = Louvain::new(LouvainConfig {
                pruning: k,
                ..LouvainConfig::paper()
            })
            .run(&gt.graph);
            row.push(format!("{:.5}", nmi(&result.partition, &gt.ground_truth)));
        }
        table.row(row);
    }
    table.print();
    let mut report = new_report("table4_nmi");
    table.add_to_report(&mut report, "table4");
    BenchArgs::parse().write_report(&report);
    println!("\npaper: Baseline/MG/SM identical; RM −0.2% and PM −0.3% on average.");
}
