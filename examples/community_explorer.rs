//! Community exploration workflow: build the full dendrogram, pick a level,
//! drill into one community with induced subgraphs, and characterise it
//! with conductance and connectivity — the "downstream user" workflow the
//! library is meant to serve.
//!
//! ```sh
//! cargo run --release --example community_explorer
//! ```

use gala::core::hierarchy::Dendrogram;
use gala::core::louvain::LouvainConfig;
use gala::core::validation::conductance;
use gala::graph::generators::sbm::PowerLawSbm;
use gala::graph::subgraph::community_subgraph;
use gala::graph::traversal::connected_components;

fn main() {
    let gt = PowerLawSbm {
        num_vertices: 10_000,
        min_community: 20,
        max_community: 500,
        size_exponent: 2.0,
        internal_degree: 9.0,
        mixing: 0.15,
    }
    .generate(21);
    let graph = gt.graph;
    println!(
        "graph: {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 1. The full hierarchy, not just the final cut.
    let dendrogram = Dendrogram::build(&graph, LouvainConfig::default());
    println!("dendrogram levels:");
    for lvl in 0..dendrogram.num_levels() {
        println!(
            "  level {lvl}: {:>5} communities, Q = {:.4}",
            dendrogram.level(lvl).num_communities(),
            dendrogram.modularity_at(lvl)
        );
    }

    // 2. Pick the final level and drill into its largest community.
    let partition = dendrogram.final_partition();
    let (ids, members) = partition.groups();
    let (largest_id, largest) = ids
        .iter()
        .zip(&members)
        .max_by_key(|(_, m)| m.len())
        .expect("nonempty graph");
    println!(
        "\nlargest community: id {largest_id}, {} members, conductance {:.4}",
        largest.len(),
        conductance(&graph, partition, *largest_id).unwrap()
    );

    // 3. The community as a standalone graph.
    let sub = community_subgraph(&graph, partition, *largest_id);
    let (_, pieces) = connected_components(&sub.graph);
    println!(
        "  induced subgraph: {} edges, {} connected piece(s)",
        sub.graph.num_edges(),
        pieces
    );
    assert_eq!(sub.graph.num_vertices(), largest.len());
}
