//! Cross-algorithm integration tests: the three families of the paper's
//! Section 1 taxonomy (modularity-based GALA/Louvain, Leiden, label
//! propagation) on shared ground-truth workloads.

use gala::core::label_prop::{label_propagation, LabelPropConfig};
use gala::core::leiden::{communities_are_connected, leiden, LeidenConfig};
use gala::core::louvain::{Louvain, LouvainConfig};
use gala::core::metrics::nmi;
use gala::core::validation::{adjusted_rand_index, coverage, mean_conductance};
use gala::graph::generators::lfr::LfrParams;
use gala::graph::generators::sbm::PlantedPartition;

fn strong_lfr() -> gala::graph::generators::sbm::GroundTruthGraph {
    LfrParams {
        num_vertices: 2_000,
        min_degree: 8,
        max_degree: 40,
        degree_exponent: 2.5,
        min_community: 40,
        max_community: 150,
        community_exponent: 1.5,
        mixing: 0.15,
    }
    .generate(77)
}

#[test]
fn all_families_recover_strong_communities() {
    let gt = strong_lfr();
    let gala = Louvain::new(LouvainConfig::default())
        .run(&gt.graph)
        .partition;
    let leid = leiden(&gt.graph, LeidenConfig::default()).partition;
    let lpa = label_propagation(&gt.graph, LabelPropConfig::default()).partition;
    for (name, p) in [("gala", &gala), ("leiden", &leid), ("lpa", &lpa)] {
        let score = nmi(p, &gt.ground_truth);
        assert!(score > 0.75, "{name} NMI = {score}");
        let ari = adjusted_rand_index(p, &gt.ground_truth);
        assert!(ari > 0.5, "{name} ARI = {ari}");
    }
}

#[test]
fn leiden_guarantee_holds_where_it_matters() {
    // A graph with enough noise that greedy merging is tempted into
    // badly-connected communities.
    let gt = PlantedPartition {
        num_communities: 12,
        community_size: 25,
        internal_degree: 5.0,
        mixing: 0.35,
    }
    .generate(9);
    let leid = leiden(&gt.graph, LeidenConfig::default());
    assert!(communities_are_connected(&gt.graph, &leid.partition));
}

#[test]
fn validation_metrics_rank_partitions_sensibly() {
    let gt = strong_lfr();
    let good = Louvain::new(LouvainConfig::default())
        .run(&gt.graph)
        .partition;
    // A deliberately shuffled partition: same sizes, wrong members.
    let n = gt.graph.num_vertices();
    let bad =
        gala::graph::Partition::from_assignment((0..n).map(|v| ((v * 7919) % 40) as u32).collect());
    assert!(coverage(&gt.graph, &good) > coverage(&gt.graph, &bad));
    assert!(mean_conductance(&gt.graph, &good) < mean_conductance(&gt.graph, &bad));
    assert!(
        adjusted_rand_index(&good, &gt.ground_truth) > adjusted_rand_index(&bad, &gt.ground_truth)
    );
}

#[test]
fn gala_resolution_sweep_is_monotone_in_community_count() {
    let gt = strong_lfr();
    let count = |gamma: f64| {
        Louvain::new(LouvainConfig {
            resolution: gamma,
            ..LouvainConfig::default()
        })
        .run(&gt.graph)
        .partition
        .num_communities()
    };
    let low = count(0.5);
    let mid = count(1.0);
    let high = count(3.0);
    assert!(low <= mid, "gamma 0.5 -> {low}, 1.0 -> {mid}");
    assert!(mid <= high, "gamma 1.0 -> {mid}, 3.0 -> {high}");
}

/// A planted-partition graph re-weighted with seeded non-integer weights
/// in `[0.1, 2.0)`, so any change of summation order shows in the low bits
/// of a sum.
fn weighted_planted(seed: u64) -> gala::graph::Graph {
    use rand::{Rng, SeedableRng};
    let g = PlantedPartition {
        num_communities: 30,
        community_size: 40,
        internal_degree: 10.0,
        mixing: 0.4,
    }
    .generate(seed)
    .graph;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut b = gala::graph::GraphBuilder::new(g.num_vertices());
    for v in g.vertices() {
        for u in g.neighbor_ids(v).iter().copied().filter(|&u| u > v) {
            b.add_edge(v, u, rng.gen_range(0.1..2.0));
        }
    }
    b.build()
}

/// FNV-1a over an assignment's community ids.
fn checksum(p: &gala::graph::Partition) -> u64 {
    p.assignment().iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn host_baselines_are_pinned_on_non_integer_weights() {
    // The host drivers' partitions and Q bits on one seeded weighted
    // graph: a change to how any of them sums a neighbourhood shows here.
    use gala::core::sequential::{sequential_louvain, SequentialConfig};
    let g = weighted_planted(11);
    let seq = sequential_louvain(&g, SequentialConfig::default());
    let leid = leiden(&g, LeidenConfig::default());
    let lpa = label_propagation(&g, LabelPropConfig::default());
    let got = [
        (
            "sequential",
            seq.modularity.to_bits(),
            checksum(&seq.partition),
        ),
        (
            "leiden",
            leid.modularity.to_bits(),
            checksum(&leid.partition),
        ),
        (
            "lpa",
            gala::core::modularity::modularity(&g, &lpa.partition).to_bits(),
            checksum(&lpa.partition),
        ),
    ];
    let want = [
        ("sequential", 0x3fe2_1a2b_b4a8_fc84, 0xc823_a497_1a20_e856),
        ("leiden", 0x3fe2_1a2b_b4a8_fc84, 0x277f_840f_b0ff_6e90),
        ("lpa", 0x3fe1_0447_48d8_b95f, 0x81c7_1097_b490_b1d6),
    ];
    assert_eq!(got, want);
}
