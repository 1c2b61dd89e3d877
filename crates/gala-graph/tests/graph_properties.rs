//! Property tests for the graph substrate: CSR invariants, builder
//! determinism, IO round-trips, and coarsening conservation laws over
//! arbitrary edge lists.

use gala_graph::coarsen::{coarsen, coarsen_into, CoarsenScratch};
use gala_graph::{io, Graph, GraphBuilder, Partition};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_edges(n: u32, m: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0..n, 0..n, 1u32..4), 0..m)
        .prop_map(|v| v.into_iter().map(|(a, b, w)| (a, b, w as f64)).collect())
}

fn build(n: u32, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 2|E| == Σ d(v) under the crate's self-loop convention, for any input
    /// including self-loops and duplicates.
    #[test]
    fn total_weight_equals_degree_sum(edges in arb_edges(24, 60)) {
        let g = build(24, &edges);
        let degree_sum: f64 = g.vertices().map(|v| g.degree_w(v)).sum();
        prop_assert!((g.total_weight() - degree_sum).abs() < 1e-9);
        // And equals twice the user-facing edge weight (each non-loop edge
        // entered twice directionally; loops doubled on input).
        let input_weight: f64 = edges.iter().map(|&(_, _, w)| w).sum();
        prop_assert!((g.total_weight() - 2.0 * input_weight).abs() < 1e-9);
    }

    /// Adjacency symmetry: w(u, v) == w(v, u) always.
    #[test]
    fn adjacency_is_symmetric(edges in arb_edges(20, 50)) {
        let g = build(20, &edges);
        for v in g.vertices() {
            for (u, w) in g.neighbors(v) {
                prop_assert_eq!(g.edge_weight(u, v), Some(w));
            }
        }
    }

    /// Edge-order independence: shuffled input builds the identical graph.
    #[test]
    fn builder_is_order_independent(edges in arb_edges(16, 40), seed in 0u64..1000) {
        let g1 = build(16, &edges);
        let mut shuffled = edges.clone();
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let g2 = build(16, &shuffled);
        prop_assert_eq!(g1, g2);
    }

    /// Text and binary IO round-trip losslessly.
    #[test]
    fn io_roundtrips(edges in arb_edges(16, 40)) {
        let g = build(16, &edges);
        let bin = io::to_bytes(&g);
        prop_assert_eq!(io::from_bytes(&bin).unwrap(), g.clone());
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).unwrap();
        let g2 = io::read_edge_list(std::io::Cursor::new(text)).unwrap();
        // Text roundtrip may reorder but the graph is canonical CSR.
        prop_assert_eq!(g2, g);
    }

    /// Coarsening conserves total weight for any partition.
    #[test]
    fn coarsen_conserves_weight(edges in arb_edges(18, 50),
                                labels in proptest::collection::vec(0u32..5, 18)) {
        let g = build(18, &edges);
        let p = Partition::from_assignment(labels);
        let c = coarsen(&g, &p);
        prop_assert!((c.graph.total_weight() - g.total_weight()).abs() < 1e-9);
        prop_assert_eq!(c.graph.num_vertices(), c.num_communities);
    }

    /// Coarsening by singletons is an isomorphism (same edges, weights).
    #[test]
    fn coarsen_by_singletons_is_identity(edges in arb_edges(14, 40)) {
        let g = build(14, &edges);
        let c = coarsen(&g, &Partition::singletons(14));
        // Renumbering of singletons preserves vertex ids here.
        prop_assert_eq!(c.graph, g);
    }
}

/// Reference modularity directly over the fine graph (gala-graph cannot
/// depend on gala-core, so the conservation law is restated here): under
/// the crate's conventions, internal arc weight already counts each
/// internal edge from both sides and self-loops doubled.
fn modularity(g: &Graph, p: &Partition) -> f64 {
    let m2 = g.total_weight();
    if m2 == 0.0 {
        return 0.0;
    }
    let mut internal = 0.0;
    let mut degree: HashMap<u32, f64> = HashMap::new();
    for v in g.vertices() {
        let cv = p.community_of(v);
        *degree.entry(cv).or_insert(0.0) += g.degree_w(v);
        for (u, w) in g.neighbors(v) {
            if p.community_of(u) == cv {
                internal += w;
            }
        }
    }
    internal / m2 - degree.values().map(|d| (d / m2) * (d / m2)).sum::<f64>()
}

proptest! {
    // Fewer, larger cases: n and k must cross the shim's sequential cutoff
    // (min_par_len = 1024) so widths 2 and 8 actually take the pooled path.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The counting-sort contraction matches the seed HashMap path — same
    /// communities, same renumbering, same canonical CSR — at every pool
    /// width, on weighted inputs with self-loops, duplicate edges, unused
    /// (non-contiguous) labels and isolated vertices. Integer weights make
    /// the comparison exact despite differing summation orders.
    #[test]
    fn coarsen_into_matches_seed_at_all_widths(
        edges in arb_edges(2600, 5200),
        labels in proptest::collection::vec(0u32..1300, 2600),
    ) {
        let g = build(2600, &edges);
        let p = Partition::from_assignment(labels);
        let seed = coarsen(&g, &p);
        for width in [1usize, 2, 8] {
            let got = rayon::with_parallelism(width, || {
                let mut scratch = CoarsenScratch::default();
                coarsen_into(&g, &p, &mut scratch)
            });
            prop_assert_eq!(got.num_communities, seed.num_communities);
            prop_assert_eq!(&got.renumbered, &seed.renumbered);
            prop_assert_eq!(got.graph.offsets(), seed.graph.offsets());
            prop_assert_eq!(got.graph.targets(), seed.graph.targets());
            prop_assert!(got.graph.arc_weights().eq(seed.graph.arc_weights()));
        }
    }

    /// Two hierarchy rounds through one recycled scratch preserve
    /// modularity: Q of the composed flat partition on the original graph
    /// equals Q of singletons on the doubly-coarse graph.
    #[test]
    fn coarsen_into_preserves_modularity_across_two_rounds(
        edges in arb_edges(60, 150),
        l1 in proptest::collection::vec(0u32..13, 60),
    ) {
        let g = build(60, &edges);
        let p1 = Partition::from_assignment(l1);
        let mut scratch = CoarsenScratch::default();
        let c1 = coarsen_into(&g, &p1, &mut scratch);
        let pairs: Vec<u32> = (0..c1.num_communities as u32).map(|v| v / 3).collect();
        let p2 = Partition::from_assignment(pairs);
        let c2 = coarsen_into(&c1.graph, &p2, &mut scratch);
        let flat = c1.renumbered.compose(&c2.renumbered);
        let q_fine = modularity(&g, &flat);
        let q_coarse = modularity(&c2.graph, &Partition::singletons(c2.num_communities));
        prop_assert!((q_fine - q_coarse).abs() < 1e-9,
            "fine {} != coarse {}", q_fine, q_coarse);
    }
}
