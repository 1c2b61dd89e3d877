//! Property-based tests over random graphs: the invariants the GALA design
//! rests on must hold for *any* input, not just the fixtures.

use gala::core::kernels::hashtable::{HashConfig, HashTableKind};
use gala::core::kernels::{self, KernelKind};
use gala::core::louvain::{Louvain, LouvainConfig};
use gala::core::metrics::nmi;
use gala::core::modularity::modularity;
use gala::core::pruning::{classify, PruningKind};
use gala::core::state::BspState;
use gala::core::weight::{self, WeightUpdateMode};
use gala::graph::coarsen::coarsen;
use gala::graph::{Graph, GraphBuilder, Partition};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a random undirected unit-weight graph with up to `n` vertices
/// and `m` candidate edges (duplicates merge, so weights stay integral).
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = Graph> {
    (
        2..n,
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..m),
    )
        .prop_map(|(nv, edges)| {
            let mut b = GraphBuilder::new(nv);
            for (u, v) in edges {
                let (u, v) = (u % nv as u32, v % nv as u32);
                if u != v {
                    b.add_edge(u, v, 1.0);
                }
            }
            b.build()
        })
}

/// Advances `steps` full (unpruned) BSP supersteps, keeping d_self exact.
fn advance(graph: &Graph, steps: usize) -> BspState {
    let mut state = BspState::new(graph);
    for _ in 0..steps {
        let active = vec![true; graph.num_vertices()];
        let out = kernels::decide(KernelKind::Cpu, graph, &state, &active);
        let summary = state.apply_moves(graph, &out.next_comm);
        weight::update(WeightUpdateMode::Delta, graph, &mut state, &summary);
        if summary.num_moved() == 0 {
            break;
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 6 as executable spec: a vertex MG prunes is never one that a
    /// full DecideAndMove would move for a strictly positive gain. (Zero-
    /// gain tie-break moves are modularity-neutral and allowed to be
    /// suppressed; we detect them by re-scoring the proposed move.)
    #[test]
    fn mg_pruning_is_sound(graph in arb_graph(40, 160), steps in 0usize..4) {
        let state = advance(&graph, steps);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let active = classify(PruningKind::Gain, &graph, &state, &mut rng);
        if state.iteration == 0 {
            // classify returns all-active before any history: trivially sound
            prop_assert!(active.iter().all(|&a| a));
            return Ok(());
        }
        let truth = kernels::decide(KernelKind::Cpu, &graph, &state, &vec![true; graph.num_vertices()]);
        for (v, &kept_active) in active.iter().enumerate() {
            if kept_active || truth.next_comm[v] == state.comm[v] {
                continue;
            }
            // MG pruned v but the kernel wanted to move it: verify the move
            // is a zero-gain tie-break, i.e. modularity is unchanged.
            let mut p1 = state.partition();
            let q_before = modularity(&graph, &p1);
            p1.assign(v as u32, truth.next_comm[v]);
            let q_after = modularity(&graph, &p1);
            prop_assert!(
                q_after - q_before <= 1e-9,
                "MG false negative at {v}: ΔQ = {}",
                q_after - q_before
            );
        }
    }

    /// SM soundness (Lemma 3): same contract as MG.
    #[test]
    fn sm_pruning_is_sound(graph in arb_graph(30, 120), steps in 1usize..4) {
        let state = advance(&graph, steps);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let active = classify(PruningKind::Strict, &graph, &state, &mut rng);
        let truth = kernels::decide(KernelKind::Cpu, &graph, &state, &vec![true; graph.num_vertices()]);
        for (v, &kept_active) in active.iter().enumerate() {
            if !kept_active {
                prop_assert_eq!(
                    truth.next_comm[v], state.comm[v],
                    "SM false negative at {}", v
                );
            }
        }
    }

    /// Delta weight maintenance is exact: after any superstep it matches a
    /// full recomputation bit for bit (unit weights → exact f64 sums).
    #[test]
    fn delta_update_equals_naive(graph in arb_graph(40, 200), steps in 1usize..5) {
        let mut state = BspState::new(&graph);
        for _ in 0..steps {
            let active = vec![true; graph.num_vertices()];
            let out = kernels::decide(KernelKind::Cpu, &graph, &state, &active);
            let summary = state.apply_moves(&graph, &out.next_comm);
            weight::update(WeightUpdateMode::Delta, &graph, &mut state, &summary);
            let mut reference = state.clone();
            reference.recompute_d_self(&graph);
            prop_assert_eq!(&state.d_self, &reference.d_self);
            if summary.num_moved() == 0 { break; }
        }
    }

    /// The O(n) incremental modularity equals the from-scratch O(m) one.
    #[test]
    fn state_modularity_matches_scratch(graph in arb_graph(40, 200), steps in 0usize..5) {
        let state = advance(&graph, steps);
        let q_state = state.modularity(&graph);
        let q_scratch = modularity(&graph, &state.partition());
        prop_assert!((q_state - q_scratch).abs() < 1e-9,
            "state {} vs scratch {}", q_state, q_scratch);
    }

    /// Every kernel agrees with the CPU reference on arbitrary graphs.
    #[test]
    fn kernels_agree(graph in arb_graph(36, 150), steps in 0usize..3) {
        let state = advance(&graph, steps);
        let active = vec![true; graph.num_vertices()];
        let reference = kernels::decide(KernelKind::Cpu, &graph, &state, &active);
        for kind in [
            KernelKind::Shuffle,
            KernelKind::Sort,
            KernelKind::Replicated,
            KernelKind::Hash(HashConfig { kind: HashTableKind::GlobalOnly, shared_buckets: 0 }),
            KernelKind::Hash(HashConfig { kind: HashTableKind::Unified, shared_buckets: 16 }),
            KernelKind::Hash(HashConfig { kind: HashTableKind::Hierarchical, shared_buckets: 16 }),
            KernelKind::WorkloadAware(HashConfig::default()),
        ] {
            let out = kernels::decide(kind, &graph, &state, &active);
            prop_assert_eq!(&out.next_comm, &reference.next_comm, "{:?}", kind);
        }
    }

    /// Multi-device execution is results-equivalent to single-device.
    #[test]
    fn multi_device_equals_single(graph in arb_graph(32, 120), devices in 2usize..6) {
        let single = Louvain::new(LouvainConfig::default()).run(&graph);
        let multi = Louvain::new(LouvainConfig { devices, ..LouvainConfig::default() }).run(&graph);
        prop_assert_eq!(single.partition, multi.partition);
        prop_assert_eq!(single.modularity.to_bits(), multi.modularity.to_bits());
    }

    /// Coarsening preserves total weight and the induced modularity.
    #[test]
    fn coarsen_preserves_weight_and_q(graph in arb_graph(30, 120), steps in 1usize..3) {
        let state = advance(&graph, steps);
        let p = state.partition();
        let c = coarsen(&graph, &p);
        prop_assert!((c.graph.total_weight() - graph.total_weight()).abs() < 1e-9);
        let q_fine = modularity(&graph, &p);
        let q_coarse = modularity(&c.graph, &Partition::singletons(c.num_communities));
        prop_assert!((q_fine - q_coarse).abs() < 1e-9,
            "fine {} vs coarse {}", q_fine, q_coarse);
    }

    /// Full Louvain output invariants: Q within bounds, Q matches the
    /// partition, supersteps never decrease modularity.
    #[test]
    fn louvain_invariants(graph in arb_graph(30, 120)) {
        let result = Louvain::new(LouvainConfig::default()).run(&graph);
        prop_assert!(result.modularity >= -0.5 - 1e-9);
        prop_assert!(result.modularity <= 1.0 + 1e-9);
        let q = modularity(&graph, &result.partition);
        prop_assert!((q - result.modularity).abs() < 1e-9);
        for round in &result.rounds {
            // Rounds end at their best-seen modularity; supersteps may dip.
            let peak = round
                .iterations
                .iter()
                .map(|i| i.modularity)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(round.modularity >= peak - 1e-9);
        }
    }

    /// NMI axioms on random partitions: symmetric, in [0,1], 1 on self.
    #[test]
    fn nmi_axioms(labels_a in proptest::collection::vec(0u32..6, 2..40),
                  labels_b_seed in 0u32..6) {
        let n = labels_a.len();
        let a = Partition::from_assignment(labels_a.clone());
        let b = Partition::from_assignment(
            labels_a.iter().map(|&x| (x + labels_b_seed) % 6).collect::<Vec<_>>(),
        );
        prop_assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
        let ab = nmi(&a, &b);
        let ba = nmi(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        // Relabeling is a bijection here, so NMI must be exactly 1.
        prop_assert!((ab - 1.0).abs() < 1e-9, "relabel nmi = {}, n = {}", ab, n);
    }
}
