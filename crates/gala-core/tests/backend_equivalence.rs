//! Backend-equivalence properties: a full Louvain run on the
//! [`NativeBackend`] must produce the same partition and bit-equal
//! modularity as the [`SimBackend`] on every kernel, every generator
//! graph, and every pool width — and a kernel fault through the shared
//! pool must not wedge the native launch path.
//!
//! Under the default damped MG policy the native fold also skips vertices
//! holding a stay certificate, so the two backends decide on different
//! active sets. They must still make the same decisions: the properties
//! pin the trajectory (supersteps per round and moves per superstep), not
//! only the answer.
//!
//! This is the library-level twin of CI's `backend-equivalence` job,
//! which checks the same invariant end to end through the CLI.

use gala_core::backend::BackendKind;
use gala_core::kernels::hashtable::HashConfig;
use gala_core::kernels::KernelKind;
use gala_core::louvain::{Louvain, LouvainConfig, LouvainResult};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::Graph;
use proptest::prelude::*;
use rayon::with_parallelism;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn kinds() -> [KernelKind; 6] {
    [
        KernelKind::Cpu,
        KernelKind::Shuffle,
        KernelKind::Hash(HashConfig::default()),
        KernelKind::Sort,
        KernelKind::Replicated,
        KernelKind::WorkloadAware(HashConfig::default()),
    ]
}

/// A run's answer and trajectory: the assignment, the modularity bits,
/// and each round's per-superstep move counts.
type Outcome = (Vec<u32>, u64, Vec<Vec<usize>>);

fn run(graph: &Graph, kernel: KernelKind, backend: BackendKind) -> Outcome {
    let r = Louvain::new(LouvainConfig {
        kernel,
        backend,
        ..LouvainConfig::default()
    })
    .run(graph);
    let moves = per_superstep(&r, |i| i.num_moved);
    (
        r.partition.assignment().to_vec(),
        r.modularity.to_bits(),
        moves,
    )
}

/// One value per superstep, grouped by round.
fn per_superstep(
    r: &LouvainResult,
    f: impl Fn(&gala_core::louvain::IterationStats) -> usize,
) -> Vec<Vec<usize>> {
    r.rounds
        .iter()
        .map(|round| round.iterations.iter().map(&f).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sim and native backends agree on assignments, bit-equal modularity,
    /// supersteps per round and moves per superstep for every kernel
    /// kind, on planted-partition graphs of varying shape, at pool widths
    /// 1, 2, and 8.
    #[test]
    fn native_matches_sim_at_widths_1_2_8(
        num_communities in 2usize..6,
        community_size in 3usize..9,
        internal_degree in 3.0f64..6.0,
        mixing in 0.0f64..0.35,
        seed in any::<u64>(),
        kernel_idx in 0usize..6,
    ) {
        let graph = PlantedPartition {
            num_communities,
            community_size,
            internal_degree,
            mixing,
        }
        .generate(seed)
        .graph;
        let kernel = kinds()[kernel_idx];
        let reference = run(&graph, kernel, BackendKind::Sim);
        for width in WIDTHS {
            for backend in [BackendKind::Sim, BackendKind::Native] {
                let got = with_parallelism(width, || run(&graph, kernel, backend));
                prop_assert_eq!(
                    &got.0, &reference.0,
                    "{:?}/{} diverged on assignments at width {}",
                    kernel, backend, width
                );
                prop_assert_eq!(
                    got.1, reference.1,
                    "{:?}/{} diverged on modularity at width {}",
                    kernel, backend, width
                );
                prop_assert_eq!(
                    &got.2, &reference.2,
                    "{:?}/{} diverged on moves per superstep at width {}",
                    kernel, backend, width
                );
            }
        }
    }
}

/// The stay certificates reach the native fold through the device split:
/// a two-device run decides on exactly the one-device run's active sets,
/// which are smaller than the simulator's, with the same moves.
#[test]
fn native_active_sets_are_the_same_at_every_device_count() {
    let graph = PlantedPartition {
        num_communities: 20,
        community_size: 50,
        internal_degree: 8.0,
        mixing: 0.3,
    }
    .generate(3)
    .graph;
    let run = |backend, devices| {
        Louvain::new(LouvainConfig {
            backend,
            devices,
            ..LouvainConfig::default()
        })
        .run(&graph)
    };
    let one = run(BackendKind::Native, 1);
    let active = |r: &LouvainResult| per_superstep(r, |i| i.num_active);
    let moved = |r: &LouvainResult| per_superstep(r, |i| i.num_moved);
    for width in WIDTHS {
        let two = with_parallelism(width, || run(BackendKind::Native, 2));
        assert_eq!(active(&two), active(&one), "active sets at width {width}");
        assert_eq!(two.partition, one.partition, "partition at width {width}");
    }
    let sim = run(BackendKind::Sim, 1);
    assert_eq!(moved(&sim), moved(&one));
    let total = |r: &LouvainResult| active(r).iter().flatten().sum::<usize>();
    assert!(
        total(&one) < total(&sim),
        "certificates pruned nothing: native {} vs sim {}",
        total(&one),
        total(&sim)
    );
}

/// A panicking kernel launched through the shared pool must propagate as
/// a panic *and* leave the pool usable for the native decide path: the
/// very next native run has to match the simulator exactly.
#[test]
fn native_path_survives_a_pool_fault() {
    let graph = PlantedPartition {
        num_communities: 4,
        community_size: 8,
        internal_degree: 5.0,
        mixing: 0.1,
    }
    .generate(7)
    .graph;
    let items: Vec<u64> = (0..5000).collect();
    let fault = std::panic::catch_unwind(|| {
        with_parallelism(8, || {
            gala_gpu::grid::launch(&items, |x: &u64, _t| {
                assert!(*x != 2525, "injected kernel fault");
                *x
            })
        })
    });
    assert!(fault.is_err(), "kernel panic was swallowed by the pool");

    for kernel in kinds() {
        let sim = with_parallelism(8, || run(&graph, kernel, BackendKind::Sim));
        let native = with_parallelism(8, || run(&graph, kernel, BackendKind::Native));
        assert_eq!(sim, native, "{kernel:?} diverged after a pool fault");
    }
}
