//! Partitioned-contraction equivalence properties: the per-device phase-2
//! contraction must produce a bit-identical coarse graph (CSR structure,
//! weight bits, renumbering) versus the host `coarsen_into` path — on both
//! backends, at pool widths 1/2/8 and device counts 1/2/4/8 — and the full
//! hierarchy must be unchanged by the device count, the contract mode and
//! the backend. A kernel fault through the shared pool must not wedge the
//! exchange step either.
//!
//! This is the library-level twin of CI's multi-device contraction
//! equivalence step, which checks the same invariant through the CLI.

use gala_core::backend::BackendKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::mg_contract::contract_partitioned;
use gala_core::multi_gpu::{ContractMode, SyncMode};
use gala_core::pruning::PruningKind;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{coarsen_into, CoarsenScratch, Coarsened};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::{Graph, Partition};
use proptest::prelude::*;
use rayon::with_parallelism;

const WIDTHS: [usize; 3] = [1, 2, 8];
const DEVICES: [usize; 4] = [1, 2, 4, 8];

fn fingerprint(c: &Coarsened) -> (usize, Vec<u32>, Vec<usize>, Vec<u32>, Vec<u64>) {
    (
        c.num_communities,
        c.renumbered.assignment().to_vec(),
        c.graph.offsets().to_vec(),
        c.graph.targets().to_vec(),
        c.graph.arc_weights().map(f64::to_bits).collect(),
    )
}

fn partitioned(
    graph: &Graph,
    partition: &Partition,
    devices: usize,
    backend: BackendKind,
    sync: SyncMode,
) -> Coarsened {
    let cfg = LouvainConfig {
        devices,
        backend,
        sync,
        ..LouvainConfig::default()
    };
    contract_partitioned(
        graph,
        partition,
        &cfg,
        backend.resolve(),
        &mut Profiler::disabled(),
        &mut CoarsenScratch::default(),
    )
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The partitioned contraction of a phase-1-style partition is
    /// bit-identical to the host `coarsen_into` at every device count,
    /// pool width, backend, and exchange strategy.
    #[test]
    fn partitioned_contraction_matches_host_bitwise(
        num_communities in 2usize..6,
        community_size in 3usize..9,
        internal_degree in 3.0f64..6.0,
        mixing in 0.0f64..0.35,
        seed in any::<u64>(),
        group in 2u32..5,
    ) {
        let generated = PlantedPartition {
            num_communities,
            community_size,
            internal_degree,
            mixing,
        }
        .generate(seed);
        let graph = generated.graph;
        // A community structure of the kind phase 1 hands to phase 2.
        let partition = Partition::from_assignment(
            (0..graph.num_vertices() as u32).map(|v| v / group).collect(),
        );
        let reference =
            fingerprint(&coarsen_into(&graph, &partition, &mut CoarsenScratch::default()));
        for devices in DEVICES {
            for backend in [BackendKind::Sim, BackendKind::Native] {
                for width in WIDTHS {
                    let got = with_parallelism(width, || {
                        fingerprint(&partitioned(
                            &graph,
                            &partition,
                            devices,
                            backend,
                            SyncMode::Adaptive,
                        ))
                    });
                    prop_assert_eq!(
                        &got, &reference,
                        "devices {} backend {} width {} diverged",
                        devices, backend, width
                    );
                }
            }
            // The exchange strategy must never affect the bits.
            for sync in [SyncMode::Dense, SyncMode::Sparse] {
                let got = fingerprint(&partitioned(
                    &graph,
                    &partition,
                    devices,
                    BackendKind::Sim,
                    sync,
                ));
                prop_assert_eq!(&got, &reference, "sync {:?} diverged", sync);
            }
        }
    }

    /// A multi-device run is the single-device run: at every cell of
    /// pruning {MG, PM} × γ {1.0, 2.5} × devices {1, 2, 4} × contraction
    /// {host, partitioned} × backend {sim, native}, the flat partition and
    /// the modularity bits equal single-device host `Louvain::run`'s.
    #[test]
    fn full_hierarchy_unchanged_by_contract_mode(
        num_communities in 2usize..5,
        community_size in 3usize..8,
        internal_degree in 3.0f64..6.0,
        mixing in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let graph = PlantedPartition {
            num_communities,
            community_size,
            internal_degree,
            mixing,
        }
        .generate(seed)
        .graph;
        for pruning in [PruningKind::Gain, PruningKind::probabilistic_default()] {
            for resolution in [1.0, 2.5] {
                let single = LouvainConfig {
                    pruning,
                    resolution,
                    ..LouvainConfig::default()
                };
                let reference = Louvain::new(single).run(&graph);
                for devices in [1, 2, 4] {
                    for contract in [ContractMode::Host, ContractMode::Partitioned] {
                        for backend in [BackendKind::Sim, BackendKind::Native] {
                            let cell = format!(
                                "{pruning:?} γ={resolution} devices={devices} \
                                 contract={contract} backend={backend}"
                            );
                            let got = Louvain::new(LouvainConfig {
                                devices,
                                contract,
                                backend,
                                ..single
                            })
                            .run(&graph);
                            prop_assert_eq!(
                                got.partition.assignment(),
                                reference.partition.assignment(),
                                "{} diverged on the flat partition",
                                cell
                            );
                            prop_assert_eq!(
                                got.modularity.to_bits(),
                                reference.modularity.to_bits(),
                                "{} diverged on modularity",
                                cell
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A panicking kernel launched through the shared pool must leave the pool
/// usable for the exchange step: the very next partitioned contraction, at
/// width 8 on both backends, must still match the host path bit for bit.
#[test]
fn exchange_step_survives_a_pool_fault() {
    let graph = PlantedPartition {
        num_communities: 4,
        community_size: 8,
        internal_degree: 5.0,
        mixing: 0.1,
    }
    .generate(7)
    .graph;
    let partition =
        Partition::from_assignment((0..graph.num_vertices() as u32).map(|v| v / 3).collect());
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

    let reference = fingerprint(&coarsen_into(
        &graph,
        &partition,
        &mut CoarsenScratch::default(),
    ));
    for backend in [BackendKind::Sim, BackendKind::Native] {
        let got = with_parallelism(8, || {
            fingerprint(&partitioned(
                &graph,
                &partition,
                4,
                backend,
                SyncMode::Adaptive,
            ))
        });
        assert_eq!(got, reference, "{backend} diverged after a pool fault");
    }
}
