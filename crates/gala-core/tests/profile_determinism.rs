//! Component-breakdown determinism: the schema-4 `profile` events of a
//! sim run are a pure function of the graph and config — two runs at any
//! pool width (1, 2, 8) must produce bit-identical component charges,
//! and every sim row's components must sum exactly to its span's cycles.
//!
//! This is the profile-layer twin of the launch-equivalence proptests:
//! the work-stealing pool may interleave chunks differently, but tallies
//! merge associatively over exact integer-valued charges, so the derived
//! breakdowns cannot drift.

use gala_core::kernels::hashtable::HashConfig;
use gala_core::kernels::KernelKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::observe::Obs;
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::Graph;
use gala_telemetry::{PhaseProfile, ProfileSpan, TraceEvent, VecSink};
use rayon::with_parallelism;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn sbm_graph(seed: u64) -> Graph {
    PlantedPartition {
        num_communities: 4,
        community_size: 8,
        internal_degree: 5.0,
        mixing: 0.2,
    }
    .generate(seed)
    .graph
}

/// All profile events of one traced sim run, flattened to
/// (round, superstep, phase, spans) rows.
fn profile_rows(graph: &Graph, kernel: KernelKind) -> Vec<(u32, u32, String, Vec<ProfileSpan>)> {
    let mut sink = VecSink::default();
    Louvain::new(LouvainConfig {
        kernel,
        ..LouvainConfig::default()
    })
    .run_with(graph, &mut Obs::traced(&mut sink));
    sink.events
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Profile(PhaseProfile {
                round,
                superstep,
                phase,
                backend,
                unit,
                spans,
            }) => {
                assert_eq!(backend, "sim");
                assert_eq!(unit, "cycles");
                Some((round, superstep, phase, spans))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn sim_component_breakdowns_are_bit_identical_across_runs_and_widths() {
    let graph = sbm_graph(7);
    for kernel in [
        KernelKind::Cpu,
        KernelKind::Shuffle,
        KernelKind::Hash(HashConfig::default()),
        KernelKind::WorkloadAware(HashConfig::default()),
    ] {
        let reference = with_parallelism(1, || profile_rows(&graph, kernel));
        assert!(
            !reference.is_empty(),
            "{kernel:?} emitted no profile events"
        );
        for width in WIDTHS {
            for run in 0..2 {
                let got = with_parallelism(width, || profile_rows(&graph, kernel));
                // ProfileSpan is PartialEq over f64 components: equality
                // here is bit-for-bit identity of every charge.
                assert_eq!(
                    got, reference,
                    "{kernel:?} breakdown diverged at width {width} run {run}"
                );
            }
        }
    }
}

#[test]
fn sim_components_partition_span_cycles_exactly() {
    let graph = sbm_graph(42);
    let rows = profile_rows(&graph, KernelKind::default());
    let mut charged_spans = 0usize;
    for (_, _, _, spans) in &rows {
        for span in spans {
            assert_eq!(
                span.components.total(),
                span.total,
                "{}: components must sum exactly to the span's self cycles",
                span.path
            );
            if span.total > 0.0 {
                charged_spans += 1;
            }
        }
    }
    assert!(
        charged_spans > 0,
        "no charged spans in {} events",
        rows.len()
    );
}
