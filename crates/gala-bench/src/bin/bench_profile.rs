//! Per-kernel cost attribution across all six decide kernels (the
//! profile-layer companion to Figure 9).
//!
//! For every [`KernelKind`] this binary runs full Louvain through the
//! simulated *and* the native backend on the same seeded SBM graph,
//! derives both runs' span charges in-process, joins them
//! through [`Attribution`], and reports the fitted clock plus the decide
//! and contract residuals per kernel — the same join `gala profile`
//! performs on trace files, exercised here without any file plumbing so
//! CI can smoke it cheaply.
//!
//! ```text
//! GALA_SCALE=test bench_profile --quick --gate --report BENCH_profile.json
//! ```
//!
//! Invariants asserted on every run (gate or not): both backends produce
//! identical partitions, every sim span's component charges sum exactly
//! to its cycle total, and every kernel kind yields a joinable decide and
//! contract row. `--gate` additionally enforces that all residuals stay
//! inside a generous sanity band — a residual collapsing to ~0 or
//! exploding means the sim and native span trees stopped lining up.

use gala_bench::{new_report, BenchArgs, Table};
use gala_core::backend::BackendKind;
use gala_core::kernels::hashtable::HashConfig;
use gala_core::kernels::KernelKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::observe::Obs;
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::Graph;
use gala_telemetry::{Attribution, AttributionReport, PhaseProfile, TraceEvent, VecSink};

/// Residuals outside this band trip the `--gate`.
const GATE_RESIDUAL_BAND: (f64, f64) = (0.05, 20.0);

fn kernels() -> [(&'static str, KernelKind); 6] {
    [
        ("cpu", KernelKind::Cpu),
        ("shuffle", KernelKind::Shuffle),
        ("hash", KernelKind::Hash(HashConfig::default())),
        ("sort", KernelKind::Sort),
        ("repl", KernelKind::Replicated),
        ("wa", KernelKind::WorkloadAware(HashConfig::default())),
    ]
}

/// Runs one backend and returns its partition plus the profile of every
/// span event.
fn traced_run(
    graph: &Graph,
    kernel: KernelKind,
    backend: BackendKind,
) -> (gala_graph::Partition, Vec<PhaseProfile>) {
    let mut sink = VecSink::default();
    let result = Louvain::new(LouvainConfig {
        kernel,
        backend,
        ..LouvainConfig::paper()
    })
    .run_with(graph, &mut Obs::traced(&mut sink));
    let profiles = sink
        .events
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span(tree) => Some(tree.profile().expect("a span names its backend")),
            _ => None,
        })
        .collect();
    (result.partition, profiles)
}

/// Joins one kernel kind's sim and native runs.
fn attribute(graph: &Graph, name: &str, kernel: KernelKind) -> AttributionReport {
    let (sim_partition, sim_profiles) = traced_run(graph, kernel, BackendKind::Sim);
    let (native_partition, native_profiles) = traced_run(graph, kernel, BackendKind::Native);
    assert_eq!(
        sim_partition, native_partition,
        "{name}: backends diverged on assignments"
    );
    let mut attr = Attribution::new();
    for PhaseProfile { unit, spans } in &sim_profiles {
        assert_eq!(*unit, "cycles", "{name}: sim trace must charge cycles");
        for span in spans {
            assert_eq!(
                span.components.total(),
                span.total,
                "{name}: span `{}` components must sum exactly to its cycles",
                span.path
            );
        }
        attr.add_sim(spans);
    }
    for PhaseProfile { unit, spans } in &native_profiles {
        assert_eq!(*unit, "ns", "{name}: native trace must charge wall ns");
        attr.add_native(spans);
    }
    attr.resolve()
        .unwrap_or_else(|| panic!("{name}: sim and native traces did not join"))
}

fn main() {
    let args = BenchArgs::parse();
    let communities = args.reps(4, 8);
    let graph = PlantedPartition {
        num_communities: communities,
        community_size: 12,
        internal_degree: 6.0,
        mixing: 0.2,
    }
    .generate(42)
    .graph;

    println!(
        "bench_profile — per-kernel sim↔native cost attribution ({} vertices)\n",
        graph.num_vertices()
    );

    let mut table = Table::new(&[
        "Kernel",
        "Rows",
        "Clock cyc/ns",
        "Decide resid",
        "Contract resid",
        "Decide AI%",
        "Decide mem%",
    ]);
    let mut report = new_report("bench_profile").meta("vertices", graph.num_vertices().to_string());
    let mut gate_failures = Vec::new();
    for (name, kernel) in kernels() {
        let attribution = attribute(&graph, name, kernel);
        // The cpu decide kernel is the host baseline: it deliberately
        // charges no simulated cycles, so it has no decide-side residual.
        let decide = attribution
            .kernels
            .iter()
            .find(|k| k.path.contains("decide"));
        assert!(
            decide.is_some() || matches!(kernel, KernelKind::Cpu),
            "{name}: no decide row in the join"
        );
        let contract = attribution
            .kernels
            .iter()
            .find(|k| k.path.contains("contract"))
            .unwrap_or_else(|| panic!("{name}: no contract row in the join"));
        let dash = "-".to_string();
        table.row(vec![
            name.to_string(),
            attribution.kernels.len().to_string(),
            format!("{:.4}", attribution.clock_cycles_per_ns),
            decide.map_or(dash.clone(), |d| format!("{:.4}", d.residual)),
            format!("{:.4}", contract.residual),
            decide.map_or(dash.clone(), |d| {
                format!("{:.1}%", 100.0 * d.arithmetic_intensity())
            }),
            decide.map_or(dash, |d| format!("{:.1}%", 100.0 * d.memory_intensity())),
        ]);
        for row in &attribution.kernels {
            let (lo, hi) = GATE_RESIDUAL_BAND;
            if !row.residual.is_finite() || row.residual < lo || row.residual > hi {
                gate_failures.push(format!(
                    "{name}/{}: residual {:.4} outside [{lo}, {hi}]",
                    row.path, row.residual
                ));
            }
        }
    }
    table.print();
    table.add_to_report(&mut report, "profile");
    args.write_report(&report);

    args.finish_gate(
        &gate_failures,
        &format!(
            "all six kernels joined with residuals inside [{}, {}]",
            GATE_RESIDUAL_BAND.0, GATE_RESIDUAL_BAND.1
        ),
    );
}
