//! Execution backends: one algorithm, two substrates.
//!
//! [`ExecutionBackend`] is the seam between the GALA drivers and the code
//! that actually runs their two hot operations — the phase-1 DecideAndMove
//! pass and the phase-2 contraction. Two implementations exist:
//!
//! * [`SimBackend`] — the fidelity instrument: the gala-gpu grid/block
//!   simulation with [`gala_gpu::memory::MemTally`] cycle accounting,
//!   hashtable placement
//!   statistics, and divergence/coalescing counters. Byte-for-byte the
//!   pre-trait behavior; its cycle totals stay bit-identical to
//!   `results/baseline_cycles.json`.
//! * [`NativeBackend`] — the speed instrument: the same shuffle/hash/sort
//!   decision algorithms run directly on the persistent work-stealing pool
//!   with real wall-clock timing (`elapsed_ns` span counters) and no
//!   simulated cost model. See [`crate::kernels::native`] for why its
//!   assignments are bit-identical to the simulator's.
//!
//! Both backends produce identical assignments and modularity on every
//! graph; the backend-equivalence proptests and the CI `backend-equivalence`
//! job gate that property. Drivers select a backend through
//! [`BackendKind`] on their config structs (`--backend sim|native` on the
//! CLI); [`BackendKind::resolve`] yields the shared static instance, so
//! threading a backend through a driver costs one virtual call per pass.

use crate::kernels::hashtable::{HashConfig, TableStats};
use crate::kernels::{self, DecideOutput, DecideScratch, KernelKind};
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{self, coarsen_into, CoarsenScratch, Coarsened};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition, VertexId};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// Per-device cost record of aggregating one contiguous coarse-row range in
/// the partitioned phase-2 contraction: the sim backend fills the simulated
/// tally and table statistics, the native backend the real wall time. The
/// aggregated rows themselves are identical either way.
#[derive(Clone, Debug, Default)]
pub struct DeviceContractStats {
    /// Simulated memory tally of the device's aggregation kernel (sim
    /// backend only; zero on native).
    pub tally: MemTally,
    /// Hashtable placement statistics (sim backend only; zero on native).
    pub table_stats: TableStats,
    /// Measured wall time of the device's aggregation pass (native backend
    /// only; zero on sim).
    pub elapsed_ns: u64,
}

/// Which [`ExecutionBackend`] a driver runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The simulated-GPU backend (cycle accounting; the default).
    #[default]
    Sim,
    /// The native host backend (wall-clock timing, no cost model).
    Native,
}

impl BackendKind {
    /// The shared static instance implementing this kind.
    pub fn resolve(self) -> &'static dyn ExecutionBackend {
        match self {
            BackendKind::Sim => &SimBackend,
            BackendKind::Native => &NativeBackend,
        }
    }

    /// Whether this backend decides `kernel` through the host fold
    /// ([`kernels::cpu`]), the one decide path that records stay
    /// certificates: natively every kind whose decisions reduce to it
    /// (`Cpu`, `Hash`, `WorkloadAware`), on the simulator only `Cpu`. The
    /// simulated GPU kernels and the native ablation kernels record none.
    pub(crate) fn certifies(self, kernel: KernelKind) -> bool {
        match self {
            BackendKind::Sim => kernel == KernelKind::Cpu,
            BackendKind::Native => matches!(
                kernel,
                KernelKind::Cpu | KernelKind::Hash(_) | KernelKind::WorkloadAware(_)
            ),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        })
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!("unknown backend `{other}` (expected sim|native)")),
        }
    }
}

/// The two operations every GALA driver funnels through per round, behind
/// one seam so the simulated and native substrates are interchangeable.
/// Implementations must be pure with respect to assignments: for the same
/// inputs, `decide` writes the same `next_comm` and `contract` builds the
/// same coarse graph on every backend.
pub trait ExecutionBackend: Sync {
    /// Short name (`"sim"` / `"native"`) for reports and telemetry.
    fn name(&self) -> &'static str;

    /// Runs the selected DecideAndMove kernel over the vertices of `work`
    /// (ascending) into caller-owned buffers: `out.moves` lists the
    /// decided vertices that change community, the rest of `out` but
    /// `next_comm` is rewritten, and `scratch` provides the recycled
    /// intermediates.
    #[allow(clippy::too_many_arguments)]
    fn decide_list(
        &self,
        kind: KernelKind,
        graph: &Graph,
        state: &BspState,
        work: &[VertexId],
        prof: &mut Profiler,
        scratch: &mut DecideScratch,
        out: &mut DecideOutput,
    );

    /// [`Self::decide_list`] over all `active` vertices: the one
    /// mask-taking form of a decide pass. `out` is fully rewritten,
    /// `next_comm` (rebuilt from `state` and the movers) included.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        kind: KernelKind,
        graph: &Graph,
        state: &BspState,
        active: &[bool],
        prof: &mut Profiler,
        scratch: &mut DecideScratch,
        out: &mut DecideOutput,
    ) {
        scratch.decide_masked(state, active, out, |work, scratch, out| {
            self.decide_list(kind, graph, state, work, prof, scratch, out)
        });
    }

    /// Contracts `graph` by `partition` (phase 2). `kernel` is the phase-1
    /// kernel kind, from which hash-based backends derive their table
    /// placement; `instrumented` tells the backend whether a profiler or
    /// sink is live, so it can pick a recorded path. Spans land on `prof`.
    fn contract(
        &self,
        graph: &Graph,
        partition: &Partition,
        kernel: KernelKind,
        instrumented: bool,
        prof: &mut Profiler,
        scratch: &mut CoarsenScratch,
    ) -> Coarsened;

    /// Aggregates one device's contiguous range of coarse rows of a
    /// grouping prepared by [`coarsen::renumber_and_group`], appending each
    /// row's degree to `row_deg` and its sorted `(community, weight)` pairs
    /// to `pairs` in ascending row order — one device's slice of the
    /// partitioned multi-device contraction. Both backends append
    /// bit-identical rows; they differ only in what the returned
    /// [`DeviceContractStats`] carries (simulated tally vs real wall time).
    #[allow(clippy::too_many_arguments)]
    fn contract_rows(
        &self,
        graph: &Graph,
        kernel: KernelKind,
        scratch: &CoarsenScratch,
        rows: std::ops::Range<usize>,
        k: usize,
        row_deg: &mut Vec<u64>,
        pairs: &mut Vec<(CommunityId, f64)>,
    ) -> DeviceContractStats;
}

/// The simulated-GPU backend: grid/block launches with full
/// [`gala_gpu::memory::MemTally`] cycle accounting. This is the pre-trait
/// behavior, unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimBackend;

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn decide_list(
        &self,
        kind: KernelKind,
        graph: &Graph,
        state: &BspState,
        work: &[VertexId],
        prof: &mut Profiler,
        scratch: &mut DecideScratch,
        out: &mut DecideOutput,
    ) {
        kernels::decide_list(kind, graph, state, work, prof, scratch, out);
    }

    fn contract(
        &self,
        graph: &Graph,
        partition: &Partition,
        kernel: KernelKind,
        instrumented: bool,
        prof: &mut Profiler,
        scratch: &mut CoarsenScratch,
    ) -> Coarsened {
        // Instrumented runs contract through the simulated device kernel
        // (hierarchical hashtable + device prefix sum), so the span carries
        // a real tally; plain runs take the host counting-sort path. Both
        // produce bit-identical graphs.
        if instrumented {
            let out =
                kernels::contract::contract(graph, partition, contract_table_cfg(kernel), scratch);
            prof.record(&out.tally);
            let stats = out.table_stats;
            if stats != TableStats::default() {
                prof.count("hash_shared_keys", stats.shared_keys);
                prof.count("hash_global_keys", stats.global_keys);
                prof.count("hash_shared_accesses", stats.shared_accesses);
                prof.count("hash_global_accesses", stats.global_accesses);
                prof.count("hash_evictions", stats.shared_evictions);
            }
            out.coarse
        } else {
            coarsen_into(graph, partition, scratch)
        }
    }

    fn contract_rows(
        &self,
        graph: &Graph,
        kernel: KernelKind,
        scratch: &CoarsenScratch,
        rows: std::ops::Range<usize>,
        _k: usize,
        row_deg: &mut Vec<u64>,
        pairs: &mut Vec<(CommunityId, f64)>,
    ) -> DeviceContractStats {
        // The simulated device always aggregates through the charged
        // contract kernel here: the partitioned path exists to model
        // per-device cost, so there is no uninstrumented shortcut.
        let out =
            kernels::contract::contract_rows(graph, rows, contract_table_cfg(kernel), scratch);
        row_deg.extend_from_slice(&out.row_lens);
        pairs.extend_from_slice(&out.pairs);
        DeviceContractStats {
            tally: out.tally,
            table_stats: out.table_stats,
            elapsed_ns: 0,
        }
    }
}

/// The native host backend: the same decision algorithms on the persistent
/// work-stealing pool, timed in real nanoseconds, with zero simulated cost.
/// Phase 2 always takes the pooled counting-sort pipeline — the device
/// contract kernel exists to be *measured*, and this backend doesn't
/// measure simulated cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeBackend;

impl ExecutionBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn decide_list(
        &self,
        kind: KernelKind,
        graph: &Graph,
        state: &BspState,
        work: &[VertexId],
        prof: &mut Profiler,
        scratch: &mut DecideScratch,
        out: &mut DecideOutput,
    ) {
        kernels::native::decide_list(kind, graph, state, work, prof, scratch, out);
    }

    fn contract(
        &self,
        graph: &Graph,
        partition: &Partition,
        _kernel: KernelKind,
        _instrumented: bool,
        _prof: &mut Profiler,
        scratch: &mut CoarsenScratch,
    ) -> Coarsened {
        // Bit-identical to the device kernel (the cross-path contraction
        // tests pin that down); the call site counts real `elapsed_ns`.
        coarsen_into(graph, partition, scratch)
    }

    fn contract_rows(
        &self,
        graph: &Graph,
        _kernel: KernelKind,
        scratch: &CoarsenScratch,
        rows: std::ops::Range<usize>,
        k: usize,
        row_deg: &mut Vec<u64>,
        pairs: &mut Vec<(CommunityId, f64)>,
    ) -> DeviceContractStats {
        let started = Instant::now();
        coarsen::aggregate_rows(graph, scratch, rows, k, row_deg, pairs);
        DeviceContractStats {
            elapsed_ns: started.elapsed().as_nanos() as u64,
            ..DeviceContractStats::default()
        }
    }
}

/// Hashtable placement for the contract kernel: reuse the phase-1 kernel's
/// table configuration when it carries one, the hierarchical default
/// otherwise.
pub(crate) fn contract_table_cfg(kind: KernelKind) -> HashConfig {
    match kind {
        KernelKind::Hash(cfg) | KernelKind::WorkloadAware(cfg) => cfg,
        _ => HashConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::louvain::{Louvain, LouvainConfig};
    use gala_gpu::memory::MemTally;
    use gala_graph::generators::fixtures;

    fn all_kinds() -> Vec<KernelKind> {
        vec![
            KernelKind::Cpu,
            KernelKind::Shuffle,
            KernelKind::Hash(HashConfig::default()),
            KernelKind::Sort,
            KernelKind::Replicated,
            KernelKind::WorkloadAware(HashConfig::default()),
        ]
    }

    #[test]
    fn parses_and_displays_round_trip() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!(
            "native".parse::<BackendKind>().unwrap(),
            BackendKind::Native
        );
        assert!("warp".parse::<BackendKind>().is_err());
        for kind in [BackendKind::Sim, BackendKind::Native] {
            assert_eq!(kind.to_string().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.resolve().name(), kind.to_string());
        }
    }

    #[test]
    fn default_backend_is_the_simulator() {
        assert_eq!(BackendKind::default(), BackendKind::Sim);
        assert_eq!(LouvainConfig::default().backend, BackendKind::Sim);
    }

    #[test]
    fn full_runs_agree_on_every_kernel() {
        let g = fixtures::ring_of_cliques(6, 5);
        for kernel in all_kinds() {
            let sim = Louvain::new(LouvainConfig {
                kernel,
                ..LouvainConfig::default()
            })
            .run(&g);
            let native = Louvain::new(LouvainConfig {
                kernel,
                backend: BackendKind::Native,
                ..LouvainConfig::default()
            })
            .run(&g);
            assert_eq!(sim.partition, native.partition, "{kernel:?}");
            assert_eq!(sim.modularity, native.modularity, "{kernel:?}");
        }
    }

    #[test]
    fn contract_agrees_across_backends() {
        let g = fixtures::ring_of_cliques(5, 4);
        let partition = Louvain::new(LouvainConfig::default()).run(&g).partition;
        let mut prof = Profiler::new();
        let sim = SimBackend.contract(
            &g,
            &partition,
            KernelKind::default(),
            true,
            &mut prof,
            &mut CoarsenScratch::default(),
        );
        let native = NativeBackend.contract(
            &g,
            &partition,
            KernelKind::default(),
            true,
            &mut Profiler::disabled(),
            &mut CoarsenScratch::default(),
        );
        assert_eq!(sim.renumbered, native.renumbered);
        assert_eq!(sim.num_communities, native.num_communities);
        assert_eq!(sim.graph.num_vertices(), native.graph.num_vertices());
    }

    #[test]
    fn native_instrumented_run_reports_wall_clock_spans() {
        use crate::observe::Obs;
        let g = fixtures::ring_of_cliques(6, 5);
        let runner = Louvain::new(LouvainConfig {
            backend: BackendKind::Native,
            ..LouvainConfig::default()
        });
        let plain = Louvain::new(LouvainConfig::default()).run(&g);
        let mut obs = Obs::off().profiled();
        let traced = runner.run_with(&g, &mut obs);
        assert_eq!(traced.partition, plain.partition);
        let tree = obs.finish();
        let step = tree
            .child("round")
            .and_then(|r| r.child("superstep"))
            .expect("superstep span");
        let decide = step.child("decide").expect("decide span");
        // Real time, no simulated traffic: the decide scope carries
        // elapsed_ns but its tally — and its children's — stays zero.
        assert!(decide.counter("elapsed_ns") > 0);
        assert_eq!(decide.total_tally(), MemTally::new());
    }
}
