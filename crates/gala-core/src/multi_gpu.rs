//! The device layer of GALA's one BSP loop (paper Section 4.3): how a
//! [`Louvain`](crate::louvain::Louvain) run with
//! [`devices`](crate::louvain::LouvainConfig::devices) `> 1` splits each
//! superstep over simulated devices, and what synchronising their
//! decisions costs.
//!
//! Vertices are split into contiguous, edge-balanced ranges
//! ([`partition_by_arcs`]), one per device. Each superstep every device runs
//! DecideAndMove over the active vertices of its own range; the decisions
//! are then synchronised:
//!
//! * **Dense** — every vertex's state (community id, moved flag, community
//!   weight) goes through an `AllReduce`, paying for the full state size
//!   each iteration.
//! * **Sparse** — only `(vertex, new community)` deltas of *moved* vertices
//!   go through an `AllGather`; receivers replay the moves locally (the
//!   same delta propagation as [`crate::weight`]).
//! * **Adaptive** (GALA) — per iteration, whichever of the two has the
//!   smaller modelled cost; early iterations are dense (everything moves),
//!   late iterations sparse.
//!
//! Everything else — pruning, apply, weight maintenance, convergence and
//! the hierarchy — is the single-device loop itself, and all devices share
//! the host's ground-truth state, so a multi-device run returns exactly the
//! single-device result (the property tests pin this down). What the split
//! changes is the *cost*: per-device compute (max over devices, they run in
//! parallel) plus the modelled collective time, which is what Figure 10
//! plots. Phase 2's partitioned contraction is [`crate::mg_contract`].

use crate::backend::ExecutionBackend;
use crate::kernels::{DecideOutput, DecideScratch, KernelKind};
use crate::state::BspState;
use gala_gpu::comm::DeviceGroup;
use gala_gpu::memory::{CostModel, MemTally};
use gala_gpu::profile::Profiler;
use gala_graph::{Graph, VertexId};
use gala_telemetry::{DeviceSync, MetricsRegistry, TraceEvent};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// Synchronisation strategy between devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// AllReduce the full per-vertex state every iteration.
    Dense,
    /// AllGather only the moved-vertex deltas.
    Sparse,
    /// Per-iteration choice by modelled cost (GALA's strategy).
    Adaptive,
}

impl SyncMode {
    fn name(self) -> &'static str {
        match self {
            SyncMode::Dense => "dense",
            SyncMode::Sparse => "sparse",
            SyncMode::Adaptive => "adaptive",
        }
    }
}

/// How [`Louvain`](crate::louvain::Louvain) contracts the graph between
/// hierarchy rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContractMode {
    /// Single host contraction through one
    /// [`CoarsenScratch`](gala_graph::coarsen::CoarsenScratch) (the
    /// default).
    #[default]
    Host,
    /// Partitioned per-device contraction with simulated collectives
    /// ([`crate::mg_contract`]): bit-identical coarse graphs, plus modelled
    /// per-device compute and exchange/repartition time.
    Partitioned,
}

impl fmt::Display for ContractMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ContractMode::Host => "host",
            ContractMode::Partitioned => "partitioned",
        })
    }
}

impl FromStr for ContractMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "host" => Ok(ContractMode::Host),
            "partitioned" => Ok(ContractMode::Partitioned),
            other => Err(format!(
                "unknown contract mode `{other}` (expected host|partitioned)"
            )),
        }
    }
}

/// Bytes of per-vertex state in a dense sync: community id (4) + moved
/// flag (1) + community weight (8).
const DENSE_BYTES_PER_VERTEX: u64 = 13;
/// Bytes per moved-vertex delta in a sparse sync: vertex id (4) +
/// new community id (4).
const SPARSE_BYTES_PER_MOVE: u64 = 8;

/// Cost-model cycles one device retires per modelled µs: a 1.4 GHz clock
/// times 2048 effective concurrent lanes. The tally counts *total* work; a
/// GPU retires thousands of accesses per cycle across its SMs, and 2048 is
/// a conservative A100-class figure (108 SMs, partial occupancy).
pub(crate) const CYCLES_PER_US: f64 = 1.4 * 1000.0 * 2048.0;

/// Splits `0..n` into `p` contiguous ranges of roughly equal *arc* counts,
/// the standard edge-balanced 1-D partition for vertex-centric workloads.
pub fn partition_by_arcs(graph: &Graph, p: usize) -> Vec<Range<VertexId>> {
    assert!(p >= 1);
    let n = graph.num_vertices();
    let total_arcs = graph.num_arcs().max(1);
    let per_device = total_arcs.div_ceil(p);
    let mut ranges = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc = 0usize;
    for v in 0..n {
        acc += graph.degree(v as VertexId);
        if acc >= per_device && ranges.len() < p - 1 {
            ranges.push(start as VertexId..(v + 1) as VertexId);
            start = v + 1;
            acc = 0;
        }
    }
    ranges.push(start as VertexId..n as VertexId);
    while ranges.len() < p {
        ranges.push(n as VertexId..n as VertexId); // idle devices on tiny graphs
    }
    ranges
}

/// Modelled compute time (µs) of one superstep: the slowest device's
/// decide pass (`decide` holds one tally per device) plus an even share of
/// weight maintenance, itself a device kernel.
pub(crate) fn compute_us(decide: &[MemTally], weight: &MemTally) -> f64 {
    let cost = CostModel::default();
    let slowest = decide
        .iter()
        .map(|t| cost.cycles(t) / CYCLES_PER_US)
        .fold(0.0, f64::max);
    slowest + cost.cycles(weight) / decide.len() as f64 / CYCLES_PER_US
}

/// One superstep's modelled synchronisation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sync {
    /// The strategy used: dense or sparse.
    pub(crate) mode: SyncMode,
    /// Bytes it put on the wire.
    pub(crate) bytes: u64,
    /// Modelled collective time.
    pub(crate) comm_us: f64,
}

/// The device split of one phase-1 round: the arc-balanced vertex ranges
/// plus one device's mask and decisions, recycled every superstep.
pub(crate) struct Devices {
    ranges: Vec<Range<VertexId>>,
    group: DeviceGroup,
    sync: SyncMode,
    active: Vec<bool>,
    out: DecideOutput,
    /// The last superstep's decide tally per device.
    tallies: Vec<MemTally>,
}

impl Devices {
    /// Splits `graph` over `devices` devices synchronising under `sync`.
    pub(crate) fn new(graph: &Graph, devices: usize, sync: SyncMode) -> Self {
        Self {
            ranges: partition_by_arcs(graph, devices),
            group: DeviceGroup::new(devices),
            sync,
            active: Vec::new(),
            out: DecideOutput::default(),
            tallies: Vec::with_capacity(devices),
        }
    }

    /// Every device decides over the active vertices of its own range. The
    /// merged decisions land in `out` with tallies, routing and hashtable
    /// statistics summed over devices; the per-device kernel spans merge by
    /// name into one `decide` subtree. Returns how many vertices change
    /// community — the sparse sync's payload.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide(
        &mut self,
        backend: &dyn ExecutionBackend,
        kernel: KernelKind,
        graph: &Graph,
        state: &BspState,
        active: &[bool],
        prof: &mut Profiler,
        scratch: &mut DecideScratch,
        out: &mut DecideOutput,
    ) -> usize {
        out.next_comm.clear();
        out.next_comm.extend_from_slice(&state.comm);
        out.tally = MemTally::new();
        out.hash_stats = Default::default();
        out.routing = Default::default();
        self.tallies.clear();
        let mut moved = 0;
        for range in &self.ranges {
            let range = range.start as usize..range.end as usize;
            self.active.clear();
            self.active.resize(active.len(), false);
            self.active[range.clone()].copy_from_slice(&active[range.clone()]);
            let dev = &mut self.out;
            backend.decide(kernel, graph, state, &self.active, prof, scratch, dev);
            for v in range {
                moved += usize::from(dev.next_comm[v] != state.comm[v]);
                out.next_comm[v] = dev.next_comm[v];
            }
            out.tally += dev.tally;
            out.hash_stats += dev.hash_stats;
            out.routing.shuffle_vertices += dev.routing.shuffle_vertices;
            out.routing.hash_vertices += dev.routing.hash_vertices;
            out.routing.other_vertices += dev.routing.other_vertices;
            self.tallies.push(dev.tally);
        }
        prof.scope("decide", |p| p.count("devices", self.ranges.len() as u64));
        moved
    }

    /// Modelled compute of the superstep last decided, whose weight
    /// maintenance charged `weight`.
    pub(crate) fn compute_us(&self, weight: &MemTally) -> f64 {
        compute_us(&self.tallies, weight)
    }

    /// Models synchronising `moved` of `n` vertices' decisions under the
    /// configured strategy, recording a `sync` span on `prof` and the
    /// `sync/*` counters on `metrics`.
    pub(crate) fn sync(
        &self,
        n: usize,
        moved: usize,
        prof: &mut Profiler,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Sync {
        let dense_bytes = n as u64 * DENSE_BYTES_PER_VERTEX;
        let sparse_bytes = moved as u64 * SPARSE_BYTES_PER_MOVE;
        let dense_us = self.group.all_reduce_time_us(dense_bytes);
        let sparse_us = self.group.all_gather_time_us(sparse_bytes);
        let sparse = match self.sync {
            SyncMode::Dense => false,
            SyncMode::Sparse => true,
            SyncMode::Adaptive => sparse_us <= dense_us,
        };
        let sync = if sparse {
            Sync {
                mode: SyncMode::Sparse,
                bytes: sparse_bytes,
                comm_us: sparse_us,
            }
        } else {
            Sync {
                mode: SyncMode::Dense,
                bytes: dense_bytes,
                comm_us: dense_us,
            }
        };
        let mode = sync.mode.name();
        prof.scope("sync", |p| {
            p.count("bytes", sync.bytes);
            p.count("dense_bytes", dense_bytes);
            p.count("sparse_bytes", sparse_bytes);
            p.count(&format!("{mode}_syncs"), 1);
        });
        if let Some(m) = metrics {
            m.inc(&format!("sync/{mode}_syncs"), 1);
            m.inc(&format!("sync/{mode}_bytes"), sync.bytes);
            m.observe("sync/bytes_per_superstep", sync.bytes);
        }
        sync
    }

    /// The `sync` trace event of superstep `superstep`.
    pub(crate) fn event(&self, superstep: u32, sync: &Sync) -> TraceEvent {
        TraceEvent::Sync(DeviceSync {
            superstep,
            mode: sync.mode.name().to_string(),
            bytes: sync.bytes,
            comm_us: sync.comm_us,
            devices: self.ranges.len() as u32,
        })
    }

    /// Closes a round's `sync/*` metrics: the device count and the
    /// fraction of supersteps that synchronised sparsely.
    pub(crate) fn finish_metrics(&self, m: &mut MetricsRegistry) {
        m.inc("sync/devices", self.ranges.len() as u64);
        let dense = m.counter("sync/dense_syncs").unwrap_or(0);
        let sparse = m.counter("sync/sparse_syncs").unwrap_or(0);
        m.gauge(
            "sync/sparse_fraction",
            if dense + sparse == 0 {
                0.0
            } else {
                sparse as f64 / (dense + sparse) as f64
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::louvain::{Louvain, LouvainConfig, LouvainResult};
    use crate::observe::Obs;
    use gala_graph::generators::fixtures;
    use gala_telemetry::{MetricsSnapshot, RoundEnd, RunStart, SpanTree, VecSink};

    fn on(devices: usize) -> Louvain {
        Louvain::new(LouvainConfig {
            devices,
            ..LouvainConfig::default()
        })
    }

    /// Total modelled device time of every phase-1 round (µs).
    fn phase1_us(r: &LouvainResult) -> f64 {
        r.rounds.iter().map(|r| r.total_us()).sum()
    }

    /// The phase-1 `sync` events of a trace (partitioned contraction adds
    /// `exchange-*` ones).
    fn phase1_syncs(sink: &VecSink) -> Vec<(String, u64, f64, u32)> {
        sink.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sync(DeviceSync {
                    mode,
                    bytes,
                    comm_us,
                    devices,
                    ..
                }) if !mode.starts_with("exchange-") => {
                    Some((mode.clone(), *bytes, *comm_us, *devices))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ranges_cover_all_vertices() {
        let g = fixtures::ring_of_cliques(7, 5);
        for p in [1, 2, 3, 8] {
            let ranges = partition_by_arcs(&g, p);
            assert_eq!(ranges.len(), p);
            let mut v = 0u32;
            for r in &ranges {
                assert_eq!(r.start, v);
                v = r.end;
            }
            assert_eq!(v as usize, g.num_vertices());
        }
    }

    #[test]
    fn multi_device_matches_single_device() {
        let g = fixtures::ring_of_cliques(8, 6);
        let (base, base_stats) = on(1).run_phase1(&g);
        for p in [2, 4, 8] {
            let (multi, stats) = on(p).run_phase1(&g);
            assert_eq!(
                multi.partition(),
                base.partition(),
                "device count {p} changed the result"
            );
            assert_eq!(stats.modularity.to_bits(), base_stats.modularity.to_bits());
        }
    }

    #[test]
    fn single_device_pays_no_communication() {
        let g = fixtures::two_cliques(6);
        let (_, stats) = on(1).run_phase1(&g);
        assert_eq!(stats.comm_us(), 0.0);
        assert!(stats.iterations.iter().all(|i| i.sync.is_none()));
        assert!(stats.compute_us() > 0.0);
    }

    #[test]
    fn adaptive_switches_to_sparse_late() {
        let g = fixtures::ring_of_cliques(10, 8);
        let (_, r) = on(4).run_phase1(&g);
        // The final iterations move almost nothing: sparse must win there.
        let last = r.iterations.last().unwrap();
        assert_eq!(last.sync, Some(SyncMode::Sparse));
        // And adaptive must never cost more than either pure mode.
        let (_, dense) = Louvain::new(LouvainConfig {
            devices: 4,
            sync: SyncMode::Dense,
            ..LouvainConfig::default()
        })
        .run_phase1(&g);
        assert!(r.comm_us() <= dense.comm_us() + 1e-9);
    }

    #[test]
    fn full_run_matches_single_device_louvain_quality() {
        let g = fixtures::ring_of_cliques(8, 5);
        let multi = on(4).run(&g);
        let single = on(1).run(&g);
        assert_eq!(multi.partition, single.partition);
        assert_eq!(multi.modularity.to_bits(), single.modularity.to_bits());
        assert_eq!(multi.partition.num_communities(), 8);
        assert!(multi.rounds.len() >= 2);
        assert!(phase1_us(&multi) > 0.0);
    }

    #[test]
    fn trace_carries_sync_decision_and_bytes() {
        let g = fixtures::ring_of_cliques(10, 8);
        let mut sink = VecSink::default();
        let traced = on(4).run_with(&g, &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, on(4).run(&g).partition);

        let syncs = phase1_syncs(&sink);
        let iterations: Vec<_> = traced.rounds.iter().flat_map(|r| &r.iterations).collect();
        assert_eq!(syncs.len(), iterations.len());
        let n = g.num_vertices() as u64;
        for ((mode, bytes, comm_us, devices), it) in syncs.iter().zip(&iterations) {
            assert_eq!(*devices, 4);
            assert!((comm_us - it.comm_us).abs() < 1e-12);
            match it.sync {
                Some(SyncMode::Dense) => {
                    // Coarser rounds sync fewer vertices.
                    assert_eq!(mode, "dense");
                    assert_eq!(*bytes % DENSE_BYTES_PER_VERTEX, 0);
                    assert!(*bytes <= n * DENSE_BYTES_PER_VERTEX);
                }
                Some(SyncMode::Sparse) => {
                    assert_eq!(mode, "sparse");
                    assert_eq!(*bytes, it.num_moved as u64 * SPARSE_BYTES_PER_MOVE);
                }
                other => panic!("unexpected sync {other:?}"),
            }
        }
        // Adaptive runs end sparse; the trace must show the switch.
        assert_eq!(syncs.last().unwrap().0, "sparse");
    }

    #[test]
    fn instrumented_run_records_sync_spans() {
        let g = fixtures::ring_of_cliques(10, 8);
        let plain = on(4).run(&g);
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = on(4).run_with(&g, &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);

        let span_roots: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(SpanTree { phase, root, .. }) if phase == "phase1" => Some(root),
                _ => None,
            })
            .collect();
        assert_eq!(span_roots.len(), traced.num_iterations());
        for root in &span_roots {
            let sync = root.child("sync").expect("sync span");
            assert!(sync.counter("dense_bytes") > 0);
            assert_eq!(
                sync.counter("dense_syncs") + sync.counter("sparse_syncs"),
                1
            );
            assert_eq!(root.child("decide").unwrap().counter("devices"), 4);
        }
        // Merged run-level tree: total sync bytes match the trace events.
        let sync = tree
            .child("round")
            .and_then(|r| r.child("superstep"))
            .and_then(|s| s.child("sync"))
            .expect("merged sync span");
        let traced_bytes: u64 = phase1_syncs(&sink).iter().map(|s| s.1).sum();
        assert_eq!(sync.counter("bytes"), traced_bytes);
    }

    #[test]
    fn traced_run_emits_sync_metrics() {
        let g = fixtures::ring_of_cliques(10, 8);
        let mut sink = VecSink::default();
        let traced = on(4).run_with(&g, &mut Obs::traced(&mut sink));
        let regs: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Metrics(MetricsSnapshot {
                    scope, registry, ..
                }) => Some((scope.as_str(), registry)),
                _ => None,
            })
            .collect();
        assert_eq!(
            regs.len(),
            traced.rounds.len(),
            "one metrics event per round"
        );
        for ((scope, m), round) in regs.iter().zip(&traced.rounds) {
            assert_eq!(*scope, "phase1");
            assert_eq!(m.counter("sync/devices"), Some(4));
            let dense = m.counter("sync/dense_syncs").unwrap_or(0);
            let sparse = m.counter("sync/sparse_syncs").unwrap_or(0);
            assert_eq!(dense + sparse, round.iterations.len() as u64);
            // Byte histogram covers every superstep; totals match the
            // counters.
            let h = m.histogram("sync/bytes_per_superstep").unwrap();
            assert_eq!(h.count(), round.iterations.len() as u64);
            let total_bytes = m.counter("sync/dense_bytes").unwrap_or(0)
                + m.counter("sync/sparse_bytes").unwrap_or(0);
            assert_eq!(h.sum(), total_bytes);
            // The single-device keys ride along.
            assert!(m.gauge_value("pruning/audit_fnr").is_some());
        }
        // The adaptive strategy ends sparse on this fixture, so both the
        // counter and the gauge must show sparse syncs happened.
        let (_, first) = regs[0];
        assert!(first.counter("sync/sparse_syncs").unwrap() > 0);
        assert!(first.gauge_value("sync/sparse_fraction").unwrap() > 0.0);
        // Routing counters cover every decided vertex.
        assert!(first.counter("kernel/shuffle_vertices").unwrap() > 0);
    }

    #[test]
    fn full_run_partitioned_matches_host_contraction() {
        let g = fixtures::ring_of_cliques(8, 5);
        for devices in [1, 2, 4, 8] {
            let host = on(devices).run(&g);
            let part = Louvain::new(LouvainConfig {
                devices,
                contract: ContractMode::Partitioned,
                ..LouvainConfig::default()
            })
            .run(&g);
            assert_eq!(part.partition, host.partition, "devices {devices}");
            assert_eq!(part.modularity.to_bits(), host.modularity.to_bits());
            assert_eq!(part.rounds.len(), host.rounds.len());
            assert!(part.contracts.iter().all(|c| c.mode != "host"));
            assert!(host.contracts.iter().all(|c| c.mode == "host"));
            let contract_us =
                |r: &LouvainResult| -> f64 { r.contracts.iter().map(|c| c.total_us()).sum() };
            assert!(contract_us(&part) > 0.0, "partitioned rounds are modelled");
            assert_eq!(contract_us(&host), 0.0);
        }
    }

    #[test]
    fn full_traced_brackets_rounds_and_emits_exchange_syncs() {
        let g = fixtures::ring_of_cliques(8, 5);
        let runner = Louvain::new(LouvainConfig {
            devices: 4,
            contract: ContractMode::Partitioned,
            ..LouvainConfig::default()
        });
        let plain = runner.run(&g);
        let mut sink = VecSink::default();
        let traced = runner.run_with(&g, &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity.to_bits(), plain.modularity.to_bits());

        let starts = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RunStart(RunStart { devices: 4, .. })))
            .count();
        let ends = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RunEnd(_)))
            .count();
        assert_eq!((starts, ends), (1, 1), "one bracket around the hierarchy");
        let round_ends: Vec<u32> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd(RoundEnd { round, .. }) => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(
            round_ends,
            (0..traced.rounds.len() as u32).collect::<Vec<_>>()
        );

        // One contract span per round, with aggregate/exchange children.
        let contract_spans: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(SpanTree { phase, root, .. }) if phase == "contract" => Some(root),
                _ => None,
            })
            .collect();
        assert_eq!(contract_spans.len(), traced.contracts.len());
        for (root, stats) in contract_spans.iter().zip(&traced.contracts) {
            let c = root.child("contract").expect("contract scope");
            let ex = c.child("exchange").expect("exchange scope");
            assert_eq!(ex.counter("bytes"), stats.exchange_bytes);
            assert_eq!(ex.counter("ghost_members"), stats.ghost_members);
            assert_eq!(c.child("aggregate").unwrap().counter("devices"), 4);
        }

        // One exchange sync event per partitioned round, byte-exact.
        let exchanges: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sync(DeviceSync { mode, bytes, .. })
                    if mode.starts_with("exchange-") =>
                {
                    Some((mode.clone(), *bytes))
                }
                _ => None,
            })
            .collect();
        assert_eq!(exchanges.len(), traced.contracts.len());
        for ((mode, bytes), stats) in exchanges.iter().zip(&traced.contracts) {
            assert_eq!(mode, stats.mode);
            assert_eq!(*bytes, stats.exchange_bytes);
        }
    }

    #[test]
    fn contract_mode_parses_and_displays() {
        assert_eq!("host".parse::<ContractMode>().unwrap(), ContractMode::Host);
        assert_eq!(
            "partitioned".parse::<ContractMode>().unwrap(),
            ContractMode::Partitioned
        );
        assert!("device".parse::<ContractMode>().is_err());
        for mode in [ContractMode::Host, ContractMode::Partitioned] {
            assert_eq!(mode.to_string().parse::<ContractMode>().unwrap(), mode);
        }
    }

    #[test]
    fn more_devices_reduce_compute_time() {
        let g = fixtures::ring_of_cliques(12, 8);
        let (_, one) = on(1).run_phase1(&g);
        let (_, four) = on(4).run_phase1(&g);
        assert!(
            four.compute_us() < one.compute_us(),
            "4-device compute {} vs 1-device {}",
            four.compute_us(),
            one.compute_us()
        );
    }
}
