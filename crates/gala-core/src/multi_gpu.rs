//! Multi-GPU GALA (paper Section 4.3): vertex-partitioned execution with
//! adaptive dense/sparse synchronisation.
//!
//! Vertices are split into contiguous, edge-balanced ranges, one per
//! simulated device. Each superstep every device runs DecideAndMove over
//! its own range; the decisions are then synchronised:
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
//! The simulation is *functionally exact*: all devices share the host's
//! ground-truth state, so the result equals the single-device run — the
//! property tests pin this down. What the device split changes is the
//! *cost*: per-device compute (max over devices, they run in parallel) plus
//! the modelled collective time, which is what Figure 10 plots.

use crate::backend::BackendKind;
use crate::kernels::{self, KernelKind};
use crate::louvain::{DipPatience, DIP_PATIENCE};
use crate::mg_contract::{self, ContractRoundStats};
use crate::observe::Obs;
use crate::pruning::{self, PruningKind};
use crate::state::BspState;
use crate::weight::{self, WeightUpdateMode};
use gala_gpu::comm::DeviceGroup;
use gala_gpu::memory::{CostModel, MemTally};
use gala_graph::coarsen::{CoarsenScratch, Coarsened};
use gala_graph::{Graph, Partition, VertexId};
use gala_telemetry::TraceEvent;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

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

/// How [`run_full`] contracts the graph between hierarchy rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContractMode {
    /// Single host contraction through one [`CoarsenScratch`] (the
    /// pre-partitioned behavior; the default).
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

/// Configuration of a multi-device run.
#[derive(Clone, Copy, Debug)]
pub struct MultiGpuConfig {
    /// Number of simulated devices.
    pub num_devices: usize,
    /// DecideAndMove kernel per device.
    pub kernel: KernelKind,
    /// Pruning strategy (applies identically on every device).
    pub pruning: PruningKind,
    /// Weight maintenance mode.
    pub weight_update: WeightUpdateMode,
    /// Synchronisation strategy.
    pub sync: SyncMode,
    /// Convergence threshold θ.
    pub theta: f64,
    /// Superstep cap.
    pub max_iterations: usize,
    /// Seed (PM pruning only).
    pub seed: u64,
    /// Simulated GPU clock in GHz (converts cost-model cycles to µs).
    pub clock_ghz: f64,
    /// Effective concurrent lanes per device. The cost-model tally counts
    /// *total* work; a GPU retires thousands of accesses per cycle across
    /// its SMs, so modelled time = cycles / (clock · parallelism). 2048 is
    /// a conservative A100-class figure (108 SMs, partial occupancy).
    pub effective_parallelism: f64,
    /// Execution backend for the per-device decide passes and the host
    /// contraction between rounds. Note the native backend records no
    /// tallies, so modelled compute/communication times degenerate to the
    /// collective model only; assignments are identical either way.
    pub backend: BackendKind,
    /// Phase-2 strategy for [`run_full`]: host contraction or the
    /// partitioned per-device contraction with simulated collectives.
    pub contract: ContractMode,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        Self {
            num_devices: 1,
            kernel: KernelKind::default(),
            pruning: PruningKind::Gain,
            weight_update: WeightUpdateMode::Delta,
            sync: SyncMode::Adaptive,
            theta: 1e-6,
            max_iterations: 500,
            seed: 0x6A1A,
            clock_ghz: 1.4,
            effective_parallelism: 2048.0,
            backend: BackendKind::Sim,
            contract: ContractMode::default(),
        }
    }
}

/// Per-superstep record of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiGpuIteration {
    /// Superstep index.
    pub iteration: usize,
    /// Modelled compute time: max over devices of its kernel cycles / clock.
    pub compute_us: f64,
    /// Modelled collective time for this superstep's synchronisation.
    pub comm_us: f64,
    /// Which sync the (possibly adaptive) strategy actually used.
    pub sync_used: SyncMode,
    /// Vertices moved.
    pub num_moved: usize,
    /// Vertices active.
    pub num_active: usize,
    /// Per-device tallies (diagnostics).
    pub device_tallies: Vec<MemTally>,
}

/// Result of a multi-device phase-1 run.
#[derive(Clone, Debug)]
pub struct MultiGpuResult {
    /// Final communities.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Per-superstep records.
    pub iterations: Vec<MultiGpuIteration>,
}

impl MultiGpuResult {
    /// Total modelled compute time (µs).
    pub fn compute_us(&self) -> f64 {
        self.iterations.iter().map(|i| i.compute_us).sum()
    }

    /// Total modelled communication time (µs).
    pub fn comm_us(&self) -> f64 {
        self.iterations.iter().map(|i| i.comm_us).sum()
    }

    /// Total modelled time (µs).
    pub fn total_us(&self) -> f64 {
        self.compute_us() + self.comm_us()
    }
}

/// Splits `0..n` into `p` contiguous ranges of roughly equal *arc* counts,
/// the standard edge-balanced 1-D partition for vertex-centric workloads.
pub fn partition_by_arcs(graph: &Graph, p: usize) -> Vec<std::ops::Range<VertexId>> {
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

/// Runs phase 1 on `num_devices` simulated devices.
pub fn run_phase1(graph: &Graph, config: MultiGpuConfig) -> MultiGpuResult {
    run_phase1_with(graph, config, &mut Obs::off())
}

/// [`run_phase1`] observed through `obs`: `run_start`, per BSP superstep a
/// `span`/`profile` pair (classify → decide → sync → apply → weight-update
/// → modularity), a `superstep` and a `sync` event (the dense-vs-sparse
/// decision and the modelled byte volume), then the round's `metrics` and
/// `progress` events and a final `run_end`.
pub fn run_phase1_with(graph: &Graph, config: MultiGpuConfig, obs: &mut Obs) -> MultiGpuResult {
    obs.run_start("multi-gpu", graph, config.num_devices);
    let result = run_phase1_round(graph, config, obs, 0);
    let total: MemTally = result
        .iterations
        .iter()
        .flat_map(|i| i.device_tallies.iter().copied())
        .sum();
    obs.run_end(result.modularity, 1, CostModel::default().cycles(&total));
    result
}

/// One phase-1 pass at hierarchy round `round`, inside the caller's
/// `run_start`/`run_end` bracket.
fn run_phase1_round(
    graph: &Graph,
    config: MultiGpuConfig,
    obs: &mut Obs,
    round: u32,
) -> MultiGpuResult {
    let cfg = config;
    let backend = cfg.backend.resolve();
    let group = DeviceGroup::new(cfg.num_devices);
    let cost = CostModel::default();
    let ranges = partition_by_arcs(graph, cfg.num_devices);
    let mut state = BspState::new(graph);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut iterations = Vec::new();
    let n = graph.num_vertices();
    let cycles_per_us = cfg.clock_ghz * 1000.0 * cfg.effective_parallelism;
    let mut prev_q = state.modularity(graph);
    let mut dips = DipPatience::new(&state, prev_q, cfg.theta, DIP_PATIENCE);
    // Algorithm-level metrics (sync strategy, routing, pruning): one
    // `metrics` event per round.
    if let Some(m) = obs.metrics() {
        m.inc("sync/devices", cfg.num_devices as u64);
    }
    // Superstep working set, allocated once and recycled every iteration.
    let mut active: Vec<bool> = Vec::new();
    let mut next_comm = Vec::new();
    let mut device_active: Vec<bool> = Vec::new();
    let mut dscratch = kernels::DecideScratch::default();
    let mut dev_out = kernels::DecideOutput::default();
    for iteration in 0..cfg.max_iterations {
        let mut sub = obs.sub();
        let num_active = sub.scope("classify", |p| {
            pruning::classify_into(cfg.pruning, graph, &state, &mut rng, &mut active);
            let num_active = active.iter().filter(|&&a| a).count();
            p.count("active", num_active as u64);
            p.count("pruned", (n - num_active) as u64);
            num_active
        });

        // Each device decides over its owned range; the per-device kernel
        // spans merge by name into one `decide` subtree.
        next_comm.clear();
        next_comm.extend_from_slice(&state.comm);
        let mut device_tallies = Vec::with_capacity(cfg.num_devices);
        for range in &ranges {
            device_active.clear();
            device_active.resize(n, false);
            for v in range.clone() {
                device_active[v as usize] = active[v as usize];
            }
            backend.decide(
                cfg.kernel,
                graph,
                &state,
                &device_active,
                &mut sub,
                &mut dscratch,
                &mut dev_out,
            );
            for v in range.clone() {
                next_comm[v as usize] = dev_out.next_comm[v as usize];
            }
            if let Some(m) = obs.metrics() {
                m.inc("kernel/shuffle_vertices", dev_out.routing.shuffle_vertices);
                m.inc("kernel/hash_vertices", dev_out.routing.hash_vertices);
                m.inc("kernel/other_vertices", dev_out.routing.other_vertices);
            }
            device_tallies.push(dev_out.tally);
        }
        sub.scope("decide", |p| p.count("devices", cfg.num_devices as u64));
        let compute_us = device_tallies
            .iter()
            .map(|t| cost.cycles(t) / cycles_per_us)
            .fold(0.0, f64::max);

        // Synchronise the decisions.
        let num_moved = next_comm
            .iter()
            .zip(&state.comm)
            .filter(|(a, b)| a != b)
            .count();
        let dense_bytes = n as u64 * DENSE_BYTES_PER_VERTEX;
        let sparse_bytes = num_moved as u64 * SPARSE_BYTES_PER_MOVE;
        let dense_us = group.all_reduce_time_us(dense_bytes);
        let sparse_us = group.all_gather_time_us(sparse_bytes);
        let (sync_used, comm_us) = match cfg.sync {
            SyncMode::Dense => (SyncMode::Dense, dense_us),
            SyncMode::Sparse => (SyncMode::Sparse, sparse_us),
            SyncMode::Adaptive => {
                if sparse_us <= dense_us {
                    (SyncMode::Sparse, sparse_us)
                } else {
                    (SyncMode::Dense, dense_us)
                }
            }
        };
        let (mode, used_bytes) = match sync_used {
            SyncMode::Dense => ("dense", dense_bytes),
            // Same count the sparse cost above was modelled with.
            _ => ("sparse", sparse_bytes),
        };

        sub.scope("sync", |p| {
            p.count("bytes", used_bytes);
            p.count("dense_bytes", dense_bytes);
            p.count("sparse_bytes", sparse_bytes);
            let syncs = match sync_used {
                SyncMode::Dense => "dense_syncs",
                _ => "sparse_syncs",
            };
            p.count(syncs, 1);
        });
        if let Some(m) = obs.metrics() {
            m.inc(&format!("sync/{mode}_syncs"), 1);
            m.inc(&format!("sync/{mode}_bytes"), used_bytes);
            m.observe("sync/bytes_per_superstep", used_bytes);
            m.inc("pruning/active", num_active as u64);
            m.inc("pruning/pruned", (n - num_active) as u64);
            m.inc("phase1/moved", num_moved as u64);
            m.inc("phase1/supersteps", 1);
        }
        let summary = sub.scope("apply", |p| {
            let summary = state.apply_moves(graph, &next_comm);
            p.count("moved", summary.num_moved() as u64);
            summary
        });
        let weight_tally = sub.scope("weight_update", |p| {
            let tally = weight::update(cfg.weight_update, graph, &mut state, &summary);
            p.record(&tally);
            tally
        });
        // Weight maintenance is itself a device kernel, split evenly.
        let compute_us =
            compute_us + cost.cycles(&weight_tally) / (cfg.num_devices as f64) / cycles_per_us;
        let q = sub.scope("modularity", |p| {
            p.count("items", n as u64);
            state.modularity(graph)
        });
        obs.span(round, iteration as u32, "phase1", Some(cfg.backend), sub);
        let moved = summary.num_moved();
        obs.superstep(graph, round, iteration as u32, num_active, moved, q, || {
            [
                TraceEvent::Superstep {
                    round,
                    superstep: iteration as u32,
                    active: num_active as u64,
                    moved: moved as u64,
                    pruned: (n - num_active) as u64,
                    unmoved: num_active.saturating_sub(moved) as u64,
                    modularity: q,
                    delta_q: q - prev_q,
                    decide_tally: device_tallies.iter().copied().sum(),
                    weight_tally,
                    hash_occupancy: 0.0,
                    hash_evictions: 0,
                },
                TraceEvent::Sync {
                    superstep: iteration as u32,
                    mode: mode.to_string(),
                    bytes: used_bytes,
                    comm_us,
                    devices: cfg.num_devices as u32,
                },
            ]
        });
        prev_q = q;
        iterations.push(MultiGpuIteration {
            iteration,
            compute_us,
            comm_us,
            sync_used,
            num_moved: moved,
            num_active,
            device_tallies,
        });
        if dips.step(&state, q, moved) {
            break;
        }
    }
    let best_q = dips.finish(graph, &mut state);
    obs.phase1_end(round, iterations.len(), best_q, "sync", |m| {
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
    });
    MultiGpuResult {
        partition: state.partition(),
        modularity: best_q,
        iterations,
    }
}

/// Result of a full multi-round multi-device run.
#[derive(Clone, Debug)]
pub struct MultiGpuFullResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Per-round phase-1 results.
    pub rounds: Vec<MultiGpuResult>,
    /// Per-round phase-2 cost records. Under [`ContractMode::Host`] these
    /// carry mode `"host"` and no modelled device time; under
    /// [`ContractMode::Partitioned`] they hold the per-device compute and
    /// exchange/repartition model of [`mg_contract::contract_partitioned`].
    pub contracts: Vec<ContractRoundStats>,
}

impl MultiGpuFullResult {
    /// Total modelled phase-1 device time across rounds (µs).
    pub fn total_us(&self) -> f64 {
        self.rounds.iter().map(|r| r.total_us()).sum()
    }

    /// Total modelled phase-2 (contract + exchange) device time (µs); zero
    /// under [`ContractMode::Host`].
    pub fn contract_us(&self) -> f64 {
        self.contracts.iter().map(|c| c.total_us()).sum()
    }
}

/// Runs the complete Louvain hierarchy with every phase 1 executed on the
/// simulated devices and phase 2 selected by [`MultiGpuConfig::contract`].
pub fn run_full(graph: &Graph, config: MultiGpuConfig) -> MultiGpuFullResult {
    run_full_with(graph, config, &mut Obs::off())
}

/// [`run_full`] observed through `obs`: one `run_start`/`run_end` bracket
/// around the whole hierarchy, the per-round phase-1 event stream
/// (supersteps, spans, syncs, metrics — with real round indices), one
/// `contract` span per round (with `aggregate` / `exchange` children under
/// [`ContractMode::Partitioned`]), an exchange `sync` event per partitioned
/// contraction, and a `round_end` per round. The run-level profile holds
/// one `round` span per hierarchy round.
pub fn run_full_with(graph: &Graph, config: MultiGpuConfig, obs: &mut Obs) -> MultiGpuFullResult {
    let cfg = config;
    let backend = cfg.backend.resolve();
    obs.run_start("multi-gpu", graph, cfg.num_devices);
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut rounds: Vec<MultiGpuResult> = Vec::new();
    let mut contracts: Vec<ContractRoundStats> = Vec::new();
    let mut last_q = f64::NEG_INFINITY;
    let mut cscratch = CoarsenScratch::default();
    for round in 0..20u32 {
        let g = current.as_ref().unwrap_or(graph);
        obs.enter_round();
        let round_res = run_phase1_round(g, cfg, obs, round);
        let q = round_res.modularity;
        // Phase 2 profiles like a superstep: a fresh sub-tree per round,
        // filed under the open `round` span.
        let mut sub = obs.sub();
        let instrumented = obs.instrumented();
        let started = Instant::now();
        let (coarse, cstats) = sub.scope("contract", |p| {
            let out = match cfg.contract {
                ContractMode::Host => {
                    let coarse = backend.contract(
                        g,
                        &round_res.partition,
                        cfg.kernel,
                        instrumented,
                        p,
                        &mut cscratch,
                    );
                    let stats = ContractRoundStats {
                        devices: cfg.num_devices,
                        rows: coarse.num_communities as u64,
                        mode: "host",
                        ..ContractRoundStats::default()
                    };
                    (coarse, stats)
                }
                ContractMode::Partitioned => mg_contract::contract_partitioned_with(
                    g,
                    &round_res.partition,
                    &cfg,
                    backend,
                    p,
                    &mut cscratch,
                    obs,
                ),
            };
            p.count("vertices", g.num_vertices() as u64);
            p.count("arcs", g.num_arcs() as u64);
            p.count("communities", out.0.num_communities as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            out
        });
        let supersteps = round_res.iterations.len();
        obs.span(round, supersteps as u32, "contract", Some(cfg.backend), sub);
        // The exchange is the phase-2 analogue of a phase-1 sync: one
        // event per partitioned round (the host fallback exchanges
        // nothing, so it emits nothing).
        if cstats.mode != "host" {
            obs.emit(|| TraceEvent::Sync {
                superstep: supersteps as u32,
                mode: cstats.mode.to_string(),
                bytes: cstats.exchange_bytes,
                comm_us: cstats.exchange_us,
                devices: cfg.num_devices as u32,
            });
        }
        obs.exit_round();
        let stalled = coarse.num_communities == g.num_vertices();
        // Coarsening progress: the next level's arc count shows how fast
        // the hierarchy is collapsing.
        let (communities, arcs) = (coarse.num_communities, coarse.graph.num_arcs());
        obs.round_end(round, "contract", supersteps, communities, arcs, || q);
        rounds.push(round_res);
        contracts.push(cstats);
        let Coarsened {
            graph: coarse_graph,
            renumbered,
            ..
        } = coarse;
        // Compose into the flat partition without cloning: the first
        // round's renumbering *is* the flat partition; later rounds hand
        // the spent level's assignment back to the scratch.
        flat = Some(match flat.take() {
            None => renumbered,
            Some(prev) => {
                let composed = prev.compose(&renumbered);
                cscratch.reclaim_assignment(renumbered);
                composed
            }
        });
        if stalled || q - last_q < cfg.theta {
            // The final round's coarse graph is never descended into:
            // reclaim its CSR buffers instead of leaking them.
            cscratch.reclaim_graph(coarse_graph);
            break;
        }
        last_q = q;
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        current = Some(coarse_graph);
    }
    let partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
    let modularity = crate::modularity::modularity(graph, &partition);
    let total: MemTally = rounds
        .iter()
        .flat_map(|r| r.iterations.iter())
        .flat_map(|i| i.device_tallies.iter().copied())
        .chain(
            contracts
                .iter()
                .flat_map(|c| c.device_tallies.iter().copied()),
        )
        .sum();
    obs.run_end(
        modularity,
        rounds.len(),
        CostModel::default().cycles(&total),
    );
    MultiGpuFullResult {
        partition,
        modularity,
        rounds,
        contracts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

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
        let base = run_phase1(&g, MultiGpuConfig::default());
        for p in [2, 4, 8] {
            let multi = run_phase1(
                &g,
                MultiGpuConfig {
                    num_devices: p,
                    ..MultiGpuConfig::default()
                },
            );
            assert_eq!(
                multi.partition, base.partition,
                "device count {p} changed the result"
            );
            assert!((multi.modularity - base.modularity).abs() < 1e-12);
        }
    }

    #[test]
    fn single_device_pays_no_communication() {
        let g = fixtures::two_cliques(6);
        let r = run_phase1(&g, MultiGpuConfig::default());
        assert_eq!(r.comm_us(), 0.0);
    }

    #[test]
    fn adaptive_switches_to_sparse_late() {
        let g = fixtures::ring_of_cliques(10, 8);
        let r = run_phase1(
            &g,
            MultiGpuConfig {
                num_devices: 4,
                sync: SyncMode::Adaptive,
                ..MultiGpuConfig::default()
            },
        );
        // The final iterations move almost nothing: sparse must win there.
        let last = r.iterations.last().unwrap();
        assert_eq!(last.sync_used, SyncMode::Sparse);
        // And adaptive must never cost more than either pure mode.
        let dense = run_phase1(
            &g,
            MultiGpuConfig {
                num_devices: 4,
                sync: SyncMode::Dense,
                ..MultiGpuConfig::default()
            },
        );
        assert!(r.comm_us() <= dense.comm_us() + 1e-9);
    }

    #[test]
    fn full_run_matches_single_device_louvain_quality() {
        let g = fixtures::ring_of_cliques(8, 5);
        let multi = run_full(
            &g,
            MultiGpuConfig {
                num_devices: 4,
                ..MultiGpuConfig::default()
            },
        );
        let single = crate::louvain::Louvain::new(crate::louvain::LouvainConfig::default()).run(&g);
        assert!(
            (multi.modularity - single.modularity).abs() < 1e-9,
            "multi {} vs single {}",
            multi.modularity,
            single.modularity
        );
        assert_eq!(multi.partition.num_communities(), 8);
        assert!(multi.rounds.len() >= 2);
        assert!(multi.total_us() > 0.0);
    }

    #[test]
    fn trace_carries_sync_decision_and_bytes() {
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(10, 8);
        let cfg = MultiGpuConfig {
            num_devices: 4,
            sync: SyncMode::Adaptive,
            ..MultiGpuConfig::default()
        };
        let mut sink = VecSink::default();
        let traced = run_phase1_with(&g, cfg, &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, run_phase1(&g, cfg).partition);

        let syncs: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sync {
                    mode,
                    bytes,
                    comm_us,
                    devices,
                    ..
                } => Some((mode.clone(), *bytes, *comm_us, *devices)),
                _ => None,
            })
            .collect();
        assert_eq!(syncs.len(), traced.iterations.len());
        let n = g.num_vertices() as u64;
        for ((mode, bytes, comm_us, devices), it) in syncs.iter().zip(&traced.iterations) {
            assert_eq!(*devices, 4);
            assert!((comm_us - it.comm_us).abs() < 1e-12);
            match it.sync_used {
                SyncMode::Dense => {
                    assert_eq!(mode, "dense");
                    assert_eq!(*bytes, n * DENSE_BYTES_PER_VERTEX);
                }
                _ => {
                    assert_eq!(mode, "sparse");
                    assert_eq!(*bytes % SPARSE_BYTES_PER_MOVE, 0);
                }
            }
        }
        // Adaptive runs end sparse; the trace must show the switch.
        assert_eq!(syncs.last().unwrap().0, "sparse");
    }

    #[test]
    fn instrumented_run_records_sync_spans() {
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(10, 8);
        let cfg = MultiGpuConfig {
            num_devices: 4,
            sync: SyncMode::Adaptive,
            ..MultiGpuConfig::default()
        };
        let plain = run_phase1(&g, cfg);
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = run_phase1_with(&g, cfg, &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);

        let span_roots: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { root, .. } => Some(root),
                _ => None,
            })
            .collect();
        assert_eq!(span_roots.len(), traced.iterations.len());
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
            .child("superstep")
            .and_then(|s| s.child("sync"))
            .expect("merged sync span");
        let traced_bytes: u64 = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sync { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(sync.counter("bytes"), traced_bytes);
    }

    #[test]
    fn traced_run_emits_sync_metrics() {
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(10, 8);
        let cfg = MultiGpuConfig {
            num_devices: 4,
            sync: SyncMode::Adaptive,
            ..MultiGpuConfig::default()
        };
        let mut sink = VecSink::default();
        let traced = run_phase1_with(&g, cfg, &mut Obs::traced(&mut sink));
        let regs: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Metrics {
                    scope, registry, ..
                } => Some((scope.as_str(), registry)),
                _ => None,
            })
            .collect();
        assert_eq!(regs.len(), 1, "one metrics event per multi-GPU run");
        let (scope, m) = regs[0];
        assert_eq!(scope, "sync");
        assert_eq!(m.counter("sync/devices"), Some(4));
        let dense = m.counter("sync/dense_syncs").unwrap_or(0);
        let sparse = m.counter("sync/sparse_syncs").unwrap_or(0);
        assert_eq!(dense + sparse, traced.iterations.len() as u64);
        // The adaptive strategy ends sparse on this fixture, so both the
        // counter and the gauge must show sparse syncs happened.
        assert!(sparse > 0);
        assert!(m.gauge_value("sync/sparse_fraction").unwrap() > 0.0);
        // Byte histogram covers every superstep; totals match the counters.
        let h = m.histogram("sync/bytes_per_superstep").unwrap();
        assert_eq!(h.count(), traced.iterations.len() as u64);
        let total_bytes = m.counter("sync/dense_bytes").unwrap_or(0)
            + m.counter("sync/sparse_bytes").unwrap_or(0);
        assert_eq!(h.sum(), total_bytes);
        // Routing counters cover every decided vertex.
        assert!(m.counter("kernel/shuffle_vertices").unwrap() > 0);
    }

    #[test]
    fn full_run_partitioned_matches_host_contraction() {
        let g = fixtures::ring_of_cliques(8, 5);
        for devices in [1, 2, 4, 8] {
            let host = run_full(
                &g,
                MultiGpuConfig {
                    num_devices: devices,
                    ..MultiGpuConfig::default()
                },
            );
            let part = run_full(
                &g,
                MultiGpuConfig {
                    num_devices: devices,
                    contract: ContractMode::Partitioned,
                    ..MultiGpuConfig::default()
                },
            );
            assert_eq!(part.partition, host.partition, "devices {devices}");
            assert_eq!(part.modularity.to_bits(), host.modularity.to_bits());
            assert_eq!(part.rounds.len(), host.rounds.len());
            assert!(part.contracts.iter().all(|c| c.mode != "host"));
            assert!(host.contracts.iter().all(|c| c.mode == "host"));
            assert!(part.contract_us() > 0.0, "partitioned rounds are modelled");
            assert_eq!(host.contract_us(), 0.0);
        }
    }

    #[test]
    fn full_traced_brackets_rounds_and_emits_exchange_syncs() {
        use gala_telemetry::VecSink;
        let g = fixtures::ring_of_cliques(8, 5);
        let cfg = MultiGpuConfig {
            num_devices: 4,
            contract: ContractMode::Partitioned,
            ..MultiGpuConfig::default()
        };
        let plain = run_full(&g, cfg);
        let mut sink = VecSink::default();
        let traced = run_full_with(&g, cfg, &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity.to_bits(), plain.modularity.to_bits());

        let starts = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RunStart { .. }))
            .count();
        let ends = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RunEnd { .. }))
            .count();
        assert_eq!((starts, ends), (1, 1), "one bracket around the hierarchy");
        let round_ends: Vec<u32> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(round_ends.len(), traced.rounds.len());
        assert_eq!(
            round_ends,
            (0..traced.rounds.len() as u32).collect::<Vec<_>>()
        );

        // One contract span per round, with aggregate/exchange children.
        let contract_spans: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { phase, root, .. } if phase == "contract" => Some(root),
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
                TraceEvent::Sync { mode, bytes, .. } if mode.starts_with("exchange-") => {
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
        let one = run_phase1(&g, MultiGpuConfig::default());
        let four = run_phase1(
            &g,
            MultiGpuConfig {
                num_devices: 4,
                ..MultiGpuConfig::default()
            },
        );
        assert!(
            four.compute_us() < one.compute_us(),
            "4-device compute {} vs 1-device {}",
            four.compute_us(),
            one.compute_us()
        );
    }
}
