//! The GALA Louvain driver: BSP phase 1 (Algorithm 1) with pluggable
//! pruning, kernels, and weight maintenance, plus the phase-2 coarsening
//! loop building the community hierarchy. The one loop serves every device
//! count: with `devices > 1` each superstep's decide pass is split over
//! simulated devices and its decisions synchronised ([`crate::multi_gpu`]),
//! and phase 2 may contract per device ([`crate::mg_contract`]).

use crate::backend::BackendKind;
use crate::kernels::hashtable::TableStats;
use crate::kernels::{self, KernelKind};
use crate::mg_contract::{self, ContractRoundStats};
use crate::multi_gpu::{self, ContractMode, Devices, SyncMode};
use crate::observe::Obs;
use crate::pruning::certificate::Certificates;
use crate::pruning::{self, PruningKind};
use crate::state::{BspState, Undo};
use crate::weight::{self, WeightUpdateMode};
use gala_gpu::memory::{CostModel, MemTally};
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::{Graph, Partition, VertexId};
use gala_telemetry::{DeviceSync, MetricsRegistry, RoundEnd, Superstep, TraceEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Configuration of a GALA Louvain run. [`LouvainConfig::paper`] is the
/// paper's full system: MG pruning, workload-aware kernels with the
/// hierarchical hashtable, delta weight maintenance, θ = 10⁻⁶. The default
/// is the same system with damped MG pruning
/// ([`PruningKind::GainDamped`]), which ends phase 1's BSP limit cycles.
#[derive(Clone, Copy, Debug)]
pub struct LouvainConfig {
    /// Convergence threshold θ on the per-iteration modularity gain.
    pub theta: f64,
    /// Unmoved-vertex pruning strategy (Section 3).
    pub pruning: PruningKind,
    /// DecideAndMove kernel (Section 4).
    pub kernel: KernelKind,
    /// `d_self` maintenance mode (Section 3.5).
    pub weight_update: WeightUpdateMode,
    /// Safety cap on phase-1 supersteps per round.
    pub max_iterations: usize,
    /// Cap on hierarchy rounds (phase 1 + phase 2 repetitions).
    pub max_rounds: usize,
    /// Seed for the PM strategy's randomness (unused by the others).
    pub seed: u64,
    /// Resolution parameter γ of generalised modularity: 1.0 is classic
    /// Louvain; larger values favour smaller communities. Must be finite
    /// and positive; [`Louvain::run`] panics otherwise.
    pub resolution: f64,
    /// Supersteps a round may go without reaching a new best modularity
    /// before it stops (simultaneous BSP moves can dip Q temporarily;
    /// weak-community graphs need to churn through several dips). The
    /// best-seen state is restored at the end, so a round never finishes
    /// below its peak.
    pub dip_patience: usize,
    /// Run a Leiden-style refinement pass between phase 1 and the
    /// coarsening of each round (see [`crate::leiden::refine_partition`]).
    /// Off by default — the paper's GALA coarsens the phase-1 partition
    /// directly — but it repairs the badly-connected communities that
    /// simultaneous BSP moves can produce on high-mixing graphs, at the
    /// cost of an extra sequential pass per round.
    pub refine: bool,
    /// Execution backend for the decide and contract passes: the simulated
    /// GPU (cycle accounting, the default) or the native host pool
    /// (wall-clock timing). Assignments are identical either way.
    pub backend: BackendKind,
    /// Simulated devices each superstep's decide pass is split over
    /// (Section 4.3). Assignments are identical at every count; what
    /// changes is the modelled compute and communication time.
    pub devices: usize,
    /// How the devices synchronise each superstep's decisions, and how a
    /// partitioned contraction picks its exchange (unused at one device
    /// under host contraction).
    pub sync: SyncMode,
    /// Phase-2 strategy: host contraction, or the partitioned per-device
    /// contraction with simulated collectives.
    pub contract: ContractMode,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            pruning: PruningKind::GainDamped,
            ..Self::paper()
        }
    }
}

impl LouvainConfig {
    /// The paper's GALA: plain MG pruning, θ = 10⁻⁶, dip patience 8. The
    /// paper-reproduction bins run this, so their figures and cycle
    /// baselines stay the paper's.
    pub fn paper() -> Self {
        Self {
            theta: 1e-6,
            pruning: PruningKind::Gain,
            kernel: KernelKind::default(),
            weight_update: WeightUpdateMode::Delta,
            max_iterations: 500,
            max_rounds: 20,
            seed: 0x6A1A,
            resolution: 1.0,
            dip_patience: DIP_PATIENCE,
            refine: false,
            backend: BackendKind::Sim,
            devices: 1,
            sync: SyncMode::Adaptive,
            contract: ContractMode::Host,
        }
    }

    /// The paper's unoptimised baseline: no pruning, hash kernel with a
    /// global-only table, naive weight maintenance.
    pub fn baseline() -> Self {
        use crate::kernels::hashtable::{HashConfig, HashTableKind};
        Self {
            pruning: PruningKind::None,
            kernel: KernelKind::Hash(HashConfig {
                kind: HashTableKind::GlobalOnly,
                shared_buckets: 0,
            }),
            weight_update: WeightUpdateMode::Naive,
            ..Self::paper()
        }
    }

    /// Grappolo's CPU parallel Louvain (Lu, Halappanavar & Kalyanaraman,
    /// 2015), the CPU baseline of Fig 5: the paper's BSP heuristics with no
    /// pruning, the host fold and naive weight maintenance, timed on the
    /// native pool without simulator overhead.
    pub fn grappolo() -> Self {
        Self {
            pruning: PruningKind::None,
            kernel: KernelKind::Cpu,
            weight_update: WeightUpdateMode::Naive,
            backend: BackendKind::Native,
            ..Self::paper()
        }
    }
}

/// Per-superstep record (the raw material of Figs 1, 4, 7, 8).
#[derive(Clone, Debug)]
pub struct IterationStats {
    /// Superstep index within the round (0-based).
    pub iteration: usize,
    /// Vertices classified active.
    pub num_active: usize,
    /// Vertices that actually moved.
    pub num_moved: usize,
    /// Modularity after the superstep.
    pub modularity: f64,
    /// Simulated memory tally of the DecideAndMove pass (zero on the
    /// native backend).
    pub tally: MemTally,
    /// Simulated memory tally of the weight-maintenance pass (zero on the
    /// native backend).
    pub weight_tally: MemTally,
    /// Hashtable placement stats (hash kernels only).
    pub hash_stats: TableStats,
    /// Modelled device compute time (µs): the slowest device's decide pass
    /// plus its share of weight maintenance.
    pub compute_us: f64,
    /// Modelled time of the superstep's sync collective (µs; 0 on one
    /// device).
    pub comm_us: f64,
    /// The sync strategy the superstep used (`None` on one device).
    pub sync: Option<SyncMode>,
}

/// One hierarchy round: a full phase-1 run on the (possibly coarsened)
/// graph.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// Round index (0 = original graph).
    pub round: usize,
    /// Vertices of the graph this round ran on.
    pub num_vertices: usize,
    /// Per-superstep records.
    pub iterations: Vec<IterationStats>,
    /// Modularity at the end of the round.
    pub modularity: f64,
}

impl RoundStats {
    /// Total simulated memory tally of the round (DecideAndMove + weight
    /// maintenance).
    pub fn total_tally(&self) -> MemTally {
        self.iterations
            .iter()
            .map(|i| i.tally + i.weight_tally)
            .sum()
    }

    /// Total simulated tally of the DecideAndMove passes only.
    pub fn decide_tally(&self) -> MemTally {
        self.iterations.iter().map(|i| i.tally).sum()
    }

    /// Total simulated tally of the weight-maintenance passes only.
    pub fn weight_tally(&self) -> MemTally {
        self.iterations.iter().map(|i| i.weight_tally).sum()
    }

    /// Total modelled device compute time (µs).
    pub fn compute_us(&self) -> f64 {
        self.iterations.iter().map(|i| i.compute_us).sum()
    }

    /// Total modelled communication time (µs).
    pub fn comm_us(&self) -> f64 {
        self.iterations.iter().map(|i| i.comm_us).sum()
    }

    /// Total modelled device time (µs).
    pub fn total_us(&self) -> f64 {
        self.compute_us() + self.comm_us()
    }
}

/// Result of a full Louvain run.
#[derive(Clone, Debug)]
pub struct LouvainResult {
    /// Final communities on the *original* graph.
    pub partition: Partition,
    /// Final modularity on the original graph.
    pub modularity: f64,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Per-round phase-2 cost records: mode `"host"` with no modelled
    /// device time under [`ContractMode::Host`], the per-device compute and
    /// exchange/repartition model under [`ContractMode::Partitioned`].
    pub contracts: Vec<ContractRoundStats>,
}

impl LouvainResult {
    /// Total supersteps across all rounds.
    pub fn num_iterations(&self) -> usize {
        self.rounds.iter().map(|r| r.iterations.len()).sum()
    }

    /// Summed simulated tally across all rounds.
    pub fn total_tally(&self) -> MemTally {
        self.rounds.iter().map(|r| r.total_tally()).sum()
    }
}

/// Reusable phase-1 working set: the active mask and work list, the
/// kernel scratch, and the decide output live here so a round recycles
/// one allocation set across supersteps — and [`Louvain::run`] recycles it
/// across hierarchy rounds — instead of reallocating every superstep.
#[derive(Debug, Default)]
struct Phase1Scratch {
    active: Vec<bool>,
    work: Vec<VertexId>,
    decide: kernels::DecideScratch,
    out: kernels::DecideOutput,
}

/// The GALA Louvain runner.
#[derive(Clone, Debug, Default)]
pub struct Louvain {
    config: LouvainConfig,
}

impl Louvain {
    /// Creates a runner with the given configuration.
    pub fn new(config: LouvainConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LouvainConfig {
        &self.config
    }

    /// Runs phase 1 only on `graph`, starting from singletons — the setting
    /// of most of the paper's experiments ("phase 1 of the first round
    /// dominates the runtime"). Returns the final state and the stats.
    pub fn run_phase1(&self, graph: &Graph) -> (BspState, RoundStats) {
        let mut obs = Obs::off().driver("louvain");
        self.run_phase1_round(graph, 0, &mut obs, &mut Phase1Scratch::default())
    }

    /// One phase-1 round at hierarchy round `round`: per superstep a
    /// `span` tree (classify → decide → apply → weight-update → modularity,
    /// with per-kernel children under decide, and a `sync` between decide
    /// and apply on several devices) and a `superstep` event (plus a `sync`
    /// event on several devices), then the round's `metrics` and `progress`
    /// events. On the native backend every scope counts its wall time as
    /// `elapsed_ns`, and the last superstep's tree also holds the round-end
    /// restore of the best state, as `best_state`.
    fn run_phase1_round(
        &self,
        graph: &Graph,
        round: usize,
        obs: &mut Obs,
        scratch: &mut Phase1Scratch,
    ) -> (BspState, RoundStats) {
        let cfg = &self.config;
        let backend = cfg.backend.resolve();
        let Phase1Scratch {
            active,
            work,
            decide: dscratch,
            out,
        } = scratch;
        let mut state = BspState::with_resolution(graph, cfg.resolution);
        // Damped MG also skips vertices holding a stay certificate, where
        // the decide path records them.
        let certs = &mut dscratch.certs;
        if cfg.pruning == PruningKind::GainDamped && cfg.backend.certifies(cfg.kernel) {
            certs.arm(graph.num_vertices());
        } else {
            certs.disarm();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ round as u64);
        let mut iterations = Vec::new();
        let mut prev_q = state.modularity(graph);
        let mut dips = DipPatience::new(&state, prev_q, cfg.theta, cfg.dip_patience);
        // One device decides on the full mask; several split it.
        let mut devices = (cfg.devices > 1).then(|| Devices::new(graph, cfg.devices, cfg.sync));
        // Native spans are charged their wall time; sim spans their tallies.
        let wall = cfg.backend == BackendKind::Native && obs.instrumented();
        for iteration in 0..cfg.max_iterations {
            let mut sub = obs.sub();
            let num_active = timed_scope(&mut sub, "classify", wall, |p| {
                let certs = &dscratch.certs;
                pruning::classify_work(cfg.pruning, graph, &state, &mut rng, certs, active, work);
                let num_active = work.len();
                p.count("active", num_active as u64);
                p.count("pruned", (graph.num_vertices() - num_active) as u64);
                num_active
            });
            let device_moved = match devices.as_mut() {
                None => {
                    backend.decide_list(cfg.kernel, graph, &state, work, &mut sub, dscratch, out);
                    0
                }
                Some(d) => d.decide(
                    backend, cfg.kernel, graph, &state, work, &mut sub, dscratch, out,
                ),
            };
            if let Some(m) = obs.metrics() {
                let certs = &dscratch.certs;
                record_superstep_metrics(m, cfg, graph, &state, certs, active, num_active, out);
            }
            let sync = devices
                .as_ref()
                .map(|d| d.sync(graph.num_vertices(), device_moved, &mut sub, obs.metrics()));
            let summary = timed_scope(&mut sub, "apply", wall, |p| {
                let summary = state.apply_logged(graph, &out.moves, Some(dips.undo()));
                p.count("moved", summary.num_moved() as u64);
                summary
            });
            let moved = summary.num_moved();
            if let Some(m) = obs.metrics() {
                m.inc("phase1/moved", moved as u64);
                m.observe("phase1/moved_per_superstep", moved as u64);
                m.inc("phase1/supersteps", 1);
            }
            let weight_tally = timed_scope(&mut sub, "weight_update", wall, |p| {
                let certs = &mut dscratch.certs;
                let tally = weight::update_certified(
                    cfg.weight_update,
                    graph,
                    &mut state,
                    &summary,
                    certs,
                    Some(dips.undo()),
                );
                // The tally models the simulated kernel's traffic: a native
                // run simulates nothing and reports no cycles.
                let tally = match cfg.backend {
                    BackendKind::Sim => tally,
                    BackendKind::Native => MemTally::new(),
                };
                p.record(&tally);
                tally
            });
            let q = timed_scope(&mut sub, "modularity", wall, |p| {
                p.count("items", graph.num_vertices() as u64);
                state.modularity(graph)
            });
            let stop = dips.step(&state, q, moved) || iteration + 1 == cfg.max_iterations;
            if stop && wall {
                // The round-end restore, timed as part of the last
                // superstep; otherwise it runs after the loop.
                timed_scope(&mut sub, "best_state", wall, |_| {
                    dips.finish(graph, &mut state)
                });
            }
            let compute_us = match &devices {
                None => multi_gpu::compute_us(std::slice::from_ref(&out.tally), &weight_tally),
                Some(d) => d.compute_us(&weight_tally),
            };
            obs.span(
                round as u32,
                iteration as u32,
                "phase1",
                Some(cfg.backend),
                sub,
            );
            iterations.push(IterationStats {
                iteration,
                num_active,
                num_moved: moved,
                modularity: q,
                tally: out.tally,
                weight_tally,
                hash_stats: out.hash_stats,
                compute_us,
                comm_us: sync.map_or(0.0, |s| s.comm_us),
                sync: sync.map(|s| s.mode),
            });
            obs.superstep(
                graph,
                round as u32,
                iteration as u32,
                num_active,
                moved,
                q,
                || {
                    let step = TraceEvent::Superstep(Superstep {
                        round: round as u32,
                        superstep: iteration as u32,
                        active: num_active as u64,
                        moved: moved as u64,
                        pruned: (graph.num_vertices() - num_active) as u64,
                        unmoved: num_active.saturating_sub(moved) as u64,
                        modularity: q,
                        delta_q: q - prev_q,
                        decide_tally: out.tally,
                        weight_tally,
                        hash_occupancy: out.hash_stats.occupancy(),
                        hash_evictions: out.hash_stats.shared_evictions,
                    });
                    let sync = devices.as_ref().zip(sync);
                    std::iter::once(step).chain(sync.map(|(d, s)| d.event(iteration as u32, &s)))
                },
            );
            prev_q = q;
            if stop {
                break;
            }
        }
        let best_q = dips.finish(graph, &mut state);
        obs.phase1_end(round as u32, iterations.len(), best_q, "phase1", |m| {
            let ratio = |num: u64, den: u64| {
                if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                }
            };
            let active_total = m.counter("pruning/active").unwrap_or(0);
            let moved_total = m.counter("phase1/moved").unwrap_or(0);
            m.gauge("phase1/moved_fraction", ratio(moved_total, active_total));
            let sampled = m.counter("pruning/audit_sampled").unwrap_or(0);
            let fns = m.counter("pruning/audit_false_negatives").unwrap_or(0);
            m.gauge("pruning/audit_fnr", ratio(fns, sampled));
            if let Some(d) = &devices {
                d.finish_metrics(m);
            }
        });
        let stats = RoundStats {
            round,
            num_vertices: graph.num_vertices(),
            modularity: best_q,
            iterations,
        };
        (state, stats)
    }

    /// Runs the full multi-round Louvain (phase 1 + phase 2 repetitions)
    /// and returns the flattened hierarchy result.
    ///
    /// # Panics
    ///
    /// Panics if [`LouvainConfig::resolution`] is not finite and positive:
    /// the gain scores and the stay certificates' budgets divide by it.
    pub fn run(&self, graph: &Graph) -> LouvainResult {
        self.run_with(graph, &mut Obs::off())
    }

    /// [`Self::run`] observed through `obs`: `run_start`, per BSP
    /// superstep a `superstep` event (plus its `sync` on several devices)
    /// and its `span` tree, per hierarchy round the phase-1
    /// `metrics`/`progress` events, a `contract` span (holding `refine`
    /// when enabled, and `aggregate`/`exchange` under
    /// [`ContractMode::Partitioned`]), an exchange `sync` event per
    /// partitioned contraction, and a `round_end`, and a final `run_end`.
    /// The run-level profile holds one `round` span per hierarchy round.
    pub fn run_with(&self, graph: &Graph, obs: &mut Obs) -> LouvainResult {
        self.run_levels(graph, obs, &mut |_, _| {})
    }

    /// [`Self::run_with`], handing `on_level` each round's flattened
    /// partition of the original graph and its modularity: the levels of
    /// the hierarchy, finest first.
    pub(crate) fn run_levels(
        &self,
        graph: &Graph,
        obs: &mut Obs,
        on_level: &mut dyn FnMut(&Partition, f64),
    ) -> LouvainResult {
        let cfg = &self.config;
        let backend = cfg.backend.resolve();
        obs.run_start("louvain", graph, cfg.devices);
        let mut rounds = Vec::new();
        let mut contracts = Vec::new();
        let mut current: Option<Graph> = None; // None = original graph
        let mut flat: Option<Partition> = None;
        let mut best: Option<(Partition, f64)> = None;
        let mut last_q = f64::NEG_INFINITY;
        // One working set for the whole hierarchy: later (coarser) rounds
        // reuse the first round's allocations. The contraction scratch also
        // reclaims each dropped coarse graph's CSR buffers, so steady-state
        // rounds contract without fresh allocations.
        let mut scratch = Phase1Scratch::default();
        let mut cscratch = CoarsenScratch::default();
        for round in 0..cfg.max_rounds {
            let g = current.as_ref().unwrap_or(graph);
            obs.enter_round();
            let (state, stats) = self.run_phase1_round(g, round, obs, &mut scratch);
            let q = stats.modularity;
            let supersteps = stats.iterations.len();
            let moved_any = stats.iterations.iter().any(|i| i.num_moved > 0);
            // Phase 2 (refine + contract) profiles like a superstep: a
            // fresh sub-tree per round, filed under the open `round` span.
            let mut sub = obs.sub();
            let partition = if cfg.refine {
                // Leiden-style repair: split each community into its
                // well-connected pieces before aggregating; the next
                // round's phase 1 re-merges whatever belongs together.
                sub.scope("refine", |p| {
                    let refined = crate::leiden::refine_partition(
                        g,
                        &state.partition(),
                        cfg.resolution,
                        cfg.max_iterations,
                    );
                    p.count("communities", refined.num_communities() as u64);
                    refined
                })
            } else {
                state.partition()
            };
            let instrumented = obs.instrumented();
            let (coarse, cstats) = sub.scope("contract", |p| {
                let started = Instant::now();
                let (coarse, cstats) = match cfg.contract {
                    ContractMode::Host => {
                        let coarse = backend.contract(
                            g,
                            &partition,
                            cfg.kernel,
                            instrumented,
                            p,
                            &mut cscratch,
                        );
                        let cstats = ContractRoundStats::host(cfg.devices, coarse.num_communities);
                        (coarse, cstats)
                    }
                    ContractMode::Partitioned => mg_contract::contract_partitioned_with(
                        g,
                        &partition,
                        cfg,
                        backend,
                        p,
                        &mut cscratch,
                        obs,
                    ),
                };
                p.count("vertices", g.num_vertices() as u64);
                p.count("arcs", g.num_arcs() as u64);
                p.count("communities", coarse.num_communities as u64);
                p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
                (coarse, cstats)
            });
            obs.span(
                round as u32,
                supersteps as u32,
                "contract",
                Some(cfg.backend),
                sub,
            );
            // The exchange is phase 2's analogue of a phase-1 sync: one
            // event per partitioned round (host contraction exchanges
            // nothing).
            if cstats.mode != "host" {
                obs.emit(|| {
                    TraceEvent::Sync(DeviceSync {
                        superstep: supersteps as u32,
                        mode: cstats.mode.to_string(),
                        bytes: cstats.exchange_bytes,
                        comm_us: cstats.exchange_us,
                        devices: cfg.devices as u32,
                    })
                });
            }
            obs.exit_round();
            rounds.push(stats);
            contracts.push(cstats);
            let composed = match flat {
                None => coarse.renumbered.clone(),
                Some(prev) => prev.compose(&coarse.renumbered),
            };
            // Track the best flattened partition on the *original* graph —
            // refinement may transiently lower Q before the next round
            // recovers it, and the caller should never see that dip. The
            // contraction is by the partition composed here, refined or
            // not, so the coarse graph holds its Q.
            let q_flat = crate::modularity::contracted_modularity(
                &coarse.graph,
                graph.total_weight(),
                cfg.resolution,
            );
            on_level(&composed, q_flat);
            if best.as_ref().is_none_or(|(_, bq)| q_flat > *bq) {
                best = Some((composed.clone(), q_flat));
            }
            flat = Some(composed);
            obs.emit(|| {
                TraceEvent::RoundEnd(RoundEnd {
                    round: round as u32,
                    supersteps: supersteps as u32,
                    modularity: q,
                    communities: coarse.num_communities as u64,
                })
            });
            // Coarsening progress: the next round's graph size tells the
            // operator how fast the hierarchy is collapsing.
            let arcs = coarse.graph.num_arcs();
            obs.round_progress(round as u32, "contract", supersteps, q_flat, arcs);
            // Stop when phase 1 stopped merging or the round gained < θ.
            if !moved_any || coarse.num_communities == g.num_vertices() || q - last_q < cfg.theta {
                break;
            }
            last_q = q;
            // Hand the spent level's allocations back to the contraction
            // scratch: rounds only shrink, so the next contract round runs
            // entirely in reclaimed buffers.
            if let Some(old) = current.take() {
                cscratch.reclaim_graph(old);
            }
            cscratch.reclaim_assignment(coarse.renumbered);
            current = Some(coarse.graph);
        }
        let (partition, modularity) =
            best.unwrap_or_else(|| (Partition::singletons(graph.num_vertices()), 0.0));
        let result = LouvainResult {
            partition,
            modularity,
            rounds,
            contracts,
        };
        let total_cycles = CostModel::default().cycles(&result.total_tally());
        obs.run_end(modularity, result.rounds.len(), total_cycles);
        result
    }
}

/// [`Profiler::scope`] that also counts the scope's wall time as
/// `elapsed_ns` when `wall` is set; no clock is read otherwise.
fn timed_scope<R>(
    p: &mut Profiler,
    name: &str,
    wall: bool,
    f: impl FnOnce(&mut Profiler) -> R,
) -> R {
    p.scope(name, |p| {
        let started = wall.then(Instant::now);
        let out = f(p);
        if let Some(started) = started {
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        }
        out
    })
}

/// The default [`LouvainConfig::dip_patience`].
const DIP_PATIENCE: usize = 8;

/// Dip-tolerant convergence of one BSP phase-1 round. Simultaneous greedy
/// moves can overshoot and *lower* Q (the classic BSP-Louvain hazard), but
/// on weak-community graphs the optimum lies beyond several such dips.
/// Following Grappolo's convergence heuristics a round keeps iterating with
/// bounded patience and restores the best state seen, so it never ends
/// below its peak and Theorem 6's guarantees carry to the system level.
///
/// The best state is not copied: an [`Undo`] log holds every write made
/// to the state since it, which the driver's apply and weight update
/// record into ([`Self::undo`]), so tracking it costs O(writes) rather
/// than O(n) per improvement.
struct DipPatience {
    best_q: f64,
    /// The modularity of the state as the last superstep left it.
    last_q: f64,
    undo: Undo,
    stagnant: usize,
    theta: f64,
    patience: usize,
}

impl DipPatience {
    /// Starts from the round's initial `state` at modularity `q` (a round
    /// may never beat its start).
    fn new(state: &BspState, q: f64, theta: f64, patience: usize) -> Self {
        let mut undo = Undo::default();
        undo.mark(state);
        Self {
            best_q: q,
            last_q: q,
            undo,
            stagnant: 0,
            theta,
            patience,
        }
    }

    /// The log every write to the round's state goes to.
    fn undo(&mut self) -> &mut Undo {
        &mut self.undo
    }

    /// Records a superstep that left `state` at modularity `q` after
    /// `moved` moves; returns whether the round should stop — nothing
    /// moved, or more than `patience` supersteps without a gain above θ.
    fn step(&mut self, state: &BspState, q: f64, moved: usize) -> bool {
        self.last_q = q;
        // Progress is measured against the best state, never against the
        // previous (possibly oscillating) superstep: a θ-sized up-tick
        // inside an oscillation must not read as convergence.
        if q > self.best_q {
            self.undo.mark(state);
            if q > self.best_q + self.theta {
                self.stagnant = 0; // meaningful progress (Grappolo's θ rule)
            } else {
                self.stagnant += 1;
            }
            self.best_q = q;
        } else {
            self.stagnant += 1;
        }
        moved == 0 || self.stagnant > self.patience
    }

    /// Ends the round: restores the best state if `state` fell below it,
    /// and returns the round's peak modularity. Calling it again is a
    /// no-op.
    fn finish(&mut self, graph: &Graph, state: &mut BspState) -> f64 {
        if self.last_q < self.best_q {
            self.undo.restore(graph, state);
            self.last_q = self.best_q;
        }
        self.best_q
    }
}

/// How many pruned vertices the per-superstep false-negative audit
/// recomputes (deterministically strided over the inactive set).
const AUDIT_SAMPLES_PER_SUPERSTEP: usize = 64;

/// Records one superstep's algorithm-level metrics — pruning effectiveness
/// (with a sampled false-negative audit against the pre-move state), kernel
/// routing with degree histograms, and hashtable level statistics. Called
/// between decide and apply so the audit sees exactly the state the kernels
/// decided on; everything here is host-side observation with no simulated
/// memory traffic.
///
/// The audit measures Theorem 6, so under [`PruningKind::GainDamped`] it
/// samples only what the MG bound pruned, certified or not. Of the
/// vertices the bound kept but the mask skipped, those holding a stay
/// certificate are counted as `pruning/certified` and the rest, which
/// damping deferred, as `pruning/deferred` (each present once nonzero).
/// Certified vertices get a stronger audit of their own: a sample of them
/// is decided in full, and any that would leave its community at all
/// counts as a false negative.
#[allow(clippy::too_many_arguments)]
fn record_superstep_metrics(
    m: &mut MetricsRegistry,
    cfg: &LouvainConfig,
    graph: &Graph,
    state: &BspState,
    certs: &Certificates,
    active: &[bool],
    num_active: usize,
    out: &kernels::DecideOutput,
) {
    m.inc("pruning/active", num_active as u64);
    m.inc("pruning/pruned", (graph.num_vertices() - num_active) as u64);
    let mg_active;
    let audited = if cfg.pruning == PruningKind::GainDamped && state.iteration > 0 {
        mg_active = pruning::gain::classify(graph, state);
        // The decide pass has rewritten the certificates of the vertices
        // it evaluated, so only the skipped ones still show what classify
        // saw.
        let certified: Vec<VertexId> = match certs.armed() {
            Some(c) => (0..graph.num_vertices() as VertexId)
                .filter(|&v| !active[v as usize] && mg_active[v as usize] && c.holds(v))
                .collect(),
            None => Vec::new(),
        };
        let deferred = mg_active.iter().filter(|&&a| a).count() - num_active - certified.len();
        if !certified.is_empty() {
            m.inc("pruning/certified", certified.len() as u64);
        }
        if !certified.is_empty() {
            let audit =
                pruning::audit_certified(graph, state, &certified, AUDIT_SAMPLES_PER_SUPERSTEP);
            m.inc("pruning/audit_sampled", audit.sampled);
            m.inc("pruning/audit_false_negatives", audit.false_negatives);
        }
        if deferred > 0 {
            m.inc("pruning/deferred", deferred as u64);
        }
        &mg_active
    } else {
        active
    };
    let audit = pruning::audit_pruned(graph, state, audited, AUDIT_SAMPLES_PER_SUPERSTEP);
    m.inc("pruning/audit_sampled", audit.sampled);
    m.inc("pruning/audit_false_negatives", audit.false_negatives);

    m.inc("kernel/shuffle_vertices", out.routing.shuffle_vertices);
    m.inc("kernel/hash_vertices", out.routing.hash_vertices);
    m.inc("kernel/other_vertices", out.routing.other_vertices);
    let split_by_degree = matches!(cfg.kernel, KernelKind::WorkloadAware(_));
    for (v, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        let d = graph.degree(v as VertexId) as u64;
        let name = if !split_by_degree {
            "kernel/degree"
        } else if (d as usize) < kernels::SHUFFLE_DEGREE_THRESHOLD {
            "kernel/shuffle_degree"
        } else {
            "kernel/hash_degree"
        };
        m.observe(name, d);
    }

    let stats = &out.hash_stats;
    if *stats != TableStats::default() {
        m.inc("hash/shared_keys", stats.shared_keys);
        m.inc("hash/global_keys", stats.global_keys);
        m.inc("hash/shared_accesses", stats.shared_accesses);
        m.inc("hash/global_accesses", stats.global_accesses);
        m.inc("hash/evictions", stats.shared_evictions);
        m.observe(
            "hash/probes_per_superstep",
            stats.shared_accesses + stats.global_accesses,
        );
        m.observe("hash/evictions_per_superstep", stats.shared_evictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use gala_graph::generators::fixtures;

    #[test]
    fn finds_two_cliques() {
        let g = fixtures::two_cliques(8);
        let result = Louvain::new(LouvainConfig::default()).run(&g);
        assert_eq!(result.partition.num_communities(), 2);
        // All of clique 0 together, all of clique 1 together.
        let c0 = result.partition.community_of(0);
        for v in 0..8 {
            assert_eq!(result.partition.community_of(v), c0);
        }
        let c1 = result.partition.community_of(8);
        assert_ne!(c0, c1);
        for v in 8..16 {
            assert_eq!(result.partition.community_of(v), c1);
        }
    }

    #[test]
    fn modularity_field_matches_partition() {
        let g = fixtures::ring_of_cliques(5, 4);
        let result = Louvain::new(LouvainConfig::default()).run(&g);
        let q = modularity(&g, &result.partition);
        assert!((result.modularity - q).abs() < 1e-12);
        assert!(result.modularity > 0.5, "q = {}", result.modularity);
    }

    /// `g` with a non-integer self-loop on every fifth vertex.
    fn with_self_loops(g: &Graph) -> Graph {
        let mut b = gala_graph::GraphBuilder::new(g.num_vertices());
        for v in g.vertices() {
            for (u, w) in g.neighbors(v).filter(|&(u, _)| u > v) {
                b.add_edge(v, u, w);
            }
            if v % 5 == 0 {
                b.add_edge(v, v, 0.3 + f64::from(v % 7) * 0.15);
            }
        }
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Each level's Q, read off the contracted graph, is the
        /// from-scratch Q of the composed partition on the original graph,
        /// and the run reports its partition's Q: on non-integer weights
        /// with and without self-loops, at three resolutions, with and
        /// without refinement, under host and partitioned contraction.
        #[test]
        fn level_q_is_the_from_scratch_q_of_the_composed_partition(
            communities in 8usize..16,
            size in 10usize..25,
            mixing in 0.1f64..0.5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::modularity::modularity_with_resolution;
            let weighted = kernels::cpu::weighted_planted(communities, size, 6.0, mixing, seed);
            let looped = with_self_loops(&weighted);
            for g in [&weighted, &looped] {
                for resolution in [0.5, 1.0, 2.0] {
                    for refine in [false, true] {
                        for (devices, contract) in
                            [(1, ContractMode::Host), (2, ContractMode::Partitioned)]
                        {
                            let cfg = LouvainConfig {
                                resolution,
                                refine,
                                devices,
                                contract,
                                backend: BackendKind::Native,
                                ..LouvainConfig::default()
                            };
                            let mut levels = Vec::new();
                            let result = Louvain::new(cfg).run_levels(
                                g,
                                &mut Obs::off(),
                                &mut |level, q| levels.push((level.clone(), q)),
                            );
                            proptest::prop_assert!(!levels.is_empty());
                            for (i, (level, q)) in levels.iter().enumerate() {
                                let scratch = modularity_with_resolution(g, level, resolution);
                                proptest::prop_assert!(
                                    (q - scratch).abs() <= 1e-12,
                                    "level {} of {:?}: {} vs {}", i, cfg, q, scratch
                                );
                            }
                            let q = modularity_with_resolution(g, &result.partition, resolution);
                            proptest::prop_assert!(
                                (result.modularity - q).abs() <= 1e-12,
                                "{:?}: reported {} vs {}", cfg, result.modularity, q
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn phase1_round_ends_at_its_peak() {
        // Individual supersteps may dip (BSP hazard), but the round's final
        // state is always the best one seen.
        let g = fixtures::ring_of_cliques(6, 6);
        let (state, stats) = Louvain::new(LouvainConfig::default()).run_phase1(&g);
        let peak = stats
            .iterations
            .iter()
            .map(|i| i.modularity)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((stats.modularity - peak).abs() < 1e-12);
        assert!((state.modularity(&g) - peak).abs() < 1e-12);
    }

    #[test]
    fn baseline_and_mg_agree_on_modularity() {
        // Theorem 6: MG pruning never loses modularity vs. the baseline.
        let g = fixtures::ring_of_cliques(8, 5);
        let base = Louvain::new(LouvainConfig {
            pruning: PruningKind::None,
            ..LouvainConfig::default()
        })
        .run(&g);
        let mg = Louvain::new(LouvainConfig {
            pruning: PruningKind::Gain,
            ..LouvainConfig::default()
        })
        .run(&g);
        assert!(
            (base.modularity - mg.modularity).abs() < 1e-9,
            "baseline {} vs MG {}",
            base.modularity,
            mg.modularity
        );
    }

    #[test]
    fn pruning_reduces_active_counts() {
        let g = fixtures::ring_of_cliques(10, 6);
        let (_, mg) = Louvain::new(LouvainConfig::default()).run_phase1(&g);
        let total_active: usize = mg.iterations.iter().map(|i| i.num_active).sum();
        let total_possible = g.num_vertices() * mg.iterations.len();
        assert!(
            total_active < total_possible,
            "MG never pruned anything ({total_active}/{total_possible})"
        );
    }

    #[test]
    fn higher_resolution_finds_more_communities() {
        // The resolution limit: with many small cliques in a ring, classic
        // modularity (γ = 1) merges neighbours; a higher γ separates them.
        let g = fixtures::ring_of_cliques(24, 4);
        let communities = |gamma: f64| {
            Louvain::new(LouvainConfig {
                resolution: gamma,
                ..LouvainConfig::default()
            })
            .run(&g)
            .partition
            .num_communities()
        };
        let coarse = communities(1.0);
        let fine = communities(4.0);
        assert!(
            fine >= coarse,
            "γ=4 found {fine} communities vs {coarse} at γ=1"
        );
        assert_eq!(fine, 24, "γ=4 should isolate every clique, got {fine}");
    }

    #[test]
    fn resolution_one_is_classic_louvain() {
        let g = fixtures::two_cliques(6);
        let explicit = Louvain::new(LouvainConfig {
            resolution: 1.0,
            ..LouvainConfig::default()
        })
        .run(&g);
        let default = Louvain::new(LouvainConfig::default()).run(&g);
        assert_eq!(explicit.partition, default.partition);
    }

    #[test]
    fn refinement_never_hurts_and_repairs_noisy_graphs() {
        let gt = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 10,
            community_size: 40,
            internal_degree: 6.0,
            mixing: 0.35,
        }
        .generate(5);
        let plain = Louvain::new(LouvainConfig::default()).run(&gt.graph);
        let refined = Louvain::new(LouvainConfig {
            refine: true,
            ..LouvainConfig::default()
        })
        .run(&gt.graph);
        assert!(
            refined.modularity >= plain.modularity - 1e-6,
            "refine {} vs plain {}",
            refined.modularity,
            plain.modularity
        );
        // And on a clean fixture the two agree.
        let g = fixtures::two_cliques(6);
        let a = Louvain::new(LouvainConfig::default()).run(&g);
        let b = Louvain::new(LouvainConfig {
            refine: true,
            ..LouvainConfig::default()
        })
        .run(&g);
        assert_eq!(a.partition.num_communities(), b.partition.num_communities());
    }

    #[test]
    fn traced_run_equals_untraced_run() {
        use gala_telemetry::{RunEnd, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let runner = Louvain::new(LouvainConfig::default());
        let plain = runner.run(&g);
        let mut sink = VecSink::default();
        let traced = runner.run_with(&g, &mut Obs::traced(&mut sink));
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);

        // The stream is bracketed and internally consistent.
        let events = &sink.events;
        assert_eq!(events.first().unwrap().kind(), "run_start");
        assert_eq!(events.last().unwrap().kind(), "run_end");
        let supersteps: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Superstep(Superstep {
                    active,
                    moved,
                    pruned,
                    unmoved,
                    ..
                }) => Some((*active, *moved, *pruned, *unmoved)),
                _ => None,
            })
            .collect();
        assert_eq!(
            supersteps.len(),
            traced.num_iterations(),
            "one superstep event per recorded iteration"
        );
        for (active, moved, _pruned, unmoved) in supersteps {
            assert_eq!(active, moved + unmoved);
        }
        let round_ends = events.iter().filter(|e| e.kind() == "round_end").count();
        assert_eq!(round_ends, traced.rounds.len());
        match events.last().unwrap() {
            TraceEvent::RunEnd(RunEnd {
                modularity,
                rounds,
                total_cycles,
            }) => {
                assert_eq!(*modularity, traced.modularity);
                assert_eq!(*rounds as usize, traced.rounds.len());
                assert!(*total_cycles > 0.0);
            }
            other => panic!("unexpected final event {other:?}"),
        }
    }

    #[test]
    fn instrumented_run_produces_span_trees() {
        use gala_telemetry::{SpanTree, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let runner = Louvain::new(LouvainConfig::default());
        let plain = runner.run(&g);
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).profiled();
        let traced = runner.run_with(&g, &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);

        // One phase1 span event per superstep, one contract per round.
        let phase1: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(SpanTree { phase, root, .. }) if phase == "phase1" => Some(root),
                _ => None,
            })
            .collect();
        assert_eq!(phase1.len(), traced.num_iterations());
        let contracts = sink
            .events
            .iter()
            .filter(
                |e| matches!(e, TraceEvent::Span(SpanTree { phase, .. }) if phase == "contract"),
            )
            .count();
        assert_eq!(contracts, traced.rounds.len());
        // Each phase-1 tree has the superstep phases with the decide
        // kernels beneath, and the kernel tallies carry the divergence and
        // coalescing counters.
        let mut decide_totals = MemTally::new();
        for root in &phase1 {
            let decide = root.child("decide").expect("decide span");
            assert!(root.child("classify").is_some());
            assert!(root.child("apply").is_some());
            assert!(root.child("weight_update").is_some());
            assert!(!decide.children.is_empty(), "no kernel child spans");
            decide_totals += decide.total_tally();
        }
        assert!(decide_totals.simt_steps > 0, "no SIMT steps recorded");
        assert!(
            decide_totals.coalesce_requests > 0,
            "no coalescing requests recorded"
        );
        assert!(decide_totals.divergence() > 0.0);

        // The run-level profiler holds the merged tree: round → superstep →
        // decide, with tallies matching the per-iteration stats.
        let round = tree.child("round").expect("round span");
        assert_eq!(round.invocations, traced.rounds.len() as u64);
        let step = round.child("superstep").expect("superstep span");
        assert_eq!(step.invocations, traced.num_iterations() as u64);
        let decide_total = step.child("decide").unwrap().total_tally();
        let expected: MemTally = traced.rounds.iter().map(|r| r.decide_tally()).sum();
        assert_eq!(decide_total, expected);
        assert!(round.child("contract").is_some());
    }

    #[test]
    fn native_scopes_record_wall_time() {
        // Every native phase-1 scope carries `elapsed_ns`, and each round's
        // last tree holds its best-state restore; sim trees carry none.
        use gala_telemetry::{SpanTree, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        for backend in [BackendKind::Native, BackendKind::Sim] {
            let runner = Louvain::new(LouvainConfig {
                backend,
                ..LouvainConfig::default()
            });
            let mut sink = VecSink::default();
            let result = runner.run_with(&g, &mut Obs::traced(&mut sink));
            let trees: Vec<_> = sink
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Span(SpanTree { phase, root, .. }) if phase == "phase1" => {
                        Some(root)
                    }
                    _ => None,
                })
                .collect();
            let native = backend == BackendKind::Native;
            for root in &trees {
                for name in ["classify", "apply", "weight_update", "modularity"] {
                    let span = root.child(name).expect("phase-1 scope");
                    assert_eq!(
                        span.counters.contains_key("elapsed_ns"),
                        native,
                        "{backend}: {name}"
                    );
                }
            }
            let restores = trees.iter().filter(|r| r.child("best_state").is_some());
            let expected = if native { result.rounds.len() } else { 0 };
            assert_eq!(restores.count(), expected, "{backend}");
        }
    }

    #[test]
    fn traced_run_emits_per_round_metrics() {
        use gala_telemetry::{MetricsSnapshot, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let runner = Louvain::new(LouvainConfig::default());
        let mut sink = VecSink::default();
        let traced = runner.run_with(&g, &mut Obs::traced(&mut sink));
        let rounds: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Metrics(MetricsSnapshot {
                    round,
                    scope,
                    registry,
                }) => Some((*round, scope.as_str(), registry)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rounds.len(),
            traced.rounds.len(),
            "one metrics event per round"
        );
        for (i, (round, scope, reg)) in rounds.iter().enumerate() {
            assert_eq!(*round as usize, i);
            assert_eq!(*scope, "phase1");
            assert_eq!(
                reg.counter("phase1/supersteps"),
                Some(traced.rounds[i].iterations.len() as u64)
            );
            assert!(reg.gauge_value("phase1/moved_fraction").is_some());
            assert!(reg.gauge_value("pruning/audit_fnr").is_some());
        }
        let first = rounds[0].2;
        // The default kernel is workload-aware; every routed vertex lands
        // in a routing counter and its degree in the matching histogram.
        let shuffled = first.counter("kernel/shuffle_vertices").unwrap();
        let hashed = first.counter("kernel/hash_vertices").unwrap();
        assert!(shuffled + hashed > 0);
        let degrees = first
            .histogram("kernel/shuffle_degree")
            .map_or(0, |h| h.count())
            + first
                .histogram("kernel/hash_degree")
                .map_or(0, |h| h.count());
        assert_eq!(degrees, shuffled + hashed);
        // MG pruning is FN-free: after the all-active iteration 0, the
        // audit samples pruned vertices and must find no winning moves.
        assert!(first.counter("pruning/audit_sampled").unwrap() > 0);
        assert_eq!(first.counter("pruning/audit_false_negatives"), Some(0));
        assert_eq!(first.gauge_value("pruning/audit_fnr"), Some(0.0));
    }

    #[test]
    fn damped_audit_samples_only_what_the_mg_bound_pruned() {
        // Damping defers vertices that may hold winning moves; the audit
        // must keep measuring Theorem 6 on the MG-pruned set alone. On
        // native, certificates prune on top, and their own audit must find
        // every sampled certified vertex staying put.
        use gala_telemetry::{MetricsSnapshot, VecSink};
        let g = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 12,
            community_size: 50,
            internal_degree: 10.0,
            mixing: 0.35,
        }
        .generate(3)
        .graph;
        for backend in [BackendKind::Sim, BackendKind::Native] {
            let mut sink = VecSink::default();
            let cfg = LouvainConfig {
                backend,
                ..LouvainConfig::default()
            };
            Louvain::new(cfg).run_with(&g, &mut Obs::traced(&mut sink));
            let (mut deferred, mut certified, mut sampled, mut fns) = (0, 0, 0, 0);
            for e in &sink.events {
                if let TraceEvent::Metrics(MetricsSnapshot { registry, .. }) = e {
                    deferred += registry.counter("pruning/deferred").unwrap_or(0);
                    certified += registry.counter("pruning/certified").unwrap_or(0);
                    sampled += registry.counter("pruning/audit_sampled").unwrap_or(0);
                    fns += registry
                        .counter("pruning/audit_false_negatives")
                        .unwrap_or(0);
                }
            }
            assert!(deferred > 0, "{backend}: damping deferred nothing");
            assert!(sampled > 0, "{backend}: the audit sampled nothing");
            assert_eq!(fns, 0, "{backend}: a pruned vertex held a winning move");
            match backend {
                // The simulated warp kernels record no certificates.
                BackendKind::Sim => assert_eq!(certified, 0),
                BackendKind::Native => assert!(certified > 0, "no vertex was certified"),
            }
        }
    }

    /// What [`assert_certificates_sound`] saw over one run.
    #[derive(Debug, Default, PartialEq)]
    struct CertificateRun {
        /// Certified vertices decided in full (decide certificates).
        stayed: usize,
        /// Of those, vertices plain `mgd` would have decided.
        skipped: usize,
        /// MG-certified vertices whose bound was evaluated again.
        bounded: usize,
        /// Supersteps whose frontier was listed.
        listed: usize,
        /// Full clears of the table, and certificates that expired.
        clears: u64,
        expiries: u64,
    }

    /// Drives `mgd` supersteps twice in lockstep: once as the driver does,
    /// classifying the frontier with stay certificates, and once with no
    /// certificates. Before each superstep it checks that the frontier's
    /// mask is a full [`pruning::classify_certified_into`] scan's, and it
    /// checks every vertex holding a certificate: one the MG bound pruned
    /// must still satisfy the bound, and one the fold certified must stay
    /// where it is when decided in full. The two runs must make the same
    /// moves.
    fn assert_certificates_sound(g: &Graph, gamma: f64) -> CertificateRun {
        use gala_gpu::profile::Profiler;
        let backend = BackendKind::Native.resolve();
        let kernel = KernelKind::default();
        let n = g.num_vertices();
        let mut certified = BspState::with_resolution(g, gamma);
        let mut plain = certified.clone();
        let mut cs = Phase1Scratch::default();
        let mut ps = Phase1Scratch::default();
        cs.decide.certs.arm(n);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut run = CertificateRun::default();
        let mut full = Vec::new();
        // Whether each vertex's certificate came from the MG bound.
        let mut from_bound = vec![false; n];
        for step in 0..200 {
            let certs = &cs.decide.certs;
            pruning::classify_certified_into(
                PruningKind::GainDamped,
                g,
                &certified,
                &mut rng,
                certs,
                &mut full,
            );
            let held: Vec<bool> = (0..n as VertexId).map(|v| certs.holds(v)).collect();
            if step > 0 {
                let listed = matches!(certs.frontier(), pruning::certificate::Frontier::List(_));
                run.listed += usize::from(listed);
            }
            pruning::classify_work(
                PruningKind::GainDamped,
                g,
                &certified,
                &mut rng,
                certs,
                &mut cs.active,
                &mut cs.work,
            );
            assert!(
                cs.active == full,
                "γ {gamma}: frontier mask differs at superstep {step}"
            );
            let listed: Vec<VertexId> = (0..n as VertexId).filter(|&v| full[v as usize]).collect();
            assert_eq!(cs.work, listed, "γ {gamma}: work list at superstep {step}");
            pruning::classify_into(PruningKind::GainDamped, g, &plain, &mut rng, &mut ps.active);
            for v in 0..n as VertexId {
                let i = v as usize;
                if !certs.holds(v) {
                    continue;
                }
                from_bound[i] |= !held[i];
                if from_bound[i] {
                    assert!(
                        pruning::gain::is_provably_unmoved(v, g, &certified),
                        "γ {gamma}: MG-certified vertex {v} fails the bound at superstep {step}"
                    );
                    run.bounded += 1;
                } else {
                    let next = kernels::cpu::decide_one(v, g, &certified);
                    assert_eq!(
                        next, certified.comm[i],
                        "γ {gamma}: certified vertex {v} moves at superstep {step}"
                    );
                    run.stayed += 1;
                    run.skipped += usize::from(ps.active[i]);
                }
            }
            let mut prof = Profiler::disabled();
            backend.decide_list(
                kernel,
                g,
                &certified,
                &cs.work,
                &mut prof,
                &mut cs.decide,
                &mut cs.out,
            );
            for &v in &cs.work {
                from_bound[v as usize] = false;
            }
            backend.decide(
                kernel,
                g,
                &plain,
                &ps.active,
                &mut prof,
                &mut ps.decide,
                &mut ps.out,
            );
            let summary = certified.apply_move_list(g, &cs.out.moves);
            let plain_summary = plain.apply_moves(g, &ps.out.next_comm);
            assert_eq!(
                summary, plain_summary,
                "γ {gamma}: superstep {step} diverged"
            );
            let mode = WeightUpdateMode::Delta;
            let certs = &mut cs.decide.certs;
            weight::update_certified(mode, g, &mut certified, &summary, certs, None);
            weight::update(mode, g, &mut plain, &summary);
            if summary.num_moved() == 0 {
                break;
            }
        }
        (run.clears, run.expiries) = cs.decide.certs.counts;
        assert!(
            run.skipped > 0 && run.bounded > 0,
            "γ {gamma}: certificates skipped nothing MG kept, or the bound certified nothing \
             ({run:?})"
        );
        run
    }

    #[test]
    fn every_certified_vertex_stays_on_weighted_graphs() {
        let g = kernels::cpu::weighted_planted(40, 40, 8.0, 0.3, 9);
        for gamma in [1.0, 2.5] {
            assert_certificates_sound(&g, gamma);
        }
    }

    /// A planted partition with unit or seeded non-integer weights.
    fn planted(communities: usize, size: usize, mixing: f64, seed: u64, weighted: bool) -> Graph {
        if weighted {
            return kernels::cpu::weighted_planted(communities, size, 8.0, mixing, seed);
        }
        gala_graph::generators::sbm::PlantedPartition {
            num_communities: communities,
            community_size: size,
            internal_degree: 8.0,
            mixing,
        }
        .generate(seed)
        .graph
    }

    /// Runs [`assert_certificates_sound`] on `g` at pool widths 1, 2 and
    /// 8, which must see the same run.
    fn certificate_run_at_every_width(g: &Graph) -> CertificateRun {
        let run = rayon::with_parallelism(1, || assert_certificates_sound(g, 1.0));
        for width in [2, 8] {
            let other = rayon::with_parallelism(width, || assert_certificates_sound(g, 1.0));
            assert_eq!(other, run, "width {width}");
        }
        run
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The frontier's mask is the full scan's at every superstep, at
        /// pool widths 1, 2 and 8, on unit and non-integer weights, with
        /// full clears of the table along the way.
        #[test]
        fn frontier_mask_is_the_full_scan(
            communities in 24usize..40,
            size in 40usize..60,
            mixing in 0.1f64..0.35,
            seed in proptest::prelude::any::<u64>(),
        ) {
            for weighted in [false, true] {
                let g = planted(communities, size, mixing, seed, weighted);
                let run = certificate_run_at_every_width(&g);
                proptest::prop_assert!(run.clears > 0, "{run:?}");
            }
        }
    }

    /// The same check on graphs large enough for the frontier to be
    /// listed and for certificates to expire out of the queue.
    #[test]
    fn listed_frontier_follows_expiries() {
        let (mut listed, mut expiries) = (0, 0);
        for seed in [1, 3] {
            for weighted in [false, true] {
                let run = certificate_run_at_every_width(&planted(150, 40, 0.2, seed, weighted));
                listed += run.listed;
                expiries += run.expiries;
            }
        }
        assert!(
            listed > 0 && expiries > 0,
            "{listed} listed supersteps, {expiries} expiries"
        );
    }

    /// Asserts two states equal in every field, floats bit for bit.
    fn assert_same_state(a: &BspState, b: &BspState) {
        fn same<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T], what: &str) {
            let first = a.iter().zip(b).position(|(x, y)| x != y);
            assert!(
                a.len() == b.len() && first.is_none(),
                "{what} differs at {first:?}"
            );
        }
        let bits = |x: &[f64]| x.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        same(&a.comm, &b.comm, "comm");
        same(&bits(&a.d_self), &bits(&b.d_self), "d_self");
        same(&bits(&a.d_tot), &bits(&b.d_tot), "d_tot");
        same(&a.comm_size, &b.comm_size, "comm_size");
        same(&a.moved, &b.moved, "moved");
        same(&a.comm_changed, &b.comm_changed, "comm_changed");
        assert_eq!(a.min_d_tot.to_bits(), b.min_d_tot.to_bits(), "min_d_tot");
        assert_eq!(a.iteration, b.iteration, "iteration");
        assert_eq!((a.m2, a.resolution), (b.m2, b.resolution));
    }

    /// Runs one phase-1 round the way the driver does, keeping the best
    /// state both through [`DipPatience`]'s undo log and as the clone the
    /// log replaced, and checks that the round ends in the state the
    /// clone-based round would. Returns, for a round that ended below its
    /// best, whether the restore copied arrays back and how many logged
    /// writes it undid.
    fn assert_undo_restores_the_best_clone(
        g: &Graph,
        pruning: PruningKind,
    ) -> Option<(bool, usize)> {
        use gala_gpu::profile::Profiler;
        let cfg = LouvainConfig {
            pruning,
            backend: BackendKind::Native,
            ..LouvainConfig::default()
        };
        let backend = cfg.backend.resolve();
        let mut scratch = Phase1Scratch::default();
        let certs = &mut scratch.decide.certs;
        if pruning == PruningKind::GainDamped {
            certs.arm(g.num_vertices());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut state = BspState::new(g);
        let mut best = (state.modularity(g), state.clone());
        let mut dips = DipPatience::new(&state, best.0, cfg.theta, cfg.dip_patience);
        for _ in 0..cfg.max_iterations {
            let s = &mut scratch;
            let (active, work) = (&mut s.active, &mut s.work);
            pruning::classify_work(pruning, g, &state, &mut rng, &s.decide.certs, active, work);
            let prof = &mut Profiler::disabled();
            backend.decide_list(cfg.kernel, g, &state, work, prof, &mut s.decide, &mut s.out);
            let summary = state.apply_logged(g, &s.out.moves, Some(dips.undo()));
            let certs = &mut s.decide.certs;
            let undo = Some(dips.undo());
            weight::update_certified(cfg.weight_update, g, &mut state, &summary, certs, undo);
            let q = state.modularity(g);
            if q > best.0 {
                best = (q, state.clone());
            }
            if dips.step(&state, q, summary.num_moved()) {
                break;
            }
        }
        // The clone-based round restored its clone only below the best.
        let dipped = state.modularity(g) < best.0;
        let expected = if dipped { best.1 } else { state.clone() };
        assert_eq!(dips.finish(g, &mut state).to_bits(), best.0.to_bits());
        assert_same_state(&state, &expected);
        // The restored state carries on as the clone would.
        let mut clone = expected;
        let next: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v / 7 * 7).collect();
        let (a, b) = (state.apply_moves(g, &next), clone.apply_moves(g, &next));
        assert_eq!(a, b);
        assert_same_state(&state, &clone);
        dipped.then_some(dips.undo().restored)
    }

    /// `hubs` vertices adjacent to every vertex, over cliques of four.
    fn hubs_over_cliques(hubs: usize, cliques: usize) -> Graph {
        let n = hubs + 4 * cliques;
        let mut b = gala_graph::GraphBuilder::new(n);
        for h in 0..hubs {
            for v in h + 1..n {
                b.add_edge(h as VertexId, v as VertexId, 1.0);
            }
        }
        for c in (hubs..n).step_by(4) {
            for u in c..c + 4 {
                for v in u + 1..c + 4 {
                    b.add_edge(u as VertexId, v as VertexId, 1.0);
                }
            }
        }
        b.build()
    }

    /// Marks a state past a round's start, then runs a superstep in which
    /// a few hubs, holding between a quarter and half of the arcs, join
    /// one more hub: too few moves to copy the arrays, heavy enough that
    /// with certificates armed the weight update rescans. Q falls, and the
    /// round's end must restore the marked state bit for bit. Returns
    /// whether the restore copied arrays back and how many logged writes
    /// it undid.
    fn assert_undo_restores_across_a_rescan() -> (bool, usize) {
        let (hubs, cliques) = (16, 96);
        let g = hubs_over_cliques(hubs, cliques);
        let (n, m) = (g.num_vertices(), g.num_arcs());
        let mut state = BspState::new(&g);
        // Each clique gathers in its first vertex's community.
        let first = |v: u32| v - (v - hubs as u32) % 4;
        let next: Vec<u32> = (0..n as u32)
            .map(|v| if v < hubs as u32 { v } else { first(v) })
            .collect();
        let summary = state.apply_moves(&g, &next);
        weight::update(WeightUpdateMode::Delta, &g, &mut state, &summary);
        let marked = state.clone();
        let q = state.modularity(&g);
        let mut dips = DipPatience::new(&state, q, 1e-6, DIP_PATIENCE);

        let mut moves = Vec::new();
        let mut moved_arcs = 0;
        for h in 0..hubs as VertexId {
            if 4 * moved_arcs >= m {
                break;
            }
            moves.push((h, hubs as u32 - 1));
            moved_arcs += g.degree(h);
        }
        assert!(
            2 * moved_arcs < m && 8 * moves.len() <= n,
            "{moved_arcs} of {m}"
        );
        let summary = state.apply_logged(&g, &moves, Some(dips.undo()));
        let mut certs = Certificates::default();
        certs.arm(n);
        let undo = Some(dips.undo());
        let mode = WeightUpdateMode::Delta;
        let tally = weight::update_certified(mode, &g, &mut state, &summary, &mut certs, undo);
        assert_eq!(tally.global_loads, 3 * m as u64, "the rescan did not run");
        let dipped = state.modularity(&g);
        assert!(dipped < q, "Q rose from {q} to {dipped}");

        dips.step(&state, dipped, summary.num_moved());
        assert_eq!(dips.finish(&g, &mut state).to_bits(), q.to_bits());
        assert_same_state(&state, &marked);
        dips.undo().restored
    }

    #[test]
    fn undo_log_restores_the_best_state_of_a_dipping_round() {
        // Plain MG falls into BSP limit cycles, so its rounds end below
        // their best. The restores copy arrays back, and on the
        // larger graph also undo writes logged before the copy.
        let mut restores = Vec::new();
        for (communities, size) in [(40, 40), (100, 50)] {
            for weighted in [false, true] {
                let g = planted(communities, size, 0.4, 5, weighted);
                for pruning in [PruningKind::Gain, PruningKind::GainDamped] {
                    restores.extend(assert_undo_restores_the_best_clone(&g, pruning));
                }
            }
        }
        assert!(restores.iter().any(|&(copied, _)| copied), "{restores:?}");
        assert!(
            restores.iter().any(|&(_, writes)| writes > 0),
            "{restores:?}"
        );
        // Dipping rounds peak after their heavy supersteps, so a rescan
        // the restore has to reach back across is staged directly: the
        // moves come back from the log, `d_self` from the copy the rescan
        // took.
        let (copied, writes) = assert_undo_restores_across_a_rescan();
        assert!(
            copied && writes > 0,
            "copied {copied}, {writes} writes undone"
        );
    }

    #[test]
    fn disabled_sink_sees_no_events_and_changes_nothing() {
        // NullSink::emit debug-asserts it is never called: running under it
        // proves the drivers gate every emission on `sink.enabled()`.
        let g = fixtures::ring_of_cliques(5, 4);
        let runner = Louvain::new(LouvainConfig::default());
        let plain = runner.run(&g);
        let traced = runner.run_with(&g, &mut Obs::traced(&mut gala_telemetry::NullSink));
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
    }

    #[test]
    #[should_panic(expected = "resolution must be finite and positive")]
    fn run_rejects_a_zero_resolution() {
        let g = fixtures::two_cliques(3);
        Louvain::new(LouvainConfig {
            resolution: 0.0,
            ..LouvainConfig::default()
        })
        .run(&g);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = gala_graph::GraphBuilder::new(0).build();
        let result = Louvain::new(LouvainConfig::default()).run(&g);
        assert_eq!(result.partition.len(), 0);
        assert_eq!(result.modularity, 0.0);
    }

    #[test]
    fn edgeless_graph_keeps_singletons() {
        let g = gala_graph::GraphBuilder::new(5).build();
        let result = Louvain::new(LouvainConfig::default()).run(&g);
        assert_eq!(result.partition.num_communities(), 5);
    }
}
