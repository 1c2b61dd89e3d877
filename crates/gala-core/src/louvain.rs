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
use crate::pruning::{self, PruningKind};
use crate::state::BspState;
use crate::weight::{self, WeightUpdateMode};
use gala_gpu::memory::{CostModel, MemTally};
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::{Graph, Partition};
use gala_telemetry::{DeviceSync, MetricsRegistry, RoundEnd, Superstep, TraceEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

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
    /// Louvain; larger values favour smaller communities.
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
    /// Simulated memory tally of the DecideAndMove pass.
    pub tally: MemTally,
    /// Simulated memory tally of the weight-maintenance pass.
    pub weight_tally: MemTally,
    /// Hashtable placement stats (hash kernels only).
    pub hash_stats: TableStats,
    /// Wall time of DecideAndMove.
    pub decide_time: Duration,
    /// Wall time of the weight-maintenance step.
    pub weight_time: Duration,
    /// Wall time of everything else (classify, sync, apply, modularity).
    pub other_time: Duration,
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
    /// Total DecideAndMove wall time of the round.
    pub fn decide_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.decide_time).sum()
    }

    /// Total weight-maintenance wall time of the round.
    pub fn weight_time(&self) -> Duration {
        self.iterations.iter().map(|i| i.weight_time).sum()
    }

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

/// Reusable phase-1 working set: the active mask, the kernel scratch, and
/// the decide output live here so a round recycles one allocation set
/// across supersteps — and [`Louvain::run`] recycles it across hierarchy
/// rounds — instead of reallocating every superstep.
#[derive(Debug, Default)]
pub(crate) struct Phase1Scratch {
    active: Vec<bool>,
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
    /// events.
    pub(crate) fn run_phase1_round(
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
            decide: dscratch,
            out,
        } = scratch;
        let mut state = BspState::with_resolution(graph, cfg.resolution);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ round as u64);
        let mut iterations = Vec::new();
        let mut prev_q = state.modularity(graph);
        let mut dips = DipPatience::new(&state, prev_q, cfg.theta, cfg.dip_patience);
        // One device decides on the full mask; several split it.
        let mut devices = (cfg.devices > 1).then(|| Devices::new(graph, cfg.devices, cfg.sync));
        for iteration in 0..cfg.max_iterations {
            let mut sub = obs.sub();
            let t0 = Instant::now();
            let num_active = sub.scope("classify", |p| {
                pruning::classify_into(cfg.pruning, graph, &state, &mut rng, active);
                let num_active = active.iter().filter(|&&a| a).count();
                p.count("active", num_active as u64);
                p.count("pruned", (graph.num_vertices() - num_active) as u64);
                num_active
            });
            let t1 = Instant::now();
            let device_moved = match devices.as_mut() {
                None => {
                    backend.decide(cfg.kernel, graph, &state, active, &mut sub, dscratch, out);
                    0
                }
                Some(d) => d.decide(
                    backend, cfg.kernel, graph, &state, active, &mut sub, dscratch, out,
                ),
            };
            let t2 = Instant::now();
            if let Some(m) = obs.metrics() {
                record_superstep_metrics(m, cfg, graph, &state, active, num_active, out);
            }
            let sync = devices
                .as_ref()
                .map(|d| d.sync(graph.num_vertices(), device_moved, &mut sub, obs.metrics()));
            let summary = sub.scope("apply", |p| {
                let summary = state.apply_moves(graph, &out.next_comm);
                p.count("moved", summary.num_moved() as u64);
                summary
            });
            let moved = summary.num_moved();
            if let Some(m) = obs.metrics() {
                m.inc("phase1/moved", moved as u64);
                m.observe("phase1/moved_per_superstep", moved as u64);
                m.inc("phase1/supersteps", 1);
            }
            let t3 = Instant::now();
            let weight_tally = sub.scope("weight_update", |p| {
                let tally = weight::update(cfg.weight_update, graph, &mut state, &summary);
                p.record(&tally);
                tally
            });
            let t4 = Instant::now();
            let q = sub.scope("modularity", |p| {
                p.count("items", graph.num_vertices() as u64);
                state.modularity(graph)
            });
            let t5 = Instant::now();
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
                decide_time: t2 - t1,
                weight_time: t4 - t3,
                other_time: (t1 - t0) + (t3 - t2) + (t5 - t4),
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
            if dips.step(&state, q, moved) {
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
    pub fn run(&self, graph: &Graph) -> LouvainResult {
        self.run_with(graph, &mut Obs::off())
    }

    /// [`Self::run`] observed through `obs`: `run_start`, per BSP
    /// superstep a `superstep` event (plus its `sync` on several devices)
    /// and its `span`/`profile` pair, per hierarchy round the phase-1
    /// `metrics`/`progress` events, a `contract` span (holding `refine`
    /// when enabled, and `aggregate`/`exchange` under
    /// [`ContractMode::Partitioned`]), an exchange `sync` event per
    /// partitioned contraction, and a `round_end`, and a final `run_end`.
    /// The run-level profile holds one `round` span per hierarchy round.
    pub fn run_with(&self, graph: &Graph, obs: &mut Obs) -> LouvainResult {
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
            // recovers it, and the caller should never see that dip.
            let q_flat =
                crate::modularity::modularity_with_resolution(graph, &composed, cfg.resolution);
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

/// The default [`LouvainConfig::dip_patience`], also used by Grappolo,
/// which has no patience setting.
pub(crate) const DIP_PATIENCE: usize = 8;

/// Dip-tolerant convergence of one BSP phase-1 round. Simultaneous greedy
/// moves can overshoot and *lower* Q (the classic BSP-Louvain hazard), but
/// on weak-community graphs the optimum lies beyond several such dips.
/// Following Grappolo's convergence heuristics a round keeps iterating with
/// bounded patience and restores the best state seen, so it never ends
/// below its peak and Theorem 6's guarantees carry to the system level.
pub(crate) struct DipPatience {
    best_q: f64,
    best_state: BspState,
    stagnant: usize,
    theta: f64,
    patience: usize,
}

impl DipPatience {
    /// Starts from the round's initial `state` at modularity `q` (a round
    /// may never beat its start).
    pub(crate) fn new(state: &BspState, q: f64, theta: f64, patience: usize) -> Self {
        Self {
            best_q: q,
            best_state: state.clone(),
            stagnant: 0,
            theta,
            patience,
        }
    }

    /// Records a superstep that left `state` at modularity `q` after
    /// `moved` moves; returns whether the round should stop — nothing
    /// moved, or more than `patience` supersteps without a gain above θ.
    pub(crate) fn step(&mut self, state: &BspState, q: f64, moved: usize) -> bool {
        // Progress is measured against the best state, never against the
        // previous (possibly oscillating) superstep: a θ-sized up-tick
        // inside an oscillation must not read as convergence.
        if q > self.best_q {
            self.best_state = state.clone();
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
    /// and returns the round's peak modularity.
    pub(crate) fn finish(self, graph: &Graph, state: &mut BspState) -> f64 {
        if state.modularity(graph) < self.best_q {
            *state = self.best_state;
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
/// samples only what the MG bound pruned; the vertices damping deferred
/// on top are counted as `pruning/deferred` (present once nonzero).
fn record_superstep_metrics(
    m: &mut MetricsRegistry,
    cfg: &LouvainConfig,
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    num_active: usize,
    out: &kernels::DecideOutput,
) {
    use gala_graph::VertexId;

    m.inc("pruning/active", num_active as u64);
    m.inc("pruning/pruned", (graph.num_vertices() - num_active) as u64);
    let mg_active;
    let audited = if cfg.pruning == PruningKind::GainDamped && state.iteration > 0 {
        mg_active = pruning::gain::classify(graph, state);
        let deferred = mg_active.iter().filter(|&&a| a).count() - num_active;
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
        // must keep measuring Theorem 6 on the MG-pruned set alone.
        use gala_telemetry::{MetricsSnapshot, VecSink};
        let g = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 12,
            community_size: 50,
            internal_degree: 10.0,
            mixing: 0.35,
        }
        .generate(3)
        .graph;
        let mut sink = VecSink::default();
        Louvain::new(LouvainConfig::default()).run_with(&g, &mut Obs::traced(&mut sink));
        let (mut deferred, mut sampled, mut fns) = (0, 0, 0);
        for e in &sink.events {
            if let TraceEvent::Metrics(MetricsSnapshot { registry, .. }) = e {
                deferred += registry.counter("pruning/deferred").unwrap_or(0);
                sampled += registry.counter("pruning/audit_sampled").unwrap_or(0);
                fns += registry
                    .counter("pruning/audit_false_negatives")
                    .unwrap_or(0);
            }
        }
        assert!(deferred > 0, "damping deferred nothing");
        assert!(sampled > 0, "the audit sampled nothing");
        assert_eq!(fns, 0, "MG-pruned vertices held winning moves");
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
