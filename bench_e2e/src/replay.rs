//! Outside-in trace of `Louvain::run`: its round loop replayed from the
//! benchmark, timing each call into a layer's public function.
//!
//! The control flow copies `Louvain::run_instrumented` and its phase-1
//! round (dip patience, best-state restore, the θ stopping rules and the
//! best flattened Q) with the sink and profiler disabled, as
//! `gala detect --backend native` runs it. [`check_fidelity`] proves the
//! copy is faithful: the replay must reproduce `Louvain::run`'s partition,
//! modularity bits and per-round superstep counts, or its layer times
//! describe some other program.

use gala_core::backend::ExecutionBackend;
use gala_core::kernels::{DecideOutput, DecideScratch};
use gala_core::louvain::{LouvainConfig, LouvainResult};
use gala_core::modularity::modularity_with_resolution;
use gala_core::pruning;
use gala_core::state::BspState;
use gala_core::weight;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::{Graph, Partition, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// A timed layer call. Names are `<module>.<what>_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `BspState::with_resolution`, once per round.
    StateInit,
    /// `pruning::classify_into` plus the count of active vertices `Louvain::run` makes.
    Classify,
    /// `ExecutionBackend::decide`.
    Decide,
    /// `BspState::apply_moves`.
    Apply,
    /// `weight::update`.
    Weight,
    /// `BspState::modularity`, per superstep and at round start and end.
    StateModularity,
    /// Best-state snapshots (`BspState::clone`) on each improvement.
    BestState,
    /// `BspState::partition`, once per round.
    StatePartition,
    /// `ExecutionBackend::contract` plus handing spent buffers back to the
    /// `CoarsenScratch`.
    Contract,
    /// `Partition::compose` of the hierarchy, and the best-so-far copy.
    Compose,
    /// `modularity_with_resolution` of the flattened partition on the
    /// original graph, once per round.
    FlatModularity,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::StateInit,
        Layer::Classify,
        Layer::Decide,
        Layer::Apply,
        Layer::Weight,
        Layer::StateModularity,
        Layer::BestState,
        Layer::StatePartition,
        Layer::Contract,
        Layer::Compose,
        Layer::FlatModularity,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Layer::StateInit => "state.init_s",
            Layer::Classify => "pruning.classify_s",
            Layer::Decide => "kernels.decide_s",
            Layer::Apply => "state.apply_s",
            Layer::Weight => "weight.update_s",
            Layer::StateModularity => "state.modularity_s",
            Layer::BestState => "louvain.best_state_s",
            Layer::StatePartition => "state.partition_s",
            Layer::Contract => "coarsen.contract_s",
            Layer::Compose => "partition.compose_s",
            Layer::FlatModularity => "modularity.flat_s",
        }
    }
}

/// What the replay measured and produced.
#[derive(Debug)]
pub struct Replay {
    pub partition: Partition,
    pub modularity: f64,
    /// Supersteps of each hierarchy round.
    pub supersteps: Vec<usize>,
    /// Time spent in each layer, indexed like [`Layer::ALL`].
    pub layer: [Duration; Layer::ALL.len()],
    /// Replay wall time, excluding the benchmark's own counting passes.
    pub wall: Duration,
    pub work: Work,
}

impl Replay {
    pub fn time(&self, layer: Layer) -> Duration {
        self.layer[layer as usize]
    }
}

/// Work counts, summed over supersteps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Active vertices.
    pub active: u64,
    /// Vertices of the round's graph: the active count had nothing been
    /// pruned.
    pub candidates: u64,
    /// Vertices moved.
    pub moved: u64,
    /// Degree of the active vertices: the arcs decide scans.
    pub active_arcs: u64,
    /// Active vertices the decide pass routed to a hash kernel.
    pub hash_routed: u64,
}

/// Per-layer stopwatch plus the work counters. Counting runs outside the
/// timed calls and its own cost is kept out of the wall time.
#[derive(Default)]
struct Recorder {
    layer: [Duration; Layer::ALL.len()],
    counting: Duration,
    work: Work,
}

impl Recorder {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.layer[layer as usize] += started.elapsed();
        r
    }

    fn count(&mut self, g: &Graph, active: &[bool], num_active: usize, moved: usize, hash: u64) {
        let started = Instant::now();
        let work = &mut self.work;
        work.active += num_active as u64;
        work.candidates += g.num_vertices() as u64;
        work.moved += moved as u64;
        work.hash_routed += hash;
        work.active_arcs += active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(v, _)| g.degree(v as VertexId) as u64)
            .sum::<u64>();
        self.counting += started.elapsed();
    }
}

/// Buffers one run recycles across supersteps and rounds, as the phase-1
/// scratch inside `Louvain::run` does.
#[derive(Default)]
struct Scratch {
    active: Vec<bool>,
    decide: DecideScratch,
    out: DecideOutput,
}

/// Replays `Louvain::new(*cfg).run(graph)`, timing every layer call.
pub fn replay(graph: &Graph, cfg: &LouvainConfig) -> Replay {
    let backend = cfg.backend.resolve();
    let mut rec = Recorder::default();
    let started = Instant::now();
    let mut scratch = Scratch::default();
    let mut cscratch = CoarsenScratch::default();
    let mut supersteps = Vec::new();
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut best: Option<(Partition, f64)> = None;
    let mut last_q = f64::NEG_INFINITY;
    for round in 0..cfg.max_rounds {
        let g = current.as_ref().unwrap_or(graph);
        let (state, q, moved_any, steps) =
            phase1_round(g, round, cfg, backend, &mut rec, &mut scratch);
        supersteps.push(steps);
        let partition = rec.time(Layer::StatePartition, || state.partition());
        let coarse = rec.time(Layer::Contract, || {
            backend.contract(
                g,
                &partition,
                cfg.kernel,
                false,
                &mut Profiler::disabled(),
                &mut cscratch,
            )
        });
        let composed = rec.time(Layer::Compose, || match flat.take() {
            None => coarse.renumbered.clone(),
            Some(prev) => prev.compose(&coarse.renumbered),
        });
        let q_flat = rec.time(Layer::FlatModularity, || {
            modularity_with_resolution(graph, &composed, cfg.resolution)
        });
        if best.as_ref().is_none_or(|(_, bq)| q_flat > *bq) {
            rec.time(Layer::Compose, || best = Some((composed.clone(), q_flat)));
        }
        flat = Some(composed);
        if !moved_any || coarse.num_communities == g.num_vertices() || q - last_q < cfg.theta {
            break;
        }
        last_q = q;
        rec.time(Layer::Contract, || {
            if let Some(old) = current.take() {
                cscratch.reclaim_graph(old);
            }
            cscratch.reclaim_assignment(coarse.renumbered);
        });
        current = Some(coarse.graph);
    }
    let (partition, modularity) =
        best.unwrap_or_else(|| (Partition::singletons(graph.num_vertices()), 0.0));
    Replay {
        partition,
        modularity,
        supersteps,
        layer: rec.layer,
        wall: started.elapsed().saturating_sub(rec.counting),
        work: rec.work,
    }
}

/// One phase-1 round. Returns the round's final state, its best
/// modularity, whether any vertex moved, and its superstep count.
fn phase1_round(
    g: &Graph,
    round: usize,
    cfg: &LouvainConfig,
    backend: &dyn ExecutionBackend,
    rec: &mut Recorder,
    scratch: &mut Scratch,
) -> (BspState, f64, bool, usize) {
    let Scratch {
        active,
        decide,
        out,
    } = scratch;
    let mut state = rec.time(Layer::StateInit, || {
        BspState::with_resolution(g, cfg.resolution)
    });
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ round as u64);
    let mut best_q = rec.time(Layer::StateModularity, || state.modularity(g));
    let mut best_state = rec.time(Layer::BestState, || state.clone());
    let mut stagnant = 0usize;
    let mut moved_any = false;
    let mut steps = 0usize;
    let mut prof = Profiler::disabled();
    for _ in 0..cfg.max_iterations {
        let num_active = rec.time(Layer::Classify, || {
            pruning::classify_into(cfg.pruning, g, &state, &mut rng, active);
            active.iter().filter(|&&a| a).count()
        });
        rec.time(Layer::Decide, || {
            backend.decide(cfg.kernel, g, &state, active, &mut prof, decide, out)
        });
        let summary = rec.time(Layer::Apply, || state.apply_moves(g, &out.next_comm));
        rec.time(Layer::Weight, || {
            weight::update(cfg.weight_update, g, &mut state, &summary)
        });
        let q = rec.time(Layer::StateModularity, || state.modularity(g));
        let moved = summary.num_moved();
        rec.count(g, active, num_active, moved, out.routing.hash_vertices);
        steps += 1;
        moved_any |= moved > 0;
        if q > best_q {
            rec.time(Layer::BestState, || best_state = state.clone());
            if q > best_q + cfg.theta {
                stagnant = 0;
            } else {
                stagnant += 1;
            }
            best_q = q;
        } else {
            stagnant += 1;
        }
        if moved == 0 || stagnant > cfg.dip_patience {
            break;
        }
    }
    if rec.time(Layer::StateModularity, || state.modularity(g)) < best_q {
        state = best_state;
    }
    (state, best_q, moved_any, steps)
}

/// The fidelity guard: the replay must reproduce `Louvain::run`'s
/// partition, modularity bits and per-round superstep counts.
pub fn check_fidelity(replay: &Replay, reference: &LouvainResult) -> Result<(), String> {
    let steps: Vec<usize> = reference
        .rounds
        .iter()
        .map(|r| r.iterations.len())
        .collect();
    if replay.supersteps != steps {
        return Err(format!(
            "replay supersteps per round {:?}, Louvain::run {:?}",
            replay.supersteps, steps
        ));
    }
    if replay.modularity.to_bits() != reference.modularity.to_bits() {
        return Err(format!(
            "replay Q {:e}, Louvain::run Q {:e}",
            replay.modularity, reference.modularity
        ));
    }
    if replay.partition != reference.partition {
        return Err("replay partition differs from Louvain::run's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::native_config;
    use gala_core::louvain::Louvain;
    use gala_graph::generators::fixtures;
    use gala_graph::generators::sbm::PlantedPartition;

    fn assert_faithful(g: &Graph, width: usize) {
        rayon::with_parallelism(width, || {
            let cfg = native_config();
            let reference = Louvain::new(cfg).run(g);
            let replay = replay(g, &cfg);
            check_fidelity(&replay, &reference).unwrap();
            let work = replay.work;
            assert!(work.active > 0 && work.active <= work.candidates);
            assert!(work.moved <= work.active && work.hash_routed <= work.active);
            assert!(work.active_arcs >= work.active);
            let layers: Duration = replay.layer.iter().sum();
            assert!(layers <= replay.wall, "{layers:?} > {:?}", replay.wall);
        });
    }

    #[test]
    fn replay_matches_run_on_ring_of_cliques() {
        let g = fixtures::ring_of_cliques(12, 6);
        assert_faithful(&g, 1);
        assert_faithful(&g, 2);
    }

    #[test]
    fn replay_matches_run_on_planted_partition() {
        let g = PlantedPartition {
            num_communities: 20,
            community_size: 50,
            internal_degree: 8.0,
            mixing: 0.35,
        }
        .generate(11)
        .graph;
        assert_faithful(&g, 1);
        assert_faithful(&g, 2);
    }

    #[test]
    fn guard_rejects_a_diverging_replay() {
        let g = fixtures::ring_of_cliques(8, 5);
        let cfg = native_config();
        let reference = Louvain::new(cfg).run(&g);

        let mut extra_step = replay(&g, &cfg);
        extra_step.supersteps[0] += 1;
        assert!(check_fidelity(&extra_step, &reference).is_err());

        let mut other_q = replay(&g, &cfg);
        other_q.modularity = f64::from_bits(other_q.modularity.to_bits() + 1);
        assert!(check_fidelity(&other_q, &reference).is_err());

        let mut merged = replay(&g, &cfg);
        merged.partition = Partition::from_assignment(vec![0; g.num_vertices()]);
        assert!(check_fidelity(&merged, &reference).is_err());
    }
}
