//! The community dendrogram: the full multi-level structure Louvain
//! phase 2 builds, with cut-at-any-level access.
//!
//! [`crate::louvain::LouvainResult`] exposes only the final flattened
//! partition; [`Dendrogram`] keeps every level, which is what the "multi-
//! phase approach [that] iteratively merges communities" (paper Section 1)
//! is actually for: zooming between granularities without re-running.

use crate::louvain::{Louvain, LouvainConfig, Phase1Scratch};
use crate::modularity::modularity_with_resolution;
use crate::observe::Obs;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::{Graph, Partition};

/// A full Louvain hierarchy: level 0 is the finest (first-round)
/// partition of the original graph; each subsequent level merges further.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    /// `levels[i]` maps original vertices to level-`i` communities
    /// (dense ids). Never empty.
    levels: Vec<Partition>,
    /// Modularity of each level on the original graph.
    modularities: Vec<f64>,
}

impl Dendrogram {
    /// Builds the dendrogram by running Louvain with `config`, recording
    /// the flattened partition after every round.
    pub fn build(graph: &Graph, config: LouvainConfig) -> Self {
        let runner = Louvain::new(config);
        let backend = config.backend.resolve();
        let mut levels = Vec::new();
        let mut modularities = Vec::new();
        let mut current: Option<Graph> = None;
        let mut flat: Option<Partition> = None;
        let mut scratch = Phase1Scratch::default();
        let mut cscratch = CoarsenScratch::default();
        // Live observation only: the dendrogram builder has no trace sink,
        // so supersteps and completed levels go straight to the flight
        // recorder.
        let mut obs = Obs::off().driver("hierarchy");
        for round in 0..config.max_rounds {
            let g = current.as_ref().unwrap_or(graph);
            // Every level's phase 1 seeds like a standalone phase-1 run.
            let (state, stats) = runner.run_phase1_round(g, 0, &mut obs, &mut scratch);
            let moved_any = stats.iterations.iter().any(|i| i.num_moved > 0);
            let coarse = backend.contract(
                g,
                &state.partition(),
                config.kernel,
                false,
                &mut Profiler::disabled(),
                &mut cscratch,
            );
            let level = match &flat {
                None => coarse.renumbered.clone(),
                Some(prev) => prev.compose(&coarse.renumbered),
            };
            let q = modularity_with_resolution(graph, &level, config.resolution);
            modularities.push(q);
            let (supersteps, arcs) = (stats.iterations.len(), coarse.graph.num_arcs());
            obs.round_progress(round as u32, "level", supersteps, q, arcs);
            levels.push(level.clone());
            flat = Some(level);
            if !moved_any || coarse.num_communities == g.num_vertices() {
                break;
            }
            if let Some(old) = current.take() {
                cscratch.reclaim_graph(old);
            }
            cscratch.reclaim_assignment(coarse.renumbered);
            current = Some(coarse.graph);
        }
        if levels.is_empty() {
            levels.push(Partition::singletons(graph.num_vertices()));
            modularities.push(0.0);
        }
        Self {
            levels,
            modularities,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The partition at `level` (0 = finest).
    pub fn level(&self, level: usize) -> &Partition {
        &self.levels[level]
    }

    /// Modularity of the partition at `level` on the original graph.
    pub fn modularity_at(&self, level: usize) -> f64 {
        self.modularities[level]
    }

    /// The coarsest (final) partition — what `Louvain::run` returns.
    pub fn final_partition(&self) -> &Partition {
        self.levels.last().expect("dendrogram is never empty")
    }

    /// The level with maximal modularity (usually the last, but a capped
    /// `max_rounds` can leave an interior peak).
    pub fn best_level(&self) -> usize {
        self.modularities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The finest level with at most `k` communities, if any.
    pub fn level_with_at_most(&self, k: usize) -> Option<usize> {
        (0..self.levels.len()).find(|&i| self.levels[i].num_communities() <= k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn levels_coarsen_monotonically() {
        let g = fixtures::ring_of_cliques(8, 5);
        let d = Dendrogram::build(&g, LouvainConfig::default());
        assert!(d.num_levels() >= 1);
        let mut prev = usize::MAX;
        for i in 0..d.num_levels() {
            let k = d.level(i).num_communities();
            assert!(k <= prev, "level {i} has {k} communities, previous {prev}");
            prev = k;
        }
    }

    #[test]
    fn final_partition_matches_full_run() {
        let g = fixtures::ring_of_cliques(6, 4);
        let d = Dendrogram::build(&g, LouvainConfig::default());
        let full = Louvain::new(LouvainConfig::default()).run(&g);
        // Same final community structure (ids may be renumbered).
        assert_eq!(
            crate::metrics::nmi(d.final_partition(), &full.partition),
            1.0
        );
    }

    #[test]
    fn modularity_never_decreases_across_levels() {
        let g = fixtures::ring_of_cliques(10, 4);
        let d = Dendrogram::build(&g, LouvainConfig::default());
        for i in 1..d.num_levels() {
            assert!(
                d.modularity_at(i) >= d.modularity_at(i - 1) - 1e-9,
                "level {i} lost modularity"
            );
        }
        assert_eq!(d.best_level(), d.num_levels() - 1);
    }

    #[test]
    fn cut_by_community_budget() {
        let g = fixtures::ring_of_cliques(8, 4);
        let d = Dendrogram::build(&g, LouvainConfig::default());
        let lvl = d.level_with_at_most(10).expect("some level has <= 10");
        assert!(d.level(lvl).num_communities() <= 10);
        assert!(d.level_with_at_most(0).is_none());
    }

    #[test]
    fn single_level_for_edgeless_graph() {
        let g = gala_graph::GraphBuilder::new(3).build();
        let d = Dendrogram::build(&g, LouvainConfig::default());
        assert_eq!(d.num_levels(), 1);
        assert_eq!(d.final_partition().num_communities(), 3);
    }
}
