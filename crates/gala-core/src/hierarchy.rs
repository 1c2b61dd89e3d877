//! The community dendrogram: the full multi-level structure Louvain
//! phase 2 builds, with cut-at-any-level access.
//!
//! [`crate::louvain::LouvainResult`] exposes only the final flattened
//! partition; [`Dendrogram`] keeps every level, which is what the "multi-
//! phase approach [that] iteratively merges communities" (paper Section 1)
//! is actually for: zooming between granularities without re-running.

use crate::louvain::{Louvain, LouvainConfig};
use crate::observe::Obs;
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
    /// Builds the dendrogram by running [`Louvain::run`] with `config`,
    /// recording the flattened partition after every round: level `i` is
    /// round `i`'s, and [`Self::best_level`] is the partition `run`
    /// returns.
    pub fn build(graph: &Graph, config: LouvainConfig) -> Self {
        let mut levels = Vec::new();
        let mut modularities = Vec::new();
        Louvain::new(config).run_levels(graph, &mut Obs::off(), &mut |level, q| {
            levels.push(level.clone());
            modularities.push(q);
        });
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

    /// The coarsest (last) level. `Louvain::run` returns the best level
    /// ([`Self::best_level`]), whose partition differs from this one only
    /// when a later round lowered modularity (as a `refine` round can).
    pub fn final_partition(&self) -> &Partition {
        self.levels.last().expect("dendrogram is never empty")
    }

    /// The first level with maximal modularity: the partition
    /// `Louvain::run` returns.
    pub fn best_level(&self) -> usize {
        let mut best = 0;
        for (i, q) in self.modularities.iter().enumerate() {
            if *q > self.modularities[best] {
                best = i;
            }
        }
        best
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
        // The last round merged nothing, so the final level repeats the
        // best one.
        let best = d.best_level();
        assert_eq!(d.level(best), d.final_partition());
        assert_eq!(d.modularity_at(best), d.modularity_at(d.num_levels() - 1));
    }

    #[test]
    fn best_level_is_what_louvain_run_returns() {
        use crate::multi_gpu::ContractMode;
        use crate::pruning::PruningKind;
        // Each level is one round of the driver's own hierarchy loop, so
        // the level count, the best partition and its Q bits are `run`'s
        // under every config, `pm`'s per-round seeds and `refine` included.
        let g = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 10,
            community_size: 40,
            internal_degree: 6.0,
            mixing: 0.35,
        }
        .generate(5)
        .graph;
        let default = LouvainConfig::default();
        let configs = [
            ("default", default),
            ("paper", LouvainConfig::paper()),
            (
                "pm",
                LouvainConfig {
                    pruning: PruningKind::probabilistic_default(),
                    ..default
                },
            ),
            (
                "refine",
                LouvainConfig {
                    refine: true,
                    ..default
                },
            ),
            (
                "partitioned",
                LouvainConfig {
                    devices: 2,
                    contract: ContractMode::Partitioned,
                    ..default
                },
            ),
        ];
        for (name, cfg) in configs {
            let d = Dendrogram::build(&g, cfg);
            let run = Louvain::new(cfg).run(&g);
            assert_eq!(d.num_levels(), run.rounds.len(), "{name}: level count");
            let best = d.best_level();
            assert_eq!(d.level(best), &run.partition, "{name}: best partition");
            let q = d.modularity_at(best);
            assert_eq!(q.to_bits(), run.modularity.to_bits(), "{name}: best Q");
        }
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
