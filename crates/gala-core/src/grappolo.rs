//! Grappolo-style CPU parallel Louvain (Lu, Halappanavar & Kalyanaraman,
//! Parallel Computing 2015) — the "Grappolo (CPU)" baseline of Figure 5.
//!
//! Grappolo's BSP heuristics are the ones GALA runs with pruning off, so
//! the baseline is the one Louvain driver under
//! [`LouvainConfig::grappolo`]: no pruning, the host fold, naive weight
//! maintenance, on the native pool without simulated-GPU accounting.

use crate::louvain::{Louvain, LouvainConfig, LouvainResult};
use gala_graph::Graph;

/// Full multi-round Grappolo run with convergence threshold `theta`.
pub fn grappolo(graph: &Graph, theta: f64) -> LouvainResult {
    Louvain::new(LouvainConfig {
        theta,
        ..LouvainConfig::grappolo()
    })
    .run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn finds_cliques() {
        let g = fixtures::ring_of_cliques(6, 5);
        let r = grappolo(&g, 1e-6);
        assert_eq!(r.partition.num_communities(), 6);
        assert!(!r.rounds[0].iterations.is_empty());
    }

    #[test]
    fn matches_gala_modularity_exactly() {
        // GALA with no pruning uses the same kernels/heuristics: both
        // follow Grappolo's convergence strategy, so Q is identical
        // (the paper makes the same observation in Section 5.1).
        let g = fixtures::ring_of_cliques(7, 4);
        let gala = Louvain::new(LouvainConfig::default()).run(&g);
        let grap = grappolo(&g, 1e-6);
        assert!(
            (gala.modularity - grap.modularity).abs() < 1e-9,
            "gala {} vs grappolo {}",
            gala.modularity,
            grap.modularity
        );
    }
}
