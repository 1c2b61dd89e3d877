//! Descriptive statistics over graphs: degree distribution summaries and the
//! per-graph rows of the paper's Table 2.

use crate::csr::Graph;

/// Summary statistics for a graph, mirroring the columns of Table 2 plus
/// degree-distribution information used by the kernel dispatcher.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges (self-loops counted once).
    pub num_edges: usize,
    /// Total weight `2|E|`.
    pub total_weight: f64,
    /// Minimum unweighted degree.
    pub min_degree: usize,
    /// Maximum unweighted degree.
    pub max_degree: usize,
    /// Mean unweighted degree.
    pub mean_degree: f64,
    /// Fraction of vertices with degree < 32 (shuffle-kernel candidates).
    pub small_degree_fraction: f64,
    /// Fraction of vertices with degree > 2000 (paper's "large degree"
    /// hash-kernel stress case).
    pub large_degree_fraction: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut min_degree = usize::MAX;
        let mut max_degree = 0usize;
        let mut sum = 0usize;
        let mut small = 0usize;
        let mut large = 0usize;
        for v in graph.vertices() {
            let d = graph.degree(v);
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
            sum += d;
            if d < 32 {
                small += 1;
            }
            if d > 2000 {
                large += 1;
            }
        }
        if n == 0 {
            min_degree = 0;
        }
        Self {
            num_vertices: n,
            num_edges: graph.num_edges(),
            total_weight: graph.total_weight(),
            min_degree,
            max_degree,
            mean_degree: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
            small_degree_fraction: if n == 0 { 0.0 } else { small as f64 / n as f64 },
            large_degree_fraction: if n == 0 { 0.0 } else { large as f64 / n as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_on_star() {
        // Star with center 0 and 4 leaves.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 4);
        assert!((s.mean_degree - 1.6).abs() < 1e-12);
        assert_eq!(s.small_degree_fraction, 1.0);
        assert_eq!(s.large_degree_fraction, 0.0);
    }

    #[test]
    fn stats_on_empty() {
        let g = GraphBuilder::new(0).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}
