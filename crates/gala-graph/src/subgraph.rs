//! Induced subgraphs.
//!
//! Community analysis constantly needs "the graph restricted to this
//! vertex set": Leiden's connectivity guarantee checks communities'
//! induced subgraphs, and drill-down UIs extract one community.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use crate::partition::{CommunityId, Partition};
use std::collections::HashMap;

/// An induced subgraph plus the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced graph; vertex `i` corresponds to `vertices[i]` in the
    /// parent.
    pub graph: Graph,
    /// Parent-graph ids in subgraph-vertex order (sorted ascending).
    pub vertices: Vec<VertexId>,
}

/// Builds the subgraph induced by `vertices` (deduplicated, sorted).
/// Self-loops are preserved; edges leaving the set are dropped.
pub fn induced(graph: &Graph, vertices: &[VertexId]) -> Subgraph {
    let mut ids: Vec<VertexId> = vertices.to_vec();
    ids.sort_unstable();
    ids.dedup();
    for &v in &ids {
        assert!(
            (v as usize) < graph.num_vertices(),
            "vertex {v} out of range"
        );
    }
    let index: HashMap<VertexId, VertexId> = ids
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as VertexId))
        .collect();
    let mut b = GraphBuilder::new(ids.len());
    for (&v, &iv) in ids.iter().zip(ids.iter().map(|v| &index[v])) {
        for (u, w) in graph.neighbors(v) {
            if u < v {
                continue; // each undirected edge once; loops pass (u == v)
            }
            if let Some(&iu) = index.get(&u) {
                let w = if u == v { w / 2.0 } else { w };
                b.add_edge(iv, iu, w);
            }
        }
    }
    Subgraph {
        graph: b.build(),
        vertices: ids,
    }
}

/// The subgraph induced by one community of a partition.
pub fn community_subgraph(
    graph: &Graph,
    partition: &Partition,
    community: CommunityId,
) -> Subgraph {
    let members: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
        .filter(|&v| partition.community_of(v) == community)
        .collect();
    induced(graph, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::fixtures;

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = fixtures::two_cliques(3); // bridge between 2 and 3
        let sub = induced(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // the clique, bridge dropped
        assert_eq!(sub.vertices, vec![0, 1, 2]);
    }

    #[test]
    fn induced_dedups_and_sorts() {
        let g = fixtures::two_cliques(3);
        let sub = induced(&g, &[2, 0, 2, 1]);
        assert_eq!(sub.vertices, vec![0, 1, 2]);
    }

    #[test]
    fn induced_preserves_weights_and_loops() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_edge(0, 1, 2.5);
        b.add_edge(1, 1, 3.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let sub = induced(&g, &[0, 1]);
        assert_eq!(sub.graph.edge_weight(0, 1), Some(2.5));
        assert_eq!(sub.graph.self_loop(1), 6.0); // doubled convention kept
    }

    #[test]
    fn community_subgraph_extracts_one_side() {
        let g = fixtures::two_cliques(4);
        let p = fixtures::two_cliques_truth(4);
        let sub = community_subgraph(&g, &p, 1);
        assert_eq!(sub.vertices, vec![4, 5, 6, 7]);
        assert_eq!(sub.graph.num_edges(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn induced_rejects_bad_vertex() {
        let g = fixtures::path(3);
        induced(&g, &[0, 99]);
    }
}
