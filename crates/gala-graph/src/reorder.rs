//! Vertex reordering for memory locality.
//!
//! GPU graph kernels are bandwidth-bound; renumbering vertices so that
//! neighbors share cache lines is a standard preprocessing step (the
//! paper's inputs come pre-ordered by LAW's layered label propagation).
//! Two orderings are provided: degree-descending (hubs first — helps the
//! workload-aware dispatcher batch same-kernel vertices) and BFS order
//! (locality for community-structured graphs).

use crate::csr::{Graph, VertexId};
use crate::partition::Partition;

/// A vertex renumbering: `new_id[v]` is `v`'s id in the reordered graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ordering {
    /// New id per old vertex.
    pub new_id: Vec<VertexId>,
}

impl Ordering {
    /// The inverse mapping: old id per new vertex.
    pub fn old_id(&self) -> Vec<VertexId> {
        let mut old = vec![0 as VertexId; self.new_id.len()];
        for (v, &nv) in self.new_id.iter().enumerate() {
            old[nv as usize] = v as VertexId;
        }
        old
    }

    /// Applies the ordering to a partition (so labels follow the vertices).
    pub fn apply_to_partition(&self, partition: &Partition) -> Partition {
        let mut out = vec![0u32; partition.len()];
        for v in 0..partition.len() {
            out[self.new_id[v] as usize] = partition.community_of(v as VertexId);
        }
        Partition::from_assignment(out)
    }
}

/// Degree-descending ordering (ties by original id, so deterministic).
pub fn degree_order(graph: &Graph) -> Ordering {
    let mut by_degree: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut new_id = vec![0 as VertexId; graph.num_vertices()];
    for (rank, &v) in by_degree.iter().enumerate() {
        new_id[v as usize] = rank as VertexId;
    }
    Ordering { new_id }
}

/// BFS ordering from the highest-degree vertex of each component
/// (a lightweight Cuthill–McKee flavour).
pub fn bfs_order(graph: &Graph) -> Ordering {
    let n = graph.num_vertices();
    let mut new_id = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    // Component seeds: highest degree first.
    let mut seeds: Vec<VertexId> = (0..n as VertexId).collect();
    seeds.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut queue = std::collections::VecDeque::new();
    for seed in seeds {
        if new_id[seed as usize] != VertexId::MAX {
            continue;
        }
        new_id[seed as usize] = next;
        next += 1;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbor_ids(v) {
                if new_id[u as usize] == VertexId::MAX {
                    new_id[u as usize] = next;
                    next += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    Ordering { new_id }
}

/// Rebuilds the graph under an ordering.
///
/// This is a pure CSR permutation — exactly-sized output arrays, each row
/// copied through the renumbering and re-sorted — with no edge-list
/// round-trip, so weights carry over bit-for-bit and the transient peak
/// is one adjacency row, not a second arc vector. Valid by construction
/// (a permutation of a valid graph), so it uses the trusted constructor
/// and skips the `O(n + m)` structural audit.
pub fn apply(graph: &Graph, ordering: &Ordering) -> Graph {
    let n = graph.num_vertices();
    assert_eq!(ordering.new_id.len(), n);
    let old = ordering.old_id();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for &v in &old {
        total += graph.degree(v);
        offsets.push(total);
    }
    let mut targets = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    let mut row: Vec<(VertexId, f64)> = Vec::new();
    for &v in &old {
        row.clear();
        row.extend(
            graph
                .neighbors(v)
                .map(|(u, w)| (ordering.new_id[u as usize], w)),
        );
        // Targets within a row are unique, so unstable is deterministic.
        row.sort_unstable_by_key(|&(u, _)| u);
        for &(u, w) in &row {
            targets.push(u);
            weights.push(w);
        }
    }
    Graph::from_csr_trusted(offsets, targets, weights)
}

/// Mean absolute id distance across edges — the locality proxy reordering
/// aims to shrink.
pub fn mean_edge_span(graph: &Graph) -> f64 {
    let mut total = 0.0f64;
    let mut edges = 0u64;
    for v in graph.vertices() {
        for (u, _) in graph.neighbors(v) {
            if u > v {
                total += (u - v) as f64;
                edges += 1;
            }
        }
    }
    if edges == 0 {
        0.0
    } else {
        total / edges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::fixtures;
    use crate::generators::sbm::PlantedPartition;

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = fixtures::star(5);
        let ord = degree_order(&g);
        assert_eq!(ord.new_id[0], 0); // the hub
        let g2 = apply(&g, &ord);
        assert_eq!(g2.degree(0), 5);
    }

    #[test]
    fn orderings_are_permutations() {
        let g = fixtures::ring_of_cliques(5, 4);
        for ord in [degree_order(&g), bfs_order(&g)] {
            let mut seen = ord.new_id.clone();
            seen.sort_unstable();
            let expect: Vec<VertexId> = (0..20).collect();
            assert_eq!(seen, expect);
            // old_id inverts new_id.
            let old = ord.old_id();
            for v in 0..20u32 {
                assert_eq!(old[ord.new_id[v as usize] as usize], v);
            }
        }
    }

    #[test]
    fn apply_preserves_structure() {
        let g = fixtures::two_cliques(4);
        let ord = bfs_order(&g);
        let g2 = apply(&g, &ord);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
        // Adjacency is isomorphic: edge (u,v) maps to (new[u], new[v]).
        for v in g.vertices() {
            for (u, w) in g.neighbors(v) {
                let nv = ord.new_id[v as usize];
                let nu = ord.new_id[u as usize];
                assert_eq!(g2.edge_weight(nv, nu), Some(w));
            }
        }
    }

    #[test]
    fn bfs_order_improves_locality_on_community_graphs() {
        // Interleave community membership so the natural order is bad.
        let gt = PlantedPartition {
            num_communities: 8,
            community_size: 40,
            internal_degree: 8.0,
            mixing: 0.05,
        }
        .generate(3);
        // Scramble with a degree-agnostic shuffle first.
        let scramble = Ordering {
            new_id: (0..320u32).map(|v| (v * 7) % 320).collect(),
        };
        let scrambled = apply(&gt.graph, &scramble);
        let reordered = apply(&scrambled, &bfs_order(&scrambled));
        assert!(
            mean_edge_span(&reordered) < mean_edge_span(&scrambled) / 2.0,
            "span {} vs {}",
            mean_edge_span(&reordered),
            mean_edge_span(&scrambled)
        );
    }

    #[test]
    fn partition_follows_the_vertices() {
        let g = fixtures::two_cliques(3);
        let p = fixtures::two_cliques_truth(3);
        let ord = degree_order(&g);
        let p2 = ord.apply_to_partition(&p);
        for v in g.vertices() {
            assert_eq!(p.community_of(v), p2.community_of(ord.new_id[v as usize]));
        }
    }
}
