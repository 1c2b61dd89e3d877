//! Graph traversal utilities: connected components.
//!
//! Community detection experiments need these for sanity checks (an LFR
//! graph that fell apart into fragments invalidates an NMI comparison) and
//! for reporting (the paper's graphs are single giant components).

use crate::csr::{Graph, VertexId};

/// Connected components: returns `(component_id per vertex, #components)`.
/// Component ids are the smallest vertex id of the component.
pub fn connected_components(graph: &Graph) -> (Vec<VertexId>, usize) {
    let n = graph.num_vertices();
    let mut comp = vec![VertexId::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for start in 0..n as VertexId {
        if comp[start as usize] != VertexId::MAX {
            continue;
        }
        count += 1;
        comp[start as usize] = start;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for (u, _) in graph.neighbors(v) {
                if comp[u as usize] == VertexId::MAX {
                    comp[u as usize] = start;
                    stack.push(u);
                }
            }
        }
    }
    (comp, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::fixtures;
    use crate::GraphBuilder;

    #[test]
    fn components_on_disconnected_cliques() {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 4, 1.0);
        // 5, 6 isolated
        let g = b.build();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 4);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp[5], 5);
    }

    #[test]
    fn ring_of_cliques_is_connected() {
        let g = fixtures::ring_of_cliques(5, 4);
        let (_, k) = connected_components(&g);
        assert_eq!(k, 1);
    }

    #[test]
    fn empty_graph_components() {
        let g = GraphBuilder::new(0).build();
        let (comp, k) = connected_components(&g);
        assert!(comp.is_empty());
        assert_eq!(k, 0);
    }
}
