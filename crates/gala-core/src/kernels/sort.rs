//! Sort-based DecideAndMove baseline — the cuGraph-style strategy the paper
//! compares against (Section 2.4: "rely on complex state transformation
//! (e.g. sorting) to identify the best community, which introduces high
//! complexity and memory access overhead").
//!
//! Per vertex: materialise `(C[u], w)` pairs in global scratch, sort them by
//! community id, then segmented-reduce equal-community runs. The tally
//! charges the gather stores, the `O(d log d)` sorting traffic, and the
//! reduce loads — all against global memory, which is why this kernel loses
//! to both GALA kernels under the cost model.

use super::choose;
use crate::state::BspState;
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Launches the kernel over the vertices of `work`, writing `next[i]` for
/// `work[i]` (allocation recycled). Returns the summed tally.
pub(crate) fn decide_list(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    next: &mut Vec<CommunityId>,
) -> MemTally {
    grid::launch_into(work, |&v, tally| decide_one(v, graph, state, tally), next)
}

/// One vertex's gather → sort → segmented-reduce pipeline.
pub fn decide_one(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    tally: &mut MemTally,
) -> CommunityId {
    // Gather phase: read neighbor + weight + community, write the pair to
    // global scratch.
    let mut pairs: Vec<(CommunityId, f64)> = Vec::with_capacity(graph.degree(v));
    for (u, w) in graph.neighbors(v) {
        tally.load(Space::Global, 3);
        if u == v {
            continue;
        }
        pairs.push((state.comm[u as usize], w));
        tally.store(Space::Global, 2);
    }
    if pairs.is_empty() {
        return state.comm[v as usize];
    }
    // Sort phase: a bitonic network in global memory — every one of its
    // compare-exchanges is measured, not estimated. The network is not
    // stable, but the segmented sums below are order-insensitive for
    // equal keys up to float association; all tests use unit weights where
    // addition is exact, and ties in `choose` break on community id.
    gala_gpu::sorting::bitonic_sort_by_key(&mut pairs, Space::Global, tally);
    // Segmented reduce: one pass over the sorted pairs.
    let mut cands: Vec<(CommunityId, f64)> = Vec::new();
    for (c, w) in pairs {
        tally.load(Space::Global, 2);
        match cands.last_mut() {
            Some(last) if last.0 == c => last.1 += w,
            _ => cands.push((c, w)),
        }
    }
    choose(v, graph, state, &cands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::hashtable::HashConfig;
    use crate::kernels::{decide, KernelKind};
    use gala_graph::generators::fixtures;

    #[test]
    fn matches_cpu_reference() {
        let g = fixtures::ring_of_cliques(5, 7);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let a = decide(KernelKind::Cpu, &g, &s, &active);
        let b = decide(KernelKind::Sort, &g, &s, &active);
        assert_eq!(a.next_comm, b.next_comm);
    }

    #[test]
    fn costs_more_global_traffic_than_hash_kernel() {
        let g = fixtures::ring_of_cliques(6, 10);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let sort_out = decide(KernelKind::Sort, &g, &s, &active);
        let hash_out = decide(KernelKind::Hash(HashConfig::default()), &g, &s, &active);
        assert!(
            sort_out.tally.global_total() > hash_out.tally.global_total(),
            "sort {} vs hash {}",
            sort_out.tally.global_total(),
            hash_out.tally.global_total()
        );
    }
}
