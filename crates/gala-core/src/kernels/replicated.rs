//! Replicated-table DecideAndMove — the conflict-free reduction design the
//! paper's Section 4.2 cites and rejects: "there also exists conflict-free
//! reduction-based solutions \[32\] that replicate the hash table to each
//! thread, which is not suitable for GPUs with massive cores."
//!
//! Each logical thread of the block owns a *private* table covering its
//! stride of the neighbor list; a reduction pass then merges the replicas.
//! No atomics anywhere — but the memory footprint and the merge traffic
//! scale with the thread count, which is exactly why it loses on a GPU.
//! Implemented as an ablation so the claim is measurable (see the
//! `replicated_table_pays_for_replication` test).

use super::choose;
use crate::state::BspState;
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Logical threads per block whose tables are replicated.
pub const REPLICAS: usize = 32;

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

/// One vertex: each replica aggregates its stride privately (charged to
/// global memory — per-thread tables of this size cannot live in registers
/// or shared memory, the paper's point), then a tree reduction merges them.
pub fn decide_one(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    tally: &mut MemTally,
) -> CommunityId {
    let ids = graph.neighbor_ids(v);
    let weights = graph.neighbor_weights(v);
    // Private association lists, one per replica, strided like a block.
    let mut replicas: Vec<Vec<(CommunityId, f64)>> = vec![Vec::new(); REPLICAS];
    for (i, (&u, &w)) in ids.iter().zip(weights).enumerate() {
        tally.load(Space::Global, 3);
        if u == v {
            continue;
        }
        let c = state.comm[u as usize];
        let table = &mut replicas[i % REPLICAS];
        // Private-table probe + update: one load, one store, no atomic.
        tally.load(Space::Global, 1);
        tally.store(Space::Global, 1);
        match table.iter_mut().find(|e| e.0 == c) {
            Some(e) => e.1 += w,
            None => table.push((c, w)),
        }
    }
    // Tree reduction: log2(REPLICAS) merge rounds; each surviving entry is
    // read from one replica and merged into another.
    let mut stride = 1usize;
    while stride < REPLICAS {
        for i in (0..REPLICAS).step_by(2 * stride) {
            if i + stride >= REPLICAS {
                continue;
            }
            let donor = std::mem::take(&mut replicas[i + stride]);
            tally.load(Space::Global, 2 * donor.len() as u64);
            let target = &mut replicas[i];
            for (c, w) in donor {
                tally.store(Space::Global, 1);
                match target.iter_mut().find(|e| e.0 == c) {
                    Some(e) => e.1 += w,
                    None => target.push((c, w)),
                }
            }
        }
        stride *= 2;
    }
    choose(v, graph, state, &replicas[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::hashtable::HashConfig;
    use crate::kernels::{decide, KernelKind};
    use gala_graph::generators::fixtures;

    #[test]
    fn matches_cpu_reference() {
        let g = fixtures::ring_of_cliques(6, 8);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let a = decide(KernelKind::Cpu, &g, &s, &active);
        let b = decide(KernelKind::Replicated, &g, &s, &active);
        assert_eq!(a.next_comm, b.next_comm);
    }

    #[test]
    fn replicated_table_pays_for_replication() {
        // The paper's claim: on wide vertices the shared-table design beats
        // per-thread replicas because the merge traffic scales with the
        // replica count.
        let g = fixtures::two_cliques(60); // degree ~59
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let repl = decide(KernelKind::Replicated, &g, &s, &active);
        let shared = decide(KernelKind::Hash(HashConfig::default()), &g, &s, &active);
        assert_eq!(repl.next_comm, shared.next_comm);
        use gala_gpu::memory::CostModel;
        let cost = CostModel::default();
        assert!(
            cost.cycles(&repl.tally) > cost.cycles(&shared.tally),
            "replicated {} vs shared-table {}",
            cost.cycles(&repl.tally),
            cost.cycles(&shared.tally)
        );
    }

    #[test]
    fn no_atomics_by_construction() {
        let g = fixtures::two_cliques(10);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let out = decide(KernelKind::Replicated, &g, &s, &active);
        assert_eq!(out.tally.global_atomics, 0);
        assert_eq!(out.tally.shared_atomics, 0);
    }
}
