//! Block-level hash-based DecideAndMove kernel (paper Algorithm 3).
//!
//! One simulated block per active vertex. The block's threads stride over
//! the neighbor list, upserting `(C[u], w(u,v))` into a per-vertex
//! [`VertexTable`] whose placement (global-only / unified / hierarchical)
//! is the experiment variable of Figures 4 and 9(b). On first insertion of
//! a community the block also loads `D_V(C[u])` from global memory
//! (Algorithm 3 line 9). The final candidate scan feeds the shared
//! [`choose`] rule.

use super::choose;
use super::hashtable::{HashConfig, TableStats, VertexTable};
use crate::state::BspState;
use gala_gpu::block::SharedMem;
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_gpu::warp::WARP_SIZE;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Launches one block per vertex of `work`, writing `next[i]` for
/// `work[i]`; `launch_out` is the recycled launch buffer. Returns the
/// summed tally and table statistics.
pub(crate) fn decide_list(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    cfg: HashConfig,
    launch_out: &mut Vec<(CommunityId, TableStats)>,
    next: &mut Vec<CommunityId>,
) -> (MemTally, TableStats) {
    let tally = grid::launch_into(
        work,
        |&v, tally| decide_one(v, graph, state, cfg, tally),
        launch_out,
    );
    let mut stats = TableStats::default();
    next.clear();
    next.extend(launch_out.iter().map(|&(c, s)| {
        stats += s;
        c
    }));
    (tally, stats)
}

/// One block's work: Algorithm 3 for vertex `v`.
pub fn decide_one(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    cfg: HashConfig,
    tally: &mut MemTally,
) -> (CommunityId, TableStats) {
    let mut shared = SharedMem::default_budget();
    let deg = graph.degree(v);
    let mut table = VertexTable::new(cfg, deg.max(1), &mut shared);
    let ids = graph.neighbor_ids(v);
    let weights = graph.neighbor_weights(v);
    let edge_base = graph.offsets()[v as usize] as u64;
    // The block's warps stride over the neighbor list 32 lanes at a time:
    // ids and weights stream from the contiguous CSR edge arrays, C[u] is a
    // gather scattered by neighbor id. The fresh-community D_V load is a
    // divergent path (only lanes inserting a new key take it).
    for chunk_start in (0..ids.len()).step_by(WARP_SIZE) {
        let chunk_end = (chunk_start + WARP_SIZE).min(ids.len());
        let n = chunk_end - chunk_start;
        let chunk_mask = if n == WARP_SIZE {
            u32::MAX
        } else {
            (1u32 << n) - 1
        };
        let mut edge_offs = [0u64; WARP_SIZE];
        let mut comm_offs = [0u64; WARP_SIZE];
        for (lane, i) in (chunk_start..chunk_end).enumerate() {
            edge_offs[lane] = edge_base + i as u64;
            comm_offs[lane] = ids[i] as u64;
        }
        tally.simt_step(chunk_mask);
        tally.global_request(&edge_offs[..n], 4); // neighbor ids (u32)
        tally.global_request(&edge_offs[..n], 8); // edge weights (f64)
        tally.global_request(&comm_offs[..n], 4); // C[u] gather (u32)
        let mut fresh_mask = 0u32;
        for (lane, i) in (chunk_start..chunk_end).enumerate() {
            let u = ids[i];
            // Load neighbor id, edge weight, and C[u] from global memory.
            tally.load(Space::Global, 3);
            if u == v {
                continue;
            }
            let c = state.comm[u as usize];
            let before = table.len();
            table.upsert_add(c, weights[i], tally);
            if table.len() != before {
                // Fresh community: load D_V(C[u]) (Alg. 3 l. 9).
                tally.load(Space::Global, 1);
                fresh_mask |= 1 << lane;
            }
            // Gain computation for the running max (registers).
            tally.load(Space::Register, 4);
        }
        if fresh_mask != 0 && fresh_mask != chunk_mask {
            tally.simt_serialize(1);
        }
    }
    let cands = table.drain(tally);
    // Block-level reduction of per-thread maxima (registers).
    tally.load(Space::Register, 2 * cands.len() as u64 + 2);
    (choose(v, graph, state, &cands), table.stats)
}

#[cfg(test)]
mod tests {
    use super::super::hashtable::HashTableKind;
    use super::*;
    use crate::kernels::{decide, KernelKind};
    use gala_graph::generators::fixtures;

    fn all_kinds() -> [HashConfig; 3] {
        [
            HashConfig {
                kind: HashTableKind::GlobalOnly,
                shared_buckets: 0,
            },
            HashConfig {
                kind: HashTableKind::Unified,
                shared_buckets: 64,
            },
            HashConfig {
                kind: HashTableKind::Hierarchical,
                shared_buckets: 64,
            },
        ]
    }

    #[test]
    fn all_table_kinds_match_cpu_reference() {
        let g = fixtures::ring_of_cliques(5, 6);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let reference = decide(KernelKind::Cpu, &g, &s, &active);
        for cfg in all_kinds() {
            let out = decide(KernelKind::Hash(cfg), &g, &s, &active);
            assert_eq!(out.next_comm, reference.next_comm, "{:?}", cfg.kind);
        }
    }

    #[test]
    fn hierarchical_serves_more_from_shared_than_unified() {
        let g = fixtures::ring_of_cliques(8, 8);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let rate = |kind| {
            let cfg = HashConfig {
                kind,
                shared_buckets: 32,
            };
            let out = decide(KernelKind::Hash(cfg), &g, &s, &active);
            out.hash_stats.access_rate()
        };
        let hier = rate(HashTableKind::Hierarchical);
        let uni = rate(HashTableKind::Unified);
        assert!(hier > uni, "hier {hier} vs uni {uni}");
    }

    #[test]
    fn global_only_counts_no_shared_traffic() {
        let g = fixtures::two_cliques(5);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let cfg = HashConfig {
            kind: HashTableKind::GlobalOnly,
            shared_buckets: 0,
        };
        let out = decide(KernelKind::Hash(cfg), &g, &s, &active);
        assert_eq!(out.tally.shared_atomics, 0);
        assert!(out.tally.global_atomics > 0);
    }

    #[test]
    fn inactive_vertices_untouched() {
        let g = fixtures::two_cliques(4);
        let s = BspState::new(&g);
        let active = vec![false; g.num_vertices()];
        let out = decide(KernelKind::Hash(HashConfig::default()), &g, &s, &active);
        assert_eq!(out.next_comm, s.comm);
        assert_eq!(out.tally, MemTally::new());
    }
}
