//! Warp-level shuffle-based DecideAndMove kernel (paper Algorithm 2).
//!
//! One warp per active vertex. Each lane loads one neighbor's community id
//! and edge weight into its registers; `__match_any_sync` groups lanes by
//! community; the grouped reduce-add produces `d_C(v)` per community; each
//! group-leader lane computes its gain; `__reduce_max_sync` picks the best.
//!
//! Degrees above 32 are handled as the paper suggests — "a thread handling
//! multiple neighbors … through loop": the warp processes 32-neighbor
//! chunks, and group leaders merge chunk partial sums into a warp-resident
//! association list of up to 32 `(community, sum)` registers. If a vertex
//! touches more than 32 distinct communities the excess entries spill to
//! local memory, which on real hardware is backed by global memory — the
//! tally charges it accordingly. (GALA's dispatcher avoids this by routing
//! degree ≥ 32 vertices to the hash kernel.)

use crate::state::BspState;
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_gpu::warp::{Warp, FULL_MASK, WARP_SIZE};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Launches one warp per vertex of `work`, writing `next[i]` for `work[i]`
/// (allocation recycled). Returns the summed tally.
pub(crate) fn decide_list(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    next: &mut Vec<CommunityId>,
) -> MemTally {
    grid::launch_into(work, |&v, tally| decide_one(v, graph, state, tally), next)
}

/// Maximum `(community, sum)` pairs the warp keeps in registers.
const REGISTER_ENTRIES: usize = WARP_SIZE;

/// One warp's work: Algorithm 2 for vertex `v`.
pub fn decide_one(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    tally: &mut MemTally,
) -> CommunityId {
    let ids = graph.neighbor_ids(v);
    let weights = graph.neighbor_weights(v);
    let edge_base = graph.offsets()[v as usize] as u64;
    // Warp-resident association list: distinct community -> running d_vc.
    // Entries up to WARP_SIZE live in registers; beyond that they spill.
    let mut comms: Vec<CommunityId> = Vec::with_capacity(REGISTER_ENTRIES);
    let mut sums: Vec<f64> = Vec::with_capacity(REGISTER_ENTRIES);

    for chunk_start in (0..ids.len()).step_by(WARP_SIZE) {
        let chunk_end = (chunk_start + WARP_SIZE).min(ids.len());
        let n = chunk_end - chunk_start;
        let chunk_mask = if n == WARP_SIZE {
            FULL_MASK
        } else {
            (1u32 << n) - 1
        };
        // Warp-wide load issue: ids and weights stream from the contiguous
        // CSR edge arrays (coalesced), C[u] is a gather scattered by
        // neighbor id.
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
        let mut lane_comm = [0u32; WARP_SIZE];
        let mut lane_w = [0.0f64; WARP_SIZE];
        let mut active_mask = 0u32;
        for (lane, i) in (chunk_start..chunk_end).enumerate() {
            let u = ids[i];
            // Load neighbor id, edge weight, and C[u] from global memory.
            tally.load(Space::Global, 3);
            if u == v {
                continue; // self-loop lane stays inactive
            }
            lane_comm[lane] = state.comm[u as usize];
            lane_w[lane] = weights[i];
            active_mask |= 1 << lane;
        }
        if active_mask == 0 {
            continue;
        }
        let mut warp = Warp::new(active_mask, tally);
        let groups = warp.match_any_sync(&lane_comm);
        let group_sums = warp.reduce_add_grouped(&groups, &lane_w);
        // Group leaders (lowest lane of each group) merge into the list —
        // a divergent branch whenever some active lanes are not leaders.
        let mut is_leader = [false; WARP_SIZE];
        for (lane, leader) in is_leader.iter_mut().enumerate() {
            *leader =
                active_mask & (1 << lane) != 0 && groups[lane].trailing_zeros() as usize == lane;
        }
        let (leaders, _) = warp.branch(&is_leader);
        for lane in 0..WARP_SIZE {
            if leaders & (1 << lane) == 0 {
                continue; // inactive or not the leader
            }
            let c = lane_comm[lane];
            let sum = group_sums[lane];
            match comms.iter().position(|&x| x == c) {
                Some(i) => {
                    sums[i] += sum;
                    charge_entry(tally, i);
                }
                None => {
                    comms.push(c);
                    sums.push(sum);
                    charge_entry(tally, comms.len() - 1);
                }
            }
        }
    }

    if comms.is_empty() {
        return state.comm[v as usize]; // isolated or self-loop-only vertex
    }

    // Score every candidate. D_V(C) comes from global memory, one load per
    // distinct community (each lane holding an entry performs it) — a
    // gather scattered by community id.
    let mut dtot_offs = [0u64; WARP_SIZE];
    for chunk in comms.chunks(WARP_SIZE) {
        for (slot, &c) in dtot_offs.iter_mut().zip(chunk) {
            *slot = c as u64;
        }
        let mask = if chunk.len() == WARP_SIZE {
            FULL_MASK
        } else {
            (1u32 << chunk.len()) - 1
        };
        tally.simt_step(mask);
        tally.global_request(&dtot_offs[..chunk.len()], 8); // D_V(C) (f64)
    }
    let cv = state.comm[v as usize];
    let d_v = graph.degree_w(v);
    let mut stay_d_vc = 0.0;
    let mut lane_score = [f64::NEG_INFINITY; WARP_SIZE];
    let mut lane_cand = [u32::MAX; WARP_SIZE];
    let mut score_mask = 0u32;
    let mut overflow: Vec<(f64, CommunityId)> = Vec::new();
    for (i, (&c, &d_vc)) in comms.iter().zip(&sums).enumerate() {
        tally.load(Space::Global, 1); // D_V(C)
        if c == cv {
            stay_d_vc = d_vc;
            continue;
        }
        let score = state.score(d_vc, d_v, state.d_tot[c as usize]);
        if i < REGISTER_ENTRIES {
            lane_score[i] = score;
            lane_cand[i] = c;
            score_mask |= 1 << i;
        } else {
            overflow.push((score, c));
        }
    }

    // Warp reduction: max score, then min community id among the ties.
    let (mut best_score, mut best_c) = (f64::NEG_INFINITY, u32::MAX);
    if score_mask != 0 {
        let mut warp = Warp::new(score_mask, tally);
        let max = warp.reduce_max_sync(&lane_score);
        let mut is_max = [false; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            is_max[lane] = score_mask & (1 << lane) != 0 && lane_score[lane] == max;
        }
        let tie_mask = warp.ballot_sync(&is_max);
        let mut tied_ids = [u32::MAX; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if tie_mask & (1 << lane) != 0 {
                tied_ids[lane] = lane_cand[lane];
            }
        }
        let mut tie_warp = Warp::new(tie_mask, tally);
        best_c = tie_warp.reduce_min_u32_sync(&tied_ids);
        best_score = max;
    }
    for (score, c) in overflow {
        if score > best_score || (score == best_score && c < best_c) {
            best_score = score;
            best_c = c;
        }
    }
    if best_c == u32::MAX {
        return cv; // only the home community among neighbors
    }

    // Same final rule as `choose`: extraction-convention stay score,
    // tie-to-smaller-id, singleton-swap guard.
    let stay_score = state.score(stay_d_vc, d_v, state.d_tot_without(v, graph));
    let wants_move = best_score > stay_score || (best_score == stay_score && best_c < cv);
    if !wants_move {
        return cv;
    }
    if state.comm_size[cv as usize] == 1 && state.comm_size[best_c as usize] == 1 && best_c > cv {
        return cv;
    }
    best_c
}

/// Charges the cost of touching association-list entry `i`: registers while
/// it fits in the warp, local-memory (global-backed) spill beyond that.
#[inline]
fn charge_entry(tally: &mut MemTally, i: usize) {
    if i < REGISTER_ENTRIES {
        tally.load(Space::Register, 2);
    } else {
        tally.load(Space::Global, 1);
        tally.store(Space::Global, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{decide, KernelKind};
    use gala_graph::generators::fixtures;

    #[test]
    fn matches_cpu_on_small_degrees() {
        let g = fixtures::ring_of_cliques(6, 5); // max degree 6
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let a = decide(KernelKind::Cpu, &g, &s, &active);
        let b = decide(KernelKind::Shuffle, &g, &s, &active);
        assert_eq!(a.next_comm, b.next_comm);
    }

    #[test]
    fn matches_cpu_on_degrees_above_warp_size() {
        // Cliques of 40: degree 39 forces multi-chunk processing.
        let g = fixtures::two_cliques(40);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let a = decide(KernelKind::Cpu, &g, &s, &active);
        let b = decide(KernelKind::Shuffle, &g, &s, &active);
        assert_eq!(a.next_comm, b.next_comm);
    }

    #[test]
    fn uses_registers_not_global_for_aggregation() {
        let g = fixtures::two_cliques(8);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let out = decide(KernelKind::Shuffle, &g, &s, &active);
        // Only per-neighbor input loads and per-community D_V loads hit
        // global memory; no atomics anywhere.
        assert_eq!(out.tally.global_atomics, 0);
        assert_eq!(out.tally.shared_atomics, 0);
        assert!(out.tally.warp_primitives > 0);
        assert!(out.tally.register_ops > 0);
    }

    #[test]
    fn star_center_joins_a_leaf() {
        let g = fixtures::star(5);
        let s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let out = decide(KernelKind::Shuffle, &g, &s, &active);
        // Center 0 sees only larger singleton ids: guard keeps it put;
        // leaves all want community 0.
        assert_eq!(out.next_comm[0], 0);
        for leaf in 1..6 {
            assert_eq!(out.next_comm[leaf], 0);
        }
    }
}
