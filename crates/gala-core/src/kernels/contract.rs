//! Device-side phase-2 contraction kernel.
//!
//! One simulated block per super-vertex: the block's warps stride over the
//! concatenated CSR rows of the community's members, upserting
//! `(C[u], w(v, u))` into a per-block hierarchical [`VertexTable`] — the
//! same structure the phase-1 hash kernel uses — and the sorted drain
//! becomes the super-vertex's coarse adjacency row. Coarse CSR offsets come
//! from a charged device prefix sum ([`gala_gpu::scan`]), so the `contract`
//! span carries real [`MemTally`] / table-occupancy counters instead of
//! being a host-only black box.
//!
//! The grouping (renumber + counting sort) is shared with the host path via
//! [`renumber_and_group`], and every row accumulates its weights in the
//! same fixed order (members ascending × CSR neighbor order) as
//! [`gala_graph::coarsen::coarsen_into`], so both paths produce bit-for-bit
//! identical coarse graphs — the property that keeps traced and untraced
//! runs equal.

use super::hashtable::{HashConfig, TableStats, VertexTable};
use gala_gpu::block::SharedMem;
use gala_gpu::grid;
use gala_gpu::memory::{MemTally, Space};
use gala_gpu::scan;
use gala_gpu::warp::WARP_SIZE;
use gala_graph::coarsen::{renumber_and_group, CoarsenScratch, Coarsened};
use gala_graph::partition::{CommunityId, Partition};
use gala_graph::{Graph, VertexId};

/// Result of a device-side contraction: the coarse graph plus the simulated
/// cost of producing it.
pub struct ContractOutput {
    /// The coarse graph, bit-identical to the host `coarsen_into` result.
    pub coarse: Coarsened,
    /// Summed simulated memory tally (aggregation kernel + offset scan).
    pub tally: MemTally,
    /// Summed per-block hashtable placement statistics.
    pub table_stats: TableStats,
    /// Fine arcs aggregated (each stored arc visited exactly once).
    pub arcs: u64,
}

/// Output of aggregating one device's contiguous coarse-row range through
/// the simulated contraction kernel (see [`contract_rows`]).
pub struct ContractRowsOutput {
    /// Each row's sorted `(community, weight)` pairs, concatenated in
    /// ascending row order — a contiguous slice of the coarse CSR body.
    pub pairs: Vec<(CommunityId, f64)>,
    /// Per-row distinct-neighbor counts, index-aligned with the range.
    pub row_lens: Vec<u64>,
    /// Summed simulated memory tally of the range's blocks.
    pub tally: MemTally,
    /// Summed per-block hashtable placement statistics.
    pub table_stats: TableStats,
}

/// Aggregates the contiguous coarse-row range `rows` of a grouping prepared
/// by [`renumber_and_group`]: one simulated block per row, exactly the
/// per-row work of [`contract`], so a single device covering `0..k` charges
/// the same tally and emits the same pairs as the full launch. This is one
/// device's aggregation slice in the partitioned multi-device contraction.
pub fn contract_rows(
    graph: &Graph,
    rows: std::ops::Range<usize>,
    cfg: HashConfig,
    scratch: &CoarsenScratch,
) -> ContractRowsOutput {
    let renum = scratch.renumbered();
    let vo = scratch.community_offsets();
    let members = scratch.community_members();
    let row_ids: Vec<CommunityId> = (rows.start as CommunityId..rows.end as CommunityId).collect();
    let launched = grid::launch(&row_ids, |&r, tally| {
        contract_one(r, graph, renum, vo, members, cfg, tally)
    });
    let mut table_stats = TableStats::default();
    let mut row_lens = Vec::with_capacity(row_ids.len());
    let mut total = 0usize;
    for (pairs, stats) in &launched.outputs {
        table_stats += *stats;
        row_lens.push(pairs.len() as u64);
        total += pairs.len();
    }
    let mut pairs = Vec::with_capacity(total);
    for (row_pairs, _) in &launched.outputs {
        pairs.extend_from_slice(row_pairs);
    }
    ContractRowsOutput {
        pairs,
        row_lens,
        tally: launched.tally,
        table_stats,
    }
}

/// Runs the contraction kernel: groups vertices by community on the host
/// (shared with the host path), then launches one simulated block per
/// super-vertex to aggregate its neighbor communities, and a device prefix
/// sum to lay out the coarse CSR.
pub fn contract(
    graph: &Graph,
    partition: &Partition,
    cfg: HashConfig,
    scratch: &mut CoarsenScratch,
) -> ContractOutput {
    let k = renumber_and_group(graph, partition, scratch);
    let mut out = contract_rows(graph, 0..k, cfg, scratch);
    // Coarse CSR layout: a device exclusive scan over the per-row degrees.
    let (prefixes, total) = scan::exclusive_scan(&out.row_lens, Space::Global, &mut out.tally);
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.extend(prefixes.iter().map(|&p| p as usize));
    offsets.push(total as usize);
    let mut targets: Vec<VertexId> = Vec::with_capacity(total as usize);
    let mut weights: Vec<f64> = Vec::with_capacity(total as usize);
    for &(c, w) in &out.pairs {
        targets.push(c);
        weights.push(w);
    }
    let tally = out.tally;
    let table_stats = out.table_stats;
    let coarse = Coarsened {
        graph: Graph::from_csr(offsets, targets, weights),
        renumbered: Partition::from_assignment(scratch.take_renumbered()),
        num_communities: k,
    };
    ContractOutput {
        coarse,
        tally,
        table_stats,
        arcs: graph.num_arcs() as u64,
    }
}

/// One block's work: aggregate super-vertex `r`'s neighbor communities.
fn contract_one(
    r: CommunityId,
    graph: &Graph,
    renum: &[CommunityId],
    vo: &[usize],
    members: &[VertexId],
    cfg: HashConfig,
    tally: &mut MemTally,
) -> (Vec<(CommunityId, f64)>, TableStats) {
    let mut shared = SharedMem::default_budget();
    let run = &members[vo[r as usize]..vo[r as usize + 1]];
    // The member list itself streams from global memory, one coalesced
    // warp-wide request per 32 members.
    let member_base = vo[r as usize] as u64;
    for chunk_start in (0..run.len()).step_by(WARP_SIZE) {
        let chunk_end = (chunk_start + WARP_SIZE).min(run.len());
        let mut offs = [0u64; WARP_SIZE];
        for (lane, i) in (chunk_start..chunk_end).enumerate() {
            offs[lane] = member_base + i as u64;
        }
        let n = chunk_end - chunk_start;
        tally.global_request(&offs[..n], 4);
        tally.load(Space::Global, n as u64);
    }
    let arcs: usize = run.iter().map(|&v| graph.degree(v)).sum();
    let mut table = VertexTable::new(cfg, arcs.max(1), &mut shared);
    for &v in run.iter() {
        let ids = graph.neighbor_ids(v);
        let weights = graph.neighbor_weights(v);
        let edge_base = graph.offsets()[v as usize] as u64;
        // Warps stride the member's adjacency 32 lanes at a time: ids and
        // weights stream from the contiguous CSR arrays, the dense
        // community id is a gather scattered by neighbor id.
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
            tally.global_request(&comm_offs[..n], 4); // dense C[u] gather
            for i in chunk_start..chunk_end {
                tally.load(Space::Global, 3);
                // Unlike DecideAndMove, self/internal arcs are NOT skipped:
                // they accumulate into the super self-loop.
                table.upsert_add(renum[ids[i] as usize], weights[i], tally);
            }
        }
    }
    let mut pairs = table.drain(tally);
    // Block-level bitonic-style sort of the drained row (registers) before
    // the coalesced write-back of the coarse adjacency segment.
    pairs.sort_unstable_by_key(|&(c, _)| c);
    tally.load(Space::Register, 2 * pairs.len() as u64);
    let out_offs: Vec<u64> = (0..pairs.len() as u64).collect();
    tally.global_request(&out_offs, 4); // coarse targets write
    tally.global_request(&out_offs, 8); // coarse weights write
    tally.store(Space::Global, 2 * pairs.len() as u64);
    (pairs, table.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::coarsen::coarsen_into;
    use gala_graph::generators::fixtures;

    fn grouped_partition(n: usize, size: u32) -> Partition {
        Partition::from_assignment((0..n as CommunityId).map(|v| v / size).collect())
    }

    #[test]
    fn device_contract_matches_host_bitwise() {
        let g = fixtures::ring_of_cliques(6, 5);
        let p = grouped_partition(g.num_vertices(), 5);
        let mut host_scratch = CoarsenScratch::default();
        let host = coarsen_into(&g, &p, &mut host_scratch);
        let mut dev_scratch = CoarsenScratch::default();
        let dev = contract(&g, &p, HashConfig::default(), &mut dev_scratch);
        assert_eq!(dev.coarse.num_communities, host.num_communities);
        assert_eq!(dev.coarse.renumbered, host.renumbered);
        assert_eq!(dev.coarse.graph.offsets(), host.graph.offsets());
        assert_eq!(dev.coarse.graph.targets(), host.graph.targets());
        // Bit-for-bit weight equality: same per-key accumulation order.
        let dw: Vec<u64> = dev.coarse.graph.arc_weights().map(f64::to_bits).collect();
        let hw: Vec<u64> = host.graph.arc_weights().map(f64::to_bits).collect();
        assert_eq!(dw, hw);
    }

    #[test]
    fn device_contract_charges_real_costs() {
        let g = fixtures::ring_of_cliques(4, 6);
        let p = grouped_partition(g.num_vertices(), 6);
        let mut scratch = CoarsenScratch::default();
        let out = contract(&g, &p, HashConfig::default(), &mut scratch);
        assert!(out.tally.global_loads > 0, "no global loads charged");
        assert!(out.tally.warp_primitives > 0, "offset scan never ran");
        assert!(out.tally.simt_steps > 0, "no SIMT steps charged");
        assert_eq!(out.arcs, g.num_arcs() as u64);
        let stats = out.table_stats;
        assert!(stats.shared_keys + stats.global_keys > 0, "table unused");
    }

    #[test]
    fn contract_rows_splits_match_full_launch_and_tally() {
        let g = fixtures::ring_of_cliques(8, 4);
        let p = grouped_partition(g.num_vertices(), 4);
        let mut scratch = CoarsenScratch::default();
        let k = renumber_and_group(&g, &p, &mut scratch);
        let full = contract_rows(&g, 0..k, HashConfig::default(), &scratch);
        for splits in [vec![0, k / 2, k], vec![0, 1, k - 1, k, k]] {
            let mut pairs = Vec::new();
            let mut row_lens = Vec::new();
            let mut tally = MemTally::new();
            for w in splits.windows(2) {
                let out = contract_rows(&g, w[0]..w[1], HashConfig::default(), &scratch);
                pairs.extend_from_slice(&out.pairs);
                row_lens.extend_from_slice(&out.row_lens);
                tally += out.tally;
            }
            assert_eq!(row_lens, full.row_lens, "splits {splits:?}");
            let bits: Vec<(CommunityId, u64)> =
                pairs.iter().map(|&(c, w)| (c, w.to_bits())).collect();
            let full_bits: Vec<(CommunityId, u64)> =
                full.pairs.iter().map(|&(c, w)| (c, w.to_bits())).collect();
            assert_eq!(bits, full_bits, "splits {splits:?}");
            // Per-block charges are independent, so range tallies sum to
            // the full launch's tally exactly.
            assert_eq!(tally, full.tally, "splits {splits:?}");
        }
    }

    #[test]
    fn device_contract_empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        let p = Partition::from_assignment(vec![]);
        let mut scratch = CoarsenScratch::default();
        let out = contract(&g, &p, HashConfig::default(), &mut scratch);
        assert_eq!(out.coarse.num_communities, 0);
        assert_eq!(out.coarse.graph.num_vertices(), 0);
    }
}
