//! Partitioned multi-device phase-2 contraction with simulated collectives.
//!
//! The multi-device phase-1 model ([`crate::multi_gpu`]) splits *fine*
//! vertices into contiguous arc-balanced ranges; this module applies the
//! same treatment to the contraction between rounds when
//! [`LouvainConfig::contract`] asks for it. Coarse rows (one per
//! community) are split into contiguous per-device ranges balanced by
//! member-arc counts, and each device:
//!
//! 1. shares the host grouping from
//!    [`gala_graph::coarsen::renumber_and_group`] (functionally exact, as
//!    everywhere in the simulation — only *cost* is modelled);
//! 2. receives the cross-partition community rows it owns — member
//!    vertices living in another device's fine partition — through the
//!    [`gala_gpu::comm`] AllToAll collective, with the same dense/sparse
//!    byte accounting the phase-1 sync model uses;
//! 3. aggregates its owned rows through [`crate::backend::ExecutionBackend
//!    ::contract_rows`] — the charged simulated contract kernel on the sim
//!    backend, the pooled counting-sort pass with real `elapsed_ns` on the
//!    native backend;
//! 4. keeps its finished CSR slice resident and repartitions it for the
//!    next round: only rows whose owner changes between the row ranges and
//!    the next round's arc-balanced fine partition travel, through a
//!    second AllToAll.
//!
//! Every row is aggregated whole, on exactly one device, in the canonical
//! order (members ascending × CSR neighbor order) — so the assembled coarse
//! graph is bit-for-bit identical to the host [`coarsen_into`] path at
//! every device count and pool width. What changes with the device count is
//! the modelled cost: per-device compute is the max over devices, and the
//! exchange/repartition time follows the α–β collective formulas.

use crate::backend::ExecutionBackend;
use crate::louvain::LouvainConfig;
use crate::multi_gpu::{partition_by_arcs, SyncMode, CYCLES_PER_US};
use crate::observe::Obs;
use gala_gpu::comm::DeviceGroup;
use gala_gpu::memory::{CostModel, MemTally};
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{
    coarsen_into, ids_too_sparse, renumber_and_group, CoarsenScratch, Coarsened,
};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition};

/// Wire bytes per cross-partition member header in a sparse exchange:
/// vertex id (4) + owning coarse row (4).
pub const EXCHANGE_BYTES_PER_MEMBER: u64 = 8;
/// Wire bytes per cross-partition member arc in a sparse exchange:
/// neighbor id (4) + edge weight (8).
pub const EXCHANGE_BYTES_PER_ARC: u64 = 12;
/// Wire bytes per fine arc when a device instead replicates the full graph
/// (dense exchange): neighbor id (4) + edge weight (8).
pub const DENSE_EXCHANGE_BYTES_PER_ARC: u64 = 12;
/// Wire bytes per vertex (its dense community id) in a dense exchange.
pub const DENSE_EXCHANGE_BYTES_PER_VERTEX: u64 = 4;
/// Wire bytes per coarse-row header in the assembly repartition: row id
/// (4) + degree (4).
pub const REPARTITION_BYTES_PER_ROW: u64 = 8;

/// Modelled record of one round's partitioned contraction.
#[derive(Clone, Debug, Default)]
pub struct ContractRoundStats {
    /// Devices the contraction ran on.
    pub devices: usize,
    /// Coarse rows (= communities `k`) built this round.
    pub rows: u64,
    /// Cross-partition members: community members owned by a different
    /// device than their community's row.
    pub ghost_members: u64,
    /// Arcs incident to those cross-partition members.
    pub ghost_arcs: u64,
    /// Exchange strategy actually used: `"exchange-sparse"`,
    /// `"exchange-dense"`, or `"host"` for the sparse-id fallback round
    /// (no device model applies there).
    pub mode: &'static str,
    /// Modelled aggregation compute: max over devices of its kernel cycles
    /// over the configured clock (0 on the native backend, which records
    /// real `elapsed_ns` instead).
    pub compute_us: f64,
    /// Bytes the chosen exchange strategy put on the wire.
    pub exchange_bytes: u64,
    /// Modelled time of the chosen exchange collective.
    pub exchange_us: f64,
    /// What a sparse (AllToAll ghost-row) exchange would have cost.
    pub sparse_bytes: u64,
    /// What a dense (full-replication AllGather) exchange would have cost.
    pub dense_bytes: u64,
    /// Bytes of the assembly repartition AllToAll: coarse rows moving to
    /// their next-round owner (8-byte row header + 12 per coarse arc).
    pub assemble_bytes: u64,
    /// Modelled time of the assembly repartition.
    pub assemble_us: f64,
    /// Max over devices of the native backend's real aggregation time
    /// (0 on the sim backend).
    pub elapsed_ns: u64,
    /// Per-device simulated tallies of the aggregation kernel.
    pub device_tallies: Vec<MemTally>,
}

impl ContractRoundStats {
    /// The record of a round contracted on the host in one piece: no
    /// device model applies.
    pub(crate) fn host(devices: usize, rows: usize) -> Self {
        Self {
            devices,
            rows: rows as u64,
            mode: "host",
            ..Self::default()
        }
    }

    /// Total modelled collective time (exchange + assembly), µs.
    pub fn comm_us(&self) -> f64 {
        self.exchange_us + self.assemble_us
    }

    /// Total modelled device time for the round's contraction, µs.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.comm_us()
    }
}

/// Splits coarse rows `0..k` into `p` contiguous ranges of roughly equal
/// *member-arc* counts — the aggregation pass's work metric — mirroring
/// [`partition_by_arcs`] one level up the hierarchy. Requires the grouping
/// prepared by [`renumber_and_group`] in `scratch`.
pub fn partition_rows_by_arcs(
    graph: &Graph,
    scratch: &CoarsenScratch,
    k: usize,
    p: usize,
) -> Vec<std::ops::Range<usize>> {
    assert!(p >= 1);
    let vo = scratch.community_offsets();
    let members = scratch.community_members();
    let total_arcs = graph.num_arcs().max(1);
    let per_device = total_arcs.div_ceil(p);
    let mut ranges = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc = 0usize;
    for r in 0..k {
        acc += members[vo[r]..vo[r + 1]]
            .iter()
            .map(|&v| graph.degree(v))
            .sum::<usize>();
        if acc >= per_device && ranges.len() < p - 1 {
            ranges.push(start..r + 1);
            start = r + 1;
            acc = 0;
        }
    }
    ranges.push(start..k);
    while ranges.len() < p {
        ranges.push(k..k); // idle devices when k < p
    }
    ranges
}

/// Runs one round's contraction partitioned over `cfg.devices`
/// simulated devices (see the module docs for the model). Returns the
/// coarse graph — bit-identical to [`coarsen_into`] — plus the round's
/// modelled cost record. Spans land on `prof` under `aggregate` (per-device
/// kernel tallies) and `exchange` (byte accounting) scopes.
///
/// Partitions whose ids fail the dense-histogram bound take the host
/// [`coarsen_into`] fallback in one piece (mode `"host"`, no exchange):
/// such ids never occur inside the hierarchy, so there is no device model
/// worth charging for them.
pub fn contract_partitioned(
    graph: &Graph,
    partition: &Partition,
    cfg: &LouvainConfig,
    backend: &dyn ExecutionBackend,
    prof: &mut Profiler,
    scratch: &mut CoarsenScratch,
) -> (Coarsened, ContractRoundStats) {
    let mut obs = Obs::off().driver("mg-contract");
    contract_partitioned_with(graph, partition, cfg, backend, prof, scratch, &mut obs)
}

/// [`contract_partitioned`] inside an observed run: each device's
/// aggregation beats the watchdog and reports the coarse arcs built so far
/// to the live recorder through `obs`.
pub(crate) fn contract_partitioned_with(
    graph: &Graph,
    partition: &Partition,
    cfg: &LouvainConfig,
    backend: &dyn ExecutionBackend,
    prof: &mut Profiler,
    scratch: &mut CoarsenScratch,
    obs: &mut Obs,
) -> (Coarsened, ContractRoundStats) {
    let p = cfg.devices;
    let n = graph.num_vertices();
    if ids_too_sparse(n, partition.assignment()) {
        let coarse = coarsen_into(graph, partition, scratch);
        let stats = ContractRoundStats::host(p, coarse.num_communities);
        return (coarse, stats);
    }
    let group = DeviceGroup::new(p);
    let k = renumber_and_group(graph, partition, scratch);
    let fine_ranges = partition_by_arcs(graph, p);
    let row_ranges = partition_rows_by_arcs(graph, scratch, k, p);

    // Fine-vertex ownership for the ghost accounting below.
    let mut owner = vec![0u32; n];
    for (d, r) in fine_ranges.iter().enumerate() {
        for v in r.clone() {
            owner[v as usize] = d as u32;
        }
    }

    // Cross-partition rows: members whose fine vertex lives on another
    // device than their community's row owner must ship their adjacency to
    // it. The `(vertex, row)` headers are routed functionally through the
    // AllToAll collective; the member adjacencies are costed per arc.
    let vo = scratch.community_offsets();
    let members = scratch.community_members();
    let mut sends: Vec<Vec<Vec<(u32, u32)>>> = vec![vec![Vec::new(); p]; p];
    let mut ghost_arcs = 0u64;
    for (d, rows) in row_ranges.iter().enumerate() {
        for r in rows.clone() {
            for &v in &members[vo[r]..vo[r + 1]] {
                let s = owner[v as usize] as usize;
                if s != d {
                    sends[s][d].push((v, r as u32));
                    ghost_arcs += graph.degree(v) as u64;
                }
            }
        }
    }
    let (received, header_ev) = group.all_to_all(&sends, EXCHANGE_BYTES_PER_MEMBER as usize);
    let ghost_members = header_ev.payload_bytes / EXCHANGE_BYTES_PER_MEMBER;
    debug_assert!(
        received.iter().enumerate().all(|(d, headers)| headers
            .iter()
            .all(|&(_, r)| row_ranges[d].contains(&(r as usize)))),
        "exchanged ghost rows must land on their owning device"
    );

    // Dense vs sparse selection, mirroring the phase-1 sync model: sparse
    // ships only the ghost rows through the AllToAll; dense replicates the
    // full fine graph (arcs + community ids) through an AllGather so every
    // device could aggregate unaided.
    let sparse_bytes =
        ghost_members * EXCHANGE_BYTES_PER_MEMBER + ghost_arcs * EXCHANGE_BYTES_PER_ARC;
    let dense_bytes = graph.num_arcs() as u64 * DENSE_EXCHANGE_BYTES_PER_ARC
        + n as u64 * DENSE_EXCHANGE_BYTES_PER_VERTEX;
    let sparse_us = group.all_to_all_time_us(sparse_bytes);
    let dense_us = group.all_gather_time_us(dense_bytes);
    let (mode, exchange_bytes, exchange_us) = match cfg.sync {
        SyncMode::Dense => ("exchange-dense", dense_bytes, dense_us),
        SyncMode::Sparse => ("exchange-sparse", sparse_bytes, sparse_us),
        SyncMode::Adaptive => {
            if sparse_us <= dense_us {
                ("exchange-sparse", sparse_bytes, sparse_us)
            } else {
                ("exchange-dense", dense_bytes, dense_us)
            }
        }
    };

    // Per-device aggregation of the owned row ranges. Devices run
    // concurrently in the model, so compute is the max over devices.
    let cost = CostModel::default();
    let mut per_device_deg: Vec<Vec<u64>> = Vec::with_capacity(p);
    let mut per_device_pairs: Vec<Vec<(CommunityId, f64)>> = Vec::with_capacity(p);
    let mut device_tallies = Vec::with_capacity(p);
    let mut compute_us = 0.0f64;
    let mut elapsed_ns = 0u64;
    // Live observation only (no trace event comes from this layer):
    // heartbeats keep the watchdog fed through a long aggregation,
    // bounded-frequency snapshots report coarse arcs built so far.
    let mut coarse_arcs = 0u64;
    prof.scope("aggregate", |pr| {
        for (d, rows) in row_ranges.iter().enumerate() {
            let mut deg = Vec::new();
            let mut pairs = Vec::new();
            let st = backend.contract_rows(
                graph,
                cfg.kernel,
                scratch,
                rows.clone(),
                &mut deg,
                &mut pairs,
            );
            pr.record(&st.tally);
            compute_us = compute_us.max(cost.cycles(&st.tally) / CYCLES_PER_US);
            elapsed_ns = elapsed_ns.max(st.elapsed_ns);
            device_tallies.push(st.tally);
            coarse_arcs += pairs.len() as u64;
            obs.heartbeat("aggregate", d as u32, coarse_arcs);
            per_device_deg.push(deg);
            per_device_pairs.push(pairs);
        }
        pr.count("rows", k as u64);
        pr.count("devices", p as u64);
        pr.count("elapsed_ns", elapsed_ns);
    });

    // Each device's finished slice stays resident for the next round — a
    // real distributed hierarchy never replicates the coarse CSR. What the
    // next round needs is the rows re-dealt into the arc-balanced fine
    // ranges the next round's phase 1 splits over ([`partition_by_arcs`]), so
    // assembly is a *repartition* AllToAll: only rows whose owner changes
    // between the row-range partition (balanced by member arcs) and the
    // next round's fine partition (balanced by coarse arcs) travel, as an
    // 8-byte `(row, degree)` header plus 12 wire bytes per coarse arc; the
    // `p` per-device arc totals that locate the split points ride in the
    // header round. Functionally the slices concatenate in ascending
    // device (= row) order — the concatenation *is* the host CSR body.
    let (all_deg, _) = group.all_gather(&per_device_deg, std::mem::size_of::<u64>());
    let (all_pairs, _) = group.all_gather(&per_device_pairs, EXCHANGE_BYTES_PER_ARC as usize);

    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0usize);
    let mut run = 0usize;
    for &d in &all_deg {
        run += d as usize;
        offsets.push(run);
    }
    debug_assert_eq!(run, all_pairs.len());
    let mut targets = Vec::with_capacity(run);
    let mut weights = Vec::with_capacity(run);
    for (c, w) in all_pairs {
        targets.push(c);
        weights.push(w);
    }
    let coarse_graph = Graph::from_csr(offsets, targets, weights);

    let mut moved_rows = 0u64;
    let mut moved_arcs = 0u64;
    for (d, rows) in partition_by_arcs(&coarse_graph, p).iter().enumerate() {
        for r in rows.clone() {
            if !row_ranges[d].contains(&(r as usize)) {
                moved_rows += 1;
                moved_arcs += all_deg[r as usize];
            }
        }
    }
    let assemble_bytes =
        moved_rows * REPARTITION_BYTES_PER_ROW + moved_arcs * EXCHANGE_BYTES_PER_ARC;
    let assemble_us = group.all_to_all_time_us(assemble_bytes);
    prof.scope("exchange", |pr| {
        pr.count("bytes", exchange_bytes);
        pr.count("ghost_members", ghost_members);
        pr.count("ghost_arcs", ghost_arcs);
        pr.count("sparse_bytes", sparse_bytes);
        pr.count("dense_bytes", dense_bytes);
        pr.count("assemble_bytes", assemble_bytes);
        pr.count(
            if mode == "exchange-dense" {
                "dense_exchanges"
            } else {
                "sparse_exchanges"
            },
            1,
        );
    });

    let coarse = Coarsened {
        graph: coarse_graph,
        renumbered: Partition::from_assignment(scratch.take_renumbered()),
        num_communities: k,
    };
    let stats = ContractRoundStats {
        devices: p,
        rows: k as u64,
        ghost_members,
        ghost_arcs,
        mode,
        compute_us,
        exchange_bytes,
        exchange_us,
        sparse_bytes,
        dense_bytes,
        assemble_bytes,
        assemble_us,
        elapsed_ns,
        device_tallies,
    };
    (coarse, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use gala_graph::generators::fixtures;

    fn grouped(n: usize, size: u32) -> Partition {
        Partition::from_assignment((0..n as CommunityId).map(|v| v / size).collect())
    }

    fn assert_bit_identical(a: &Coarsened, b: &Coarsened) {
        assert_eq!(a.num_communities, b.num_communities);
        assert_eq!(a.renumbered, b.renumbered);
        assert_eq!(a.graph.offsets(), b.graph.offsets());
        assert_eq!(a.graph.targets(), b.graph.targets());
        let aw: Vec<u64> = a.graph.arc_weights().map(f64::to_bits).collect();
        let bw: Vec<u64> = b.graph.arc_weights().map(f64::to_bits).collect();
        assert_eq!(aw, bw);
    }

    #[test]
    fn row_ranges_cover_all_rows() {
        let g = fixtures::ring_of_cliques(9, 5);
        let p = grouped(g.num_vertices(), 5);
        let mut scratch = CoarsenScratch::default();
        let k = renumber_and_group(&g, &p, &mut scratch);
        for devices in [1, 2, 3, 8, 64] {
            let ranges = partition_rows_by_arcs(&g, &scratch, k, devices);
            assert_eq!(ranges.len(), devices);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, k);
        }
    }

    #[test]
    fn partitioned_matches_host_across_devices_and_backends() {
        let g = fixtures::ring_of_cliques(10, 6);
        let p = grouped(g.num_vertices(), 4);
        let host = coarsen_into(&g, &p, &mut CoarsenScratch::default());
        for devices in [1, 2, 4, 8] {
            for backend in [BackendKind::Sim, BackendKind::Native] {
                let cfg = LouvainConfig {
                    devices,
                    backend,
                    ..LouvainConfig::default()
                };
                let (coarse, stats) = contract_partitioned(
                    &g,
                    &p,
                    &cfg,
                    backend.resolve(),
                    &mut Profiler::disabled(),
                    &mut CoarsenScratch::default(),
                );
                assert_bit_identical(&coarse, &host);
                assert_eq!(stats.devices, devices);
                assert_eq!(stats.rows, host.num_communities as u64);
                assert_eq!(
                    stats.sparse_bytes,
                    stats.ghost_members * EXCHANGE_BYTES_PER_MEMBER
                        + stats.ghost_arcs * EXCHANGE_BYTES_PER_ARC
                );
                if devices == 1 {
                    assert_eq!(stats.ghost_members, 0);
                    assert_eq!(stats.comm_us(), 0.0);
                } else {
                    assert!(stats.exchange_us > 0.0 || stats.exchange_bytes == 0);
                    assert!(stats.assemble_us > 0.0);
                }
                if backend == BackendKind::Sim {
                    assert!(stats.compute_us > 0.0);
                    assert_eq!(stats.elapsed_ns, 0);
                } else {
                    assert_eq!(stats.compute_us, 0.0);
                }
            }
        }
    }

    #[test]
    fn sparse_id_fallback_takes_host_path() {
        let g = fixtures::two_cliques(5);
        let assignment: Vec<CommunityId> = (0..g.num_vertices())
            .map(|v| if v < 5 { 1_000_000 } else { 2_000_000 })
            .collect();
        let p = Partition::from_assignment(assignment);
        let cfg = LouvainConfig {
            devices: 4,
            ..LouvainConfig::default()
        };
        let (coarse, stats) = contract_partitioned(
            &g,
            &p,
            &cfg,
            cfg.backend.resolve(),
            &mut Profiler::disabled(),
            &mut CoarsenScratch::default(),
        );
        assert_eq!(stats.mode, "host");
        assert_eq!(stats.exchange_bytes, 0);
        assert_eq!(coarse.num_communities, 2);
    }

    #[test]
    fn empty_graph_contracts_cleanly() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        let p = Partition::from_assignment(vec![]);
        let cfg = LouvainConfig {
            devices: 4,
            ..LouvainConfig::default()
        };
        let (coarse, stats) = contract_partitioned(
            &g,
            &p,
            &cfg,
            cfg.backend.resolve(),
            &mut Profiler::disabled(),
            &mut CoarsenScratch::default(),
        );
        assert_eq!(coarse.num_communities, 0);
        assert_eq!(stats.ghost_members, 0);
    }

    #[test]
    fn exchange_strategy_follows_sync_mode() {
        let g = fixtures::ring_of_cliques(10, 6);
        let p = grouped(g.num_vertices(), 4);
        for (sync, expect) in [
            (SyncMode::Dense, "exchange-dense"),
            (SyncMode::Sparse, "exchange-sparse"),
        ] {
            let cfg = LouvainConfig {
                devices: 4,
                sync,
                ..LouvainConfig::default()
            };
            let (_, stats) = contract_partitioned(
                &g,
                &p,
                &cfg,
                cfg.backend.resolve(),
                &mut Profiler::disabled(),
                &mut CoarsenScratch::default(),
            );
            assert_eq!(stats.mode, expect);
        }
        // Adaptive picks whichever of the two is cheaper.
        let cfg = LouvainConfig {
            devices: 4,
            sync: SyncMode::Adaptive,
            ..LouvainConfig::default()
        };
        let (_, stats) = contract_partitioned(
            &g,
            &p,
            &cfg,
            cfg.backend.resolve(),
            &mut Profiler::disabled(),
            &mut CoarsenScratch::default(),
        );
        let chosen = stats.exchange_us;
        let group = DeviceGroup::new(4);
        let alt = group
            .all_to_all_time_us(stats.sparse_bytes)
            .min(group.all_gather_time_us(stats.dense_bytes));
        assert!((chosen - alt).abs() < 1e-12);
    }

    #[test]
    fn profiler_scopes_carry_exchange_accounting() {
        let g = fixtures::ring_of_cliques(10, 6);
        let p = grouped(g.num_vertices(), 4);
        let cfg = LouvainConfig {
            devices: 4,
            ..LouvainConfig::default()
        };
        let mut prof = Profiler::new();
        let (_, stats) = contract_partitioned(
            &g,
            &p,
            &cfg,
            cfg.backend.resolve(),
            &mut prof,
            &mut CoarsenScratch::default(),
        );
        let tree = prof.finish();
        let agg = tree.child("aggregate").expect("aggregate span");
        assert_eq!(agg.counter("devices"), 4);
        assert_eq!(agg.counter("rows"), stats.rows);
        let ex = tree.child("exchange").expect("exchange span");
        assert_eq!(ex.counter("bytes"), stats.exchange_bytes);
        assert_eq!(ex.counter("ghost_members"), stats.ghost_members);
        assert_eq!(ex.counter("ghost_arcs"), stats.ghost_arcs);
        assert_eq!(
            ex.counter("sparse_bytes"),
            stats.ghost_members * EXCHANGE_BYTES_PER_MEMBER
                + stats.ghost_arcs * EXCHANGE_BYTES_PER_ARC
        );
        assert_eq!(
            ex.counter("dense_exchanges") + ex.counter("sparse_exchanges"),
            1
        );
    }
}
