//! Memory-space access accounting and the latency cost model.
//!
//! Every simulated kernel carries a [`MemTally`] and attributes each load,
//! store, atomic, and warp primitive to a [`Space`]. Tallies are plain
//! counters (no atomics) so counting is nearly free on the host; the grid
//! launcher reduces per-task tallies into one total. A [`CostModel`] then
//! converts a tally into *simulated cycles*, which is what the experiment
//! harness reports alongside host wall-clock.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Bytes per global-memory cache-line segment used for coalescing
/// accounting, matching the 128-byte L1 line on NVIDIA parts.
pub const SEGMENT_BYTES: u64 = 128;

/// A GPU memory space, ordered fastest to slowest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Per-thread registers (the shuffle kernel's state home).
    Register,
    /// Per-block shared memory (the hierarchical hashtable's fast level).
    Shared,
    /// Device global memory (DRAM/HBM).
    Global,
}

/// Access counts per memory space plus warp-primitive and atomic counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemTally {
    /// Register accesses (reads + writes).
    pub register_ops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
    /// Atomic operations on shared memory.
    pub shared_atomics: u64,
    /// Atomic operations on global memory.
    pub global_atomics: u64,
    /// Warp-level primitive invocations (match/reduce/ballot).
    pub warp_primitives: u64,
    /// Lockstep SIMT steps executed (one per warp-wide instruction issue).
    pub simt_steps: u64,
    /// Sum of active-lane mask populations over all SIMT steps. Divergence
    /// is `1 - simt_active_lanes / (simt_steps * 32)`.
    pub simt_active_lanes: u64,
    /// Branches where both sides of a predicate had active lanes, forcing
    /// serialized execution of the divergent paths.
    pub simt_serialized: u64,
    /// Warp-wide global-memory requests submitted for coalescing analysis.
    pub coalesce_requests: u64,
    /// Distinct [`SEGMENT_BYTES`]-sized segments actually touched by those
    /// requests (memory transactions issued).
    pub coalesce_transactions: u64,
    /// Minimum transactions the same requests would need if perfectly
    /// coalesced. Efficiency is `coalesce_ideal / coalesce_transactions`.
    pub coalesce_ideal: u64,
}

impl MemTally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` loads from `space`.
    #[inline]
    pub fn load(&mut self, space: Space, n: u64) {
        match space {
            Space::Register => self.register_ops += n,
            Space::Shared => self.shared_loads += n,
            Space::Global => self.global_loads += n,
        }
    }

    /// Records `n` stores to `space`.
    #[inline]
    pub fn store(&mut self, space: Space, n: u64) {
        match space {
            Space::Register => self.register_ops += n,
            Space::Shared => self.shared_stores += n,
            Space::Global => self.global_stores += n,
        }
    }

    /// Records `n` atomic operations on `space` (registers have no atomics).
    #[inline]
    pub fn atomic(&mut self, space: Space, n: u64) {
        match space {
            Space::Register => panic!("no atomics on registers"),
            Space::Shared => self.shared_atomics += n,
            Space::Global => self.global_atomics += n,
        }
    }

    /// Records `n` warp-primitive invocations.
    #[inline]
    pub fn warp_primitive(&mut self, n: u64) {
        self.warp_primitives += n;
    }

    /// Records one lockstep SIMT step executed under `mask`: every warp-wide
    /// instruction issue counts one step plus the population of its active
    /// mask, so divergence falls out as the gap to 32 lanes per step.
    #[inline]
    pub fn simt_step(&mut self, mask: u32) {
        self.simt_steps += 1;
        self.simt_active_lanes += u64::from(mask.count_ones());
    }

    /// Records one serialized divergent branch (both sides of a warp-level
    /// predicate had active lanes, so the hardware runs them back to back).
    #[inline]
    pub fn simt_serialize(&mut self, n: u64) {
        self.simt_serialized += n;
    }

    /// Records one warp-wide global-memory request touching elements of
    /// `elem_bytes` bytes at the given element `offsets` (one per active
    /// lane). Counts the distinct [`SEGMENT_BYTES`] cache-line segments the
    /// request needs (actual transactions) against the minimum a perfectly
    /// coalesced request of the same size would need (ideal transactions).
    ///
    /// This is accounting *about* accesses counted elsewhere via
    /// [`Self::load`]/[`Self::store`]; it never changes load/store counts,
    /// so the [`CostModel`] cycle totals are unaffected.
    pub fn global_request(&mut self, offsets: &[u64], elem_bytes: u64) {
        if offsets.is_empty() {
            return;
        }
        self.coalesce_requests += 1;
        let mut segs = [0u64; 32];
        let n = offsets.len().min(32);
        for (slot, &off) in segs.iter_mut().zip(offsets.iter()) {
            *slot = off * elem_bytes / SEGMENT_BYTES;
        }
        let segs = &mut segs[..n];
        segs.sort_unstable();
        let mut distinct = 1u64;
        for i in 1..n {
            if segs[i] != segs[i - 1] {
                distinct += 1;
            }
        }
        let ideal = (n as u64 * elem_bytes)
            .div_ceil(SEGMENT_BYTES)
            .max(1)
            .min(distinct);
        self.coalesce_transactions += distinct;
        self.coalesce_ideal += ideal;
    }

    /// Branch-divergence ratio in `[0, 1]`: the fraction of lane-slots left
    /// idle across all SIMT steps. Zero when nothing was recorded.
    pub fn divergence(&self) -> f64 {
        if self.simt_steps == 0 {
            return 0.0;
        }
        let capacity = self.simt_steps * 32;
        1.0 - self.simt_active_lanes as f64 / capacity as f64
    }

    /// Coalescing efficiency in `(0, 1]`: ideal over actual transactions.
    /// One (perfect) when no requests were recorded.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.coalesce_transactions == 0 {
            return 1.0;
        }
        self.coalesce_ideal as f64 / self.coalesce_transactions as f64
    }

    /// Total accesses touching shared memory (loads + stores + atomics).
    pub fn shared_total(&self) -> u64 {
        self.shared_loads + self.shared_stores + self.shared_atomics
    }

    /// Total accesses touching global memory (loads + stores + atomics).
    pub fn global_total(&self) -> u64 {
        self.global_loads + self.global_stores + self.global_atomics
    }
}

impl Add for MemTally {
    type Output = MemTally;
    fn add(self, rhs: MemTally) -> MemTally {
        MemTally {
            register_ops: self.register_ops + rhs.register_ops,
            shared_loads: self.shared_loads + rhs.shared_loads,
            shared_stores: self.shared_stores + rhs.shared_stores,
            global_loads: self.global_loads + rhs.global_loads,
            global_stores: self.global_stores + rhs.global_stores,
            shared_atomics: self.shared_atomics + rhs.shared_atomics,
            global_atomics: self.global_atomics + rhs.global_atomics,
            warp_primitives: self.warp_primitives + rhs.warp_primitives,
            simt_steps: self.simt_steps + rhs.simt_steps,
            simt_active_lanes: self.simt_active_lanes + rhs.simt_active_lanes,
            simt_serialized: self.simt_serialized + rhs.simt_serialized,
            coalesce_requests: self.coalesce_requests + rhs.coalesce_requests,
            coalesce_transactions: self.coalesce_transactions + rhs.coalesce_transactions,
            coalesce_ideal: self.coalesce_ideal + rhs.coalesce_ideal,
        }
    }
}

impl AddAssign for MemTally {
    fn add_assign(&mut self, rhs: MemTally) {
        *self = *self + rhs;
    }
}

impl Sum for MemTally {
    fn sum<I: Iterator<Item = MemTally>>(iter: I) -> Self {
        iter.fold(MemTally::default(), |a, b| a + b)
    }
}

/// Latency model translating a [`MemTally`] into simulated cycles.
///
/// Defaults follow published A100 microbenchmarks to the right order of
/// magnitude: registers ~1 cycle, shared ~25, global ~400 (uncached),
/// atomics costlier than plain accesses, warp primitives a handful of
/// cycles. Only the *ratios* matter for the reproduced figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per register access.
    pub register: f64,
    /// Cycles per shared-memory access.
    pub shared: f64,
    /// Cycles per global-memory access.
    pub global: f64,
    /// Cycles per shared-memory atomic.
    pub shared_atomic: f64,
    /// Cycles per global-memory atomic.
    pub global_atomic: f64,
    /// Cycles per warp primitive.
    pub warp_primitive: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            register: 1.0,
            shared: 25.0,
            global: 400.0,
            shared_atomic: 40.0,
            global_atomic: 600.0,
            warp_primitive: 8.0,
        }
    }
}

impl CostModel {
    /// Simulated cycles for `tally` under this model.
    pub fn cycles(&self, tally: &MemTally) -> f64 {
        tally.register_ops as f64 * self.register
            + (tally.shared_loads + tally.shared_stores) as f64 * self.shared
            + (tally.global_loads + tally.global_stores) as f64 * self.global
            + tally.shared_atomics as f64 * self.shared_atomic
            + tally.global_atomics as f64 * self.global_atomic
            + tally.warp_primitives as f64 * self.warp_primitive
    }

    /// A measured member of the cost-model family: the default per-access
    /// weights scaled by per-component calibration factors (as fitted by
    /// the sim↔native attribution model). `calibrated(1, 1, 1, 1, 1)` is
    /// exactly [`CostModel::default`], so the flat model is one point in
    /// the family. The `global` factor applies to coalesced and uncoalesced
    /// traffic alike — the split is an attribution of the one global
    /// weight, not a second weight.
    pub fn calibrated(
        compute: f64,
        shared_mem: f64,
        global_mem: f64,
        atomics: f64,
        scan_sort: f64,
    ) -> Self {
        let base = Self::default();
        Self {
            register: base.register * compute,
            shared: base.shared * shared_mem,
            global: base.global * global_mem,
            shared_atomic: base.shared_atomic * atomics,
            global_atomic: base.global_atomic * atomics,
            warp_primitive: base.warp_primitive * scan_sort,
        }
    }

    /// Decomposes `tally` into per-component cycle charges under this
    /// model. The components partition [`CostModel::cycles`]: with the
    /// default (integer-weight) model every term is an exactly
    /// representable integer-valued `f64`, so
    /// `components(t).total() == cycles(t)` bit-for-bit.
    ///
    /// The global term is split between coalesced and uncoalesced traffic
    /// by the PR-2 coalescing counters: the fraction of excess transactions
    /// (`transactions - ideal`) over all transactions is charged as
    /// uncoalesced. The split uses integer arithmetic
    /// (`accesses * excess / transactions`, floor) so
    /// `global_coalesced + global_uncoalesced` equals the undivided global
    /// term exactly, never off by a rounding ulp.
    pub fn components(&self, tally: &MemTally) -> ComponentCharges {
        let global_accesses = tally.global_loads + tally.global_stores;
        let uncoalesced_accesses = if tally.coalesce_transactions == 0 {
            0
        } else {
            let excess = tally
                .coalesce_transactions
                .saturating_sub(tally.coalesce_ideal);
            (global_accesses as u128 * excess as u128 / tally.coalesce_transactions as u128) as u64
        };
        let coalesced_accesses = global_accesses - uncoalesced_accesses;
        ComponentCharges {
            compute: tally.register_ops as f64 * self.register,
            shared_mem: (tally.shared_loads + tally.shared_stores) as f64 * self.shared,
            global_coalesced: coalesced_accesses as f64 * self.global,
            global_uncoalesced: uncoalesced_accesses as f64 * self.global,
            atomics: tally.shared_atomics as f64 * self.shared_atomic
                + tally.global_atomics as f64 * self.global_atomic,
            scan_sort: tally.warp_primitives as f64 * self.warp_primitive,
            sync: 0.0,
        }
    }
}

/// Names of the cost components, in the order [`ComponentCharges::get`]
/// and the trace schema use.
pub const COMPONENT_NAMES: [&str; 7] = [
    "compute",
    "shared_mem",
    "global_coalesced",
    "global_uncoalesced",
    "atomics",
    "scan_sort",
    "sync",
];

/// A span's cycles (or wall nanoseconds, on the native backend) broken
/// down by cost component. Produced by [`CostModel::components`] for
/// simulated tallies; native spans charge their entire `elapsed_ns` to
/// `compute` (or `sync` for synchronisation spans) since wall time is
/// undifferentiated.
///
/// Charges are derived, never stored: span merging adds tallies and
/// re-derives, so the decomposition can't drift from the cycle totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComponentCharges {
    /// Register traffic — the arithmetic/bookkeeping proxy.
    pub compute: f64,
    /// Shared-memory loads and stores.
    pub shared_mem: f64,
    /// Global-memory accesses served by ideally-needed transactions.
    pub global_coalesced: f64,
    /// Global-memory accesses attributed to excess (uncoalesced)
    /// transactions.
    pub global_uncoalesced: f64,
    /// Shared and global atomics.
    pub atomics: f64,
    /// Warp-primitive invocations (the match/reduce/scan/sort machinery).
    pub scan_sort: f64,
    /// Synchronisation/communication time (native sync spans only; always
    /// zero for simulated tallies).
    pub sync: f64,
}

impl ComponentCharges {
    /// Sum of all components. Exact (order-independent) whenever every
    /// charge is an integer-valued `f64`, which the default cost model
    /// guarantees.
    pub fn total(&self) -> f64 {
        self.compute
            + self.shared_mem
            + self.global_coalesced
            + self.global_uncoalesced
            + self.atomics
            + self.scan_sort
            + self.sync
    }

    /// The memory-side charge: everything that isn't compute or sync.
    pub fn memory(&self) -> f64 {
        self.shared_mem
            + self.global_coalesced
            + self.global_uncoalesced
            + self.atomics
            + self.scan_sort
    }

    /// Charge by component name (see [`COMPONENT_NAMES`]).
    pub fn get(&self, name: &str) -> Option<f64> {
        Some(match name {
            "compute" => self.compute,
            "shared_mem" => self.shared_mem,
            "global_coalesced" => self.global_coalesced,
            "global_uncoalesced" => self.global_uncoalesced,
            "atomics" => self.atomics,
            "scan_sort" => self.scan_sort,
            "sync" => self.sync,
            _ => return None,
        })
    }

    /// Sets the charge for a component name (see [`COMPONENT_NAMES`]).
    /// Returns false for unknown names.
    pub fn set(&mut self, name: &str, value: f64) -> bool {
        match name {
            "compute" => self.compute = value,
            "shared_mem" => self.shared_mem = value,
            "global_coalesced" => self.global_coalesced = value,
            "global_uncoalesced" => self.global_uncoalesced = value,
            "atomics" => self.atomics = value,
            "scan_sort" => self.scan_sort = value,
            "sync" => self.sync = value,
            _ => return false,
        }
        true
    }

    /// A breakdown charging everything to one wall-clock bucket: `sync`
    /// for spans named like synchronisation, `compute` otherwise. This is
    /// how native (wall-ns) spans decompose — real time carries no
    /// per-access attribution.
    pub fn from_wall_ns(ns: u64, is_sync: bool) -> Self {
        let mut out = Self::default();
        if is_sync {
            out.sync = ns as f64;
        } else {
            out.compute = ns as f64;
        }
        out
    }
}

impl Add for ComponentCharges {
    type Output = ComponentCharges;
    fn add(self, rhs: ComponentCharges) -> ComponentCharges {
        ComponentCharges {
            compute: self.compute + rhs.compute,
            shared_mem: self.shared_mem + rhs.shared_mem,
            global_coalesced: self.global_coalesced + rhs.global_coalesced,
            global_uncoalesced: self.global_uncoalesced + rhs.global_uncoalesced,
            atomics: self.atomics + rhs.atomics,
            scan_sort: self.scan_sort + rhs.scan_sort,
            sync: self.sync + rhs.sync,
        }
    }
}

impl AddAssign for ComponentCharges {
    fn add_assign(&mut self, rhs: ComponentCharges) {
        *self = *self + rhs;
    }
}

impl Sum for ComponentCharges {
    fn sum<I: Iterator<Item = ComponentCharges>>(iter: I) -> Self {
        iter.fold(ComponentCharges::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_per_space() {
        let mut t = MemTally::new();
        t.load(Space::Global, 3);
        t.store(Space::Shared, 2);
        t.atomic(Space::Global, 1);
        t.load(Space::Register, 5);
        t.warp_primitive(4);
        assert_eq!(t.global_loads, 3);
        assert_eq!(t.shared_stores, 2);
        assert_eq!(t.global_atomics, 1);
        assert_eq!(t.register_ops, 5);
        assert_eq!(t.warp_primitives, 4);
        assert_eq!(t.global_total(), 4);
        assert_eq!(t.shared_total(), 2);
    }

    #[test]
    fn tallies_sum() {
        let mut a = MemTally::new();
        a.load(Space::Global, 1);
        let mut b = MemTally::new();
        b.load(Space::Global, 2);
        b.atomic(Space::Shared, 7);
        let s: MemTally = [a, b].into_iter().sum();
        assert_eq!(s.global_loads, 3);
        assert_eq!(s.shared_atomics, 7);
    }

    #[test]
    fn cost_model_orders_spaces() {
        let m = CostModel::default();
        let mut reg = MemTally::new();
        reg.load(Space::Register, 100);
        let mut sh = MemTally::new();
        sh.load(Space::Shared, 100);
        let mut gl = MemTally::new();
        gl.load(Space::Global, 100);
        assert!(m.cycles(&reg) < m.cycles(&sh));
        assert!(m.cycles(&sh) < m.cycles(&gl));
    }

    #[test]
    #[should_panic(expected = "no atomics on registers")]
    fn register_atomics_rejected() {
        MemTally::new().atomic(Space::Register, 1);
    }

    #[test]
    fn simt_steps_track_active_lanes() {
        let mut t = MemTally::new();
        t.simt_step(u32::MAX); // 32 lanes
        t.simt_step(0b1111); // 4 lanes
        assert_eq!(t.simt_steps, 2);
        assert_eq!(t.simt_active_lanes, 36);
        assert!((t.divergence() - (1.0 - 36.0 / 64.0)).abs() < 1e-12);
        t.simt_serialize(3);
        assert_eq!(t.simt_serialized, 3);
    }

    #[test]
    fn divergence_zero_when_unrecorded() {
        assert_eq!(MemTally::new().divergence(), 0.0);
    }

    #[test]
    fn contiguous_request_is_fully_coalesced() {
        let mut t = MemTally::new();
        // 32 consecutive 4-byte elements = 128 bytes = exactly one segment.
        let offsets: Vec<u64> = (0..32).collect();
        t.global_request(&offsets, 4);
        assert_eq!(t.coalesce_requests, 1);
        assert_eq!(t.coalesce_transactions, 1);
        assert_eq!(t.coalesce_ideal, 1);
        assert_eq!(t.coalescing_efficiency(), 1.0);
    }

    #[test]
    fn strided_request_touches_many_segments() {
        let mut t = MemTally::new();
        // Stride of 32 elements of 4 bytes = one segment per lane.
        let offsets: Vec<u64> = (0..32).map(|i| i * 32).collect();
        t.global_request(&offsets, 4);
        assert_eq!(t.coalesce_transactions, 32);
        assert_eq!(t.coalesce_ideal, 1);
        assert!((t.coalescing_efficiency() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_offsets_share_segments() {
        let mut t = MemTally::new();
        t.global_request(&[7, 7, 7, 7], 8);
        assert_eq!(t.coalesce_transactions, 1);
        assert_eq!(t.coalesce_ideal, 1);
    }

    #[test]
    fn empty_request_is_ignored() {
        let mut t = MemTally::new();
        t.global_request(&[], 4);
        assert_eq!(t.coalesce_requests, 0);
        assert_eq!(t.coalescing_efficiency(), 1.0);
    }

    #[test]
    fn new_counters_do_not_change_cycles() {
        let m = CostModel::default();
        let mut t = MemTally::new();
        t.load(Space::Global, 10);
        let before = m.cycles(&t);
        t.simt_step(0b1);
        t.simt_serialize(5);
        t.global_request(&[0, 100, 200], 4);
        assert_eq!(m.cycles(&t), before);
    }

    #[test]
    fn calibrated_with_unit_factors_is_the_default() {
        assert_eq!(
            CostModel::calibrated(1.0, 1.0, 1.0, 1.0, 1.0),
            CostModel::default()
        );
        let doubled = CostModel::calibrated(2.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(doubled.register, 2.0);
        assert_eq!(doubled.global, CostModel::default().global);
        // Atomics scale shared and global atomics together.
        let hot = CostModel::calibrated(1.0, 1.0, 1.0, 0.5, 1.0);
        assert_eq!(hot.shared_atomic, 20.0);
        assert_eq!(hot.global_atomic, 300.0);
    }

    #[test]
    fn components_partition_cycles_exactly() {
        let m = CostModel::default();
        let mut t = MemTally::new();
        t.load(Space::Register, 123);
        t.load(Space::Shared, 17);
        t.store(Space::Shared, 5);
        t.load(Space::Global, 200);
        t.store(Space::Global, 50);
        t.atomic(Space::Shared, 3);
        t.atomic(Space::Global, 7);
        t.warp_primitive(11);
        // Imperfect coalescing: 10 ideal, 25 actual transactions.
        t.coalesce_requests = 10;
        t.coalesce_transactions = 25;
        t.coalesce_ideal = 10;
        let c = m.components(&t);
        assert_eq!(c.total(), m.cycles(&t), "components must sum to cycles");
        // 250 global accesses * 15 excess / 25 transactions = 150 uncoalesced.
        assert_eq!(c.global_uncoalesced, 150.0 * 400.0);
        assert_eq!(c.global_coalesced, 100.0 * 400.0);
        assert_eq!(c.compute, 123.0);
        assert_eq!(c.shared_mem, 22.0 * 25.0);
        assert_eq!(c.atomics, 3.0 * 40.0 + 7.0 * 600.0);
        assert_eq!(c.scan_sort, 11.0 * 8.0);
        assert_eq!(c.sync, 0.0);
    }

    #[test]
    fn components_without_coalescing_counters_are_all_coalesced() {
        let m = CostModel::default();
        let mut t = MemTally::new();
        t.load(Space::Global, 42);
        let c = m.components(&t);
        assert_eq!(c.global_uncoalesced, 0.0);
        assert_eq!(c.global_coalesced, 42.0 * 400.0);
        assert_eq!(c.total(), m.cycles(&t));
    }

    #[test]
    fn component_names_cover_every_field() {
        let mut c = ComponentCharges::default();
        for (i, name) in COMPONENT_NAMES.iter().enumerate() {
            assert!(c.set(name, (i + 1) as f64), "{name}");
        }
        for (i, name) in COMPONENT_NAMES.iter().enumerate() {
            assert_eq!(c.get(name), Some((i + 1) as f64), "{name}");
        }
        assert_eq!(c.total(), (1..=7).sum::<usize>() as f64);
        assert_eq!(c.get("bogus"), None);
        assert!(!c.set("bogus", 1.0));
    }

    #[test]
    fn wall_ns_charges_one_bucket() {
        let c = ComponentCharges::from_wall_ns(1234, false);
        assert_eq!(c.compute, 1234.0);
        assert_eq!(c.total(), 1234.0);
        let s = ComponentCharges::from_wall_ns(99, true);
        assert_eq!(s.sync, 99.0);
        assert_eq!(s.memory(), 0.0);
        let both = c + s;
        assert_eq!(both.total(), 1333.0);
    }

    #[test]
    fn new_counters_sum() {
        let mut a = MemTally::new();
        a.simt_step(0b11);
        a.global_request(&[0], 4);
        let mut b = MemTally::new();
        b.simt_step(u32::MAX);
        b.simt_serialize(1);
        b.global_request(&[0, 64], 4);
        let s = a + b;
        assert_eq!(s.simt_steps, 2);
        assert_eq!(s.simt_active_lanes, 34);
        assert_eq!(s.simt_serialized, 1);
        assert_eq!(s.coalesce_requests, 2);
        assert_eq!(s.coalesce_transactions, 3);
        assert_eq!(s.coalesce_ideal, 2);
    }
}
