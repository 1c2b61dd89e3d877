//! Per-vertex hashtables mapping community id → `d_C(v)`, in the three
//! designs of paper Section 4.2:
//!
//! * **Global-only** — every bucket in global memory (the Grappolo GPU /
//!   early-work baseline).
//! * **Unified** — one hash function over `s` shared + `g` global buckets;
//!   a key lands in shared memory only with probability `s/(s+g)`.
//! * **Hierarchical** — GALA's design: hash `h0` probes the `s` shared
//!   buckets first (one slot, no probing); only on a collision does hash
//!   `h1` fall back to the `g` global buckets with linear probing.
//!
//! Every probe is an `atomicCAS` and every accumulation an `atomicAdd`,
//! each charged to the memory space of the bucket it touches — which is
//! precisely what makes the hierarchical design win in the cost model, and
//! what Figure 4 (maintenance/access rates) measures.

use gala_gpu::block::SharedMem;
use gala_gpu::memory::{MemTally, Space};
use std::ops::{Add, AddAssign};

/// Empty-bucket sentinel (community ids are vertex ids, always `< n`).
const EMPTY: u32 = u32::MAX;

/// The three hashtable placements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashTableKind {
    /// All buckets in global memory.
    GlobalOnly,
    /// One hash over shared ∪ global; equal priority to both.
    Unified,
    /// Shared-first with global overflow (GALA's design).
    Hierarchical,
}

/// Hash-kernel configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashConfig {
    /// Which table design to use.
    pub kind: HashTableKind,
    /// Shared-memory buckets `s` requested per block (capped by the block's
    /// shared-memory budget).
    pub shared_buckets: usize,
}

impl Default for HashConfig {
    fn default() -> Self {
        Self {
            kind: HashTableKind::Hierarchical,
            shared_buckets: 256,
        }
    }
}

/// Placement statistics: where keys were *maintained* (first inserted) and
/// where upserts were *served*. Figure 4 plots the two ratios.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Distinct keys resident in shared memory.
    pub shared_keys: u64,
    /// Distinct keys resident in global memory.
    pub global_keys: u64,
    /// Upserts served by a shared-memory bucket.
    pub shared_accesses: u64,
    /// Upserts served by a global-memory bucket.
    pub global_accesses: u64,
    /// Shared buckets allocated (summed across tables), the denominator of
    /// [`Self::occupancy`].
    pub shared_capacity: u64,
    /// Upserts that hashed to a shared bucket but were pushed to global by
    /// a collision with a different key.
    pub shared_evictions: u64,
}

impl TableStats {
    /// Fraction of distinct communities maintained in shared memory.
    pub fn maintenance_rate(&self) -> f64 {
        let total = self.shared_keys + self.global_keys;
        if total == 0 {
            0.0
        } else {
            self.shared_keys as f64 / total as f64
        }
    }

    /// Fraction of accesses served by shared memory.
    pub fn access_rate(&self) -> f64 {
        let total = self.shared_accesses + self.global_accesses;
        if total == 0 {
            0.0
        } else {
            self.shared_accesses as f64 / total as f64
        }
    }

    /// Fraction of allocated shared buckets holding a key.
    pub fn occupancy(&self) -> f64 {
        if self.shared_capacity == 0 {
            0.0
        } else {
            self.shared_keys as f64 / self.shared_capacity as f64
        }
    }
}

impl Add for TableStats {
    type Output = TableStats;
    fn add(self, r: TableStats) -> TableStats {
        TableStats {
            shared_keys: self.shared_keys + r.shared_keys,
            global_keys: self.global_keys + r.global_keys,
            shared_accesses: self.shared_accesses + r.shared_accesses,
            global_accesses: self.global_accesses + r.global_accesses,
            shared_capacity: self.shared_capacity + r.shared_capacity,
            shared_evictions: self.shared_evictions + r.shared_evictions,
        }
    }
}

impl AddAssign for TableStats {
    fn add_assign(&mut self, r: TableStats) {
        *self = *self + r;
    }
}

/// A per-vertex community→weight table. Buckets `[0, s)` live in shared
/// memory, `[s, s + g)` in global memory.
#[derive(Debug)]
pub struct VertexTable {
    kind: HashTableKind,
    s: usize,
    g: usize,
    keys: Vec<u32>,
    vals: Vec<f64>,
    occupied: Vec<u32>,
    /// Placement statistics accumulated by this table.
    pub stats: TableStats,
}

impl VertexTable {
    /// Creates a table able to hold at least `expected_keys` distinct keys.
    /// Shared buckets are debited from the block's `SharedMem` budget; if
    /// the budget cannot fit the requested `s`, `s` shrinks to what fits
    /// (global-only tables request none).
    pub fn new(cfg: HashConfig, expected_keys: usize, shared: &mut SharedMem) -> Self {
        let bucket_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<f64>();
        let s = match cfg.kind {
            HashTableKind::GlobalOnly => 0,
            _ => {
                let fit = shared.remaining() / bucket_bytes;
                let s = cfg.shared_buckets.min(fit);
                // Debit the budget (alloc result unused: storage is unified
                // in `keys`/`vals`, the budget is what matters).
                let _ = shared.try_alloc::<u8>(s * bucket_bytes);
                s
            }
        };
        let g = (expected_keys * 2).next_power_of_two().max(16);
        Self {
            kind: cfg.kind,
            s,
            g,
            keys: vec![EMPTY; s + g],
            vals: vec![0.0; s + g],
            occupied: Vec::with_capacity(expected_keys.min(64)),
            stats: TableStats {
                shared_capacity: s as u64,
                ..TableStats::default()
            },
        }
    }

    /// Number of shared buckets actually allocated.
    pub fn shared_buckets(&self) -> usize {
        self.s
    }

    #[inline]
    fn space_of(&self, idx: usize) -> Space {
        if idx < self.s {
            Space::Shared
        } else {
            Space::Global
        }
    }

    /// Adds `w` to the entry for `key`, inserting it if absent. Returns the
    /// bucket index that served the upsert.
    pub fn upsert_add(&mut self, key: u32, w: f64, tally: &mut MemTally) -> usize {
        debug_assert_ne!(key, EMPTY);
        let idx = match self.kind {
            HashTableKind::GlobalOnly => self.probe_global(key, tally),
            HashTableKind::Unified => self.probe_unified(key, tally),
            HashTableKind::Hierarchical => self.probe_hierarchical(key, tally),
        };
        let space = self.space_of(idx);
        if self.keys[idx] == EMPTY {
            self.keys[idx] = key;
            self.occupied.push(idx as u32);
            match space {
                Space::Shared => self.stats.shared_keys += 1,
                _ => self.stats.global_keys += 1,
            }
        }
        // The accumulation itself: atomicAdd in the bucket's space.
        self.vals[idx] += w;
        tally.atomic(space, 1);
        match space {
            Space::Shared => self.stats.shared_accesses += 1,
            _ => self.stats.global_accesses += 1,
        }
        idx
    }

    /// Linear probe over the global region only.
    ///
    /// # Panics
    ///
    /// Panics when the global region is full of *other* keys — the caller
    /// sized the table for fewer distinct keys than it inserted (the
    /// kernels size it to the vertex degree, which can never overflow).
    fn probe_global(&mut self, key: u32, tally: &mut MemTally) -> usize {
        self.probe_global_with(hash1(key), key, tally)
    }

    /// Single hash over the combined `s + g` space, linear probing across
    /// the shared/global boundary — the *unified* design.
    ///
    /// # Panics
    ///
    /// Panics when every bucket holds a different key (undersized table).
    fn probe_unified(&mut self, key: u32, tally: &mut MemTally) -> usize {
        let total = self.s + self.g;
        let mut idx = hash0(key) as usize % total;
        let started_shared = idx < self.s;
        for _ in 0..total {
            tally.atomic(self.space_of(idx), 1);
            if self.keys[idx] == EMPTY || self.keys[idx] == key {
                if started_shared && idx >= self.s {
                    // Hashed into shared but collided all the way to global.
                    self.stats.shared_evictions += 1;
                }
                return idx;
            }
            idx = (idx + 1) % total;
        }
        panic!("unified hashtable overflow: more than {total} distinct keys");
    }

    /// Shared-first, single shared probe, global overflow — *hierarchical*.
    fn probe_hierarchical(&mut self, key: u32, tally: &mut MemTally) -> usize {
        if self.s > 0 {
            let i0 = hash0(key) as usize % self.s;
            tally.atomic(Space::Shared, 1);
            if self.keys[i0] == EMPTY || self.keys[i0] == key {
                return i0;
            }
            // Collision in shared: this upsert is evicted to global.
            self.stats.shared_evictions += 1;
        }
        self.probe_global_with(hash1(key), key, tally)
    }

    fn probe_global_with(&mut self, h: u32, key: u32, tally: &mut MemTally) -> usize {
        let mut i = h as usize & (self.g - 1);
        for _ in 0..self.g {
            let idx = self.s + i;
            tally.atomic(Space::Global, 1);
            if self.keys[idx] == EMPTY || self.keys[idx] == key {
                return idx;
            }
            i = (i + 1) & (self.g - 1);
        }
        panic!(
            "global hashtable region overflow: more than {} distinct keys",
            self.g
        );
    }

    /// Reads the accumulated value for `key`, if present (test helper; the
    /// kernel uses [`Self::drain`]).
    pub fn get(&self, key: u32) -> Option<f64> {
        self.occupied
            .iter()
            .find(|&&i| self.keys[i as usize] == key)
            .map(|&i| self.vals[i as usize])
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Drains the `(key, value)` pairs in insertion order, charging one load
    /// per bucket field to the bucket's space.
    pub fn drain(&self, tally: &mut MemTally) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(self.occupied.len());
        for &i in &self.occupied {
            let idx = i as usize;
            tally.load(self.space_of(idx), 2); // key + value
            out.push((self.keys[idx], self.vals[idx]));
        }
        out
    }
}

#[inline]
fn hash0(x: u32) -> u32 {
    x.wrapping_mul(0x9E37_79B1)
}

#[inline]
fn hash1(x: u32) -> u32 {
    let x = x.wrapping_mul(0x85EB_CA77);
    x ^ (x >> 13)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(kind: HashTableKind, s: usize, expected: usize) -> (VertexTable, MemTally) {
        let mut shared = SharedMem::default_budget();
        let cfg = HashConfig {
            kind,
            shared_buckets: s,
        };
        (
            VertexTable::new(cfg, expected, &mut shared),
            MemTally::new(),
        )
    }

    #[test]
    fn upsert_accumulates_per_key() {
        for kind in [
            HashTableKind::GlobalOnly,
            HashTableKind::Unified,
            HashTableKind::Hierarchical,
        ] {
            let (mut t, mut tally) = table(kind, 8, 16);
            t.upsert_add(5, 1.5, &mut tally);
            t.upsert_add(9, 2.0, &mut tally);
            t.upsert_add(5, 0.5, &mut tally);
            assert_eq!(t.get(5), Some(2.0), "{kind:?}");
            assert_eq!(t.get(9), Some(2.0), "{kind:?}");
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn drain_returns_all_pairs() {
        let (mut t, mut tally) = table(HashTableKind::Hierarchical, 4, 32);
        for k in 0..20u32 {
            t.upsert_add(k, k as f64, &mut tally);
        }
        let mut pairs = t.drain(&mut tally);
        pairs.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(pairs.len(), 20);
        for (k, v) in pairs {
            assert_eq!(v, k as f64);
        }
    }

    #[test]
    fn global_only_never_touches_shared() {
        let (mut t, mut tally) = table(HashTableKind::GlobalOnly, 256, 64);
        for k in 0..50u32 {
            t.upsert_add(k, 1.0, &mut tally);
        }
        assert_eq!(t.stats.shared_keys, 0);
        assert_eq!(t.stats.shared_accesses, 0);
        assert_eq!(tally.shared_atomics, 0);
        assert!(tally.global_atomics > 0);
    }

    #[test]
    fn hierarchical_prefers_shared() {
        // Few keys, ample shared buckets: everything should stay shared.
        let (mut t, mut tally) = table(HashTableKind::Hierarchical, 64, 8);
        for k in 1..=8u32 {
            // Consecutive keys: the odd multiplicative hash maps them to
            // distinct shared buckets.
            t.upsert_add(k, 1.0, &mut tally);
        }
        assert!(
            t.stats.maintenance_rate() > 0.7,
            "rate {}",
            t.stats.maintenance_rate()
        );
    }

    #[test]
    fn hierarchical_overflows_on_collision() {
        // One shared bucket: second distinct key must land in global.
        let (mut t, mut tally) = table(HashTableKind::Hierarchical, 1, 8);
        t.upsert_add(1, 1.0, &mut tally);
        t.upsert_add(2, 1.0, &mut tally);
        assert_eq!(t.stats.shared_keys, 1);
        assert_eq!(t.stats.global_keys, 1);
        assert_eq!(t.get(1), Some(1.0));
        assert_eq!(t.get(2), Some(1.0));
    }

    #[test]
    fn unified_splits_by_address_share() {
        // With s == g, roughly half the keys should land in shared.
        let mut shared = SharedMem::default_budget();
        let cfg = HashConfig {
            kind: HashTableKind::Unified,
            shared_buckets: 512,
        };
        let mut t = VertexTable::new(cfg, 256, &mut shared);
        assert_eq!(t.g, 512);
        let mut tally = MemTally::new();
        for k in 0..400u32 {
            t.upsert_add(k, 1.0, &mut tally);
        }
        let rate = t.stats.maintenance_rate();
        assert!((0.3..0.7).contains(&rate), "rate {rate}");
    }

    #[test]
    fn shared_budget_caps_bucket_count() {
        let mut shared = SharedMem::new(120); // 10 buckets of 12 bytes
        let cfg = HashConfig {
            kind: HashTableKind::Hierarchical,
            shared_buckets: 1_000_000,
        };
        let t = VertexTable::new(cfg, 8, &mut shared);
        assert_eq!(t.shared_buckets(), 10);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn undersized_table_panics_instead_of_spinning() {
        let (mut t, mut tally) = table(HashTableKind::GlobalOnly, 0, 8);
        // g = 16 buckets; the 17th distinct key must fail loudly.
        for k in 0..40u32 {
            t.upsert_add(k, 1.0, &mut tally);
        }
    }

    #[test]
    fn occupancy_and_evictions_track_shared_pressure() {
        let (mut t, mut tally) = table(HashTableKind::Hierarchical, 2, 16);
        assert_eq!(t.stats.shared_capacity, 2);
        assert_eq!(t.stats.occupancy(), 0.0);
        // Fill well past the two shared buckets: most upserts evict.
        for k in 0..10u32 {
            t.upsert_add(k, 1.0, &mut tally);
        }
        assert_eq!(t.stats.shared_keys, 2);
        assert_eq!(t.stats.occupancy(), 1.0);
        // Every key that ended up in global got there through an eviction.
        assert_eq!(t.stats.global_keys, 8);
        assert!(t.stats.shared_evictions >= 8);
    }

    #[test]
    fn global_only_reports_zero_occupancy_and_evictions() {
        let (mut t, mut tally) = table(HashTableKind::GlobalOnly, 256, 64);
        for k in 0..50u32 {
            t.upsert_add(k, 1.0, &mut tally);
        }
        assert_eq!(t.stats.shared_capacity, 0);
        assert_eq!(t.stats.shared_evictions, 0);
        assert_eq!(t.stats.occupancy(), 0.0);
    }

    #[test]
    fn repeated_access_rate_exceeds_maintenance_rate_when_hot_key_is_shared() {
        // A hot community that lands in shared memory early is accessed many
        // times — the paper's explanation for access rate > maintenance rate.
        let (mut t, mut tally) = table(HashTableKind::Hierarchical, 1, 8);
        t.upsert_add(1, 1.0, &mut tally); // occupies the only shared bucket
        t.upsert_add(2, 1.0, &mut tally); // overflows
        for _ in 0..18 {
            t.upsert_add(1, 1.0, &mut tally); // hot key, all shared
        }
        assert!(t.stats.access_rate() > t.stats.maintenance_rate());
    }
}
