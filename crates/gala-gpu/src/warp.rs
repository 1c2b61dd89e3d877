//! 32-lane warps and the CUDA warp-level primitives GALA's shuffle-based
//! kernel relies on.
//!
//! Primitives are modelled lane-array style: a "warp" is a set of 32 lane
//! values plus an active mask, and each primitive is a pure function over
//! those arrays with the same semantics as the CUDA intrinsic. This keeps
//! the simulated kernel code close to Algorithm 2 of the paper while staying
//! deterministic and data-race free on the host.
//!
//! Every primitive charges `warp_primitives` on its [`MemTally`]; in the
//! cost-attribution view ([`crate::memory::CostModel::components`]) those
//! charges form the `scan_sort` component of a span's cycle breakdown, so
//! shuffle-reduction and scan-heavy kernels show up as scan/sort-bound in
//! `gala profile` rather than being folded into compute.

use crate::memory::MemTally;

/// Number of lanes per warp, matching NVIDIA hardware.
pub const WARP_SIZE: usize = 32;

/// Full active mask (all 32 lanes participating).
pub const FULL_MASK: u32 = u32::MAX;

/// A warp execution context: an active-lane mask plus a tally for primitive
/// accounting. Lane *values* live in plain `[T; 32]` arrays owned by the
/// kernel (its "registers").
#[derive(Debug)]
pub struct Warp<'t> {
    active: u32,
    tally: &'t mut MemTally,
}

impl<'t> Warp<'t> {
    /// Creates a warp with the given active mask.
    pub fn new(active: u32, tally: &'t mut MemTally) -> Self {
        Self { active, tally }
    }

    /// The active-lane mask.
    #[inline]
    pub fn active(&self) -> u32 {
        self.active
    }

    /// Number of active lanes.
    #[inline]
    pub fn num_active(&self) -> u32 {
        self.active.count_ones()
    }

    /// Mutable access to the tally (for kernels counting their own loads).
    #[inline]
    pub fn tally(&mut self) -> &mut MemTally {
        self.tally
    }

    /// `__match_any_sync`: for each active lane `i`, returns the mask of
    /// active lanes whose value equals `values[i]`. Inactive lanes get 0.
    pub fn match_any_sync(&mut self, values: &[u32; WARP_SIZE]) -> [u32; WARP_SIZE] {
        self.tally.simt_step(self.active);
        self.tally.warp_primitive(1);
        let mut out = [0u32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            if self.active & (1 << i) == 0 {
                continue;
            }
            let mut mask = 0u32;
            for j in 0..WARP_SIZE {
                if self.active & (1 << j) != 0 && values[j] == values[i] {
                    mask |= 1 << j;
                }
            }
            out[i] = mask;
        }
        out
    }

    /// Grouped `__reduce_add_sync`: each active lane `i` receives the sum of
    /// `values[j]` over the lanes `j` in `groups[i]` (the mask produced by
    /// [`Self::match_any_sync`]). This is how Algorithm 2 aggregates
    /// `d_C(v)` per neighboring community.
    pub fn reduce_add_grouped(
        &mut self,
        groups: &[u32; WARP_SIZE],
        values: &[f64; WARP_SIZE],
    ) -> [f64; WARP_SIZE] {
        self.tally.simt_step(self.active);
        self.tally.warp_primitive(1);
        let mut out = [0.0f64; WARP_SIZE];
        for i in 0..WARP_SIZE {
            if self.active & (1 << i) == 0 {
                continue;
            }
            let mut sum = 0.0;
            let mut m = groups[i] & self.active;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                sum += values[j];
                m &= m - 1;
            }
            out[i] = sum;
        }
        out
    }

    /// `__reduce_max_sync` over all active lanes: every active lane receives
    /// the maximum of the active values. Returns `f64::NEG_INFINITY` when no
    /// lane is active.
    pub fn reduce_max_sync(&mut self, values: &[f64; WARP_SIZE]) -> f64 {
        self.tally.simt_step(self.active);
        self.tally.warp_primitive(1);
        let mut max = f64::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            if self.active & (1 << i) != 0 && v > max {
                max = v;
            }
        }
        max
    }

    /// `__reduce_min_sync` over `u32` values on active lanes, used for the
    /// deterministic min-community-id tie break. Returns `u32::MAX` when no
    /// lane is active.
    pub fn reduce_min_u32_sync(&mut self, values: &[u32; WARP_SIZE]) -> u32 {
        self.tally.simt_step(self.active);
        self.tally.warp_primitive(1);
        let mut min = u32::MAX;
        for (i, &v) in values.iter().enumerate() {
            if self.active & (1 << i) != 0 && v < min {
                min = v;
            }
        }
        min
    }

    /// `__ballot_sync`: bitmask of active lanes whose predicate is true.
    pub fn ballot_sync(&mut self, predicate: &[bool; WARP_SIZE]) -> u32 {
        self.tally.simt_step(self.active);
        self.tally.warp_primitive(1);
        let mut mask = 0u32;
        for (i, &p) in predicate.iter().enumerate() {
            if self.active & (1 << i) != 0 && p {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Evaluates a per-lane `predicate` as a warp-level branch, returning
    /// the `(taken, not_taken)` active masks. One SIMT step is recorded for
    /// the predicate evaluation; if both sides have active lanes the branch
    /// diverges and the serialized-path counter is bumped (the hardware
    /// would execute the two paths back to back under partial masks).
    pub fn branch(&mut self, predicate: &[bool; WARP_SIZE]) -> (u32, u32) {
        self.tally.simt_step(self.active);
        let mut taken = 0u32;
        for (i, &p) in predicate.iter().enumerate() {
            if self.active & (1 << i) != 0 && p {
                taken |= 1 << i;
            }
        }
        let not_taken = self.active & !taken;
        if taken != 0 && not_taken != 0 {
            self.tally.simt_serialize(1);
        }
        (taken, not_taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_warp<R>(active: u32, f: impl FnOnce(&mut Warp) -> R) -> (R, MemTally) {
        let mut tally = MemTally::new();
        let r = {
            let mut w = Warp::new(active, &mut tally);
            f(&mut w)
        };
        (r, tally)
    }

    #[test]
    fn match_any_groups_equal_values() {
        let mut vals = [0u32; WARP_SIZE];
        vals[0] = 7;
        vals[1] = 9;
        vals[2] = 7;
        vals[3] = 9;
        let ((), _) = with_warp(0b1111, |w| {
            let m = w.match_any_sync(&vals);
            assert_eq!(m[0], 0b0101);
            assert_eq!(m[2], 0b0101);
            assert_eq!(m[1], 0b1010);
            assert_eq!(m[3], 0b1010);
        });
    }

    #[test]
    fn match_any_respects_active_mask() {
        let vals = [5u32; WARP_SIZE];
        let ((), _) = with_warp(0b1011, |w| {
            let m = w.match_any_sync(&vals);
            assert_eq!(m[0], 0b1011);
            assert_eq!(m[2], 0); // inactive lane
            assert_eq!(m[3], 0b1011);
        });
    }

    #[test]
    fn grouped_reduce_add_sums_per_group() {
        let mut comm = [0u32; WARP_SIZE];
        let mut w_ = [0.0f64; WARP_SIZE];
        comm[0] = 1;
        comm[1] = 2;
        comm[2] = 1;
        w_[0] = 1.5;
        w_[1] = 2.0;
        w_[2] = 0.5;
        let ((), _) = with_warp(0b111, |w| {
            let groups = w.match_any_sync(&comm);
            let sums = w.reduce_add_grouped(&groups, &w_);
            assert_eq!(sums[0], 2.0);
            assert_eq!(sums[2], 2.0);
            assert_eq!(sums[1], 2.0f64.max(2.0)); // lone group: its own value
            assert_eq!(sums[1], 2.0);
        });
    }

    #[test]
    fn reduce_max_over_active_lanes() {
        let mut vals = [f64::NEG_INFINITY; WARP_SIZE];
        vals[0] = 1.0;
        vals[1] = 99.0; // inactive, must be ignored
        vals[2] = 3.0;
        let (max, _) = with_warp(0b101, |w| w.reduce_max_sync(&vals));
        assert_eq!(max, 3.0);
    }

    #[test]
    fn reduce_max_empty_mask() {
        let vals = [1.0f64; WARP_SIZE];
        let (max, _) = with_warp(0, |w| w.reduce_max_sync(&vals));
        assert_eq!(max, f64::NEG_INFINITY);
    }

    #[test]
    fn ballot_collects_predicates() {
        let mut pred = [false; WARP_SIZE];
        pred[1] = true;
        pred[3] = true;
        pred[5] = true; // inactive
        let (mask, _) = with_warp(0b01111, |w| w.ballot_sync(&pred));
        assert_eq!(mask, 0b01010);
    }

    #[test]
    fn primitives_are_tallied() {
        let vals = [0u32; WARP_SIZE];
        let ((), tally) = with_warp(FULL_MASK, |w| {
            w.match_any_sync(&vals);
            w.reduce_min_u32_sync(&vals);
        });
        assert_eq!(tally.warp_primitives, 2);
    }

    #[test]
    fn primitives_record_simt_steps() {
        let vals = [0u32; WARP_SIZE];
        let ((), tally) = with_warp(0b1111, |w| {
            w.match_any_sync(&vals);
            w.reduce_min_u32_sync(&vals);
        });
        assert_eq!(tally.simt_steps, 2);
        assert_eq!(tally.simt_active_lanes, 8); // 4 active lanes x 2 steps
        assert!((tally.divergence() - (1.0 - 8.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn branchy_program_counts_divergence() {
        // Hand-built branchy warp program: half the lanes take the `if`
        // side, half the `else` side, then a uniform branch follows.
        let mut pred = [false; WARP_SIZE];
        for (i, p) in pred.iter_mut().enumerate() {
            *p = i % 2 == 0;
        }
        let vals = [1.0f64; WARP_SIZE];
        let mut tally = MemTally::new();
        let (taken, not_taken) = Warp::new(FULL_MASK, &mut tally).branch(&pred);
        assert_eq!(taken.count_ones(), 16);
        assert_eq!(not_taken.count_ones(), 16);
        // Divergent paths execute serially under partial masks, each as its
        // own narrowed warp (as the shuffle kernel runs them).
        Warp::new(taken, &mut tally).reduce_max_sync(&vals);
        Warp::new(not_taken, &mut tally).reduce_max_sync(&vals);
        // Reconverged uniform branch: no extra serialization.
        let (t2, n2) = Warp::new(FULL_MASK, &mut tally).branch(&[true; WARP_SIZE]);
        assert_eq!(t2, FULL_MASK);
        assert_eq!(n2, 0);
        assert_eq!(tally.simt_serialized, 1);
        // 2 branch steps at 32 lanes + 2 reduce steps at 16 lanes each.
        assert_eq!(tally.simt_steps, 4);
        assert_eq!(tally.simt_active_lanes, 32 + 32 + 16 + 16);
        assert!(tally.divergence() > 0.0);
    }

    #[test]
    fn uniform_branch_does_not_serialize() {
        let ((), tally) = with_warp(FULL_MASK, |w| {
            w.branch(&[false; WARP_SIZE]);
            w.branch(&[true; WARP_SIZE]);
        });
        assert_eq!(tally.simt_serialized, 0);
        assert_eq!(tally.simt_steps, 2);
    }
}
