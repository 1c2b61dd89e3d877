//! Thread blocks and the byte-budgeted shared-memory arena.
//!
//! A simulated block processes one work item (in GALA, one large-degree
//! vertex) with `block_size` logical threads. Shared memory is a scarce
//! per-block resource on real GPUs (48–164 KiB on A100); [`SharedMem`]
//! enforces that budget so a kernel cannot "cheat" by placing more state in
//! the fast level than the hardware would allow — which is exactly the
//! pressure the hierarchical hashtable (paper Section 4.2) is designed for.

/// Default shared-memory budget per block, in bytes (A100 default carve-out).
pub const DEFAULT_SHARED_BYTES: usize = 48 * 1024;

/// Default number of threads per block.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// A per-block shared-memory arena with a hard byte budget.
///
/// Allocation hands out plain `Vec<T>` storage (the host stand-in for an
/// `extern __shared__` region) while debiting the budget; exceeding it
/// returns `None`, forcing the kernel to spill to global memory just like
/// real hardware would force a smaller occupancy or an overflow structure.
#[derive(Debug)]
pub struct SharedMem {
    capacity: usize,
    used: usize,
}

impl SharedMem {
    /// Creates an arena with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity: capacity_bytes,
            used: 0,
        }
    }

    /// Creates an arena with the default 48 KiB budget.
    pub fn default_budget() -> Self {
        Self::new(DEFAULT_SHARED_BYTES)
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.capacity - self.used
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Total budget in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates `len` elements of `T` if the budget allows, else `None`.
    pub fn try_alloc<T: Clone + Default>(&mut self, len: usize) -> Option<Vec<T>> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        if bytes > self.remaining() {
            return None;
        }
        self.used += bytes;
        Some(vec![T::default(); len])
    }
}

/// Static configuration of a simulated block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockConfig {
    /// Logical threads per block.
    pub block_size: usize,
    /// Shared-memory budget per block in bytes.
    pub shared_bytes: usize,
}

impl Default for BlockConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            shared_bytes: DEFAULT_SHARED_BYTES,
        }
    }
}

impl BlockConfig {
    /// Number of warps this block schedules (`block_size` rounded up to
    /// whole warps) — the unit divergence and coalescing counters are
    /// attributed at.
    pub fn warps(&self) -> usize {
        self.block_size.div_ceil(crate::warp::WARP_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_enforced() {
        let mut sm = SharedMem::new(64);
        let a: Option<Vec<u64>> = sm.try_alloc(4); // 32 bytes
        assert!(a.is_some());
        assert_eq!(sm.remaining(), 32);
        let b: Option<Vec<u64>> = sm.try_alloc(5); // 40 bytes > 32
        assert!(b.is_none());
        let c: Option<Vec<u64>> = sm.try_alloc(4);
        assert!(c.is_some());
        assert_eq!(sm.remaining(), 0);
    }

    #[test]
    fn default_budget_is_48k() {
        let sm = SharedMem::default_budget();
        assert_eq!(sm.capacity(), 48 * 1024);
    }

    #[test]
    fn zero_len_alloc_is_free() {
        let mut sm = SharedMem::new(0);
        let v: Option<Vec<u8>> = sm.try_alloc(0);
        assert!(v.is_some());
    }

    #[test]
    fn block_warp_count_rounds_up() {
        assert_eq!(BlockConfig::default().warps(), 4);
        let odd = BlockConfig {
            block_size: 33,
            ..BlockConfig::default()
        };
        assert_eq!(odd.warps(), 2);
    }
}
