//! Offline vendored subset of the `rayon` API.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the slice of `rayon` it uses: `par_iter` / `into_par_iter` over slices,
//! `Vec`s and integer ranges, with `map`, `filter`, `fold` + `reduce`,
//! `sum`, `collect`, and `for_each`, plus `join`.
//!
//! Unlike the original shim — which spawned fresh `std::thread::scope`
//! threads and deep-copied items into owned `Vec<Vec<T>>` chunks on every
//! call — pipelines over slices and ranges are **lazy and zero-copy**:
//! adaptors stack up a [`Source`] (a pure `index → item` view over borrowed
//! data, no `T: Clone` required), and the terminal operation runs it over
//! the persistent work-stealing pool in `pool`, writing each result
//! directly into its final output slot. Outputs are always in input order,
//! `fold`/`reduce` see the same chunked shape rayon's splitter would
//! produce, and floating-point `sum` is accumulated sequentially in input
//! order so results are identical at every thread count.
//!
//! Parallelism is configured once per process: `GALA_THREADS` (default
//! [`std::thread::available_parallelism`]) sets the pool width and
//! `GALA_MIN_PAR_LEN` the length below which pipelines run sequentially;
//! [`with_parallelism`] overrides the level on the current thread (used by
//! benchmarks and tests to sweep thread counts in one process).
//!
//! Owned `Vec<T>` pipelines ([`ParVec`], from `vec.into_par_iter()`) have
//! no borrowed backing store and sit on cold paths here, so they evaluate
//! eagerly and sequentially.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{
    configured_threads, current_parallelism, min_par_len, pool_workers, with_parallelism,
};

use std::iter::Sum;
use std::sync::Mutex;

/// A pure, random-access view of a parallel pipeline: `get(i)` computes the
/// pipeline's `i`-th item. Stacked adaptors (e.g. [`ParIter::map`]) wrap the
/// source rather than materialising intermediate vectors.
pub trait Source: Sync {
    /// The item produced for each index.
    type Item: Send;
    /// Number of items in the pipeline.
    fn len(&self) -> usize;
    /// Whether the pipeline is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Computes the item at `index` (must be `< len()`).
    fn get(&self, index: usize) -> Self::Item;
}

/// Borrowed-slice source: items are `&T`, nothing is cloned.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Source for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// Integer-range source (`start + index`).
pub struct RangeSource<N> {
    start: N,
    len: usize,
}

macro_rules! range_source {
    ($($t:ty),*) => {$(
        impl Source for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn get(&self, index: usize) -> $t {
                self.start + index as $t
            }
        }

        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeSource<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = usize::try_from(self.end.saturating_sub(self.start))
                    .expect("range too large for a parallel iterator");
                ParIter {
                    source: RangeSource { start: self.start, len },
                }
            }
        }
    )*};
}

range_source!(u8, u16, u32, u64, usize);

macro_rules! range_source_signed {
    ($($t:ty),*) => {$(
        impl Source for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn get(&self, index: usize) -> $t {
                self.start + index as $t
            }
        }

        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeSource<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = if self.end > self.start {
                    usize::try_from(self.end as i128 - self.start as i128)
                        .expect("range too large for a parallel iterator")
                } else {
                    0
                };
                ParIter {
                    source: RangeSource { start: self.start, len },
                }
            }
        }
    )*};
}

range_source_signed!(i8, i16, i32, i64, isize);

/// Mapped source: applies `f` on item access.
pub struct MapSource<S, F> {
    source: S,
    f: F,
}

impl<S, F, R> Source for MapSource<S, F>
where
    S: Source,
    R: Send,
    F: Fn(S::Item) -> R + Sync,
{
    type Item = R;
    fn len(&self) -> usize {
        self.source.len()
    }
    fn get(&self, index: usize) -> R {
        (self.f)(self.source.get(index))
    }
}

/// A lazy stand-in for rayon's parallel iterator over indexable data
/// (slices, ranges, and `map`s thereof). Terminal operations run on the
/// persistent pool, writing results straight into the output buffer.
pub struct ParIter<S> {
    source: S,
}

impl<S: Source> ParIter<S> {
    /// Applies `f` to every item in parallel, preserving order. Lazy: the
    /// closure runs when a terminal operation drives the pipeline.
    pub fn map<R, F>(self, f: F) -> ParIter<MapSource<S, F>>
    where
        R: Send,
        F: Fn(S::Item) -> R + Sync,
    {
        ParIter {
            source: MapSource {
                source: self.source,
                f,
            },
        }
    }

    /// Keeps the items satisfying `pred` (items are computed in parallel,
    /// the filter itself is applied in input order).
    pub fn filter<F>(self, pred: F) -> ParVec<S::Item>
    where
        F: Fn(&S::Item) -> bool + Sync,
    {
        let src = self.source;
        let items = pool::par_collect_indexed(src.len(), &|i| src.get(i));
        ParVec {
            items: items.into_iter().filter(|x| pred(x)).collect(),
        }
    }

    /// Chunk-wise fold: returns a parallel iterator over one accumulator
    /// per chunk, in input order (rayon's `fold` contract).
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParVec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, S::Item) -> A + Sync,
    {
        let src = self.source;
        let len = src.len();
        if pool::run_sequential(len) {
            let mut acc = identity();
            for i in 0..len {
                acc = fold_op(acc, src.get(i));
            }
            return ParVec { items: vec![acc] };
        }
        let chunk_len = pool::chunk_len_for(len);
        let num_chunks = len.div_ceil(chunk_len);
        let accs: Vec<Mutex<Option<A>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
        pool::execute(num_chunks, &|c| {
            let lo = c * chunk_len;
            let hi = ((c + 1) * chunk_len).min(len);
            let mut acc = identity();
            for i in lo..hi {
                acc = fold_op(acc, src.get(i));
            }
            *accs[c].lock().expect("fold accumulator poisoned") = Some(acc);
        });
        ParVec {
            items: accs
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("fold accumulator poisoned")
                        .expect("fold chunk never ran")
                })
                .collect(),
        }
    }

    /// Reduces all items to one value with an associative operation.
    pub fn reduce<ID, F>(self, identity: ID, reduce_op: F) -> S::Item
    where
        ID: Fn() -> S::Item + Sync,
        F: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        let src = self.source;
        let items = pool::par_collect_indexed(src.len(), &|i| src.get(i));
        items.into_iter().fold(identity(), reduce_op)
    }

    /// Sums the items. Items are computed in parallel but accumulated
    /// sequentially in input order, so floating-point sums are identical at
    /// every thread count.
    pub fn sum<Y>(self) -> Y
    where
        Y: Sum<S::Item>,
    {
        let src = self.source;
        let items = pool::par_collect_indexed(src.len(), &|i| src.get(i));
        items.into_iter().sum()
    }

    /// Collects the items in input order. For `Vec` targets each item is
    /// written directly into its final slot on the worker that computed it.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<S::Item>,
    {
        let src = self.source;
        let items = pool::par_collect_indexed(src.len(), &|i| src.get(i));
        C::from_iter(items)
    }

    /// Collects into `out`, reusing its allocation (cleared first). The
    /// scratch-buffer counterpart of [`ParIter::collect`].
    pub fn collect_into_vec(self, out: &mut Vec<S::Item>) {
        let src = self.source;
        pool::par_produce_accum(src.len(), out, &|| (), &|i, _| src.get(i));
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync,
    {
        let src = self.source;
        pool::par_for_each_index(src.len(), &|i| f(src.get(i)));
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.source.len()
    }
}

/// An eagerly-evaluated parallel iterator over owned items — the result of
/// `Vec::into_par_iter`, `filter`, or `fold`. Owned items
/// cannot be re-produced from a borrowed backing store without forcing
/// `T: Clone` on callers, and every workspace use sits on a cold path, so
/// adaptors here run sequentially.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    /// Applies `f` to every item, preserving order.
    pub fn map<R, F>(self, f: F) -> ParVec<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParVec {
            items: self.items.into_iter().map(f).collect(),
        }
    }

    /// Keeps the items satisfying `pred`.
    pub fn filter<F>(self, pred: F) -> ParVec<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        ParVec {
            items: self.items.into_iter().filter(|x| pred(x)).collect(),
        }
    }

    /// Chunk-wise fold (a single chunk here; see rayon's `fold` contract).
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParVec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        ParVec {
            items: vec![self.items.into_iter().fold(identity(), fold_op)],
        }
    }

    /// Reduces all items to one value with an associative operation.
    pub fn reduce<ID, F>(self, identity: ID, reduce_op: F) -> T
    where
        ID: Fn() -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        self.items.into_iter().fold(identity(), reduce_op)
    }

    /// Sums the items in input order.
    pub fn sum<Y>(self) -> Y
    where
        Y: Sum<T>,
    {
        self.items.into_iter().sum()
    }

    /// Collects the items in input order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }

    /// Runs `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        self.items.into_iter().for_each(f);
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Shim extension used by `gala_gpu::grid`: maps `items` through `f` with a
/// per-chunk accumulator, writing outputs **directly into `out`** (cleared
/// and reused) in input order. Returns the chunk accumulators in chunk
/// order — reduce them once at the end instead of merging per item.
pub fn par_map_accum_into<T, R, A, ID, F>(
    items: &[T],
    out: &mut Vec<R>,
    identity: ID,
    f: F,
) -> Vec<A>
where
    T: Sync,
    R: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(&T, &mut A) -> R + Sync,
{
    if pool::run_sequential(items.len()) {
        return map_accum_sequential(items, out, identity, f);
    }
    let chunk_len = pool::chunk_len_for(items.len());
    pool::produce_chunks(items.len(), chunk_len, out, &identity, &|i, acc| {
        f(&items[i], acc)
    })
}

/// [`par_map_accum_into`] over items of uneven weight: `cost` is their
/// total weight, in the units [`min_par_len`] counts. Only the cost
/// decides: whenever it reaches the threshold the items split into about
/// four chunks per pool participant, however few they are, so a short
/// list of heavy items still spreads over the pool.
pub fn par_map_costed_accum_into<T, R, A, ID, F>(
    items: &[T],
    cost: usize,
    out: &mut Vec<R>,
    identity: ID,
    f: F,
) -> Vec<A>
where
    T: Sync,
    R: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(&T, &mut A) -> R + Sync,
{
    if pool::run_sequential(cost) {
        return map_accum_sequential(items, out, identity, f);
    }
    let chunk_len = pool::even_chunk_len(items.len());
    pool::produce_chunks(items.len(), chunk_len, out, &identity, &|i, acc| {
        f(&items[i], acc)
    })
}

/// The sequential path of the accumulating maps. It stays statically
/// dispatched: for the small-input and single-thread cases the per-item
/// indirect call through the pool's `dyn Fn` interface would be the
/// dominant cost.
fn map_accum_sequential<T, R, A>(
    items: &[T],
    out: &mut Vec<R>,
    identity: impl Fn() -> A,
    f: impl Fn(&T, &mut A) -> R,
) -> Vec<A> {
    out.clear();
    out.reserve(items.len());
    let mut acc = identity();
    for item in items {
        out.push(f(item, &mut acc));
    }
    vec![acc]
}

/// Index-driven variant of [`par_map_accum_into`]: fills `out` with
/// `f(i, acc)` for `i` in `0..len`, writing each result directly into its
/// final slot. Used when the "items" are logical row indices (e.g. CSR rows)
/// rather than a materialised slice, so callers don't have to allocate an
/// index vector just to drive the pool.
pub fn par_map_indexed_accum_into<R, A, ID, F>(
    len: usize,
    out: &mut Vec<R>,
    identity: ID,
    f: F,
) -> Vec<A>
where
    R: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(usize, &mut A) -> R + Sync,
{
    if pool::run_sequential(len) {
        out.clear();
        out.reserve(len);
        let mut acc = identity();
        for i in 0..len {
            out.push(f(i, &mut acc));
        }
        return vec![acc];
    }
    pool::produce_chunks(len, pool::chunk_len_for(len), out, &identity, &f)
}

/// Maps every owned task through `f` across the pool, one task per pool
/// chunk, and returns the results in task order. Unlike the pipelines it
/// has no small-input fallback: callers size the task list themselves, so
/// a handful of heavy tasks (say, one slice of a text file each) still
/// spread over the pool. Tasks may carry disjoint `&mut` borrows, such as
/// segments carved with `split_at_mut`; each is handed to its worker
/// through a take-once slot. Runs inline at parallelism 1.
pub fn par_map_tasks<I, R, F>(tasks: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    pool::execute(slots.len(), &|c| {
        let task = slots[c]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("task claimed twice");
        *out[c].lock().expect("result slot poisoned") = Some(f(task));
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("task finished without storing its result")
        })
        .collect()
}

/// Runs `a` and `b` as two pool tasks and returns both results, as
/// `rayon::join` does: the calling thread takes `a`, a pool worker `b`
/// (the caller runs it too if no worker has claimed it by then). Returns
/// only once both have finished. Runs inline, `a` first, at parallelism 1.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    pool::execute(2, &|c| {
        if c == 0 {
            let f = a.lock().expect("task slot poisoned").take();
            *ra.lock().expect("result slot poisoned") = f.map(|f| f());
        } else {
            let f = b.lock().expect("task slot poisoned").take();
            *rb.lock().expect("result slot poisoned") = f.map(|f| f());
        }
    });
    let done = "task finished without storing its result";
    (
        ra.into_inner().expect("result slot poisoned").expect(done),
        rb.into_inner().expect("result slot poisoned").expect(done),
    )
}

/// Cuts the rows of a CSR offset array (`bounds`: `rows + 1` monotone
/// entries, from 0 to the entry count) into `num_chunks` contiguous ranges
/// of near-equal entry count, found by binary search, so a few heavy rows
/// don't serialise the work the way equal row counts would. Returns the
/// `num_chunks + 1` row positions between the ranges, from 0 to `rows`. A
/// row larger than a range's share leaves some ranges empty.
pub fn row_cuts(bounds: &[usize], num_chunks: usize) -> Vec<usize> {
    let rows = bounds.len().saturating_sub(1);
    let total = if rows == 0 { 0 } else { bounds[rows] };
    let num_chunks = num_chunks.max(1);
    let mut cuts = Vec::with_capacity(num_chunks + 1);
    cuts.push(0usize);
    for c in 1..num_chunks {
        let goal = total * c / num_chunks;
        let row = bounds.partition_point(|&b| b < goal).min(rows);
        cuts.push(row.max(cuts[c - 1]));
    }
    cuts.push(rows);
    cuts
}

/// [`par_map_accum_into`] into a fresh output vector.
pub fn par_map_accum<T, R, A, ID, F>(items: &[T], identity: ID, f: F) -> (Vec<R>, Vec<A>)
where
    T: Sync,
    R: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(&T, &mut A) -> R + Sync,
{
    let mut out = Vec::new();
    let accs = par_map_accum_into(items, &mut out, identity, f);
    (out, accs)
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The concrete iterator produced.
    type Iter;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            source: SliceSource { slice: self },
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        self.as_slice().into_par_iter()
    }
}

/// Borrowing conversion (`par_iter`), mirroring rayon's
/// `IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The element type (a reference).
    type Item: Send + 'data;
    /// The concrete iterator produced.
    type Iter;

    /// Returns a parallel iterator over references to `self`'s items.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Item = <&'data C as IntoParallelIterator>::Item;
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Common re-exports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter, ParVec, Source};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{min_par_len, with_parallelism};

    #[test]
    fn map_preserves_order_across_chunks() {
        // Large enough to cross the parallel threshold.
        let items: Vec<u64> = (0..100_000).collect();
        let doubled: Vec<u64> = with_parallelism(8, || items.par_iter().map(|&x| x * 2).collect());
        assert_eq!(doubled.len(), items.len());
        assert!(doubled.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn fold_reduce_matches_sequential() {
        let items: Vec<u64> = (0..50_000).collect();
        let total = with_parallelism(8, || {
            items
                .par_iter()
                .map(|&x| x)
                .fold(|| 0u64, |a, b| a + b)
                .reduce(|| 0u64, |a, b| a + b)
        });
        assert_eq!(total, items.iter().sum::<u64>());
    }

    #[test]
    fn ranges_and_sums() {
        let s: u64 = (0u64..1000).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn float_sum_is_identical_at_every_thread_count() {
        // Sequential in-order accumulation means not just "close", but
        // bit-for-bit equality across parallelism levels.
        let items: Vec<f64> = (0..40_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let sums: Vec<f64> = [1, 2, 8]
            .iter()
            .map(|&k| with_parallelism(k, || items.par_iter().map(|&x| x * 1.5).sum::<f64>()))
            .collect();
        assert_eq!(sums[0].to_bits(), sums[1].to_bits());
        assert_eq!(sums[0].to_bits(), sums[2].to_bits());
    }

    #[test]
    fn borrowed_pipeline_needs_no_clone() {
        // `NoClone` has no `Clone` impl: the seed shim's owned chunking
        // could not have compiled this.
        struct NoClone(u64);
        let items: Vec<NoClone> = (0..5000).map(NoClone).collect();
        let out: Vec<u64> = with_parallelism(4, || items.par_iter().map(|x| x.0 + 1).collect());
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn collect_into_vec_reuses_allocation() {
        let items: Vec<u32> = (0..20_000).collect();
        let mut out: Vec<u32> = Vec::with_capacity(items.len());
        out.extend(std::iter::repeat_n(7, items.len()));
        let ptr_before = out.as_ptr();
        with_parallelism(4, || {
            items.par_iter().map(|&x| x * 3).collect_into_vec(&mut out);
        });
        assert_eq!(out.as_ptr(), ptr_before, "buffer was reallocated");
        assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i as u32));
    }

    #[test]
    fn par_map_accum_outputs_in_order_accs_per_chunk() {
        let items: Vec<u64> = (0..30_000).collect();
        let (out, accs) = with_parallelism(4, || {
            super::par_map_accum(
                &items,
                || 0u64,
                |&x, acc: &mut u64| {
                    *acc += 1;
                    x * 2
                },
            )
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
        assert_eq!(accs.iter().sum::<u64>(), items.len() as u64);
        assert!(accs.len() > 1, "expected multiple chunks at parallelism 4");
    }

    #[test]
    fn costed_map_splits_a_short_heavy_list() {
        // 100 items, far below the length threshold, whose cost reaches it.
        let items: Vec<u64> = (0..100).collect();
        let run = |width| {
            let mut out = Vec::new();
            let accs = with_parallelism(width, || {
                super::par_map_costed_accum_into(
                    &items,
                    min_par_len(),
                    &mut out,
                    || 0u64,
                    |&x, acc: &mut u64| {
                        *acc += 1;
                        x * x
                    },
                )
            });
            assert_eq!(accs.iter().sum::<u64>(), items.len() as u64);
            (out, accs.len())
        };
        let (sequential, _) = run(1);
        assert!(sequential
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i * i) as u64));
        let (pooled, chunks) = run(2);
        assert!(chunks > 1, "{chunks} accumulator(s) at width 2");
        assert_eq!(pooled, sequential);
        assert_eq!(run(8).0, sequential);
    }

    #[test]
    fn for_each_visits_every_item() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let items: Vec<u64> = (0..10_000).collect();
        let total = AtomicU64::new(0);
        with_parallelism(4, || {
            items.par_iter().for_each(|&x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), items.iter().sum::<u64>());
    }

    #[test]
    fn par_map_indexed_accum_matches_sequential() {
        let mut out: Vec<u64> = Vec::new();
        let accs = with_parallelism(4, || {
            super::par_map_indexed_accum_into(
                30_000,
                &mut out,
                || 0u64,
                |i, acc: &mut u64| {
                    *acc += 1;
                    (i as u64) * 5
                },
            )
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 5 * i as u64));
        assert_eq!(accs.iter().sum::<u64>(), 30_000);
    }

    #[test]
    fn par_map_tasks_returns_results_in_task_order() {
        for width in [1, 2, 8] {
            let mut slots = vec![0usize; 13];
            let tasks: Vec<(usize, &mut usize)> = slots.iter_mut().enumerate().collect();
            let out = with_parallelism(width, || {
                super::par_map_tasks(tasks, |(c, slot)| {
                    *slot = c + 1;
                    c * c
                })
            });
            assert_eq!(out, (0..13).map(|c| c * c).collect::<Vec<_>>());
            assert_eq!(slots, (1..14).collect::<Vec<_>>());
        }
    }

    #[test]
    fn join_runs_both_closures_with_disjoint_borrows() {
        for level in [1usize, 2, 8] {
            let (mut left, mut right) = (0u64, 0u64);
            let (a, b) = with_parallelism(level, || {
                super::join(
                    || {
                        left = (1..=100).sum();
                        "a"
                    },
                    || {
                        right = (1..=10).product();
                        7
                    },
                )
            });
            assert_eq!((a, b, left, right), ("a", 7, 5050, 3_628_800));
        }
    }

    #[test]
    fn row_cuts_cover_every_row_once_in_order() {
        let bounds = [0usize, 2, 2, 7, 8, 8, 12];
        for num_chunks in [1, 2, 3, 10] {
            let cuts = super::row_cuts(&bounds, num_chunks);
            assert_eq!(cuts.len(), num_chunks + 1);
            assert_eq!((cuts[0], cuts[num_chunks]), (0, 6));
            assert!(cuts.windows(2).all(|p| p[0] <= p[1]));
        }
        // Balanced by entries: each cut is the first row that starts at or
        // past its third of the 12 entries (4 and 8).
        assert_eq!(super::row_cuts(&bounds, 3), vec![0, 3, 4, 6]);
        assert_eq!(super::row_cuts(&[0], 4), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn filter_and_count() {
        let items: Vec<u32> = (0..5000).collect();
        let evens: Vec<u32> = items
            .par_iter()
            .map(|&x| x)
            .filter(|x| x % 2 == 0)
            .collect();
        assert_eq!(evens.len(), 2500);
        assert_eq!(items.par_iter().count(), 5000);
    }
}
