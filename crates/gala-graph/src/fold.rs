//! The host's one neighbour-community accumulator.
//!
//! Every Louvain-family pass sums arc weights per neighbouring community
//! of a vertex (or, in phase 2, of a community's members). Native decide,
//! the contraction's rows, the sequential sweep behind sequential Louvain
//! and Leiden, and label propagation all do it on the thread's [`Fold`],
//! each with its own loop and filter.
//!
//! A fold finds a community's entry through one dense `u32` index over
//! the pass's id space: one gather per arc, and no clear of the id space,
//! since [`Fold::finish`] empties the index through the candidates. A GPU
//! splits this step by degree because a warp holds at most 32 candidates
//! and shared memory bounds a hashtable; a host thread has neither limit.
//! The index is the thread's, not a pool chunk's: it costs 4 bytes per id
//! of the largest id space the thread has served (600 KB at 150 k ids).
//!
//! Candidates are listed in first-occurrence order, and each community's
//! weight is summed in add order: the *canonical accumulation order* the
//! simulated GPU kernels reproduce, so every path agrees bit for bit.

use crate::partition::CommunityId;
use std::cell::RefCell;

/// An index entry whose community has no candidate.
const EMPTY: u32 = u32::MAX;

/// Order-preserving community accumulation, reused across folds, passes
/// and levels. `index[c]` is community `c`'s position in `cands` while a
/// fold is open and `EMPTY` between folds; it keeps the size of the
/// largest id space it has served.
#[derive(Debug, Default)]
pub struct Fold {
    cands: Vec<(CommunityId, f64)>,
    index: Vec<u32>,
    /// The candidates' ids, sorted by [`Fold::finish_sorted`].
    ids: Vec<CommunityId>,
}

impl Fold {
    /// Opens a fold over community ids below `ids`, dropping the previous
    /// fold's candidates. The previous fold must have been finished.
    #[inline]
    pub fn begin(&mut self, ids: usize) {
        if self.index.len() < ids {
            self.index.resize(ids, EMPTY);
        }
        self.cands.clear();
    }

    /// Adds weight `w` to community `c`.
    #[inline]
    pub fn add(&mut self, c: CommunityId, w: f64) {
        let pos = &mut self.index[c as usize];
        if *pos == EMPTY {
            *pos = self.cands.len() as u32;
            self.cands.push((c, w));
        } else {
            self.cands[*pos as usize].1 += w;
        }
    }

    /// The weight added to `c` in the open fold, if any.
    #[inline]
    pub fn get(&self, c: CommunityId) -> Option<f64> {
        match self.index[c as usize] {
            EMPTY => None,
            pos => Some(self.cands[pos as usize].1),
        }
    }

    /// The fold's `(community, weight)` candidates, in first-occurrence
    /// order.
    #[inline]
    pub fn candidates(&self) -> &[(CommunityId, f64)] {
        &self.cands
    }

    /// Closes the fold: empties the index through the candidates, which
    /// stay readable until the next [`Fold::begin`].
    #[inline]
    pub fn finish(&mut self) -> &[(CommunityId, f64)] {
        for &(c, _) in &self.cands {
            self.index[c as usize] = EMPTY;
        }
        &self.cands
    }

    /// Closes the fold like [`Fold::finish`], appending the candidates to
    /// `out` in ascending community order; returns their count. Sorting
    /// the 4-byte ids and gathering their weights beats sorting the
    /// 16-byte pairs by about a fifth of a contraction row's cost.
    pub fn finish_sorted(&mut self, out: &mut Vec<(CommunityId, f64)>) -> usize {
        self.ids.clear();
        self.ids.extend(self.cands.iter().map(|&(c, _)| c));
        self.ids.sort_unstable();
        for &c in &self.ids {
            out.push((c, self.cands[self.index[c as usize] as usize].1));
        }
        self.finish().len()
    }

    /// Whether every index entry is empty, as between folds. Costs the id
    /// space; for checks.
    pub fn is_closed(&self) -> bool {
        self.index.iter().all(|&pos| pos == EMPTY)
    }
}

thread_local! {
    /// The calling thread's fold: one per pool participant, reused by
    /// every pass the thread takes part in.
    static FOLD: RefCell<Fold> = RefCell::new(Fold::default());
}

/// Runs `f` on the calling thread's [`Fold`]. `f` must not call
/// `with_fold` again.
#[inline]
pub fn with_fold<R>(f: impl FnOnce(&mut Fold) -> R) -> R {
    FOLD.with(|fold| f(&mut fold.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_in_add_order_and_lists_first_occurrences() {
        let mut fold = Fold::default();
        fold.begin(8);
        for (c, w) in [(5, 0.1), (2, 1.0), (5, 0.2), (7, 3.0), (2, 0.5)] {
            fold.add(c, w);
        }
        assert_eq!(fold.get(5), Some(0.1 + 0.2));
        assert_eq!(fold.get(3), None);
        assert_eq!(
            fold.candidates(),
            &[(5, 0.1 + 0.2), (2, 1.0 + 0.5), (7, 3.0)]
        );
        let mut sorted = vec![(9, 9.0)];
        assert_eq!(fold.finish_sorted(&mut sorted), 3);
        assert!(fold.is_closed());
        assert_eq!(sorted, &[(9, 9.0), (2, 1.5), (5, 0.1 + 0.2), (7, 3.0)]);
    }

    #[test]
    fn a_smaller_id_space_reuses_the_index() {
        let mut fold = Fold::default();
        fold.begin(100);
        fold.add(99, 1.0);
        fold.finish();
        fold.begin(3);
        fold.add(2, 1.0);
        fold.add(0, 2.0);
        assert_eq!(fold.candidates(), &[(2, 1.0), (0, 2.0)]);
        fold.finish();
        assert!(fold.is_closed());
        assert_eq!(fold.index.len(), 100);
    }
}
