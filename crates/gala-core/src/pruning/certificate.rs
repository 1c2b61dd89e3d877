//! Stay certificates: the second half of the `mgd` policy's mask (see the
//! "Stay certificates" section of [`super`] for the soundness argument),
//! and the frontier they leave.
//!
//! A certificate is one `f32` per vertex, the *expiry* `E_v` on a
//! per-round drift clock `K`. Classify writes it for every vertex the MG
//! bound prunes and the decide fold for every vertex it evaluates
//! ([`Certificates::record`]); the weight update advances the clock and
//! clears the neighbours of every mover ([`Certificates::settle`],
//! [`Certificates::invalidate`]); `classify` skips a vertex while
//! `K < E_v` ([`Certificates::holds`]). `E_v = 0` is "no certificate", and
//! an empty table is *disarmed*: nothing is recorded and nothing holds.
//!
//! The table also keeps the *frontier*: every vertex whose certificate
//! does not hold, which is all classify has to look at. While it is
//! *dense*, at least `1/DENSE` of the vertices, it is simply every vertex:
//! classify tests each, as a full scan would, and the frontier costs
//! nothing to keep. Once classify finds it sparse, the weight update
//! lists it instead, sorted: the last list's vertices that still hold no
//! certificate, the certificates that expired (popped from a queue
//! ordered by expiry) and the ones the walk invalidated
//! ([`Certificates::admit`]). That costs O(frontier + expired) per
//! superstep, plus one pass over the table on entering the sparse state.
//!
//! Every write during a pass stores either a vertex's own slot (classify
//! and the fold) or the value 0 (invalidation), so the table after a pass
//! is the same at every pool width, and so is the frontier. Relaxed
//! atomics make the concurrent stores of 0 into one slot well defined;
//! they compile to plain loads and stores. Relaxed is enough: a slot
//! publishes no other data, and the pool joins every worker at the end of
//! a pass, which orders one pass's stores before the next pass's loads.

use crate::state::{BspState, MoveSummary};
use gala_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};

/// Relative slack taken off every margin before it becomes a budget: the
/// margin loses `SLACK·(1 + γ + 10⁻⁶·deg(v))·d_v`. That is many orders
/// above the rounding of the two gain scores a decide margin compares,
/// each within `6·2⁻⁵³·(1 + γ)·d_v` of its value on the summed weights,
/// of the weight sums themselves, each within `deg(v)·2⁻⁵³·d_v` of exact,
/// and of the MG bound's left-hand side, within `20·2⁻⁵³·(1 + γ)·d_v` of
/// its value on the stored state.
const SLACK: f64 = 1e-9;

/// Per-vertex stay certificates of one phase-1 round, and the frontier of
/// vertices that hold none.
#[derive(Debug, Default)]
pub(crate) struct Certificates {
    /// `E_v` as `f32` bits per vertex; empty while disarmed.
    expiry: Vec<AtomicU32>,
    /// The drift clock `K`: an upper bound on how far any community total
    /// rose plus how far any fell, summed over the round's supersteps.
    clock: f64,
    /// `clock` rounded up to `f32`, the value `holds` compares against.
    now: f32,
    /// How far the last superstep advanced the clock; `∞` after a clear.
    drift: f64,
    /// Whether the frontier is every vertex; `list` is unused then.
    dense: bool,
    /// The frontier otherwise, ascending.
    list: Vec<VertexId>,
    /// How many vertices classify last found without a certificate, and
    /// how many of those the MG bound pruned without classify recording
    /// their certificates ([`Self::records_bound`]).
    seen: AtomicUsize,
    could: AtomicUsize,
    /// Whether classify records the MG bound's certificates.
    bound: bool,
    /// The next superstep's frontier as a bitset (bit `v % 64` of word
    /// `v / 64`) while the weight update lists it, all zero otherwise.
    next: Vec<u64>,
    /// The certificates that held when the frontier was last listed;
    /// empty while the frontier is dense.
    queue: ExpiryQueue,
    /// Full clears and certificates found expired, for the tests.
    #[cfg(test)]
    pub(crate) counts: (u64, u64),
}

/// A frontier of at least `1/DENSE` of the vertices is followed by testing
/// every vertex rather than by listing it; a listed one goes back to that
/// at twice the size, so a frontier near the bound does not flip between
/// the two every superstep.
const DENSE: usize = 16;

/// What [`Certificates::settle`] leaves the weight update's walk over the
/// movers' arcs to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// The table is disarmed: no certificate to clear.
    Disarmed,
    /// The superstep was heavy and every certificate was cleared: the walk
    /// has nothing to clear, and a full rescan is the cheaper update.
    Cleared,
    /// The walk must clear the movers' neighbours, listing them for
    /// [`Certificates::admit`] while the frontier is listed
    /// ([`Certificates::lists`]).
    Walk,
}

/// The vertices classify has to evaluate: every vertex, or a sorted list.
pub(crate) enum Frontier<'a> {
    All(usize),
    List(&'a [VertexId]),
}

impl Certificates {
    /// Arms an empty table of `n` vertices and restarts the clock: the
    /// start of a round. The frontier is every vertex.
    pub(crate) fn arm(&mut self, n: usize) {
        self.expiry.clear();
        self.expiry.resize_with(n, || AtomicU32::new(0));
        self.next.clear();
        self.next.resize(n.div_ceil(64), 0);
        self.clock = 0.0;
        self.now = 0.0;
        self.drift = 0.0;
        // Superstep 0 decides every vertex and classifies none.
        self.saw(n, 0);
        self.reset_frontier();
    }

    /// Disarms the table, keeping its allocations.
    pub(crate) fn disarm(&mut self) {
        self.expiry.clear();
        self.next.clear();
        self.reset_frontier();
    }

    /// `Some(self)` when armed: what classify and the decide fold record
    /// into.
    pub(crate) fn armed(&self) -> Option<&Self> {
        (!self.expiry.is_empty()).then_some(self)
    }

    /// Every vertex whose certificate does not hold, or every vertex while
    /// the frontier is dense.
    pub(crate) fn frontier(&self) -> Frontier<'_> {
        if self.dense {
            Frontier::All(self.expiry.len())
        } else {
            Frontier::List(&self.list)
        }
    }

    /// Classify's count of the vertices it found without a certificate,
    /// the size of the frontier, and of those the bound pruned without a
    /// certificate being recorded: what [`Self::settle`] judges the
    /// frontier by.
    pub(crate) fn saw(&self, uncertified: usize, could: usize) {
        self.seen.store(uncertified, Relaxed);
        self.could.store(could, Relaxed);
    }

    /// Whether classify records the MG bound's certificates: always while
    /// the frontier is listed, and while it is dense, only once recording
    /// them would bring it near listing. Until then a scan proves the
    /// bound as cheaply as a certificate spares it, and recording only
    /// adds stores.
    pub(crate) fn records_bound(&self) -> bool {
        self.bound
    }

    /// Whether the walk has to list the vertices it invalidates: whether
    /// the frontier is listed.
    pub(crate) fn lists(&self) -> bool {
        !self.dense
    }

    /// Whether `v` provably stays in its community this superstep. An
    /// expiry is never NaN, so a certificate that does not hold is one
    /// whose expiry is at most the clock.
    #[inline]
    pub(crate) fn holds(&self, v: VertexId) -> bool {
        self.expiry_of(v) > self.now
    }

    #[inline]
    fn expiry_of(&self, v: VertexId) -> f32 {
        f32::from_bits(self.expiry[v as usize].load(Relaxed))
    }

    /// Records a margin by which `v` stays: the stay score minus the best
    /// foreign score when the fold decided `v`
    /// ([`crate::kernels::choose_with_margin`]), or the MG bound's
    /// left-hand side when classify pruned it ([`super::gain::margin`]);
    /// `+∞` when `v` has nowhere to go. A margin at or below the slack —
    /// every move, tie and singleton-guard stay — clears the slot.
    #[inline]
    pub(crate) fn record(&self, v: VertexId, margin: f64, graph: &Graph, state: &BspState) {
        let d_v = graph.degree_w(v);
        let slack = SLACK * (1.0 + state.resolution + 1e-6 * graph.degree(v) as f64) * d_v;
        let expiry = if margin == f64::INFINITY {
            f32::INFINITY
        } else if margin > slack {
            let budget = (margin - slack) * state.m2 / (state.resolution * d_v);
            // One f32 step below the nearest value absorbs the f64
            // rounding of `budget` and of the sum.
            ((self.clock + budget) as f32).next_down()
        } else {
            0.0
        };
        self.expiry[v as usize].store(expiry.to_bits(), Relaxed);
    }

    /// Whether a certificate for the MG bound's `margin` would outlast a
    /// superstep that drifts as far as the last one; none would right
    /// after a clear. [`Self::record`] is only worth it for one that does.
    #[inline]
    pub(crate) fn lasts(&self, v: VertexId, margin: f64, graph: &Graph, state: &BspState) -> bool {
        margin * state.m2 > self.drift * state.resolution * graph.degree_w(v)
    }

    /// Clears `u`'s certificate: a neighbour of `u` changed community, and
    /// not into `u`'s. Returns whether the slot held one, in which case
    /// `u` has to join the frontier ([`Self::admit`]); a slot already 0
    /// belongs to a vertex the frontier has.
    /// The load first keeps a slot that holds nothing out of the other
    /// workers' caches: a store would claim its cache line.
    #[inline]
    pub(crate) fn invalidate(&self, u: VertexId) -> bool {
        let slot = &self.expiry[u as usize];
        let held = slot.load(Relaxed) != 0;
        if held {
            slot.store(0, Relaxed);
        }
        held
    }

    /// Clears every certificate: a superstep whose weight update walks no
    /// mover's adjacency, or whose walk is not worth it ([`Self::settle`]).
    /// The frontier is every vertex again.
    pub(crate) fn clear(&mut self) {
        self.expiry.iter_mut().for_each(|e| *e.get_mut() = 0);
        self.drift = f64::INFINITY;
        self.reset_frontier();
        #[cfg(test)]
        {
            self.counts.0 += 1;
        }
    }

    /// Makes the frontier every vertex and empties the queue.
    fn reset_frontier(&mut self) {
        self.dense = true;
        self.bound = false;
        self.list.clear();
        self.queue.clear();
    }

    /// Puts `v` in the next frontier.
    #[inline]
    fn enter(&mut self, v: VertexId) {
        self.next[v as usize / 64] |= 1 << (v % 64);
    }

    /// Takes the table past the superstep `summary` applied, whose movers
    /// hold `moved_arcs` of the graph's arcs, and says what that leaves
    /// the weight update's walk over those arcs to do ([`Settled`]).
    ///
    /// It is cleared when the movers hold at least `1/HEAVY` of the arcs.
    /// Such a superstep advances the clock by at least about `2·m2/HEAVY`
    /// (exactly so on unit weights), which expires nearly every finite
    /// certificate anyway, and one pass over the table costs less than a
    /// random access per arc. On the four benchmark workloads, clearing
    /// these supersteps instead of walking them changed the decide
    /// evaluations by less than 0.01%.
    ///
    /// Otherwise, while the frontier stays dense, only the clock moves.
    /// Once it is listed, the next list starts from the last one: its
    /// vertices that still hold no certificate stay, and the certificates
    /// classify and decide recorded for the others join the expiry queue.
    /// Then every certificate the clock's advance expired joins it. The
    /// queue is refilled from the table once it holds more than `2n`
    /// entries. In the superstep in which classify first finds the
    /// frontier sparse, one pass over the table lists it and fills the
    /// queue.
    pub(crate) fn settle(
        &mut self,
        graph: &Graph,
        summary: &MoveSummary,
        moved_arcs: u64,
        m2: f64,
    ) -> Settled {
        const HEAVY: u64 = 4;
        if self.expiry.is_empty() {
            return Settled::Disarmed;
        }
        if HEAVY * moved_arcs >= graph.num_arcs() as u64 {
            self.clear();
            return Settled::Cleared;
        }
        self.advance(graph, summary, m2);
        let n = self.expiry.len();
        if self.dense {
            let seen = self.seen.load(Relaxed);
            if DENSE * seen >= n {
                let frontier = seen - self.could.load(Relaxed);
                self.bound = DENSE * frontier < 2 * n;
                return Settled::Walk;
            }
            self.dense = false;
            self.bound = true;
            let now = self.now;
            for (word, slots) in self.next.iter_mut().zip(self.expiry.chunks(64)) {
                for (bit, slot) in slots.iter().enumerate() {
                    if f32::from_bits(slot.load(Relaxed)) <= now {
                        *word |= 1 << bit;
                    }
                }
            }
            self.requeue();
            return Settled::Walk;
        }
        let list = std::mem::take(&mut self.list);
        for &v in &list {
            let e = self.expiry_of(v);
            if e <= self.now {
                self.enter(v);
            } else if e.is_finite() {
                self.queue.push(e.to_bits(), v);
            }
        }
        self.list = list;
        let mut queue = std::mem::take(&mut self.queue);
        let expiry = &self.expiry;
        let key = |v: VertexId| expiry[v as usize].load(Relaxed);
        let (now, next) = (self.now, &mut self.next);
        #[cfg(test)]
        let counts = &mut self.counts;
        queue.pop_through(now.to_bits(), key, |v| {
            if f32::from_bits(expiry[v as usize].load(Relaxed)) <= now {
                next[v as usize / 64] |= 1 << (v % 64);
                #[cfg(test)]
                {
                    counts.1 += u64::from(expiry[v as usize].load(Relaxed) != 0);
                }
            }
        });
        self.queue = queue;
        if self.queue.len() > 2 * n {
            self.requeue();
        }
        Settled::Walk
    }

    /// Ends the superstep [`Self::settle`] began a walk for: the vertices
    /// the walk invalidated join the listed frontier, which then replaces
    /// the last one; a list of at least `2/DENSE` of the vertices makes
    /// the frontier dense again.
    pub(crate) fn admit<'a>(&mut self, invalidated: impl IntoIterator<Item = &'a VertexId>) {
        if self.dense {
            return;
        }
        for &v in invalidated {
            self.enter(v);
        }
        self.list.clear();
        for (w, word) in self.next.iter_mut().enumerate() {
            while *word != 0 {
                self.list.push((w * 64) as VertexId + word.trailing_zeros());
                *word &= *word - 1;
            }
        }
        if DENSE * self.list.len() >= 2 * self.expiry.len() {
            self.reset_frontier();
        }
    }

    /// Refills the queue with exactly the certificates that hold and can
    /// expire.
    fn requeue(&mut self) {
        let now = self.now;
        let live = self.expiry.iter().enumerate().filter_map(|(v, e)| {
            let e = f32::from_bits(e.load(Relaxed));
            (e > now && e.is_finite()).then_some((e.to_bits(), v as VertexId))
        });
        self.queue.refill(now.to_bits(), live);
    }

    /// Advances the clock past the superstep `summary` applied. A mover of
    /// degree `d_u` raises one total and lowers another by `d_u`, so
    /// `2·Σ d_u` bounds any rise plus any fall; each of the `2·moved`
    /// stored `d_tot` updates rounds by at most `2⁻⁵³·m2`, and the sum of
    /// the `d_u` by a relative `moved·2⁻⁵³`, both covered with room. The
    /// new clock is rounded up, so it never falls behind the exact sum.
    fn advance(&mut self, graph: &Graph, summary: &MoveSummary, m2: f64) {
        let moved = summary.num_moved() as f64;
        let degrees: f64 = summary
            .moves
            .iter()
            .map(|&(u, _, _)| graph.degree_w(u))
            .sum();
        let drift = (2.0 * degrees + 2.0 * moved * f64::EPSILON * m2) * (1.0 + 1e-6);
        self.clock = (self.clock + drift).next_up();
        self.drift = drift;
        let now = self.clock as f32;
        self.now = if (now as f64) < self.clock {
            now.next_up()
        } else {
            now
        };
    }
}

/// The vertices holding certificates that can expire, bucketed by expiry
/// as a radix heap whose keys live in the table. Positive finite `f32`s
/// order as their bits do, and the clock only advances, so every expiry
/// pushed is above `last`, the bound the queue was last popped through.
/// Bucket `i` holds vertices whose expiry's highest bit differing from
/// `last` is bit `i − 1`.
///
/// A vertex invalidated or recorded again since its push has a different
/// key in the table now; such an entry is stale, and popping it is
/// harmless, since a popped vertex joins the frontier only if its
/// certificate does not hold, and one that holds was pushed again. Keys
/// are read back only to place entries, so staleness never misplaces a
/// current entry.
#[derive(Debug)]
struct ExpiryQueue {
    last: u32,
    buckets: [Vec<VertexId>; 33],
    len: usize,
}

impl Default for ExpiryQueue {
    fn default() -> Self {
        Self {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            len: 0,
        }
    }
}

impl ExpiryQueue {
    fn bucket(last: u32, key: u32) -> usize {
        32 - (key ^ last).leading_zeros() as usize
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
        self.len = 0;
    }

    /// Replaces the contents with `entries`, whose expiries are above
    /// `floor`, sizing every bucket exactly.
    fn refill(&mut self, floor: u32, entries: impl Iterator<Item = (u32, VertexId)> + Clone) {
        self.clear();
        self.last = floor;
        let mut sizes = [0; 33];
        for (key, _) in entries.clone() {
            sizes[Self::bucket(self.last, key)] += 1;
        }
        for (bucket, size) in self.buckets.iter_mut().zip(sizes) {
            bucket.shrink_to(size);
            bucket.reserve_exact(size);
        }
        for (key, v) in entries {
            self.push(key, v);
        }
    }

    /// Queues `v`, whose expiry `key` is above `last`.
    fn push(&mut self, key: u32, v: VertexId) {
        debug_assert!(
            key > self.last,
            "expiry {key} at or below the queue's floor"
        );
        self.buckets[Self::bucket(self.last, key)].push(v);
        self.len += 1;
    }

    /// Pops every vertex whose expiry is at most `bound`, handing each to
    /// `f`, and maybe some stale ones; `key` reads a vertex's expiry from
    /// the table. Let bit `p` be the highest bit in which `bound` differs
    /// from `last`. Every current expiry in buckets `0..=p` has a 0 there
    /// where `bound` has a 1, so it is below `bound`; bucket `p + 1` holds
    /// the expiries that agree with `bound` from bit `p` up, split by
    /// reading them. The rest are above `bound` and keep their bucket when
    /// `bound` becomes `last`; the ones bucket `p + 1` keeps move to a
    /// lower bucket, so each entry moves at most 32 times.
    fn pop_through(
        &mut self,
        bound: u32,
        key: impl Fn(VertexId) -> u32,
        mut f: impl FnMut(VertexId),
    ) {
        if bound <= self.last {
            return;
        }
        let p = 31 - (self.last ^ bound).leading_zeros() as usize;
        for bucket in &mut self.buckets[..=p] {
            self.len -= bucket.len();
            bucket.drain(..).for_each(&mut f);
        }
        let split = std::mem::take(&mut self.buckets[p + 1]);
        self.len -= split.len();
        self.last = bound;
        for &v in &split {
            let k = key(v);
            if k <= bound {
                f(v);
            } else {
                self.push(k, v);
            }
        }
        // Hand the emptied allocation back.
        self.buckets[p + 1] = split;
        self.buckets[p + 1].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn disarmed_table_records_nothing() {
        let mut c = Certificates::default();
        assert!(c.armed().is_none());
        c.arm(3);
        assert!(c.armed().is_some());
        c.disarm();
        assert!(c.armed().is_none());
    }

    #[test]
    fn expiry_follows_margin_and_clock() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let mut c = Certificates::default();
        c.arm(g.num_vertices());
        // A tie, a move and a margin below the slack leave no certificate.
        for margin in [0.0, -1.0, 1e-12] {
            c.record(0, margin, &g, &s);
            assert!(!c.holds(0), "margin {margin}");
        }
        c.record(1, f64::INFINITY, &g, &s);
        c.record(2, 1.0, &g, &s);
        assert!(c.holds(1) && c.holds(2));
        // A unit margin buys m2/(γ·d_v) = 14/2 = 7 of clock; moving vertex
        // 0 (degree 2, 2 of the 14 arcs) advances the clock by just over 4.
        let summary = MoveSummary {
            moves: vec![(0, 0, 1)],
        };
        assert_eq!(c.settle(&g, &summary, 2, s.m2), Settled::Walk);
        assert!(c.clock > 4.0 && c.clock < 4.0 + 1e-3);
        assert!(c.holds(2), "a drift of 4 expired a budget of 7");
        assert_eq!(c.settle(&g, &summary, 2, s.m2), Settled::Walk);
        assert!(!c.holds(2), "a drift of 8 left a budget of 7 standing");
        assert!(c.holds(1), "an infinite certificate expired");
        c.invalidate(1);
        assert!(!c.holds(1));
        // Movers holding a quarter of the arcs clear the table instead.
        c.record(1, f64::INFINITY, &g, &s);
        let clock = c.clock;
        assert_eq!(c.settle(&g, &summary, 4, s.m2), Settled::Cleared);
        assert!(!c.holds(1));
        assert_eq!(c.clock, clock);
        c.disarm();
        assert_eq!(c.settle(&g, &summary, 2, s.m2), Settled::Disarmed);
    }
}
