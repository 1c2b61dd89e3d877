//! Stay certificates: the second half of the `mgd` policy's mask (see the
//! "Stay certificates" section of [`super`] for the soundness argument).
//!
//! A certificate is one `f32` per vertex, the *expiry* `E_v` on a
//! per-round drift clock `K`. The decide fold writes it for every vertex
//! it evaluates ([`Certificates::record`]); the weight update advances the
//! clock and clears the neighbours of every mover
//! ([`Certificates::settle`], [`Certificates::invalidate`]); `classify`
//! skips a vertex while `K < E_v` ([`Certificates::holds`]). `E_v = 0` is
//! "no certificate", and an empty table is *disarmed*: nothing is recorded
//! and nothing holds.
//!
//! Every write during a pass stores either a vertex's own slot (the fold)
//! or the value 0 (invalidation), so the table after a pass is the same at
//! every pool width. Relaxed atomics make the concurrent stores of 0 into
//! one slot well defined; they compile to plain loads and stores. Relaxed
//! is enough: a slot publishes no other data, and the pool joins every
//! worker at the end of a pass, which orders one pass's stores before the
//! next pass's loads.

use crate::state::{BspState, MoveSummary};
use gala_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Relative slack taken off every margin before it becomes a budget: the
/// margin loses `SLACK·(1 + γ + 10⁻⁶·deg(v))·d_v`. That is many orders
/// above the rounding of the two gain scores it compares, each within
/// `6·2⁻⁵³·(1 + γ)·d_v` of its value on the summed weights, and of the
/// weight sums themselves, each within `deg(v)·2⁻⁵³·d_v` of exact.
const SLACK: f64 = 1e-9;

/// Per-vertex stay certificates of one phase-1 round.
#[derive(Debug, Default)]
pub(crate) struct Certificates {
    /// `E_v` as `f32` bits per vertex; empty while disarmed.
    expiry: Vec<AtomicU32>,
    /// The drift clock `K`: an upper bound on how far any community total
    /// rose plus how far any fell, summed over the round's supersteps.
    clock: f64,
    /// `clock` rounded up to `f32`, the value `holds` compares against.
    now: f32,
}

impl Certificates {
    /// Arms an empty table of `n` vertices and restarts the clock: the
    /// start of a round.
    pub(crate) fn arm(&mut self, n: usize) {
        self.expiry.clear();
        self.expiry.resize_with(n, || AtomicU32::new(0));
        self.clock = 0.0;
        self.now = 0.0;
    }

    /// Disarms the table, keeping its allocation.
    pub(crate) fn disarm(&mut self) {
        self.expiry.clear();
    }

    /// `Some(self)` when armed: what the decide fold records into.
    pub(crate) fn armed(&self) -> Option<&Self> {
        (!self.expiry.is_empty()).then_some(self)
    }

    /// Whether `v` provably stays in its community this superstep.
    #[inline]
    pub(crate) fn holds(&self, v: VertexId) -> bool {
        f32::from_bits(self.expiry[v as usize].load(Relaxed)) > self.now
    }

    /// Records the outcome of deciding `v`: `margin` is the stay score
    /// minus the best foreign score ([`crate::kernels::choose_with_margin`]),
    /// `+∞` when `v` has no foreign candidate. A margin at or below the
    /// slack — every move, tie and singleton-guard stay — clears the slot.
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

    /// Clears `u`'s certificate: a neighbour of `u` changed community, and
    /// not into `u`'s.
    /// The load first keeps a slot that holds nothing out of the other
    /// workers' caches: a store would claim its cache line.
    #[inline]
    pub(crate) fn invalidate(&self, u: VertexId) {
        let slot = &self.expiry[u as usize];
        if slot.load(Relaxed) != 0 {
            slot.store(0, Relaxed);
        }
    }

    /// Clears every certificate: a superstep whose weight update walks no
    /// mover's adjacency, or whose walk is not worth it ([`Self::settle`]).
    pub(crate) fn clear(&mut self) {
        self.expiry.iter_mut().for_each(|e| *e.get_mut() = 0);
    }

    /// Takes the table past the superstep `summary` applied, whose movers
    /// hold `moved_arcs` of the graph's arcs. Returns the table when the
    /// weight update's walk over those arcs must clear the movers'
    /// neighbours, and `None` when it is disarmed or was cleared instead.
    ///
    /// It is cleared when the movers hold at least `1/HEAVY` of the arcs.
    /// Such a superstep advances the clock by at least about `2·m2/HEAVY`
    /// (exactly so on unit weights), which expires nearly every finite
    /// certificate anyway, and one pass over the table costs less than a
    /// random access per arc. On the four benchmark workloads, clearing
    /// these supersteps instead of walking them changed the decide
    /// evaluations by less than 0.01%.
    pub(crate) fn settle(
        &mut self,
        graph: &Graph,
        summary: &MoveSummary,
        moved_arcs: u64,
        m2: f64,
    ) -> Option<&Self> {
        const HEAVY: u64 = 4;
        if self.expiry.is_empty() {
            return None;
        }
        if HEAVY * moved_arcs >= graph.num_arcs() as u64 {
            self.clear();
            return None;
        }
        self.advance(graph, summary, m2);
        Some(self)
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
        let now = self.clock as f32;
        self.now = if (now as f64) < self.clock {
            now.next_up()
        } else {
            now
        };
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
        assert!(c.settle(&g, &summary, 2, s.m2).is_some());
        assert!(c.clock > 4.0 && c.clock < 4.0 + 1e-3);
        assert!(c.holds(2), "a drift of 4 expired a budget of 7");
        assert!(c.settle(&g, &summary, 2, s.m2).is_some());
        assert!(!c.holds(2), "a drift of 8 left a budget of 7 standing");
        assert!(c.holds(1), "an infinite certificate expired");
        c.invalidate(1);
        assert!(!c.holds(1));
        // Movers holding a quarter of the arcs clear the table instead.
        c.record(1, f64::INFINITY, &g, &s);
        let clock = c.clock;
        assert!(c.settle(&g, &summary, 4, s.m2).is_none());
        assert!(!c.holds(1));
        assert_eq!(c.clock, clock);
        c.disarm();
        assert!(c.settle(&g, &summary, 2, s.m2).is_none());
    }
}
