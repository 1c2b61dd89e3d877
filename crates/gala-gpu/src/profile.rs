//! Profiling scopes: named spans that attribute memory traffic and
//! simulated cycles to phases of a run.
//!
//! Kernels and drivers already count every access into a [`MemTally`]; this
//! module adds *where it happened*. A [`Profiler`] maintains a stack of
//! named spans — entering a span nests it under the current one, and on
//! exit the span folds into its parent, merging with any earlier sibling of
//! the same name. The result is a deterministic tree of [`SpanRecord`]s:
//! per-span tallies, invocation counts, free-form named counters (hashtable
//! occupancy, evictions, pruned vertices, …) and, via a
//! [`CostModel`], simulated-cycle attribution.
//!
//! Profiling is opt-in. A profiler built with [`Profiler::disabled`] turns
//! every method into an early-returning no-op so instrumented hot paths pay
//! only a branch on a bool when profiling is off.

use std::collections::BTreeMap;
use std::fmt;

use crate::memory::{ComponentCharges, CostModel, MemTally};

/// One node in the span tree: a named scope with its accumulated costs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanRecord {
    /// Span name (phase or kernel name, e.g. `"decide"`).
    pub name: String,
    /// How many times this span was entered (merged across siblings).
    pub invocations: u64,
    /// Memory traffic recorded directly in this span (children excluded).
    pub tally: MemTally,
    /// Free-form named counters (occupancy, evictions, item counts, …).
    pub counters: BTreeMap<String, u64>,
    /// Nested spans, in first-entered order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// This span's tally plus every descendant's, summed.
    pub fn total_tally(&self) -> MemTally {
        self.children
            .iter()
            .fold(self.tally, |acc, c| acc + c.total_tally())
    }

    /// Simulated cycles for traffic recorded directly in this span.
    pub fn self_cycles(&self, cost: &CostModel) -> f64 {
        cost.cycles(&self.tally)
    }

    /// Simulated cycles for this span including all descendants.
    pub fn total_cycles(&self, cost: &CostModel) -> f64 {
        cost.cycles(&self.total_tally())
    }

    /// Per-component decomposition of the traffic recorded directly in
    /// this span (children excluded), under `cost`. With the default
    /// integer-weight model, `components(c).total() == self_cycles(c)`
    /// bit-for-bit — see [`CostModel::components`].
    pub fn components(&self, cost: &CostModel) -> ComponentCharges {
        cost.components(&self.tally)
    }

    /// Wall-clock decomposition for native spans: the span's
    /// `"elapsed_ns"` counter charged whole to one bucket (`sync` for
    /// spans named `"sync"`, `compute` otherwise). Zero when the span
    /// carries no wall counter — native kernel child spans only count
    /// items, their parent scope owns the time.
    pub fn components_wall(&self) -> ComponentCharges {
        ComponentCharges::from_wall_ns(self.counter("elapsed_ns"), self.name == "sync")
    }

    /// Looks up a direct child span by name.
    pub fn child(&self, name: &str) -> Option<&SpanRecord> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Value of a named counter, zero when never counted.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: tallies and counters add, children merge
    /// recursively by name (first-entered order is kept).
    fn merge(&mut self, other: SpanRecord) {
        debug_assert_eq!(self.name, other.name);
        self.invocations += other.invocations;
        self.tally += other.tally;
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for child in other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(mine) => mine.merge(child),
                None => self.children.push(child),
            }
        }
    }

    fn render(&self, cost: &CostModel, depth: usize, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            out,
            "{:indent$}{}  x{}  {:.0} cycles ({:.0} self)",
            "",
            if self.name.is_empty() {
                "<root>"
            } else {
                &self.name
            },
            self.invocations,
            self.total_cycles(cost),
            self.self_cycles(cost),
            indent = depth * 2,
        )?;
        for c in &self.children {
            c.render(cost, depth + 1, out)?;
        }
        Ok(())
    }

    /// Human-readable tree rendering under `cost` (debugging aid; the
    /// machine-readable form lives in `gala-telemetry`).
    pub fn display<'a>(&'a self, cost: &'a CostModel) -> impl fmt::Display + 'a {
        struct D<'a>(&'a SpanRecord, &'a CostModel);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.render(self.1, 0, f)
            }
        }
        D(self, cost)
    }
}

/// Collector for a tree of profiling spans.
///
/// ```
/// use gala_gpu::memory::{MemTally, Space};
/// use gala_gpu::profile::Profiler;
///
/// let mut prof = Profiler::new();
/// prof.scope("decide", |p| {
///     let mut t = MemTally::new();
///     t.load(Space::Global, 4);
///     p.record(&t);
///     p.count("moved", 2);
/// });
/// let root = prof.finish();
/// assert_eq!(root.child("decide").unwrap().counter("moved"), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Profiler {
    enabled: bool,
    /// `stack[0]` is the root; open spans are stacked above it.
    stack: Vec<SpanRecord>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An enabled profiler with an empty root span.
    pub fn new() -> Self {
        Self {
            enabled: true,
            stack: vec![SpanRecord::new("")],
        }
    }

    /// A profiler whose every method is a no-op (the zero-cost default for
    /// production paths).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            stack: Vec::new(),
        }
    }

    /// Whether this profiler records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name`, nested under the current one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let mut span = SpanRecord::new(name);
        span.invocations = 1;
        self.stack.push(span);
    }

    /// Closes the current span, folding it into its parent (merging with a
    /// same-named sibling if one exists).
    ///
    /// # Panics
    ///
    /// Panics on an enabled profiler with no open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        assert!(self.stack.len() > 1, "Profiler::exit without a span open");
        let span = self.stack.pop().expect("span stack underflow");
        let parent = self.stack.last_mut().expect("root span missing");
        match parent.children.iter_mut().find(|c| c.name == span.name) {
            Some(mine) => mine.merge(span),
            None => parent.children.push(span),
        }
    }

    /// Runs `f` inside a span named `name` (paired [`Self::enter`] /
    /// [`Self::exit`]).
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Adds `tally` to the current span's memory traffic.
    pub fn record(&mut self, tally: &MemTally) {
        if !self.enabled {
            return;
        }
        let top = self.stack.last_mut().expect("root span missing");
        top.tally += *tally;
    }

    /// Folds a finished span tree (the root returned by [`Self::finish`])
    /// into the current span: the root's tally and counters add to the
    /// current span, its children merge by name. This lets drivers profile
    /// a superstep with a private sub-profiler, emit the fresh tree as a
    /// trace event, and still accumulate it into the run-level tree.
    pub fn absorb(&mut self, root: SpanRecord) {
        if !self.enabled {
            return;
        }
        let top = self.stack.last_mut().expect("root span missing");
        top.tally += root.tally;
        for (k, v) in root.counters {
            *top.counters.entry(k).or_insert(0) += v;
        }
        for child in root.children {
            match top.children.iter_mut().find(|c| c.name == child.name) {
                Some(mine) => mine.merge(child),
                None => top.children.push(child),
            }
        }
    }

    /// Adds `n` to the named counter of the current span.
    pub fn count(&mut self, key: &str, n: u64) {
        if !self.enabled {
            return;
        }
        let top = self.stack.last_mut().expect("root span missing");
        *top.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Closes any spans still open and returns the root of the span tree.
    ///
    /// A disabled profiler returns an empty root (zero invocations, no
    /// children) so callers can serialise unconditionally.
    pub fn finish(mut self) -> SpanRecord {
        if !self.enabled {
            return SpanRecord::new("");
        }
        while self.stack.len() > 1 {
            self.exit();
        }
        self.stack.pop().expect("root span missing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Space;

    fn tally(global_loads: u64) -> MemTally {
        let mut t = MemTally::new();
        t.load(Space::Global, global_loads);
        t
    }

    #[test]
    fn spans_nest_and_merge_by_name() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.scope("superstep", |p| {
                p.scope("decide", |p| p.record(&tally(10)));
                p.scope("apply", |p| p.record(&tally(1)));
            });
        }
        let root = p.finish();
        let step = root.child("superstep").unwrap();
        assert_eq!(step.invocations, 3);
        assert_eq!(step.children.len(), 2);
        assert_eq!(step.child("decide").unwrap().tally.global_loads, 30);
        assert_eq!(step.child("apply").unwrap().tally.global_loads, 3);
    }

    #[test]
    fn total_tally_includes_descendants() {
        let mut p = Profiler::new();
        p.scope("outer", |p| {
            p.record(&tally(5));
            p.scope("inner", |p| p.record(&tally(7)));
        });
        let root = p.finish();
        let outer = root.child("outer").unwrap();
        assert_eq!(outer.tally.global_loads, 5);
        assert_eq!(outer.total_tally().global_loads, 12);
        let cost = CostModel::default();
        assert!(outer.total_cycles(&cost) > outer.self_cycles(&cost));
    }

    #[test]
    fn counters_accumulate() {
        let mut p = Profiler::new();
        p.scope("decide", |p| p.count("moved", 4));
        p.scope("decide", |p| p.count("moved", 2));
        let root = p.finish();
        assert_eq!(root.child("decide").unwrap().counter("moved"), 6);
        assert_eq!(root.child("decide").unwrap().counter("absent"), 0);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.enter("x");
        p.record(&tally(100));
        p.count("moved", 9);
        p.exit();
        p.exit(); // no panic when disabled
        let root = p.finish();
        assert_eq!(root, SpanRecord::new(""));
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut p = Profiler::new();
        p.enter("a");
        p.enter("b");
        p.record(&tally(1));
        let root = p.finish();
        assert_eq!(root.child("a").unwrap().child("b").unwrap().tally, tally(1));
    }

    #[test]
    #[should_panic(expected = "without a span open")]
    fn exit_without_enter_panics() {
        Profiler::new().exit();
    }

    #[test]
    fn absorb_merges_sub_profiler_trees() {
        let mut run = Profiler::new();
        run.scope("superstep", |run| {
            for loads in [2u64, 5] {
                let mut sub = Profiler::new();
                sub.scope("decide", |p| {
                    p.record(&tally(loads));
                    p.count("items", loads);
                });
                run.absorb(sub.finish());
            }
        });
        let root = run.finish();
        let step = root.child("superstep").unwrap();
        let decide = step.child("decide").unwrap();
        assert_eq!(decide.tally.global_loads, 7);
        assert_eq!(decide.counter("items"), 7);
        assert_eq!(decide.invocations, 2);
    }

    #[test]
    fn absorb_on_disabled_profiler_is_noop() {
        let mut p = Profiler::disabled();
        let mut sub = Profiler::new();
        sub.scope("decide", |p| p.record(&tally(3)));
        p.absorb(sub.finish());
        assert_eq!(p.finish(), SpanRecord::new(""));
    }

    #[test]
    fn span_components_sum_to_self_cycles_and_survive_merging() {
        let cost = CostModel::default();
        let mut p = Profiler::new();
        for loads in [3u64, 9, 27] {
            p.scope("decide", |p| {
                let mut t = tally(loads);
                t.warp_primitive(loads);
                t.atomic(Space::Shared, 1);
                p.record(&t);
            });
        }
        let root = p.finish();
        let decide = root.child("decide").unwrap();
        let c = decide.components(&cost);
        assert_eq!(c.total(), decide.self_cycles(&cost));
        assert_eq!(c.global_coalesced, 39.0 * 400.0);
        assert_eq!(c.scan_sort, 39.0 * 8.0);
        assert_eq!(c.atomics, 3.0 * 40.0);
        assert_eq!(c.sync, 0.0);
    }

    #[test]
    fn wall_components_read_the_elapsed_counter() {
        let mut p = Profiler::new();
        p.scope("decide", |p| p.count("elapsed_ns", 500));
        p.scope("sync", |p| p.count("elapsed_ns", 70));
        p.scope("apply", |_| {});
        let root = p.finish();
        assert_eq!(
            root.child("decide").unwrap().components_wall().compute,
            500.0
        );
        assert_eq!(root.child("sync").unwrap().components_wall().sync, 70.0);
        assert_eq!(
            root.child("apply").unwrap().components_wall(),
            ComponentCharges::default()
        );
    }

    #[test]
    fn display_renders_tree() {
        let mut p = Profiler::new();
        p.scope("decide", |p| p.record(&tally(2)));
        let root = p.finish();
        let cost = CostModel::default();
        let text = root.display(&cost).to_string();
        assert!(text.contains("<root>"));
        assert!(text.contains("decide"));
    }
}
