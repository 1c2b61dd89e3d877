//! Algorithm-level metrics: counters, gauges, and log2-bucketed histograms.
//!
//! The trace layer ([`crate::trace`]) captures *per-event* quantities; this
//! module captures *aggregates and distributions* the paper's figures are
//! built from — pruning effectiveness, shuffle-vs-hash routing splits with
//! degree distributions, hashtable level statistics, moved-vertex
//! fractions, dense/sparse sync decisions. Drivers fill a
//! [`MetricsRegistry`] while a run executes (gated on the trace sink being
//! enabled, so the plain hot path pays nothing) and emit it as a `metrics`
//! trace event.
//!
//! All three metric kinds merge associatively, so registries built
//! independently per worker, per device, or per round can be folded into
//! one — the same discipline the simulator's `MemTally` follows.

use crate::json::Value;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` counts the value `0`; bucket `i >= 1` counts values in
/// `[2^(i-1), 2^i - 1]` — i.e. a value's bucket is its bit length. The
/// bucket vector grows on demand and carries no trailing zero buckets, so
/// two histograms merge by element-wise addition regardless of the ranges
/// they saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts, indexed by bit length of the value.
    buckets: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Sum of all recorded values (saturating).
    sum: u64,
    /// Smallest value recorded (`0` when empty).
    min: u64,
    /// Largest value recorded (`0` when empty).
    max: u64,
}

/// The bucket index of a value: its bit length (`0` for `0`).
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-bucket counts, lowest bucket first (no trailing zeros).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Folds `other` into `self` (element-wise; associative and
    /// commutative).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Serialises to the documented JSON object form.
    ///
    /// JSON numbers are `f64`, so `count`/`sum`/`min`/`max` round-trip
    /// exactly only up to 2^53 — far beyond any quantity the drivers
    /// record (vertex counts, bytes, probe lengths).
    pub fn to_json(&self) -> Value {
        Value::object()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min)
            .set("max", self.max)
            .set(
                "buckets",
                Value::Array(self.buckets.iter().map(|&b| Value::from(b)).collect()),
            )
    }

    /// Parses a histogram back from [`Histogram::to_json`] output. Returns
    /// `None` on any structural mismatch or when the bucket counts do not
    /// sum to `count`.
    pub fn from_json(v: &Value) -> Option<Histogram> {
        let buckets: Vec<u64> = v
            .get("buckets")?
            .as_array()?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<_>>()?;
        let h = Histogram {
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_u64()?,
            min: v.get("min")?.as_u64()?,
            max: v.get("max")?.as_u64()?,
            buckets,
        };
        if h.buckets.iter().sum::<u64>() != h.count || (h.count > 0 && h.min > h.max) {
            return None;
        }
        Some(h)
    }
}

/// An insertion-ordered registry of named counters, gauges, and
/// [`Histogram`]s.
///
/// * **Counters** accumulate by addition (`inc`); merging adds.
/// * **Gauges** are point-in-time `f64` readings (`gauge`); merging keeps
///   the incoming value (last writer wins), which is the right call for
///   "final fraction" style readings recomputed by whoever merges last.
/// * **Histograms** record sample distributions (`observe`); merging folds
///   bucket-wise.
///
/// Names are free-form; the drivers use `area/metric` paths
/// (`pruning/pruned`, `kernel/shuffle_degree`, `sync/dense_bytes`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

fn find_mut<'a, T>(
    entries: &'a mut Vec<(String, T)>,
    name: &str,
    init: impl Fn() -> T,
) -> &'a mut T {
    let idx = match entries.iter().position(|(n, _)| n == name) {
        Some(i) => i,
        None => {
            entries.push((name.to_string(), init()));
            entries.len() - 1
        }
    };
    &mut entries[idx].1
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *find_mut(&mut self.counters, name, || 0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        *find_mut(&mut self.gauges, name, || 0.0) = value;
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        find_mut(&mut self.histograms, name, Histogram::new).record(value);
    }

    /// Reads a counter (`None` when absent).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Reads a gauge (`None` when absent).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Reads a histogram (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges in insertion order.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// All histograms in insertion order.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge bucket-wise. Associative over any merge
    /// order for counters and histograms.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            find_mut(&mut self.histograms, name, Histogram::new).merge(h);
        }
    }

    /// Serialises to the documented JSON object form (three sub-objects,
    /// insertion-ordered).
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .fold(Value::object(), |v, (k, n)| v.set(k, *n));
        let gauges = self
            .gauges
            .iter()
            .fold(Value::object(), |v, (k, g)| v.set(k, *g));
        let histograms = self
            .histograms
            .iter()
            .fold(Value::object(), |v, (k, h)| v.set(k, h.to_json()));
        Value::object()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }

    /// Parses a registry back from [`MetricsRegistry::to_json`] output.
    /// Returns `None` on any structural mismatch.
    pub fn from_json(v: &Value) -> Option<MetricsRegistry> {
        let counters = v
            .get("counters")?
            .as_object()?
            .iter()
            .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
            .collect::<Option<_>>()?;
        let gauges = v
            .get("gauges")?
            .as_object()?
            .iter()
            .map(|(k, g)| Some((k.clone(), g.as_f64()?)))
            .collect::<Option<_>>()?;
        let histograms = v
            .get("histograms")?
            .as_object()?
            .iter()
            .map(|(k, h)| Some((k.clone(), Histogram::from_json(h)?)))
            .collect::<Option<_>>()?;
        Some(MetricsRegistry {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use proptest::prelude::*;

    /// The inclusive `[lo, hi]` value range bucket `i` covers: the layout
    /// `bucket_of` must invert. Bucket 64 (values with the top bit set) is
    /// capped at `u64::MAX`.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            let hi = match 1u64.checked_shl(i as u32) {
                Some(top) => top - 1,
                None => u64::MAX,
            };
            (1u64 << (i - 1), hi)
        }
    }

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        // Value 0 → bucket 0; [2^(i-1), 2^i - 1] → bucket i.
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4..7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[10], 1); // 1023
        assert_eq!(h.buckets()[11], 1); // 1024
        assert_eq!(h.buckets()[64], 1); // u64::MAX
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn bucket_range_is_the_inverse_of_bucket_of() {
        for i in 0..=64usize {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
            if i > 0 {
                assert_eq!(lo, bucket_range(i - 1).1 + 1, "contiguous");
            }
        }
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(90);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut empty = Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn registry_counters_gauges_histograms_round_trip() {
        let mut r = MetricsRegistry::new();
        r.inc("pruning/pruned", 120);
        r.inc("pruning/pruned", 30);
        r.gauge("phase1/moved_fraction", 0.375);
        r.observe("kernel/shuffle_degree", 3);
        r.observe("kernel/shuffle_degree", 17);
        assert_eq!(r.counter("pruning/pruned"), Some(150));
        assert_eq!(r.gauge_value("phase1/moved_fraction"), Some(0.375));
        assert_eq!(r.histogram("kernel/shuffle_degree").unwrap().count(), 2);

        let text = r.to_json().render();
        let back = MetricsRegistry::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn registry_merge_adds_counters_and_folds_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.gauge("g", 0.25);
        a.observe("h", 4);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 5);
        b.gauge("g", 0.75);
        b.observe("h", 1000);
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(3));
        assert_eq!(a.counter("y"), Some(5));
        assert_eq!(a.gauge_value("g"), Some(0.75), "gauge: last writer wins");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(1000));
    }

    #[test]
    fn from_json_rejects_incoherent_histograms() {
        // Bucket counts that do not sum to `count` must not parse.
        let bad = Value::object()
            .set("count", 5u64)
            .set("sum", 10u64)
            .set("min", 1u64)
            .set("max", 4u64)
            .set("buckets", Value::Array(vec![Value::from(1u64)]));
        assert!(Histogram::from_json(&bad).is_none());
        // Missing sub-object.
        let bad = Value::object().set("counters", Value::object());
        assert!(MetricsRegistry::from_json(&bad).is_none());
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        #[test]
        fn histogram_merge_is_associative(
            a in proptest::collection::vec(0u64..1_000_000, 0..40),
            b in proptest::collection::vec(0u64..1_000_000, 0..40),
            c in proptest::collection::vec(0u64..1_000_000, 0..40),
        ) {
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // And merging equals recording the concatenation directly.
            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &hist_of(&all));
        }

        #[test]
        fn histogram_json_round_trip(
            // JSON numbers are f64: exact only below 2^53 (see to_json),
            // and that bound applies to `sum`, so 60 × 2^46 keeps it exact.
            values in proptest::collection::vec(0u64..(1 << 46), 0..60),
        ) {
            let h = hist_of(&values);
            let text = h.to_json().render();
            let back = Histogram::from_json(&parse(&text).unwrap()).unwrap();
            prop_assert_eq!(back, h);
        }

        #[test]
        fn every_sample_lands_in_its_bucket(value in 0u64..u64::MAX) {
            let mut h = Histogram::new();
            h.record(value);
            let b = h.buckets().iter().position(|&c| c == 1).unwrap();
            let (lo, hi) = bucket_range(b);
            prop_assert!(lo <= value && value <= hi,
                "{value} outside bucket {b} = [{lo}, {hi}]");
        }
    }
}
