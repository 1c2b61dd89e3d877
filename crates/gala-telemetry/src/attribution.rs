//! Sim↔native calibration: per-kernel residuals from paired traces.
//!
//! The simulator predicts *cycles* from a flat
//! [`CostModel`](gala_gpu::memory::CostModel); the native backend measures
//! *nanoseconds* on real hardware. An [`Attribution`] joins the span
//! charges ([`crate::SpanTree::profile`]) of one sim trace and one native
//! trace span-by-span and asks, per
//! kernel: *how many predicted cycles does one measured nanosecond buy?* If
//! the cost model were perfect, that ratio would be the same constant (the
//! machine's effective clock) for every kernel. It is not — and the
//! per-kernel deviation from the fitted clock is exactly the calibration
//! signal the ROADMAP's "cost-model calibration" item asks for:
//!
//! 1. Both traces' [`ProfileSpan`] rows are accumulated per path (sim rows
//!    carry component cycle charges, native rows wall-ns).
//! 2. Each native *measurement point* (a path that carries wall time) is
//!    anchored to the sim span that holds the corresponding charges: when
//!    the sim tree hangs all of a scope's charges under a single child —
//!    `decide` → `decide/hash` — the anchor descends to that child, so
//!    each phase-1 kernel gets its own row rather than hiding behind the
//!    shared `decide` scope.
//! 3. A least-squares clock (total sim cycles ÷ total native ns)
//!    normalizes the per-kernel ratios into dimensionless **residuals**;
//!    a residual of 1.0 means the kernel behaves exactly like the fleet
//!    average, 2.0 means the model over-charges it twofold. Kernels more
//!    than 2σ from the fleet mean are flagged.
//! 4. Residuals are folded back into per-*component* factors (how much of
//!    each kernel's charge sits in compute vs. global memory vs. atomics
//!    weights its residual), yielding the scale arguments for
//!    [`CostModel::calibrated`](gala_gpu::memory::CostModel::calibrated).
//!
//! The fitted state can be persisted as a [`Calibration`] and later
//! compared (`gala profile --gate`) to catch kernels whose residual
//! drifts.

use std::collections::BTreeMap;

use gala_gpu::memory::{ComponentCharges, COMPONENT_NAMES};

use crate::json::Value;
use crate::report::{judge, Direction, Verdict};
use crate::trace::ProfileSpan;
use crate::{check_schema, SCHEMA_VERSION};

/// How many standard deviations a kernel's residual may sit from the
/// fleet mean before [`KernelResidual::flagged`] is set.
pub const FLAG_SIGMA: f64 = 2.0;

/// Accumulated per-path charges from one trace side.
#[derive(Clone, Debug, Default, PartialEq)]
struct PathAgg {
    invocations: u64,
    total: f64,
    components: ComponentCharges,
}

/// Joins sim and native span charges span-by-span; see the module
/// docs for the model.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    sim: BTreeMap<String, PathAgg>,
    native: BTreeMap<String, PathAgg>,
}

/// One joined kernel row of an [`AttributionReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResidual {
    /// Anchor path identifying the kernel (e.g. `"superstep/decide/hash"`).
    pub path: String,
    /// Native span invocations at the measurement point.
    pub invocations: u64,
    /// Predicted cycles: the sim subtree total at the anchor.
    pub sim_cycles: f64,
    /// Measured wall nanoseconds at the native measurement point.
    pub native_ns: f64,
    /// Sim component breakdown of `sim_cycles`.
    pub components: ComponentCharges,
    /// `(sim_cycles / native_ns) / clock` — 1.0 means the kernel behaves
    /// like the fleet average.
    pub residual: f64,
    /// Whether `residual` deviates more than [`FLAG_SIGMA`]·σ from the
    /// fleet mean.
    pub flagged: bool,
}

impl KernelResidual {
    /// Arithmetic intensity: fraction of the kernel's predicted cycles
    /// charged to compute.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.sim_cycles > 0.0 {
            self.components.compute / self.sim_cycles
        } else {
            0.0
        }
    }

    /// Memory intensity: fraction of the kernel's predicted cycles charged
    /// to memory-system components (shared, global, atomics, scan/sort).
    pub fn memory_intensity(&self) -> f64 {
        if self.sim_cycles > 0.0 {
            self.components.memory() / self.sim_cycles
        } else {
            0.0
        }
    }
}

/// The fitted output of [`Attribution::resolve`].
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionReport {
    /// Fitted clock in predicted cycles per measured nanosecond.
    pub clock_cycles_per_ns: f64,
    /// Joined kernel rows, sorted by path.
    pub kernels: Vec<KernelResidual>,
    /// Mean of the kernel residuals.
    pub mean_residual: f64,
    /// Population standard deviation of the kernel residuals.
    pub stddev_residual: f64,
    /// Per-component calibration factors: each component's
    /// charge-weighted mean residual across kernels (1.0 for components
    /// that carry no charge anywhere).
    pub factors: ComponentCharges,
}

impl AttributionReport {
    /// The five scale arguments for
    /// [`CostModel::calibrated`](gala_gpu::memory::CostModel::calibrated),
    /// collapsing the coalesced/uncoalesced split into one global-memory
    /// factor and mapping `scan_sort` onto the warp-primitive weight.
    pub fn suggested_scales(&self) -> [f64; 5] {
        let f = &self.factors;
        let global_mass: f64 = self
            .kernels
            .iter()
            .map(|k| k.components.global_coalesced + k.components.global_uncoalesced)
            .sum();
        let global = if global_mass > 0.0 {
            self.kernels
                .iter()
                .map(|k| {
                    (k.components.global_coalesced + k.components.global_uncoalesced) * k.residual
                })
                .sum::<f64>()
                / global_mass
        } else {
            1.0
        };
        [f.compute, f.shared_mem, global, f.atomics, f.scan_sort]
    }
}

impl Attribution {
    /// An empty join.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates the rows of one sim span tree's profile (unit
    /// `"cycles"`).
    pub fn add_sim(&mut self, spans: &[ProfileSpan]) {
        accumulate(&mut self.sim, spans);
    }

    /// Accumulates the rows of one native span tree's profile (unit
    /// `"ns"`).
    pub fn add_native(&mut self, spans: &[ProfileSpan]) {
        accumulate(&mut self.native, spans);
    }

    /// Fits the clock and computes per-kernel residuals. Returns `None`
    /// when no native measurement point joins a sim span with charges
    /// (nothing to calibrate against).
    pub fn resolve(&self) -> Option<AttributionReport> {
        let sim_subtree = subtree_totals(&self.sim);
        let mut rows = Vec::new();
        for (path, agg) in &self.native {
            if agg.total <= 0.0 {
                continue;
            }
            let anchor = self.anchor(path, &sim_subtree);
            let (sim_cycles, components) = sim_subtree
                .get(&anchor)
                .map(|a| (a.total, a.components))
                .unwrap_or((0.0, ComponentCharges::default()));
            if sim_cycles <= 0.0 {
                continue;
            }
            rows.push(KernelResidual {
                path: anchor,
                invocations: agg.invocations,
                sim_cycles,
                native_ns: agg.total,
                components,
                residual: 0.0,
                flagged: false,
            });
        }
        if rows.is_empty() {
            return None;
        }
        // Measurement points can collapse onto the same anchor (several
        // native scopes above one charged sim span); merge them.
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows.dedup_by(|dup, keep| {
            if dup.path == keep.path {
                keep.native_ns += dup.native_ns;
                keep.invocations += dup.invocations;
                true
            } else {
                false
            }
        });
        let total_cycles: f64 = rows.iter().map(|r| r.sim_cycles).sum();
        let total_ns: f64 = rows.iter().map(|r| r.native_ns).sum();
        let clock = total_cycles / total_ns;
        for row in &mut rows {
            row.residual = (row.sim_cycles / row.native_ns) / clock;
        }
        let n = rows.len() as f64;
        let mean = rows.iter().map(|r| r.residual).sum::<f64>() / n;
        let var = rows
            .iter()
            .map(|r| (r.residual - mean).powi(2))
            .sum::<f64>()
            / n;
        let stddev = var.sqrt();
        if stddev > 0.0 {
            for row in &mut rows {
                row.flagged = (row.residual - mean).abs() > FLAG_SIGMA * stddev;
            }
        }
        let factors = component_factors(&rows);
        Some(AttributionReport {
            clock_cycles_per_ns: clock,
            kernels: rows,
            mean_residual: mean,
            stddev_residual: stddev,
            factors,
        })
    }

    /// Descends from a native measurement point to the sim span that
    /// actually holds the charges: while the path itself carries no sim
    /// self-charge and exactly one direct child subtree does, the anchor
    /// moves to that child.
    fn anchor(&self, path: &str, sim_subtree: &BTreeMap<String, PathAgg>) -> String {
        let mut anchor = path.to_string();
        loop {
            let self_charge = self.sim.get(&anchor).map_or(0.0, |a| a.total);
            if self_charge > 0.0 {
                return anchor;
            }
            let prefix = format!("{anchor}/");
            let mut charged_children = sim_subtree
                .range(prefix.clone()..)
                .take_while(|(p, _)| p.starts_with(&prefix))
                .filter(|(p, a)| !p[prefix.len()..].contains('/') && a.total > 0.0)
                .map(|(p, _)| p.clone());
            match (charged_children.next(), charged_children.next()) {
                (Some(only), None) => anchor = only,
                _ => return anchor,
            }
        }
    }
}

fn accumulate(side: &mut BTreeMap<String, PathAgg>, spans: &[ProfileSpan]) {
    for span in spans {
        let agg = side.entry(span.path.clone()).or_default();
        agg.invocations += span.invocations;
        agg.total += span.total;
        agg.components += span.components;
    }
}

/// For every path, the sum of its own and all descendants' charges.
fn subtree_totals(side: &BTreeMap<String, PathAgg>) -> BTreeMap<String, PathAgg> {
    let mut out: BTreeMap<String, PathAgg> = BTreeMap::new();
    for (path, agg) in side {
        let mut target = path.as_str();
        loop {
            let entry = out.entry(target.to_string()).or_default();
            entry.total += agg.total;
            entry.components += agg.components;
            if target == path.as_str() {
                entry.invocations += agg.invocations;
            }
            match target.rfind('/') {
                Some(cut) => target = &target[..cut],
                None => break,
            }
        }
    }
    out
}

/// Charge-weighted mean residual per component; 1.0 where no kernel
/// carries that component.
fn component_factors(rows: &[KernelResidual]) -> ComponentCharges {
    let mut factors = ComponentCharges::default();
    for name in COMPONENT_NAMES {
        let mass: f64 = rows.iter().map(|r| r.components.get(name).unwrap()).sum();
        let value = if mass > 0.0 {
            rows.iter()
                .map(|r| r.components.get(name).unwrap() * r.residual)
                .sum::<f64>()
                / mass
        } else {
            1.0
        };
        factors.set(name, value);
    }
    factors
}

/// A persisted calibration: the fitted clock, per-kernel residuals and
/// suggested [`CostModel::calibrated`](gala_gpu::memory::CostModel::calibrated)
/// scales, written by
/// `gala profile --write-calibration` and consumed by `--gate`.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// Fitted clock in cycles per nanosecond.
    pub clock_cycles_per_ns: f64,
    /// Per-kernel residuals keyed by anchor path.
    pub residuals: BTreeMap<String, f64>,
    /// The five [`CostModel::calibrated`](gala_gpu::memory::CostModel::calibrated)
    /// scale arguments
    /// (compute, shared_mem, global_mem, atomics, scan_sort).
    pub scales: [f64; 5],
}

/// Names of the [`Calibration::scales`] entries, in order.
pub const SCALE_NAMES: [&str; 5] = [
    "compute",
    "shared_mem",
    "global_mem",
    "atomics",
    "scan_sort",
];

impl Calibration {
    /// Captures a report's fit as a persistable calibration.
    pub fn from_report(report: &AttributionReport) -> Self {
        Self {
            clock_cycles_per_ns: report.clock_cycles_per_ns,
            residuals: report
                .kernels
                .iter()
                .map(|k| (k.path.clone(), k.residual))
                .collect(),
            scales: report.suggested_scales(),
        }
    }

    /// Kernels whose residual drifted more than `tolerance` (relative,
    /// either way, as [`judge`] rules) from this calibration, plus kernels
    /// newly appearing or vanishing.
    /// An empty result means the gate passes.
    pub fn drift(&self, report: &AttributionReport, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        for kernel in &report.kernels {
            match self.residuals.get(&kernel.path) {
                None => problems.push(format!("{}: not in calibration", kernel.path)),
                Some(&expected) => {
                    let drift = judge(kernel.residual, expected, Direction::Either, tolerance);
                    if drift.verdict == Verdict::Regressed {
                        problems.push(format!(
                            "{}: residual {:.4} drifted {:.1}% from calibrated {:.4} (tolerance {:.1}%)",
                            kernel.path,
                            kernel.residual,
                            drift.change.abs() * 100.0,
                            expected,
                            tolerance * 100.0
                        ));
                    }
                }
            }
        }
        for path in self.residuals.keys() {
            if !report.kernels.iter().any(|k| &k.path == path) {
                problems.push(format!("{path}: calibrated kernel missing from profile"));
            }
        }
        problems
    }

    /// Serialises the calibration (carries `"schema"` like every other
    /// document in the workspace).
    pub fn to_json(&self) -> Value {
        let residuals = self
            .residuals
            .iter()
            .fold(Value::object(), |v, (k, r)| v.set(k.as_str(), *r));
        let scales = SCALE_NAMES
            .into_iter()
            .zip(self.scales)
            .fold(Value::object(), |v, (name, s)| v.set(name, s));
        Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("clock_cycles_per_ns", self.clock_cycles_per_ns)
            .set("residuals", residuals)
            .set("scales", scales)
    }

    /// Parses a calibration back, enforcing the schema range every other
    /// reader in the workspace enforces.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        check_schema(v).map_err(|e| format!("calibration {e}"))?;
        let clock = v
            .get("clock_cycles_per_ns")
            .and_then(Value::as_f64)
            .ok_or("calibration missing clock_cycles_per_ns")?;
        let residuals = v
            .get("residuals")
            .and_then(Value::as_object)
            .ok_or("calibration missing residuals")?
            .iter()
            .map(|(k, r)| r.as_f64().map(|r| (k.clone(), r)))
            .collect::<Option<BTreeMap<_, _>>>()
            .ok_or("non-numeric residual")?;
        let scales_obj = v
            .get("scales")
            .and_then(Value::as_object)
            .ok_or("calibration missing scales")?;
        let mut scales = [1.0; 5];
        for (i, name) in SCALE_NAMES.into_iter().enumerate() {
            scales[i] = scales_obj
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, s)| s.as_f64())
                .ok_or_else(|| format!("calibration missing scale {name}"))?;
        }
        Ok(Self {
            clock_cycles_per_ns: clock,
            residuals,
            scales,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn span(path: &str, compute: f64, global: f64) -> ProfileSpan {
        let components = ComponentCharges {
            compute,
            global_coalesced: global,
            ..ComponentCharges::default()
        };
        ProfileSpan {
            path: path.into(),
            invocations: 1,
            total: components.total(),
            components,
        }
    }

    fn wall(path: &str, ns: f64) -> ProfileSpan {
        let components = ComponentCharges {
            compute: ns,
            ..ComponentCharges::default()
        };
        ProfileSpan {
            path: path.into(),
            invocations: 1,
            total: ns,
            components,
        }
    }

    /// Two kernels, the sim hanging each kernel's charges under a single
    /// child of the natively-timed `decide` scope.
    fn joined() -> Attribution {
        let mut attr = Attribution::new();
        attr.add_sim(&[
            span("superstep/decide", 0.0, 0.0),
            span("superstep/decide/hash", 1000.0, 3000.0),
        ]);
        attr.add_sim(&[span("contract", 500.0, 1500.0)]);
        attr.add_native(&[
            wall("superstep/decide", 2000.0),
            wall("superstep/decide/hash", 0.0),
        ]);
        attr.add_native(&[wall("contract", 1000.0)]);
        attr
    }

    #[test]
    fn anchors_descend_to_the_single_charged_child() {
        let report = joined().resolve().unwrap();
        let paths: Vec<&str> = report.kernels.iter().map(|k| k.path.as_str()).collect();
        assert_eq!(paths, ["contract", "superstep/decide/hash"]);
    }

    #[test]
    fn clock_and_residuals_are_fitted_over_all_rows() {
        let report = joined().resolve().unwrap();
        // 6000 cycles over 3000 ns: clock = 2 cycles/ns; both kernels run
        // at exactly the clock, so residuals are 1 and nothing is flagged.
        assert_eq!(report.clock_cycles_per_ns, 2.0);
        for kernel in &report.kernels {
            assert_eq!(kernel.residual, 1.0);
            assert!(!kernel.flagged);
        }
        assert_eq!(report.mean_residual, 1.0);
        assert_eq!(report.stddev_residual, 0.0);
        // Uniform residuals calibrate to the identity model.
        let factors = report.suggested_scales();
        assert_eq!(factors, [1.0; 5]);
    }

    #[test]
    fn outlier_kernels_are_flagged_at_two_sigma() {
        let mut attr = Attribution::new();
        // Nine well-behaved kernels and one whose nanoseconds are 10x the
        // model's prediction.
        for i in 0..9 {
            attr.add_sim(&[span(&format!("k{i}"), 1000.0, 0.0)]);
            attr.add_native(&[wall(&format!("k{i}"), 1000.0)]);
        }
        attr.add_sim(&[span("k9", 1000.0, 0.0)]);
        attr.add_native(&[wall("k9", 10_000.0)]);
        let report = attr.resolve().unwrap();
        let flagged: Vec<&str> = report
            .kernels
            .iter()
            .filter(|k| k.flagged)
            .map(|k| k.path.as_str())
            .collect();
        assert_eq!(flagged, ["k9"]);
    }

    #[test]
    fn repeated_events_accumulate_per_path() {
        let mut attr = Attribution::new();
        attr.add_sim(&[span("decide", 100.0, 0.0)]);
        attr.add_sim(&[span("decide", 300.0, 0.0)]);
        attr.add_native(&[wall("decide", 200.0)]);
        attr.add_native(&[wall("decide", 200.0)]);
        let report = attr.resolve().unwrap();
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].sim_cycles, 400.0);
        assert_eq!(report.kernels[0].native_ns, 400.0);
        assert_eq!(report.kernels[0].invocations, 2);
    }

    #[test]
    fn workload_aware_scopes_with_two_children_anchor_at_the_parent() {
        let mut attr = Attribution::new();
        attr.add_sim(&[
            span("decide", 0.0, 0.0),
            span("decide/shuffle", 200.0, 0.0),
            span("decide/hash", 300.0, 0.0),
        ]);
        attr.add_native(&[wall("decide", 250.0)]);
        let report = attr.resolve().unwrap();
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].path, "decide");
        assert_eq!(report.kernels[0].sim_cycles, 500.0, "subtree total");
    }

    #[test]
    fn resolve_without_a_join_returns_none() {
        assert!(Attribution::new().resolve().is_none());
        let mut sim_only = Attribution::new();
        sim_only.add_sim(&[span("decide", 10.0, 0.0)]);
        assert!(sim_only.resolve().is_none());
        let mut disjoint = Attribution::new();
        disjoint.add_sim(&[span("decide", 10.0, 0.0)]);
        disjoint.add_native(&[wall("contract", 10.0)]);
        assert!(disjoint.resolve().is_none());
    }

    #[test]
    fn component_factors_weight_residuals_by_charge() {
        let mut attr = Attribution::new();
        // Compute-only kernel runs 2x faster than the fleet predicts,
        // memory-only kernel 2x slower; clock fits in between.
        attr.add_sim(&[span("a", 4000.0, 0.0)]);
        attr.add_native(&[wall("a", 1000.0)]);
        attr.add_sim(&[span("b", 0.0, 1000.0)]);
        attr.add_native(&[wall("b", 1000.0)]);
        let report = attr.resolve().unwrap();
        let a = report.kernels.iter().find(|k| k.path == "a").unwrap();
        let b = report.kernels.iter().find(|k| k.path == "b").unwrap();
        assert!(a.residual > 1.0 && b.residual < 1.0);
        assert_eq!(report.factors.compute, a.residual);
        let [_, _, global, _, _] = report.suggested_scales();
        assert_eq!(global, b.residual);
        assert_eq!(report.factors.shared_mem, 1.0, "massless component");
        assert_eq!(a.arithmetic_intensity(), 1.0);
        assert_eq!(b.memory_intensity(), 1.0);
    }

    #[test]
    fn calibration_round_trips_and_gates_drift() {
        let report = joined().resolve().unwrap();
        let calibration = Calibration::from_report(&report);
        let back =
            Calibration::from_json(&parse(&calibration.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, calibration);
        assert!(calibration.drift(&report, 0.25).is_empty());

        // Skew one kernel's wall time: its residual (and the other's,
        // through the refitted clock) drifts past a tight tolerance.
        let mut skewed = joined();
        skewed.add_native(&[wall("superstep/decide", 4000.0)]);
        let drifted = skewed.resolve().unwrap();
        assert!(!calibration.drift(&drifted, 0.05).is_empty());

        // A kernel missing from the calibration is reported.
        let mut extra = joined();
        extra.add_sim(&[span("phantom", 10.0, 0.0)]);
        extra.add_native(&[wall("phantom", 10.0)]);
        let report = extra.resolve().unwrap();
        let problems = Calibration::from_report(&joined().resolve().unwrap()).drift(&report, 1e9);
        assert_eq!(problems, ["phantom: not in calibration"]);
    }

    #[test]
    fn calibration_rejects_bad_schema() {
        let calibration = Calibration::from_report(&joined().resolve().unwrap());
        let doc = calibration.to_json().set("schema", 1u64);
        let err = Calibration::from_json(&doc).unwrap_err();
        assert!(err.contains("schema 1"), "{err}");
    }
}
