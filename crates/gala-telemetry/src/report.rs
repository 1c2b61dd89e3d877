//! Machine-readable run/bench reports and baseline comparison.
//!
//! Every figure/table binary in `gala-bench` (and `gala detect --report`)
//! can serialise its results as one [`Report`]: named rows of numeric
//! metrics plus free-form string metadata, wrapped in a schema-versioned
//! JSON envelope. Reports parse back losslessly, so CI can diff a fresh
//! `bench_smoke` report against the checked-in baseline with
//! [`Report::compare`] and fail on simulated-cycle regressions.
//!
//! [`judge`] is the workspace's one rule for "did this number regress?":
//! `Report::compare`, `Calibration::drift`, `gala analyze`'s two-trace
//! diff and `gala trend` all decide through it, and [`direction`] is the
//! one source of which way a metric name prefers to move.

use std::fmt;
use std::io;
use std::path::Path;

use crate::json::{parse, ParseError, Value};
use crate::{check_schema, SCHEMA_VERSION};

/// One labelled row of numeric metrics (mirrors one table row).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRow {
    /// Row label, unique within the report (e.g. `"hash/mg"`).
    pub label: String,
    /// Named metric values, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl MetricRow {
    /// A row with no metrics yet.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Adds one metric (builder style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// A schema-versioned, machine-readable result report.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Report kind: `"bench"` for figure/table binaries, `"run"` for CLI
    /// detections.
    pub kind: String,
    /// Producer name (binary or figure id, e.g. `"bench_smoke"`).
    pub name: String,
    /// String metadata (dataset scale, config, …), insertion-ordered.
    pub meta: Vec<(String, String)>,
    /// The numeric payload.
    pub rows: Vec<MetricRow>,
}

impl Report {
    /// An empty report.
    pub fn new(kind: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            name: name.into(),
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds one metadata entry (builder style).
    pub fn meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Appends a row.
    pub fn push(&mut self, row: MetricRow) {
        self.rows.push(row);
    }

    /// Looks up a row by label.
    pub fn row(&self, label: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Looks up one `(label, metric)` value. A label may repeat across
    /// rows with disjoint metrics, so every row carrying it is searched.
    pub fn value(&self, label: &str, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.label == label)
            .find_map(|r| r.get(metric))
    }

    /// Looks up one metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to the documented JSON envelope.
    pub fn to_json(&self) -> Value {
        let meta = self
            .meta
            .iter()
            .fold(Value::object(), |v, (k, val)| v.set(k, val.as_str()));
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let metrics = row
                    .metrics
                    .iter()
                    .fold(Value::object(), |v, (k, val)| v.set(k, *val));
                Value::object()
                    .set("label", row.label.as_str())
                    .set("metrics", metrics)
            })
            .collect();
        Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", self.kind.as_str())
            .set("name", self.name.as_str())
            .set("meta", meta)
            .set("rows", Value::Array(rows))
    }

    /// Parses a report back from its JSON envelope.
    pub fn from_json(v: &Value) -> Result<Report, ReportError> {
        check_schema(v).map_err(|e| ReportError::Shape(format!("report {e}")))?;
        let text = |key: &str| -> Result<String, ReportError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| ReportError::Shape(format!("missing `{key}`")))
        };
        let mut report = Report::new(text("kind")?, text("name")?);
        if let Some(meta) = v.get("meta").and_then(Value::as_object) {
            for (k, val) in meta {
                let val = val
                    .as_str()
                    .ok_or_else(|| ReportError::Shape(format!("meta `{k}` is not a string")))?;
                report.meta.push((k.clone(), val.to_string()));
            }
        }
        for row in v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| ReportError::shape("missing `rows`"))?
        {
            let label = row
                .get("label")
                .and_then(Value::as_str)
                .ok_or_else(|| ReportError::shape("row missing `label`"))?;
            let mut out = MetricRow::new(label);
            let metrics = row
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| ReportError::shape("row missing `metrics`"))?;
            for (name, val) in metrics {
                let val = val.as_f64().ok_or_else(|| {
                    ReportError::Shape(format!("metric `{name}` is not a number"))
                })?;
                out.metrics.push((name.clone(), val));
            }
            report.push(out);
        }
        Ok(report)
    }

    /// Parses a report from JSON text.
    #[allow(clippy::should_implement_trait)] // fallible + custom error; no FromStr ergonomics lost
    pub fn from_str(text: &str) -> Result<Report, ReportError> {
        Report::from_json(&parse(text)?)
    }

    /// Writes the pretty-rendered JSON envelope to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().render_pretty())
    }

    /// Reads and parses a report file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Report, ReportError> {
        let text = std::fs::read_to_string(path).map_err(ReportError::Io)?;
        Report::from_str(&text)
    }

    /// Compares this report against `baseline`, flagging every metric whose
    /// relative change exceeds `tolerance` (e.g. `0.10` for ±10%) and every
    /// baseline row/metric missing here. Rows match on `(label, metric)`,
    /// so row order and a label split across rows are irrelevant.
    ///
    /// Higher-is-worse semantics are *not* assumed: a metric is judged
    /// [`Direction::Either`], flagged on deviation in either direction,
    /// which keeps the baseline honest (an unexplained 30% "improvement"
    /// usually means the workload changed).
    pub fn compare(&self, baseline: &Report, tolerance: f64) -> Vec<Regression> {
        let mut out = Vec::new();
        for base_row in &baseline.rows {
            let label = &base_row.label;
            let flag = |metric: &str, baseline, current, change| Regression {
                label: label.clone(),
                metric: metric.to_string(),
                baseline,
                current,
                change,
            };
            if self.row(label).is_none() {
                out.push(flag("<row>", f64::NAN, f64::NAN, f64::NAN));
                continue;
            }
            for &(ref name, base) in &base_row.metrics {
                match self.value(label, name) {
                    None => out.push(flag(name, base, f64::NAN, f64::NAN)),
                    Some(cur) => {
                        let judged = judge(cur, base, Direction::Either, tolerance);
                        if judged.verdict == Verdict::Regressed {
                            out.push(flag(name, base, cur, judged.change));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Which way a metric prefers to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Timings, traffic, misses: growth is a regression.
    LowerIsBetter,
    /// Quality and efficiency scores: shrinkage is a regression.
    HigherIsBetter,
    /// Exact baselines (simulated cycles, calibrated residuals): a move
    /// beyond tolerance either way is a regression.
    Either,
    /// Workload descriptors (sizes, counts of input objects): informational
    /// only, never flagged.
    Neutral,
}

/// Classifies a metric name. The report schema carries no direction flag,
/// so this encodes the workspace's naming conventions; unknown names fall
/// back to lower-is-better, the safe default for a perf tracker.
pub fn direction(metric: &str) -> Direction {
    let m = metric.to_ascii_lowercase();
    let has = |needle: &str| m.contains(needle);
    // Throughputs ("arcs/s", "Marcs/s") end with a per-second unit; they
    // must win over the Neutral size words they usually contain.
    if m.ends_with("/s") {
        Direction::HigherIsBetter
    } else if has("vertices") || has("arcs") || has("comms") || has("edges") || m == "n" || m == "m"
    {
        Direction::Neutral
    } else if has("speedup")
        || has("modularity")
        || has("nmi")
        || has("ari")
        || has("eff")
        || has("occupancy")
        || m == "q"
        || has("vs seq")
        || has("vs seed")
    {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

/// How a measured value stands against its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance, or not judged ([`Direction::Neutral`], NaN).
    Ok,
    /// Moved beyond tolerance the preferred way.
    Improved,
    /// Moved beyond tolerance the wrong way.
    Regressed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
        })
    }
}

/// One value judged against its reference by [`judge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judged {
    /// Relative change `(current - baseline) / |baseline|`: signed `±∞`
    /// when a zero baseline became nonzero, `0` when either side is NaN.
    pub change: f64,
    /// The verdict at the given direction and tolerance.
    pub verdict: Verdict,
}

/// Judges `current` against `baseline`: the relative change, and whether
/// it moved beyond `tolerance` against (or with) `direction`.
///
/// A zero baseline that became nonzero is an infinite change, beyond any
/// tolerance; 0 → 0 is no change. A NaN on either side reads as no change,
/// so a degenerate measurement never fails a gate on its own.
pub fn judge(current: f64, baseline: f64, direction: Direction, tolerance: f64) -> Judged {
    let change = if baseline == 0.0 && current == 0.0 {
        0.0
    } else if baseline == 0.0 {
        current.signum() * f64::INFINITY
    } else {
        (current - baseline) / baseline.abs()
    };
    let change = if change.is_nan() { 0.0 } else { change };
    let bad = match direction {
        Direction::LowerIsBetter => change,
        Direction::HigherIsBetter => -change,
        Direction::Either => change.abs(),
        Direction::Neutral => 0.0,
    };
    let verdict = if bad > tolerance {
        Verdict::Regressed
    } else if bad < -tolerance {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    Judged { change, verdict }
}

/// One out-of-tolerance metric found by [`Report::compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Row label.
    pub label: String,
    /// Metric name (`"<row>"` when the whole row is missing).
    pub metric: String,
    /// Baseline value (NaN when missing).
    pub baseline: f64,
    /// Current value (NaN when missing).
    pub current: f64,
    /// Relative change as [`judge`] computes it (NaN when either side is
    /// missing).
    pub change: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.current.is_nan() {
            write!(
                f,
                "{} / {}: missing from current report",
                self.label, self.metric
            )
        } else {
            write!(
                f,
                "{} / {}: {} -> {} ({:+.1}%)",
                self.label,
                self.metric,
                self.baseline,
                self.current,
                self.change * 100.0
            )
        }
    }
}

/// Failure reading or interpreting a report.
#[derive(Debug)]
pub enum ReportError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The text is not valid JSON.
    Json(ParseError),
    /// The JSON does not match the report schema.
    Shape(String),
}

impl ReportError {
    fn shape(msg: &str) -> Self {
        ReportError::Shape(msg.to_string())
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "report I/O error: {e}"),
            ReportError::Json(e) => write!(f, "report is not valid JSON: {e}"),
            ReportError::Shape(msg) => write!(f, "report shape error: {msg}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<ParseError> for ReportError {
    fn from(e: ParseError) -> Self {
        ReportError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("bench", "bench_smoke").meta("scale", "test");
        r.push(
            MetricRow::new("hash/mg")
                .metric("cycles", 1000.0)
                .metric("moved", 40.0),
        );
        r.push(MetricRow::new("sort/mg").metric("cycles", 2000.0));
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample();
        let text = r.to_json().render_pretty();
        let back = Report::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.meta_value("scale"), Some("test"));
        assert_eq!(back.row("hash/mg").unwrap().get("cycles"), Some(1000.0));
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        assert!(sample().compare(&sample(), 0.10).is_empty());
    }

    #[test]
    fn compare_flags_out_of_tolerance_changes_both_ways() {
        let base = sample();
        let mut cur = sample();
        cur.rows[0].metrics[0].1 = 1200.0; // +20% cycles: regression
        cur.rows[1].metrics[0].1 = 1500.0; // -25% cycles: also flagged
        let regs = cur.compare(&base, 0.10);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].label, "hash/mg");
        assert!((regs[0].change - 0.2).abs() < 1e-12);
        assert!(regs[1].change < 0.0);
        assert!(regs[0].to_string().contains("+20.0%"));
    }

    #[test]
    fn compare_tolerates_changes_within_tolerance() {
        let base = sample();
        let mut cur = sample();
        cur.rows[0].metrics[0].1 = 1090.0; // +9%
        assert!(cur.compare(&base, 0.10).is_empty());
    }

    #[test]
    fn compare_flags_missing_rows_and_metrics() {
        let base = sample();
        let mut cur = sample();
        cur.rows.remove(1); // drop sort/mg entirely
        cur.rows[0].metrics.remove(1); // drop hash/mg moved
        let regs = cur.compare(&base, 0.10);
        assert_eq!(regs.len(), 2);
        assert!(regs.iter().any(|r| r.metric == "moved"));
        assert!(regs.iter().any(|r| r.metric == "<row>"));
        assert!(regs.iter().all(|r| r.to_string().contains("missing")));
    }

    #[test]
    fn extra_current_rows_are_not_regressions() {
        let base = sample();
        let mut cur = sample();
        cur.push(MetricRow::new("new/row").metric("cycles", 5.0));
        assert!(cur.compare(&base, 0.10).is_empty());
    }

    #[test]
    fn judge_rule_table() {
        use Direction::*;
        use Verdict::*;
        let inf = f64::INFINITY;
        // (current, baseline, direction, tolerance, change, verdict)
        let cases = [
            (0.0, 0.0, Either, 0.1, 0.0, Ok),
            (0.0, 0.0, LowerIsBetter, 0.0, 0.0, Ok),
            // 0 -> nonzero is a signed infinite change, beyond any tolerance.
            (1.0, 0.0, Either, 5.0, inf, Regressed),
            (-1.0, 0.0, Either, 5.0, -inf, Regressed),
            (3.0, 0.0, LowerIsBetter, 5.0, inf, Regressed),
            (3.0, 0.0, HigherIsBetter, 5.0, inf, Improved),
            (-3.0, 0.0, HigherIsBetter, 5.0, -inf, Regressed),
            // NaN on either side is no change.
            (f64::NAN, 1.0, Either, 0.1, 0.0, Ok),
            (1.0, f64::NAN, LowerIsBetter, 0.1, 0.0, Ok),
            (f64::NAN, 0.0, Either, 0.1, 0.0, Ok),
            // Neutral never flags, however far it moves.
            (100.0, 1.0, Neutral, 0.1, 99.0, Ok),
            (1.0, 0.0, Neutral, 0.1, inf, Ok),
            // Either flags both ways; one-sided directions improve the
            // other way.
            (1.2, 1.0, Either, 0.1, 0.2, Regressed),
            (0.8, 1.0, Either, 0.1, -0.2, Regressed),
            (1.2, 1.0, LowerIsBetter, 0.1, 0.2, Regressed),
            (0.8, 1.0, LowerIsBetter, 0.1, -0.2, Improved),
            (1.2, 1.0, HigherIsBetter, 0.1, 0.2, Improved),
            (0.8, 1.0, HigherIsBetter, 0.1, -0.2, Regressed),
            (1.09, 1.0, Either, 0.1, 0.09, Ok),
            // A negative baseline divides by its magnitude: -10 -> -8 is
            // a +20% move.
            (-8.0, -10.0, LowerIsBetter, 0.1, 0.2, Regressed),
            (-8.0, -10.0, HigherIsBetter, 0.1, 0.2, Improved),
            (-12.0, -10.0, Either, 0.1, -0.2, Regressed),
        ];
        for (cur, base, dir, tol, change, verdict) in cases {
            let judged = judge(cur, base, dir, tol);
            let close = if change.is_infinite() {
                judged.change == change
            } else {
                (judged.change - change).abs() < 1e-12
            };
            assert!(close, "{cur} vs {base} ({dir:?}): change {}", judged.change);
            assert_eq!(
                judged.verdict, verdict,
                "{cur} vs {base} ({dir:?}, tol {tol})"
            );
        }
    }

    #[test]
    fn zero_baseline_handled() {
        let mut base = Report::new("bench", "b");
        base.push(MetricRow::new("r").metric("x", 0.0));
        let mut cur = base.clone();
        assert!(cur.compare(&base, 0.10).is_empty());
        cur.rows[0].metrics[0].1 = -1.0;
        let regs = cur.compare(&base, 5.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].change, f64::NEG_INFINITY);
    }

    #[test]
    fn compare_matches_repeated_labels_by_metric() {
        // `results/BENCH_stress.json` splits `outofcore/phase1` over two
        // rows with disjoint metrics; it must compare cleanly with itself.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_stress.json"
        );
        let stress = Report::read_from(path).unwrap();
        let phase1 = stress
            .rows
            .iter()
            .filter(|r| r.label == "outofcore/phase1")
            .count();
        assert_eq!(phase1, 2, "fixture no longer repeats the label");
        assert_eq!(stress.compare(&stress, 0.10), Vec::new());
        // A metric that lives only in the second row is still found.
        let mut cur = stress.clone();
        let second = cur
            .rows
            .iter()
            .rposition(|r| r.label == "outofcore/phase1")
            .unwrap();
        cur.rows[second].metrics.clear();
        assert!(!cur.compare(&stress, 0.10).is_empty());
    }

    #[test]
    fn direction_heuristic_matches_workspace_names() {
        assert_eq!(direction("Pooled ns"), Direction::LowerIsBetter);
        assert_eq!(direction("ns/arc"), Direction::LowerIsBetter);
        assert_eq!(direction("total cycles"), Direction::LowerIsBetter);
        assert_eq!(direction("Speedup"), Direction::HigherIsBetter);
        assert_eq!(direction("modularity"), Direction::HigherIsBetter);
        assert_eq!(direction("NMI"), Direction::HigherIsBetter);
        assert_eq!(direction("Vertices"), Direction::Neutral);
        assert_eq!(direction("Arcs"), Direction::Neutral);
        // Throughputs end in "/s" and beat the Neutral size words.
        assert_eq!(direction("Arcs/s"), Direction::HigherIsBetter);
        assert_eq!(direction("Stream Marcs/s"), Direction::HigherIsBetter);
        // But "ns/superstep" style rates still read lower-is-better.
        assert_eq!(direction("ns/superstep"), Direction::LowerIsBetter);
    }

    #[test]
    fn verdicts_render_padded() {
        assert_eq!(format!("{:<10}|", Verdict::Ok), "ok        |");
        assert_eq!(Verdict::Regressed.to_string(), "REGRESSED");
        assert_eq!(Verdict::Improved.to_string(), "improved");
    }

    #[test]
    fn schema_version_is_checked() {
        let text = sample().to_json().set("schema", 999u64).render();
        assert!(matches!(
            Report::from_str(&text),
            Err(ReportError::Shape(_))
        ));
    }

    #[test]
    fn older_supported_schemas_still_parse() {
        // Committed baseline reports carry schema 2; the bump to 3 was
        // purely additive, so they must keep parsing.
        let text = sample().to_json().set("schema", 2u64).render();
        assert_eq!(Report::from_str(&text).unwrap(), sample());
        let text = sample().to_json().set("schema", 1u64).render();
        assert!(matches!(
            Report::from_str(&text),
            Err(ReportError::Shape(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("gala-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let r = sample();
        r.write_to(&path).unwrap();
        assert_eq!(Report::read_from(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }
}
