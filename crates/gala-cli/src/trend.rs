//! `gala trend`: perf-trajectory tracking across bench-report generations.
//!
//! Ingests one or more bench/run report JSON files (the `--report` output
//! of the bench binaries and `gala detect`), appends one normalized row per
//! `(source, label, metric)` to a JSONL history file, and renders each
//! series as a sparkline trajectory. A series whose latest value moved
//! against its preferred direction by more than `--threshold` relative to
//! the previous generation is flagged as `REGRESSED` and makes the command
//! exit non-zero — the CI hook for catching gradual performance drift that
//! any single-run gate would miss.
//!
//! History rows are deliberately timestamp-free (`{"schema", "source",
//! "label", "metric", "value"}`): generation order is the file's line
//! order, so re-running the same reports produces byte-identical appends
//! and the committed history stays reproducible.

use crate::analyze::{fmt_value, sparkline};
use crate::args::TrendArgs;
use crate::commands::Error;
use gala_telemetry::{direction, json, judge, Report, Verdict, SCHEMA_VERSION};

/// One decoded history row.
#[derive(Clone, Debug)]
struct TrendRow {
    source: String,
    label: String,
    metric: String,
    value: f64,
}

impl TrendRow {
    fn key(&self) -> String {
        format!("{}/{}/{}", self.source, self.label, self.metric)
    }

    fn to_json_line(&self) -> String {
        json::Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("source", self.source.as_str())
            .set("label", self.label.as_str())
            .set("metric", self.metric.as_str())
            .set("value", self.value)
            .render()
    }

    fn from_json_line(raw: &str, path: &str, line: usize) -> Result<TrendRow, Error> {
        let v = json::parse(raw).map_err(|e| format!("{path} line {line}: {e}"))?;
        let text = |key: &str| {
            v.get(key)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path} line {line}: missing `{key}`"))
        };
        let value = v
            .get("value")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path} line {line}: missing `value`"))?;
        Ok(TrendRow {
            source: text("source")?,
            label: text("label")?,
            metric: text("metric")?,
            value,
        })
    }
}

/// Reads an existing history file; a missing file is an empty history.
fn load_history(path: &str) -> Result<Vec<TrendRow>, Error> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{path}: {e}").into()),
    };
    let mut rows = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        rows.push(TrendRow::from_json_line(raw, path, idx + 1)?);
    }
    Ok(rows)
}

/// Flattens one report into history rows, in the report's own row order.
/// A report may repeat a label across rows, but not a `(label, metric)`
/// pair: the repeat would read as a second generation of one series.
fn rows_from_report(path: &str) -> Result<Vec<TrendRow>, Error> {
    let report = Report::read_from(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: Vec<TrendRow> = Vec::new();
    for row in &report.rows {
        for (metric, value) in &row.metrics {
            if out
                .iter()
                .any(|r| r.label == row.label && r.metric == *metric)
            {
                return Err(
                    format!("{path}: label `{}` repeats metric `{metric}`", row.label).into(),
                );
            }
            out.push(TrendRow {
                source: report.name.clone(),
                label: row.label.clone(),
                metric: metric.clone(),
                value: *value,
            });
        }
    }
    Ok(out)
}

/// One rendered series: every generation of a `(source, label, metric)`
/// key, in history order.
struct Series {
    key: String,
    metric: String,
    values: Vec<f64>,
}

/// Groups rows into series, preserving first-seen key order.
fn collect_series(rows: &[TrendRow]) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for row in rows {
        let key = row.key();
        match out.iter_mut().find(|s| s.key == key) {
            Some(s) => s.values.push(row.value),
            None => out.push(Series {
                key,
                metric: row.metric.clone(),
                values: vec![row.value],
            }),
        }
    }
    out
}

/// Renders the trajectory table; the second element lists the keys of
/// series that regressed beyond `threshold` between the last two
/// generations.
fn render(series: &[Series], threshold: f64) -> (String, Vec<String>) {
    let width = series.iter().map(|s| s.key.len()).max().unwrap_or(6).max(6);
    let mut out = format!(
        "  {:<width$} {:>4} {:>12} {:>12} {:>9}  {:<12} trend\n",
        "series", "gens", "previous", "latest", "change", "verdict"
    );
    let mut regressions = Vec::new();
    for s in series {
        let latest = *s.values.last().unwrap();
        let (prev_text, change_text, verdict) = if s.values.len() < 2 {
            ("-".to_string(), "-".to_string(), "new".to_string())
        } else {
            let prev = s.values[s.values.len() - 2];
            let judged = judge(latest, prev, direction(&s.metric), threshold);
            if judged.verdict == Verdict::Regressed {
                regressions.push(s.key.clone());
            }
            (
                fmt_value(prev),
                format!("{:+.1}%", judged.change * 100.0),
                judged.verdict.to_string(),
            )
        };
        out.push_str(&format!(
            "  {:<width$} {:>4} {:>12} {:>12} {:>9}  {:<12} {}\n",
            s.key,
            s.values.len(),
            prev_text,
            fmt_value(latest),
            change_text,
            verdict,
            sparkline(&s.values),
        ));
    }
    (out, regressions)
}

/// Executes the `trend` subcommand: ingest, append, render, gate.
pub fn run(args: &TrendArgs) -> Result<(), Error> {
    let history = load_history(&args.history)?;
    let mut fresh = Vec::new();
    for path in &args.reports {
        fresh.extend(rows_from_report(path)?);
    }
    if !args.dry_run && !fresh.is_empty() {
        let mut text = String::new();
        for row in &fresh {
            text.push_str(&row.to_json_line());
            text.push('\n');
        }
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&args.history)
            .map_err(|e| format!("{}: {e}", args.history))?;
        file.write_all(text.as_bytes())
            .map_err(|e| format!("{}: {e}", args.history))?;
    }
    let mut all = history;
    all.extend(fresh);
    let series = collect_series(&all);
    println!(
        "trend: {} series over {} history rows ({})",
        series.len(),
        all.len(),
        args.history
    );
    let (table, regressions) = render(&series, args.threshold);
    print!("{table}");
    if !regressions.is_empty() {
        return Err(format!(
            "{} series regressed beyond {:.1}%: {}",
            regressions.len(),
            args.threshold * 100.0,
            regressions.join(", ")
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_telemetry::MetricRow;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gala_trend_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn write_report(path: &str, name: &str, pooled_ns: f64, speedup: f64) {
        let mut r = Report::new("bench", name);
        r.push(
            MetricRow::new("contract/FR/t1")
                .metric("Vertices", 6000.0)
                .metric("Pooled ns", pooled_ns)
                .metric("Speedup", speedup),
        );
        r.write_to(path).unwrap();
    }

    #[test]
    fn rows_round_trip_through_jsonl() {
        let row = TrendRow {
            source: "bench_host".into(),
            label: "launch/FR/t1".into(),
            metric: "Pooled ns".into(),
            value: 190497.0,
        };
        let line = row.to_json_line();
        let back = TrendRow::from_json_line(&line, "mem", 1).unwrap();
        assert_eq!(back.key(), row.key());
        assert_eq!(back.value, row.value);
        assert!(TrendRow::from_json_line("{\"source\":\"x\"}", "mem", 1).is_err());
    }

    #[test]
    fn first_generation_is_new_not_regressed() {
        let history = tmp("first.jsonl");
        let report = format!("{}.json", tmp("first_report"));
        let _ = std::fs::remove_file(&history);
        write_report(&report, "bench_contract", 500_000.0, 4.5);
        let args = TrendArgs {
            reports: vec![report.clone()],
            history: history.clone(),
            threshold: 0.1,
            dry_run: false,
        };
        run(&args).unwrap();
        // The append is real and one row per metric was written.
        let rows = load_history(&history).unwrap();
        assert_eq!(rows.len(), 3);
        let _ = std::fs::remove_file(history);
        let _ = std::fs::remove_file(report);
    }

    #[test]
    fn injected_regression_makes_the_gate_fail() {
        let history = tmp("gate.jsonl");
        let report = format!("{}.json", tmp("gate_report"));
        let _ = std::fs::remove_file(&history);
        // Generation 1: healthy numbers.
        write_report(&report, "bench_contract", 500_000.0, 4.5);
        let args = TrendArgs {
            reports: vec![report.clone()],
            history: history.clone(),
            threshold: 0.1,
            dry_run: false,
        };
        run(&args).unwrap();
        // Generation 2: Pooled ns +50% (a lower-is-better metric) and
        // Speedup -33% must both trip the 10% gate and exit non-zero.
        write_report(&report, "bench_contract", 750_000.0, 3.0);
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("Pooled ns"), "{err}");
        assert!(err.contains("Speedup"), "{err}");
        // Vertices is neutral: constant or not, it never regresses.
        assert!(!err.contains("Vertices"), "{err}");
        // A loose threshold lets the same delta pass.
        let loose = TrendArgs {
            threshold: 5.0,
            dry_run: true,
            ..args.clone()
        };
        run(&loose).unwrap();
        let _ = std::fs::remove_file(history);
        let _ = std::fs::remove_file(report);
    }

    #[test]
    fn dry_run_does_not_touch_the_history() {
        let history = tmp("dry.jsonl");
        let report = format!("{}.json", tmp("dry_report"));
        let _ = std::fs::remove_file(&history);
        write_report(&report, "bench_host", 100.0, 1.0);
        let args = TrendArgs {
            reports: vec![report.clone()],
            history: history.clone(),
            threshold: 0.1,
            dry_run: true,
        };
        run(&args).unwrap();
        assert!(!std::path::Path::new(&history).exists());
        let _ = std::fs::remove_file(report);
    }

    #[test]
    fn a_repeated_label_and_metric_is_rejected() {
        let path = format!("{}.json", tmp("dup_report"));
        let mut r = Report::new("bench", "bench_stress");
        r.push(MetricRow::new("outofcore/phase1").metric("Wall s", 185.6));
        // The same label with a disjoint metric is a continuation.
        r.push(MetricRow::new("outofcore/phase1").metric("modularity", 0.57));
        r.write_to(&path).unwrap();
        assert_eq!(rows_from_report(&path).unwrap().len(), 2);
        r.push(MetricRow::new("outofcore/phase1").metric("Wall s", 190.0));
        r.write_to(&path).unwrap();
        let err = rows_from_report(&path).unwrap_err().to_string();
        assert!(err.contains("outofcore/phase1"), "{err}");
        assert!(err.contains("Wall s"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn committed_reports_ingest_cleanly() {
        // The repo's own BENCH_* reports must flatten into rows: these are
        // the seven CI feeds `gala trend`.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in [
            "BENCH_host.json",
            "BENCH_contract.json",
            "BENCH_profile.json",
            "BENCH_mg_contract.json",
            "BENCH_ingest.json",
            "BENCH_stress.json",
            "BENCH_recorder.json",
        ] {
            let path = format!("{dir}/results/{name}");
            let rows = rows_from_report(&path).unwrap();
            assert!(!rows.is_empty(), "{name} produced no rows");
            assert!(rows.iter().all(|r| r.value.is_finite()));
        }
    }
}
