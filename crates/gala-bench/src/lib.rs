//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the GALA paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gala_core::louvain::{Louvain, LouvainConfig};
use gala_graph::datasets::{Dataset, Scale};
use gala_graph::Graph;
use gala_telemetry::{MetricRow, Report};
use std::time::{Duration, Instant};

/// Returns the benchmark scale selected by the `GALA_SCALE` environment
/// variable (`test` → small graphs, anything else / unset → full).
pub fn scale_from_env() -> Scale {
    match std::env::var("GALA_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Full,
    }
}

/// Generates all seven stand-in graphs at the given scale.
pub fn all_datasets(scale: Scale) -> Vec<(Dataset, Graph)> {
    Dataset::all()
        .into_iter()
        .map(|d| (d, d.generate(scale)))
        .collect()
}

/// Times a closure, returning its result and the wall-clock duration.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Best-of-`reps` wall time of `f` (after one untimed warmup call).
pub fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    (0..reps)
        .map(|_| time(&mut f).1)
        .min()
        .expect("reps must be > 0")
}

/// The machine's hardware thread count (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs phase 1 (the paper's measured region) and returns wall time plus
/// the round stats.
pub fn run_phase1_timed(
    graph: &Graph,
    config: LouvainConfig,
) -> (gala_core::louvain::RoundStats, Duration) {
    let ((_, stats), wall) = time(|| Louvain::new(config).run_phase1(graph));
    (stats, wall)
}

/// Minimal fixed-width table printer for paper-style terminal output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                line.push_str(&format!(" {:>w$} |", cells[i], w = widths[i]));
            }
            line.push('\n');
            line
        };
        let sep = {
            let mut line = String::from("|");
            for w in &widths {
                line.push_str(&format!("{:-<w$}|", "", w = w + 2));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Adds this table to `report` as one [`MetricRow`] per data row,
    /// labelled `section/<first cell>`, with one metric per *numeric*
    /// column (see [`parse_cell`]); non-numeric cells are skipped — the
    /// human-readable rendering keeps them.
    pub fn add_to_report(&self, report: &mut Report, section: &str) {
        for row in &self.rows {
            let label = format!(
                "{section}/{}",
                row.first().map(String::as_str).unwrap_or("")
            );
            let mut out = MetricRow::new(label);
            for (header, cell) in self.headers.iter().zip(row).skip(1) {
                if let Some(v) = parse_cell(cell) {
                    out.metrics.push((header.clone(), v));
                }
            }
            report.push(out);
        }
    }
}

/// Parses a rendered table cell back to a number: plain integers/floats,
/// [`eng`]-notation suffixes (`K`/`M`/`G`), ratios (`1.50x`), percentages
/// (`12.3%`, kept as the printed number), and [`ms`] durations.
pub fn parse_cell(cell: &str) -> Option<f64> {
    let s = cell.trim();
    if let Ok(v) = s.parse::<f64>() {
        return v.is_finite().then_some(v);
    }
    let (head, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1e3),
        b'M' => (&s[..s.len() - 1], 1e6),
        b'G' => (&s[..s.len() - 1], 1e9),
        b'x' | b'%' => (&s[..s.len() - 1], 1.0),
        _ => return None,
    };
    let v = head.trim().parse::<f64>().ok()?;
    (v.is_finite()).then_some(v * mult)
}

/// A fresh `"bench"` report named after the producing binary, stamped with
/// the active [`scale_from_env`] scale.
pub fn new_report(name: &str) -> Report {
    Report::new("bench", name).meta(
        "scale",
        match scale_from_env() {
            Scale::Test => "test",
            Scale::Full => "full",
        },
    )
}

/// The command-line flags shared by the experiment binaries, parsed once:
/// `--quick` (fewer reps/graphs), `--gate` (enforce perf floors),
/// `--report <file>` (machine-readable JSON), `--trace <file>`
/// (instrumented JSONL trace, where supported), `--check <file>` (compare
/// against a baseline report), `--threads <k>` (pin the sweep width).
///
/// Every binary previously open-coded this scan; parse once in `main` with
/// [`BenchArgs::parse`] and read fields instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// Fewer repetitions and graphs for CI-speed runs.
    pub quick: bool,
    /// Enforce the binary's performance gate (exit non-zero on a miss).
    pub gate: bool,
    /// Write the JSON report here.
    pub report: Option<String>,
    /// Write an instrumented JSONL trace here (binaries that support it).
    pub trace: Option<String>,
    /// Compare the report against this baseline report.
    pub check: Option<String>,
    /// Pin the thread sweep to one width.
    pub threads: Option<usize>,
}

impl BenchArgs {
    /// Parses the process arguments. Unknown flags are ignored so binaries
    /// can keep bespoke extras.
    pub fn parse() -> Self {
        Self::from_argv(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// Parses an explicit argv (unit-testable core of [`BenchArgs::parse`]).
    pub fn from_argv(args: &[String]) -> Self {
        let mut out = BenchArgs::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--quick" => out.quick = true,
                "--gate" => out.gate = true,
                "--report" | "--trace" | "--check" | "--threads" => {
                    i += 1;
                    let Some(v) = args.get(i).cloned() else {
                        eprintln!("{flag} needs a value");
                        std::process::exit(2);
                    };
                    match flag {
                        "--report" => out.report = Some(v),
                        "--trace" => out.trace = Some(v),
                        "--check" => out.check = Some(v),
                        _ => {
                            out.threads = Some(v.parse().unwrap_or_else(|_| {
                                eprintln!("--threads takes a number, got `{v}`");
                                std::process::exit(2);
                            }))
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// Picks a repetition count by mode: `quick` under `--quick`, else
    /// `full`.
    pub fn reps(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The thread-width sweep: `--threads` pins a single width, otherwise
    /// {1, 2, 4, 8, `gate_width`} sorted and deduplicated.
    pub fn thread_sweep(&self, gate_width: usize) -> Vec<usize> {
        match self.threads {
            Some(k) => vec![k],
            None => {
                let mut ks = vec![1, 2, 4, 8, gate_width];
                ks.sort_unstable();
                ks.dedup();
                ks
            }
        }
    }

    /// Writes `report` to the `--report` path, when given. Exits the
    /// process with an error message when writing fails — a bench invoked
    /// for its report must not silently drop it.
    pub fn write_report(&self, report: &Report) {
        if let Some(path) = &self.report {
            if let Err(e) = report.write_to(path) {
                eprintln!("failed to write report to {path}: {e}");
                std::process::exit(1);
            }
            println!("\nreport written to {path}");
        }
    }

    /// Ends the run on its `--gate` verdict: [`conclude`]s the `gate`,
    /// enforced only under `--gate`, and exits 1 when it failed.
    pub fn finish_gate(&self, failures: &[String], ok: &str) {
        if conclude("gate", self.gate, failures, ok) {
            std::process::exit(1);
        }
    }
}

/// Prints the epilogue of the gate called `name` and returns whether it
/// failed. With no `failures`, an enforced gate prints `{name} OK: {ok}`;
/// failures go to stderr under `{name} FAILED:` when `enforced`, else
/// under `warnings:`, and fail only an enforced gate.
pub fn conclude(name: &str, enforced: bool, failures: &[String], ok: &str) -> bool {
    if failures.is_empty() {
        if enforced {
            println!("\n{name} OK: {ok}");
        }
        return false;
    }
    if enforced {
        eprintln!("\n{name} FAILED:");
    } else {
        eprintln!("\nwarnings:");
    }
    for f in failures {
        eprintln!("  {f}");
    }
    enforced
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Formats a large count in engineering notation (K/M/G).
pub fn eng(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn bench_args_parse_the_shared_flags() {
        let a = BenchArgs::from_argv(&argv(
            "--quick --gate --report r.json --trace t.jsonl --check b.json --threads 4",
        ));
        assert!(a.quick && a.gate);
        assert_eq!(a.report.as_deref(), Some("r.json"));
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.check.as_deref(), Some("b.json"));
        assert_eq!(a.threads, Some(4));

        let none = BenchArgs::from_argv(&argv("--unknown positional"));
        assert_eq!(none, BenchArgs::default());
    }

    #[test]
    fn bench_args_reps_and_sweep() {
        let quick = BenchArgs {
            quick: true,
            ..BenchArgs::default()
        };
        assert_eq!(quick.reps(3, 10), 3);
        assert_eq!(BenchArgs::default().reps(3, 10), 10);
        assert_eq!(BenchArgs::default().thread_sweep(4), vec![1, 2, 4, 8]);
        assert_eq!(BenchArgs::default().thread_sweep(16), vec![1, 2, 4, 8, 16]);
        let pinned = BenchArgs {
            threads: Some(2),
            ..BenchArgs::default()
        };
        assert_eq!(pinned.thread_sweep(8), vec![2]);
    }

    #[test]
    fn gate_fails_only_when_enforced_with_failures() {
        let failures = vec!["FR/t1: pooled 2ns vs seed 1ns (limit 1.15x)".to_string()];
        assert!(conclude("gate", true, &failures, "ok"));
        assert!(conclude("check", true, &failures, "ok"));
        assert!(!conclude("gate", false, &failures, "ok"));
        assert!(!conclude("gate", true, &[], "ok"));
        assert!(!conclude("gate", false, &[], "ok"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Graph", "Q"]);
        t.row(vec!["LJ".into(), "0.75".into()]);
        t.row(vec!["ORKUT".into(), "0.6".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["A"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn eng_notation() {
        assert_eq!(eng(512.0), "512");
        assert_eq!(eng(2_500.0), "2.50K");
        assert_eq!(eng(3_000_000.0), "3.00M");
        assert_eq!(eng(7.2e9), "7.20G");
    }

    #[test]
    fn parse_cell_inverts_renderings() {
        assert_eq!(parse_cell("512"), Some(512.0));
        assert_eq!(parse_cell("0.753"), Some(0.753));
        assert_eq!(parse_cell("2.50K"), Some(2500.0));
        assert_eq!(parse_cell("3.00M"), Some(3_000_000.0));
        assert_eq!(parse_cell("7.20G"), Some(7.2e9));
        assert_eq!(parse_cell("1.93x"), Some(1.93));
        assert_eq!(parse_cell("41.5%"), Some(41.5));
        assert_eq!(parse_cell("LJ"), None);
        assert_eq!(parse_cell(""), None);
        assert_eq!(parse_cell("hash/mg"), None);
    }

    #[test]
    fn table_converts_to_report_rows() {
        let mut t = Table::new(&["Graph", "Cycles", "Speedup", "Note"]);
        t.row(vec![
            "LJ".into(),
            "2.50K".into(),
            "1.90x".into(),
            "best".into(),
        ]);
        t.row(vec![
            "UK".into(),
            "4.00M".into(),
            "1.20x".into(),
            "-".into(),
        ]);
        let mut report = new_report("test_bin");
        t.add_to_report(&mut report, "fig");
        assert_eq!(report.rows.len(), 2);
        let lj = report.row("fig/LJ").unwrap();
        assert_eq!(lj.get("Cycles"), Some(2500.0));
        assert_eq!(lj.get("Speedup"), Some(1.9));
        assert_eq!(lj.get("Note"), None); // non-numeric cell skipped
                                          // And the whole thing round-trips through the JSON schema.
        let back = Report::from_str(&report.to_json().render()).unwrap();
        assert_eq!(back, report);
    }
}
