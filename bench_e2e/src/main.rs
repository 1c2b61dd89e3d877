//! `bench_e2e`: the repository's end-to-end benchmark of native
//! `gala detect`. See README.md for the metrics, the workloads and how to
//! run it.
//!
//! ```text
//! bench_e2e --workload social|web|lfr|dense [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics ([`run`]); `--trace 1` is the
//! separate traced pass that gives the per-layer metrics ([`trace`]). The
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the run's
//! metadata.

mod replay;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::Inputs;

const USAGE: &str =
    "usage: bench_e2e --workload social|web|lfr|dense [--seed N] [--seconds S] [--trace 0|1]";

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("detect_s", "s"),
    ("modularity", "ratio"),
    ("nmi", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("builder.build_s", "s"),
    ("io.load_binary_s", "s"),
    ("state.init_s", "s"),
    ("pruning.classify_s", "s"),
    ("pruning.active_frac", "ratio"),
    ("kernels.decide_s", "s"),
    ("kernels.active_arcs", "count"),
    ("kernels.arcs_per_s", "1/s"),
    ("kernels.hash_frac", "ratio"),
    ("state.apply_s", "s"),
    ("louvain.moved_per_active", "ratio"),
    ("weight.update_s", "s"),
    ("state.modularity_s", "s"),
    ("louvain.best_state_s", "s"),
    ("louvain.supersteps", "count"),
    ("louvain.rounds", "count"),
    ("state.partition_s", "s"),
    ("coarsen.contract_s", "s"),
    ("partition.compose_s", "s"),
    ("modularity.flat_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("scaling.detect_1t_s", "s"),
    ("scaling.speedup", "ratio"),
    ("sequential.wall_s", "s"),
    ("sequential.modularity", "ratio"),
    ("sequential.nmi", "ratio"),
    ("grappolo.wall_s", "s"),
    ("leiden.wall_s", "s"),
    ("leiden.modularity", "ratio"),
    ("leiden.nmi", "ratio"),
    ("gala.vs_sequential", "ratio"),
];

/// What one mode measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (timed reps in `run`, guards in `trace`).
    pub attempted: u64,
    pub failed: u64,
    /// Why checks failed.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra metadata: key and a JSON value.
    pub notes: Vec<(String, String)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err(bad(&"must be a finite number >= 0"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// Set on the process that measures after its parent generated the inputs.
const FRESH_ENV: &str = "BENCH_E2E_FRESH_PROCESS";

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Where generated inputs are cached: beside the build, under the cargo
/// target directory the benchmark was built into.
fn input_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench_e2e")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let workload = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{USAGE}", args.workload))?;
    let inputs = Inputs::locate(&workload, args.seed, &input_dir());
    if !inputs.is_complete() {
        if std::env::var_os(FRESH_ENV).is_some() {
            return Err("inputs missing right after generation".into());
        }
        let started = Instant::now();
        inputs
            .generate(&workload, args.seed)
            .map_err(|e| format!("generating inputs: {e}"))?;
        eprintln!(
            "bench_e2e: generated {} inputs in {:.1} s",
            workload.name,
            started.elapsed().as_secs_f64()
        );
        // Measure in a fresh process: memory the generator touched would
        // otherwise stay resident here and inflate the peak-RSS metric.
        let status = std::env::current_exe()
            .and_then(|exe| {
                Command::new(exe)
                    .args(std::env::args_os().skip(1))
                    .env(FRESH_ENV, "1")
                    .status()
            })
            .map_err(|e| format!("re-running on the generated inputs: {e}"))?;
        return Ok(status
            .code()
            .and_then(|code| u8::try_from(code).ok())
            .map_or(ExitCode::FAILURE, ExitCode::from));
    }
    let (mode, spec, mut outcome) = if args.trace {
        ("trace", PER_LAYER, trace::trace(&workload, &inputs)?)
    } else {
        (
            "run",
            END_TO_END,
            run::run(&workload, &inputs, args.seconds)?,
        )
    };

    let mut values = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("{mode} measured no {name}"))?;
        if !value.is_finite() {
            outcome.problems.push(format!("{name} is {value}"));
        }
        values.push((name, unit, value));
    }

    let mut meta = format!(
        "{{\"workload\":\"{}\",\"mode\":\"{mode}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\
         \"hardware_threads\":{},\"format\":\"{}\",\"params\":{}",
        workload.name,
        args.seed,
        args.seconds,
        rayon::configured_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload.format.name(),
        workload.shape.params_json(),
    );
    for (key, value) in &outcome.notes {
        meta.push_str(&format!(",\"{key}\":{value}"));
    }
    meta.push('}');
    for (name, unit, value) in &values {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("bench_e2e: FAILED: {problem}");
    }
    println!("{meta}");

    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of `field` in the `key` list of `BENCHMARK.json`.
    fn listed(key: &str, field: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = text
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("key present");
        let section = section.split(']').next().unwrap();
        section
            .split(&format!("\"{field}\": \""))
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    }

    fn assert_listed(key: &str, spec: &[(&str, &str)]) {
        let names: Vec<&str> = spec.iter().map(|&(n, _)| n).collect();
        let units: Vec<&str> = spec.iter().map(|&(_, u)| u).collect();
        assert_eq!(listed(key, "name"), names, "{key} names");
        assert_eq!(listed(key, "unit"), units, "{key} units");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_listed("end_to_end", END_TO_END);
        assert_listed("per_layer", PER_LAYER);
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let ours: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), ours);
    }

    #[test]
    fn every_replayed_layer_is_a_listed_metric() {
        for layer in replay::Layer::ALL {
            assert!(
                PER_LAYER.iter().any(|&(n, _)| n == layer.metric()),
                "{} missing",
                layer.metric()
            );
        }
    }

    #[test]
    fn parses_the_command_line() {
        let argv = [
            "--workload",
            "web",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("web", 9, 10.0, true)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "web", "--trace", "2"],
            &["--workload", "web", "--seconds"],
            &["--workload", "web", "--bogus", "1"],
        ] {
            assert!(
                Args::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
