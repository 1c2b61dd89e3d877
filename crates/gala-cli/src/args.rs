//! Argument grammar for the `gala` CLI (hand-rolled: the workspace carries
//! no arg-parsing dependency).

use gala_core::backend::BackendKind;
use gala_core::multi_gpu::ContractMode;
use gala_core::pruning::PruningKind;
use std::fmt;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  gala detect <graph> [options]     run community detection
      --algorithm gala|leiden|lpa|sequential   (default: gala)
      --backend sim|native                     (default: sim; gala/leiden)
      --pruning mgd|mg|sm|rm|pm|mgrm|none      (default: mgd; gala only)
                                               mgd = MG with damped moves;
                                               mg = the paper's plain MG
      --resolution <gamma>                     (default: 1.0)
      --format edgelist|metis|bin              (default: by extension)
      --output <file>                          write `vertex community` lines
      --devices <p>                            simulated GPUs each GALA superstep
                                               is split over; the result is the
                                               same at any count (default: 1)
      --mg-contract host|partitioned           GALA phase-2 contraction: one host
                                               pass, or per device with modelled
                                               exchange (default: host)
      --reorder degree|bfs|none                locality preprocessing: renumber
                                               vertices before detection and
                                               report mean edge span before and
                                               after (default: none; output
                                               assignments keep original ids)
      --store owned|mapped                     binary-graph load path: fully
                                               validated owned arrays, or the
                                               checksummed mapped container
                                               (default: owned; bin format only)
      --trace <file>     write a JSONL superstep trace (any algorithm)
      --report <file>    write a machine-readable JSON run report
      --quiet                                  suppress the report
      --progress         live status line on stderr (plain lines when
                         stderr is not a TTY); a panic leaves a
                         crash-<pid>.json dump with the last snapshot
  gala stats <graph> [--format ...]   print graph statistics
  gala generate <kind> --out <file> [--n <v>] [--seed <s>] [--mixing <mu>]
      kinds: sbm | lfr | rmat | ba | ws | gnp
  gala convert <in> <out>             convert between formats (by extension)
  gala compare <assign1> <assign2> [--graph <file>]
                                      NMI/ARI between two assignment files
                                      (plus per-partition Q with --graph)
  gala analyze <trace> [baseline] [options]
                                      inspect a --trace JSONL file:
                                      per-superstep curves, per-round
                                      convergence (supersteps after the best
                                      Q, any Q limit cycle) and a top-N span
                                      summary; with a second trace, diff the
                                      watched metrics and exit non-zero on a
                                      regression beyond the threshold
      --top <n>          span-summary rows (default: 10)
      --threshold <t>    relative regression tolerance (default: 0.1)
      --check            validate the trace only (exit non-zero if malformed)
      --chrome-trace <file>  export a Chrome Trace Event JSON file for
                             Perfetto / chrome://tracing instead of a report
  gala profile <sim.trace> <native.trace> [options]
                                      join a sim and a native trace
                                      span-by-span: per-kernel component
                                      stacks (compute / memory / atomics /
                                      scan-sort / sync), arithmetic and
                                      memory intensity, and calibration
                                      residuals against a fitted clock
      --top <n>          kernel rows to print (default: 16)
      --report <file>    write a machine-readable JSON report
      --chrome-trace <file>  export component counter tracks for Perfetto
      --write-calibration <file>  persist the fitted clock + residuals
      --gate <calibration.json>   exit non-zero when a calibrated kernel's
                                  residual drifts past the threshold
      --threshold <t>    relative residual drift tolerance for --gate
                         (default: 0.25)
  gala trend <report...> [options]    track metrics across bench reports:
                                      append normalized rows to a JSONL
                                      history and render per-metric
                                      trajectories; exit non-zero on a
                                      regression beyond the threshold
      --history <file>   trajectory store (default: results/TREND.jsonl)
      --threshold <t>    relative regression tolerance (default: 0.1)
      --dry-run          render without appending to the history
  gala help                           show this text";

/// Graph file formats the CLI understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Whitespace edge list (`u v [w]`).
    EdgeList,
    /// METIS adjacency format.
    Metis,
    /// The crate's binary container.
    Binary,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "edgelist" | "txt" => Ok(Format::EdgeList),
            "metis" | "graph" => Ok(Format::Metis),
            "bin" | "binary" => Ok(Format::Binary),
            other => Err(ParseError(format!("unknown format `{other}`"))),
        }
    }

    /// Infers a format from a file extension; edge list when unknown.
    pub fn from_path(path: &str) -> Self {
        match path.rsplit('.').next().unwrap_or("") {
            "metis" | "graph" => Format::Metis,
            "bin" => Format::Binary,
            _ => Format::EdgeList,
        }
    }
}

/// Detection algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The full GALA system (BSP Louvain on the simulated GPU).
    Gala,
    /// Leiden (sequential, connectivity-guaranteed).
    Leiden,
    /// Synchronous label propagation.
    Lpa,
    /// Classic sequential Louvain.
    Sequential,
}

impl Algorithm {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "gala" => Ok(Algorithm::Gala),
            "leiden" => Ok(Algorithm::Leiden),
            "lpa" | "labelprop" => Ok(Algorithm::Lpa),
            "sequential" | "louvain" => Ok(Algorithm::Sequential),
            other => Err(ParseError(format!("unknown algorithm `{other}`"))),
        }
    }
}

/// Locality preprocessing (`--reorder`): renumber vertices before
/// detection. Assignments written with `--output` are mapped back to the
/// original ids. The graph itself is unchanged up to relabeling, but
/// parallel Louvain breaks ties by vertex id, so community boundaries
/// (and Q, slightly) can differ from the unreordered run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reorder {
    /// Keep the input ordering (the default).
    #[default]
    None,
    /// Degree-descending (hubs first).
    Degree,
    /// BFS from the highest-degree vertex per component.
    Bfs,
}

impl Reorder {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "none" => Ok(Reorder::None),
            "degree" => Ok(Reorder::Degree),
            "bfs" => Ok(Reorder::Bfs),
            other => Err(ParseError(format!(
                "unknown reorder `{other}` (expected degree|bfs|none)"
            ))),
        }
    }
}

/// Binary-graph load path (`--store`): fully validated owned arrays, or
/// the checksummed v2 container through the mapped loader. Both yield
/// identical graphs; mapped skips the structural audit on load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Store {
    /// Owned, fully validated load (the default).
    #[default]
    Owned,
    /// Mapped v2-container load (bin format only).
    Mapped,
}

impl Store {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "owned" => Ok(Store::Owned),
            "mapped" => Ok(Store::Mapped),
            other => Err(ParseError(format!(
                "unknown store `{other}` (expected owned|mapped)"
            ))),
        }
    }
}

/// The `detect` subcommand's options.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectArgs {
    /// Input graph path.
    pub input: String,
    /// Input format (inferred from the extension when absent).
    pub format: Option<Format>,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Execution backend (GALA and Leiden).
    pub backend: BackendKind,
    /// Pruning strategy (GALA only).
    pub pruning: PruningKind,
    /// Resolution γ.
    pub resolution: f64,
    /// Assignment output path.
    pub output: Option<String>,
    /// Simulated device count.
    pub devices: usize,
    /// Phase-2 contraction strategy (GALA only).
    pub mg_contract: ContractMode,
    /// Locality preprocessing before detection.
    pub reorder: Reorder,
    /// Binary-graph load path.
    pub store: Store,
    /// JSONL trace output path (per-superstep events; GALA algorithm).
    pub trace: Option<String>,
    /// Machine-readable JSON report output path.
    pub report: Option<String>,
    /// Suppress the human-readable report.
    pub quiet: bool,
    /// Render a live flight-recorder status line on stderr.
    pub progress: bool,
}

/// The `generate` subcommand's options.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateArgs {
    /// Generator kind (`sbm`, `lfr`, `rmat`, `ba`, `ws`, `gnp`).
    pub kind: String,
    /// Output path.
    pub out: String,
    /// Vertex count.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Mixing parameter (sbm / lfr).
    pub mixing: f64,
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run community detection.
    Detect(DetectArgs),
    /// Print graph statistics.
    Stats {
        /// Input path.
        input: String,
        /// Explicit format override.
        format: Option<Format>,
    },
    /// Generate a synthetic graph.
    Generate(GenerateArgs),
    /// Convert between formats.
    Convert {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
    },
    /// Compare two community-assignment files.
    Compare {
        /// First assignment file (`vertex community` lines).
        a: String,
        /// Second assignment file.
        b: String,
        /// Optional graph for modularity scoring.
        graph: Option<String>,
    },
    /// Inspect (and optionally diff) trace JSONL files.
    Analyze(AnalyzeArgs),
    /// Join a sim and a native trace into per-kernel cost attribution.
    Profile(ProfileArgs),
    /// Track watched metrics across bench-report generations.
    Trend(TrendArgs),
    /// Print usage.
    Help,
}

/// The `analyze` subcommand's options.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeArgs {
    /// Trace to analyze.
    pub trace: String,
    /// Optional baseline trace to diff against.
    pub baseline: Option<String>,
    /// Rows in the span summary.
    pub top: usize,
    /// Relative regression tolerance for diff mode.
    pub threshold: f64,
    /// Validate the trace only.
    pub check: bool,
    /// Write a Chrome Trace Event Format export here instead of a report.
    pub chrome_trace: Option<String>,
}

/// The `profile` subcommand's options.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArgs {
    /// Trace of a `sim` backend run (spans charge cycles).
    pub sim_trace: String,
    /// Trace of a `native` backend run (spans charge wall ns).
    pub native_trace: String,
    /// Kernel rows to print in the roofline table.
    pub top: usize,
    /// Machine-readable JSON report output path.
    pub report: Option<String>,
    /// Chrome Trace Event Format export path (component counter tracks).
    pub chrome_trace: Option<String>,
    /// Persist the fitted calibration here.
    pub write_calibration: Option<String>,
    /// Gate against a previously-written calibration file.
    pub gate: Option<String>,
    /// Relative residual drift tolerance for `--gate`.
    pub threshold: f64,
}

/// The `trend` subcommand's options.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendArgs {
    /// Bench-report JSON files to ingest, in generation order.
    pub reports: Vec<String>,
    /// JSONL trajectory store, appended to unless `--dry-run`.
    pub history: String,
    /// Relative regression tolerance between the last two generations.
    pub threshold: f64,
    /// Render without appending to the history file.
    pub dry_run: bool,
}

/// A parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, ParseError> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Parses the `--threshold` value shared by `analyze`, `profile` and
/// `trend`: a relative tolerance that is neither NaN nor negative.
fn parse_threshold(args: &[String], i: &mut usize) -> Result<f64, ParseError> {
    let v = value(args, i, "--threshold")?;
    let t: f64 = v
        .parse()
        .map_err(|_| ParseError(format!("bad --threshold `{v}`")))?;
    if t.is_nan() || t < 0.0 {
        return Err(ParseError("threshold must be >= 0".into()));
    }
    Ok(t)
}

impl Command {
    /// Parses an argv (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ParseError> {
        let Some(sub) = args.first() else {
            return Err(ParseError("missing subcommand".into()));
        };
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "detect" => Self::parse_detect(&args[1..]),
            "stats" => Self::parse_stats(&args[1..]),
            "generate" => Self::parse_generate(&args[1..]),
            "convert" => {
                let [input, output] = &args[1..] else {
                    return Err(ParseError("convert needs <in> <out>".into()));
                };
                Ok(Command::Convert {
                    input: input.clone(),
                    output: output.clone(),
                })
            }
            "compare" => Self::parse_compare(&args[1..]),
            "analyze" => Self::parse_analyze(&args[1..]),
            "profile" => Self::parse_profile(&args[1..]),
            "trend" => Self::parse_trend(&args[1..]),
            other => Err(ParseError(format!("unknown subcommand `{other}`"))),
        }
    }

    fn parse_detect(args: &[String]) -> Result<Self, ParseError> {
        let mut out = DetectArgs {
            input: String::new(),
            format: None,
            algorithm: Algorithm::Gala,
            backend: BackendKind::Sim,
            pruning: PruningKind::GainDamped,
            resolution: 1.0,
            output: None,
            devices: 1,
            mg_contract: ContractMode::Host,
            reorder: Reorder::None,
            store: Store::Owned,
            trace: None,
            report: None,
            quiet: false,
            progress: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--format" => out.format = Some(Format::parse(value(args, &mut i, "--format")?)?),
                "--algorithm" => {
                    out.algorithm = Algorithm::parse(value(args, &mut i, "--algorithm")?)?
                }
                "--backend" => {
                    out.backend = value(args, &mut i, "--backend")?
                        .parse()
                        .map_err(ParseError)?
                }
                "--pruning" => {
                    out.pruning = value(args, &mut i, "--pruning")?
                        .parse()
                        .map_err(ParseError)?
                }
                "--resolution" => {
                    let v = value(args, &mut i, "--resolution")?;
                    out.resolution = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad resolution `{v}`")))?;
                    if !(out.resolution.is_finite() && out.resolution > 0.0) {
                        return Err(ParseError("resolution must be finite and > 0".into()));
                    }
                }
                "--output" => out.output = Some(value(args, &mut i, "--output")?.to_string()),
                "--devices" => {
                    let v = value(args, &mut i, "--devices")?;
                    out.devices = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad device count `{v}`")))?;
                    if out.devices == 0 {
                        return Err(ParseError("need at least one device".into()));
                    }
                }
                "--mg-contract" => {
                    out.mg_contract = value(args, &mut i, "--mg-contract")?
                        .parse()
                        .map_err(ParseError)?
                }
                "--reorder" => out.reorder = Reorder::parse(value(args, &mut i, "--reorder")?)?,
                "--store" => out.store = Store::parse(value(args, &mut i, "--store")?)?,
                "--trace" => out.trace = Some(value(args, &mut i, "--trace")?.to_string()),
                "--report" => out.report = Some(value(args, &mut i, "--report")?.to_string()),
                "--quiet" => out.quiet = true,
                "--progress" => out.progress = true,
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                positional => {
                    if !out.input.is_empty() {
                        return Err(ParseError(format!("unexpected argument `{positional}`")));
                    }
                    out.input = positional.to_string();
                }
            }
            i += 1;
        }
        if out.input.is_empty() {
            return Err(ParseError("detect needs an input graph".into()));
        }
        Ok(Command::Detect(out))
    }

    fn parse_analyze(args: &[String]) -> Result<Self, ParseError> {
        let mut positional = Vec::new();
        let mut top = 10usize;
        let mut threshold = 0.1f64;
        let mut check = false;
        let mut chrome_trace = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--chrome-trace" => {
                    chrome_trace = Some(value(args, &mut i, "--chrome-trace")?.to_string())
                }
                "--top" => {
                    let v = value(args, &mut i, "--top")?;
                    top = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --top `{v}`")))?;
                }
                "--threshold" => threshold = parse_threshold(args, &mut i)?,
                "--check" => check = true,
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                p => positional.push(p.to_string()),
            }
            i += 1;
        }
        let (trace, baseline) = match positional.as_slice() {
            [t] => (t.clone(), None),
            [t, b] => (t.clone(), Some(b.clone())),
            [] => return Err(ParseError("analyze needs a trace file".into())),
            _ => return Err(ParseError("analyze takes at most two traces".into())),
        };
        Ok(Command::Analyze(AnalyzeArgs {
            trace,
            baseline,
            top,
            threshold,
            check,
            chrome_trace,
        }))
    }

    fn parse_profile(args: &[String]) -> Result<Self, ParseError> {
        let mut positional = Vec::new();
        let mut top = 16usize;
        let mut report = None;
        let mut chrome_trace = None;
        let mut write_calibration = None;
        let mut gate = None;
        let mut threshold = 0.25f64;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--top" => {
                    let v = value(args, &mut i, "--top")?;
                    top = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --top `{v}`")))?;
                }
                "--report" => report = Some(value(args, &mut i, "--report")?.to_string()),
                "--chrome-trace" => {
                    chrome_trace = Some(value(args, &mut i, "--chrome-trace")?.to_string())
                }
                "--write-calibration" => {
                    write_calibration =
                        Some(value(args, &mut i, "--write-calibration")?.to_string())
                }
                "--gate" => gate = Some(value(args, &mut i, "--gate")?.to_string()),
                "--threshold" => threshold = parse_threshold(args, &mut i)?,
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                p => positional.push(p.to_string()),
            }
            i += 1;
        }
        let [sim_trace, native_trace] = positional.as_slice() else {
            return Err(ParseError(
                "profile needs exactly two traces: <sim.trace> <native.trace>".into(),
            ));
        };
        Ok(Command::Profile(ProfileArgs {
            sim_trace: sim_trace.clone(),
            native_trace: native_trace.clone(),
            top,
            report,
            chrome_trace,
            write_calibration,
            gate,
            threshold,
        }))
    }

    fn parse_trend(args: &[String]) -> Result<Self, ParseError> {
        let mut out = TrendArgs {
            reports: Vec::new(),
            history: "results/TREND.jsonl".to_string(),
            threshold: 0.1,
            dry_run: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--history" => out.history = value(args, &mut i, "--history")?.to_string(),
                "--threshold" => out.threshold = parse_threshold(args, &mut i)?,
                "--dry-run" => out.dry_run = true,
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                p => out.reports.push(p.to_string()),
            }
            i += 1;
        }
        if out.reports.is_empty() {
            return Err(ParseError("trend needs at least one report file".into()));
        }
        Ok(Command::Trend(out))
    }

    fn parse_compare(args: &[String]) -> Result<Self, ParseError> {
        let mut positional = Vec::new();
        let mut graph = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--graph" => graph = Some(value(args, &mut i, "--graph")?.to_string()),
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                p => positional.push(p.to_string()),
            }
            i += 1;
        }
        let [a, b] = positional.as_slice() else {
            return Err(ParseError(
                "compare needs exactly two assignment files".into(),
            ));
        };
        Ok(Command::Compare {
            a: a.clone(),
            b: b.clone(),
            graph,
        })
    }

    fn parse_stats(args: &[String]) -> Result<Self, ParseError> {
        let mut input = String::new();
        let mut format = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--format" => format = Some(Format::parse(value(args, &mut i, "--format")?)?),
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                positional => {
                    if !input.is_empty() {
                        return Err(ParseError(format!("unexpected argument `{positional}`")));
                    }
                    input = positional.to_string();
                }
            }
            i += 1;
        }
        if input.is_empty() {
            return Err(ParseError("stats needs an input graph".into()));
        }
        Ok(Command::Stats { input, format })
    }

    fn parse_generate(args: &[String]) -> Result<Self, ParseError> {
        let mut out = GenerateArgs {
            kind: String::new(),
            out: String::new(),
            n: 10_000,
            seed: 42,
            mixing: 0.2,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--out" => out.out = value(args, &mut i, "--out")?.to_string(),
                "--n" => {
                    let v = value(args, &mut i, "--n")?;
                    out.n = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --n `{v}`")))?;
                }
                "--seed" => {
                    let v = value(args, &mut i, "--seed")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --seed `{v}`")))?;
                }
                "--mixing" => {
                    let v = value(args, &mut i, "--mixing")?;
                    out.mixing = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --mixing `{v}`")))?;
                }
                flag if flag.starts_with("--") => {
                    return Err(ParseError(format!("unknown flag `{flag}`")))
                }
                positional => {
                    if !out.kind.is_empty() {
                        return Err(ParseError(format!("unexpected argument `{positional}`")));
                    }
                    out.kind = positional.to_string();
                }
            }
            i += 1;
        }
        if out.kind.is_empty() {
            return Err(ParseError(
                "generate needs a kind (sbm|lfr|rmat|ba|ws|gnp)".into(),
            ));
        }
        if out.out.is_empty() {
            return Err(ParseError("generate needs --out <file>".into()));
        }
        Ok(Command::Generate(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_minimal_detect() {
        let cmd = Command::parse(&argv("detect graph.txt")).unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.input, "graph.txt");
        assert_eq!(d.algorithm, Algorithm::Gala);
        assert_eq!(d.backend, BackendKind::Sim);
        assert_eq!(d.pruning, PruningKind::GainDamped);
        assert_eq!(d.resolution, 1.0);
        assert_eq!(d.mg_contract, ContractMode::Host);
        assert!(!d.quiet);
        assert!(!d.progress);
    }

    #[test]
    fn parses_full_detect() {
        let cmd = Command::parse(&argv(
            "detect g.metis --algorithm leiden --backend native --resolution 2.5 --output out.txt --devices 4 --mg-contract partitioned --quiet --progress",
        ))
        .unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.algorithm, Algorithm::Leiden);
        assert_eq!(d.backend, BackendKind::Native);
        assert_eq!(d.resolution, 2.5);
        assert_eq!(d.output.as_deref(), Some("out.txt"));
        assert_eq!(d.devices, 4);
        assert_eq!(d.mg_contract, ContractMode::Partitioned);
        assert!(d.quiet);
        assert!(d.progress);
        assert_eq!(d.trace, None);
        assert_eq!(d.report, None);
    }

    #[test]
    fn parses_trace_and_report_flags() {
        let cmd =
            Command::parse(&argv("detect g.txt --trace run.jsonl --report report.json")).unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.trace.as_deref(), Some("run.jsonl"));
        assert_eq!(d.report.as_deref(), Some("report.json"));
        assert!(Command::parse(&argv("detect g.txt --trace")).is_err());
        assert!(Command::parse(&argv("detect g.txt --report")).is_err());
    }

    #[test]
    fn parses_pruning_names() {
        for (name, want) in [
            ("mgd", PruningKind::GainDamped),
            ("mg", PruningKind::Gain),
            ("mg+rm", PruningKind::GainRelaxed),
            ("none", PruningKind::None),
        ] {
            let cmd = Command::parse(&argv(&format!("detect g.txt --pruning {name}"))).unwrap();
            let Command::Detect(d) = cmd else { panic!() };
            assert_eq!(d.pruning, want, "{name}");
        }
    }

    #[test]
    fn parses_reorder_and_store_flags() {
        let cmd = Command::parse(&argv("detect g.bin --reorder degree --store mapped")).unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.reorder, Reorder::Degree);
        assert_eq!(d.store, Store::Mapped);

        let cmd = Command::parse(&argv("detect g.txt --reorder bfs")).unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.reorder, Reorder::Bfs);
        assert_eq!(d.store, Store::Owned);

        let cmd = Command::parse(&argv("detect g.txt --reorder none")).unwrap();
        let Command::Detect(d) = cmd else { panic!() };
        assert_eq!(d.reorder, Reorder::None);

        assert!(Command::parse(&argv("detect g.txt --reorder hilbert")).is_err());
        assert!(Command::parse(&argv("detect g.txt --store virtual")).is_err());
        assert!(Command::parse(&argv("detect g.txt --reorder")).is_err());
        assert!(Command::parse(&argv("detect g.txt --store")).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(Command::parse(&argv("detect g.txt --resolution zero")).is_err());
        assert!(Command::parse(&argv("detect g.txt --resolution -1")).is_err());
        assert!(Command::parse(&argv("detect g.txt --resolution inf")).is_err());
        assert!(Command::parse(&argv("detect g.txt --resolution NaN")).is_err());
        assert!(Command::parse(&argv("detect g.txt --devices 0")).is_err());
        assert!(Command::parse(&argv("detect g.txt --pruning magic")).is_err());
        assert!(Command::parse(&argv("detect g.txt --backend warp")).is_err());
        assert!(Command::parse(&argv("detect g.txt --mg-contract fused")).is_err());
        assert!(Command::parse(&argv("detect g.txt --mg-contract")).is_err());
        assert!(Command::parse(&argv("detect")).is_err());
        assert!(Command::parse(&argv("detect a.txt b.txt")).is_err());
        assert!(Command::parse(&argv("detect g.txt --nonsense")).is_err());
        assert!(Command::parse(&argv("frobnicate")).is_err());
        assert!(Command::parse(&[]).is_err());
    }

    #[test]
    fn parses_generate() {
        let cmd = Command::parse(&argv("generate lfr --out g.txt --n 5000 --mixing 0.3")).unwrap();
        let Command::Generate(g) = cmd else { panic!() };
        assert_eq!(g.kind, "lfr");
        assert_eq!(g.n, 5000);
        assert_eq!(g.mixing, 0.3);
        assert!(Command::parse(&argv("generate lfr")).is_err()); // no --out
        assert!(Command::parse(&argv("generate --out x")).is_err()); // no kind
    }

    #[test]
    fn parses_convert_and_stats_and_help() {
        assert_eq!(
            Command::parse(&argv("convert a.txt b.metis")).unwrap(),
            Command::Convert {
                input: "a.txt".into(),
                output: "b.metis".into()
            }
        );
        assert!(matches!(
            Command::parse(&argv("stats g.bin")).unwrap(),
            Command::Stats { .. }
        ));
        assert_eq!(Command::parse(&argv("help")).unwrap(), Command::Help);
        assert!(Command::parse(&argv("convert onlyone")).is_err());
    }

    #[test]
    fn parses_analyze() {
        let cmd = Command::parse(&argv("analyze run.jsonl")).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.trace, "run.jsonl");
        assert_eq!(a.baseline, None);
        assert_eq!(a.top, 10);
        assert_eq!(a.threshold, 0.1);
        assert!(!a.check);

        let cmd =
            Command::parse(&argv("analyze a.jsonl b.jsonl --top 5 --threshold 0.25")).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.baseline.as_deref(), Some("b.jsonl"));
        assert_eq!(a.top, 5);
        assert_eq!(a.threshold, 0.25);

        let cmd = Command::parse(&argv("analyze t.jsonl --check")).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert!(a.check);
        assert_eq!(a.chrome_trace, None);

        let cmd = Command::parse(&argv("analyze t.jsonl --chrome-trace out.json")).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.chrome_trace.as_deref(), Some("out.json"));
        assert!(Command::parse(&argv("analyze t.jsonl --chrome-trace")).is_err());

        assert!(Command::parse(&argv("analyze")).is_err());
        assert!(Command::parse(&argv("analyze a b c")).is_err());
        assert!(Command::parse(&argv("analyze t.jsonl --threshold -1")).is_err());
        assert!(Command::parse(&argv("analyze t.jsonl --top many")).is_err());
        assert!(Command::parse(&argv("analyze t.jsonl --bogus")).is_err());
    }

    #[test]
    fn parses_profile() {
        let cmd = Command::parse(&argv("profile sim.jsonl native.jsonl")).unwrap();
        let Command::Profile(p) = cmd else { panic!() };
        assert_eq!(p.sim_trace, "sim.jsonl");
        assert_eq!(p.native_trace, "native.jsonl");
        assert_eq!(p.top, 16);
        assert_eq!(p.threshold, 0.25);
        assert_eq!(p.report, None);
        assert_eq!(p.gate, None);

        let cmd = Command::parse(&argv(
            "profile s.jsonl n.jsonl --top 4 --report r.json --chrome-trace c.json \
             --write-calibration cal.json --gate old.json --threshold 0.1",
        ))
        .unwrap();
        let Command::Profile(p) = cmd else { panic!() };
        assert_eq!(p.top, 4);
        assert_eq!(p.report.as_deref(), Some("r.json"));
        assert_eq!(p.chrome_trace.as_deref(), Some("c.json"));
        assert_eq!(p.write_calibration.as_deref(), Some("cal.json"));
        assert_eq!(p.gate.as_deref(), Some("old.json"));
        assert_eq!(p.threshold, 0.1);

        assert!(Command::parse(&argv("profile only.jsonl")).is_err());
        assert!(Command::parse(&argv("profile a b c")).is_err());
        assert!(Command::parse(&argv("profile a b --threshold -2")).is_err());
        assert!(Command::parse(&argv("profile a b --gate")).is_err());
        assert!(Command::parse(&argv("profile a b --bogus")).is_err());
    }

    #[test]
    fn parses_trend() {
        let cmd = Command::parse(&argv("trend results/BENCH_host.json")).unwrap();
        let Command::Trend(t) = cmd else { panic!() };
        assert_eq!(t.reports, vec!["results/BENCH_host.json".to_string()]);
        assert_eq!(t.history, "results/TREND.jsonl");
        assert_eq!(t.threshold, 0.1);
        assert!(!t.dry_run);

        let cmd = Command::parse(&argv(
            "trend a.json b.json --history h.jsonl --threshold 0.2 --dry-run",
        ))
        .unwrap();
        let Command::Trend(t) = cmd else { panic!() };
        assert_eq!(t.reports.len(), 2);
        assert_eq!(t.history, "h.jsonl");
        assert_eq!(t.threshold, 0.2);
        assert!(t.dry_run);

        assert!(Command::parse(&argv("trend")).is_err());
        assert!(Command::parse(&argv("trend --history h.jsonl")).is_err());
        assert!(Command::parse(&argv("trend a.json --threshold nope")).is_err());
        assert!(Command::parse(&argv("trend a.json --bogus")).is_err());
    }

    #[test]
    fn format_inference() {
        assert_eq!(Format::from_path("x.metis"), Format::Metis);
        assert_eq!(Format::from_path("x.graph"), Format::Metis);
        assert_eq!(Format::from_path("x.bin"), Format::Binary);
        assert_eq!(Format::from_path("x.txt"), Format::EdgeList);
        assert_eq!(Format::from_path("noext"), Format::EdgeList);
    }
}
