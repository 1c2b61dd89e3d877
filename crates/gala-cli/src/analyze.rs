//! `gala analyze`: offline inspection of `--trace` JSONL files.
//!
//! Loads one trace and renders per-superstep curves (modularity, moved and
//! pruned rates, hashtable occupancy and evictions, warp divergence,
//! coalescing efficiency, sync traffic) as aligned sparkline rows, a
//! per-round convergence table (supersteps run after the round's best Q,
//! and the period of any Q limit cycle its tail ends in), plus a
//! flamegraph-style top-N summary of the merged profiling span tree. A
//! native trace, whose spans are charged in wall ns, drops the simulator's
//! hashtable, divergence and coalescing curves, totals its wall ns in the
//! header and ranks its spans by wall ns instead of simulated cycles. With
//! a second (baseline) trace it diffs a watched-metric set and reports
//! regressions beyond `--threshold`; between two native traces the set
//! leaves out the simulator's cycle, divergence, coalescing and eviction
//! figures; `--check` validates the trace's
//! structural invariants instead (the CI smoke job runs this on a freshly
//! produced trace); `--chrome-trace FILE` exports the span trees and
//! superstep counters as a Chrome Trace Event Format JSON file loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every renderer returns a `String` so golden tests can pin output
//! byte-for-byte; [`run`] only adds the printing.

use crate::args::AnalyzeArgs;
use crate::commands::Error;
use gala_core::mg_contract::{EXCHANGE_BYTES_PER_ARC, EXCHANGE_BYTES_PER_MEMBER};
use gala_gpu::memory::{CostModel, MemTally};
use gala_gpu::profile::{Profiler, SpanRecord};
use gala_telemetry::recorder::{self, ProgressSnapshot};
use gala_telemetry::{
    direction, json, judge, read_trace, DeviceSync, MetricsRegistry, MetricsSnapshot, RunEnd,
    RunStart, SpanTree, Superstep, TraceEvent, Verdict,
};

/// Exchange accounting lifted from a partitioned `contract` span (the
/// `contract` → `exchange` scope emitted by the multi-device phase-2
/// path). `--check` cross-validates these counters against each other and
/// against the matching exchange `sync` event.
#[derive(Clone, Copy, Debug)]
struct ExchangeCheck {
    bytes: u64,
    ghost_members: u64,
    ghost_arcs: u64,
    sparse_bytes: u64,
    dense_bytes: u64,
    dense_exchanges: u64,
    sparse_exchanges: u64,
}

/// What `--check` needs from one `span` event. The tree itself is merged
/// into [`Trace::merged_root`] at load time and dropped, so a trace with
/// thousands of supersteps never holds every tree at once.
#[derive(Clone, Debug)]
struct SpanCheck {
    phase: String,
    /// The backend the span names; empty before schema 6.
    backend: String,
    /// The unit [`SpanTree::profile`] charges the tree in; `None` when
    /// the backend is empty or unknown.
    unit: Option<&'static str>,
    tally: MemTally,
    /// Present only on partitioned phase-2 contract spans.
    exchange: Option<ExchangeCheck>,
}

/// A trace file's events, grouped by kind.
#[derive(Clone, Debug, Default)]
struct Trace {
    /// The last `run_start` (all defaults when the trace has none).
    run_start: RunStart,
    supersteps: Vec<Superstep>,
    syncs: Vec<DeviceSync>,
    span_checks: Vec<SpanCheck>,
    metrics: Vec<MetricsSnapshot>,
    /// Individual span trees, retained only when loaded with
    /// `keep_spans` (the chrome-trace exporter); empty otherwise.
    span_trees: Vec<SpanTree>,
    /// All span trees merged by name in first-seen order (the in-process
    /// profiler's rule), built incrementally while streaming the file.
    merged_root: SpanRecord,
    /// Deterministic per-round driver snapshots (schema 5+).
    progress: Vec<ProgressSnapshot>,
    round_ends: u64,
    run_end: Option<RunEnd>,
    events: usize,
}

impl Trace {
    /// The span trees whose charges [`SpanTree::profile`] derives.
    fn profiled(&self) -> impl Iterator<Item = &SpanCheck> {
        self.span_checks.iter().filter(|s| s.unit.is_some())
    }
}

/// Loads a trace file through [`read_trace`], which rejects unknown
/// schemas, unknown event kinds and malformed lines (line numbers in every
/// error).
///
/// Span trees are folded into the merged profile as they arrive, so peak
/// memory is one line plus the decoded summaries, independent of trace
/// length.
fn load_trace(path: &str) -> Result<Trace, Error> {
    load_trace_with_spans(path, false)
}

/// [`load_trace`] plus optional retention of every individual span tree
/// (`keep_spans`), which the chrome-trace exporter needs to lay out a
/// per-superstep timeline. The default path drops them to keep memory flat.
fn load_trace_with_spans(path: &str, keep_spans: bool) -> Result<Trace, Error> {
    let mut trace = Trace::default();
    let mut merger = Profiler::new();
    trace.events = read_trace(path, |event| {
        match event {
            TraceEvent::RunStart(e) => trace.run_start = e,
            TraceEvent::Superstep(e) => trace.supersteps.push(e),
            TraceEvent::Sync(e) => trace.syncs.push(e),
            TraceEvent::Span(tree) => {
                let exchange = tree
                    .root
                    .child("contract")
                    .and_then(|c| c.child("exchange"))
                    .map(|ex| ExchangeCheck {
                        bytes: ex.counter("bytes"),
                        ghost_members: ex.counter("ghost_members"),
                        ghost_arcs: ex.counter("ghost_arcs"),
                        sparse_bytes: ex.counter("sparse_bytes"),
                        dense_bytes: ex.counter("dense_bytes"),
                        dense_exchanges: ex.counter("dense_exchanges"),
                        sparse_exchanges: ex.counter("sparse_exchanges"),
                    });
                trace.span_checks.push(SpanCheck {
                    phase: tree.phase.clone(),
                    unit: tree.profile().map(|p| p.unit),
                    backend: tree.backend.clone(),
                    tally: tree.root.total_tally(),
                    exchange,
                });
                if keep_spans {
                    trace.span_trees.push(tree.clone());
                }
                merger.absorb(tree.root);
            }
            TraceEvent::Metrics(e) => trace.metrics.push(e),
            TraceEvent::Progress(e) => trace.progress.push(e),
            TraceEvent::RoundEnd(_) => trace.round_ends += 1,
            TraceEvent::RunEnd(e) => trace.run_end = Some(e),
        }
        Ok(())
    })?;
    trace.merged_root = merger.finish();
    Ok(trace)
}

/// Structural validation (`--check`): bracketing, per-superstep counting
/// invariants, finite metrics, coherent tally counters.
fn check(path: &str, trace: &Trace) -> Result<String, Error> {
    if trace.run_start.algorithm.is_empty() {
        return Err(format!("{path}: no run_start event").into());
    }
    let end = trace
        .run_end
        .ok_or_else(|| format!("{path}: no run_end event (truncated trace?)"))?;
    if !end.modularity.is_finite() {
        return Err(format!("{path}: non-finite final modularity").into());
    }
    for s in &trace.supersteps {
        let at = format!("{path}: round {} superstep {}", s.round, s.superstep);
        if s.active != s.moved + s.unmoved {
            return Err(format!(
                "{at}: active ({}) != moved ({}) + unmoved ({})",
                s.active, s.moved, s.unmoved
            )
            .into());
        }
        let start = &trace.run_start;
        if s.active + s.pruned > start.n && start.devices <= 1 && s.round == 0 {
            return Err(format!(
                "{at}: active + pruned ({}) exceeds n ({})",
                s.active + s.pruned,
                start.n
            )
            .into());
        }
        if !s.modularity.is_finite() || !(0.0..=1.0).contains(&s.hash_occupancy) {
            return Err(format!("{at}: non-finite modularity or occupancy out of [0,1]").into());
        }
        for (name, t) in [("decide", &s.decide_tally), ("weight", &s.weight_tally)] {
            if t.simt_active_lanes > t.simt_steps * 32 {
                return Err(format!("{at}: {name} tally has >32 active lanes per step").into());
            }
            if t.coalesce_ideal > t.coalesce_transactions {
                return Err(format!("{at}: {name} tally coalesce ideal > transactions").into());
            }
        }
    }
    for y in &trace.syncs {
        // Phase-1 syncs carry `dense`/`sparse`; partitioned phase-2
        // contractions emit one `exchange-*` sync per round.
        if !["dense", "sparse", "exchange-dense", "exchange-sparse"].contains(&y.mode.as_str()) {
            return Err(format!(
                "{path}: sync at superstep {} has unknown mode `{}`",
                y.superstep, y.mode
            )
            .into());
        }
    }
    for (i, ev) in trace.span_checks.iter().enumerate() {
        if ev.phase != "phase1" && ev.phase != "contract" {
            return Err(format!("{path}: span tree {i} has unknown phase `{}`", ev.phase).into());
        }
        if ev.unit.is_none() && !ev.backend.is_empty() {
            return Err(
                format!("{path}: span tree {i} has unknown backend `{}`", ev.backend).into(),
            );
        }
        let t = ev.tally;
        if t.simt_active_lanes > t.simt_steps * 32 || t.coalesce_ideal > t.coalesce_transactions {
            return Err(format!("{path}: span tree {i} has incoherent SIMT counters").into());
        }
    }
    // Partitioned phase-2 accounting: each contract span's exchange scope
    // must be internally consistent (sparse bytes derived from the ghost
    // row counts, exactly one strategy selected, payload matching the
    // chosen strategy), and the i-th exchange `sync` event must agree with
    // the i-th exchange span on mode and byte count — both streams are
    // emitted once per partitioned round, in round order.
    let exchange_spans: Vec<ExchangeCheck> = trace
        .span_checks
        .iter()
        .filter_map(|s| s.exchange)
        .collect();
    for (i, ex) in exchange_spans.iter().enumerate() {
        let at = format!("{path}: exchange span {i}");
        let expected_sparse =
            ex.ghost_members * EXCHANGE_BYTES_PER_MEMBER + ex.ghost_arcs * EXCHANGE_BYTES_PER_ARC;
        if ex.sparse_bytes != expected_sparse {
            return Err(format!(
                "{at}: sparse bytes {} inconsistent with {} ghost members + {} ghost arcs \
                 (expected {expected_sparse})",
                ex.sparse_bytes, ex.ghost_members, ex.ghost_arcs
            )
            .into());
        }
        if ex.dense_exchanges + ex.sparse_exchanges != 1 {
            return Err(format!(
                "{at}: selected {} dense + {} sparse strategies (expected exactly one)",
                ex.dense_exchanges, ex.sparse_exchanges
            )
            .into());
        }
        let chosen = if ex.dense_exchanges == 1 {
            ex.dense_bytes
        } else {
            ex.sparse_bytes
        };
        if ex.bytes != chosen {
            return Err(format!(
                "{at}: payload {} bytes does not match the selected strategy's {chosen}",
                ex.bytes
            )
            .into());
        }
    }
    let exchange_syncs: Vec<&DeviceSync> = trace
        .syncs
        .iter()
        .filter(|y| y.mode.starts_with("exchange-"))
        .collect();
    if exchange_syncs.len() != exchange_spans.len() {
        return Err(format!(
            "{path}: {} exchange sync events but {} exchange spans",
            exchange_syncs.len(),
            exchange_spans.len()
        )
        .into());
    }
    for (i, (y, ex)) in exchange_syncs.iter().zip(&exchange_spans).enumerate() {
        let at = format!("{path}: exchange sync {i} (superstep {})", y.superstep);
        let span_mode = if ex.dense_exchanges == 1 {
            "exchange-dense"
        } else {
            "exchange-sparse"
        };
        if y.mode != span_mode {
            return Err(format!(
                "{at}: mode `{}` disagrees with its contract span's `{span_mode}`",
                y.mode
            )
            .into());
        }
        if y.bytes != ex.bytes {
            return Err(format!(
                "{at}: {} bytes disagrees with its contract span's {}",
                y.bytes, ex.bytes
            )
            .into());
        }
    }
    for (i, p) in trace.progress.iter().enumerate() {
        p.check().map_err(|e| {
            format!(
                "{path}: progress event {i} ({} r{}): {e}",
                p.driver, p.round
            )
        })?;
    }
    for (i, ev) in trace.metrics.iter().enumerate() {
        let at = format!("{path}: metrics event {i} (round {})", ev.round);
        if ev.scope != "phase1" && ev.scope != "sync" {
            return Err(format!("{at} has unknown scope `{}`", ev.scope).into());
        }
        for (name, g) in ev.registry.gauges() {
            if !g.is_finite() {
                return Err(format!("{at} gauge `{name}` is non-finite").into());
            }
        }
        let (sampled, fns) = (
            ev.registry.counter("pruning/audit_sampled").unwrap_or(0),
            ev.registry
                .counter("pruning/audit_false_negatives")
                .unwrap_or(0),
        );
        if fns > sampled {
            return Err(format!(
                "{at} reports more audit false negatives ({fns}) than samples ({sampled})"
            )
            .into());
        }
    }
    Ok(format!(
        "ok: {} events ({} supersteps, {} rounds, {} span trees, {} syncs, \
         {} metrics, {} profiles, {} progress), final Q = {:.5}",
        trace.events,
        trace.supersteps.len(),
        trace.round_ends.max(u64::from(end.rounds)),
        trace.span_checks.len(),
        trace.syncs.len(),
        trace.metrics.len(),
        trace.profiled().count(),
        trace.progress.len(),
        end.modularity,
    ))
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const SPARK_WIDTH: usize = 40;

/// Renders a series as a fixed-width sparkline; longer series are bucketed
/// by averaging so the rows of a table stay aligned. Shared with `trend`.
pub(crate) fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let buckets: Vec<f64> = if values.len() <= SPARK_WIDTH {
        values.to_vec()
    } else {
        (0..SPARK_WIDTH)
            .map(|b| {
                let lo = b * values.len() / SPARK_WIDTH;
                let hi = ((b + 1) * values.len() / SPARK_WIDTH).max(lo + 1);
                values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &buckets {
        min = min.min(v);
        max = max.max(v);
    }
    buckets
        .iter()
        .map(|&v| {
            if max > min {
                let i = ((v - min) / (max - min) * 7.0).round() as usize;
                SPARK[i.min(7)]
            } else {
                SPARK[3]
            }
        })
        .collect()
}

fn stats(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (min, mean, *values.last().unwrap())
}

fn curve_row(name: &str, values: &[f64]) -> String {
    let (min, mean, last) = stats(values);
    format!(
        "  {name:<22} {:<w$}  {min:>10.4} {mean:>10.4} {last:>10.4}\n",
        sparkline(values),
        w = SPARK_WIDTH,
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Whether the trace's span trees are all charged in wall nanoseconds (a
/// native run): then its superstep events carry no simulated kernel
/// traffic, and the span summary ranks wall time rather than cycles.
fn wall_clocked(trace: &Trace) -> bool {
    trace.profiled().next().is_some() && trace.profiled().all(|s| s.unit == Some("ns"))
}

/// The per-superstep metric curves of a trace, in render order. The
/// simulator's hashtable, divergence and coalescing curves are left out
/// of a [`wall_clocked`] trace, where they are flat zeros.
fn curves(trace: &Trace) -> Vec<(&'static str, Vec<f64>)> {
    let ss = &trace.supersteps;
    let mut out = vec![
        (
            "modularity",
            ss.iter().map(|s| s.modularity).collect::<Vec<_>>(),
        ),
        (
            "moved rate",
            ss.iter().map(|s| ratio(s.moved, s.active)).collect(),
        ),
        (
            "pruned rate",
            ss.iter()
                .map(|s| ratio(s.pruned, s.active + s.pruned))
                .collect(),
        ),
    ];
    if !wall_clocked(trace) {
        out.extend([
            (
                "hash occupancy",
                ss.iter().map(|s| s.hash_occupancy).collect(),
            ),
            (
                "hash evictions",
                ss.iter().map(|s| s.hash_evictions as f64).collect(),
            ),
            (
                "divergence %",
                ss.iter()
                    .map(|s| s.decide_tally.divergence() * 100.0)
                    .collect(),
            ),
            (
                "coalescing eff",
                ss.iter()
                    .map(|s| s.decide_tally.coalescing_efficiency())
                    .collect(),
            ),
        ]);
    }
    if !trace.syncs.is_empty() {
        let bytes = ss
            .iter()
            .map(|s| {
                trace
                    .syncs
                    .iter()
                    .filter(|y| y.superstep == s.superstep && s.round == 0)
                    .map(|y| y.bytes as f64)
                    .sum()
            })
            .collect();
        out.push(("sync KiB", scale(bytes, 1.0 / 1024.0)));
    }
    out
}

/// Longest Q cycle [`q_period`] looks for.
const MAX_Q_PERIOD: usize = 4;

/// How one phase-1 round converged, derived from its `superstep` events.
#[derive(Debug)]
struct RoundConvergence {
    round: u32,
    supersteps: usize,
    /// Superstep of the round's highest Q (the first one that reached it).
    best_at: usize,
    /// Supersteps run after `best_at`: work the round's restore discards.
    after_best: usize,
    /// Period of a limit cycle in the round's tail, if any.
    period: Option<usize>,
}

/// The smallest period `p` in `2..=MAX_Q_PERIOD` whose last `p` Q values
/// repeat the `p` before them exactly and are not all equal (a constant
/// tail is a settled round, not a cycle).
fn q_period(qs: &[f64]) -> Option<usize> {
    (2..=MAX_Q_PERIOD).find(|&p| {
        let n = qs.len();
        n >= 2 * p
            && qs[n - p..] == qs[n - 2 * p..n - p]
            && qs[n - p..].windows(2).any(|w| w[0] != w[1])
    })
}

/// Per-round convergence of a trace's phase 1, in round order.
fn convergence(trace: &Trace) -> Vec<RoundConvergence> {
    trace
        .supersteps
        .chunk_by(|a, b| a.round == b.round)
        .map(|steps| {
            let qs: Vec<f64> = steps.iter().map(|s| s.modularity).collect();
            let best = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let best_at = qs.iter().position(|&q| q == best).unwrap_or(0);
            RoundConvergence {
                round: steps[0].round,
                supersteps: qs.len(),
                best_at,
                after_best: qs.len() - 1 - best_at,
                period: q_period(&qs),
            }
        })
        .collect()
}

/// The convergence section: per round, the supersteps spent after the
/// round's best Q and the period of any Q limit cycle its tail ends in.
fn render_convergence(trace: &Trace) -> String {
    let rounds = convergence(trace);
    if rounds.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\n  {:<11} {:>10} {:>10} {:>10} {:>9}\n",
        "convergence", "supersteps", "best Q at", "after best", "Q period"
    );
    for r in &rounds {
        let period = r.period.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  round {:<5} {:>10} {:>10} {:>10} {period:>9}\n",
            r.round, r.supersteps, r.best_at, r.after_best
        ));
    }
    let total: usize = rounds.iter().map(|r| r.supersteps).sum();
    let after: usize = rounds.iter().map(|r| r.after_best).sum();
    out.push_str(&format!(
        "  {after} of {total} supersteps ({:.1}%) ran after their round's best Q\n",
        100.0 * ratio(after as u64, total as u64)
    ));
    out
}

fn scale(values: Vec<f64>, k: f64) -> Vec<f64> {
    values.into_iter().map(|v| v * k).collect()
}

/// One row of the span summary: slash-joined path plus its charges, in
/// simulated cycles or wall ns.
struct SpanRow {
    path: String,
    invocations: u64,
    self_charge: f64,
    total_charge: f64,
}

/// A span's `(self, total)` charge in the summary's unit.
type Charge<'a> = &'a dyn Fn(&SpanRecord) -> (f64, f64);

fn flatten_spans(span: &SpanRecord, prefix: &str, charge: Charge, out: &mut Vec<SpanRow>) {
    for child in &span.children {
        let path = if prefix.is_empty() {
            child.name.clone()
        } else {
            format!("{prefix}/{}", child.name)
        };
        let (self_charge, total_charge) = charge(child);
        out.push(SpanRow {
            path: path.clone(),
            invocations: child.invocations,
            self_charge,
            total_charge,
        });
        flatten_spans(child, &path, charge, out);
    }
}

/// The wall ns [`SpanTree::profile`] charges a span and its descendants.
pub(crate) fn subtree_wall_ns(span: &SpanRecord) -> f64 {
    span.components_wall().total() + span.children.iter().map(subtree_wall_ns).sum::<f64>()
}

/// Flamegraph-style top-N table: spans ranked by self cycles under the
/// default cost model, or on a [`wall_clocked`] trace by the self wall ns
/// [`SpanTree::profile`] charges, with a share bar against the busiest
/// span.
fn render_span_summary(trace: &Trace, top: usize) -> String {
    let cost = CostModel::default();
    let cycles = |s: &SpanRecord| (s.self_cycles(&cost), s.total_cycles(&cost));
    let wall = |s: &SpanRecord| (s.components_wall().total(), subtree_wall_ns(s));
    let (charge, unit, col): (Charge, _, _) = if wall_clocked(trace) {
        (&wall, "wall ns", "ns")
    } else {
        (&cycles, "cycles", "cyc")
    };
    let mut rows = Vec::new();
    flatten_spans(&trace.merged_root, "", charge, &mut rows);
    if rows.is_empty() {
        return "no span events in trace (label propagation, or an older build)\n".to_string();
    }
    let total_self: f64 = rows.iter().map(|r| r.self_charge).sum();
    rows.sort_by(|a, b| {
        b.self_charge
            .partial_cmp(&a.self_charge)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    let shown = rows.len().min(top.max(1));
    let max_self = rows[0].self_charge.max(1.0);
    let width = rows[..shown].iter().map(|r| r.path.len()).max().unwrap();
    let mut out = format!(
        "top {shown} spans by self {unit} (of {} total)\n",
        rows.len()
    );
    out.push_str(&format!(
        "  {:<width$} {:>12} {:>12} {:>7} {:>7}\n",
        "span",
        format!("self {col}"),
        format!("total {col}"),
        "inv",
        "share"
    ));
    for r in &rows[..shown] {
        let bar_len = ((r.self_charge / max_self) * 20.0).round() as usize;
        out.push_str(&format!(
            "  {:<width$} {:>12.0} {:>12.0} {:>7} {:>6.1}% {}\n",
            r.path,
            r.self_charge,
            r.total_charge,
            r.invocations,
            100.0 * r.self_charge / total_self.max(1e-12),
            "█".repeat(bar_len),
        ));
    }
    out
}

/// Algorithm-metric section: all `metrics` events merged into one registry
/// (counters add, histograms fold, gauges keep the last value). Returns the
/// empty string for schema-2 traces so older golden outputs stay valid.
fn render_metrics(trace: &Trace) -> String {
    if trace.metrics.is_empty() {
        return String::new();
    }
    let mut merged = MetricsRegistry::new();
    for ev in &trace.metrics {
        merged.merge(&ev.registry);
    }
    let mut out = format!(
        "\nalgorithm metrics ({} events merged)\n",
        trace.metrics.len()
    );
    for (name, v) in merged.counters() {
        out.push_str(&format!("  {name:<34} {v}\n"));
    }
    for (name, v) in merged.gauges() {
        out.push_str(&format!("  {name:<34} {v:.4}\n"));
    }
    for (name, h) in merged.histograms() {
        let max = h.max().map_or_else(|| "-".to_string(), |m| m.to_string());
        out.push_str(&format!(
            "  {name:<34} n={} mean={:.1} max={max}\n",
            h.count(),
            h.mean(),
        ));
    }
    out
}

/// Profile section: a one-line inventory of the span trees whose charges
/// [`SpanTree::profile`] derives, pointing at `gala profile` (the join
/// itself needs a second trace). Empty for traces before schema 6, whose
/// spans name no backend, so older golden outputs stay valid.
fn render_profiles(trace: &Trace) -> String {
    let profiled: Vec<&SpanCheck> = trace.profiled().collect();
    if profiled.is_empty() {
        return String::new();
    }
    let cycles = profiled.iter().filter(|s| s.unit == Some("cycles")).count();
    let mut backends: Vec<&str> = profiled.iter().map(|s| s.backend.as_str()).collect();
    backends.sort_unstable();
    backends.dedup();
    format!(
        "\nprofile events: {} ({cycles} cycle-charged, {} wall-ns; backends {}) — \
         pair with the other backend's trace via `gala profile`\n",
        profiled.len(),
        profiled.len() - cycles,
        backends.join(", "),
    )
}

/// Progress-snapshot section: one line per deterministic per-round
/// `progress` event, the empty string when the trace has none (so
/// pre-schema-5 golden outputs stay byte-identical).
fn render_progress(trace: &Trace) -> String {
    if trace.progress.is_empty() {
        return String::new();
    }
    let mut out = format!("\nprogress snapshots ({})\n", trace.progress.len());
    for p in &trace.progress {
        out.push_str(&format!("  {}\n", p.render_line()));
    }
    out
}

/// Full single-trace report: header, curves, span summary.
fn render_single(path: &str, trace: &Trace, top: usize) -> String {
    let start = &trace.run_start;
    let mut out = format!(
        "trace: {path}\nalgorithm {} | n {} | m {} | devices {}\n",
        start.algorithm, start.n, start.m, start.devices
    );
    if let Some(end) = trace.run_end {
        let total = if wall_clocked(trace) {
            format!("total wall ns {:.0}", subtree_wall_ns(&trace.merged_root))
        } else {
            format!("total cycles {:.0}", end.total_cycles)
        };
        out.push_str(&format!(
            "supersteps {} | rounds {} | final Q {:.5} | {total}\n",
            trace.supersteps.len(),
            end.rounds,
            end.modularity,
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "  {:<22} {:<w$}  {:>10} {:>10} {:>10}\n",
        "per-superstep",
        "curve",
        "min",
        "mean",
        "last",
        w = SPARK_WIDTH
    ));
    for (name, values) in curves(trace) {
        out.push_str(&curve_row(name, &values));
    }
    out.push_str(&render_convergence(trace));
    out.push('\n');
    out.push_str(&render_span_summary(trace, top));
    out.push_str(&render_metrics(trace));
    out.push_str(&render_profiles(trace));
    out.push_str(&render_progress(trace));
    out
}

/// Simulated cycles per exported microsecond: the cost model has no wall
/// clock, so the exporter nominates a 1 GHz device — slice *ratios* are
/// what matter in the timeline, not absolute times. Shared with
/// `gala profile`'s exporter.
pub(crate) const CYCLES_PER_US: f64 = 1000.0;

/// A Chrome "X" (complete) slice on `tid`. Shared with `gala profile`.
pub(crate) fn chrome_slice(name: &str, ts: f64, dur: f64, tid: u64) -> json::Value {
    json::Value::object()
        .set("name", name)
        .set("ph", "X")
        .set("ts", ts)
        .set("dur", dur)
        .set("pid", 0u64)
        .set("tid", tid)
}

/// A Chrome "C" counter sample. Shared with `gala profile`.
pub(crate) fn chrome_counter(name: &str, ts: f64, value: f64) -> json::Value {
    json::Value::object()
        .set("name", name)
        .set("ph", "C")
        .set("ts", ts)
        .set("pid", 0u64)
        .set("tid", 0u64)
        .set("args", json::Value::object().set("value", value))
}

/// A Chrome "M" metadata record naming the process or thread `tid`.
/// Shared with `gala profile`.
pub(crate) fn chrome_meta(name: &str, tid: u64, value: &str) -> json::Value {
    json::Value::object()
        .set("name", name)
        .set("ph", "M")
        .set("pid", 0u64)
        .set("tid", tid)
        .set("args", json::Value::object().set("name", value))
}

/// Lays a span and its children out as nested "X" slices starting at
/// `start_us`; children are placed sequentially (the simulator runs kernels
/// back to back, so sequential layout reproduces the modelled order).
/// Returns the span's duration.
fn push_span_slices(
    span: &SpanRecord,
    start_us: f64,
    cost: &CostModel,
    events: &mut Vec<json::Value>,
) -> f64 {
    let dur = span.total_cycles(cost) / CYCLES_PER_US;
    events.push(chrome_slice(&span.name, start_us, dur, 0));
    let mut child_start = start_us;
    for child in &span.children {
        child_start += push_span_slices(child, child_start, cost, events);
    }
    dur
}

/// Converts a loaded trace (with retained span trees) into Chrome Trace
/// Event Format: one `{"traceEvents": [...]}` object with "X" slices for
/// span trees, "C" counters for the per-superstep algorithm curves, and
/// tid-1 slices for inter-device syncs. Loadable in Perfetto and
/// `chrome://tracing`. Traces without span events fall back to one slice
/// per superstep built from the decide/weight tallies, so the export is
/// never empty for a well-formed trace.
fn chrome_trace(trace: &Trace) -> json::Value {
    let cost = CostModel::default();
    let mut events = vec![
        chrome_meta("process_name", 0, "gala (simulated GPU)"),
        chrome_meta("thread_name", 0, "kernels"),
        chrome_meta("thread_name", 1, "sync"),
    ];
    let mut cursor = 0.0_f64;
    // Start timestamp of each (round, superstep), for counters and syncs.
    let mut superstep_ts: Vec<((u32, u32), f64)> = Vec::new();
    if trace.span_trees.is_empty() {
        for s in &trace.supersteps {
            let dur = (cost.cycles(&s.decide_tally) + cost.cycles(&s.weight_tally)) / CYCLES_PER_US;
            let name = format!("superstep r{} s{}", s.round, s.superstep);
            events.push(chrome_slice(&name, cursor, dur, 0));
            superstep_ts.push(((s.round, s.superstep), cursor));
            cursor += dur;
        }
    } else {
        for tree in &trace.span_trees {
            let dur = tree.root.total_cycles(&cost) / CYCLES_PER_US;
            let name = format!("{} r{} s{}", tree.phase, tree.round, tree.superstep);
            events.push(chrome_slice(&name, cursor, dur, 0));
            let mut child_start = cursor;
            for child in &tree.root.children {
                child_start += push_span_slices(child, child_start, &cost, &mut events);
            }
            if tree.phase == "phase1" {
                superstep_ts.push(((tree.round, tree.superstep), cursor));
            }
            cursor += dur;
        }
    }
    let ts_of = |round: u32, superstep: u32| {
        superstep_ts
            .iter()
            .find(|(k, _)| *k == (round, superstep))
            .map(|(_, t)| *t)
    };
    for s in &trace.supersteps {
        if let Some(ts) = ts_of(s.round, s.superstep) {
            events.push(chrome_counter("modularity", ts, s.modularity));
            events.push(chrome_counter("active", ts, s.active as f64));
            events.push(chrome_counter("moved", ts, s.moved as f64));
            events.push(chrome_counter("pruned", ts, s.pruned as f64));
        }
    }
    // Sync slices carry real modelled microseconds (comm_us); place each at
    // its superstep's start when known, else pack them sequentially.
    let mut sync_cursor = 0.0_f64;
    for y in &trace.syncs {
        let ts = ts_of(0, y.superstep).unwrap_or(sync_cursor);
        let name = format!("{} sync ({} B)", y.mode, y.bytes);
        events.push(chrome_slice(&name, ts, y.comm_us.max(0.0), 1));
        sync_cursor = ts + y.comm_us.max(0.0);
    }
    json::Value::object().set("traceEvents", json::Value::Array(events))
}

/// Loads `trace_path` with span trees retained and writes the Chrome Trace
/// Event export to `out_path`. Returns the number of exported events.
fn export_chrome_trace(trace_path: &str, out_path: &str) -> Result<usize, Error> {
    let trace = load_trace_with_spans(trace_path, true)?;
    let doc = chrome_trace(&trace);
    let count = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .map_or(0, <[json::Value]>::len);
    std::fs::write(out_path, doc.render()).map_err(|e| format!("{out_path}: {e}"))?;
    Ok(count)
}

/// One watched metric for two-trace diffing; its name alone says which
/// way it should move ([`direction`]).
struct Watched {
    name: &'static str,
    value: f64,
}

/// The watched-metric vector of a trace: scalars whose movement between two
/// runs of the same workload indicates a quality or efficiency change.
/// Without `simulated`, the simulator's figures (cycles, divergence,
/// coalescing, hash evictions) are left out: on native traces they are
/// zeros.
fn watched_metrics(trace: &Trace, simulated: bool) -> Vec<Watched> {
    let decide_total: MemTally = trace
        .supersteps
        .iter()
        .map(|s| s.decide_tally)
        .fold(MemTally::new(), |a, b| a + b);
    let contract_total: MemTally = trace
        .span_checks
        .iter()
        .filter(|s| s.phase == "contract")
        .map(|s| s.tally)
        .fold(MemTally::new(), |a, b| a + b);
    let final_q = trace
        .run_end
        .map(|e| e.modularity)
        .or_else(|| trace.supersteps.last().map(|s| s.modularity))
        .unwrap_or(0.0);
    let w = |name, value| Watched { name, value };
    let mut watched = vec![
        w("final modularity", final_q),
        w("supersteps", trace.supersteps.len() as f64),
    ];
    if simulated {
        watched.extend([
            w(
                "total cycles",
                trace.run_end.map(|e| e.total_cycles).unwrap_or(0.0),
            ),
            // Phase-2 cost: the modelled cycles of every contract span. The
            // run_end total covers phase 1 only, so without this a
            // contraction slowdown would sail through a diff unnoticed.
            w(
                "contract cycles",
                CostModel::default().cycles(&contract_total),
            ),
            w("divergence", decide_total.divergence()),
            w(
                "coalescing efficiency",
                decide_total.coalescing_efficiency(),
            ),
            w(
                "hash evictions",
                trace
                    .supersteps
                    .iter()
                    .map(|s| s.hash_evictions)
                    .sum::<u64>() as f64,
            ),
        ]);
    }
    watched.push(w(
        "sync bytes",
        trace.syncs.iter().map(|s| s.bytes).sum::<u64>() as f64,
    ));
    watched
}

/// Counts print whole, small ratios with four decimals. Shared with
/// `trend`.
pub(crate) fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Diffs `trace` against `baseline`; the second element lists the names of
/// metrics that regressed beyond `threshold`.
fn render_diff(
    trace_path: &str,
    trace: &Trace,
    baseline_path: &str,
    baseline: &Trace,
    threshold: f64,
) -> (String, Vec<String>) {
    let simulated = !(wall_clocked(trace) && wall_clocked(baseline));
    let cur = watched_metrics(trace, simulated);
    let base = watched_metrics(baseline, simulated);
    let mut out = format!(
        "diff: {trace_path} vs baseline {baseline_path} (threshold {:.1}%)\n",
        threshold * 100.0
    );
    out.push_str(&format!(
        "  {:<22} {:>12} {:>12} {:>9}  {}\n",
        "metric", "baseline", "current", "change", "verdict"
    ));
    let mut regressions = Vec::new();
    for (c, b) in cur.iter().zip(&base) {
        debug_assert_eq!(c.name, b.name);
        let judged = judge(c.value, b.value, direction(c.name), threshold);
        if judged.verdict == Verdict::Regressed {
            regressions.push(c.name.to_string());
        }
        out.push_str(&format!(
            "  {:<22} {:>12} {:>12} {:>+8.1}%  {}\n",
            c.name,
            fmt_value(b.value),
            fmt_value(c.value),
            judged.change * 100.0,
            judged.verdict
        ));
    }
    (out, regressions)
}

/// Detects a crash dump: a file holding one JSON object with `kind:
/// "crash"` (as written by the panic hook) rather than JSONL trace lines.
/// Returns `None` when the file is not a crash dump, the validation
/// verdict when it is.
fn try_crash_dump(path: &str) -> Option<Result<String, Error>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("kind").and_then(json::Value::as_str) != Some("crash") {
        return None;
    }
    Some(
        recorder::validate_crash_dump(&doc).map_err(|e| -> Error { format!("{path}: {e}").into() }),
    )
}

/// Executes the `analyze` subcommand. Errors (including diff regressions)
/// surface as a non-zero exit through the caller.
pub fn run(args: &AnalyzeArgs) -> Result<(), Error> {
    if let Some(out) = &args.chrome_trace {
        let count = export_chrome_trace(&args.trace, out)?;
        println!("wrote {count} trace events to {out} (open in https://ui.perfetto.dev)");
        return Ok(());
    }
    // Crash dumps validate (structure, manifest, last progress snapshot)
    // under any mode; they have no curves to render.
    if let Some(verdict) = try_crash_dump(&args.trace) {
        println!("{}", verdict?);
        return Ok(());
    }
    let trace = load_trace(&args.trace)?;
    if args.check {
        println!("{}", check(&args.trace, &trace)?);
        return Ok(());
    }
    match &args.baseline {
        None => print!("{}", render_single(&args.trace, &trace, args.top)),
        Some(bp) => {
            let base = load_trace(bp)?;
            let (text, regressions) = render_diff(&args.trace, &trace, bp, &base, args.threshold);
            print!("{text}");
            if !regressions.is_empty() {
                return Err(format!(
                    "{} metric(s) regressed beyond {:.1}%: {}",
                    regressions.len(),
                    args.threshold * 100.0,
                    regressions.join(", ")
                )
                .into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_core::backend::BackendKind;
    use gala_core::louvain::{Louvain, LouvainConfig};
    use gala_core::multi_gpu::ContractMode;
    use gala_core::observe::Obs;
    use gala_graph::generators::fixtures;
    use gala_telemetry::{JsonlSink, RoundEnd, SCHEMA_VERSION};

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gala_analyze_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Runs the instrumented Louvain driver on a fixture and writes a real
    /// trace file; returns its path.
    fn write_fixture_trace(name: &str) -> String {
        let g = fixtures::ring_of_cliques(6, 5);
        let mut sink = JsonlSink::new(Vec::new());
        Louvain::new(LouvainConfig::default()).run_with(&g, &mut Obs::traced(&mut sink));
        let path = format!("{}.jsonl", tmp(name));
        std::fs::write(&path, sink.into_inner()).unwrap();
        path
    }

    /// Runs the multi-device full hierarchy with the partitioned phase-2
    /// contraction and writes its trace; returns the path.
    fn write_mg_fixture_trace(name: &str) -> String {
        let g = fixtures::ring_of_cliques(8, 6);
        let mut sink = JsonlSink::new(Vec::new());
        Louvain::new(LouvainConfig {
            devices: 4,
            contract: ContractMode::Partitioned,
            ..LouvainConfig::default()
        })
        .run_with(&g, &mut Obs::traced(&mut sink));
        let path = format!("{}.jsonl", tmp(name));
        std::fs::write(&path, sink.into_inner()).unwrap();
        path
    }

    #[test]
    fn partitioned_traces_decode_and_check_exchange_accounting() {
        let path = write_mg_fixture_trace("mgload");
        let trace = load_trace(&path).unwrap();
        assert_eq!(trace.run_start.algorithm, "louvain");
        assert_eq!(trace.run_start.devices, 4);
        let exchanges: Vec<ExchangeCheck> = trace
            .span_checks
            .iter()
            .filter_map(|s| s.exchange)
            .collect();
        assert!(
            !exchanges.is_empty(),
            "partitioned run must emit exchange-scoped contract spans"
        );
        let syncs: Vec<&DeviceSync> = trace
            .syncs
            .iter()
            .filter(|y| y.mode.starts_with("exchange-"))
            .collect();
        assert_eq!(syncs.len(), exchanges.len());
        let summary = check(&path, &trace).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn check_rejects_corrupt_exchange_accounting() {
        let path = write_mg_fixture_trace("mgbad");
        let trace = load_trace(&path).unwrap();
        let span_at = trace
            .span_checks
            .iter()
            .position(|s| s.exchange.is_some())
            .expect("an exchange span");
        // Sparse byte model no longer matches the ghost row counts.
        let mut bad_model = trace.clone();
        bad_model.span_checks[span_at]
            .exchange
            .as_mut()
            .unwrap()
            .sparse_bytes += 1;
        let err = check(&path, &bad_model).unwrap_err().to_string();
        assert!(err.contains("sparse bytes"), "{err}");
        // Both strategies claimed for one round.
        let mut bad_strategy = trace.clone();
        {
            let ex = bad_strategy.span_checks[span_at].exchange.as_mut().unwrap();
            ex.dense_exchanges = 1;
            ex.sparse_exchanges = 1;
        }
        let err = check(&path, &bad_strategy).unwrap_err().to_string();
        assert!(err.contains("exactly one"), "{err}");
        // Payload bytes disagree with the selected strategy.
        let mut bad_payload = trace.clone();
        bad_payload.span_checks[span_at]
            .exchange
            .as_mut()
            .unwrap()
            .bytes += 8;
        let err = check(&path, &bad_payload).unwrap_err().to_string();
        assert!(err.contains("selected strategy"), "{err}");
        // Sync event out of step with its contract span.
        let sync_at = trace
            .syncs
            .iter()
            .position(|y| y.mode.starts_with("exchange-"))
            .expect("an exchange sync");
        let mut bad_sync_bytes = trace.clone();
        bad_sync_bytes.syncs[sync_at].bytes += 4;
        let err = check(&path, &bad_sync_bytes).unwrap_err().to_string();
        assert!(err.contains("disagrees"), "{err}");
        let mut bad_sync_mode = trace.clone();
        bad_sync_mode.syncs[sync_at].mode = "exchange-upside-down".into();
        let err = check(&path, &bad_sync_mode).unwrap_err().to_string();
        assert!(err.contains("unknown mode"), "{err}");
        // A dropped sync event breaks the 1:1 pairing.
        let mut missing_sync = trace.clone();
        missing_sync.syncs.remove(sync_at);
        let err = check(&path, &missing_sync).unwrap_err().to_string();
        assert!(err.contains("exchange sync events"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loads_and_checks_a_real_trace() {
        let path = write_fixture_trace("load");
        let trace = load_trace(&path).unwrap();
        assert_eq!(trace.run_start.algorithm, "louvain");
        assert_eq!(trace.run_start.n, 30);
        assert!(!trace.supersteps.is_empty());
        assert!(
            !trace.span_checks.is_empty(),
            "instrumented run must emit spans"
        );
        assert!(
            trace.merged_root.child("decide").is_some(),
            "merged profile must hold the decide subtree"
        );
        assert!(trace.run_end.is_some());
        let summary = check(&path, &trace).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn render_single_covers_curves_and_spans() {
        let path = write_fixture_trace("render");
        let trace = load_trace(&path).unwrap();
        let text = render_single(&path, &trace, 10);
        for needle in [
            "modularity",
            "divergence %",
            "coalescing eff",
            "hash occupancy",
            "top ",
            "decide",
            "weight_update",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Sparklines use the block glyphs.
        assert!(SPARK.iter().any(|&c| text.contains(c)));
        let _ = std::fs::remove_file(path);
    }

    /// [`write_fixture_trace`] on the native backend.
    fn write_native_fixture_trace(name: &str) -> String {
        let g = fixtures::ring_of_cliques(6, 5);
        let mut sink = JsonlSink::new(Vec::new());
        Louvain::new(LouvainConfig {
            backend: BackendKind::Native,
            ..LouvainConfig::default()
        })
        .run_with(&g, &mut Obs::traced(&mut sink));
        let path = format!("{}.jsonl", tmp(name));
        std::fs::write(&path, sink.into_inner()).unwrap();
        path
    }

    #[test]
    fn native_traces_rank_spans_by_wall_ns_without_simulator_curves() {
        let path = write_native_fixture_trace("native");
        let trace = load_trace(&path).unwrap();
        assert!(wall_clocked(&trace));
        let text = render_single(&path, &trace, 10);
        assert!(text.contains("spans by self wall ns"), "{text}");
        assert!(text.contains("self ns"), "{text}");
        for gone in [
            "hash occupancy",
            "hash evictions",
            "divergence %",
            "coalescing eff",
            "self cyc",
        ] {
            assert!(!text.contains(gone), "{gone:?} in:\n{text}");
        }
        // The rows are ranked by the merged tree's self wall ns, busiest
        // first, and the busiest span carries time.
        let mut rows = Vec::new();
        let wall = |s: &SpanRecord| (s.components_wall().total(), subtree_wall_ns(s));
        flatten_spans(&trace.merged_root, "", &wall, &mut rows);
        let busiest = rows.iter().map(|r| r.self_charge).fold(0.0, f64::max);
        assert!(busiest > 0.0);
        let first = text
            .lines()
            .skip_while(|l| !l.starts_with("top "))
            .nth(2)
            .unwrap();
        let top = rows.iter().find(|r| r.self_charge == busiest).unwrap();
        assert!(first.trim_start().starts_with(&top.path), "{first}");
        // A sim trace keeps its cycle table and every curve.
        let sim_path = write_fixture_trace("native_vs_sim");
        assert!(!wall_clocked(&load_trace(&sim_path).unwrap()));
        for p in [path, sim_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn native_traces_total_wall_ns_and_diff_without_simulator_figures() {
        const SIMULATED: [&str; 5] = [
            "total cycles",
            "contract cycles",
            "divergence",
            "coalescing efficiency",
            "hash evictions",
        ];
        let path = write_native_fixture_trace("native_total");
        let trace = load_trace(&path).unwrap();
        let header = render_single(&path, &trace, 10);
        let total = subtree_wall_ns(&trace.merged_root);
        assert!(total > 0.0);
        assert!(
            header.contains(&format!("| total wall ns {total:.0}\n")),
            "{header}"
        );
        assert!(!header.contains("total cycles"), "{header}");
        // Two native traces compare no simulator figures.
        let (text, regressions) = render_diff(&path, &trace, &path, &trace, 0.1);
        assert!(regressions.is_empty(), "{text}");
        for gone in SIMULATED {
            assert!(!text.contains(gone), "{gone:?} in:\n{text}");
        }
        for kept in ["final modularity", "supersteps", "sync bytes"] {
            assert!(text.contains(kept), "{kept:?} missing from:\n{text}");
        }
        // Against a sim trace they stay in the diff.
        let sim_path = write_fixture_trace("native_total_sim");
        let sim = load_trace(&sim_path).unwrap();
        assert!(render_single(&sim_path, &sim, 10).contains("| total cycles "));
        let (text, _) = render_diff(&path, &trace, &sim_path, &sim, 0.1);
        for kept in SIMULATED {
            assert!(text.contains(kept), "{kept:?} missing from:\n{text}");
        }
        for p in [path, sim_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn self_identical_diff_has_no_regressions() {
        let path = write_fixture_trace("selfdiff");
        let trace = load_trace(&path).unwrap();
        let (text, regressions) = render_diff(&path, &trace, &path, &trace, 0.1);
        assert!(regressions.is_empty(), "{text}");
        assert!(text.contains("ok"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn diff_flags_modularity_regression() {
        let path = write_fixture_trace("regress");
        let baseline = load_trace(&path).unwrap();
        let mut worse = baseline.clone();
        // A run that lost a third of its modularity and doubled its cycles
        // must trip the default 10% gate on both watched metrics.
        if let Some(end) = worse.run_end.as_mut() {
            end.modularity *= 0.5;
            end.total_cycles *= 2.0;
        }
        let (text, regressions) = render_diff(&path, &worse, &path, &baseline, 0.1);
        assert!(
            regressions.contains(&"final modularity".to_string()),
            "{text}"
        );
        assert!(regressions.contains(&"total cycles".to_string()), "{text}");
        assert!(text.contains("REGRESSED"));
        // The same delta passes with a huge threshold.
        let (_, loose) = render_diff(&path, &worse, &path, &baseline, 5.0);
        assert!(loose.is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn diff_flags_contract_regression() {
        let path = write_fixture_trace("contract");
        let baseline = load_trace(&path).unwrap();
        assert!(
            baseline.span_checks.iter().any(|s| s.phase == "contract"),
            "instrumented run must emit contract spans"
        );
        let mut worse = baseline.clone();
        for sc in worse
            .span_checks
            .iter_mut()
            .filter(|s| s.phase == "contract")
        {
            sc.tally.global_loads *= 4;
            sc.tally.global_stores *= 4;
        }
        let (text, regressions) = render_diff(&path, &worse, &path, &baseline, 0.1);
        assert!(
            regressions.contains(&"contract cycles".to_string()),
            "{text}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        let path = format!("{}.jsonl", tmp("bad"));
        // Not JSON at all.
        std::fs::write(&path, "not json\n").unwrap();
        assert!(load_trace(&path).is_err());
        // Wrong schema version.
        std::fs::write(&path, "{\"event\":\"run_end\",\"schema\":1}\n").unwrap();
        let err = load_trace(&path).unwrap_err().to_string();
        assert!(err.contains("schema 1"), "{err}");
        // Unknown event kind.
        std::fs::write(
            &path,
            format!("{{\"event\":\"mystery\",\"schema\":{SCHEMA_VERSION}}}\n"),
        )
        .unwrap();
        assert!(load_trace(&path)
            .unwrap_err()
            .to_string()
            .contains("mystery"));
        // Empty file.
        std::fs::write(&path, "").unwrap();
        assert!(load_trace(&path).unwrap_err().to_string().contains("empty"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn check_rejects_broken_invariants() {
        let path = write_fixture_trace("inv");
        let mut trace = load_trace(&path).unwrap();
        // A truncated trace (no run_end) fails.
        let mut truncated = trace.clone();
        truncated.run_end = None;
        assert!(check(&path, &truncated).is_err());
        // Superstep counting must balance.
        trace.supersteps[0].moved += 1;
        let err = check(&path, &trace).unwrap_err().to_string();
        assert!(err.contains("active"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sparkline_is_width_bounded_and_monotone() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[2.0, 2.0, 2.0]);
        assert_eq!(flat.chars().count(), 3);
        assert!(flat.chars().all(|c| c == SPARK[3]));
        let ramp: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let s = sparkline(&ramp);
        assert_eq!(s.chars().count(), SPARK_WIDTH);
        assert_eq!(s.chars().next(), Some(SPARK[0]));
        assert_eq!(s.chars().last(), Some(SPARK[7]));
    }

    #[test]
    fn traced_runs_decode_and_render_metrics_events() {
        let path = write_fixture_trace("metrics");
        let trace = load_trace(&path).unwrap();
        assert!(
            !trace.metrics.is_empty(),
            "instrumented run must emit metrics events"
        );
        for ev in &trace.metrics {
            assert_eq!(ev.scope, "phase1");
            assert!(ev.registry.counter("phase1/supersteps").unwrap_or(0) > 0);
        }
        let summary = check(&path, &trace).unwrap();
        assert!(summary.contains("metrics"), "{summary}");
        let text = render_single(&path, &trace, 10);
        assert!(text.contains("algorithm metrics"), "{text}");
        assert!(text.contains("pruning/active"), "{text}");
        assert!(text.contains("kernel/"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn profile_events_decode_check_and_render() {
        let path = write_fixture_trace("profiles");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("\"event\":\"profile\""),
            "no stored profiles"
        );
        let trace = load_trace_with_spans(&path, true).unwrap();
        assert!(
            !trace.span_checks.is_empty(),
            "instrumented run must emit span events"
        );
        for ev in &trace.span_checks {
            assert_eq!((ev.backend.as_str(), ev.unit), ("sim", Some("cycles")));
            assert!(ev.phase == "phase1" || ev.phase == "contract");
        }
        for tree in &trace.span_trees {
            for span in tree.profile().unwrap().spans {
                assert_eq!(span.components.total(), span.total, "{}", span.path);
            }
        }
        let summary = check(&path, &trace).unwrap();
        assert!(summary.contains("profiles"), "{summary}");
        let text = render_single(&path, &trace, 10);
        assert!(text.contains("profile events:"), "{text}");
        assert!(text.contains("gala profile"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn check_rejects_bad_profile_events() {
        let path = write_fixture_trace("badprofiles");
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = load_trace(&path).unwrap();
        let mut bad_phase = trace.clone();
        bad_phase.span_checks[0].phase = "phase9".into();
        let err = check(&path, &bad_phase).unwrap_err().to_string();
        assert!(err.contains("unknown phase"), "{err}");
        // A backend no unit belongs to fails the check.
        let gpu = text.replacen("\"backend\":\"sim\"", "\"backend\":\"gpu\"", 1);
        std::fs::write(&path, gpu).unwrap();
        let trace = load_trace(&path).unwrap();
        let err = check(&path, &trace).unwrap_err().to_string();
        assert!(
            err.contains("span tree 0 has unknown backend `gpu`"),
            "{err}"
        );
        // So does a tally count that is not an integer, at load time.
        let negative = text.replacen("\"global_loads\":", "\"global_loads\":-", 1);
        std::fs::write(&path, negative).unwrap();
        let err = load_trace(&path).unwrap_err().to_string();
        assert!(err.contains("non-integer tally `global_loads`"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn schema_errors_name_the_offending_event() {
        let path = format!("{}.jsonl", tmp("schemaidx"));
        let round_end = TraceEvent::RoundEnd(RoundEnd {
            round: 0,
            supersteps: 3,
            modularity: 0.4,
            communities: 2,
        });
        std::fs::write(
            &path,
            format!(
                "{}\n{{\"event\":\"run_end\",\"schema\":99}}\n",
                round_end.to_json().render()
            ),
        )
        .unwrap();
        let err = load_trace(&path).unwrap_err().to_string();
        assert!(err.contains("event 1"), "{err}");
        assert!(err.contains("schema 99"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn check_rejects_bad_metrics_events() {
        let path = write_fixture_trace("badmetrics");
        let trace = load_trace(&path).unwrap();
        let mut bad_scope = trace.clone();
        bad_scope.metrics[0].scope = "phase9".into();
        let err = check(&path, &bad_scope).unwrap_err().to_string();
        assert!(err.contains("unknown scope"), "{err}");
        let mut bad_gauge = trace.clone();
        bad_gauge.metrics[0]
            .registry
            .gauge("phase1/moved_fraction", f64::NAN);
        let err = check(&path, &bad_gauge).unwrap_err().to_string();
        assert!(err.contains("non-finite"), "{err}");
        let mut bad_audit = trace;
        bad_audit.metrics[0]
            .registry
            .inc("pruning/audit_false_negatives", 1_000_000);
        let err = check(&path, &bad_audit).unwrap_err().to_string();
        assert!(err.contains("false negatives"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn schema_2_traces_still_load() {
        // The checked-in golden trace was written by a schema-2 build; the
        // range check must keep accepting it while rejecting schema 1.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
        let trace = load_trace(&format!("{dir}/small_trace.jsonl")).unwrap();
        assert!(trace.metrics.is_empty());
        assert!(trace.run_end.is_some());
    }

    #[test]
    fn checked_in_traces_decode_check_and_re_render() {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../gala-core/tests/data");
        let small = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/small_trace.jsonl");
        let stems = [
            "louvain",
            "multi_gpu_phase1",
            "multi_gpu_full",
            "leiden",
            "sequential",
            "grappolo",
        ];
        let paths: Vec<String> = stems
            .iter()
            .map(|stem| format!("{golden}/golden_{stem}.jsonl"))
            .chain([small.to_string()])
            .collect();
        for path in &paths {
            let summary = check(path, &load_trace(path).unwrap()).unwrap();
            assert!(summary.starts_with("ok:"), "{path}: {summary}");
        }
        // The golden streams are schema 6, what this build writes: every
        // line decodes and renders back to the same bytes.
        for path in &paths[..stems.len()] {
            let text = std::fs::read_to_string(path).unwrap();
            for (i, line) in text.lines().enumerate() {
                let event = TraceEvent::from_json(&json::parse(line).unwrap()).unwrap();
                assert_eq!(event.to_json().render(), line, "{path} line {}", i + 1);
            }
        }
    }

    #[test]
    fn chrome_trace_export_is_valid_and_nested() {
        let path = write_fixture_trace("chrome");
        let out = format!("{}.chrome.json", tmp("chrome_out"));
        let count = export_chrome_trace(&path, &out).unwrap();
        assert!(count > 0);
        // The written file must parse as one JSON object with a non-empty
        // traceEvents array (the format Perfetto loads).
        let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), count);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"), "metadata events present");
        assert!(phases.contains(&"X"), "slice events present");
        assert!(phases.contains(&"C"), "counter events present");
        for e in events {
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if e.get("ph").unwrap().as_str() == Some("X") {
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= 0.0 && dur >= 0.0, "negative slice timing");
            }
        }
        // Child kernel spans appear as their own slices inside the tree.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("phase1 r")), "{names:?}");
        assert!(names.contains(&"decide"), "{names:?}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn chrome_trace_falls_back_to_superstep_slices_without_spans() {
        let path = write_fixture_trace("chromefb");
        let mut trace = load_trace_with_spans(&path, true).unwrap();
        trace.span_trees.clear();
        let doc = chrome_trace(&trace);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let slices = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        assert_eq!(slices, trace.supersteps.len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn render_handles_degenerate_traces() {
        // Single-superstep trace: flat curves, no panic, still renders.
        let path = write_fixture_trace("degen");
        let mut one = load_trace(&path).unwrap();
        one.supersteps.truncate(1);
        one.metrics.truncate(1);
        let text = render_single(&path, &one, 10);
        assert!(text.contains("modularity"));
        // All-equal series sparkline collapses to the mid glyph.
        assert_eq!(sparkline(&[7.0]), SPARK[3].to_string());
        // An empty trace diffs against itself without NaN verdicts.
        let empty = Trace::default();
        let (text, regressions) = render_diff("a", &empty, "b", &empty, 0.1);
        assert!(regressions.is_empty(), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        // A corrupt non-finite watched value must not regress or panic.
        let mut nan_trace = one.clone();
        if let Some(end) = nan_trace.run_end.as_mut() {
            end.total_cycles = f64::NAN;
        }
        let (text, regressions) = render_diff(&path, &nan_trace, &path, &one, 0.1);
        assert!(!regressions.contains(&"total cycles".to_string()), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn watched_metric_names_classify_by_direction() {
        use gala_telemetry::Direction::{HigherIsBetter, LowerIsBetter};
        let want = [
            ("final modularity", HigherIsBetter),
            ("supersteps", LowerIsBetter),
            ("total cycles", LowerIsBetter),
            ("contract cycles", LowerIsBetter),
            ("divergence", LowerIsBetter),
            ("coalescing efficiency", HigherIsBetter),
            ("hash evictions", LowerIsBetter),
            ("sync bytes", LowerIsBetter),
        ];
        let names: Vec<&str> = watched_metrics(&Trace::default(), true)
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, want.map(|(name, _)| name));
        for (name, dir) in want {
            assert_eq!(direction(name), dir, "{name}");
        }
    }

    #[test]
    fn log_and_progress_events_load_check_and_render() {
        let path = write_fixture_trace("recorder");
        let trace = load_trace(&path).unwrap();
        assert!(
            !trace.progress.is_empty(),
            "instrumented run must emit progress events"
        );
        let summary = check(&path, &trace).unwrap();
        assert!(summary.contains("progress"), "{summary}");
        // Progress snapshots with broken fractions are rejected.
        let mut bad_frac = trace.clone();
        bad_frac.progress[0].moved_frac = 1.5;
        let err = check(&path, &bad_frac).unwrap_err().to_string();
        assert!(err.contains("outside [0,1]"), "{err}");
        // The default report lists the snapshots; traces without progress
        // events render no section header.
        let rendered = render_single(&path, &trace, 10);
        assert!(
            rendered.contains(&format!("progress snapshots ({})", trace.progress.len())),
            "{rendered}"
        );
        assert!(
            rendered.contains(&trace.progress[0].render_line()),
            "{rendered}"
        );
        assert_eq!(render_progress(&Trace::default()), "");
        // The log channel is gone: a `log` line is an unknown event.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(
            "{\"event\":\"log\",\"schema\":5,\"seq\":0,\"elapsed_us\":1,\"level\":\"info\",\
             \"scope\":\"louvain\",\"message\":\"line 0\",\"fields\":{}}\n",
        );
        std::fs::write(&path, &text).unwrap();
        let err = load_trace(&path).unwrap_err().to_string();
        assert!(err.contains("unknown event `log`"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn crash_dumps_are_detected_and_validated() {
        let path = format!("{}.json", tmp("crash"));
        let snap = ProgressSnapshot {
            driver: "louvain".into(),
            round: 2,
            phase: "phase1".into(),
            superstep: 5,
            modularity: 0.4,
            active_frac: 0.5,
            moved_frac: 0.125,
            arcs: 780,
            rss_bytes: 0,
        };
        let doc = json::Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash")
            .set("pid", 123u64)
            .set("reason", "test panic")
            .set(
                "manifest",
                json::Value::object().set("cmdline", "gala detect g.txt"),
            )
            .set("progress", TraceEvent::Progress(snap).to_json());
        std::fs::write(&path, doc.render_pretty()).unwrap();
        let verdict = try_crash_dump(&path).expect("crash dump detected");
        assert!(verdict.unwrap().contains("louvain r2 phase1 s5"));
        // A `progress` member that is not a progress event fails.
        let bad = doc.clone().set("progress", json::Value::Array(Vec::new()));
        std::fs::write(&path, bad.render_pretty()).unwrap();
        let err = try_crash_dump(&path)
            .expect("still detected")
            .unwrap_err()
            .to_string();
        assert!(err.contains("progress"), "{err}");
        // So does a dump without a manifest.
        let bare = json::Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash");
        std::fs::write(&path, bare.render_pretty()).unwrap();
        let err = try_crash_dump(&path)
            .expect("still detected")
            .unwrap_err()
            .to_string();
        assert!(err.contains("manifest"), "{err}");
        // A JSONL trace is not mistaken for a crash dump.
        let trace_path = write_fixture_trace("notcrash");
        assert!(try_crash_dump(&trace_path).is_none());
        for p in [path, trace_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// A `superstep` event carrying only what the convergence report reads.
    fn step(round: u32, superstep: u32, modularity: f64) -> Superstep {
        Superstep {
            round,
            superstep,
            active: 10,
            moved: 1,
            unmoved: 9,
            modularity,
            ..Superstep::default()
        }
    }

    #[test]
    fn convergence_reports_the_tail_after_best_q_and_its_period() {
        // Round 0 peaks at superstep 3, then flips between two states;
        // round 1 settles (a constant tail is no cycle); round 2 never
        // beats its first superstep.
        let rounds: [&[f64]; 3] = [
            &[0.1, 0.3, 0.4, 0.5, 0.45, 0.47, 0.45, 0.47],
            &[0.5, 0.6, 0.6],
            &[0.6, 0.59],
        ];
        let trace = Trace {
            supersteps: rounds
                .iter()
                .enumerate()
                .flat_map(|(r, qs)| {
                    qs.iter()
                        .enumerate()
                        .map(move |(i, &q)| step(r as u32, i as u32, q))
                })
                .collect(),
            ..Trace::default()
        };
        let got = convergence(&trace);
        assert_eq!(got[0].period, Some(2));
        assert_eq!((got[0].best_at, got[0].after_best), (3, 4));
        assert_eq!(got[1].period, None);
        assert_eq!((got[2].best_at, got[2].after_best), (0, 1));
        let want = "
  convergence supersteps  best Q at after best  Q period
  round 0              8          3          4         2
  round 1              3          1          1         -
  round 2              2          0          1         -
  6 of 13 supersteps (46.2%) ran after their round's best Q
";
        assert_eq!(render_convergence(&trace), want);
    }

    #[test]
    fn q_period_needs_two_full_cycles() {
        assert_eq!(q_period(&[1.0, 2.0, 1.0, 2.0]), Some(2));
        assert_eq!(q_period(&[2.0, 1.0, 2.0]), None);
        assert_eq!(q_period(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]), Some(4));
        assert_eq!(
            q_period(&[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            None
        );
        assert_eq!(q_period(&[1.0; 8]), None);
    }

    #[test]
    fn golden_output_matches_checked_in_trace() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
        let trace_path = format!("{dir}/small_trace.jsonl");
        let golden_path = format!("{dir}/small_trace.analyze.txt");
        let trace = load_trace(&trace_path).unwrap();
        let rendered = render_single("tests/data/small_trace.jsonl", &trace, 10);
        let golden = std::fs::read_to_string(&golden_path).unwrap();
        assert_eq!(
            rendered, golden,
            "analyze output drifted from the golden file; if the change is \
             intentional, regenerate tests/data/small_trace.analyze.txt"
        );
    }
}
