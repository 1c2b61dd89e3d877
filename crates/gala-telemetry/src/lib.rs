//! # gala-telemetry — structured tracing and machine-readable reports
//!
//! The observability layer of the workspace, sitting between the simulator
//! (`gala-gpu`) and the drivers/binaries above it:
//!
//! * [`json`] — a dependency-free JSON value, writer and strict parser
//!   (the build environment has no crates.io access, so no `serde_json`).
//! * [`trace`] — [`TraceEvent`]s emitted per superstep / sync / round by
//!   the `gala-core` drivers, consumed through the [`TraceSink`] trait.
//!   The [`NullSink`] reports `enabled() == false`, so tracing costs one
//!   branch when off. The module owns the trace format: the JSON codec
//!   and [`read_trace`], the one reader of trace files.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   log2-bucketed [`Histogram`]s for algorithm-level quantities (pruning
//!   effectiveness, kernel routing splits, hashtable level statistics,
//!   sync traffic), mergeable across workers and devices and emitted as
//!   `metrics` trace events.
//! * [`mem`] — procfs-backed RSS / peak-RSS probes ([`mem::PhasePeak`])
//!   for the memory-budgeted ingestion benches (no counting allocator:
//!   the workspace forbids `unsafe`).
//! * [`report`] — schema-versioned [`Report`]s written by the bench
//!   binaries and the CLI (`--report`), plus [`Report::compare`] for the
//!   CI baseline gate (±10% simulated-cycle tolerance), and [`judge`],
//!   the one rule every regression comparator in the workspace applies.
//! * [`attribution`] — the sim↔native calibration model behind
//!   `gala profile`: joins the `profile` events of a simulated and a
//!   native trace span-by-span, fits a clock, and computes per-kernel
//!   residuals plus per-component calibration factors.
//! * [`recorder`] — the in-process flight recorder: bounded-frequency
//!   [`recorder::ProgressSnapshot`]s for the CLI's `--progress` status
//!   line, a heartbeat watchdog for stalled supersteps, and a panic hook
//!   that writes a `crash-<pid>.json` dump carrying a provenance manifest
//!   and the last snapshot delivered.
//!
//! Both formats carry [`SCHEMA_VERSION`] so downstream tooling can reject
//! documents it does not understand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod trace;

pub use attribution::{Attribution, AttributionReport, Calibration, KernelResidual};
pub use json::Value;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{Manifest, ProgressLimiter, ProgressSnapshot, StallReport, WatchdogCore};
pub use report::{
    direction, judge, Direction, Judged, MetricRow, Regression, Report, ReportError, Verdict,
};
pub use trace::{
    profile_spans, profile_spans_wall, read_trace, DeviceSync, JsonlSink, MetricsSnapshot,
    NullSink, PhaseProfile, ProfileSpan, RoundEnd, RunEnd, RunStart, SpanTree, Superstep,
    TraceEvent, TraceSink, VecSink,
};

/// Version of the trace-event and report JSON schemas. Bump on any
/// incompatible change to field names or meanings.
///
/// History: 1 — initial events; 2 — `span` events, divergence/coalescing
/// tally counters (`simt_*`, `coalesce_*`); 3 — `metrics` events carrying
/// a [`MetricsRegistry`] (counters / gauges / log2 histograms); 4 —
/// `profile` events decomposing every span's cycles (sim) or wall
/// nanoseconds (native) into component charges for `gala profile`; 5 —
/// `progress` events carrying bounded-frequency driver snapshots. Schema
/// 5 also had `log` events (the flight [`recorder`]'s leveled ring lines,
/// written only by `gala detect --progress` with the log-level
/// environment variable set); the ring is gone, no field of any remaining
/// event changed, and a trace holding a `log` line now fails to read as
/// an unknown event.
pub const SCHEMA_VERSION: u64 = 5;

/// Oldest schema this build still reads. Additions since
/// [`MIN_SCHEMA_VERSION`] are purely additive (new event kinds), so traces
/// and reports in `MIN_SCHEMA_VERSION..=SCHEMA_VERSION` all parse.
pub const MIN_SCHEMA_VERSION: u64 = 2;

/// The schema gate every reader applies: `doc`'s `"schema"` member must be
/// an integer in `MIN_SCHEMA_VERSION..=SCHEMA_VERSION`. Returns the
/// version, or an error phrase that follows the document's name, e.g.
/// "has schema 1 (this build reads 2..=5)".
pub fn check_schema(doc: &Value) -> Result<u64, String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or("has no integer `schema`")?;
    if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
        Ok(schema)
    } else {
        Err(format!(
            "has schema {schema} (this build reads {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ))
    }
}
