//! Structured trace events, their JSON codec, and the sinks and reader
//! that move them.
//!
//! The drivers in `gala-core` emit one [`TraceEvent`] per interesting
//! moment of a run — run start/end, each BSP superstep with its move/prune
//! counts and per-phase memory tallies, each inter-device synchronisation
//! with the dense-vs-sparse decision and modelled byte volume, span trees,
//! metrics and progress snapshots. This module is the
//! only place that knows the trace format: [`TraceEvent::to_json`] writes
//! it and [`TraceEvent::from_json`] is its exact inverse. Events flow into
//! a [`TraceSink`]:
//!
//! * [`NullSink`] — reports `enabled() == false`, so instrumented code
//!   skips even *building* events; tracing off costs one branch.
//! * [`VecSink`] — buffers events in memory (tests, programmatic use).
//! * [`JsonlSink`] — writes one compact JSON object per line, the format
//!   `gala detect --trace out.jsonl` produces.
//!
//! [`read_trace`] streams such a file back, one decoded event at a time;
//! `gala analyze` and `gala profile` both read traces through it. A span
//! tree's per-path cost charges are not stored: every reader derives them
//! on read with [`SpanTree::profile`].

use std::collections::BTreeMap;
use std::io::Write;

use gala_gpu::memory::{ComponentCharges, CostModel, MemTally};
use gala_gpu::profile::SpanRecord;

use crate::json::{self, Value};
use crate::metrics::MetricsRegistry;
use crate::recorder::ProgressSnapshot;
use crate::{check_schema, SCHEMA_VERSION};

/// One structured event in a run's trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Emitted once when a driver starts.
    RunStart(RunStart),
    /// One BSP superstep of Louvain phase 1.
    Superstep(Superstep),
    /// One inter-device synchronisation (multi-GPU runs).
    Sync(DeviceSync),
    /// A profiling span tree for one superstep or phase-2 pass.
    Span(SpanTree),
    /// An algorithm-level metrics snapshot. Schema 3+.
    Metrics(MetricsSnapshot),
    /// End of one coarsening round.
    RoundEnd(RoundEnd),
    /// Emitted once when a driver finishes.
    RunEnd(RunEnd),
    /// A bounded-frequency progress snapshot from a live driver: where the
    /// run is right now, cheap enough to stream while it executes. Schema
    /// 5+.
    Progress(ProgressSnapshot),
}

/// The `run_start` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStart {
    /// Driver name (`"louvain"`, `"leiden"`, …).
    pub algorithm: String,
    /// Vertex count of the input graph.
    pub n: u64,
    /// Edge count of the input graph.
    pub m: u64,
    /// Number of simulated devices (1 for single-GPU runs).
    pub devices: u32,
}

/// The `superstep` payload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Superstep {
    /// Coarsening round (phase-1/phase-2 pass) this superstep is in.
    pub round: u32,
    /// Superstep index within the round, from 0.
    pub superstep: u32,
    /// Vertices evaluated this superstep.
    pub active: u64,
    /// Vertices that changed community.
    pub moved: u64,
    /// Vertices skipped by the pruning strategy.
    pub pruned: u64,
    /// Vertices evaluated but kept in place.
    pub unmoved: u64,
    /// Modularity after the superstep's moves were applied.
    pub modularity: f64,
    /// Modularity gained over the previous superstep.
    pub delta_q: f64,
    /// Memory traffic of the decide-and-move kernel.
    pub decide_tally: MemTally,
    /// Memory traffic of the community-weight update.
    pub weight_tally: MemTally,
    /// Shared-memory hashtable occupancy (fraction of shared buckets
    /// holding a key); 0 for kernels without hashtables.
    pub hash_occupancy: f64,
    /// Upserts evicted from shared to global hash buckets.
    pub hash_evictions: u64,
}

/// The `sync` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSync {
    /// Superstep index the sync follows.
    pub superstep: u32,
    /// `"dense"` or `"sparse"` — the mode actually used.
    pub mode: String,
    /// Modelled bytes exchanged per device under that mode.
    pub bytes: u64,
    /// Modelled communication time in microseconds.
    pub comm_us: f64,
    /// Devices participating.
    pub devices: u32,
}

/// The `span` payload: nested per-kernel spans (shuffle vs. hash,
/// delta-update, contraction, sync) with memory tallies — including
/// branch-divergence and memory-coalescing counters — and free-form named
/// counters.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTree {
    /// Coarsening round the spans belong to.
    pub round: u32,
    /// Superstep index within the round (for `"contract"` trees, one past
    /// the round's last superstep).
    pub superstep: u32,
    /// Which driver phase produced the tree (`"phase1"`, `"contract"`).
    pub phase: String,
    /// Backend that executed the phase (`"sim"`, `"native"`, `"host"`);
    /// empty on spans written before schema 6, which did not record it.
    pub backend: String,
    /// Root of the span tree; its children are the phase's top-level
    /// spans (`classify`, `decide`, `apply`, …).
    pub root: SpanRecord,
}

impl SpanTree {
    /// The tree's per-path charges in its backend's unit. Sim trees charge
    /// each span's own [`MemTally`] in simulated cycles through the default
    /// [`CostModel`] (summing exactly to the span's `self_cycles`); native
    /// and host trees charge each span's measured `elapsed_ns` counter.
    /// `None` for any other backend, the empty one of a pre-schema-6 span
    /// among them.
    pub fn profile(&self) -> Option<PhaseProfile> {
        let cost = CostModel::default();
        let sim = |span: &SpanRecord| span.components(&cost);
        let (unit, charge): (_, &dyn Fn(&SpanRecord) -> ComponentCharges) =
            match self.backend.as_str() {
                "sim" => ("cycles", &sim),
                "native" | "host" => ("ns", &SpanRecord::components_wall),
                _ => return None,
            };
        let mut spans = Vec::new();
        for child in &self.root.children {
            collect_profile(child, "", &mut spans, charge);
        }
        Some(PhaseProfile { unit, spans })
    }
}

/// A span tree's charges as [`SpanTree::profile`] derives them: every span
/// flattened to a slash-joined path with its *self* charge decomposed into
/// [`ComponentCharges`]. An in-memory view; traces do not store it.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProfile {
    /// Unit of `total` and every component: `"cycles"` or `"ns"`.
    pub unit: &'static str,
    /// Flattened span rows, pre-order.
    pub spans: Vec<ProfileSpan>,
}

/// The `metrics` payload: a [`MetricsRegistry`] of counters, gauges and
/// log2 histograms covering quantities the span and superstep events
/// cannot — pruning-audit results, kernel routing splits with degree
/// distributions, hashtable level statistics, dense/sparse sync traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Coarsening round the snapshot covers (0 for whole-run scopes).
    pub round: u32,
    /// What the snapshot aggregates over (`"phase1"`, `"sync"`).
    pub scope: String,
    /// The recorded metrics.
    pub registry: MetricsRegistry,
}

/// The `round_end` payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundEnd {
    /// Round index, from 0.
    pub round: u32,
    /// Supersteps the round took.
    pub supersteps: u32,
    /// Modularity at the end of the round.
    pub modularity: f64,
    /// Communities remaining after aggregation.
    pub communities: u64,
}

/// The `run_end` payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunEnd {
    /// Final modularity.
    pub modularity: f64,
    /// Coarsening rounds executed.
    pub rounds: u32,
    /// Total simulated cycles across all phases.
    pub total_cycles: f64,
}

/// One span's row inside a [`PhaseProfile`]: its position in the tree as a
/// slash-joined path plus its *self* charge (children excluded)
/// decomposed into components.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSpan {
    /// Slash-joined span names from the tree root down (the unnamed root
    /// itself is omitted), e.g. `"superstep/decide/hash"`.
    pub path: String,
    /// Times the span was entered.
    pub invocations: u64,
    /// The span's self charge in the event's `unit`; always equals
    /// `components.total()`.
    pub total: f64,
    /// Component decomposition of `total`.
    pub components: ComponentCharges,
}

/// Appends `span` and its descendants to `out` as [`ProfileSpan`] rows,
/// pre-order, each charging the span's *self* cost through `charge`.
fn collect_profile(
    span: &SpanRecord,
    prefix: &str,
    out: &mut Vec<ProfileSpan>,
    charge: &dyn Fn(&SpanRecord) -> ComponentCharges,
) {
    let path = if prefix.is_empty() {
        span.name.clone()
    } else {
        format!("{prefix}/{}", span.name)
    };
    let components = charge(span);
    out.push(ProfileSpan {
        path: path.clone(),
        invocations: span.invocations,
        total: components.total(),
        components,
    });
    for child in &span.children {
        collect_profile(child, &path, out, charge);
    }
}

/// Every [`MemTally`] field under its JSON key, in the order the codec
/// writes them.
fn tally_fields(t: &mut MemTally) -> [(&'static str, &mut u64); 14] {
    [
        ("register_ops", &mut t.register_ops),
        ("shared_loads", &mut t.shared_loads),
        ("shared_stores", &mut t.shared_stores),
        ("global_loads", &mut t.global_loads),
        ("global_stores", &mut t.global_stores),
        ("shared_atomics", &mut t.shared_atomics),
        ("global_atomics", &mut t.global_atomics),
        ("warp_primitives", &mut t.warp_primitives),
        ("simt_steps", &mut t.simt_steps),
        ("simt_active_lanes", &mut t.simt_active_lanes),
        ("simt_serialized", &mut t.simt_serialized),
        ("coalesce_requests", &mut t.coalesce_requests),
        ("coalesce_transactions", &mut t.coalesce_transactions),
        ("coalesce_ideal", &mut t.coalesce_ideal),
    ]
}

/// Serialises a [`MemTally`] as a flat JSON object of its non-zero fields
/// (an all-zero tally is `{}`).
fn tally_to_json(t: &MemTally) -> Value {
    let mut t = *t;
    tally_fields(&mut t)
        .into_iter()
        .filter(|(_, n)| **n != 0)
        .fold(Value::object(), |v, (key, n)| v.set(key, *n))
}

/// Parses a [`MemTally`] back from the object [`tally_to_json`] writes; a
/// missing field is zero. An unknown key or a non-integer value is an
/// error naming the key.
fn tally_from_json(v: &Value) -> Result<MemTally, String> {
    let mut t = MemTally::new();
    for (key, n) in v.as_object().ok_or("not an object")? {
        let (_, field) = tally_fields(&mut t)
            .into_iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("unknown tally key `{key}`"))?;
        *field = n
            .as_u64()
            .ok_or_else(|| format!("non-integer tally `{key}`"))?;
    }
    Ok(t)
}

/// Parses a span node's named counters.
fn counters_from_json(v: &Value) -> Result<BTreeMap<String, u64>, String> {
    v.as_object()
        .ok_or("not an object")?
        .iter()
        .map(|(k, n)| {
            let n = n
                .as_u64()
                .ok_or_else(|| format!("non-integer counter `{k}`"))?;
            Ok((k.clone(), n))
        })
        .collect()
}

/// Parses a [`SpanRecord`] tree back from the object [`span_to_json`]
/// writes; a missing `tally`, `counters` or `children` is zero or empty.
/// Errors name the span and the key. The recursion is as deep as the
/// document, which [`json::parse`] bounds.
fn span_from_json(v: &Value) -> Result<SpanRecord, String> {
    let f = Fields(v);
    let name = f.string("name")?;
    let node = || -> Result<SpanRecord, String> {
        Ok(SpanRecord {
            name: name.clone(),
            invocations: f.u64("invocations")?,
            tally: f.sparse("tally", tally_from_json)?,
            counters: f.sparse("counters", counters_from_json)?,
            children: f.sparse("children", |c| {
                let children = c.as_array().ok_or("not an array")?;
                children.iter().map(span_from_json).collect()
            })?,
        })
    };
    node().map_err(|e| format!("span `{name}`: {e}"))
}

/// Serialises a profiling span tree ([`SpanRecord`]) recursively, leaving
/// out a zero tally, empty counters and empty children.
fn span_to_json(span: &SpanRecord) -> Value {
    let mut v = Value::object()
        .set("name", span.name.as_str())
        .set("invocations", span.invocations);
    if span.tally != MemTally::new() {
        v = v.set("tally", tally_to_json(&span.tally));
    }
    if !span.counters.is_empty() {
        let counters = span
            .counters
            .iter()
            .fold(Value::object(), |c, (k, n)| c.set(k, *n));
        v = v.set("counters", counters);
    }
    if !span.children.is_empty() {
        let children = span.children.iter().map(span_to_json).collect();
        v = v.set("children", Value::Array(children));
    }
    v
}

/// Typed member access for [`TraceEvent::from_json`]: each getter's error
/// names the key it could not read.
struct Fields<'a>(&'a Value);

impl Fields<'_> {
    /// Member `key` read through `read`; `what` describes a value `read`
    /// rejects.
    fn get<'v, T>(
        &'v self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        self.0
            .get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or {what} `{key}`"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, "non-integer", Value::as_u64)
    }

    /// A `u32` member; larger integers are an error, not a truncation.
    fn u32(&self, key: &str) -> Result<u32, String> {
        let n = self.u64(key)?;
        u32::try_from(n).map_err(|_| format!("`{key}` {n} does not fit in 32 bits"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key, "non-numeric", Value::as_f64)
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.get(key, "non-string", |v| v.as_str().map(str::to_string))
    }

    /// Member `key` decoded by `decode`, whose error gets the key as prefix.
    fn decode<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.0.get(key).ok_or_else(|| format!("missing `{key}`"))?;
        decode(v).map_err(|e| format!("`{key}`: {e}"))
    }

    /// [`Self::decode`] for a member the writer leaves out when it is zero
    /// or empty: absent, it reads as `T::default()`.
    fn sparse<T: Default>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(T::default()),
            Some(_) => self.decode(key, decode),
        }
    }
}

impl TraceEvent {
    /// The event's `"event"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart(_) => "run_start",
            TraceEvent::Superstep(_) => "superstep",
            TraceEvent::Sync(_) => "sync",
            TraceEvent::Span(_) => "span",
            TraceEvent::Metrics(_) => "metrics",
            TraceEvent::RoundEnd(_) => "round_end",
            TraceEvent::RunEnd(_) => "run_end",
            TraceEvent::Progress(_) => "progress",
        }
    }

    /// Serialises the event to the documented JSON object form. Every
    /// object carries `"event"` and `"schema"` so consumers can dispatch
    /// and version-check line by line.
    pub fn to_json(&self) -> Value {
        let base = Value::object()
            .set("event", self.kind())
            .set("schema", SCHEMA_VERSION);
        match self {
            TraceEvent::RunStart(e) => base
                .set("algorithm", e.algorithm.as_str())
                .set("n", e.n)
                .set("m", e.m)
                .set("devices", e.devices),
            TraceEvent::Superstep(e) => base
                .set("round", e.round)
                .set("superstep", e.superstep)
                .set("active", e.active)
                .set("moved", e.moved)
                .set("pruned", e.pruned)
                .set("unmoved", e.unmoved)
                .set("modularity", e.modularity)
                .set("delta_q", e.delta_q)
                .set("decide_tally", tally_to_json(&e.decide_tally))
                .set("weight_tally", tally_to_json(&e.weight_tally))
                .set("hash_occupancy", e.hash_occupancy)
                .set("hash_evictions", e.hash_evictions),
            TraceEvent::Sync(e) => base
                .set("superstep", e.superstep)
                .set("mode", e.mode.as_str())
                .set("bytes", e.bytes)
                .set("comm_us", e.comm_us)
                .set("devices", e.devices),
            TraceEvent::Span(e) => base
                .set("round", e.round)
                .set("superstep", e.superstep)
                .set("phase", e.phase.as_str())
                .set("backend", e.backend.as_str())
                .set("root", span_to_json(&e.root)),
            TraceEvent::Metrics(e) => base
                .set("round", e.round)
                .set("scope", e.scope.as_str())
                .set("registry", e.registry.to_json()),
            TraceEvent::RoundEnd(e) => base
                .set("round", e.round)
                .set("supersteps", e.supersteps)
                .set("modularity", e.modularity)
                .set("communities", e.communities),
            TraceEvent::RunEnd(e) => base
                .set("modularity", e.modularity)
                .set("rounds", e.rounds)
                .set("total_cycles", e.total_cycles),
            TraceEvent::Progress(e) => base
                .set("driver", e.driver.as_str())
                .set("round", e.round)
                .set("phase", e.phase.as_str())
                .set("superstep", e.superstep)
                .set("modularity", e.modularity)
                .set("active_frac", e.active_frac)
                .set("moved_frac", e.moved_frac)
                .set("arcs", e.arcs)
                .set("rss_bytes", e.rss_bytes),
        }
    }

    /// Decodes the object [`TraceEvent::to_json`] writes — its exact
    /// inverse. Every field of the event's kind must be present with its
    /// type, and `u32` fields must fit; the error names the first field
    /// that is not. Tally fields and a span node's tally, counters and
    /// children are sparse: absent, they read as zero or empty. The
    /// `"schema"` member is gated by [`read_trace`]; here it only excuses
    /// a pre-schema-6 span from naming its backend.
    pub fn from_json(v: &Value) -> Result<TraceEvent, String> {
        let f = Fields(v);
        Ok(match f.get("event", "non-string", Value::as_str)? {
            "run_start" => TraceEvent::RunStart(RunStart {
                algorithm: f.string("algorithm")?,
                n: f.u64("n")?,
                m: f.u64("m")?,
                devices: f.u32("devices")?,
            }),
            "superstep" => TraceEvent::Superstep(Superstep {
                round: f.u32("round")?,
                superstep: f.u32("superstep")?,
                active: f.u64("active")?,
                moved: f.u64("moved")?,
                pruned: f.u64("pruned")?,
                unmoved: f.u64("unmoved")?,
                modularity: f.f64("modularity")?,
                delta_q: f.f64("delta_q")?,
                decide_tally: f.decode("decide_tally", tally_from_json)?,
                weight_tally: f.decode("weight_tally", tally_from_json)?,
                hash_occupancy: f.f64("hash_occupancy")?,
                hash_evictions: f.u64("hash_evictions")?,
            }),
            "sync" => TraceEvent::Sync(DeviceSync {
                superstep: f.u32("superstep")?,
                mode: f.string("mode")?,
                bytes: f.u64("bytes")?,
                comm_us: f.f64("comm_us")?,
                devices: f.u32("devices")?,
            }),
            "span" => TraceEvent::Span(SpanTree {
                round: f.u32("round")?,
                superstep: f.u32("superstep")?,
                phase: f.string("phase")?,
                // Spans before schema 6 did not record their backend.
                backend: match v.get("schema").and_then(Value::as_u64) {
                    Some(schema) if schema < 6 => String::new(),
                    _ => f.string("backend")?,
                },
                root: f.decode("root", span_from_json)?,
            }),
            "metrics" => TraceEvent::Metrics(MetricsSnapshot {
                round: f.u32("round")?,
                scope: f.string("scope")?,
                registry: f.get("registry", "malformed", MetricsRegistry::from_json)?,
            }),
            "round_end" => TraceEvent::RoundEnd(RoundEnd {
                round: f.u32("round")?,
                supersteps: f.u32("supersteps")?,
                modularity: f.f64("modularity")?,
                communities: f.u64("communities")?,
            }),
            "run_end" => TraceEvent::RunEnd(RunEnd {
                modularity: f.f64("modularity")?,
                rounds: f.u32("rounds")?,
                total_cycles: f.f64("total_cycles")?,
            }),
            "progress" => TraceEvent::Progress(ProgressSnapshot {
                driver: f.string("driver")?,
                round: f.u32("round")?,
                phase: f.string("phase")?,
                superstep: f.u32("superstep")?,
                modularity: f.f64("modularity")?,
                active_frac: f.f64("active_frac")?,
                moved_frac: f.f64("moved_frac")?,
                arcs: f.u64("arcs")?,
                rss_bytes: f.u64("rss_bytes")?,
            }),
            other => return Err(format!("unknown event `{other}`")),
        })
    }
}

/// Streams the JSONL trace at `path` into `each`, one decoded event per
/// non-blank line in file order, and returns how many events it read.
///
/// This is the one trace reader: it opens the file, skips blank lines,
/// parses each line, applies the schema gate and decodes the event. The
/// `profile` lines of schema-4 and -5 traces are skipped and not counted. Any
/// error — its own or one `each` returns — comes back prefixed with the
/// file and line; a file without events is an error as well. Memory stays
/// at one line plus whatever `each` keeps.
pub fn read_trace(
    path: &str,
    mut each: impl FnMut(TraceEvent) -> Result<(), String>,
) -> Result<usize, String> {
    use std::io::BufRead;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = 0;
    for (idx, raw) in std::io::BufReader::new(file).lines().enumerate() {
        let step = || -> Result<(), String> {
            let raw = raw.map_err(|e| e.to_string())?;
            if raw.trim().is_empty() {
                return Ok(());
            }
            let v = json::parse(&raw).map_err(|e| e.to_string())?;
            let schema = check_schema(&v).map_err(|e| format!("event {events} {e}"))?;
            // Schemas 4 and 5 stored each span tree's charges a second
            // time, as a `profile` event; readers derive them instead.
            if schema < 6 && v.get("event").and_then(Value::as_str) == Some("profile") {
                return Ok(());
            }
            events += 1;
            each(TraceEvent::from_json(&v)?)
        };
        step().map_err(|e| format!("{path} line {}: {e}", idx + 1))?;
    }
    if events == 0 {
        return Err(format!("{path}: empty trace"));
    }
    Ok(events)
}

/// Consumer of [`TraceEvent`]s.
///
/// Instrumented code must gate on [`TraceSink::enabled`] before
/// constructing events:
///
/// ```ignore
/// if sink.enabled() {
///     sink.emit(TraceEvent::RunEnd(RunEnd { .. }));
/// }
/// ```
///
/// so a disabled sink costs one branch per emission site and nothing else.
pub trait TraceSink {
    /// Whether events should be built and emitted at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Never called by well-behaved instrumentation
    /// when [`TraceSink::enabled`] is false.
    fn emit(&mut self, event: TraceEvent);
}

/// The disabled sink: `enabled()` is false and `emit` panics in debug
/// builds (instrumentation must check `enabled()` first).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: TraceEvent) {
        debug_assert!(false, "emit on a disabled sink: gate on sink.enabled()");
    }
}

/// Buffers events in memory.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Every event emitted so far, in order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Writes one compact JSON object per event, newline-terminated (JSONL).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`; every emitted event becomes one line.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Unwraps the inner writer (flushing it).
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: TraceEvent) {
        // Trace emission failing must not abort a simulation; drop the line.
        let _ = writeln!(self.writer, "{}", event.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use gala_gpu::memory::Space;

    fn sample_superstep() -> TraceEvent {
        let mut decide = MemTally::new();
        decide.load(Space::Global, 10);
        decide.atomic(Space::Shared, 3);
        let mut weight = MemTally::new();
        weight.store(Space::Global, 5);
        TraceEvent::Superstep(Superstep {
            round: 0,
            superstep: 2,
            active: 100,
            moved: 40,
            pruned: 10,
            unmoved: 50,
            modularity: 0.41,
            delta_q: 0.02,
            decide_tally: decide,
            weight_tally: weight,
            hash_occupancy: 0.75,
            hash_evictions: 7,
        })
    }

    #[test]
    fn jsonl_lines_round_trip_through_own_parser() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(TraceEvent::RunStart(RunStart {
            algorithm: "louvain".into(),
            n: 34,
            m: 78,
            devices: 1,
        }));
        sink.emit(sample_superstep());
        sink.emit(TraceEvent::RunEnd(RunEnd {
            modularity: 0.42,
            rounds: 3,
            total_cycles: 123456.0,
        }));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let events: Vec<_> = lines.iter().map(|l| parse(l).unwrap()).collect();
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("run_start"));
        assert_eq!(
            events[0].get("schema").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("superstep"));
        assert_eq!(events[1].get("moved").unwrap().as_u64(), Some(40));
        assert_eq!(
            events[1]
                .get("decide_tally")
                .unwrap()
                .get("global_loads")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        assert_eq!(
            events[1].get("hash_occupancy").unwrap().as_f64(),
            Some(0.75)
        );
        assert_eq!(events[2].get("event").unwrap().as_str(), Some("run_end"));
        assert_eq!(events[2].get("rounds").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn span_event_round_trips_through_jsonl() {
        use gala_gpu::profile::Profiler;
        let mut p = Profiler::new();
        p.scope("decide", |p| {
            let mut t = MemTally::new();
            t.load(Space::Global, 4);
            t.simt_step(0xFFFF);
            t.simt_serialize(2);
            t.global_request(&[0, 1, 900], 8);
            p.record(&t);
            p.count("items", 3);
            p.scope("hash", |p| p.count("hash_evictions", 5));
        });
        let event = TraceEvent::Span(SpanTree {
            round: 1,
            superstep: 7,
            phase: "phase1".into(),
            backend: "sim".into(),
            root: p.finish(),
        });
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(event.clone());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = parse(text.trim()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("round").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("superstep").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("phase1"));
        assert_eq!(v.get("backend").unwrap().as_str(), Some("sim"));
        let root = span_from_json(v.get("root").unwrap()).unwrap();
        let TraceEvent::Span(original) = event else {
            unreachable!()
        };
        assert_eq!(root, original.root);
        let decide = root.child("decide").unwrap();
        assert_eq!(decide.tally.simt_steps, 1);
        assert_eq!(decide.tally.simt_serialized, 2);
        assert_eq!(decide.tally.coalesce_requests, 1);
        assert_eq!(decide.child("hash").unwrap().counter("hash_evictions"), 5);
    }

    #[test]
    fn tally_round_trips_with_new_counters() {
        let mut t = MemTally::new();
        t.load(Space::Global, 9);
        t.simt_step(0b101);
        t.global_request(&[3, 600], 4);
        let parsed = tally_from_json(&parse(&tally_to_json(&t).render()).unwrap()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn tally_from_json_reads_missing_fields_as_zero_and_names_bad_keys() {
        let v = Value::object().set("register_ops", 1u64);
        let one = MemTally {
            register_ops: 1,
            ..MemTally::new()
        };
        assert_eq!(tally_from_json(&v), Ok(one));
        assert_eq!(tally_from_json(&Value::object()), Ok(MemTally::new()));
        assert_eq!(
            tally_from_json(&v.clone().set("bogus_ops", 2u64)),
            Err("unknown tally key `bogus_ops`".to_string())
        );
        assert_eq!(
            tally_from_json(&v.set("global_loads", 2.5)),
            Err("non-integer tally `global_loads`".to_string())
        );
    }

    #[test]
    fn sparse_tallies_leave_out_zero_fields() {
        assert_eq!(tally_to_json(&MemTally::new()).render(), "{}");
        let mut t = MemTally::new();
        t.load(Space::Global, 3);
        assert_eq!(tally_to_json(&t).render(), "{\"global_loads\":3}");
        // A node with nothing to report is its name and invocations.
        let bare = SpanRecord {
            name: "apply".into(),
            invocations: 2,
            ..SpanRecord::default()
        };
        let v = span_to_json(&bare);
        assert_eq!(v.render(), "{\"name\":\"apply\",\"invocations\":2}");
        assert_eq!(span_from_json(&v), Ok(bare));
    }

    #[test]
    fn metrics_event_round_trips_through_jsonl() {
        let mut r = MetricsRegistry::new();
        r.inc("pruning/pruned", 42);
        r.gauge("phase1/moved_fraction", 0.5);
        r.observe("kernel/shuffle_degree", 12);
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(TraceEvent::Metrics(MetricsSnapshot {
            round: 2,
            scope: "phase1".into(),
            registry: r.clone(),
        }));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = parse(text.trim()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            v.get("schema").unwrap().as_u64(),
            Some(SCHEMA_VERSION),
            "metrics events are schema 3+"
        );
        assert_eq!(v.get("round").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("scope").unwrap().as_str(), Some("phase1"));
        let back = MetricsRegistry::from_json(v.get("registry").unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(VecSink::default().enabled());
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut sink = VecSink::default();
        sink.emit(TraceEvent::RunEnd(RunEnd {
            modularity: 0.1,
            rounds: 1,
            total_cycles: 1.0,
        }));
        sink.emit(sample_superstep());
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].kind(), "run_end");
        assert_eq!(sink.events[1].kind(), "superstep");
    }

    #[test]
    fn span_serialisation_covers_tree() {
        use gala_gpu::profile::Profiler;
        let mut p = Profiler::new();
        p.scope("superstep", |p| {
            p.scope("decide", |p| {
                let mut t = MemTally::new();
                t.load(Space::Global, 4);
                p.record(&t);
                p.count("moved", 2);
            });
        });
        let v = span_to_json(&p.finish());
        let step = &v.get("children").unwrap().as_array().unwrap()[0];
        assert_eq!(step.get("name").unwrap().as_str(), Some("superstep"));
        let decide = &step.get("children").unwrap().as_array().unwrap()[0];
        assert_eq!(
            decide
                .get("counters")
                .unwrap()
                .get("moved")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            decide
                .get("tally")
                .unwrap()
                .get("global_loads")
                .unwrap()
                .as_u64(),
            Some(4)
        );
    }

    fn sample_tree() -> SpanRecord {
        use gala_gpu::profile::Profiler;
        let mut p = Profiler::new();
        p.scope("superstep", |p| {
            p.scope("decide", |p| {
                p.scope("hash", |p| {
                    let mut t = MemTally::new();
                    t.load(Space::Global, 40);
                    t.atomic(Space::Shared, 6);
                    t.global_request(&[0, 1, 900], 8);
                    p.record(&t);
                    p.count("items", 12);
                });
            });
            p.scope("sync", |p| p.count("elapsed_ns", 450));
        });
        p.finish()
    }

    /// A phase-1 `span` event payload holding [`sample_tree`].
    fn sample_span(backend: &str) -> SpanTree {
        SpanTree {
            round: 2,
            superstep: 5,
            phase: "phase1".into(),
            backend: backend.into(),
            root: sample_tree(),
        }
    }

    #[test]
    fn profile_rows_flatten_paths_and_sum_to_self_cycles() {
        let tree = sample_tree();
        let cost = CostModel::default();
        let rows = sample_span("sim").profile().unwrap().spans;
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "superstep",
                "superstep/decide",
                "superstep/decide/hash",
                "superstep/sync"
            ]
        );
        let hash = tree
            .child("superstep")
            .and_then(|s| s.child("decide"))
            .and_then(|d| d.child("hash"))
            .unwrap();
        let row = &rows[2];
        assert_eq!(row.total, hash.self_cycles(&cost));
        assert_eq!(row.components.total(), row.total);
        assert_eq!(row.invocations, 1);
    }

    #[test]
    fn wall_profile_rows_charge_single_buckets() {
        let rows = sample_span("native").profile().unwrap().spans;
        let sync = rows.iter().find(|r| r.path == "superstep/sync").unwrap();
        assert_eq!(sync.components.sync, 450.0);
        assert_eq!(sync.components.compute, 0.0);
        assert_eq!(sync.total, 450.0);
        let decide = rows.iter().find(|r| r.path == "superstep/decide").unwrap();
        assert_eq!(decide.total, 0.0, "no elapsed_ns counter, no charge");
    }

    #[test]
    fn profile_event_round_trips_through_jsonl() {
        // The charges are derived from the span, so what survives the
        // JSONL round trip is the span and its backend: the profile read
        // back equals the one the writer could have derived.
        for (backend, unit) in [("sim", "cycles"), ("native", "ns"), ("host", "ns")] {
            let tree = sample_span(backend);
            let mut sink = JsonlSink::new(Vec::new());
            sink.emit(TraceEvent::Span(tree.clone()));
            let text = String::from_utf8(sink.into_inner()).unwrap();
            let TraceEvent::Span(back) =
                TraceEvent::from_json(&parse(text.trim()).unwrap()).unwrap()
            else {
                panic!("{backend}: not a span event")
            };
            let profile = back.profile().unwrap();
            assert_eq!(profile.unit, unit);
            assert_eq!(Some(profile), tree.profile(), "{backend}");
        }
        for backend in ["", "gpu"] {
            assert_eq!(sample_span(backend).profile(), None, "`{backend}`");
        }
    }

    /// One event of every kind, each with its payload filled in.
    fn one_of_each() -> Vec<TraceEvent> {
        let mut registry = MetricsRegistry::new();
        registry.inc("pruning/pruned", 3);
        registry.observe("kernel/shuffle_degree", 12);
        vec![
            TraceEvent::RunStart(RunStart {
                algorithm: "louvain".into(),
                n: 34,
                m: 78,
                devices: 2,
            }),
            sample_superstep(),
            TraceEvent::Sync(DeviceSync {
                superstep: 4,
                mode: "sparse".into(),
                bytes: 4096,
                comm_us: 1.25,
                devices: 2,
            }),
            TraceEvent::Span(SpanTree {
                round: 1,
                superstep: 3,
                phase: "contract".into(),
                backend: "native".into(),
                root: sample_tree(),
            }),
            TraceEvent::Metrics(MetricsSnapshot {
                round: 1,
                scope: "sync".into(),
                registry,
            }),
            TraceEvent::RoundEnd(RoundEnd {
                round: 1,
                supersteps: 9,
                modularity: 0.37,
                communities: 6,
            }),
            TraceEvent::RunEnd(RunEnd {
                modularity: 0.42,
                rounds: 3,
                total_cycles: 123456.5,
            }),
            TraceEvent::Progress(ProgressSnapshot {
                driver: "louvain".into(),
                round: 2,
                phase: "phase1".into(),
                superstep: 5,
                modularity: 0.4,
                active_frac: 0.5,
                moved_frac: 0.125,
                arcs: 780,
                rss_bytes: 1 << 20,
            }),
        ]
    }

    /// A tally with every field non-zero.
    fn full_tally() -> MemTally {
        let mut t = MemTally::new();
        for (i, (_, field)) in tally_fields(&mut t).into_iter().enumerate() {
            *field = i as u64 + 1;
        }
        t
    }

    #[test]
    fn from_json_inverts_to_json_for_every_kind() {
        let mut events = one_of_each();
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 8, "one event per kind");
        // Sparse tallies: all-zero, a single field, and all fourteen.
        let single = MemTally {
            global_stores: 5,
            ..MemTally::new()
        };
        events.push(TraceEvent::Superstep(Superstep {
            decide_tally: MemTally::new(),
            weight_tally: single,
            ..Superstep::default()
        }));
        let mut full = sample_span("sim");
        full.root.children[0].tally = full_tally();
        events.push(TraceEvent::Span(full));
        let lines: Vec<String> = events.iter().map(|e| e.to_json().render()).collect();
        let sparse = &lines[lines.len() - 2];
        assert!(sparse.contains("\"decide_tally\":{}"), "{sparse}");
        assert!(
            sparse.contains("\"weight_tally\":{\"global_stores\":5}"),
            "{sparse}"
        );
        assert!(lines[lines.len() - 1].contains("\"coalesce_ideal\":14"));
        for event in events {
            let line = event.to_json().render();
            let decoded = TraceEvent::from_json(&parse(&line).unwrap());
            assert_eq!(decoded.as_ref(), Ok(&event), "{line}");
            assert_eq!(decoded.unwrap().to_json().render(), line);
        }
    }

    #[test]
    fn from_json_rejects_u32_fields_out_of_range() {
        let too_big = u64::from(u32::MAX) + 1;
        for event in one_of_each() {
            let v = event.to_json();
            for key in ["round", "superstep", "devices", "supersteps", "rounds"] {
                if v.get(key).is_none() {
                    continue;
                }
                let err = TraceEvent::from_json(&v.clone().set(key, too_big)).unwrap_err();
                assert_eq!(
                    err,
                    format!("`{key}` {too_big} does not fit in 32 bits"),
                    "{}",
                    event.kind()
                );
                let max = v.clone().set(key, u64::from(u32::MAX));
                assert!(
                    TraceEvent::from_json(&max).is_ok(),
                    "{} {key}",
                    event.kind()
                );
            }
        }
    }

    #[test]
    fn from_json_names_the_missing_field_and_unknown_kinds() {
        let v = sample_superstep().to_json();
        let Value::Object(pairs) = &v else {
            unreachable!()
        };
        let without =
            |key: &str| Value::Object(pairs.iter().filter(|(k, _)| k != key).cloned().collect());
        assert_eq!(
            TraceEvent::from_json(&without("delta_q")).unwrap_err(),
            "missing or non-numeric `delta_q`"
        );
        assert_eq!(
            TraceEvent::from_json(&without("event")).unwrap_err(),
            "missing or non-string `event`"
        );
        let bad_tally = v
            .clone()
            .set("weight_tally", Value::object().set("warp_shuffles", 1u64));
        assert_eq!(
            TraceEvent::from_json(&bad_tally).unwrap_err(),
            "`weight_tally`: unknown tally key `warp_shuffles`"
        );
        assert_eq!(
            TraceEvent::from_json(&without("weight_tally")).unwrap_err(),
            "missing `weight_tally`"
        );
        let negative = v.clone().set("moved", -1.0);
        assert_eq!(
            TraceEvent::from_json(&negative).unwrap_err(),
            "missing or non-integer `moved`"
        );
        let mystery = v.set("event", "mystery");
        assert_eq!(
            TraceEvent::from_json(&mystery).unwrap_err(),
            "unknown event `mystery`"
        );
    }

    #[test]
    fn read_trace_streams_events_and_prefixes_every_error() {
        let path = std::env::temp_dir()
            .join(format!("gala_read_trace_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let lines: Vec<String> = one_of_each().iter().map(|e| e.to_json().render()).collect();
        let read = |text: &str| {
            std::fs::write(&path, text).unwrap();
            let mut kinds = Vec::new();
            read_trace(&path, |e| {
                kinds.push(e.kind());
                Ok(())
            })
            .map(|n| (n, kinds))
        };
        // Blank lines are skipped but still count toward line numbers.
        let text = format!("{}\n\n  \n{}\n", lines[0], lines[6]);
        assert_eq!(read(&text).unwrap(), (2, vec!["run_start", "run_end"]));
        let err = read(&format!("{}\n\nnot json\n", lines[0])).unwrap_err();
        assert!(
            err.starts_with(&format!("{path} line 3: JSON parse error")),
            "{err}"
        );
        let old = lines[6].replace(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":1");
        let err = read(&format!("{}\n{old}\n", lines[0])).unwrap_err();
        assert_eq!(
            err,
            format!(
                "{path} line 2: event 1 has schema 1 (this build reads \
                 {}..={SCHEMA_VERSION})",
                crate::MIN_SCHEMA_VERSION
            )
        );
        let err = read(&format!(
            "{}\n",
            lines[0].replace("\"n\":34", "\"n\":\"34\"")
        ))
        .unwrap_err();
        assert_eq!(err, format!("{path} line 1: missing or non-integer `n`"));
        assert_eq!(read("\n\n").unwrap_err(), format!("{path}: empty trace"));
        // Errors the callback returns get the same prefix.
        std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
        let err = read_trace(&path, |e| match e {
            TraceEvent::Superstep(_) => Err("no supersteps here".to_string()),
            _ => Ok(()),
        })
        .unwrap_err();
        assert_eq!(err, format!("{path} line 2: no supersteps here"));
        let _ = std::fs::remove_file(&path);
        assert!(read_trace(&path, |_| Ok(()))
            .unwrap_err()
            .starts_with(&path));
    }

    #[test]
    fn schema_5_traces_with_profile_lines_still_read() {
        // Schema 5 wrote every tally field, empty counters and children, no
        // span backend, and a `profile` line after each span.
        let zeros = tally_fields(&mut MemTally::new()).map(|(k, _)| format!("\"{k}\":0"));
        let t = zeros.join(",");
        let span = format!(
            "{{\"event\":\"span\",\"schema\":5,\"round\":0,\"superstep\":1,\"phase\":\"phase1\",\
             \"root\":{{\"name\":\"\",\"invocations\":0,\"tally\":{{{t}}},\"counters\":{{}},\
             \"children\":[{{\"name\":\"decide\",\"invocations\":1,\"tally\":{{{t}}},\
             \"counters\":{{\"elapsed_ns\":42}},\"children\":[]}}]}}}}"
        );
        let profile = "{\"event\":\"profile\",\"schema\":5,\"round\":0,\"superstep\":1,\
                       \"phase\":\"phase1\",\"backend\":\"native\",\"unit\":\"ns\",\"spans\":[]}";
        let end = "{\"event\":\"run_end\",\"schema\":5,\"modularity\":0.5,\"rounds\":1,\
                   \"total_cycles\":0}";
        let path = std::env::temp_dir()
            .join(format!("gala_schema5_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let read = |text: String| {
            std::fs::write(&path, text).unwrap();
            let mut events = Vec::new();
            read_trace(&path, |e| {
                events.push(e);
                Ok(())
            })
            .map(|n| (n, events))
        };
        let (n, events) = read(format!("{span}\n{profile}\n{end}\n")).unwrap();
        assert_eq!(n, 2, "the profile line is skipped");
        let TraceEvent::Span(tree) = &events[0] else {
            panic!("{events:?}")
        };
        assert_eq!(tree.backend, "");
        assert_eq!(tree.profile(), None);
        let decide = tree.root.child("decide").unwrap();
        assert_eq!(
            (decide.tally, decide.counter("elapsed_ns")),
            (MemTally::new(), 42)
        );
        // From schema 6 on, a span names its backend and `profile` is gone.
        let err = read(format!(
            "{}\n",
            span.replace("\"schema\":5", "\"schema\":6")
        ))
        .unwrap_err();
        assert_eq!(
            err,
            format!("{path} line 1: missing or non-string `backend`")
        );
        let err = read(format!(
            "{}\n",
            profile.replace("\"schema\":5", "\"schema\":6")
        ))
        .unwrap_err();
        assert_eq!(err, format!("{path} line 1: unknown event `profile`"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn span_tallies_with_unknown_keys_or_non_integers_name_the_key() {
        let line = TraceEvent::Span(sample_span("sim")).to_json().render();
        assert!(line.contains("\"global_loads\":40"), "{line}");
        let decode = |line: String| TraceEvent::from_json(&parse(&line).unwrap()).unwrap_err();
        let err = decode(line.replace("\"global_loads\":40", "\"global_lodes\":40"));
        assert_eq!(
            err,
            "`root`: span ``: `children`: span `superstep`: `children`: span `decide`: \
             `children`: span `hash`: `tally`: unknown tally key `global_lodes`"
        );
        let err = decode(line.replace("\"global_loads\":40", "\"global_loads\":-40"));
        assert!(
            err.ends_with("`tally`: non-integer tally `global_loads`"),
            "{err}"
        );
        let err = decode(line.replace("\"global_loads\":40", "\"global_loads\":\"40\""));
        assert!(err.ends_with("non-integer tally `global_loads`"), "{err}");
        let err = decode(line.replace("\"items\":12", "\"items\":1.5"));
        assert!(
            err.ends_with("`counters`: non-integer counter `items`"),
            "{err}"
        );
    }

    mod profile_props {
        use super::*;
        use proptest::prelude::*;

        /// Counts below 2^40 keep every weighted term — and their sum — an
        /// exact integer under the default integer-weight cost model, so
        /// equality assertions below are bit-for-bit, mirroring the PR-5
        /// metrics proptests' 2^53-exactness argument.
        fn tally_strategy() -> impl Strategy<Value = MemTally> {
            proptest::collection::vec(0u64..(1 << 40), 11).prop_map(|v| {
                let mut t = MemTally::new();
                t.register_ops = v[0];
                t.shared_loads = v[1];
                t.shared_stores = v[2];
                t.global_loads = v[3];
                t.global_stores = v[4];
                t.shared_atomics = v[5];
                t.global_atomics = v[6];
                t.warp_primitives = v[7];
                t.coalesce_requests = v[8];
                // ideal <= transactions, as the simulator guarantees.
                t.coalesce_transactions = v[9].max(v[10]);
                t.coalesce_ideal = v[9].min(v[10]);
                t
            })
        }

        proptest! {
            #[test]
            fn components_always_partition_cycles(t in tally_strategy()) {
                let cost = CostModel::default();
                let c = cost.components(&t);
                prop_assert_eq!(c.total(), cost.cycles(&t));
                prop_assert!(c.get("global_coalesced").unwrap() >= 0.0);
                prop_assert!(c.get("global_uncoalesced").unwrap() >= 0.0);
            }

            #[test]
            fn component_addition_is_exact_and_associative(
                a in tally_strategy(),
                b in tally_strategy(),
                c in tally_strategy(),
            ) {
                let cost = CostModel::default();
                let (ca, cb, cc) =
                    (cost.components(&a), cost.components(&b), cost.components(&c));
                prop_assert_eq!((ca + cb) + cc, ca + (cb + cc));
                prop_assert_eq!((ca + cb).total(), ca.total() + cb.total());
            }

            #[test]
            fn merged_tallies_preserve_component_totals(
                a in tally_strategy(),
                b in tally_strategy(),
            ) {
                // Span merging adds tallies and re-derives components: the
                // re-derived breakdown must still partition the merged
                // span's cycles exactly.
                let cost = CostModel::default();
                let merged = a + b;
                prop_assert_eq!(cost.components(&merged).total(), cost.cycles(&merged));
            }

            #[test]
            fn profile_spans_round_trip_through_json(
                t in tally_strategy(),
                zeroed in 0u32..(1 << 14),
                invocations in 0u64..1_000_000,
            ) {
                // Any subset of the fields zero: the sparse codec leaves
                // those out, and the charges derived after the round trip
                // are the writer's, bit for bit.
                let mut t = t;
                for (i, (_, field)) in tally_fields(&mut t).into_iter().enumerate() {
                    if zeroed & (1 << i) != 0 {
                        *field = 0;
                    }
                }
                let mut p = gala_gpu::profile::Profiler::new();
                p.scope("decide", |p| {
                    p.record(&t);
                    p.scope("hash", |p| p.record(&t));
                });
                let mut root = p.finish();
                root.children[0].invocations = invocations;
                let tree = SpanTree {
                    round: 0,
                    superstep: 0,
                    phase: "phase1".into(),
                    backend: "sim".into(),
                    root,
                };
                let line = TraceEvent::Span(tree.clone()).to_json().render();
                for (key, _) in tally_fields(&mut MemTally::new()) {
                    let zero = format!("\"{key}\":0");
                    prop_assert!(
                        !line.contains(&format!("{zero},")) && !line.contains(&format!("{zero}}}")),
                        "{}",
                        line
                    );
                }
                let back = TraceEvent::from_json(&parse(&line).unwrap()).unwrap();
                prop_assert_eq!(&back, &TraceEvent::Span(tree.clone()));
                let TraceEvent::Span(back) = back else { unreachable!() };
                prop_assert_eq!(back.profile(), tree.profile());
            }
        }
    }
}
