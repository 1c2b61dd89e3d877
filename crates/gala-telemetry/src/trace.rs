//! Structured trace events and the sinks that consume them.
//!
//! The Louvain and multi-GPU drivers in `gala-core` emit one
//! [`TraceEvent`] per interesting moment of a run — run start/end, each
//! BSP superstep with its move/prune counts and per-phase memory tallies,
//! and each inter-device synchronisation with the dense-vs-sparse decision
//! and modelled byte volume. Events flow into a [`TraceSink`]:
//!
//! * [`NullSink`] — reports `enabled() == false`, so instrumented code
//!   skips even *building* events; tracing off costs one branch.
//! * [`VecSink`] — buffers events in memory (tests, programmatic use).
//! * [`JsonlSink`] — writes one compact JSON object per line, the format
//!   `gala detect --trace out.jsonl` produces.

use std::io::Write;

use gala_gpu::memory::{ComponentCharges, CostModel, MemTally, COMPONENT_NAMES};
use gala_gpu::profile::SpanRecord;

use crate::json::Value;
use crate::metrics::MetricsRegistry;
use crate::SCHEMA_VERSION;

/// One structured event in a run's trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Emitted once when a driver starts.
    RunStart {
        /// Driver name (`"louvain"`, `"leiden"`, …).
        algorithm: String,
        /// Vertex count of the input graph.
        n: u64,
        /// Edge count of the input graph.
        m: u64,
        /// Number of simulated devices (1 for single-GPU runs).
        devices: u32,
    },
    /// One BSP superstep of Louvain phase 1.
    Superstep {
        /// Coarsening round (phase-1/phase-2 pass) this superstep is in.
        round: u32,
        /// Superstep index within the round, from 0.
        superstep: u32,
        /// Vertices evaluated this superstep.
        active: u64,
        /// Vertices that changed community.
        moved: u64,
        /// Vertices skipped by the pruning strategy.
        pruned: u64,
        /// Vertices evaluated but kept in place.
        unmoved: u64,
        /// Modularity after the superstep's moves were applied.
        modularity: f64,
        /// Modularity gained over the previous superstep.
        delta_q: f64,
        /// Memory traffic of the decide-and-move kernel.
        decide_tally: MemTally,
        /// Memory traffic of the community-weight update.
        weight_tally: MemTally,
        /// Shared-memory hashtable occupancy (fraction of shared buckets
        /// holding a key); 0 for kernels without hashtables.
        hash_occupancy: f64,
        /// Upserts evicted from shared to global hash buckets.
        hash_evictions: u64,
    },
    /// One inter-device synchronisation (multi-GPU runs).
    Sync {
        /// Superstep index the sync follows.
        superstep: u32,
        /// `"dense"` or `"sparse"` — the mode actually used.
        mode: String,
        /// Modelled bytes exchanged per device under that mode.
        bytes: u64,
        /// Modelled communication time in microseconds.
        comm_us: f64,
        /// Devices participating.
        devices: u32,
    },
    /// A profiling span tree for one superstep or phase-2 pass: nested
    /// per-kernel spans (shuffle vs. hash, delta-update, contraction, sync)
    /// with memory tallies — including branch-divergence and
    /// memory-coalescing counters — and free-form named counters.
    Span {
        /// Coarsening round the spans belong to.
        round: u32,
        /// Superstep index within the round (for `"contract"` trees, one
        /// past the round's last superstep).
        superstep: u32,
        /// Which driver phase produced the tree (`"phase1"`, `"contract"`).
        phase: String,
        /// Root of the span tree; its children are the phase's top-level
        /// spans (`classify`, `decide`, `apply`, …).
        root: SpanRecord,
    },
    /// Per-span cost attribution for one phase: every span of the phase's
    /// tree flattened to a slash-joined path with its *self* charge
    /// decomposed into [`ComponentCharges`]. Sim backends charge components
    /// from the span's [`MemTally`] (unit `"cycles"`, summing exactly to
    /// the span's `self_cycles`); native backends charge wall time (unit
    /// `"ns"`, one bucket per span). Schema 4+.
    Profile {
        /// Coarsening round the spans belong to.
        round: u32,
        /// Superstep index within the round (for `"contract"` trees, one
        /// past the round's last superstep).
        superstep: u32,
        /// Which driver phase produced the tree (`"phase1"`, `"contract"`).
        phase: String,
        /// Backend that executed the phase (`"sim"`, `"native"`, `"host"`).
        backend: String,
        /// Unit of `total` and every component: `"cycles"` or `"ns"`.
        unit: String,
        /// Flattened span rows, pre-order.
        spans: Vec<ProfileSpan>,
    },
    /// An algorithm-level metrics snapshot: a [`MetricsRegistry`] of
    /// counters, gauges and log2 histograms covering quantities the span
    /// and superstep events cannot — pruning-audit results, kernel
    /// routing splits with degree distributions, hashtable level
    /// statistics, dense/sparse sync traffic. Schema 3+.
    Metrics {
        /// Coarsening round the snapshot covers (0 for whole-run scopes).
        round: u32,
        /// What the snapshot aggregates over (`"phase1"`, `"sync"`).
        scope: String,
        /// The recorded metrics.
        registry: MetricsRegistry,
    },
    /// End of one coarsening round.
    RoundEnd {
        /// Round index, from 0.
        round: u32,
        /// Supersteps the round took.
        supersteps: u32,
        /// Modularity at the end of the round.
        modularity: f64,
        /// Communities remaining after aggregation.
        communities: u64,
    },
    /// Emitted once when a driver finishes.
    RunEnd {
        /// Final modularity.
        modularity: f64,
        /// Coarsening rounds executed.
        rounds: u32,
        /// Total simulated cycles across all phases.
        total_cycles: f64,
    },
    /// One structured flight-recorder log line, drained from the
    /// recorder's ring (see `crate::recorder`). Schema 5+.
    Log {
        /// Monotonic sequence number assigned by the ring.
        seq: u64,
        /// Microseconds since the recorder was initialised.
        elapsed_us: u64,
        /// Severity (`"error"`, `"warn"`, `"info"`, `"debug"`).
        level: String,
        /// Component that produced the line.
        scope: String,
        /// Human-readable message.
        message: String,
        /// Structured numeric payload, in insertion order.
        fields: Vec<(String, f64)>,
    },
    /// A bounded-frequency progress snapshot from a live driver: where the
    /// run is right now, cheap enough to stream while it executes. Schema
    /// 5+.
    Progress {
        /// Driver name (`"louvain"`, `"leiden"`, `"stream"`, …).
        driver: String,
        /// Coarsening round (or chunk index for ingestion).
        round: u32,
        /// Phase within the round (`"phase1"`, `"contract"`, `"ingest"`).
        phase: String,
        /// Superstep within the phase, from 0.
        superstep: u32,
        /// Modularity at snapshot time (0 when not yet defined).
        modularity: f64,
        /// Fraction of vertices still active (0 when not applicable).
        active_frac: f64,
        /// Fraction of evaluated vertices that moved this superstep.
        moved_frac: f64,
        /// Arcs processed so far in this phase.
        arcs: u64,
        /// Resident set size at snapshot time; 0 when no probe exists.
        rss_bytes: u64,
    },
}

/// One span's row inside a [`TraceEvent::Profile`]: its position in the
/// tree as a slash-joined path plus its *self* charge (children excluded)
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

/// Flattens a sim span tree into [`ProfileSpan`] rows, charging each
/// span's own [`MemTally`] through `cost`. With the default integer-weight
/// [`CostModel`] every row's `total` equals the span's `self_cycles()`
/// bit-for-bit.
pub fn profile_spans(root: &SpanRecord, cost: &CostModel) -> Vec<ProfileSpan> {
    let mut out = Vec::new();
    for child in &root.children {
        collect_profile(child, "", &mut out, &|span| span.components(cost));
    }
    out
}

/// Flattens a native span tree into [`ProfileSpan`] rows, charging each
/// span's `elapsed_ns` counter as wall time (`sync` spans charge the sync
/// component, everything else compute).
pub fn profile_spans_wall(root: &SpanRecord) -> Vec<ProfileSpan> {
    let mut out = Vec::new();
    for child in &root.children {
        collect_profile(child, "", &mut out, &|span| span.components_wall());
    }
    out
}

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

/// Serialises [`ComponentCharges`] as a flat JSON object, one key per
/// component in [`COMPONENT_NAMES`] order.
pub fn components_to_json(c: &ComponentCharges) -> Value {
    COMPONENT_NAMES
        .into_iter()
        .fold(Value::object(), |v, name| {
            v.set(name, c.get(name).unwrap_or(0.0))
        })
}

/// Parses [`ComponentCharges`] back from the object [`components_to_json`]
/// writes. Returns `None` when any component is missing or non-numeric.
pub fn components_from_json(v: &Value) -> Option<ComponentCharges> {
    let mut c = ComponentCharges::default();
    for name in COMPONENT_NAMES {
        c.set(name, v.get(name)?.as_f64()?);
    }
    Some(c)
}

/// Serialises one [`ProfileSpan`] row.
pub fn profile_span_to_json(span: &ProfileSpan) -> Value {
    Value::object()
        .set("path", span.path.as_str())
        .set("invocations", span.invocations)
        .set("total", span.total)
        .set("components", components_to_json(&span.components))
}

/// Parses a [`ProfileSpan`] back from the object [`profile_span_to_json`]
/// writes. Returns `None` on any structural mismatch.
pub fn profile_span_from_json(v: &Value) -> Option<ProfileSpan> {
    Some(ProfileSpan {
        path: v.get("path")?.as_str()?.to_string(),
        invocations: v.get("invocations")?.as_u64()?,
        total: v.get("total")?.as_f64()?,
        components: components_from_json(v.get("components")?)?,
    })
}

/// Serialises a [`MemTally`] as a flat JSON object.
pub fn tally_to_json(t: &MemTally) -> Value {
    Value::object()
        .set("register_ops", t.register_ops)
        .set("shared_loads", t.shared_loads)
        .set("shared_stores", t.shared_stores)
        .set("global_loads", t.global_loads)
        .set("global_stores", t.global_stores)
        .set("shared_atomics", t.shared_atomics)
        .set("global_atomics", t.global_atomics)
        .set("warp_primitives", t.warp_primitives)
        .set("simt_steps", t.simt_steps)
        .set("simt_active_lanes", t.simt_active_lanes)
        .set("simt_serialized", t.simt_serialized)
        .set("coalesce_requests", t.coalesce_requests)
        .set("coalesce_transactions", t.coalesce_transactions)
        .set("coalesce_ideal", t.coalesce_ideal)
}

/// Parses a [`MemTally`] back from the object [`tally_to_json`] writes.
/// Returns `None` when any field is missing or non-numeric.
pub fn tally_from_json(v: &Value) -> Option<MemTally> {
    let f = |key: &str| v.get(key)?.as_u64();
    Some(MemTally {
        register_ops: f("register_ops")?,
        shared_loads: f("shared_loads")?,
        shared_stores: f("shared_stores")?,
        global_loads: f("global_loads")?,
        global_stores: f("global_stores")?,
        shared_atomics: f("shared_atomics")?,
        global_atomics: f("global_atomics")?,
        warp_primitives: f("warp_primitives")?,
        simt_steps: f("simt_steps")?,
        simt_active_lanes: f("simt_active_lanes")?,
        simt_serialized: f("simt_serialized")?,
        coalesce_requests: f("coalesce_requests")?,
        coalesce_transactions: f("coalesce_transactions")?,
        coalesce_ideal: f("coalesce_ideal")?,
    })
}

/// Parses a [`SpanRecord`] tree back from the object [`span_to_json`]
/// writes. Returns `None` on any structural mismatch.
pub fn span_from_json(v: &Value) -> Option<SpanRecord> {
    let counters = v
        .get("counters")?
        .as_object()?
        .iter()
        .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
        .collect::<Option<_>>()?;
    let children = v
        .get("children")?
        .as_array()?
        .iter()
        .map(span_from_json)
        .collect::<Option<_>>()?;
    Some(SpanRecord {
        name: v.get("name")?.as_str()?.to_string(),
        invocations: v.get("invocations")?.as_u64()?,
        tally: tally_from_json(v.get("tally")?)?,
        counters,
        children,
    })
}

/// Serialises a profiling span tree ([`SpanRecord`]) recursively.
pub fn span_to_json(span: &SpanRecord) -> Value {
    let counters = span
        .counters
        .iter()
        .fold(Value::object(), |v, (k, n)| v.set(k, *n));
    Value::object()
        .set("name", span.name.as_str())
        .set("invocations", span.invocations)
        .set("tally", tally_to_json(&span.tally))
        .set("counters", counters)
        .set(
            "children",
            Value::Array(span.children.iter().map(span_to_json).collect()),
        )
}

impl TraceEvent {
    /// The event's `"event"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::Superstep { .. } => "superstep",
            TraceEvent::Sync { .. } => "sync",
            TraceEvent::Span { .. } => "span",
            TraceEvent::Profile { .. } => "profile",
            TraceEvent::Metrics { .. } => "metrics",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::Log { .. } => "log",
            TraceEvent::Progress { .. } => "progress",
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
            TraceEvent::RunStart {
                algorithm,
                n,
                m,
                devices,
            } => base
                .set("algorithm", algorithm.as_str())
                .set("n", *n)
                .set("m", *m)
                .set("devices", *devices),
            TraceEvent::Superstep {
                round,
                superstep,
                active,
                moved,
                pruned,
                unmoved,
                modularity,
                delta_q,
                decide_tally,
                weight_tally,
                hash_occupancy,
                hash_evictions,
            } => base
                .set("round", *round)
                .set("superstep", *superstep)
                .set("active", *active)
                .set("moved", *moved)
                .set("pruned", *pruned)
                .set("unmoved", *unmoved)
                .set("modularity", *modularity)
                .set("delta_q", *delta_q)
                .set("decide_tally", tally_to_json(decide_tally))
                .set("weight_tally", tally_to_json(weight_tally))
                .set("hash_occupancy", *hash_occupancy)
                .set("hash_evictions", *hash_evictions),
            TraceEvent::Sync {
                superstep,
                mode,
                bytes,
                comm_us,
                devices,
            } => base
                .set("superstep", *superstep)
                .set("mode", mode.as_str())
                .set("bytes", *bytes)
                .set("comm_us", *comm_us)
                .set("devices", *devices),
            TraceEvent::Span {
                round,
                superstep,
                phase,
                root,
            } => base
                .set("round", *round)
                .set("superstep", *superstep)
                .set("phase", phase.as_str())
                .set("root", span_to_json(root)),
            TraceEvent::Profile {
                round,
                superstep,
                phase,
                backend,
                unit,
                spans,
            } => base
                .set("round", *round)
                .set("superstep", *superstep)
                .set("phase", phase.as_str())
                .set("backend", backend.as_str())
                .set("unit", unit.as_str())
                .set(
                    "spans",
                    Value::Array(spans.iter().map(profile_span_to_json).collect()),
                ),
            TraceEvent::Metrics {
                round,
                scope,
                registry,
            } => base
                .set("round", *round)
                .set("scope", scope.as_str())
                .set("registry", registry.to_json()),
            TraceEvent::RoundEnd {
                round,
                supersteps,
                modularity,
                communities,
            } => base
                .set("round", *round)
                .set("supersteps", *supersteps)
                .set("modularity", *modularity)
                .set("communities", *communities),
            TraceEvent::RunEnd {
                modularity,
                rounds,
                total_cycles,
            } => base
                .set("modularity", *modularity)
                .set("rounds", *rounds)
                .set("total_cycles", *total_cycles),
            TraceEvent::Log {
                seq,
                elapsed_us,
                level,
                scope,
                message,
                fields,
            } => base
                .set("seq", *seq)
                .set("elapsed_us", *elapsed_us)
                .set("level", level.as_str())
                .set("scope", scope.as_str())
                .set("message", message.as_str())
                .set(
                    "fields",
                    fields
                        .iter()
                        .fold(Value::object(), |v, (k, n)| v.set(k, *n)),
                ),
            TraceEvent::Progress {
                driver,
                round,
                phase,
                superstep,
                modularity,
                active_frac,
                moved_frac,
                arcs,
                rss_bytes,
            } => base
                .set("driver", driver.as_str())
                .set("round", *round)
                .set("phase", phase.as_str())
                .set("superstep", *superstep)
                .set("modularity", *modularity)
                .set("active_frac", *active_frac)
                .set("moved_frac", *moved_frac)
                .set("arcs", *arcs)
                .set("rss_bytes", *rss_bytes),
        }
    }
}

/// Consumer of [`TraceEvent`]s.
///
/// Instrumented code must gate on [`TraceSink::enabled`] before
/// constructing events:
///
/// ```ignore
/// if sink.enabled() {
///     sink.emit(TraceEvent::RunEnd { .. });
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
        TraceEvent::Superstep {
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
        }
    }

    #[test]
    fn jsonl_lines_round_trip_through_own_parser() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(TraceEvent::RunStart {
            algorithm: "louvain".into(),
            n: 34,
            m: 78,
            devices: 1,
        });
        sink.emit(sample_superstep());
        sink.emit(TraceEvent::RunEnd {
            modularity: 0.42,
            rounds: 3,
            total_cycles: 123456.0,
        });
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
        let event = TraceEvent::Span {
            round: 1,
            superstep: 7,
            phase: "phase1".into(),
            root: p.finish(),
        };
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(event.clone());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = parse(text.trim()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("round").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("superstep").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("phase").unwrap().as_str(), Some("phase1"));
        let root = span_from_json(v.get("root").unwrap()).unwrap();
        let TraceEvent::Span { root: original, .. } = event else {
            unreachable!()
        };
        assert_eq!(root, original);
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
    fn tally_from_json_rejects_missing_fields() {
        let v = Value::object().set("register_ops", 1u64);
        assert!(tally_from_json(&v).is_none());
    }

    #[test]
    fn metrics_event_round_trips_through_jsonl() {
        let mut r = MetricsRegistry::new();
        r.inc("pruning/pruned", 42);
        r.gauge("phase1/moved_fraction", 0.5);
        r.observe("kernel/shuffle_degree", 12);
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(TraceEvent::Metrics {
            round: 2,
            scope: "phase1".into(),
            registry: r.clone(),
        });
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
        sink.emit(TraceEvent::RunEnd {
            modularity: 0.1,
            rounds: 1,
            total_cycles: 1.0,
        });
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

    #[test]
    fn profile_rows_flatten_paths_and_sum_to_self_cycles() {
        let tree = sample_tree();
        let cost = CostModel::default();
        let rows = profile_spans(&tree, &cost);
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
        let rows = profile_spans_wall(&sample_tree());
        let sync = rows.iter().find(|r| r.path == "superstep/sync").unwrap();
        assert_eq!(sync.components.sync, 450.0);
        assert_eq!(sync.components.compute, 0.0);
        assert_eq!(sync.total, 450.0);
        let decide = rows.iter().find(|r| r.path == "superstep/decide").unwrap();
        assert_eq!(decide.total, 0.0, "no elapsed_ns counter, no charge");
    }

    #[test]
    fn profile_event_round_trips_through_jsonl() {
        let event = TraceEvent::Profile {
            round: 2,
            superstep: 5,
            phase: "phase1".into(),
            backend: "sim".into(),
            unit: "cycles".into(),
            spans: profile_spans(&sample_tree(), &CostModel::default()),
        };
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(event.clone());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = parse(text.trim()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("profile"));
        assert_eq!(
            v.get("schema").unwrap().as_u64(),
            Some(SCHEMA_VERSION),
            "profile events are schema 4+"
        );
        assert_eq!(v.get("backend").unwrap().as_str(), Some("sim"));
        assert_eq!(v.get("unit").unwrap().as_str(), Some("cycles"));
        let spans: Vec<ProfileSpan> = v
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| profile_span_from_json(s).unwrap())
            .collect();
        let TraceEvent::Profile {
            spans: original, ..
        } = event
        else {
            unreachable!()
        };
        assert_eq!(spans, original);
    }

    #[test]
    fn profile_span_from_json_rejects_missing_components() {
        let mut row = profile_span_to_json(&ProfileSpan {
            path: "decide".into(),
            invocations: 1,
            total: 0.0,
            components: ComponentCharges::default(),
        });
        assert!(profile_span_from_json(&row).is_some());
        row = row.set("components", Value::object().set("compute", 1.0));
        assert!(profile_span_from_json(&row).is_none());
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
                segs in proptest::collection::vec(0usize..4, 1..4),
                invocations in 0u64..1_000_000,
            ) {
                let names = ["decide", "hash", "contract", "sync"];
                let path = segs
                    .iter()
                    .map(|&i| names[i])
                    .collect::<Vec<_>>()
                    .join("/");
                let span = ProfileSpan {
                    path,
                    invocations,
                    total: CostModel::default().components(&t).total(),
                    components: CostModel::default().components(&t),
                };
                let rendered = profile_span_to_json(&span).render();
                let back = profile_span_from_json(&parse(&rendered).unwrap()).unwrap();
                prop_assert_eq!(back, span);
            }
        }
    }
}
