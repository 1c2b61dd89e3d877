//! One observer for every driver: the trace sink, the run-level profiler,
//! the per-round metrics registry and the live progress reporter, behind a
//! single enabled-check.
//!
//! Each driver has a plain entry point (`Louvain::run`, `leiden`, …) that
//! observes nothing, and one observed entry point (`Louvain::run_with`,
//! `leiden_with`, …) taking an [`Obs`]:
//!
//! ```
//! use gala_core::louvain::{Louvain, LouvainConfig};
//! use gala_core::observe::Obs;
//! use gala_graph::generators::fixtures;
//! use gala_telemetry::VecSink;
//!
//! let g = fixtures::two_cliques(6);
//! let mut sink = VecSink::default();
//! let mut obs = Obs::traced(&mut sink).profiled();
//! let result = Louvain::new(LouvainConfig::default()).run_with(&g, &mut obs);
//! let tree = obs.finish();
//! assert!(tree.child("round").is_some());
//! assert_eq!(sink.events.last().unwrap().kind(), "run_end");
//! assert_eq!(result.partition.num_communities(), 2);
//! ```
//!
//! The drivers hand all observation bookkeeping to the observer: the
//! `run_start`/`run_end` bracket, per-superstep sub-profilers and their
//! `span`/`profile` events, `superstep` events with watchdog heartbeats and
//! live snapshots, and the per-round `metrics`, `round_end` and `progress`
//! events.
//!
//! Two consumers with different needs hang off the progress snapshots:
//!
//! * the flight [`recorder`] wants *live* observation — bounded-frequency
//!   snapshots forwarded to the status-line callback, plus watchdog
//!   heartbeats — and tolerates wall-clock-dependent cadence
//!   because nothing it does feeds back into the run;
//! * the [`TraceSink`] wants *deterministic* content — the set of emitted
//!   events must not depend on how fast the host happens to be — so it only
//!   receives the per-round snapshots.
//!
//! Observation is host-side only: assignments, modularity and simulated
//! cycle totals are bit-for-bit identical with any part of it on or off.

use crate::backend::{profile_event, BackendKind};
use gala_gpu::profile::{Profiler, SpanRecord};
use gala_graph::Graph;
use gala_telemetry::recorder::{self, ProgressLimiter, ProgressSnapshot};
use gala_telemetry::{
    MetricsRegistry, MetricsSnapshot, RoundEnd, RunEnd, RunStart, SpanTree, TraceEvent, TraceSink,
};

/// A run's observer. Construct it with [`Obs::off`] or [`Obs::traced`]
/// (plus [`Obs::profiled`] for the run-level span tree) right before the
/// run: construction samples the flight recorder's global switches, so
/// steady-state supersteps cost a few branch checks when everything is off.
pub struct Obs<'a> {
    /// The trace sink, kept only when it is enabled.
    sink: Option<&'a mut dyn TraceSink>,
    /// The run-level profiler (disabled unless [`Obs::profiled`]).
    prof: Profiler,
    /// The open phase-1 round's registry; only ever built when tracing.
    metrics: Option<MetricsRegistry>,
    /// Driver name stamped on progress snapshots and heartbeats.
    driver: &'static str,
    limiter: ProgressLimiter,
    /// Whether snapshots reach the flight recorder.
    live: bool,
    /// Whether supersteps beat the stall watchdog.
    watchdog: bool,
    /// The last superstep's counts, arcs accumulated over the open round.
    step: Counts,
}

impl<'a> Obs<'a> {
    /// Observes nothing but the flight recorder's live switches.
    pub fn off() -> Self {
        Self {
            sink: None,
            prof: Profiler::disabled(),
            metrics: None,
            driver: "",
            limiter: ProgressLimiter::default_cadence(),
            live: recorder::progress_active(),
            watchdog: recorder::watchdog_armed(),
            step: Counts::default(),
        }
    }

    /// Sends the run's event stream to `sink` (a disabled sink is dropped,
    /// so it never sees an event).
    pub fn traced(sink: &'a mut dyn TraceSink) -> Self {
        Self {
            sink: sink.enabled().then_some(sink),
            ..Self::off()
        }
    }

    /// Also accumulates the run-level span tree: one `round` span per
    /// hierarchy round holding the merged `superstep` trees and the
    /// phase-2 spans. Read it back with [`Obs::finish`].
    pub fn profiled(mut self) -> Self {
        self.prof = Profiler::new();
        self
    }

    /// The run-level span tree (an empty root unless [`Obs::profiled`]).
    pub fn finish(self) -> SpanRecord {
        self.prof.finish()
    }

    /// Names the driver on progress snapshots outside a `run_start`
    /// bracket.
    pub(crate) fn driver(mut self, driver: &'static str) -> Self {
        self.driver = driver;
        self
    }

    /// Whether a sub-profiler should record: the sink or the run-level
    /// profiler wants span trees.
    pub(crate) fn instrumented(&self) -> bool {
        self.sink.is_some() || self.prof.is_enabled()
    }

    /// Whether anything will read a modularity: the sink, or the live
    /// recorder's snapshots. Drivers that compute Q only for observation
    /// skip it otherwise.
    pub(crate) fn observed(&self) -> bool {
        self.sink.is_some() || self.live
    }

    /// Emits the event `event` builds, building it only when tracing.
    pub(crate) fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(event());
        }
    }

    /// Opens the run: names the driver and emits `run_start`.
    pub(crate) fn run_start(&mut self, driver: &'static str, graph: &Graph, devices: usize) {
        self.driver = driver;
        self.emit(|| {
            TraceEvent::RunStart(RunStart {
                algorithm: driver.to_string(),
                n: graph.num_vertices() as u64,
                m: graph.num_edges() as u64,
                devices: devices as u32,
            })
        });
    }

    /// Closes the run with `run_end`.
    pub(crate) fn run_end(&mut self, modularity: f64, rounds: usize, total_cycles: f64) {
        self.emit(|| {
            TraceEvent::RunEnd(RunEnd {
                modularity,
                rounds: rounds as u32,
                total_cycles,
            })
        });
    }

    /// Opens a `round` span in the run-level profile.
    pub(crate) fn enter_round(&mut self) {
        self.prof.enter("round");
    }

    /// Closes the open `round` span.
    pub(crate) fn exit_round(&mut self) {
        self.prof.exit();
    }

    /// A fresh sub-profiler for one superstep or phase-2 pass, enabled only
    /// when observation is on. Hand it back through [`Obs::span`].
    pub(crate) fn sub(&self) -> Profiler {
        if self.instrumented() {
            Profiler::new()
        } else {
            Profiler::disabled()
        }
    }

    /// Finishes `sub`, emits its tree as a `span` event plus the `profile`
    /// companion in `backend`'s unit (`None`: host wall time), and files it
    /// in the run-level profile. Phase-1 trees merge under a `superstep`
    /// span — a host pass that timed itself as one `superstep` already is
    /// one — and phase-2 trees go straight into the open `round` span.
    pub(crate) fn span(
        &mut self,
        round: u32,
        superstep: u32,
        phase: &str,
        backend: Option<BackendKind>,
        sub: Profiler,
    ) {
        if !sub.is_enabled() {
            return;
        }
        let tree = sub.finish();
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Span(SpanTree {
                round,
                superstep,
                phase: phase.to_string(),
                root: tree.clone(),
            }));
            sink.emit(profile_event(backend, round, superstep, phase, &tree));
        }
        if phase == "phase1" && tree.child("superstep").is_none() {
            self.prof.scope("superstep", |p| p.absorb(tree));
        } else {
            self.prof.absorb(tree);
        }
    }

    /// The open phase-1 round's metrics registry, built on first use;
    /// `None` unless tracing.
    pub(crate) fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.sink.as_ref()?;
        Some(self.metrics.get_or_insert_default())
    }

    /// Per-superstep bookkeeping: emits the driver's superstep `events`
    /// (built only when tracing), advances the arcs-done estimate (each
    /// superstep sweeps the active vertices' arcs, so the graph's arc count
    /// scales by the active fraction), beats the watchdog and forwards a
    /// rate-limited live snapshot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn superstep<E: IntoIterator<Item = TraceEvent>>(
        &mut self,
        graph: &Graph,
        round: u32,
        superstep: u32,
        active: usize,
        moved: usize,
        q: f64,
        events: impl FnOnce() -> E,
    ) {
        if let Some(sink) = self.sink.as_deref_mut() {
            events().into_iter().for_each(|e| sink.emit(e));
        }
        let n = graph.num_vertices();
        let arcs = self.step.arcs
            + if n == 0 {
                0
            } else {
                (graph.num_arcs() as u64).saturating_mul(active as u64) / n as u64
            };
        self.step = Counts::from_counts(active, moved, n, arcs);
        self.beat(round, "phase1", superstep, q, self.step);
    }

    /// Closes a phase-1 round: emits its `metrics` event (after `finish`
    /// derives the round-level gauges) and its `progress` event carrying
    /// the last superstep's counts, then resets the arcs-done estimate.
    pub(crate) fn phase1_end(
        &mut self,
        round: u32,
        supersteps: usize,
        q: f64,
        scope: &str,
        finish: impl FnOnce(&mut MetricsRegistry),
    ) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let mut registry = self.metrics.take().unwrap_or_default();
            finish(&mut registry);
            sink.emit(TraceEvent::Metrics(MetricsSnapshot {
                round,
                scope: scope.to_string(),
                registry,
            }));
        }
        let step = std::mem::take(&mut self.step);
        self.send_round(round, "phase1", supersteps as u32, q, step);
    }

    /// Closes a hierarchy round with `round_end` and a `progress` event at
    /// `phase`, reporting the next level's `arcs`. The round's modularity
    /// `q` is computed only when the sink or the live recorder will see it.
    /// Also resets the arcs-done estimate, for drivers whose phase 1 has
    /// no [`Obs::phase1_end`] (sequential Louvain, Leiden).
    pub(crate) fn round_end(
        &mut self,
        round: u32,
        phase: &str,
        supersteps: usize,
        communities: usize,
        arcs: usize,
        q: impl FnOnce() -> f64,
    ) {
        self.step = Counts::default();
        if !self.observed() {
            return;
        }
        let q = q();
        self.emit(|| {
            TraceEvent::RoundEnd(RoundEnd {
                round,
                supersteps: supersteps as u32,
                modularity: q,
                communities: communities as u64,
            })
        });
        self.round_progress(round, phase, supersteps, q, arcs);
    }

    /// A round-level `progress` event at `phase` reporting `arcs`.
    pub(crate) fn round_progress(
        &mut self,
        round: u32,
        phase: &str,
        superstep: usize,
        q: f64,
        arcs: usize,
    ) {
        let counts = Counts {
            arcs: arcs as u64,
            ..Counts::default()
        };
        self.send_round(round, phase, superstep as u32, q, counts);
    }

    /// Live-only observation of a step outside phase 1 (one device's share
    /// of a partitioned contraction): beats the watchdog and forwards a
    /// rate-limited snapshot reporting `arcs` built so far.
    pub(crate) fn heartbeat(&mut self, phase: &str, step: u32, arcs: u64) {
        let counts = Counts {
            arcs,
            ..Counts::default()
        };
        self.beat(0, phase, step, 0.0, counts);
    }

    fn snap(&self, round: u32, phase: &str, superstep: u32, q: f64, c: Counts) -> ProgressSnapshot {
        ProgressSnapshot {
            driver: self.driver.to_string(),
            round,
            phase: phase.to_string(),
            superstep,
            modularity: q,
            active_frac: c.active_frac,
            moved_frac: c.moved_frac,
            arcs: c.arcs,
            rss_bytes: gala_telemetry::mem::rss_bytes().unwrap_or(0),
        }
    }

    /// Beats the watchdog (every call) and forwards a snapshot to the
    /// recorder at most once per cadence. Never reaches the trace sink:
    /// superstep-granularity snapshots are rate limited by wall clock and
    /// would make trace content timing-dependent.
    fn beat(&mut self, round: u32, phase: &str, superstep: u32, q: f64, c: Counts) {
        if self.watchdog {
            recorder::heartbeat(&format!("{}/{phase} r{round} s{superstep}", self.driver));
        }
        if self.live && self.limiter.ready() {
            recorder::observe_progress(&self.snap(round, phase, superstep, q, c));
        }
    }

    /// A deterministic `progress` trace event when tracing, always
    /// forwarded to the recorder when live: round boundaries bypass the
    /// rate limiter so they are never dropped.
    fn send_round(&mut self, round: u32, phase: &str, superstep: u32, q: f64, c: Counts) {
        if !self.observed() {
            return;
        }
        let snap = self.snap(round, phase, superstep, q, c);
        if self.live {
            recorder::observe_progress(&snap);
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Progress(snap));
        }
    }
}

/// The work counters carried by a snapshot: fractions in `0..=1`, arcs
/// processed so far in the phase.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    active_frac: f64,
    moved_frac: f64,
    arcs: u64,
}

impl Counts {
    /// Builds the fractions from raw vertex counts (0 when `n == 0`).
    fn from_counts(active: usize, moved: usize, n: usize, arcs: u64) -> Self {
        let frac = |num: usize| {
            if n == 0 {
                0.0
            } else {
                num as f64 / n as f64
            }
        };
        Self {
            active_frac: frac(active),
            moved_frac: frac(moved),
            arcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_telemetry::{NullSink, VecSink};

    #[test]
    fn counts_fractions_are_safe_on_empty_graphs() {
        let c = Counts::from_counts(0, 0, 0, 0);
        assert_eq!(c.active_frac, 0.0);
        assert_eq!(c.moved_frac, 0.0);
        let c = Counts::from_counts(3, 1, 4, 10);
        assert!((c.active_frac - 0.75).abs() < 1e-12);
        assert!((c.moved_frac - 0.25).abs() < 1e-12);
        assert_eq!(c.arcs, 10);
    }

    #[test]
    fn round_progress_emits_one_progress_event_to_an_enabled_sink() {
        let mut sink = VecSink::default();
        let mut obs = Obs::traced(&mut sink).driver("test-driver");
        obs.round_progress(2, "contract", 7, 0.5, 99);
        drop(obs);
        assert_eq!(sink.events.len(), 1);
        match &sink.events[0] {
            TraceEvent::Progress(ProgressSnapshot {
                driver,
                round,
                phase,
                superstep,
                modularity,
                arcs,
                ..
            }) => {
                assert_eq!(driver, "test-driver");
                assert_eq!(*round, 2);
                assert_eq!(phase, "contract");
                assert_eq!(*superstep, 7);
                assert_eq!(*modularity, 0.5);
                assert_eq!(*arcs, 99);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn disabled_sink_and_inactive_recorder_emit_nothing() {
        // NullSink::emit debug-asserts if called, so this proves the gate.
        let g = gala_graph::generators::fixtures::two_cliques(3);
        let mut sink = NullSink;
        let mut obs = Obs::traced(&mut sink);
        assert!(!obs.instrumented());
        assert!(obs.metrics().is_none());
        obs.superstep(&g, 0, 0, 6, 2, 0.0, || -> Option<TraceEvent> {
            panic!("events built while off")
        });
        obs.phase1_end(0, 1, 0.0, "phase1", |_| panic!("metrics built while off"));
        obs.round_end(0, "contract", 1, 2, 4, || panic!("q computed while off"));
        obs.heartbeat("aggregate", 0, 0);
    }
}
