//! The in-process flight recorder: leveled structured logging into a
//! fixed-capacity ring, bounded-frequency progress snapshots, a stall
//! watchdog, and crash forensics.
//!
//! Everything the post-hoc layers (`trace`, `metrics`, `report`) capture is
//! only inspectable after a run finishes; the recorder is the *live* side
//! of observability:
//!
//! * [`log`] appends a leveled [`LogEvent`] to a global drop-oldest
//!   [`Ring`] behind a branch-cheap [`enabled`] check driven by the
//!   `GALA_LOG` environment variable (`error|warn|info|debug`, optionally
//!   per scope: `GALA_LOG=warn,stream=debug`). When `GALA_LOG` is unset
//!   every call site costs one relaxed atomic load.
//! * [`observe_progress`] fans a [`ProgressSnapshot`] out to an optional
//!   live callback (the CLI's `--progress` status line), the ring, and the
//!   watchdog. Drivers gate snapshot construction on [`progress_active`]
//!   and bound their emission frequency with a [`ProgressLimiter`].
//! * [`arm_watchdog`] starts a monitor thread that flags a run whose
//!   heartbeats stop arriving before a deadline, recording the last-known
//!   span stack. The deadline logic lives in the clock-injectable
//!   [`WatchdogCore`] so tests need no real threads or sleeps.
//! * [`install_panic_hook`] drains the ring into a `crash-<pid>.json` dump
//!   carrying a provenance [`Manifest`]; [`validate_crash_dump`] is the
//!   shared validator behind both `gala analyze --check` and the
//!   `bench_recorder` gate.
//!
//! Log and progress data leave the process as schema-5 `log` / `progress`
//! [`TraceEvent`]s, so every existing JSONL consumer reads them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::trace::{TraceEvent, TraceSink};
use crate::{check_schema, SCHEMA_VERSION};

/// Severity of a [`LogEvent`], ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A failure the run cannot recover from silently.
    Error,
    /// A degraded condition the run works around.
    Warn,
    /// Coarse lifecycle milestones (default for `--progress` runs).
    Info,
    /// High-frequency detail (per-superstep heartbeats).
    Debug,
}

impl Level {
    /// The canonical lowercase name (`"error"`, `"warn"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    #[cfg(test)]
    fn from_rank(rank: u8) -> Option<Self> {
        match rank {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            _ => None,
        }
    }

    /// Rank used by the global max-level atomic: 0 is "off", higher ranks
    /// admit more detail.
    fn rank(self) -> u8 {
        match self {
            Level::Error => 1,
            Level::Warn => 2,
            Level::Info => 3,
            Level::Debug => 4,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log line in the flight-recorder ring; in a trace, the
/// payload of [`TraceEvent::Log`].
#[derive(Clone, Debug, PartialEq)]
pub struct LogEvent {
    /// Monotonic sequence number, assigned at append time and never
    /// reused: `seq` minus the ring's drop counter is the event's position
    /// in the surviving window.
    pub seq: u64,
    /// Microseconds since the recorder was initialised.
    pub elapsed_us: u64,
    /// Severity.
    pub level: Level,
    /// Component that produced the line (`"louvain"`, `"stream"`, …).
    pub scope: String,
    /// Human-readable message.
    pub message: String,
    /// Structured numeric payload, in insertion order.
    pub fields: Vec<(String, f64)>,
}

/// A bounded-frequency view of where a driver is right now; in a trace,
/// the payload of [`TraceEvent::Progress`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Driver name (`"louvain"`, `"leiden"`, `"stream"`, …).
    pub driver: String,
    /// Coarsening round (or chunk index for ingestion).
    pub round: u32,
    /// Phase within the round (`"phase1"`, `"contract"`, `"ingest"`, …).
    pub phase: String,
    /// Superstep within the phase, from 0.
    pub superstep: u32,
    /// Modularity at snapshot time (0 when not yet defined).
    pub modularity: f64,
    /// Fraction of vertices still active (0 when not applicable).
    pub active_frac: f64,
    /// Fraction of evaluated vertices that moved (0 when not applicable).
    pub moved_frac: f64,
    /// Arcs processed so far in this phase.
    pub arcs: u64,
    /// Resident set size at snapshot time; 0 when no probe is available.
    pub rss_bytes: u64,
}

impl ProgressSnapshot {
    /// One-line human rendering for status lines and heartbeat logs.
    pub fn render_line(&self) -> String {
        let rss = if self.rss_bytes > 0 {
            format!(", rss {:.0} MiB", crate::mem::mib(self.rss_bytes))
        } else {
            String::new()
        };
        format!(
            "{} r{} {} s{}: Q={:.5}, active {:.1}%, moved {:.1}%, {} arcs{rss}",
            self.driver,
            self.round,
            self.phase,
            self.superstep,
            self.modularity,
            self.active_frac * 100.0,
            self.moved_frac * 100.0,
            self.arcs,
        )
    }
}

/// Fixed-capacity drop-oldest buffer of [`LogEvent`]s with a monotonic
/// sequence counter and a drop counter, so consumers can tell exactly how
/// many lines the window lost.
#[derive(Debug)]
pub struct Ring {
    capacity: usize,
    buf: VecDeque<LogEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends one event, assigning its `seq` and evicting the oldest
    /// event when full. Returns the assigned sequence number.
    pub fn push(&mut self, mut event: LogEvent) -> u64 {
        let seq = self.next_seq;
        event.seq = seq;
        self.next_seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
        seq
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &LogEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far. The oldest surviving event's `seq` equals
    /// this counter.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns every held event, oldest first. The sequence
    /// counter keeps running, and the drop counter advances past the
    /// drained events — they have left the window — so the invariant
    /// "the oldest surviving seq equals [`Ring::dropped`]" keeps holding
    /// for later pushes. Crash-dump validation relies on it: a panic after
    /// an earlier drain must still produce a consistent event window.
    pub fn drain(&mut self) -> Vec<LogEvent> {
        self.dropped = self.next_seq;
        self.buf.drain(..).collect()
    }
}

/// Per-scope level overrides parsed from a `GALA_LOG` spec.
#[derive(Debug, Default)]
struct Filter {
    /// Default maximum level; `None` disables unscoped logging.
    default: Option<Level>,
    /// `scope=level` overrides, first match wins.
    scopes: Vec<(String, Level)>,
}

impl Filter {
    /// Parses `error|warn|info|debug[,scope=level...]`. Unknown words are
    /// ignored rather than erroring: a typo in an env var must not kill a
    /// run. Returns `None` when nothing parses (recorder stays off).
    fn parse(spec: &str) -> Option<Filter> {
        let mut filter = Filter::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some((scope, level)) => {
                    if let Some(level) = Level::parse(level.trim()) {
                        filter.scopes.push((scope.trim().to_string(), level));
                    }
                }
                None => {
                    if let Some(level) = Level::parse(part) {
                        filter.default = Some(level);
                    }
                }
            }
        }
        if filter.default.is_none() && filter.scopes.is_empty() {
            None
        } else {
            Some(filter)
        }
    }

    /// The level admitted for `scope`.
    fn level_for(&self, scope: &str) -> Option<Level> {
        self.scopes
            .iter()
            .find(|(s, _)| s == scope)
            .map(|&(_, l)| l)
            .or(self.default)
    }

    /// The most permissive level any scope admits (the branch-cheap
    /// first-stage filter).
    fn max_level(&self) -> Option<Level> {
        self.scopes
            .iter()
            .map(|&(_, l)| l)
            .chain(self.default)
            .max()
    }
}

/// A live progress consumer, as registered by [`set_progress_callback`].
pub type ProgressCallback = Box<dyn FnMut(&ProgressSnapshot) + Send>;

/// Mutable recorder state behind the global mutex: the ring, the scope
/// filter, and the live progress callback.
struct RecorderState {
    ring: Ring,
    filter: Filter,
    started: Instant,
    progress_cb: Option<ProgressCallback>,
}

/// Global recorder singleton. The hot-path gate is [`MAX_LEVEL`], not this
/// mutex: disabled call sites never lock.
static RECORDER: OnceLock<Mutex<RecorderState>> = OnceLock::new();

/// Rank of the most permissive admitted level; 0 = recorder off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether a live progress consumer (callback or ring) wants snapshots.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Default ring capacity: enough for the tail of any stress run while
/// keeping a full drain under ~1 MiB of JSON.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

fn state() -> &'static Mutex<RecorderState> {
    RECORDER.get_or_init(|| {
        Mutex::new(RecorderState {
            ring: Ring::new(DEFAULT_RING_CAPACITY),
            filter: Filter::default(),
            started: Instant::now(),
            progress_cb: None,
        })
    })
}

/// Locks the recorder state, recovering from a poisoned mutex: the
/// recorder must stay usable inside a panic hook, which by definition runs
/// after some thread panicked (possibly while logging).
fn lock() -> std::sync::MutexGuard<'static, RecorderState> {
    match state().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Configures the recorder from a `GALA_LOG`-style spec
/// (`error|warn|info|debug[,scope=level...]`). An unparseable or empty
/// spec turns logging off. Progress observation is independent — see
/// [`enable_progress`].
pub fn init(spec: &str) {
    let filter = Filter::parse(spec).unwrap_or_default();
    let rank = filter.max_level().map_or(0, Level::rank);
    let mut st = lock();
    st.filter = filter;
    drop(st);
    MAX_LEVEL.store(rank, Ordering::Relaxed);
}

/// [`init`] from the `GALA_LOG` environment variable; a no-op when the
/// variable is unset (logging stays off, costing one branch per site).
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("GALA_LOG") {
        init(&spec);
    }
}

/// Whether any scope admits `level`. One relaxed atomic load — the gate
/// instrumented code checks before building a message.
pub fn enabled(level: Level) -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) >= level.rank()
}

/// Appends one structured line to the ring if `level` passes the `scope`'s
/// filter. Callers on hot paths should gate on [`enabled`] first so the
/// message and fields are never built when logging is off.
pub fn log(level: Level, scope: &str, message: &str, fields: &[(&str, f64)]) {
    if !enabled(level) {
        return;
    }
    let mut st = lock();
    match st.filter.level_for(scope) {
        Some(max) if level <= max => {}
        _ => return,
    }
    let elapsed_us = st.started.elapsed().as_micros() as u64;
    st.ring.push(LogEvent {
        seq: 0, // assigned by the ring
        elapsed_us,
        level,
        scope: scope.to_string(),
        message: message.to_string(),
        fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    });
}

/// Turns progress observation on or off. Drivers check
/// [`progress_active`] (one atomic load) before building snapshots.
pub fn enable_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether any live consumer wants [`ProgressSnapshot`]s.
pub fn progress_active() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Registers the live progress callback (the CLI's `--progress` status
/// line) and enables progress observation.
pub fn set_progress_callback(cb: ProgressCallback) {
    lock().progress_cb = Some(cb);
    enable_progress(true);
}

/// Drops the progress callback and disables progress observation.
pub fn clear_progress_callback() {
    lock().progress_cb = None;
    enable_progress(false);
}

/// Fans one snapshot out to the live callback, the log ring (debug
/// level), and the watchdog heartbeat. Drivers bound their call frequency
/// with a [`ProgressLimiter`]; this function does not rate-limit.
pub fn observe_progress(snap: &ProgressSnapshot) {
    if watchdog_armed() {
        heartbeat(&format!("{}/{}", snap.driver, snap.phase));
    }
    if !progress_active() {
        return;
    }
    let mut st = lock();
    if let Some(cb) = st.progress_cb.as_mut() {
        cb(snap);
    }
    drop(st);
    if enabled(Level::Debug) {
        log(
            Level::Debug,
            &snap.driver,
            &snap.render_line(),
            &[
                ("round", snap.round as f64),
                ("modularity", snap.modularity),
                ("active_frac", snap.active_frac),
                ("moved_frac", snap.moved_frac),
            ],
        );
    }
}

/// Removes every buffered log line and returns it with the ring's drop
/// counter (events evicted or drained before the returned window — the
/// first returned event's `seq` equals the counter).
pub fn drain() -> (Vec<LogEvent>, u64) {
    let mut st = lock();
    let dropped = st.ring.dropped();
    (st.ring.drain(), dropped)
}

/// Drains the ring into `sink` as schema-5 `log` events. A no-op on a
/// disabled sink (events stay in the ring).
pub fn drain_into_sink(sink: &mut dyn TraceSink) {
    if !sink.enabled() {
        return;
    }
    let (events, _) = drain();
    for event in events {
        sink.emit(TraceEvent::Log(event));
    }
}

/// Bounds how often a driver builds progress snapshots: `ready()` is true
/// at most once per interval (and always on the first call).
#[derive(Debug)]
pub struct ProgressLimiter {
    min_interval: Duration,
    last: Option<Instant>,
}

impl ProgressLimiter {
    /// A limiter admitting one snapshot per `min_interval`.
    pub fn new(min_interval: Duration) -> Self {
        ProgressLimiter {
            min_interval,
            last: None,
        }
    }

    /// The default driver cadence: 4 snapshots per second, frequent enough
    /// for a live status line, cheap enough for a 200-superstep round.
    pub fn default_cadence() -> Self {
        Self::new(Duration::from_millis(250))
    }

    /// Whether enough time has passed to emit another snapshot; advances
    /// the window when it has.
    pub fn ready(&mut self) -> bool {
        let now = Instant::now();
        match self.last {
            Some(prev) if now.duration_since(prev) < self.min_interval => false,
            _ => {
                self.last = Some(now);
                true
            }
        }
    }
}

/// Clock seam for the watchdog, injectable so stall detection is testable
/// without real time.
pub trait WatchdogClock: Send + Sync {
    /// Monotonic microseconds.
    fn now_us(&self) -> u64;
}

/// The real clock: microseconds since the recorder started.
#[derive(Debug, Default)]
pub struct SystemClock;

impl WatchdogClock for SystemClock {
    fn now_us(&self) -> u64 {
        lock().started.elapsed().as_micros() as u64
    }
}

/// A stalled-run report from [`WatchdogCore::poll`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Microseconds since the last heartbeat.
    pub silent_us: u64,
    /// The span stack the last heartbeat reported.
    pub last_stack: String,
}

/// Deadline logic of the stall watchdog, separated from the monitor thread
/// so tests can drive it with a manual clock: [`WatchdogCore::beat`]
/// records liveness, [`WatchdogCore::poll`] reports a stall once the
/// deadline passes without one (at most once per silence).
pub struct WatchdogCore {
    deadline_us: u64,
    last_beat_us: AtomicU64,
    reported: AtomicBool,
    stack: Mutex<String>,
}

impl WatchdogCore {
    /// A core flagging silences longer than `deadline`.
    pub fn new(deadline: Duration, now_us: u64) -> Self {
        WatchdogCore {
            deadline_us: deadline.as_micros().max(1) as u64,
            last_beat_us: AtomicU64::new(now_us),
            reported: AtomicBool::new(false),
            stack: Mutex::new(String::new()),
        }
    }

    /// Records a heartbeat with the caller's current span stack.
    pub fn beat(&self, now_us: u64, stack: &str) {
        self.last_beat_us.store(now_us, Ordering::Relaxed);
        self.reported.store(false, Ordering::Relaxed);
        if let Ok(mut s) = self.stack.lock() {
            if *s != stack {
                s.clear();
                s.push_str(stack);
            }
        }
    }

    /// Returns a [`StallReport`] when the deadline has passed since the
    /// last beat — once per silence: further polls stay quiet until a new
    /// beat arrives.
    pub fn poll(&self, now_us: u64) -> Option<StallReport> {
        let last = self.last_beat_us.load(Ordering::Relaxed);
        let silent_us = now_us.saturating_sub(last);
        if silent_us < self.deadline_us || self.reported.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(StallReport {
            silent_us,
            last_stack: self.stack.lock().map(|s| s.clone()).unwrap_or_default(),
        })
    }
}

/// The armed watchdog, shared between heartbeat sites and the monitor.
static WATCHDOG: OnceLock<std::sync::Arc<WatchdogCore>> = OnceLock::new();

/// Whether a monitor thread is live (the branch heartbeat sites check).
static WATCHDOG_ON: AtomicBool = AtomicBool::new(false);

/// Whether a run's heartbeats should be recorded at all.
pub fn watchdog_armed() -> bool {
    WATCHDOG_ON.load(Ordering::Relaxed)
}

/// Records a heartbeat with the current span stack. One atomic check when
/// the watchdog is disarmed.
pub fn heartbeat(stack: &str) {
    if !watchdog_armed() {
        return;
    }
    if let Some(core) = WATCHDOG.get() {
        core.beat(SystemClock.now_us(), stack);
    }
}

/// Arms the stall watchdog: a detached monitor thread polls at a quarter
/// of `deadline` and, on a stall, logs an error-level line carrying the
/// silence length and the last-known span stack. Arming is idempotent; the
/// first deadline wins. Returns whether a (new or existing) monitor is
/// live.
pub fn arm_watchdog(deadline: Duration) -> bool {
    let core = WATCHDOG
        .get_or_init(|| std::sync::Arc::new(WatchdogCore::new(deadline, SystemClock.now_us())));
    if WATCHDOG_ON.swap(true, Ordering::Relaxed) {
        return true; // already armed
    }
    let core = std::sync::Arc::clone(core);
    let poll_every = (deadline / 4).max(Duration::from_millis(10));
    std::thread::Builder::new()
        .name("gala-watchdog".into())
        .spawn(move || {
            while WATCHDOG_ON.load(Ordering::Relaxed) {
                std::thread::sleep(poll_every);
                if let Some(report) = core.poll(SystemClock.now_us()) {
                    let line = format!(
                        "superstep stalled: {:.1}s without a heartbeat (last stack: {})",
                        report.silent_us as f64 / 1e6,
                        if report.last_stack.is_empty() {
                            "<none>"
                        } else {
                            &report.last_stack
                        },
                    );
                    log(
                        Level::Error,
                        "watchdog",
                        &line,
                        &[("silent_us", report.silent_us as f64)],
                    );
                    eprintln!("gala: warning: {line}");
                }
            }
        })
        .is_ok()
}

/// Disarms the watchdog; the monitor thread exits on its next poll.
pub fn disarm_watchdog() {
    WATCHDOG_ON.store(false, Ordering::Relaxed);
}

/// Provenance manifest a crash dump carries: free-form key/value pairs
/// describing the run (cmdline, seed, config, backend) so a dump is
/// diagnosable without the shell history that produced it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Ordered `(key, value)` pairs.
    pub entries: Vec<(String, String)>,
}

impl Manifest {
    /// A manifest pre-populated with the process command line.
    pub fn with_cmdline() -> Self {
        let cmdline = std::env::args().collect::<Vec<_>>().join(" ");
        Manifest::default().entry("cmdline", &cmdline)
    }

    /// Appends one `(key, value)` pair (builder style).
    pub fn entry(mut self, key: &str, value: &str) -> Self {
        self.entries.push((key.to_string(), value.to_string()));
        self
    }

    fn to_json(&self) -> Value {
        self.entries
            .iter()
            .fold(Value::object(), |v, (k, val)| v.set(k, val.as_str()))
    }
}

/// Where crash dumps land: `GALA_CRASH_DIR` when set, the working
/// directory otherwise.
fn crash_dir() -> std::path::PathBuf {
    std::env::var("GALA_CRASH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Drains the ring into a `crash-<pid>.json` dump carrying `manifest` and
/// the panic `reason`. Returns the path written, or `None` when the write
/// failed (a crash dump must never panic in turn).
pub fn write_crash_dump(manifest: &Manifest, reason: &str) -> Option<std::path::PathBuf> {
    let (events, dropped) = drain();
    let doc = Value::object()
        .set("schema", SCHEMA_VERSION)
        .set("kind", "crash")
        .set("pid", std::process::id() as u64)
        .set("reason", reason)
        .set("manifest", manifest.to_json())
        .set("dropped", dropped)
        .set(
            "events",
            Value::Array(
                events
                    .into_iter()
                    .map(|e| TraceEvent::Log(e).to_json())
                    .collect(),
            ),
        );
    let path = crash_dir().join(format!("crash-{}.json", std::process::id()));
    std::fs::write(&path, doc.render_pretty()).ok()?;
    Some(path)
}

/// Installs a panic hook that writes a crash dump (via
/// [`write_crash_dump`]) before delegating to the previous hook, so the
/// standard backtrace still prints. Installing twice chains harmlessly.
pub fn install_panic_hook(manifest: Manifest) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let reason = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        let located = match info.location() {
            Some(loc) => format!("{reason} at {}:{}", loc.file(), loc.line()),
            None => reason,
        };
        if let Some(path) = write_crash_dump(&manifest, &located) {
            eprintln!("gala: crash dump written to {}", path.display());
        }
        previous(info);
    }));
}

/// Validates a parsed crash dump: schema in range, `kind == "crash"`, a
/// provenance manifest present, and the event window consistent (strictly
/// increasing sequence numbers starting at the drop counter, well-formed
/// log events). Returns a one-line summary on success.
pub fn validate_crash_dump(doc: &Value) -> Result<String, String> {
    let schema = check_schema(doc).map_err(|e| format!("crash dump {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("crash") {
        return Err("crash dump `kind` is not \"crash\"".to_string());
    }
    doc.get("manifest")
        .and_then(Value::as_object)
        .ok_or("crash dump missing `manifest` object")?;
    let dropped = doc
        .get("dropped")
        .and_then(Value::as_u64)
        .ok_or("crash dump missing numeric `dropped`")?;
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or("crash dump missing `events` array")?;
    for (i, ev) in events.iter().enumerate() {
        let expect = dropped + i as u64;
        let parsed = match TraceEvent::from_json(ev) {
            Ok(TraceEvent::Log(parsed)) => parsed,
            _ => {
                return Err(format!(
                    "crash dump event {i} is not a well-formed log event"
                ))
            }
        };
        if parsed.seq != expect {
            return Err(format!(
                "crash dump event {i} has seq {} (expected {expect}: the first \
                 surviving seq must equal the drop counter and run contiguously)",
                parsed.seq
            ));
        }
        if !parsed.fields.iter().all(|(_, v)| v.is_finite()) {
            return Err(format!("crash dump event {i} carries a non-finite field"));
        }
    }
    Ok(format!(
        "ok: crash dump with {} events ({dropped} dropped), schema {schema}",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_event(seq: u64) -> LogEvent {
        LogEvent {
            seq,
            elapsed_us: 1000 + seq,
            level: Level::Info,
            scope: "louvain".into(),
            message: format!("line {seq}"),
            fields: vec![("round".into(), seq as f64)],
        }
    }

    #[test]
    fn levels_order_and_round_trip() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
            assert_eq!(Level::from_rank(level.rank()), Some(level));
        }
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::from_rank(0), None);
    }

    #[test]
    fn filter_parses_default_and_scoped_levels() {
        let f = Filter::parse("warn,stream=debug, louvain = info").unwrap();
        assert_eq!(f.level_for("anything"), Some(Level::Warn));
        assert_eq!(f.level_for("stream"), Some(Level::Debug));
        assert_eq!(f.level_for("louvain"), Some(Level::Info));
        assert_eq!(f.max_level(), Some(Level::Debug));
        // Scoped-only spec: unscoped logging stays off.
        let f = Filter::parse("stream=error").unwrap();
        assert_eq!(f.level_for("louvain"), None);
        assert_eq!(f.max_level(), Some(Level::Error));
        // Garbage parses to nothing.
        assert!(Filter::parse("loud").is_none());
        assert!(Filter::parse("").is_none());
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            let seq = ring.push(sample_event(999));
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        // The oldest surviving seq equals the drop counter.
        assert_eq!(seqs[0], ring.dropped());
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
        // The sequence counter keeps running across the drain, and the
        // drop counter advances past the drained events, so the oldest
        // surviving seq still equals the drop counter afterwards.
        assert_eq!(ring.push(sample_event(0)), 5);
        assert_eq!(ring.dropped(), 5);
        assert_eq!(ring.events().next().unwrap().seq, ring.dropped());
    }

    #[test]
    fn log_event_round_trips_through_json() {
        let event = sample_event(7);
        let event = TraceEvent::Log(event);
        let v = parse(&event.to_json().render()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("log"));
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(TraceEvent::from_json(&v), Ok(event));
    }

    #[test]
    fn progress_snapshot_round_trips_through_json() {
        let snap = ProgressSnapshot {
            driver: "multi-gpu".into(),
            round: 3,
            phase: "phase1".into(),
            superstep: 17,
            modularity: 0.451,
            active_frac: 0.25,
            moved_frac: 0.01,
            arcs: 123_456,
            rss_bytes: 64 << 20,
        };
        let event = TraceEvent::Progress(snap.clone());
        let v = parse(&event.to_json().render()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("progress"));
        assert_eq!(TraceEvent::from_json(&v), Ok(event));
        let line = snap.render_line();
        assert!(line.contains("multi-gpu"), "{line}");
        assert!(line.contains("0.45100"), "{line}");
        assert!(line.contains("rss"), "{line}");
    }

    #[test]
    fn watchdog_core_flags_a_stall_once_per_silence() {
        let core = WatchdogCore::new(Duration::from_secs(10), 0);
        core.beat(1_000_000, "louvain/phase1");
        // Inside the deadline: quiet.
        assert_eq!(core.poll(5_000_000), None);
        // Past the deadline: one report carrying the last stack.
        let report = core.poll(12_000_000).expect("stall must be flagged");
        assert_eq!(report.last_stack, "louvain/phase1");
        assert_eq!(report.silent_us, 11_000_000);
        // Still silent: no duplicate report.
        assert_eq!(core.poll(20_000_000), None);
        // A new beat re-arms the report.
        core.beat(21_000_000, "louvain/contract");
        assert_eq!(core.poll(22_000_000), None);
        let report = core.poll(40_000_000).expect("second stall");
        assert_eq!(report.last_stack, "louvain/contract");
    }

    #[test]
    fn crash_dump_validator_accepts_written_dumps_and_rejects_tampering() {
        let mut ring = Ring::new(2);
        for _ in 0..4 {
            ring.push(sample_event(0));
        }
        let doc = Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash")
            .set("pid", 42u64)
            .set("reason", "test")
            .set("manifest", Value::object().set("cmdline", "gala detect"))
            .set("dropped", ring.dropped())
            .set(
                "events",
                Value::Array(
                    ring.drain()
                        .into_iter()
                        .map(|e| TraceEvent::Log(e).to_json())
                        .collect(),
                ),
            );
        let summary = validate_crash_dump(&doc).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
        assert!(summary.contains("2 events"), "{summary}");
        // Wrong kind.
        let bad = doc.clone().set("kind", "trace");
        assert!(validate_crash_dump(&bad).is_err());
        // Drop counter disagreeing with the first surviving seq.
        let bad = doc.clone().set("dropped", 0u64);
        assert!(validate_crash_dump(&bad).unwrap_err().contains("seq"));
        // Out-of-range schema.
        let bad = doc.clone().set("schema", SCHEMA_VERSION + 10);
        assert!(validate_crash_dump(&bad).unwrap_err().contains("schema"));
        // Missing manifest.
        let mut no_manifest = Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash")
            .set("dropped", 0u64)
            .set("events", Value::Array(Vec::new()));
        assert!(validate_crash_dump(&no_manifest).is_err());
        no_manifest = no_manifest.set("manifest", Value::object());
        assert!(validate_crash_dump(&no_manifest).is_ok());
    }

    #[test]
    fn write_crash_dump_produces_a_validating_file() {
        let dir = std::env::temp_dir().join(format!("gala_crash_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("GALA_CRASH_DIR", &dir);
        init("debug");
        log(Level::Info, "test", "before the crash", &[("x", 1.0)]);
        let manifest = Manifest::with_cmdline().entry("seed", "42");
        let path = write_crash_dump(&manifest, "injected panic").expect("dump written");
        std::env::remove_var("GALA_CRASH_DIR");
        init(""); // recorder back off for other tests
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("crash"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("injected panic"));
        assert_eq!(
            doc.get("manifest").unwrap().get("seed").unwrap().as_str(),
            Some("42")
        );
        validate_crash_dump(&doc).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn progress_limiter_admits_first_and_throttles_rest() {
        let mut limiter = ProgressLimiter::new(Duration::from_secs(3600));
        assert!(limiter.ready());
        assert!(!limiter.ready());
        let mut eager = ProgressLimiter::new(Duration::ZERO);
        assert!(eager.ready());
        assert!(eager.ready());
    }

    mod recorder_props {
        use super::*;
        use proptest::prelude::*;

        fn level_strategy() -> impl Strategy<Value = Level> {
            (0usize..4).prop_map(|i| [Level::Error, Level::Warn, Level::Info, Level::Debug][i])
        }

        /// Lowercase identifiers plus a few JSON-hostile characters, so
        /// round-trips exercise the escaper.
        fn name_strategy() -> impl Strategy<Value = String> {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_-/ \"\\\t";
            proptest::collection::vec(0usize..ALPHABET.len(), 1..16)
                .prop_map(|v| v.iter().map(|&i| ALPHABET[i] as char).collect())
        }

        proptest! {
            #[test]
            fn log_events_round_trip_through_json(
                seq in 0u64..(1u64 << 53),
                elapsed_us in 0u64..(1u64 << 53),
                level in level_strategy(),
                scope in name_strategy(),
                message in name_strategy(),
                fields in proptest::collection::vec(
                    (name_strategy(), -1e12f64..1e12), 0..6),
            ) {
                // Duplicate field names collapse under the object encoding;
                // keep first occurrences only, as the recorder emits.
                let mut seen = std::collections::HashSet::new();
                let fields: Vec<(String, f64)> = fields
                    .into_iter()
                    .filter(|(k, _)| seen.insert(k.clone()))
                    .collect();
                let event = TraceEvent::Log(LogEvent {
                    seq, elapsed_us, level, scope, message, fields,
                });
                let rendered = event.to_json().render();
                let back = TraceEvent::from_json(&parse(&rendered).unwrap());
                prop_assert_eq!(back, Ok(event));
            }

            #[test]
            fn progress_snapshots_round_trip_through_json(
                round in 0u32..10_000,
                superstep in 0u32..10_000,
                modularity in -1.0f64..1.0,
                active_frac in 0.0f64..1.0,
                moved_frac in 0.0f64..1.0,
                arcs in 0u64..(1u64 << 53),
                rss_bytes in 0u64..(1u64 << 53),
                driver in name_strategy(),
                phase in name_strategy(),
            ) {
                let event = TraceEvent::Progress(ProgressSnapshot {
                    driver, round, phase, superstep, modularity,
                    active_frac, moved_frac, arcs, rss_bytes,
                });
                let rendered = event.to_json().render();
                let back = TraceEvent::from_json(&parse(&rendered).unwrap());
                prop_assert_eq!(back, Ok(event));
            }

            #[test]
            fn ring_window_is_always_contiguous_and_bounded(
                capacity in 1usize..32,
                pushes in 0usize..120,
            ) {
                let mut ring = Ring::new(capacity);
                for _ in 0..pushes {
                    ring.push(sample_event(0));
                }
                prop_assert!(ring.len() <= capacity);
                prop_assert_eq!(ring.len() as u64 + ring.dropped(), pushes as u64);
                let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
                if let Some(&first) = seqs.first() {
                    prop_assert_eq!(first, ring.dropped());
                    for (i, &s) in seqs.iter().enumerate() {
                        prop_assert_eq!(s, first + i as u64);
                    }
                }
            }
        }
    }
}
