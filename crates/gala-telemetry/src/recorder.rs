//! The in-process flight recorder: bounded-frequency progress snapshots,
//! a stall watchdog, and crash forensics.
//!
//! Everything the post-hoc layers (`trace`, `metrics`, `report`) capture is
//! only inspectable after a run finishes; the recorder is the *live* side
//! of observability:
//!
//! * [`observe_progress`] hands a [`ProgressSnapshot`] to the live callback
//!   (the CLI's `--progress` status line) and keeps it as the last snapshot
//!   a crash dump reports. Progress is on exactly while a callback is set;
//!   drivers gate snapshot construction on [`progress_active`] and bound
//!   their emission frequency with a [`ProgressLimiter`].
//! * [`arm_watchdog`] starts a monitor thread that warns on stderr when a
//!   run's heartbeats stop arriving before a deadline, naming the
//!   last-known span stack. The deadline logic lives in the
//!   clock-injectable [`WatchdogCore`] so tests need no real threads or
//!   sleeps.
//! * [`install_panic_hook`] writes a `crash-<pid>.json` dump carrying a
//!   provenance [`Manifest`], the panic reason and the last progress
//!   snapshot; [`validate_crash_dump`] is the shared validator behind both
//!   `gala analyze --check` and the `bench_recorder` gate.
//!
//! Snapshots leave the process as schema-5 `progress` [`TraceEvent`]s, so
//! every existing JSONL consumer reads them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::trace::TraceEvent;
use crate::{check_schema, SCHEMA_VERSION};

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
    /// One-line human rendering for status lines and `gala analyze`.
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

    /// The invariants every reader holds a snapshot to: a named driver
    /// and phase, a finite modularity, and fractions in `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        if self.driver.is_empty() || self.phase.is_empty() {
            return Err("empty driver or phase".to_string());
        }
        if !self.modularity.is_finite() {
            return Err("non-finite modularity".to_string());
        }
        for (name, frac) in [
            ("active_frac", self.active_frac),
            ("moved_frac", self.moved_frac),
        ] {
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("{name} {frac} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// A live progress consumer, as registered by [`set_progress_callback`].
pub type ProgressCallback = Box<dyn FnMut(&ProgressSnapshot) + Send>;

/// Mutable recorder state behind the global mutex: the live progress
/// callback and the last snapshot it was handed.
#[derive(Default)]
struct RecorderState {
    progress_cb: Option<ProgressCallback>,
    last: Option<ProgressSnapshot>,
}

/// Global recorder singleton. The hot-path gate is [`PROGRESS`], not this
/// mutex: call sites never lock while no callback is set.
static RECORDER: OnceLock<Mutex<RecorderState>> = OnceLock::new();

/// Whether a progress callback is set.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Locks the recorder state, recovering from a poisoned mutex: a panic
/// inside the progress callback must not disable the recorder for the
/// rest of the process.
fn lock() -> std::sync::MutexGuard<'static, RecorderState> {
    let state = RECORDER.get_or_init(Mutex::default);
    match state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Whether a live consumer wants [`ProgressSnapshot`]s: one atomic load,
/// true exactly while a progress callback is set.
pub fn progress_active() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Registers the live progress callback (the CLI's `--progress` status
/// line), which turns progress observation on.
pub fn set_progress_callback(cb: ProgressCallback) {
    lock().progress_cb = Some(cb);
    PROGRESS.store(true, Ordering::Relaxed);
}

/// Drops the progress callback, which turns progress observation off.
pub fn clear_progress_callback() {
    lock().progress_cb = None;
    PROGRESS.store(false, Ordering::Relaxed);
}

/// Hands one snapshot to the live callback, keeps it as the snapshot a
/// crash dump reports, and beats the watchdog. Drivers bound their call
/// frequency with a [`ProgressLimiter`]; this function does not
/// rate-limit.
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
    st.last = Some(snap.clone());
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

/// The watchdog's monotonic clock: microseconds since its first reading.
fn now_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
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
        core.beat(now_us(), stack);
    }
}

/// Arms the stall watchdog: a detached monitor thread polls at a quarter
/// of `deadline` and, on a stall, prints a warning to stderr carrying the
/// silence length and the last-known span stack. Arming is idempotent; the
/// first deadline wins. Returns whether a (new or existing) monitor is
/// live.
pub fn arm_watchdog(deadline: Duration) -> bool {
    let core = WATCHDOG.get_or_init(|| std::sync::Arc::new(WatchdogCore::new(deadline, now_us())));
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
                if let Some(report) = core.poll(now_us()) {
                    let line = format!(
                        "superstep stalled: {:.1}s without a heartbeat (last stack: {})",
                        report.silent_us as f64 / 1e6,
                        if report.last_stack.is_empty() {
                            "<none>"
                        } else {
                            &report.last_stack
                        },
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

/// The last snapshot [`observe_progress`] delivered. Never blocks: a
/// panic inside the progress callback leaves the lock held by the
/// panicking thread, and the dump then reports no snapshot.
fn last_snapshot() -> Option<ProgressSnapshot> {
    match RECORDER.get()?.try_lock() {
        Ok(st) => st.last.clone(),
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().last.clone(),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Writes a `crash-<pid>.json` dump carrying `manifest`, the panic
/// `reason` and the last progress snapshot (a `progress` event object, or
/// `null` when none was delivered). Returns the path written, or `None`
/// when the write failed (a crash dump must never panic in turn).
pub fn write_crash_dump(manifest: &Manifest, reason: &str) -> Option<std::path::PathBuf> {
    let progress = last_snapshot().map_or(Value::Null, |s| TraceEvent::Progress(s).to_json());
    let doc = Value::object()
        .set("schema", SCHEMA_VERSION)
        .set("kind", "crash")
        .set("pid", std::process::id() as u64)
        .set("reason", reason)
        .set("manifest", manifest.to_json())
        .set("progress", progress);
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
/// provenance manifest present, and `progress` absent, `null`, or a
/// well-formed `progress` event. Returns a one-line summary on success.
pub fn validate_crash_dump(doc: &Value) -> Result<String, String> {
    let schema = check_schema(doc).map_err(|e| format!("crash dump {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("crash") {
        return Err("crash dump `kind` is not \"crash\"".to_string());
    }
    doc.get("manifest")
        .and_then(Value::as_object)
        .ok_or("crash dump missing `manifest` object")?;
    let progress = match doc.get("progress") {
        None | Some(Value::Null) => return Ok(format!("ok: crash dump, schema {schema}")),
        Some(v) => v,
    };
    let snap = match TraceEvent::from_json(progress) {
        Ok(TraceEvent::Progress(snap)) => snap,
        Ok(other) => {
            return Err(format!(
                "crash dump `progress` is a `{}` event, not a progress event",
                other.kind()
            ))
        }
        Err(e) => return Err(format!("crash dump `progress` is malformed: {e}")),
    };
    snap.check()
        .map_err(|e| format!("crash dump `progress`: {e}"))?;
    Ok(format!(
        "ok: crash dump at {} r{} {} s{}, schema {schema}",
        snap.driver, snap.round, snap.phase, snap.superstep
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

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

    fn sample_snapshot() -> ProgressSnapshot {
        ProgressSnapshot {
            driver: "louvain".into(),
            round: 1,
            phase: "phase1".into(),
            superstep: 4,
            modularity: 0.42,
            active_frac: 0.5,
            moved_frac: 0.125,
            arcs: 780,
            rss_bytes: 0,
        }
    }

    #[test]
    fn crash_dump_validator_accepts_written_dumps_and_rejects_tampering() {
        let doc = Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash")
            .set("pid", 42u64)
            .set("reason", "test")
            .set("manifest", Value::object().set("cmdline", "gala detect"))
            .set(
                "progress",
                TraceEvent::Progress(sample_snapshot()).to_json(),
            );
        let summary = validate_crash_dump(&doc).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
        assert!(summary.contains("louvain r1 phase1 s4"), "{summary}");
        // No snapshot delivered yet: `null` or absent.
        assert!(validate_crash_dump(&doc.clone().set("progress", Value::Null)).is_ok());
        // Wrong kind.
        let bad = doc.clone().set("kind", "trace");
        assert!(validate_crash_dump(&bad).is_err());
        // Out-of-range schema.
        let bad = doc.clone().set("schema", SCHEMA_VERSION + 10);
        assert!(validate_crash_dump(&bad).unwrap_err().contains("schema"));
        // A `progress` that is not a progress event, or misses a field.
        let bad = doc
            .clone()
            .set("progress", Value::object().set("event", "run_end"));
        assert!(validate_crash_dump(&bad).unwrap_err().contains("progress"));
        let bad = doc.clone().set(
            "progress",
            TraceEvent::Progress(sample_snapshot())
                .to_json()
                .set("arcs", "many"),
        );
        assert!(validate_crash_dump(&bad).unwrap_err().contains("arcs"));
        // A well-formed event whose fractions are out of range.
        let mut snap = sample_snapshot();
        snap.moved_frac = 1.5;
        let bad = doc
            .clone()
            .set("progress", TraceEvent::Progress(snap).to_json());
        assert!(validate_crash_dump(&bad)
            .unwrap_err()
            .contains("outside [0,1]"));
        // Missing manifest.
        let mut no_manifest = Value::object()
            .set("schema", SCHEMA_VERSION)
            .set("kind", "crash");
        assert!(validate_crash_dump(&no_manifest).is_err());
        no_manifest = no_manifest.set("manifest", Value::object());
        assert!(validate_crash_dump(&no_manifest).is_ok());
    }

    #[test]
    fn write_crash_dump_produces_a_validating_file() {
        let dir = std::env::temp_dir().join(format!("gala_crash_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("GALA_CRASH_DIR", &dir);
        set_progress_callback(Box::new(|_| {}));
        observe_progress(&sample_snapshot());
        clear_progress_callback();
        let manifest = Manifest::with_cmdline().entry("seed", "42");
        let path = write_crash_dump(&manifest, "injected panic").expect("dump written");
        std::env::remove_var("GALA_CRASH_DIR");
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("crash"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("injected panic"));
        assert_eq!(
            doc.get("manifest").unwrap().get("seed").unwrap().as_str(),
            Some("42")
        );
        assert_eq!(
            TraceEvent::from_json(doc.get("progress").unwrap()),
            Ok(TraceEvent::Progress(sample_snapshot()))
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

        /// Lowercase identifiers plus a few JSON-hostile characters, so
        /// round-trips exercise the escaper.
        fn name_strategy() -> impl Strategy<Value = String> {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_-/ \"\\\t";
            proptest::collection::vec(0usize..ALPHABET.len(), 1..16)
                .prop_map(|v| v.iter().map(|&i| ALPHABET[i] as char).collect())
        }

        proptest! {
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
        }
    }
}
