//! Process-memory probes for the memory-budgeted ingestion benches.
//!
//! The workspace forbids `unsafe`, so there is no counting global
//! allocator; instead the probes read the kernel's own accounting from
//! `/proc/self/status` (`VmRSS` / `VmHWM`) and reset the high-water mark
//! between measurement phases by writing `5` to `/proc/self/clear_refs`
//! (supported since Linux 4.0). On platforms without procfs every probe
//! degrades to `None` and [`PhasePeak`] falls back to a sampling thread,
//! so callers can always distinguish "no probe" from "zero bytes".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Reads a `kB` field from `/proc/self/status`, returned in bytes.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Current resident set size in bytes (`VmRSS`), or `None` when the
/// platform exposes no procfs accounting.
pub fn rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS")
}

/// Peak resident set size in bytes (`VmHWM`) since process start or the
/// last [`reset_peak_rss`], or `None` without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM")
}

/// Resets the kernel's peak-RSS high-water mark to the current RSS so the
/// next [`peak_rss_bytes`] reflects only the following phase. Returns
/// whether the reset took effect (verified against a fresh read).
pub fn reset_peak_rss() -> bool {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return false;
    }
    // Paranoia: some kernels accept the write but leave the mark; verify
    // the mark collapsed to (roughly) the current RSS.
    match (peak_rss_bytes(), rss_bytes()) {
        (Some(peak), Some(rss)) => peak <= rss.saturating_add(64 << 20),
        _ => false,
    }
}

/// Peak-RSS measurement for one phase of work.
///
/// Preferred path: reset the kernel high-water mark, run the phase, read
/// `VmHWM` back. Fallback (reset unsupported): a sampler thread polls
/// `VmRSS` every millisecond and keeps the maximum — coarser, but
/// monotone work loads (building a graph) are sampled well.
///
/// ```
/// use gala_telemetry::mem::PhasePeak;
/// let probe = PhasePeak::begin();
/// let big = vec![1u8; 1 << 20];
/// drop(big);
/// // `None` only on platforms without procfs.
/// let _peak_bytes: Option<u64> = probe.end();
/// ```
pub struct PhasePeak {
    baseline: Option<u64>,
    via_reset: bool,
    sampled_max: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl PhasePeak {
    /// Starts measuring: resets the kernel mark when possible, otherwise
    /// spawns the sampling fallback.
    pub fn begin() -> Self {
        let via_reset = reset_peak_rss();
        let baseline = rss_bytes();
        let sampled_max = Arc::new(AtomicU64::new(baseline.unwrap_or(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = if !via_reset && baseline.is_some() {
            let max = Arc::clone(&sampled_max);
            let stop_flag = Arc::clone(&stop);
            Some(std::thread::spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    if let Some(rss) = rss_bytes() {
                        max.fetch_max(rss, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }))
        } else {
            None
        };
        Self {
            baseline,
            via_reset,
            sampled_max,
            stop,
            sampler,
        }
    }

    /// Finishes the phase and returns its peak RSS in bytes *above the
    /// phase baseline*, or `None` when no probe is available.
    pub fn end(mut self) -> Option<u64> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
        let baseline = self.baseline?;
        let peak = if self.via_reset {
            peak_rss_bytes()?
        } else {
            self.sampled_max.load(Ordering::Relaxed).max(rss_bytes()?)
        };
        Some(peak.saturating_sub(baseline))
    }

    /// Whether the kernel high-water-mark reset path is in use (the
    /// sampling fallback can undercount short allocation spikes).
    pub fn via_reset(&self) -> bool {
        self.via_reset
    }
}

/// Bytes rendered as mebibytes for table cells.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("procfs must expose VmRSS on linux");
            assert!(rss > 0);
            assert!(peak_rss_bytes().expect("VmHWM") >= rss / 2);
        }
    }

    #[test]
    fn phase_peak_sees_a_large_allocation() {
        let probe = PhasePeak::begin();
        // Touch every page so the RSS actually grows.
        let mut big = vec![0u8; 64 << 20];
        for i in (0..big.len()).step_by(4096) {
            big[i] = 1;
        }
        let len = big.len();
        // Keep the optimizer from eliding the buffer and its writes.
        drop(std::hint::black_box(big));
        match probe.end() {
            // Generous slack: another test may free memory concurrently.
            Some(peak) => assert!(
                peak >= (len / 4) as u64,
                "peak {peak} should see most of the {len}-byte allocation"
            ),
            None => panic!("probe returned None; it must exist on linux test hosts"),
        }
    }

    #[test]
    fn mib_converts() {
        assert_eq!(mib(1024 * 1024), 1.0);
        assert_eq!(mib(0), 0.0);
    }
}
