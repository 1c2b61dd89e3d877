//! End-to-end mode: time what a user of `gala detect --backend native`
//! waits for, with tracing off, and check every result.
//!
//! One untimed warm-up rep, then timed reps until `--seconds` have passed
//! (at least [`MIN_REPS`]). Each rep is a fresh load of the input file and
//! a full-hierarchy native detect at the pool's configured width, exactly
//! the calls `gala detect` makes. Times are medians over the timed reps.

use crate::workload::{Inputs, Workload};
use crate::Outcome;
use gala_core::backend::BackendKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::{metrics, modularity};
use gala_graph::{Graph, Partition};
use gala_telemetry::mem;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest timed reps a run makes, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// Largest gap between the reported and the recomputed modularity.
const Q_TOLERANCE: f64 = 1e-9;

/// The configuration `gala detect --backend native` runs with.
pub fn native_config() -> LouvainConfig {
    LouvainConfig {
        backend: BackendKind::Native,
        ..LouvainConfig::default()
    }
}

/// Checks one detect result: the partition covers every vertex, the
/// reported modularity matches a from-scratch recomputation, and the
/// partition is the reference one (when a reference is given). Returns the
/// recomputed modularity.
pub fn verify(
    graph: &Graph,
    partition: &Partition,
    reported_q: f64,
    reference: Option<&Partition>,
) -> Result<f64, String> {
    if partition.len() != graph.num_vertices() {
        return Err(format!(
            "partition covers {} of {} vertices",
            partition.len(),
            graph.num_vertices()
        ));
    }
    let q = modularity::modularity(graph, partition);
    let gap = (q - reported_q).abs();
    if gap.is_nan() || gap > Q_TOLERANCE {
        return Err(format!(
            "reported Q {reported_q} but the partition has Q {q}"
        ));
    }
    if reference.is_some_and(|r| r != partition) {
        return Err("partition differs from the reference rep's".into());
    }
    Ok(q)
}

/// FNV-1a over the assignment's little-endian bytes: a short fingerprint
/// that shows bit-identity of partitions across commits.
pub fn fingerprint(partition: &Partition) -> u64 {
    crate::fnv1a(partition.assignment().iter().flat_map(|c| c.to_le_bytes()))
}

struct Rep {
    setup: Duration,
    detect: Duration,
    partition: Partition,
    modularity: f64,
    /// Peak resident set during the load and detect, in bytes.
    peak_rss: Option<u64>,
    vertices: usize,
    arcs: usize,
    supersteps: Vec<usize>,
}

/// One load + detect + check. Load errors, check failures and panics all
/// come back as `Err`.
fn rep(workload: &Workload, inputs: &Inputs, reference: Option<&Partition>) -> Result<Rep, String> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        let rss_before = mem::rss_bytes();
        let probe = mem::PhasePeak::begin();
        let t0 = Instant::now();
        let graph = inputs
            .load(workload.format)
            .map_err(|e| format!("load: {e}"))?;
        let t1 = Instant::now();
        let result = Louvain::new(native_config()).run(std::hint::black_box(&graph));
        let t2 = Instant::now();
        let peak_rss = rss_before
            .zip(probe.end())
            .map(|(base, above)| base + above);
        let q = verify(&graph, &result.partition, result.modularity, reference)?;
        Ok(Rep {
            setup: t1 - t0,
            detect: t2 - t1,
            partition: result.partition,
            modularity: q,
            peak_rss,
            vertices: graph.num_vertices(),
            arcs: graph.num_arcs(),
            supersteps: result.rounds.iter().map(|r| r.iterations.len()).collect(),
        })
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn run(workload: &Workload, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let truth = inputs.truth().map_err(|e| format!("ground truth: {e}"))?;
    let warm = rep(workload, inputs, None).map_err(|e| format!("warm-up rep: {e}"))?;
    // Memory is taken from the warm-up: the first load and detect in a
    // fresh process, as one `gala detect` invocation sees it. Later reps
    // inherit the allocator's free lists, so their peaks depend on what the
    // previous rep left behind.
    let peak_rss = warm
        .peak_rss
        .ok_or("no resident-set probe on this platform")?;
    let reference = warm.partition;
    let nmi = metrics::nmi(&reference, &truth);

    let mut outcome = Outcome::default();
    let mut setup = Vec::new();
    let mut detect = Vec::new();
    let started = Instant::now();
    while setup.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        outcome.attempted += 1;
        match rep(workload, inputs, Some(&reference)) {
            Ok(r) => {
                eprintln!(
                    "bench_e2e: rep {}: setup {:.4} s, detect {:.4} s",
                    outcome.attempted,
                    r.setup.as_secs_f64(),
                    r.detect.as_secs_f64()
                );
                setup.push(r.setup.as_secs_f64());
                detect.push(r.detect.as_secs_f64());
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.problems.push(e);
                if outcome.failed as usize >= MIN_REPS {
                    break;
                }
            }
        }
    }
    if setup.is_empty() {
        return Err(format!("every rep failed: {}", outcome.problems.join("; ")));
    }

    outcome.notes = vec![
        ("vertices".into(), warm.vertices.to_string()),
        ("arcs".into(), warm.arcs.to_string()),
        (
            "supersteps_per_round".into(),
            format!("{:?}", warm.supersteps),
        ),
        (
            "communities".into(),
            reference.num_communities().to_string(),
        ),
        (
            "fingerprint".into(),
            format!("\"{:016x}\"", fingerprint(&reference)),
        ),
        ("reps".into(), setup.len().to_string()),
    ];
    outcome.metrics = vec![
        ("setup_s", median(&mut setup)),
        ("detect_s", median(&mut detect)),
        ("modularity", warm.modularity),
        ("nmi", nmi),
        ("peak_rss_mib", mem::mib(peak_rss)),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn verifier_accepts_a_true_result() {
        let g = fixtures::ring_of_cliques(6, 5);
        let r = Louvain::new(native_config()).run(&g);
        let q = verify(&g, &r.partition, r.modularity, Some(&r.partition)).unwrap();
        assert!((q - r.modularity).abs() <= Q_TOLERANCE);
    }

    #[test]
    fn verifier_rejects_tampered_partitions() {
        let g = fixtures::ring_of_cliques(6, 5);
        let r = Louvain::new(native_config()).run(&g);

        // One vertex moved to another community: Q no longer matches.
        let mut moved = r.partition.clone();
        let other = moved.community_of(5);
        moved.assign(0, other);
        let err = verify(&g, &moved, r.modularity, None).unwrap_err();
        assert!(err.contains("reported Q"), "{err}");

        // Same Q (communities relabelled) but not the reference partition.
        let relabelled =
            Partition::from_assignment(r.partition.assignment().iter().map(|c| c + 1000).collect());
        let err = verify(&g, &relabelled, r.modularity, Some(&r.partition)).unwrap_err();
        assert!(err.contains("reference"), "{err}");

        // Too short to cover the graph.
        let short = Partition::from_assignment(r.partition.assignment()[1..].to_vec());
        let err = verify(&g, &short, r.modularity, None).unwrap_err();
        assert!(err.contains("covers"), "{err}");
    }

    #[test]
    fn fingerprint_tells_partitions_apart() {
        let a = Partition::from_assignment(vec![0, 0, 1, 1]);
        let b = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
