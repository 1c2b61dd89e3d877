//! Golden event streams: every driver's full trace on one fixed graph,
//! checked in under `tests/data/` and compared line by line.
//!
//! The trace is a public artifact (`gala detect --trace`, `gala analyze`,
//! `gala profile`), so any change to which events a driver emits, in what
//! order, or with what values shows up here as a diff. Two kinds of field
//! carry wall-clock readings and vary from run to run; they are zeroed
//! before comparing:
//!
//! * `elapsed_ns` span counters;
//! * `rss_bytes` in `progress` events.
//!
//! After a deliberate change to the trace, regenerate the files with
//! `cargo test -p gala-core --test observer_golden -- --ignored bless`.

use gala_core::leiden::{leiden_with, LeidenConfig};
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::multi_gpu::ContractMode;
use gala_core::observe::Obs;
use gala_core::sequential::{sequential_louvain_with, SequentialConfig};
use gala_graph::generators::fixtures;
use gala_telemetry::{TraceEvent, Value, VecSink};
use std::path::PathBuf;

/// One traced driver invocation.
type Run = fn(&mut VecSink);

/// The golden runs: file stem and the driver invocation producing it.
fn runs() -> [(&'static str, Run); 6] {
    [
        ("louvain", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            Louvain::new(LouvainConfig::default()).run_with(&g, &mut Obs::traced(sink));
        }),
        ("multi_gpu_phase1", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            let cfg = LouvainConfig {
                devices: 2,
                ..LouvainConfig::default()
            };
            Louvain::new(cfg).run_with(&g, &mut Obs::traced(sink));
        }),
        ("multi_gpu_full", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            let cfg = LouvainConfig {
                devices: 4,
                contract: ContractMode::Partitioned,
                ..LouvainConfig::default()
            };
            Louvain::new(cfg).run_with(&g, &mut Obs::traced(sink));
        }),
        ("leiden", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            leiden_with(&g, LeidenConfig::default(), &mut Obs::traced(sink));
        }),
        ("sequential", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            sequential_louvain_with(&g, SequentialConfig::default(), &mut Obs::traced(sink));
        }),
        ("grappolo", |sink| {
            let g = fixtures::ring_of_cliques(6, 5);
            Louvain::new(LouvainConfig::grappolo()).run_with(&g, &mut Obs::traced(sink));
        }),
    ]
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("golden_{stem}.jsonl"))
}

/// Zeroes every `elapsed_ns` counter below `v`.
fn zero_elapsed(v: &mut Value) {
    match v {
        Value::Object(pairs) => {
            for (k, child) in pairs {
                if k == "elapsed_ns" {
                    *child = Value::Number(0.0);
                } else {
                    zero_elapsed(child);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(zero_elapsed),
        _ => {}
    }
}

/// Zeroes every number below `v`.
fn zero_numbers(v: &mut Value) {
    match v {
        Value::Number(x) => *x = 0.0,
        Value::Object(pairs) => pairs.iter_mut().for_each(|(_, c)| zero_numbers(c)),
        Value::Array(items) => items.iter_mut().for_each(zero_numbers),
        _ => {}
    }
}

fn set(v: &mut Value, key: &str, f: impl FnOnce(&mut Value)) {
    if let Value::Object(pairs) = v {
        if let Some((_, child)) = pairs.iter_mut().find(|(k, _)| k == key) {
            f(child);
        }
    }
}

/// One event as a JSONL line with its wall-clock fields zeroed.
fn normalized(event: &TraceEvent) -> String {
    let mut v = event.to_json();
    zero_elapsed(&mut v);
    if let TraceEvent::Progress(_) = event {
        set(&mut v, "rss_bytes", zero_numbers);
    }
    v.render()
}

fn stream(run: Run) -> String {
    let mut sink = VecSink::default();
    run(&mut sink);
    sink.events.iter().map(|e| normalized(e) + "\n").collect()
}

#[test]
fn every_driver_matches_its_golden_stream() {
    for (stem, run) in runs() {
        let path = golden_path(stem);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless to create)", path.display()));
        let got = stream(run);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "{stem}: event {} differs from {}",
                i + 1,
                path.display()
            );
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{stem}: event count differs from {}",
            path.display()
        );
    }
}

#[test]
fn normalized_streams_are_reproducible() {
    // The normalization must cover every wall-clock field: two runs in one
    // process agree byte for byte.
    for (stem, run) in runs() {
        assert_eq!(stream(run), stream(run), "{stem}");
    }
}

#[test]
#[ignore = "rewrites the golden files; run after a deliberate trace change"]
fn bless() {
    for (stem, run) in runs() {
        let path = golden_path(stem);
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("create data dir");
        std::fs::write(&path, stream(run)).expect("write golden stream");
    }
}
