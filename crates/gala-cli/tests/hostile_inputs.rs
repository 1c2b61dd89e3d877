//! Hostile inputs through `gala detect`: each must fail with a typed error
//! — a non-zero exit that is not a panic's 101, no `panicked at` on
//! stderr, and a message that names the offending line or the corruption.

use gala_graph::{io, GraphBuilder};
use std::path::PathBuf;
use std::process::Command;

/// Writes `bytes` to a fresh temp file named `name`.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("gala_hostile_{}_{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// A v1 container around raw CSR arrays (the legacy layout `gala`
/// still reads).
fn v1_container(n: u64, offsets: &[u64], targets: &[u32], weights: &[f64]) -> Vec<u8> {
    let mut buf = b"GALAGRF1".to_vec();
    buf.extend_from_slice(&n.to_le_bytes());
    buf.extend_from_slice(&(targets.len() as u64).to_le_bytes());
    offsets
        .iter()
        .for_each(|o| buf.extend_from_slice(&o.to_le_bytes()));
    targets
        .iter()
        .for_each(|t| buf.extend_from_slice(&t.to_le_bytes()));
    weights
        .iter()
        .for_each(|w| buf.extend_from_slice(&w.to_le_bytes()));
    buf
}

/// Runs `gala detect` on `bytes` saved as `name`, asserting a clean
/// failure whose stderr contains every string in `expect`.
fn assert_rejected(name: &str, bytes: &[u8], expect: &[&str]) {
    let path = temp_file(name, bytes);
    let out = Command::new(env!("CARGO_BIN_EXE_gala"))
        .arg("detect")
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{name}: detect succeeded");
    assert_ne!(out.status.code(), Some(101), "{name}: panicked: {stderr}");
    assert!(!stderr.contains("panicked at"), "{name}: {stderr}");
    for want in expect {
        assert!(
            stderr.contains(want),
            "{name}: expected {want:?} in {stderr:?}"
        );
    }
}

#[test]
fn text_with_hostile_weights_is_rejected() {
    for (name, w) in [("nan.txt", "nan"), ("inf.txt", "inf"), ("neg.txt", "-1")] {
        let text = format!("0 1 1\n1 2 2\n2 0 {w}\n");
        assert_rejected(name, text.as_bytes(), &["line 3", "invalid weight", w]);
    }
}

#[test]
fn text_with_a_malformed_token_is_rejected() {
    assert_rejected(
        "token.txt",
        b"# header\n0 1\n1 x2\n",
        &["line 3", "invalid target 'x2'"],
    );
}

#[test]
fn truncated_v2_container_is_rejected() {
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)]);
    let bytes = io::to_bytes(&b.build());
    assert_rejected("truncated.bin", &bytes[..bytes.len() - 5], &["truncated"]);
}

#[test]
fn v1_container_without_a_reverse_arc_is_rejected() {
    // Arc 0 -> 1 with no 1 -> 0.
    let bytes = v1_container(2, &[0, 1, 1], &[1], &[1.0]);
    assert_rejected(
        "asym.bin",
        &bytes,
        &["corrupt graph", "edge (0,1) has no reverse edge"],
    );
}

#[test]
fn v1_container_with_an_out_of_range_target_is_rejected() {
    let bytes = v1_container(2, &[0, 1, 2], &[1, 9], &[1.0, 1.0]);
    assert_rejected(
        "range.bin",
        &bytes,
        &["corrupt graph", "target 9 out of range"],
    );
}
