//! Hostile inputs through `gala detect`. A malformed input must fail with
//! a typed error — a non-zero exit that is not a panic's 101, no
//! `panicked at` on stderr, and a message that names the offending line or
//! the corruption. A degenerate but well-formed graph must succeed with its
//! documented partition: singletons when no edge joins two vertices, one
//! community per component when every component is a clique.

use gala_graph::{io, GraphBuilder};
use std::path::PathBuf;
use std::process::Command;

/// A per-process temp path named `name`.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gala_hostile_{}_{name}", std::process::id()))
}

/// Writes `bytes` to a fresh temp file named `name`.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = temp_path(name);
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

/// Runs `gala detect` on `bytes` saved as `name` on both backends,
/// asserting success and that the written assignment groups the vertices
/// as `expect` does (community labels may differ).
fn assert_detected(name: &str, bytes: &[u8], expect: &[u32]) {
    let path = temp_file(name, bytes);
    for backend in ["sim", "native"] {
        let output = temp_path(&format!("{backend}_{name}.out"));
        let out = Command::new(env!("CARGO_BIN_EXE_gala"))
            .arg("detect")
            .arg(&path)
            .args(["--backend", backend, "--quiet", "--output"])
            .arg(&output)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} on {backend}: {stderr}");
        assert!(
            !stderr.contains("panicked at"),
            "{name} on {backend}: {stderr}"
        );
        let written = std::fs::read_to_string(&output).unwrap();
        let _ = std::fs::remove_file(&output);
        let comm: Vec<u32> = written
            .lines()
            .enumerate()
            .map(|(v, line)| {
                let (vertex, c) = line.split_once(' ').unwrap();
                assert_eq!(vertex, v.to_string(), "{name} on {backend}: {written}");
                c.parse().unwrap()
            })
            .collect();
        assert_eq!(
            canonical(&comm),
            canonical(expect),
            "{name} on {backend}: {written}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Relabels communities by first occurrence, so two assignments compare
/// equal exactly when they induce the same partition.
fn canonical(comm: &[u32]) -> Vec<usize> {
    let mut seen: Vec<u32> = Vec::new();
    comm.iter()
        .map(|c| match seen.iter().position(|s| s == c) {
            Some(i) => i,
            None => {
                seen.push(*c);
                seen.len() - 1
            }
        })
        .collect()
}

#[test]
fn degenerate_graphs_get_their_documented_partition() {
    assert_detected("empty.txt", b"", &[]);
    assert_detected("single.txt", b"#vertices 1\n", &[0]);
    assert_detected("edgeless.txt", b"#vertices 5\n", &[0, 1, 2, 3, 4]);
    // A self-loop never pulls a vertex out of its singleton.
    assert_detected("loops.txt", b"0 0\n1 1 2\n2 2 0.5\n", &[0, 1, 2]);
    assert_detected(
        "components.txt",
        b"0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n",
        &[0, 0, 0, 1, 1, 1],
    );
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
fn checksum_corrupt_v2_container_is_rejected() {
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)]);
    let mut bytes = io::to_bytes(&b.build());
    // Flip a bit of the last weight: the CSR stays well-formed, so only
    // the checksum can catch it.
    *bytes.last_mut().unwrap() ^= 1;
    assert_rejected("checksum.bin", &bytes, &["checksum mismatch"]);
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
