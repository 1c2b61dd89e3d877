//! Hostile inputs through `gala detect` and `gala analyze`. A malformed
//! input must fail with a typed error — a non-zero exit that is not a panic's 101 or a signal, no
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

/// Runs `gala <cmd...>` on `bytes` saved as `name`, asserting a clean
/// failure whose stderr contains every string in `expect`.
fn assert_rejected(cmd: &[&str], name: &str, bytes: &[u8], expect: &[&str]) {
    assert_rejected_by(
        Command::new(env!("CARGO_BIN_EXE_gala")),
        cmd,
        name,
        bytes,
        expect,
    );
}

/// `gala` started through `sh` under a 4 GB address-space limit, so an
/// allocation sized by a hostile count fails fast instead of taking the
/// machine's memory.
fn gala_under_4gb() -> Command {
    let mut gala = Command::new("sh");
    gala.args([
        "-c",
        "ulimit -v 4000000 && exec \"$0\" \"$@\"",
        env!("CARGO_BIN_EXE_gala"),
    ]);
    gala
}

/// [`assert_rejected`] with the `gala` command line starting at `gala`.
fn assert_rejected_by(mut gala: Command, cmd: &[&str], name: &str, bytes: &[u8], expect: &[&str]) {
    let path = temp_file(name, bytes);
    let out = gala.args(cmd).arg(&path).output().unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{name}: {cmd:?} succeeded");
    assert_ne!(out.status.code(), Some(101), "{name}: panicked: {stderr}");
    // `None` is a signal, e.g. the abort of a failed allocation.
    assert!(out.status.code().is_some(), "{name}: killed: {stderr}");
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
fn stats_of_an_empty_or_edgeless_graph_print_a_zero_total_weight() {
    for (name, text) in [
        ("stats_empty.txt", &b""[..]),
        ("stats_edgeless.txt", b"#vertices 5\n"),
    ] {
        let path = temp_file(name, text);
        let out = Command::new(env!("CARGO_BIN_EXE_gala"))
            .arg("stats")
            .arg(&path)
            .output()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("total weight:    0\n"), "{name}: {stdout}");
    }
}

#[test]
fn text_with_hostile_weights_is_rejected() {
    for (name, w) in [("nan.txt", "nan"), ("inf.txt", "inf"), ("neg.txt", "-1")] {
        let text = format!("0 1 1\n1 2 2\n2 0 {w}\n");
        assert_rejected(
            &["detect"],
            name,
            text.as_bytes(),
            &["line 3", "invalid weight", w],
        );
    }
}

#[test]
fn text_with_a_malformed_token_is_rejected() {
    assert_rejected(
        &["detect"],
        "token.txt",
        b"# header\n0 1\n1 x2\n",
        &["line 3", "invalid target 'x2'"],
    );
}

#[test]
fn a_huge_vertex_id_without_a_directive_is_rejected() {
    // Sized naively, this one edge would allocate offsets for 10^9
    // vertices and abort; `assert_rejected` also rules out a signal exit.
    assert_rejected(
        &["detect"],
        "huge_id.txt",
        b"0 999999999\n",
        &["999999999", "1 edges", "#vertices"],
    );
}

#[test]
fn a_vertices_directive_beyond_u32_ids_is_rejected() {
    // Trusted as written, the first count would overflow the offsets
    // length and the second would allocate 48 GB of offsets.
    for n in ["18446744073709551615", "6000000000"] {
        assert_rejected(
            &["stats"],
            &format!("vertices_{n}.txt"),
            format!("#vertices {n}\n0 1\n").as_bytes(),
            &["line 1", "#vertices", n],
        );
    }
}

#[test]
fn a_vertices_directive_beyond_memory_is_rejected() {
    // 2^32 vertices is a valid count, but its offsets alone need 32 GiB:
    // the reservation fails and names the directive instead of aborting.
    assert_rejected_by(
        gala_under_4gb(),
        &["stats"],
        "vertices_2pow32.txt",
        b"#vertices 4294967296\n0 1\n",
        &["#vertices 4294967296", "vertex arrays"],
    );
}

#[test]
fn compare_rejects_a_vertex_id_out_of_proportion_to_the_file() {
    // Sized by its largest id, this one line would allocate labels for
    // 2^32 vertices.
    let small = temp_file("assign_small.txt", b"0 0\n1 0\n");
    assert_rejected_by(
        gala_under_4gb(),
        &["compare", small.to_str().unwrap()],
        "assign_huge_id.txt",
        b"4294967295 0\n",
        &["line 1", "4294967295"],
    );
    let _ = std::fs::remove_file(small);
}

#[test]
fn truncated_v2_container_is_rejected() {
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)]);
    let bytes = io::to_bytes(&b.build());
    assert_rejected(
        &["detect"],
        "truncated.bin",
        &bytes[..bytes.len() - 5],
        &["truncated"],
    );
    // Cuts inside the header, on both stores: the 8-byte magic, then the
    // rest of the 64-byte v2 header.
    for cut in [0, 4, 8, 20, 63] {
        let header = if cut < 8 { 8 } else { 64 };
        let want = format!("truncated container header ({cut} of {header} bytes)");
        for store in ["owned", "mapped"] {
            assert_rejected(
                &["detect", "--store", store],
                &format!("header_cut_{cut}_{store}.bin"),
                &bytes[..cut],
                &[&want],
            );
        }
    }
}

#[test]
fn checksum_corrupt_v2_container_is_rejected() {
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)]);
    let mut bytes = io::to_bytes(&b.build());
    // Flip a bit of the last weight: the CSR stays well-formed, so only
    // the checksum can catch it.
    *bytes.last_mut().unwrap() ^= 1;
    assert_rejected(&["detect"], "checksum.bin", &bytes, &["checksum mismatch"]);
}

/// `bytes`, a v2 container, with the target of arc `arc` set to `target`
/// and the header's FNV-1a checksum recomputed over the edited sections,
/// so only the loader's own checks can catch the edit.
fn with_target(mut bytes: Vec<u8>, arc: usize, target: u32) -> Vec<u8> {
    let field = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
    let at = field(32) + 4 * arc;
    bytes[at..at + 4].copy_from_slice(&target.to_le_bytes());
    let checksum = bytes[64..].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes[48..56].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn checksum_valid_v2_container_with_an_out_of_range_target_is_rejected() {
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)]);
    let bytes = with_target(io::to_bytes(&b.build()), 1, 1000);
    let want = ["v2 container: corrupt graph: target 1000 out of range (n = 4)"];
    for backend in ["sim", "native"] {
        for store in ["owned", "mapped"] {
            assert_rejected(
                &["detect", "--backend", backend, "--store", store],
                &format!("range_{backend}_{store}.bin"),
                &bytes,
                &want,
            );
        }
    }
}

#[test]
fn v1_container_without_a_reverse_arc_is_rejected() {
    // Arc 0 -> 1 with no 1 -> 0.
    let bytes = v1_container(2, &[0, 1, 1], &[1], &[1.0]);
    assert_rejected(
        &["detect"],
        "asym.bin",
        &bytes,
        &["corrupt graph", "edge (0,1) has no reverse edge"],
    );
}

#[test]
fn v1_container_with_an_out_of_range_target_is_rejected() {
    let bytes = v1_container(2, &[0, 1, 2], &[1, 9], &[1.0, 1.0]);
    assert_rejected(
        &["detect"],
        "range.bin",
        &bytes,
        &["corrupt graph", "target 9 out of range"],
    );
}

#[test]
fn a_deeply_nested_trace_line_is_rejected() {
    // One line of 200,000 `[` used to recurse the JSON parser off the end
    // of its stack; the nesting bound turns it into a parse error.
    assert_rejected(
        &["analyze", "--check"],
        "deep.jsonl",
        &b"[".repeat(200_000),
        &["line 1", "nesting deeper than 128"],
    );
}
