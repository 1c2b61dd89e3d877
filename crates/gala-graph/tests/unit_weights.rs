//! The unit-weight representation rule, on every constructor and loader:
//! a graph stores no per-arc weight array exactly when every stored arc
//! weight is 1.0. The builder, the text loader, the streaming builder, the
//! v1 and v2 containers (owned and mapped), reordering and contraction all
//! apply it, at pool widths 1, 2 and 8, and each accessor reads the same
//! weights, degrees and total weight, to the bit, as an explicit-weights
//! reference computed here.

use gala_graph::coarsen::coarsen;
use gala_graph::stream::StreamingBuilder;
use gala_graph::{io, reorder, Graph, GraphBuilder, Partition, VertexId};
use std::collections::BTreeMap;

const N: usize = 7;
const WIDTHS: [usize; 3] = [1, 2, 8];

/// An undirected edge `(u, v, w)`.
type Edge = (u32, u32, f64);

/// Two triangles joined by an edge, listed out of order and in both
/// directions, every weight 1; vertex 6 is isolated.
const UNIT: [Edge; 7] = [
    (2, 0, 1.0),
    (0, 1, 1.0),
    (5, 3, 1.0),
    (1, 2, 1.0),
    (3, 4, 1.0),
    (2, 3, 1.0),
    (4, 5, 1.0),
];

/// Edge lists: the unit one, and variants that do or do not keep it unit.
fn cases() -> Vec<(&'static str, Vec<Edge>, bool)> {
    let with = |extra: &[Edge]| UNIT.iter().chain(extra).copied().collect();
    let mut zero = UNIT.to_vec();
    zero[3].2 = 0.0;
    let mut two = UNIT.to_vec();
    two[6].2 = 2.0;
    vec![
        ("unit", UNIT.to_vec(), true),
        // Merges with (0, 1) to weight 2.
        ("duplicate", with(&[(1, 0, 1.0)]), false),
        // Stored at twice its weight, 2.
        ("self-loop", with(&[(4, 4, 1.0)]), false),
        ("zero", zero, false),
        ("two", two, false),
        // Stored at 1.0, so the graph is still unit.
        ("half self-loop", with(&[(5, 5, 0.5)]), true),
    ]
}

/// The stored graph of an edge list, one explicit weight per arc: rows
/// sorted by target, duplicates summed, self-loops doubled.
struct Explicit {
    rows: Vec<Vec<(VertexId, f64)>>,
}

impl Explicit {
    fn of(n: usize, edges: &[Edge]) -> Self {
        let mut rows = vec![BTreeMap::new(); n];
        for &(u, v, w) in edges {
            if u == v {
                *rows[u as usize].entry(v).or_insert(0.0) += 2.0 * w;
            } else {
                *rows[u as usize].entry(v).or_insert(0.0) += w;
                *rows[v as usize].entry(u).or_insert(0.0) += w;
            }
        }
        let rows = rows.into_iter().map(|r| r.into_iter().collect()).collect();
        Self { rows }
    }

    fn unit(&self) -> bool {
        self.rows.iter().flatten().all(|&(_, w)| w == 1.0)
    }

    fn offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0];
        for row in &self.rows {
            offsets.push(offsets.last().unwrap() + row.len());
        }
        offsets
    }

    fn arcs(&self) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.rows.iter().flatten().copied()
    }

    /// The same graph with vertex `v` renamed `new_id[v]`.
    fn renamed(&self, new_id: &[VertexId]) -> Self {
        let mut rows = vec![Vec::new(); self.rows.len()];
        for (v, row) in self.rows.iter().enumerate() {
            let mut row: Vec<_> = row.iter().map(|&(u, w)| (new_id[u as usize], w)).collect();
            row.sort_by_key(|&(u, _)| u);
            rows[new_id[v] as usize] = row;
        }
        Self { rows }
    }

    /// A v1 container around the explicit arrays.
    fn v1_container(&self) -> Vec<u8> {
        let mut buf = b"GALAGRF1".to_vec();
        buf.extend_from_slice(&(self.rows.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.arcs().count() as u64).to_le_bytes());
        for o in self.offsets() {
            buf.extend_from_slice(&(o as u64).to_le_bytes());
        }
        self.arcs()
            .for_each(|(u, _)| buf.extend_from_slice(&u.to_le_bytes()));
        self.arcs()
            .for_each(|(_, w)| buf.extend_from_slice(&w.to_le_bytes()));
        buf
    }
}

/// Every accessor of `g` against the reference, to the bit.
fn assert_matches(g: &Graph, r: &Explicit, what: &str) {
    assert_eq!(g.num_vertices(), r.rows.len(), "{what}");
    assert_eq!(g.has_unit_weights(), r.unit(), "{what}: representation");
    assert_eq!(g.offsets(), r.offsets(), "{what}");
    let bits = |ws: &mut dyn Iterator<Item = f64>| ws.map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(&mut g.arc_weights()),
        bits(&mut r.arcs().map(|(_, w)| w)),
        "{what}: arc weights"
    );
    let mut degrees = Vec::new();
    for (v, row) in r.rows.iter().enumerate() {
        let v = v as VertexId;
        let ids: Vec<VertexId> = row.iter().map(|&(u, _)| u).collect();
        assert_eq!(g.neighbor_ids(v), ids, "{what}: row {v}");
        assert_eq!(
            bits(&mut g.neighbor_weights(v).iter().copied()),
            bits(&mut row.iter().map(|&(_, w)| w)),
            "{what}: row {v}"
        );
        let pairs = |it: &mut dyn Iterator<Item = (VertexId, f64)>| {
            it.map(|(u, w)| (u, w.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(pairs(&mut g.neighbors(v)), pairs(&mut row.iter().copied()));
        for &(u, w) in row {
            assert_eq!(g.edge_weight(v, u).map(f64::to_bits), Some(w.to_bits()));
        }
        let looped = row.iter().find(|&&(u, _)| u == v).map_or(0.0, |&(_, w)| w);
        assert_eq!(
            g.self_loop(v).to_bits(),
            looped.to_bits(),
            "{what}: loop {v}"
        );
        let degree: f64 = row.iter().map(|&(_, w)| w).sum();
        assert_eq!(g.degree_w(v).to_bits(), degree.to_bits(), "{what}: d({v})");
        degrees.push(degree);
    }
    let total: f64 = degrees.iter().sum();
    assert_eq!(g.total_weight().to_bits(), total.to_bits(), "{what}: total");
}

fn text_of(edges: &[Edge], weighted: bool) -> String {
    let mut text = format!("#vertices {N}\n");
    for &(u, v, w) in edges {
        text += &match weighted {
            true => format!("{u} {v} {w}\n"),
            false => format!("{u} {v}\n"),
        };
    }
    text
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gala_unit_{}_{name}", std::process::id()))
}

#[test]
fn every_constructor_applies_the_rule() {
    for (case, edges, unit) in cases() {
        let r = Explicit::of(N, &edges);
        assert_eq!(r.unit(), unit, "{case}");
        let mut reference: Option<Graph> = None;
        for width in WIDTHS {
            let what = |path: &str| format!("{case}, {path}, width {width}");
            let built = rayon::with_parallelism(width, || {
                let mut b = GraphBuilder::new(N);
                b.extend_edges(edges.iter().copied());
                b.build()
            });
            assert_matches(&built, &r, &what("builder"));
            // The same graph at every width.
            assert_eq!(reference.get_or_insert_with(|| built.clone()), &built);

            let loads = rayon::with_parallelism(width, || {
                let mut loads = vec![];
                let text = text_of(&edges, true);
                loads.push(("text", io::read_edge_list(text.as_bytes()).unwrap()));
                if edges.iter().all(|e| e.2 == 1.0) {
                    let bare = text_of(&edges, false);
                    loads.push(("bare text", io::read_edge_list(bare.as_bytes()).unwrap()));
                }
                for chunk in [3, 1 << 20] {
                    let mut s = StreamingBuilder::new(N).with_chunk_arcs(chunk);
                    s.extend_edges(edges.iter().copied());
                    loads.push(("streaming", s.finish().unwrap()));
                }
                loads.push(("v1", io::from_bytes(&r.v1_container()).unwrap()));
                loads.push(("v2 bytes", io::from_bytes(&io::to_bytes(&built)).unwrap()));
                let path = temp_path(&format!("{width}.bin"));
                io::save_binary(&built, &path).unwrap();
                loads.push(("v2 owned", io::load_binary(&path).unwrap()));
                loads.push((
                    "v2 mapped",
                    io::load_binary_mapped(&path).unwrap().graph().clone(),
                ));
                std::fs::remove_file(&path).unwrap();
                loads.push((
                    "singletons",
                    coarsen(&built, &Partition::singletons(N)).graph,
                ));
                loads
            });
            for (path, g) in loads {
                assert_matches(&g, &r, &what(path));
                assert_eq!(g, built, "{}", what(path));
            }

            let ordering = rayon::with_parallelism(width, || reorder::degree_order(&built));
            let mut new_id = vec![0; N];
            for (new, &old) in ordering.old_id().iter().enumerate() {
                new_id[old as usize] = new as VertexId;
            }
            let reordered = rayon::with_parallelism(width, || reorder::apply(&built, &ordering));
            assert_matches(&reordered, &r.renamed(&new_id), &what("reorder"));

            // Merging 0 and 1 turns their edge into a self-loop of weight 2.
            let merged = Partition::from_assignment(vec![0, 0, 2, 3, 4, 5, 6]);
            let coarse = rayon::with_parallelism(width, || coarsen(&built, &merged));
            let mapped: Vec<_> = edges
                .iter()
                .map(|&(u, v, w)| (u.max(1) - 1, v.max(1) - 1, w))
                .collect();
            assert_matches(
                &coarse.graph,
                &Explicit::of(N - 1, &mapped),
                &what("contraction"),
            );
        }
    }
}

/// A container larger than one IO chunk whose only weight other than 1.0
/// is its last arc, so the weight array is allocated and back-filled in
/// the last chunk; and its unit twin, which loads without one.
#[test]
fn a_late_weight_across_chunk_boundaries_keeps_the_array() {
    let n = 100_000u32;
    let path = |last: f64| {
        let mut b = GraphBuilder::new(n as usize);
        b.extend_edges((1..n).map(|v| (v - 1, v, if v == n - 1 { last } else { 1.0 })));
        b.build()
    };
    for last in [1.0, 2.0] {
        let g = path(last);
        assert_eq!(g.has_unit_weights(), last == 1.0);
        assert_eq!(g.arc_weights().last(), Some(last));
        let file = temp_path(&format!("late_{last}.bin"));
        io::save_binary(&g, &file).unwrap();
        assert!(std::fs::metadata(&file).unwrap().len() > 3 << 20);
        for width in WIDTHS {
            let (owned, mapped) = rayon::with_parallelism(width, || {
                let owned = io::load_binary(&file).unwrap();
                (
                    owned,
                    io::load_binary_mapped(&file).unwrap().graph().clone(),
                )
            });
            for loaded in [owned, mapped] {
                assert_eq!(loaded, g, "last {last}, width {width}");
                assert_eq!(loaded.total_weight().to_bits(), g.total_weight().to_bits());
            }
        }
        std::fs::remove_file(&file).unwrap();
    }
}
