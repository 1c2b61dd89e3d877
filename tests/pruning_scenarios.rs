//! The two scenarios of the paper's Figure 2 / Example 1, built by hand:
//!
//! * Scenario 1 — the neighbors of `v` are unmoved, but a *non-neighbor*
//!   left one of the neighboring communities, changing its total weight so
//!   that `v` should now move. RM (which only looks at neighbor movement)
//!   misclassifies `v` as inactive — a false negative. MG keeps `v` active.
//! * Scenario 2 — one neighbor of `v` in a *different* community moved, but
//!   staying is clearly optimal for `v`. SM and RM misclassify `v` as
//!   active — a false positive. MG proves `v` unmoved and prunes it.

use gala::core::kernels::cpu;
use gala::core::pruning::{classify, PruningKind};
use gala::core::state::BspState;
use gala::graph::{Graph, GraphBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0)
}

/// Scenario 1 (Lemma 4's counterexample). Layout:
///
/// * `v = 0` with two symmetric neighbor pairs: {1, 2} = community A and
///   {3, 4} = community B, each connected to `v` with weight 1
///   (`d_A(v) = d_B(v) = 2`).
/// * `v` currently belongs to A, which carries extra internal weight
///   (edge 1–2), so `D_V(A) − d(v) = 4`.
/// * Vertex 5 used to be in B and just left for its own community; with it
///   gone `D_V(B) = 2.5 < 4`: by Eq. 2, moving to B now beats staying —
///   even though none of `v`'s neighbors moved.
fn scenario1() -> (Graph, BspState) {
    let mut b = GraphBuilder::new(6);
    b.add_edge(0, 1, 1.0);
    b.add_edge(0, 2, 1.0);
    b.add_edge(0, 3, 1.0);
    b.add_edge(0, 4, 1.0);
    b.add_edge(1, 2, 1.0); // inside A
    b.add_edge(5, 3, 0.5); // 5's old tie to B
    let g = b.build();
    let mut s = BspState::new(&g);
    // Communities: A = 1 (members 0,1,2), B = 3 (members 3,4), 5 alone.
    // (Vertex 5 *just moved out* of B in the previous superstep.)
    let comm = vec![1u32, 1, 1, 3, 3, 5];
    s.comm = comm;
    s.comm_size = vec![0, 3, 0, 2, 0, 1];
    s.d_tot = vec![0.0; 6];
    for v in 0..6u32 {
        s.d_tot[s.comm[v as usize] as usize] += g.degree_w(v);
    }
    s.recompute_d_self(&g);
    s.min_d_tot = s
        .d_tot
        .iter()
        .zip(&s.comm_size)
        .filter(|&(_, &n)| n > 0)
        .map(|(&d, _)| d)
        .fold(f64::INFINITY, f64::min);
    s.moved = vec![false, false, false, false, false, true]; // only 5 moved
    s.comm_changed = vec![false, false, false, true, false, true]; // B lost 5
    s.iteration = 1;
    (g, s)
}

#[test]
fn scenario1_ground_truth_v_moves() {
    let (g, s) = scenario1();
    // m2 = 11; stay = 2 − 4·4/11 ≈ 0.545; move-to-B = 2 − 4·2.5/11 ≈ 1.09.
    let next = cpu::decide_one(0, &g, &s);
    assert_eq!(next, 3, "v should defect to community B");
}

#[test]
fn scenario1_rm_produces_false_negative_mg_does_not() {
    let (g, s) = scenario1();
    let rm = classify(PruningKind::Relaxed, &g, &s, &mut rng());
    let mg = classify(PruningKind::Gain, &g, &s, &mut rng());
    // Neither v nor its neighbors moved -> RM wrongly prunes v.
    assert!(
        !rm[0],
        "RM should misclassify v as inactive (the paper's FN)"
    );
    // MG sees the changed community totals through the gain bound.
    assert!(mg[0], "MG must keep v active");
}

/// Scenario 2. Layout: `v = 0` deep inside a 5-clique (community K), plus a
/// single weak tie to vertex 5, which just hopped between two outside
/// communities. Staying is clearly optimal for `v`.
fn scenario2() -> (Graph, BspState) {
    let mut b = GraphBuilder::new(8);
    for i in 0..5u32 {
        for j in (i + 1)..5 {
            b.add_edge(i, j, 1.0);
        }
    }
    b.add_edge(0, 5, 0.1); // weak external tie
    b.add_edge(5, 6, 1.0);
    b.add_edge(6, 7, 1.0);
    let g = b.build();
    let mut s = BspState::new(&g);
    // K = community 0 (members 0..5); 5 just moved from its own community
    // into community 6 (with vertices 6, 7).
    s.comm = vec![0, 0, 0, 0, 0, 6, 6, 6];
    s.comm_size = vec![5, 0, 0, 0, 0, 0, 3, 0];
    s.d_tot = vec![0.0; 8];
    for v in 0..8u32 {
        s.d_tot[s.comm[v as usize] as usize] += g.degree_w(v);
    }
    s.recompute_d_self(&g);
    s.min_d_tot = s
        .d_tot
        .iter()
        .zip(&s.comm_size)
        .filter(|&(_, &n)| n > 0)
        .map(|(&d, _)| d)
        .fold(f64::INFINITY, f64::min);
    s.moved = vec![false, false, false, false, false, true, false, false];
    s.comm_changed = vec![false, false, false, false, false, true, true, false];
    s.iteration = 1;
    (g, s)
}

#[test]
fn scenario2_ground_truth_v_stays() {
    let (g, s) = scenario2();
    assert_eq!(cpu::decide_one(0, &g, &s), 0, "v must stay in its clique");
}

#[test]
fn scenario2_sm_and_rm_false_positive_mg_prunes() {
    let (g, s) = scenario2();
    let sm = classify(PruningKind::Strict, &g, &s, &mut rng());
    let rm = classify(PruningKind::Relaxed, &g, &s, &mut rng());
    let mg = classify(PruningKind::Gain, &g, &s, &mut rng());
    // Neighbor 5 moved: both movement-based strategies wake v up.
    assert!(sm[0], "SM misclassifies v as active (the paper's FP)");
    assert!(rm[0], "RM misclassifies v as active (the paper's FP)");
    // MG's bound: d_self = 4, external weight 0.1 -> provably unmoved.
    assert!(!mg[0], "MG must prune v");
}

#[test]
fn mg_plus_rm_combines_both_angles() {
    // In scenario 2, MG+RM prunes v (MG side); in a quiet graph it also
    // prunes everything RM prunes.
    let (g, s) = scenario2();
    let mgrm = classify(PruningKind::GainRelaxed, &g, &s, &mut rng());
    assert!(!mgrm[0]);
    // ... and inherits RM's unsoundness in scenario 1.
    let (g1, s1) = scenario1();
    let mgrm1 = classify(PruningKind::GainRelaxed, &g1, &s1, &mut rng());
    assert!(!mgrm1[0], "MG+RM accepts RM's false negative by design");
}

#[test]
fn damped_mg_decides_unmoved_vertices_as_mg_does() {
    // `v` did not move in either scenario, so damping leaves it to MG:
    // active in scenario 1, pruned in scenario 2.
    for (name, (g, s), want_active) in [
        ("scenario 1", scenario1(), true),
        ("scenario 2", scenario2(), false),
    ] {
        let mg = classify(PruningKind::Gain, &g, &s, &mut rng());
        let mgd = classify(PruningKind::GainDamped, &g, &s, &mut rng());
        assert_eq!(mgd[0], want_active, "{name}");
        for v in 0..g.num_vertices() {
            if !s.moved[v] {
                assert_eq!(mgd[v], mg[v], "{name}: vertex {v}");
            }
        }
    }
}
