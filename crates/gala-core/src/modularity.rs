//! Modularity `Q` (paper Eq. 1) and the vertex-move gain `ΔQ` (paper Eq. 2).
//!
//! ## Gain convention
//!
//! The paper's Eq. 2 evaluates `ΔQ_{v→C}` with `D_V(C)` taken as-is. We use
//! the standard *extraction convention* implemented by Grappolo: the moving
//! vertex is first removed from its community, so when scoring "stay in
//! `C[v]`" the community total is `D_V(C[v]) − d(v)`. Both conventions pick
//! the same argmax over *foreign* communities; the extraction convention
//! additionally makes the stay-vs-move comparison exact, which the MG
//! pruning soundness proof (see [`crate::pruning`]) relies on.
//!
//! For a vertex `v` sitting alone (extracted) and joining community `C`,
//! the `(d(v)/m2)²` penalty of its singleton community exactly cancels the
//! cross term it adds to `C`, leaving
//!
//! ```text
//! ΔQ_{v→C} = 2/m2 · ( d_C(v) − d(v)·D'_V(C)/m2 )
//! ```
//!
//! where `m2 = 2|E|`. We compare candidates by the *gain score*
//! `d_C(v) − d(v)·D'_V(C)/m2` and scale by `2/m2` only where an absolute
//! `ΔQ` is needed.

use gala_graph::{Graph, Partition};

/// The comparator used to rank candidate communities: the non-constant part
/// of `ΔQ` (see module docs). `d_vc` is the weight between the vertex and
/// the candidate community, `d_v` the vertex's weighted degree, and
/// `d_tot_wo_v` the candidate's total weight **excluding `v` itself** when
/// the candidate is the vertex's current community.
#[inline]
pub fn gain_score(d_vc: f64, d_v: f64, d_tot_wo_v: f64, m2: f64) -> f64 {
    d_vc - d_v * d_tot_wo_v / m2
}

/// Modularity `Q` of `partition` over `graph` (Eq. 1), computed from
/// scratch in `O(n + m)`.
///
/// Returns 0 for an empty graph (the natural extension: no edges, no
/// structure to reward or punish).
pub fn modularity(graph: &Graph, partition: &Partition) -> f64 {
    modularity_with_resolution(graph, partition, 1.0)
}

/// Generalised (Reichardt–Bornholdt) modularity with resolution γ:
/// `Q_γ = Σ_C [ D_C(C)/m2 − γ·(D_V(C)/m2)² ]`. γ = 1 is Eq. 1.
pub fn modularity_with_resolution(graph: &Graph, partition: &Partition, gamma: f64) -> f64 {
    assert_eq!(
        partition.len(),
        graph.num_vertices(),
        "partition must cover the graph"
    );
    let m2 = graph.total_weight();
    if m2 == 0.0 {
        return 0.0;
    }
    let n = graph.num_vertices();
    let comm = partition.assignment();
    let max_id = comm.iter().copied().max().unwrap_or(0) as usize;
    if max_id >= 2 * n + 2 {
        // Pathologically sparse id space: renumber to keep memory bounded.
        let (renum, _) = partition.renumbered();
        return modularity_with_resolution(graph, &renum, gamma);
    }
    let mut d_in = vec![0.0f64; max_id + 1];
    let mut d_tot = vec![0.0f64; max_id + 1];
    for v in graph.vertices() {
        let c = comm[v as usize] as usize;
        d_tot[c] += graph.degree_w(v);
        for (u, w) in graph.neighbors(v) {
            if u == v {
                d_in[c] += w; // self-loop stored doubled: counts fully
            } else if comm[u as usize] as usize == c {
                d_in[c] += w; // each internal edge visited from both sides
            }
        }
    }
    d_in.iter()
        .zip(&d_tot)
        .map(|(&din, &dtot)| din / m2 - gamma * (dtot / m2) * (dtot / m2))
        .sum()
}

/// [`modularity_with_resolution`] of the partition `coarse` was contracted
/// by, read off the contracted graph in `O(k)`: super-vertex `c` carries
/// community `c`'s internal weight `D_C(c)` as its self-loop and its total
/// `D_V(c)` as its weighted degree. `m2` is the *original* graph's total
/// weight, so a hierarchy level's Q needs no pass over the original graph.
///
/// The terms and their order are those of the from-scratch sum, so on
/// integer weights the two agree bit for bit; otherwise each community's
/// weights were summed in another order and they agree to rounding.
pub fn contracted_modularity(coarse: &Graph, m2: f64, gamma: f64) -> f64 {
    if m2 == 0.0 {
        return 0.0;
    }
    coarse
        .vertices()
        .map(|c| {
            let (din, dtot) = (coarse.self_loop(c), coarse.degree_w(c));
            din / m2 - gamma * (dtot / m2) * (dtot / m2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;
    use gala_graph::GraphBuilder;

    #[test]
    fn singletons_q_is_negative_degree_term() {
        // Q over singleton communities = -Σ (d(v)/m2)^2.
        let g = fixtures::two_cliques(4);
        let p = Partition::singletons(g.num_vertices());
        let m2 = g.total_weight();
        let expected: f64 = g
            .vertices()
            .map(|v| -(g.degree_w(v) / m2) * (g.degree_w(v) / m2))
            .sum();
        assert!((modularity(&g, &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn two_cliques_truth_has_high_q() {
        let g = fixtures::two_cliques(6);
        let q = modularity(&g, &fixtures::two_cliques_truth(6));
        assert!(q > 0.45, "q = {q}");
        assert!(q < 0.5);
    }

    #[test]
    fn all_in_one_community_q_is_zero() {
        let g = fixtures::two_cliques(5);
        let p = Partition::from_assignment(vec![0; g.num_vertices()]);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn q_bounded_above_by_one() {
        let g = fixtures::ring_of_cliques(6, 5);
        let q = modularity(&g, &fixtures::ring_of_cliques_truth(6, 5));
        assert!(q <= 1.0 && q > 0.5);
    }

    #[test]
    fn self_loops_count_in_d_in() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 1.0); // stored 2.0
        let g = b.build();
        let together = Partition::from_assignment(vec![0, 0]);
        // d_in = 2 (edge both sides) + 2 (loop) = 4, d_tot = 4, m2 = 4:
        // Q = 4/4 - 1 = 0.
        assert!(modularity(&g, &together).abs() < 1e-12);
        let apart = Partition::from_assignment(vec![0, 1]);
        // d_in(C0) = 2 (loop), d_tot(C0) = 3, d_tot(C1) = 1:
        // Q = 2/4 - (3/4)^2 - (1/4)^2 = -0.125
        assert!((modularity(&g, &apart) + 0.125).abs() < 1e-12);
    }

    #[test]
    fn coarsening_preserves_modularity() {
        // Q of the fine partition equals Q of the coarse graph over
        // singleton super-communities — the hierarchy invariant.
        let g = fixtures::ring_of_cliques(4, 5);
        let p = fixtures::ring_of_cliques_truth(4, 5);
        let c = gala_graph::coarsen::coarsen(&g, &p);
        let q_fine = modularity(&g, &p);
        let q_coarse = modularity(&c.graph, &Partition::singletons(c.num_communities));
        assert!((q_fine - q_coarse).abs() < 1e-12, "{q_fine} vs {q_coarse}");
        let q_contracted = contracted_modularity(&c.graph, g.total_weight(), 1.0);
        assert_eq!(q_contracted.to_bits(), q_fine.to_bits());
    }

    #[test]
    fn noncontiguous_ids_handled() {
        let g = fixtures::two_cliques(4);
        let huge_ids: Vec<u32> = (0..8)
            .map(|v| if v < 4 { 1_000_000_000 } else { 2_000_000_000 })
            .collect();
        let p1 = Partition::from_assignment(huge_ids);
        let p2 = fixtures::two_cliques_truth(4);
        assert!((modularity(&g, &p1) - modularity(&g, &p2)).abs() < 1e-12);
    }

    #[test]
    fn gain_score_matches_brute_force_delta_q() {
        // Moving a vertex between communities: ΔQ computed via gain scores
        // must equal Q(after) - Q(before) computed from scratch.
        let g = fixtures::two_cliques(4);
        let mut p = fixtures::two_cliques_truth(4);
        let m2 = g.total_weight();
        let v = 3u32; // bridge endpoint in community 0
        let d_v = g.degree_w(v);
        let (mut d_v0, mut d_v1) = (0.0, 0.0);
        for (u, w) in g.neighbors(v) {
            match p.community_of(u) {
                0 => d_v0 += w,
                1 => d_v1 += w,
                _ => unreachable!(),
            }
        }
        let d_tot0: f64 = (0..4).map(|x| g.degree_w(x)).sum();
        let d_tot1: f64 = (4..8).map(|x| g.degree_w(x)).sum();
        let stay = gain_score(d_v0, d_v, d_tot0 - d_v, m2);
        let go = gain_score(d_v1, d_v, d_tot1, m2);
        let q_before = modularity(&g, &p);
        p.assign(v, 1);
        let q_after = modularity(&g, &p);
        let predicted = 2.0 / m2 * (go - stay);
        assert!(
            ((q_after - q_before) - predicted).abs() < 1e-12,
            "actual {} vs predicted {predicted}",
            q_after - q_before
        );
    }

    #[test]
    fn delta_q_from_score_matches_isolated_join() {
        // Moving an isolated (extracted) vertex into a community: full ΔQ.
        let g = fixtures::two_cliques(3);
        let m2 = g.total_weight();
        // Vertex 0 alone vs joining community of {1, 2}.
        let before = Partition::from_assignment(vec![0, 1, 1, 2, 2, 2]);
        let after = Partition::from_assignment(vec![1, 1, 1, 2, 2, 2]);
        let v = 0u32;
        let d_v = g.degree_w(v);
        let d_vc: f64 = g
            .neighbors(v)
            .filter(|&(u, _)| u != v && before.community_of(u) == 1)
            .map(|(_, w)| w)
            .sum();
        let d_tot1 = g.degree_w(1) + g.degree_w(2);
        let score = gain_score(d_vc, d_v, d_tot1, m2);
        // The module-docs formula: ΔQ = 2/m2 · score for an extracted vertex.
        let predicted = 2.0 / m2 * score;
        let actual = modularity(&g, &after) - modularity(&g, &before);
        assert!(
            (actual - predicted).abs() < 1e-12,
            "{actual} vs {predicted}"
        );
    }

    #[test]
    fn resolution_one_matches_classic() {
        let g = fixtures::ring_of_cliques(4, 5);
        let p = fixtures::ring_of_cliques_truth(4, 5);
        assert_eq!(modularity(&g, &p), modularity_with_resolution(&g, &p, 1.0));
    }

    #[test]
    fn q_decreases_with_resolution() {
        // The degree-penalty term grows with γ for any non-trivial partition.
        let g = fixtures::two_cliques(5);
        let p = fixtures::two_cliques_truth(5);
        let q1 = modularity_with_resolution(&g, &p, 1.0);
        let q2 = modularity_with_resolution(&g, &p, 2.0);
        assert!(q2 < q1);
    }

    #[test]
    fn empty_graph_q_zero() {
        let g = GraphBuilder::new(3).build();
        let p = Partition::singletons(3);
        assert_eq!(modularity(&g, &p), 0.0);
    }
}
