//! Modularity-gain–based pruning (MG) — GALA's strategy (paper Section 3.3,
//! Eq. 6 / Theorem 6), restated under the extraction convention used by our
//! DecideAndMove (see [`crate::modularity`]).
//!
//! ## Soundness
//!
//! Let `d_v = d(v)`, `ℓ_v` its self-loop weight, `cv = C[v]`, and write the
//! gain comparator (all kernels use it) as
//!
//! ```text
//! stay  S    = d_self(v) − d_v · (D_V(cv) − d_v) / m2
//! move  M(T) = d_{T}(v)  − d_v · D_V(T) / m2          (T ≠ cv)
//! ```
//!
//! Two upper bounds, both available from BSP state *before* the superstep:
//!
//! 1. `d_T(v) ≤ (d_v − ℓ_v) − d_self(v)` — at best, every non-loop neighbor
//!    outside `cv` sits in the single community `T`;
//! 2. `D_V(T) ≥ minD := min over non-empty communities of D_V(C)`.
//!
//! Hence `M(T) ≤ M̄ = (d_v − ℓ_v) − d_self(v) − d_v·minD/m2`, and if
//!
//! ```text
//! 2·d_self(v) − (d_v − ℓ_v) + (minD − D_V(cv) + d_v) · d_v / m2  ≥  0
//! ```
//!
//! then `S ≥ M̄ ≥ M(T)` for every possible target: DecideAndMove cannot find
//! a strictly better community, so skipping `v` loses no modularity —
//! Theorem 6. (When `S` exactly *equals* the best move score, DecideAndMove
//! may still perform a zero-gain tie-break move to a smaller community id;
//! suppressing it is modularity-neutral, which is what the theorem
//! guarantees. The property tests pin down exactly this contract.)

use crate::state::BspState;
use gala_graph::{Graph, VertexId};
use rayon::prelude::*;

/// Classifies vertices under MG. `true` = active.
pub fn classify(graph: &Graph, state: &BspState) -> Vec<bool> {
    let mut out = Vec::new();
    classify_into(graph, state, &mut out);
    out
}

/// [`classify`] into a recycled buffer.
pub(crate) fn classify_into(graph: &Graph, state: &BspState, out: &mut Vec<bool>) {
    (0..graph.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| !is_provably_unmoved(v, graph, state))
        .collect_into_vec(out);
}

/// Evaluates the Eq. 6 bound for a single vertex: `true` means no move can
/// yield a strictly positive gain over staying.
#[inline]
pub fn is_provably_unmoved(v: VertexId, graph: &Graph, state: &BspState) -> bool {
    margin(v, graph, state) >= 0.0
}

/// The left-hand side of the Eq. 6 bound, `S − M̄` in gain-score units:
/// how far the stay score is above the best score any move could reach.
/// `+∞` for an isolated vertex, which has nowhere to go. Stay
/// certificates ([`crate::pruning`]) are built from it.
#[inline]
pub(crate) fn margin(v: VertexId, graph: &Graph, state: &BspState) -> f64 {
    let d_v = graph.degree_w(v);
    if d_v == 0.0 {
        return f64::INFINITY;
    }
    let loop_v = state.self_loop(v);
    let d_self = state.d_self[v as usize];
    let d_tot_cv = state.d_tot[state.comm[v as usize] as usize];
    // At resolution γ the degree terms of both scores carry γ, so the
    // bound's community-total term scales by γ too (γ = 1 is Eq. 6).
    2.0 * d_self - (d_v - loop_v)
        + state.resolution * (state.min_d_tot - d_tot_cv + d_v) * d_v / state.m2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{decide, KernelKind};
    use gala_graph::generators::fixtures;

    /// After merging each clique, interior vertices satisfy the bound.
    #[test]
    fn core_vertices_pruned_after_stabilisation() {
        let g = fixtures::two_cliques(6);
        let mut s = BspState::new(&g);
        let next: Vec<u32> = (0..12).map(|v| if v < 6 { 0 } else { 6 }).collect();
        s.apply_moves(&g, &next);
        s.recompute_d_self(&g);
        let active = classify(&g, &s);
        // Clique interiors (no bridge): provably unmoved.
        assert!(!active[1], "interior vertex should be pruned");
        assert!(!active[8], "interior vertex should be pruned");
    }

    #[test]
    fn isolated_vertex_always_pruned() {
        let mut b = gala_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let s = BspState::new(&g);
        assert!(is_provably_unmoved(2, &g, &s));
    }

    /// The soundness contract: any vertex MG prunes would not make a
    /// strictly-better move if DecideAndMove ran on it.
    #[test]
    fn pruned_vertices_would_not_move_two_cliques() {
        let g = fixtures::two_cliques(5);
        let mut s = BspState::new(&g);
        // Drive a couple of real iterations with full processing.
        for _ in 0..3 {
            let active = vec![true; g.num_vertices()];
            let out = decide(KernelKind::Cpu, &g, &s, &active);
            let next = out.next_comm.clone();
            s.apply_moves(&g, &next);
            s.recompute_d_self(&g);
            // Check MG's claims against the *next* full pass.
            let mg_active = classify(&g, &s);
            let truth = decide(KernelKind::Cpu, &g, &s, &vec![true; g.num_vertices()]);
            for (v, &kept_active) in mg_active.iter().enumerate() {
                if !kept_active && truth.next_comm[v] != s.comm[v] {
                    // A pruned vertex wanted to move: only legal if it is a
                    // zero-gain tie-break (checked by the property tests);
                    // here on unit weights it must simply not happen.
                    panic!("MG false negative at vertex {v}");
                }
            }
        }
    }

    #[test]
    fn vertex_with_external_pull_stays_active() {
        // Bridge endpoints keep an incentive to reconsider.
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        let next: Vec<u32> = vec![0, 0, 0, 3, 3, 3];
        s.apply_moves(&g, &next);
        s.recompute_d_self(&g);
        let active = classify(&g, &s);
        // Interior vertices 0,1 and 4,5: d_self = 2 of degree 2 → pruned.
        assert!(!active[0] && !active[1]);
        // Bridge endpoints 2,3 have an external edge; the bound is looser
        // there (may or may not fire) — just assert the call runs and the
        // interiors were the pruned ones.
    }
}
