//! The BSP iteration state of Algorithm 1.
//!
//! The parallel Louvain algorithm keeps, between supersteps:
//!
//! * `comm[v]` — the community id `C[v]` (ids are drawn from `0..n`, the
//!   initial singleton ids, and never grow),
//! * `d_self[v]` — the weight `d_{C[v]}(v)` between `v` and its own
//!   community, **excluding** `v`'s self-loop (the loop moves with `v` and
//!   cancels out of every gain comparison),
//! * `d_tot[c]` — the community total `D_V(C)` (full weighted degrees),
//! * `comm_size[c]` — member counts (for the singleton-swap guard),
//! * `moved[v]` / `comm_changed[c]` — what happened in the previous
//!   superstep, the inputs of the movement-based pruning strategies,
//! * `min_d_tot` — `min_C D_V(C)` over non-empty communities, the extra
//!   BSP-provided state the MG pruning bound needs (Eq. 6).
//!
//! It also caches each vertex's self-loop weight for the round, so the
//! per-superstep passes ([`BspState::modularity`], the MG bound) do not
//! binary-search the adjacency for it.

use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition, VertexId};
use rayon::prelude::*;
use std::sync::Arc;

/// Mutable state carried across BSP supersteps of Louvain phase 1.
#[derive(Clone, Debug)]
pub struct BspState {
    /// Cached `2|E|`.
    pub m2: f64,
    /// Resolution parameter γ of generalised (Reichardt–Bornholdt)
    /// modularity: γ = 1 is classic Louvain; γ > 1 favours smaller
    /// communities (the paper's Section 1 cites adjustable resolution as
    /// the standard fix for modularity's small-community blindness).
    pub resolution: f64,
    /// Community id per vertex.
    pub comm: Vec<CommunityId>,
    /// Weight between each vertex and its community (self-loop excluded).
    pub d_self: Vec<f64>,
    /// `D_V(C)` per community id slot (slots `0..n`).
    pub d_tot: Vec<f64>,
    /// Member count per community id slot.
    pub comm_size: Vec<u32>,
    /// Whether each vertex moved in the previous superstep.
    pub moved: Vec<bool>,
    /// Whether each community gained or lost a member in the previous
    /// superstep (the strict strategy's "community set changed" signal).
    pub comm_changed: Vec<bool>,
    /// `min_C D_V(C)` over non-empty communities.
    pub min_d_tot: f64,
    /// Number of completed supersteps.
    pub iteration: usize,
    /// Self-loop weight per vertex, read once per round; empty when the
    /// graph has no self-loop. Clones (best-state snapshots) share it.
    loops: Arc<[f64]>,
}

/// Summary of one superstep's community moves. The move list is what the
/// delta weight update (Section 3.5) consumes: each moved vertex "informs
/// its neighbors of its new community".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MoveSummary {
    /// `(vertex, old community, new community)` for every moved vertex, in
    /// ascending vertex order.
    pub moves: Vec<(VertexId, CommunityId, CommunityId)>,
}

impl MoveSummary {
    /// Number of vertices whose community id changed.
    pub fn num_moved(&self) -> usize {
        self.moves.len()
    }
}

impl BspState {
    /// Initial state: every vertex in its own singleton community,
    /// classic modularity (γ = 1).
    pub fn new(graph: &Graph) -> Self {
        Self::with_resolution(graph, 1.0)
    }

    /// Initial state with an explicit resolution parameter γ > 0.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not finite and positive.
    pub fn with_resolution(graph: &Graph, resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "resolution must be finite and positive, got {resolution}"
        );
        let n = graph.num_vertices();
        let d_tot: Vec<f64> = (0..n).map(|v| graph.degree_w(v as VertexId)).collect();
        let min_d_tot = non_empty_min(&d_tot, &vec![1u32; n]);
        let mut loops: Vec<f64> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| graph.self_loop(v))
            .collect();
        if loops.iter().all(|&l| l == 0.0) {
            loops = Vec::new();
        }
        Self {
            m2: graph.total_weight(),
            resolution,
            comm: (0..n as CommunityId).collect(),
            d_self: vec![0.0; n],
            d_tot,
            comm_size: vec![1; n],
            moved: vec![false; n],
            comm_changed: vec![false; n],
            min_d_tot,
            iteration: 0,
            loops: loops.into(),
        }
    }

    /// `graph.self_loop(v)` for the graph this state was built on, from
    /// the round's cache.
    #[inline]
    pub fn self_loop(&self, v: VertexId) -> f64 {
        self.loops.get(v as usize).copied().unwrap_or(0.0)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.comm.len()
    }

    /// The current assignment as a [`Partition`].
    pub fn partition(&self) -> Partition {
        Partition::from_assignment(self.comm.clone())
    }

    /// `D_V(C[v])` with `v`'s own degree removed — the stay-side community
    /// total under the extraction convention.
    #[inline]
    pub fn d_tot_without(&self, v: VertexId, graph: &Graph) -> f64 {
        self.d_tot[self.comm[v as usize] as usize] - graph.degree_w(v)
    }

    /// The gain comparator at this state's resolution:
    /// `d_vc − γ·d_v·D'_V(C)/m2` (see [`crate::modularity::gain_score`];
    /// γ = 1 reduces to it exactly). Every kernel ranks candidates with
    /// this, so resolution flows through the whole system consistently.
    #[inline]
    pub fn score(&self, d_vc: f64, d_v: f64, d_tot_wo_v: f64) -> f64 {
        d_vc - self.resolution * d_v * d_tot_wo_v / self.m2
    }

    /// Recomputes `d_self` for every vertex by scanning its neighbors —
    /// the *naive* weight maintenance of Algorithm 1 lines 6–7.
    pub fn recompute_d_self(&mut self, graph: &Graph) {
        let comm = &self.comm;
        (0..graph.num_vertices() as VertexId)
            .into_par_iter()
            .map(|v| {
                let cv = comm[v as usize];
                graph
                    .neighbors(v)
                    .filter(|&(u, _)| u != v && comm[u as usize] == cv)
                    .map(|(_, w)| w)
                    .sum()
            })
            .collect_into_vec(&mut self.d_self);
    }

    /// Applies the superstep's decisions: updates `comm`, `d_tot`,
    /// `comm_size`, `moved`, `comm_changed`, and `min_d_tot`. Does **not**
    /// touch `d_self` — that is the weight-maintenance step's job (see
    /// [`crate::weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `next_comm` does not hold exactly one community per
    /// vertex.
    pub fn apply_moves(&mut self, graph: &Graph, next_comm: &[CommunityId]) -> MoveSummary {
        assert_eq!(
            next_comm.len(),
            self.comm.len(),
            "apply_moves needs one community per vertex"
        );
        let mut moves = Vec::new();
        self.comm_changed.iter_mut().for_each(|c| *c = false);
        for (v, &new) in next_comm.iter().enumerate() {
            let old = self.comm[v];
            if old != new {
                moves.push((v as VertexId, old, new));
                self.moved[v] = true;
                let d_v = graph.degree_w(v as VertexId);
                self.d_tot[old as usize] -= d_v;
                self.d_tot[new as usize] += d_v;
                self.comm_size[old as usize] -= 1;
                self.comm_size[new as usize] += 1;
                self.comm_changed[old as usize] = true;
                self.comm_changed[new as usize] = true;
                self.comm[v] = new;
            } else {
                self.moved[v] = false;
            }
        }
        self.min_d_tot = non_empty_min(&self.d_tot, &self.comm_size);
        self.iteration += 1;
        MoveSummary { moves }
    }

    /// Generalised modularity of the current assignment in `O(n)` from the
    /// maintained state:
    /// `Q_γ = Σ_v (d_self[v] + loop_v)/m2 − γ·Σ_C (D_V(C)/m2)²`.
    ///
    /// Exact whenever `d_self` is up to date (checked against the
    /// from-scratch [`crate::modularity::modularity`] in tests); reduces to
    /// classic modularity at γ = 1. `graph` must be the graph the state
    /// was built on: the loop weights come from the state's cache.
    pub fn modularity(&self, graph: &Graph) -> f64 {
        debug_assert_eq!(graph.num_vertices(), self.num_vertices());
        if self.m2 == 0.0 {
            return 0.0;
        }
        let internal: f64 = (0..self.comm.len())
            .map(|v| self.d_self[v] + self.self_loop(v as VertexId))
            .sum();
        let squares: f64 = self
            .d_tot
            .iter()
            .zip(&self.comm_size)
            .filter(|&(_, &size)| size > 0)
            .map(|(&dt, _)| (dt / self.m2) * (dt / self.m2))
            .sum();
        internal / self.m2 - self.resolution * squares
    }
}

fn non_empty_min(d_tot: &[f64], comm_size: &[u32]) -> f64 {
    d_tot
        .iter()
        .zip(comm_size)
        .filter(|&(_, &size)| size > 0)
        .map(|(&dt, _)| dt)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use gala_graph::generators::fixtures;

    #[test]
    fn initial_state_matches_graph() {
        let g = fixtures::two_cliques(4);
        let s = BspState::new(&g);
        assert_eq!(s.comm, (0..8).collect::<Vec<_>>());
        assert_eq!(s.d_tot[3], g.degree_w(3));
        assert_eq!(s.comm_size, vec![1; 8]);
        assert_eq!(s.min_d_tot, 3.0); // non-bridge clique vertices
        assert!(s.d_self.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn apply_moves_updates_totals() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        let mut next = s.comm.clone();
        next[0] = 1; // move vertex 0 into community 1
        let summary = s.apply_moves(&g, &next);
        assert_eq!(summary.num_moved(), 1);
        assert_eq!(summary.moves, vec![(0, 0, 1)]);
        assert!(s.moved[0] && !s.moved[1]);
        assert_eq!(s.comm_size[0], 0);
        assert_eq!(s.comm_size[1], 2);
        assert_eq!(s.d_tot[1], g.degree_w(0) + g.degree_w(1));
        assert!(s.comm_changed[0] && s.comm_changed[1] && !s.comm_changed[2]);
        assert_eq!(s.iteration, 1);
    }

    #[test]
    #[should_panic(expected = "one community per vertex")]
    fn apply_moves_rejects_a_short_assignment() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        s.apply_moves(&g, &[0; 5]);
    }

    #[test]
    fn min_d_tot_ignores_empty_communities() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        let mut next = s.comm.clone();
        next[0] = 1;
        s.apply_moves(&g, &next);
        // Community 0 now empty (d_tot 0): min must come from live ones.
        assert!(s.min_d_tot > 0.0);
    }

    #[test]
    fn state_modularity_matches_from_scratch() {
        let g = fixtures::ring_of_cliques(3, 4);
        let mut s = BspState::new(&g);
        // Merge each clique into its first vertex's community.
        let next: Vec<u32> = (0..12).map(|v| (v / 4 * 4) as u32).collect();
        s.apply_moves(&g, &next);
        s.recompute_d_self(&g);
        let q_state = s.modularity(&g);
        let q_scratch = modularity(&g, &s.partition());
        assert!(
            (q_state - q_scratch).abs() < 1e-12,
            "{q_state} vs {q_scratch}"
        );
    }

    #[test]
    fn loop_cache_matches_graph_and_is_shared_by_clones() {
        let g = fixtures::ring_of_cliques(3, 4);
        let s = BspState::new(&g);
        assert!(s.loops.is_empty(), "loop-free graph cached its zeros");
        let next: Vec<u32> = (0..12).map(|v| (v / 4 * 4) as u32).collect();
        let mut merged = s.clone();
        merged.apply_moves(&g, &next);
        let coarse = gala_graph::coarsen::coarsen(&g, &merged.partition()).graph;
        let c = BspState::new(&coarse);
        assert!(coarse.vertices().all(|v| coarse.self_loop(v) > 0.0));
        for v in coarse.vertices() {
            assert_eq!(c.self_loop(v).to_bits(), coarse.self_loop(v).to_bits());
        }
        assert!(Arc::ptr_eq(&c.loops, &c.clone().loops));
        let q_scratch = modularity(&coarse, &c.partition());
        assert!((c.modularity(&coarse) - q_scratch).abs() < 1e-12);
    }

    #[test]
    fn d_tot_without_subtracts_own_degree() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        assert_eq!(s.d_tot_without(0, &g), 0.0); // singleton
    }

    #[test]
    fn recompute_d_self_counts_same_community_neighbors() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        let next: Vec<u32> = vec![0, 0, 0, 3, 3, 3];
        s.apply_moves(&g, &next);
        s.recompute_d_self(&g);
        assert_eq!(s.d_self[0], 2.0); // two intra-clique edges
        assert_eq!(s.d_self[2], 2.0); // bridge edge leaves community
    }
}
