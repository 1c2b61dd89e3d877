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
//!
//! Applying a superstep costs O(moved), not O(n): the state remembers
//! which `moved` and `comm_changed` flags it set last time and resets only
//! those, and it keeps `min_d_tot` exact by tracking one community that
//! attains it, rescanning all totals only when that community grew or
//! emptied. An undo log of the writes lets the driver return to an
//! earlier state without keeping a copy of it.

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
    /// graph has no self-loop. Clones share it.
    loops: Arc<[f64]>,
    /// The vertices `moved` marks: what the next apply resets.
    moved_list: Vec<VertexId>,
    /// The communities `comm_changed` marks.
    changed_list: Vec<CommunityId>,
    /// A non-empty community whose total is `min_d_tot`.
    min_comm: CommunityId,
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
        let comm_size = vec![1; n];
        let (min_d_tot, min_comm) = non_empty_min(&d_tot, &comm_size);
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
            comm_size,
            moved: vec![false; n],
            comm_changed: vec![false; n],
            min_d_tot,
            iteration: 0,
            loops: loops.into(),
            moved_list: Vec::new(),
            changed_list: Vec::new(),
            min_comm,
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
        self.recompute_d_self_logged(graph, None);
    }

    /// [`Self::recompute_d_self`], first letting `undo` keep the state
    /// it overwrites.
    pub(crate) fn recompute_d_self_logged(&mut self, graph: &Graph, undo: Option<&mut Undo>) {
        if let Some(undo) = undo {
            undo.reserve_d_self(self, self.num_vertices());
        }
        let comm = &self.comm;
        (0..graph.num_vertices() as VertexId)
            .into_par_iter()
            .map(|v| {
                let cv = comm[v as usize];
                // Folded from +0.0, as the delta walk sums: `sum` starts
                // at −0.0, which would give a vertex with no neighbour in
                // its community another zero bit from each path.
                graph
                    .neighbors(v)
                    .filter(|&(u, _)| u != v && comm[u as usize] == cv)
                    .fold(0.0, |d, (_, w)| d + w)
            })
            .collect_into_vec(&mut self.d_self);
    }

    /// Applies the superstep's decisions given as a full assignment: the
    /// moves are the vertices whose entry differs from `comm`, applied
    /// through [`Self::apply_move_list`].
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
        let moves: Vec<(VertexId, CommunityId)> = (0..next_comm.len() as VertexId)
            .zip(next_comm)
            .filter(|&(v, &c)| c != self.comm[v as usize])
            .map(|(v, &c)| (v, c))
            .collect();
        self.apply_move_list(graph, &moves)
    }

    /// Applies the superstep's moves, `(vertex, new community)` in
    /// ascending vertex order: updates `comm`, `d_tot`, `comm_size`,
    /// `moved`, `comm_changed`, and `min_d_tot` in O(moves), plus a rescan
    /// of the totals when the community attaining `min_d_tot` grew or
    /// emptied. Does **not** touch `d_self` — that is the
    /// weight-maintenance step's job (see [`crate::weight`]). An entry
    /// naming the vertex's current community is not a move.
    pub fn apply_move_list(
        &mut self,
        graph: &Graph,
        moves: &[(VertexId, CommunityId)],
    ) -> MoveSummary {
        self.apply_logged(graph, moves, None)
    }

    /// [`Self::apply_move_list`], logging the moves into `undo`.
    pub(crate) fn apply_logged(
        &mut self,
        graph: &Graph,
        moves: &[(VertexId, CommunityId)],
        undo: Option<&mut Undo>,
    ) -> MoveSummary {
        debug_assert!(
            moves.windows(2).all(|w| w[0].0 < w[1].0),
            "moves out of order"
        );
        let mut undo = undo.and_then(|undo| undo.reserve_moves(self, moves.len()).then_some(undo));
        // Past an eighth of the flags, clearing all of them is cheaper.
        if 8 * (self.moved_list.len() + self.changed_list.len()) > self.num_vertices() {
            self.moved.fill(false);
            self.comm_changed.fill(false);
            self.moved_list.clear();
            self.changed_list.clear();
        }
        for v in self.moved_list.drain(..) {
            self.moved[v as usize] = false;
        }
        for c in self.changed_list.drain(..) {
            self.comm_changed[c as usize] = false;
        }
        let mut summary = Vec::with_capacity(moves.len());
        for &(v, new) in moves {
            let old = self.comm[v as usize];
            if old == new {
                continue;
            }
            let (o, n) = (old as usize, new as usize);
            if let Some(undo) = undo.as_deref_mut() {
                let d_tot = [self.d_tot[o], self.d_tot[n]];
                undo.moves.push(Move { v, old, new, d_tot });
            }
            summary.push((v, old, new));
            self.moved[v as usize] = true;
            self.moved_list.push(v);
            let d_v = graph.degree_w(v);
            self.d_tot[o] -= d_v;
            self.d_tot[n] += d_v;
            self.comm_size[o] -= 1;
            self.comm_size[n] += 1;
            for c in [old, new] {
                if !self.comm_changed[c as usize] {
                    self.comm_changed[c as usize] = true;
                    self.changed_list.push(c);
                }
            }
            self.comm[v as usize] = new;
        }
        self.update_min_d_tot();
        self.iteration += 1;
        MoveSummary { moves: summary }
    }

    /// Brings `min_d_tot` up to date after the moves that set
    /// `changed_list`. Only the changed communities' totals moved, so
    /// unless the tracked minimum's community grew or emptied, the new
    /// minimum is the smallest of its total and theirs. A minimum is
    /// exact, so this gives the bits a full scan would.
    fn update_min_d_tot(&mut self) {
        let a = self.min_comm as usize;
        if self.comm_size.get(a).is_none_or(|&s| s == 0) || self.d_tot[a] > self.min_d_tot {
            (self.min_d_tot, self.min_comm) = non_empty_min(&self.d_tot, &self.comm_size);
            return;
        }
        let mut min = (self.d_tot[a], self.min_comm);
        for &c in &self.changed_list {
            let d = self.d_tot[c as usize];
            if self.comm_size[c as usize] > 0 && d < min.0 {
                min = (d, c);
            }
        }
        (self.min_d_tot, self.min_comm) = min;
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

/// The smallest total over the non-empty communities, and a community
/// attaining it (`INFINITY` and 0 when every community is empty).
fn non_empty_min(d_tot: &[f64], comm_size: &[u32]) -> (f64, CommunityId) {
    d_tot
        .iter()
        .zip(comm_size)
        .enumerate()
        .filter(|&(_, (_, &size))| size > 0)
        .fold((f64::INFINITY, 0), |min, (c, (&dt, _))| {
            if dt < min.0 {
                (dt, c as CommunityId)
            } else {
                min
            }
        })
}

/// A logged move: `v` left `old` for `new` when the two communities'
/// totals were `d_tot`.
#[derive(Clone, Copy, Debug)]
struct Move {
    v: VertexId,
    old: CommunityId,
    new: CommunityId,
    d_tot: [f64; 2],
}

/// An undo log: what a [`BspState`] was before the writes made since
/// [`Undo::mark`], so [`Undo::restore`] can take the state back to the
/// marked one in O(writes), bit for bit. The phase-1 driver keeps one per
/// round to return to the round's best state.
///
/// Only `comm`, `d_tot` and `d_self` are logged. A restore recounts the
/// member counts from `comm` and sets the `moved` and `comm_changed` flags
/// from the marked state's lists of them, which the mark keeps. A batch of
/// writes that would take the moves past `n/8` entries or the `d_self`
/// writes past `n/4` — a superstep in which much of the graph moves, or a
/// full `d_self` rescan — is not logged: the three arrays are copied
/// instead, once, into buffers the log keeps across marks, and nothing
/// more is logged until the next mark. Restoring copies them back and
/// undoes the writes logged before. A state that is still a round's
/// initial one needs neither: it is built afresh.
#[derive(Debug, Default)]
pub(crate) struct Undo {
    moves: Vec<Move>,
    /// `(v, old d_self[v])` of the `d_self` writes, in batches.
    d_self: Vec<Vec<(VertexId, f64)>>,
    /// How many entries `d_self` holds.
    d_self_len: usize,
    /// `comm`, `d_tot` and `d_self` as copied in place of logging.
    copy: (Vec<CommunityId>, Vec<f64>, Vec<f64>),
    /// Whether `copy` was taken since the mark.
    copied: bool,
    /// Whether the marked state is a round's initial one.
    initial: bool,
    /// The marked state's flag lists and scalars.
    moved_list: Vec<VertexId>,
    changed_list: Vec<CommunityId>,
    min_d_tot: f64,
    min_comm: CommunityId,
    iteration: usize,
    /// Whether the last restore copied the arrays back, and how many
    /// logged writes it undid, for the tests.
    #[cfg(test)]
    pub(crate) restored: (bool, usize),
}

impl Undo {
    /// Forgets every logged write: `state` is the one to return to.
    pub(crate) fn mark(&mut self, state: &BspState) {
        self.moves.clear();
        self.d_self.clear();
        self.d_self_len = 0;
        self.copied = false;
        self.initial = state.iteration == 0;
        self.moved_list.clone_from(&state.moved_list);
        self.changed_list.clone_from(&state.changed_list);
        self.min_d_tot = state.min_d_tot;
        self.min_comm = state.min_comm;
        self.iteration = state.iteration;
    }

    /// Prepares for `moves` more moves in `state`: whether to log them.
    pub(crate) fn reserve_moves(&mut self, state: &BspState, moves: usize) -> bool {
        self.reserve(state, self.moves.len() + moves <= state.num_vertices() / 8)
    }

    /// Prepares for `writes` more `d_self` writes in `state`: whether to
    /// log them.
    pub(crate) fn reserve_d_self(&mut self, state: &BspState, writes: usize) -> bool {
        self.reserve(state, self.d_self_len + writes <= state.num_vertices() / 4)
    }

    /// Whether to log a batch that `fits` the log's bound; copies the
    /// arrays when it does not. Nothing is logged once they are copied,
    /// or while the marked state is the initial one.
    fn reserve(&mut self, state: &BspState, fits: bool) -> bool {
        if self.copied || self.initial {
            return false;
        }
        if fits {
            return true;
        }
        self.copy.0.clone_from(&state.comm);
        self.copy.1.clone_from(&state.d_tot);
        self.copy.2.clone_from(&state.d_self);
        self.copied = true;
        false
    }

    /// Logs a batch of `d_self` writes as `(v, old d_self[v])`, in the
    /// order they were made; only after [`Self::reserve_d_self`] said to.
    pub(crate) fn log_d_self(&mut self, batch: Vec<(VertexId, f64)>) {
        self.d_self_len += batch.len();
        self.d_self.push(batch);
    }

    /// Returns `state`, a state of `graph`, to the marked state by undoing
    /// the logged writes, newest first, and empties the log.
    pub(crate) fn restore(&mut self, graph: &Graph, state: &mut BspState) {
        if self.initial {
            *state = BspState::with_resolution(graph, state.resolution);
            return;
        }
        #[cfg(test)]
        {
            self.restored = (self.copied, self.moves.len() + self.d_self_len);
        }
        if std::mem::take(&mut self.copied) {
            state.comm.clone_from(&self.copy.0);
            state.d_tot.clone_from(&self.copy.1);
            state.d_self.clone_from(&self.copy.2);
        }
        for Move { v, old, new, d_tot } in self.moves.drain(..).rev() {
            state.comm[v as usize] = old;
            [state.d_tot[old as usize], state.d_tot[new as usize]] = d_tot;
        }
        for (v, old) in self
            .d_self
            .drain(..)
            .rev()
            .flat_map(|batch| batch.into_iter().rev())
        {
            state.d_self[v as usize] = old;
        }
        self.d_self_len = 0;
        state.comm_size.fill(0);
        for &c in &state.comm {
            state.comm_size[c as usize] += 1;
        }
        state.moved.fill(false);
        state.comm_changed.fill(false);
        for &v in &self.moved_list {
            state.moved[v as usize] = true;
        }
        for &c in &self.changed_list {
            state.comm_changed[c as usize] = true;
        }
        state.moved_list.clone_from(&self.moved_list);
        state.changed_list.clone_from(&self.changed_list);
        state.min_d_tot = self.min_d_tot;
        state.min_comm = self.min_comm;
        state.iteration = self.iteration;
    }
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
