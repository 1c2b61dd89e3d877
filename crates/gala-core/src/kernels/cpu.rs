//! Host reference DecideAndMove: rayon over vertices, each chunk of
//! vertices aggregating through one reusable [`Fold`] — the Grappolo CPU
//! strategy without a per-vertex allocation, split by degree the way the
//! paper's workload-aware dispatcher splits its kernels.
//!
//! A vertex with fewer than [`SHUFFLE_DEGREE_THRESHOLD`] neighbors has at
//! most 31 candidate communities, and the fold finds each neighbor's entry
//! by a linear search of the candidate list — the host counterpart of the
//! register-resident warp kernel. At or above the threshold it indexes the
//! candidates through an open-addressed table whose slots carry a
//! per-vertex generation stamp, so moving on to the next vertex advances
//! the stamp instead of emptying the slots the last one filled.
//!
//! This kernel also defines the *canonical accumulation order*: `d_vc` for
//! each community is summed in neighbor-list order and candidates are listed
//! in first-occurrence order, on both sides of the threshold. The simulated
//! GPU kernels reproduce that order, so all kernels agree bit-for-bit on
//! unit-weight graphs.

use super::{choose_with_margin, DecideOutput, SHUFFLE_DEGREE_THRESHOLD};
use crate::pruning::certificate::Certificates;
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Runs the reference kernel over the active vertices.
pub fn decide(graph: &Graph, state: &BspState, active: &[bool]) -> DecideOutput {
    let mut out = DecideOutput::default();
    decide_into(graph, state, active, None, &mut Vec::new(), &mut out);
    out
}

/// [`decide`] writing into `out`, recycling its `next_comm` allocation and
/// the work-list buffer `work`: [`decide_list`] over the active vertices.
pub(crate) fn decide_into(
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    certs: Option<&Certificates>,
    work: &mut Vec<VertexId>,
    out: &mut DecideOutput,
) -> FoldCounts {
    work.clear();
    work.extend((0..active.len() as VertexId).filter(|&v| active[v as usize]));
    let mut next = Vec::new();
    let counts = decide_list(graph, state, work, certs, &mut next);
    out.next_comm.clear();
    out.next_comm.extend_from_slice(&state.comm);
    for (&v, &c) in work.iter().zip(&next) {
        out.next_comm[v as usize] = c;
    }
    out.tally = MemTally::new();
    out.hash_stats = Default::default();
    counts
}

/// Decides every vertex of `work`, writing its next community to the same
/// position of `next`. Each pool chunk threads one [`Fold`] through its
/// vertices; the chunks' tallies sum to how many vertices took each fold.
/// With `certs`, every decided vertex's stay certificate is recorded (or
/// cleared) as it is decided. The pass goes to the pool by the arcs it
/// folds, not by the vertices: a short list of high-degree vertices, as
/// on a coarse level, is worth splitting.
pub(crate) fn decide_list(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    certs: Option<&Certificates>,
    next: &mut Vec<CommunityId>,
) -> FoldCounts {
    let arcs = work.iter().map(|&v| graph.degree(v)).sum();
    let folds = rayon::par_map_costed_accum_into(work, arcs, next, Fold::default, |&v, fold| {
        fold.decide(v, graph, state, certs)
    });
    folds
        .iter()
        .fold(FoldCounts::default(), |sum, f| FoldCounts {
            linear: sum.linear + f.counts.linear,
            hashed: sum.hashed + f.counts.hashed,
        })
}

/// Decision for a single vertex: aggregate `(community, weight)` over the
/// neighbor list (skipping the self-loop), then apply the shared rule.
/// Builds a fresh degree-sized [`Fold`], so one call costs `O(deg(v))`.
pub fn decide_one(v: VertexId, graph: &Graph, state: &BspState) -> CommunityId {
    Fold::default().decide(v, graph, state, None)
}

/// How many vertices a decide pass aggregated by each fold: `linear`
/// below [`SHUFFLE_DEGREE_THRESHOLD`] neighbors, `hashed` at or above it.
/// This is the workload-aware dispatcher's routing split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FoldCounts {
    pub(crate) linear: u64,
    pub(crate) hashed: u64,
}

impl FoldCounts {
    /// Every vertex the pass decided.
    pub(crate) fn total(self) -> u64 {
        self.linear + self.hashed
    }
}

/// Order-preserving community aggregation, reused across vertices.
///
/// `cands` holds `(community, d_vc)` in first-occurrence order. For a
/// vertex at or above the degree threshold, `slots` is an open-addressed
/// index from community id to `cands` position whose first
/// `2^k ≥ 2·deg(v)` entries serve the vertex. A slot is occupied only
/// while it carries the current `stamp`; [`Fold::clear`] advances the
/// stamp, which empties every slot at once. `stamp` never reads 0, the
/// stamp of a slot no vertex has used.
#[derive(Debug)]
pub(crate) struct Fold {
    cands: Vec<(CommunityId, f64)>,
    slots: Vec<Slot>,
    stamp: u32,
    counts: FoldCounts,
}

/// One entry of [`Fold`]'s table: `comm` sits at `cands[pos]` if `stamp`
/// is the fold's current stamp.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    comm: CommunityId,
    pos: u32,
    stamp: u32,
}

impl Default for Fold {
    fn default() -> Self {
        Self {
            cands: Vec::new(),
            slots: Vec::new(),
            stamp: 1,
            counts: FoldCounts::default(),
        }
    }
}

impl Fold {
    /// Aggregates `v`'s neighborhood, picks its next community with
    /// [`super::choose`], records `v`'s stay certificate into `certs`, and
    /// resets the fold for the next vertex.
    fn decide(
        &mut self,
        v: VertexId,
        graph: &Graph,
        state: &BspState,
        certs: Option<&Certificates>,
    ) -> CommunityId {
        self.aggregate(v, graph, state);
        let (next, margin) = choose_with_margin(v, graph, state, &self.cands);
        if let Some(certs) = certs {
            certs.record(v, margin, graph, state);
        }
        self.clear();
        next
    }

    /// Folds every non-loop neighbor's weight into its community's entry,
    /// in neighbor-list order: by linear search below the degree
    /// threshold, through the stamped table at or above it.
    fn aggregate(&mut self, v: VertexId, graph: &Graph, state: &BspState) {
        let degree = graph.degree(v);
        let neighbors = graph
            .neighbors(v)
            .filter(|&(u, _)| u != v)
            .map(|(u, w)| (state.comm[u as usize], w));
        if degree < SHUFFLE_DEGREE_THRESHOLD {
            self.counts.linear += 1;
            for (c, w) in neighbors {
                match self.cands.iter_mut().find(|(key, _)| *key == c) {
                    Some((_, d_vc)) => *d_vc += w,
                    None => self.cands.push((c, w)),
                }
            }
            return;
        }
        self.counts.hashed += 1;
        let bits = (2 * degree).next_power_of_two().trailing_zeros();
        let cap = 1usize << bits;
        if self.slots.len() < cap {
            self.slots.resize(cap, Slot::default());
        }
        let mask = cap - 1;
        for (c, w) in neighbors {
            let mut s = slot(c, bits);
            loop {
                let entry = &mut self.slots[s];
                if entry.stamp != self.stamp {
                    *entry = Slot {
                        comm: c,
                        pos: self.cands.len() as u32,
                        stamp: self.stamp,
                    };
                    self.cands.push((c, w));
                    break;
                }
                if entry.comm == c {
                    self.cands[entry.pos as usize].1 += w;
                    break;
                }
                s = (s + 1) & mask;
            }
        }
    }

    /// Empties `cands` and advances the stamp, so no slot is occupied. When
    /// the stamp wraps, every slot is reset to the never-used stamp 0 first:
    /// otherwise a slot stamped `2^32 - 1` vertices ago would read as live.
    fn clear(&mut self) {
        self.cands.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }
}

/// Home slot of community `c` in a `2^bits`-slot table (Fibonacci hashing).
#[inline]
fn slot(c: CommunityId, bits: u32) -> usize {
    ((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// The reference aggregation the [`Fold`] replaced: a per-vertex
/// `HashMap` from community to `cands` position.
#[cfg(test)]
pub(crate) fn hashmap_candidates(
    v: VertexId,
    graph: &Graph,
    state: &BspState,
) -> Vec<(CommunityId, f64)> {
    use std::collections::HashMap;
    let mut index: HashMap<CommunityId, usize> = HashMap::with_capacity(graph.degree(v));
    let mut cands: Vec<(CommunityId, f64)> = Vec::with_capacity(graph.degree(v));
    for (u, w) in graph.neighbors(v) {
        if u == v {
            continue;
        }
        let c = state.comm[u as usize];
        match index.get(&c) {
            Some(&i) => cands[i].1 += w,
            None => {
                index.insert(c, cands.len());
                cands.push((c, w));
            }
        }
    }
    cands
}

/// A planted-partition graph re-weighted with seeded non-integer weights
/// in `[0.1, 2.0)`, so any change of summation order shows in the low bits
/// of a sum.
#[cfg(test)]
pub(crate) fn weighted_planted(
    communities: usize,
    size: usize,
    internal_degree: f64,
    mixing: f64,
    seed: u64,
) -> Graph {
    use gala_graph::generators::sbm::PlantedPartition;
    use gala_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};
    let g = PlantedPartition {
        num_communities: communities,
        community_size: size,
        internal_degree,
        mixing,
    }
    .generate(seed)
    .graph;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(g.num_vertices());
    for v in g.vertices() {
        for u in g.neighbor_ids(v).iter().copied().filter(|&u| u > v) {
            b.add_edge(v, u, rng.gen_range(0.1..2.0));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, NativeBackend};
    use crate::kernels::hashtable::HashConfig;
    use crate::kernels::{choose, DecideScratch, KernelKind};
    use crate::weight::{self, WeightUpdateMode};
    use gala_gpu::profile::Profiler;
    use gala_graph::coarsen::coarsen;
    use gala_graph::generators::fixtures;
    use gala_graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn inactive_vertices_keep_their_community() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let mut active = vec![true; 6];
        active[1] = false;
        let out = decide(&g, &s, &active);
        assert_eq!(out.next_comm[1], 1);
    }

    #[test]
    fn first_iteration_merges_toward_smaller_ids() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let out = decide(&g, &s, &[true; 6]);
        // All singletons: guard allows only moves to smaller singleton ids.
        assert_eq!(out.next_comm[0], 0);
        assert!(out.next_comm[1] <= 1);
        assert_eq!(out.next_comm[1], 0);
    }

    #[test]
    fn self_loop_penalises_d_tot_but_not_d_vc() {
        // Path 0 - 1 - 2, with and without a heavy self-loop at 0. The loop
        // never enters a candidate's d_vc, but it inflates community 0's
        // D_V, flipping vertex 1's preference.
        let build = |loop_w: f64| {
            let mut b = GraphBuilder::new(3);
            if loop_w > 0.0 {
                b.add_edge(0, 0, loop_w);
            }
            b.add_edge(0, 1, 1.0);
            b.add_edge(1, 2, 1.0);
            b.build()
        };
        // Without the loop: communities 0 and 2 tie on score; the smaller
        // id wins and the singleton guard allows the downhill move.
        let g = build(0.0);
        assert_eq!(decide_one(1, &g, &BspState::new(&g)), 0);
        // With a heavy loop: community 0's expected-edges penalty dominates
        // (score < 0 and < community 2's), so vertex 1 no longer joins it.
        let g = build(10.0);
        assert_ne!(decide_one(1, &g, &BspState::new(&g)), 0);
    }

    #[test]
    fn zero_degree_vertex_never_moves() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let s = BspState::new(&g);
        assert_eq!(decide_one(2, &g, &s), 2);
    }

    #[test]
    fn fold_resets_between_vertices_of_different_degree() {
        // The hub fills a large table; the leaves then reuse its prefix.
        let g = fixtures::star(40);
        let s = BspState::new(&g);
        let mut fold = Fold::default();
        for v in [0, 1, 0, 2] {
            fold.aggregate(v, &g, &s);
            assert_eq!(fold.cands, hashmap_candidates(v, &g, &s), "vertex {v}");
            fold.clear();
            assert!(fold.slots.iter().all(|slot| slot.stamp != fold.stamp));
        }
    }

    #[test]
    fn fold_resets_slots_when_the_stamp_wraps() {
        // Two hubs over disjoint leaves, both on the hashed side.
        let mut b = GraphBuilder::new(82);
        for leaf in 2..42 {
            b.add_edge(0, leaf, 1.0);
            b.add_edge(1, leaf + 40, 1.0);
        }
        let g = b.build();
        let s = BspState::new(&g);
        let mut fold = Fold::default();
        // Hub 0 stamps its slots 1; hub 1 then runs on the last stamp, so
        // the next clear wraps back to stamp 1. Without the reset, hub 0's
        // old slots would read as occupied again.
        fold.aggregate(0, &g, &s);
        fold.clear();
        fold.stamp = u32::MAX;
        fold.aggregate(1, &g, &s);
        assert_eq!(fold.cands, hashmap_candidates(1, &g, &s));
        fold.clear();
        assert_eq!(fold.stamp, 1);
        assert!(fold.slots.iter().all(|slot| slot.stamp != fold.stamp));
        fold.aggregate(0, &g, &s);
        assert_eq!(fold.cands, hashmap_candidates(0, &g, &s));
        assert_eq!(
            fold.counts,
            FoldCounts {
                linear: 0,
                hashed: 3
            }
        );
    }

    /// `cands` as bit patterns: the candidates, their first-occurrence
    /// order, and every `d_vc` bit.
    fn bits(cands: &[(CommunityId, f64)]) -> Vec<(CommunityId, u64)> {
        cands.iter().map(|&(c, w)| (c, w.to_bits())).collect()
    }

    /// Checks the fold, `cpu::decide` and native `WorkloadAware` against
    /// the `HashMap` reference over a few real supersteps of `g`.
    fn assert_fold_matches_reference(g: &Graph) {
        let mut s = BspState::new(g);
        let active = vec![true; g.num_vertices()];
        let mut fold = Fold::default();
        for step in 0..4 {
            let reference: Vec<CommunityId> = g
                .vertices()
                .map(|v| choose(v, g, &s, &hashmap_candidates(v, g, &s)))
                .collect();
            for v in g.vertices() {
                fold.aggregate(v, g, &s);
                assert_eq!(
                    bits(&fold.cands),
                    bits(&hashmap_candidates(v, g, &s)),
                    "candidates of vertex {v} at step {step}"
                );
                fold.clear();
            }
            for width in [1, 2, 8] {
                let cpu = rayon::with_parallelism(width, || decide(g, &s, &active));
                assert_eq!(cpu.next_comm, reference, "cpu, width {width}");
                let mut out = DecideOutput::default();
                rayon::with_parallelism(width, || {
                    NativeBackend.decide(
                        KernelKind::WorkloadAware(HashConfig::default()),
                        g,
                        &s,
                        &active,
                        &mut Profiler::disabled(),
                        &mut DecideScratch::default(),
                        &mut out,
                    )
                });
                assert_eq!(out.next_comm, reference, "native, width {width}");
            }
            let summary = s.apply_moves(g, &reference);
            weight::update(WeightUpdateMode::Delta, g, &mut s, &summary);
            if summary.num_moved() == 0 {
                break;
            }
        }
    }

    /// Checks the fold against the reference on `g` and on the coarse
    /// (self-looped) level two supersteps of `g` produce.
    fn assert_fold_matches_reference_with_coarse(g: &Graph) {
        assert!(
            g.num_vertices() >= rayon::min_par_len(),
            "graph runs sequentially"
        );
        assert_fold_matches_reference(g);
        let mut s = BspState::new(g);
        for _ in 0..2 {
            let out = decide(g, &s, &vec![true; g.num_vertices()]);
            let summary = s.apply_moves(g, &out.next_comm);
            weight::update(WeightUpdateMode::Delta, g, &mut s, &summary);
        }
        let coarse = coarsen(g, &s.partition()).graph;
        assert!(coarse.vertices().any(|v| coarse.self_loop(v) > 0.0));
        assert_fold_matches_reference(&coarse);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The reusable fold is the `HashMap` fold: same candidates, same
        /// `d_vc` bits, same decisions at pool widths 1, 2 and 8, on
        /// non-integer weights and on the coarsened (self-looped) level.
        #[test]
        fn fold_matches_hashmap_reference(
            communities in 24usize..40,
            size in 40usize..60,
            mixing in 0.1f64..0.4,
            seed in any::<u64>(),
        ) {
            let g = weighted_planted(communities, size, 8.0, mixing, seed);
            assert_fold_matches_reference_with_coarse(&g);
        }

        /// The same check where round 0 already takes both folds: vertex
        /// degrees fall on both sides of the 32-neighbor threshold.
        #[test]
        fn fold_matches_hashmap_reference_across_threshold(
            communities in 16usize..24,
            size in 50usize..70,
            mixing in 0.1f64..0.3,
            seed in any::<u64>(),
        ) {
            let g = weighted_planted(communities, size, 26.0, mixing, seed);
            let below = g.vertices().filter(|&v| g.degree(v) < SHUFFLE_DEGREE_THRESHOLD).count();
            prop_assert!(below > 0 && below < g.num_vertices(), "{below} of {} below", g.num_vertices());
            assert_fold_matches_reference_with_coarse(&g);
        }
    }
}
