//! Host reference DecideAndMove: rayon over vertices, each vertex's
//! non-loop neighbors folded on the thread's [`Fold`] — the Grappolo CPU
//! strategy without a per-vertex allocation.
//!
//! The fold's dense index replaced a linear search (below degree 32) and a
//! stamped open-addressed table (at or above it). In `decide` span wall ns
//! per decided arc (median of three native traces per benchmark workload,
//! 2-vCPU guest), width 1 went 16.9 → 14.7 on `dense`, 23.2 → 18.9 on
//! `social`, 32.8 → 34.3 on `lfr` and 28.5 → 29.9 on `web`; width 2 fell
//! on all four: 12.6 → 10.8, 15.9 → 13.3, 20.6 → 15.6 and 16.5 → 14.7.
//!
//! This kernel defines decide's *canonical accumulation order*: `d_vc` is
//! summed in neighbor-list order and candidates are listed in
//! first-occurrence order. The simulated GPU kernels reproduce it, so all
//! kernels agree bit-for-bit on unit-weight graphs.

use super::{choose_with_margin, SHUFFLE_DEGREE_THRESHOLD};
use crate::pruning::certificate::Certificates;
use crate::state::BspState;
use gala_graph::fold::{with_fold, Fold};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};

/// Decides every vertex of `work`, writing its next community to the same
/// position of `next`, each on its thread's [`Fold`]. The pool chunks'
/// tallies sum to the routing split. With `certs`, every decided vertex's
/// stay certificate is recorded (or cleared) as it is decided. The pass
/// goes to the pool by the arcs it folds, not by the vertices: a short
/// list of high-degree vertices, as on a coarse level, is worth splitting.
pub(crate) fn decide_list(
    graph: &Graph,
    state: &BspState,
    work: &[VertexId],
    certs: Option<&Certificates>,
    next: &mut Vec<CommunityId>,
) -> FoldCounts {
    let arcs = work.iter().map(|&v| graph.degree(v)).sum();
    let counts = rayon::par_map_costed_accum_into(
        work,
        arcs,
        next,
        FoldCounts::default,
        |&v, counts: &mut FoldCounts| {
            counts.count(graph.degree(v));
            with_fold(|fold| decide_vertex(fold, v, graph, state, certs))
        },
    );
    counts
        .into_iter()
        .fold(FoldCounts::default(), |sum, c| FoldCounts {
            shuffle: sum.shuffle + c.shuffle,
            hash: sum.hash + c.hash,
        })
}

/// Decision for a single vertex: aggregate `(community, weight)` over the
/// neighbor list (skipping the self-loop), then apply the shared rule.
/// Runs on the calling thread's [`Fold`], so one call costs `O(deg(v))`
/// once the thread's index covers the graph.
pub fn decide_one(v: VertexId, graph: &Graph, state: &BspState) -> CommunityId {
    with_fold(|fold| decide_vertex(fold, v, graph, state, None))
}

/// How many vertices a decide pass decided on each side of
/// [`SHUFFLE_DEGREE_THRESHOLD`]: the workload-aware dispatcher's routing
/// split, `shuffle` below the threshold and `hash` at or above it. The
/// fold itself takes every degree the same way; this is only a count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FoldCounts {
    pub(crate) shuffle: u64,
    pub(crate) hash: u64,
}

impl FoldCounts {
    /// Counts one vertex of `degree` neighbors.
    fn count(&mut self, degree: usize) {
        if degree < SHUFFLE_DEGREE_THRESHOLD {
            self.shuffle += 1;
        } else {
            self.hash += 1;
        }
    }

    /// Every vertex the pass decided.
    pub(crate) fn total(self) -> u64 {
        self.shuffle + self.hash
    }
}

/// Aggregates `v`'s neighborhood on `fold`, picks its next community
/// with [`super::choose`] and records `v`'s stay certificate into `certs`.
fn decide_vertex(
    fold: &mut Fold,
    v: VertexId,
    graph: &Graph,
    state: &BspState,
    certs: Option<&Certificates>,
) -> CommunityId {
    let cands = aggregate(fold, v, graph, state);
    let (next, margin) = choose_with_margin(v, graph, state, cands);
    if let Some(certs) = certs {
        certs.record(v, margin, graph, state);
    }
    next
}

/// Folds every non-loop neighbor's weight into its community, in
/// neighbor-list order, and returns `v`'s candidates.
fn aggregate<'f>(
    fold: &'f mut Fold,
    v: VertexId,
    graph: &Graph,
    state: &BspState,
) -> &'f [(CommunityId, f64)] {
    fold.begin(graph.num_vertices());
    for (&u, &w) in graph.neighbor_ids(v).iter().zip(graph.neighbor_weights(v)) {
        if u != v {
            fold.add(state.comm[u as usize], w);
        }
    }
    fold.finish()
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

/// `g`'s state after two all-active supersteps, so candidates span
/// communities of several members.
#[cfg(test)]
pub(crate) fn settled_state(g: &Graph) -> BspState {
    use super::{decide, KernelKind};
    use crate::weight::{self, WeightUpdateMode};
    let mut s = BspState::new(g);
    for _ in 0..2 {
        let out = decide(KernelKind::Cpu, g, &s, &vec![true; g.num_vertices()]);
        let summary = s.apply_moves(g, &out.next_comm);
        weight::update(WeightUpdateMode::Delta, g, &mut s, &summary);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, NativeBackend};
    use crate::kernels::hashtable::HashConfig;
    use crate::kernels::{choose, decide, DecideOutput, DecideScratch, KernelKind};
    use crate::weight::{self, WeightUpdateMode};
    use gala_gpu::profile::Profiler;
    use gala_graph::coarsen::{coarsen, coarsen_into, CoarsenScratch};
    use gala_graph::generators::fixtures;
    use gala_graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn inactive_vertices_keep_their_community() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let mut active = vec![true; 6];
        active[1] = false;
        let out = decide(KernelKind::Cpu, &g, &s, &active);
        assert_eq!(out.next_comm[1], 1);
    }

    #[test]
    fn first_iteration_merges_toward_smaller_ids() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let out = decide(KernelKind::Cpu, &g, &s, &[true; 6]);
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
        // The hub fills many index entries; the leaves then reuse the index.
        let g = fixtures::star(40);
        let s = BspState::new(&g);
        let mut fold = Fold::default();
        for v in [0, 1, 0, 2] {
            let cands = aggregate(&mut fold, v, &g, &s);
            assert_eq!(cands, hashmap_candidates(v, &g, &s), "vertex {v}");
            assert!(fold.is_closed(), "vertex {v}");
        }
    }

    /// `cands` as bit patterns: the candidates, their first-occurrence
    /// order, and every `d_vc` bit.
    fn bits(cands: &[(CommunityId, f64)]) -> Vec<(CommunityId, u64)> {
        cands.iter().map(|&(c, w)| (c, w.to_bits())).collect()
    }

    #[test]
    fn fold_index_is_empty_between_vertices_and_levels() {
        // The thread's one index serves decide on a large level, on a
        // smaller coarse (self-looped) level that uses only a prefix of it,
        // and on the large level again, with contraction rows (id space
        // k < n) folded on the same thread in between.
        let large = weighted_planted(20, 40, 12.0, 0.3, 7);
        let large_state = settled_state(&large);
        let partition = large_state.partition();
        let contracted = coarsen_into(&large, &partition, &mut CoarsenScratch::default());
        let coarse = contracted.graph;
        assert!(coarse.num_vertices() < large.num_vertices());
        let coarse_state = BspState::new(&coarse);
        let mut cscratch = CoarsenScratch::default();
        for (g, s) in [
            (&large, &large_state),
            (&coarse, &coarse_state),
            (&large, &large_state),
        ] {
            for v in g.vertices() {
                let cands = with_fold(|fold| aggregate(fold, v, g, s).to_vec());
                assert_eq!(
                    bits(&cands),
                    bits(&hashmap_candidates(v, g, s)),
                    "candidates of vertex {v} of {}",
                    g.num_vertices()
                );
                assert!(with_fold(|fold| fold.is_closed()), "vertex {v}");
                if v % 97 == 0 {
                    let rows = rayon::with_parallelism(1, || {
                        coarsen_into(&large, &partition, &mut cscratch).graph
                    });
                    assert!(with_fold(|fold| fold.is_closed()), "rows after {v}");
                    assert_eq!(rows.targets(), coarse.targets(), "rows after {v}");
                    assert!(
                        rows.arc_weights()
                            .map(f64::to_bits)
                            .eq(coarse.arc_weights().map(f64::to_bits)),
                        "row weights after {v}"
                    );
                }
            }
        }
    }

    /// Checks the fold, the simulated `Cpu` kernel and native
    /// `WorkloadAware` against the `HashMap` reference over a few real
    /// supersteps of `g`.
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
                assert_eq!(
                    bits(aggregate(&mut fold, v, g, &s)),
                    bits(&hashmap_candidates(v, g, &s)),
                    "candidates of vertex {v} at step {step}"
                );
            }
            for width in [1, 2, 8] {
                let cpu =
                    rayon::with_parallelism(width, || decide(KernelKind::Cpu, g, &s, &active));
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
        let coarse = coarsen(g, &settled_state(g).partition()).graph;
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

        /// The same check where round 0 already routes both ways: vertex
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
