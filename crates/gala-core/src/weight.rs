//! Community-weight maintenance (paper Section 3.5, Figure 8's "P2").
//!
//! After moves are applied, `d_self[v] = d_{C[v]}(v)` must reflect the new
//! assignment (the MG pruning bound and the O(n) modularity check both read
//! it). Two implementations:
//!
//! * [`WeightUpdateMode::Naive`] — rescan every vertex's neighbors, `O(m)`:
//!   as expensive as DecideAndMove itself, the bottleneck the paper's
//!   Figure 8 shows appearing once DecideAndMove is pruned (stage P1).
//! * [`WeightUpdateMode::Delta`] — each *moved* vertex informs its
//!   neighbors: an unmoved neighbor `u` adjusts its `d_self[u]` by `±w(u,v)`
//!   depending on whether `v` left or joined `u`'s community; moved vertices
//!   rescan only themselves. Cost is proportional to the moved vertices'
//!   edges — the stage-P2 fix.
//!
//! The same walk over the movers' adjacency invalidates the neighbours'
//! stay certificates and hands them to the frontier (see
//! [`crate::pruning`]), so the `mgd` policy's bookkeeping adds no pass of
//! its own.
//!
//! `Delta` falls back to the rescan on a heavy superstep. Natively the
//! walk costs 15–32 ns per moved arc (its deltas are gathered per chunk
//! and applied serially, in move order; clearing certificates adds to
//! that) and the pooled rescan 2.9–4.7 ns per arc of the whole graph.
//! Those are whole-run means over every level of the four benchmark
//! workloads at pool width 2 on a 2-vCPU guest (walk: `dense` 15, `social`
//! and `web` 20, `lfr` 32; unit-weight level-0 rows read their weights
//! from one cached row of ones, which moved neither figure). The walk's
//! cost per arc is lowest on the heavy supersteps the rule decides, so
//! the two cross near a quarter of the arcs there (round 0 of `dense`:
//! at 0.24 of the arcs the walk took 20.6 ms and the rescan 23.6 ms, at
//! 0.37 they took 30.5 and 24.1 ms). Where stay certificates are armed, the heavy
//! superstep is the one [`Certificates::settle`] clears them for, a
//! quarter of the arcs; with none armed the rule stays at half the arcs,
//! which keeps the modelled kernel traffic, and so Fig 8 and the cycle
//! baselines, where they were.

use crate::pruning::certificate::{Certificates, Settled};
use crate::state::{BspState, MoveSummary, Undo};
use gala_gpu::memory::{MemTally, Space};
use gala_graph::{Graph, VertexId};

/// How to maintain `d_self` after each superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WeightUpdateMode {
    /// Full rescan of every vertex (`O(m)`).
    Naive,
    /// Delta propagation from moved vertices (GALA's optimisation).
    #[default]
    Delta,
}

/// Updates `state.d_self` for the moves of the just-applied superstep.
/// `state.comm` must already hold the *new* assignment.
///
/// Returns the simulated memory tally of the maintenance kernel — on the
/// GPU this phase is a kernel like any other, and Figure 8's breakdown is
/// about exactly this cost: the naive rescan reads 3 globals per arc (the
/// same traffic as DecideAndMove's input phase), the delta update touches
/// only the moved vertices' arcs.
pub fn update(
    mode: WeightUpdateMode,
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
) -> MemTally {
    update_certified(
        mode,
        graph,
        state,
        summary,
        &mut Certificates::default(),
        None,
    )
}

/// [`update`] that also maintains armed stay certificates: the drift clock
/// advances past the superstep's moves, and the delta walk clears the
/// certificate of every unmoved neighbour of a mover that did not join
/// the neighbour's community. A full rescan walks no adjacency, so it
/// clears every certificate instead. A superstep heavy enough that walking
/// for them would not pay clears them too ([`Certificates::settle`]) and
/// takes the rescan. No certificate survives such a superstep, and the
/// clock has nothing to time. With `undo`, every `d_self` write is logged
/// there. The tally is that of the update taken.
pub(crate) fn update_certified(
    mode: WeightUpdateMode,
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
    certs: &mut Certificates,
    undo: Option<&mut Undo>,
) -> MemTally {
    let mut tally = MemTally::new();
    match mode {
        WeightUpdateMode::Naive => {
            // The rescan walks no mover's adjacency.
            certs.clear();
            state.recompute_d_self_logged(graph, undo);
            // Per arc: neighbor id + weight + C[u]; per vertex: one store.
            tally.load(Space::Global, 3 * graph.num_arcs() as u64);
            tally.store(Space::Global, graph.num_vertices() as u64);
        }
        WeightUpdateMode::Delta => {
            // Delta traffic is proportional to the moved vertices' arcs
            // (notify + own rescan), paid partly in atomics. When much of
            // the graph moved — the first supersteps — a full rescan is
            // cheaper, so fall back to it (see the module docs); the delta
            // path wins exactly in the pruning-heavy late iterations
            // Figure 8 is about.
            let moved_arcs: u64 = summary
                .moves
                .iter()
                .map(|&(v, _, _)| graph.degree(v) as u64)
                .sum();
            let settled = certs.settle(graph, summary, moved_arcs, state.m2);
            let rescan = match settled {
                Settled::Disarmed => 2 * moved_arcs >= graph.num_arcs() as u64,
                Settled::Cleared => true,
                Settled::Walk => false,
            };
            if rescan {
                state.recompute_d_self_logged(graph, undo);
                tally.load(Space::Global, 3 * graph.num_arcs() as u64);
                tally.store(Space::Global, graph.num_vertices() as u64);
            } else {
                let walk = (settled == Settled::Walk).then_some(certs);
                let deltas = update_delta(graph, state, summary, walk, undo);
                // The modelled kernel makes two passes over the moved
                // vertices' adjacency (notify + own rescan), 3 loads per
                // arc; an atomicAdd only for the neighbors whose d_self
                // actually changes.
                tally.load(Space::Global, 6 * moved_arcs);
                tally.atomic(Space::Global, deltas);
                tally.store(Space::Global, summary.num_moved() as u64);
            }
        }
    }
    tally
}

/// Applies the delta update; returns the number of neighbor `d_self`
/// adjustments actually performed.
///
/// One pass over each moved vertex's adjacency does both jobs: the vertex
/// notifies its *unmoved* neighbors (their `±w` deltas go to a per-chunk
/// buffer) and sums its own fresh `d_self`. Moved neighbors are skipped
/// because they rescan themselves, so the two kinds of write never touch
/// the same entry. The deltas are applied serially in chunk order, which
/// is move order at every pool width, so the float additions into each
/// `d_self[u]` happen in a fixed order whatever the thread schedule.
///
/// With `certs`, the certificate of each unmoved neighbour outside the
/// mover's new community is cleared on the way, and while the frontier is
/// listed the neighbours that held one join it ([`Certificates::admit`]).
/// Those stores all write 0, so their interleaving is immaterial, and the
/// frontier is sorted, so the order the chunks report them in is
/// immaterial too.
fn update_delta(
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
    certs: Option<&mut Certificates>,
    undo: Option<&mut Undo>,
) -> u64 {
    let moved = &state.moved;
    let comm = &state.comm;
    let shared = certs.as_deref();
    let lists = shared.is_some_and(Certificates::lists);
    let mut fresh = Vec::new();
    let chunks = rayon::par_map_accum_into(
        &summary.moves,
        &mut fresh,
        <(Vec<(VertexId, f64)>, Vec<VertexId>)>::default,
        |&(v, old, new), (deltas, invalidated)| {
            let mut d_self = 0.0;
            for (u, w) in graph.neighbors(v) {
                if u == v {
                    continue;
                }
                let cu = comm[u as usize];
                if cu == new {
                    d_self += w;
                }
                if moved[u as usize] {
                    continue;
                }
                // A mover joining `u`'s community only strengthens `u`'s
                // stay, so its certificate survives that.
                if let Some(certs) = shared.filter(|_| cu != new) {
                    if certs.invalidate(u) && lists {
                        invalidated.push(u);
                    }
                }
                let mut delta = 0.0;
                if cu == old {
                    delta -= w;
                }
                if cu == new {
                    delta += w;
                }
                if delta != 0.0 {
                    deltas.push((u, delta));
                }
            }
            d_self
        },
    );
    if let Some(certs) = certs {
        certs.admit(chunks.iter().flat_map(|(_, invalidated)| invalidated));
    }
    let num_deltas = chunks.iter().map(|(deltas, _)| deltas.len()).sum::<usize>();
    let writes = num_deltas + summary.num_moved();
    let mut undo = undo.and_then(|undo| undo.reserve_d_self(state, writes).then_some(undo));
    for (mut deltas, _) in chunks {
        // Each entry keeps what its write overwrote: the batch is its own
        // undo log.
        for (u, delta) in &mut deltas {
            let d_self = &mut state.d_self[*u as usize];
            (*d_self, *delta) = (*d_self + *delta, *d_self);
        }
        if let Some(undo) = undo.as_deref_mut() {
            undo.log_d_self(deltas);
        }
    }
    if let Some(undo) = undo {
        let overwritten = summary
            .moves
            .iter()
            .map(|&(v, _, _)| (v, state.d_self[v as usize]));
        undo.log_d_self(overwritten.collect());
    }
    for (&(v, _, _), d) in summary.moves.iter().zip(fresh) {
        state.d_self[v as usize] = d;
    }
    num_deltas as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{cpu, decide, KernelKind};
    use gala_graph::generators::fixtures;

    /// Delta maintenance must agree with a full rescan after any sequence
    /// of real supersteps: exactly on unit weights, and within 1e-12 of
    /// each vertex's weighted degree on non-integer weights, where the two
    /// sum the same terms in different orders.
    #[test]
    fn delta_matches_naive_over_iterations() {
        let unit = fixtures::ring_of_cliques(6, 5);
        let weighted = cpu::weighted_planted(32, 40, 8.0, 0.3, 7);
        for (g, exact) in [(&unit, true), (&weighted, false)] {
            let mut s = BspState::new(g);
            let mut delta_steps = 0;
            for _ in 0..30 {
                let active = vec![true; g.num_vertices()];
                let out = decide(KernelKind::Cpu, g, &s, &active);
                let summary = s.apply_moves(g, &out.next_comm);
                let tally = update(WeightUpdateMode::Delta, g, &mut s, &summary);
                delta_steps += usize::from(tally.global_atomics > 0);
                let mut reference = s.clone();
                reference.recompute_d_self(g);
                for (v, (&d, &r)) in s.d_self.iter().zip(&reference.d_self).enumerate() {
                    let tolerance = if exact {
                        0.0
                    } else {
                        1e-12 * g.degree_w(v as VertexId)
                    };
                    assert!(
                        (d - r).abs() <= tolerance,
                        "vertex {v} at iter {}: {d} vs {r}",
                        s.iteration
                    );
                }
                if summary.num_moved() == 0 {
                    break;
                }
            }
            assert!(delta_steps > 0, "the delta path never ran (exact: {exact})");
        }
    }

    /// The single-pass update is schedule-independent: `d_self` bits and
    /// the returned tally are identical at pool widths 1, 2 and 8, on a
    /// move set large enough to run in parallel.
    #[test]
    fn delta_is_bit_identical_across_widths() {
        let g = cpu::weighted_planted(100, 50, 8.0, 0.3, 11);
        let mut s = BspState::new(&g);
        for _ in 0..2 {
            let out = decide(KernelKind::Cpu, &g, &s, &vec![true; g.num_vertices()]);
            let summary = s.apply_moves(&g, &out.next_comm);
            update(WeightUpdateMode::Delta, &g, &mut s, &summary);
        }
        // Every third vertex joins its first neighbor's community: enough
        // moves for the parallel path, few enough arcs for the delta path.
        let mut next = s.comm.clone();
        for v in (0..g.num_vertices()).step_by(3) {
            if let Some(&u) = g.neighbor_ids(v as VertexId).first() {
                next[v] = s.comm[u as usize];
            }
        }
        let summary = s.apply_moves(&g, &next);
        assert!(summary.num_moved() >= rayon::min_par_len());
        let runs: Vec<(Vec<u64>, MemTally)> = [1, 2, 8]
            .into_iter()
            .map(|width| {
                let mut t = s.clone();
                let tally = rayon::with_parallelism(width, || {
                    update(WeightUpdateMode::Delta, &g, &mut t, &summary)
                });
                (t.d_self.iter().map(|d| d.to_bits()).collect(), tally)
            })
            .collect();
        assert!(runs[0].1.global_atomics > 0, "the delta path did not run");
        assert_eq!(runs[0], runs[1], "width 2 differs from width 1");
        assert_eq!(runs[0], runs[2], "width 8 differs from width 1");
    }

    /// A superstep whose movers hold between a quarter and half of the arcs
    /// clears armed certificates, so it takes the rescan; with none armed
    /// it takes the delta walk. Both leave the same `d_self`: bit for bit
    /// on unit weights, within 1e-12 of each degree otherwise.
    #[test]
    fn heavy_superstep_rescans_to_the_walks_d_self() {
        let unit = fixtures::ring_of_cliques(40, 6);
        let weighted = cpu::weighted_planted(40, 30, 8.0, 0.3, 5);
        for (g, exact) in [(&unit, true), (&weighted, false)] {
            let mut s = BspState::new(g);
            let out = decide(KernelKind::Cpu, g, &s, &vec![true; g.num_vertices()]);
            let summary = s.apply_moves(g, &out.next_comm);
            update(WeightUpdateMode::Delta, g, &mut s, &summary);
            // Every third vertex joins its first neighbour's community.
            let mut next = s.comm.clone();
            for v in (0..g.num_vertices()).step_by(3) {
                next[v] = s.comm[g.neighbor_ids(v as VertexId)[0] as usize];
            }
            let summary = s.apply_moves(g, &next);
            let moved_arcs: usize = summary.moves.iter().map(|&(v, _, _)| g.degree(v)).sum();
            let m = g.num_arcs();
            assert!(
                4 * moved_arcs >= m && 2 * moved_arcs < m,
                "{moved_arcs} of {m}"
            );

            let mut walked = s.clone();
            let tally = update(WeightUpdateMode::Delta, g, &mut walked, &summary);
            assert!(tally.global_atomics > 0, "the delta walk did not run");

            let mut rescanned = s.clone();
            let mut certs = Certificates::default();
            certs.arm(g.num_vertices());
            for v in g.vertices() {
                certs.record(v, f64::INFINITY, g, &rescanned);
            }
            let tally = update_certified(
                WeightUpdateMode::Delta,
                g,
                &mut rescanned,
                &summary,
                &mut certs,
                None,
            );
            assert_eq!(tally.global_atomics, 0, "the rescan did not run");
            assert_eq!(tally.global_loads, 3 * m as u64);
            assert_eq!(certs.counts.0, 1, "the table was not cleared");
            assert!(
                g.vertices().all(|v| !certs.holds(v)),
                "a certificate survived"
            );

            for (v, (&r, &w)) in rescanned.d_self.iter().zip(&walked.d_self).enumerate() {
                if exact {
                    assert_eq!(r.to_bits(), w.to_bits(), "vertex {v}: {r} vs {w}");
                } else {
                    let tolerance = 1e-12 * g.degree_w(v as VertexId);
                    assert!((r - w).abs() <= tolerance, "vertex {v}: {r} vs {w}");
                }
            }
        }
    }

    #[test]
    fn no_moves_is_a_no_op() {
        let g = fixtures::two_cliques(4);
        let mut s = BspState::new(&g);
        let next = s.comm.clone();
        let summary = s.apply_moves(&g, &next);
        let before = s.d_self.clone();
        update(WeightUpdateMode::Delta, &g, &mut s, &summary);
        assert_eq!(s.d_self, before);
    }

    #[test]
    fn join_and_leave_deltas() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        // Move vertices 1 and 2 into community 0.
        let next: Vec<u32> = vec![0, 0, 0, 3, 4, 5];
        let summary = s.apply_moves(&g, &next);
        update(WeightUpdateMode::Delta, &g, &mut s, &summary);
        let mut reference = s.clone();
        reference.recompute_d_self(&g);
        assert_eq!(s.d_self, reference.d_self);
        assert_eq!(s.d_self[0], 2.0);
    }
}
