//! Unmoved-vertex prediction (paper Section 3).
//!
//! Before each BSP superstep a pruning strategy splits the vertices into an
//! *active set* (processed by DecideAndMove) and an *inactive set*
//! (skipped). The four strategies from the paper, and the stay
//! certificates the default policy adds:
//!
//! | Strategy | Inactive when… | FN-free? |
//! |---|---|---|
//! | [`strict`] (SM) | `C[v]` and every neighbor's community kept the exact same member set | yes (Lemma 3) |
//! | [`relaxed`] (RM) | `v` and every neighbor kept their community *id* | **no** (Lemma 4) |
//! | [`probabilistic`] (PM) | `v` kept its id across two iterations → prune with probability α | no |
//! | [`gain`] (MG) | the modularity-gain upper bound (Eq. 6) shows no move can win | yes (Theorem 6) |
//! | stay certificate (in `mgd`) | `v` last stayed, or passed MG's bound, by a margin that neither a neighbor's move (other than into `v`'s community) nor the community totals' drift since has used up | yes; a decided one is stronger: `v` would not move at all |
//!
//! plus [`PruningKind::None`] (the unpruned baseline),
//! [`PruningKind::GainRelaxed`] (MG ∧ RM, the paper's MG+RM combination —
//! inactive if *either* strategy says inactive) and
//! [`PruningKind::GainDamped`] (MG plus move damping, the default: a vertex
//! that moved in the previous superstep sits about half of the next ones
//! out, which breaks the limit cycles simultaneous BSP moves fall into;
//! and a vertex holding a stay certificate is skipped).
//!
//! Iteration 0 is always fully active: no history exists yet.
//!
//! ## Stay certificates
//!
//! MG's bound is stateless: it prunes a vertex only when most of its
//! weight lies inside its own community, so a settled boundary vertex is
//! decided again every superstep. A stay certificate remembers why the
//! last decision kept it. Write `S` and `M(T)` for the stay and move
//! scores of [`gain`]'s soundness section. When DecideAndMove keeps `v`
//! because staying *strictly* wins, its margin is
//!
//! ```text
//! δ = S − max_T M(T)        (over the foreign candidates T; +∞ if none)
//! ```
//!
//! Suppose `v` stays put and every neighbor that moves joins `cv`. Then
//! `d_self(v)` can only grow and every `d_T(v)` only shrink (weights are
//! non-negative), and no new candidate appears. Only the totals `D_V` can
//! work against `v`, so for every `T`
//!
//! ```text
//! S − M(T) shrinks by at most γ·d_v·(ΔD_V(cv) − ΔD_V(T))/m2
//!                   ≤ γ·d_v·(rise of any total + fall of any total)/m2.
//! ```
//!
//! A per-round *drift clock* `K` sums, superstep by superstep, a bound on
//! the rise of any total plus the fall of any total: a mover of degree
//! `d_u` lowers one total and raises another by `d_u`, so `2·Σ d_u` over
//! the movers will do. The certificate is the expiry
//!
//! ```text
//! E_v = K + (δ − slack)·m2/(γ·d_v),   slack = 10⁻⁹·(1 + γ + 10⁻⁶·deg(v))·d_v,
//! ```
//!
//! and `v` is skipped while `K < E_v`: then the drift is below `δ − slack`,
//! every `S − M(T)` is still positive, and DecideAndMove would keep `v`.
//! Rounding is covered on every side. Each summed weight `d_c(v)` is
//! within `deg(v)·2⁻⁵³·d_v` of its exact value, and each gain score within
//! `6·2⁻⁵³·(1 + γ)·d_v` of its value on the summed weights. The recorded
//! margin and the comparison a later decision would make each lose at
//! most twice both, and the slack covers that many times over. The clock adds `2⁻⁵¹·m2` per
//! mover for the rounding of the stored totals, inflates each step by
//! `10⁻⁶` relative for the rounding of `Σ d_u`, and rounds up. `E_v` is
//! stored as an `f32` one step below its nearest value, and the clock is
//! compared rounded up, so `E_v` never rounds into a longer certificate.
//!
//! The MG bound's margin certifies the same way. Its left-hand side is
//! exactly `S − M̄` in gain-score units ([`gain`]). While `v` stays and no
//! neighbor leaves `cv`, `d_self(v)` can only grow and the rest of the
//! bound is fixed but for `min D_V − D_V(cv)`, which falls by at most the
//! rise of any total plus the fall of any total: a community that is
//! non-empty after a superstep was non-empty before it (a vertex only
//! joins a neighbor's community), so the minimum falls by no more than
//! some total does. So the bound's margin shrinks by at most
//! `γ·d_v·ΔK/m2`, the decide margins' rate, and classify records it for
//! the vertices the bound prunes: not for one whose certificate would not
//! outlast a superstep like the last, and not while the frontier is far
//! from small (`Certificates::records_bound`). Evaluated on the stored
//! state, the left-hand side is within `20·2⁻⁵³·(1 + γ)·d_v` of its exact
//! value, and the stored `d_self` only
//! grows under a holding certificate (it receives `+w` deltas alone, and
//! a float sum of non-negative terms is monotone), so the same slack
//! covers its rounding: while the certificate holds, the bound evaluated
//! afresh still holds. A vertex that holds an MG certificate is one the
//! plain mask prunes anyway, so these certificates leave the mask as it
//! was; they only spare classify the proof.
//!
//! Three events end a certificate. A neighbor's move clears it, unless
//! the neighbor joined `cv`: the weight update's walk over each mover's
//! adjacency stores 0 into the slots of its unmoved neighbors outside its
//! new community, in the pass it already makes. A superstep whose
//! weight update rescans the whole graph walks no adjacency, so it clears
//! every certificate, and so does one whose movers hold a quarter of the
//! arcs: its clock advance expires nearly every certificate anyway. And
//! the vertex's own next evaluation rewrites it. A mover never holds one,
//! since it did not stay.
//!
//! Only a *strict* stay earns a certificate. A tie (`best == stay`, kept
//! because the best candidate's id is larger) has no margin to spend: any
//! drift in its favor turns it into a move. A stay forced by the singleton
//! guard is a vertex that wants to move: its margin is not positive, and
//! the guard's verdict depends on community sizes the clock does not
//! track.
//!
//! Certificates are recorded wherever the host fold ([`crate::kernels::cpu`])
//! decides: the native `Cpu`, `Hash` and `WorkloadAware` kernels and the
//! simulator's `Cpu` kernel. The simulated GPU kernels and the native
//! `Shuffle`, `Sort` and `Replicated` kernels record none and keep plain
//! `mgd`'s mask. Because a certificate skips only vertices DecideAndMove
//! would leave in place, every configuration makes the same moves.
//!
//! ## The frontier
//!
//! Where certificates are armed, the driver classifies only the
//! *frontier* (`Certificates::frontier`), under one
//! invariant: **every vertex outside the frontier holds a certificate.**
//! Such a vertex is inactive whatever the rest of the mask says, so
//! evaluating the frontier alone (`classify_work`) gives the mask a full
//! scan would. The frontier is everything after arming or clearing the
//! table; after that the weight update rebuilds it from the vertices the
//! last superstep left uncertified (movers, ties, guard stays, deferred
//! vertices, margins within the slack), the certificates that expired and
//! the ones the walk invalidated, so a superstep costs O(frontier +
//! moved) in classify, decide, apply and the best-state log. A frontier of
//! a sixteenth of the vertices or more is kept as "every vertex", where a
//! scan is cheaper than a list. The simulated GPU kernels keep their
//! O(n) classify.

pub(crate) mod certificate;
pub mod gain;
pub mod probabilistic;
pub mod relaxed;
pub mod strict;

use crate::state::BspState;
use certificate::Certificates;
use gala_graph::Graph;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::str::FromStr;

/// Which pruning strategy to apply before each superstep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PruningKind {
    /// No pruning: every vertex is active every iteration (the baseline).
    None,
    /// Strict movement-based (SM).
    Strict,
    /// Relaxed movement-based (RM) — may lose modularity.
    Relaxed,
    /// Probabilistic movement-based (PM, Vite) with pruning probability α.
    Probabilistic {
        /// Probability of pruning an id-consistent vertex (paper: 0.25).
        alpha: f64,
    },
    /// Modularity-gain–based (MG) — GALA's strategy, FN-free.
    Gain,
    /// MG ∧ RM combined: inactive if either marks it inactive.
    GainRelaxed,
    /// MG with move damping: a vertex that moved in the previous superstep
    /// is deferred when a fixed hash of (vertex, superstep) says so (about
    /// half the time), every other vertex is classified as under MG. Not FN-free per superstep —
    /// a deferred vertex may hold a winning move — by design: two
    /// neighbours that keep swapping communities in lockstep are exactly
    /// the moves worth holding back.
    GainDamped,
}

impl PruningKind {
    /// The paper's default PM configuration (α = 0.25).
    pub fn probabilistic_default() -> Self {
        PruningKind::Probabilistic { alpha: 0.25 }
    }

    /// Short label used by the experiment harness tables.
    pub fn label(&self) -> &'static str {
        match self {
            PruningKind::None => "Baseline",
            PruningKind::Strict => "SM",
            PruningKind::Relaxed => "RM",
            PruningKind::Probabilistic { .. } => "PM",
            PruningKind::Gain => "MG",
            PruningKind::GainRelaxed => "MG+RM",
            PruningKind::GainDamped => "MGD",
        }
    }
}

/// The CLI name (`gala detect --pruning`). Every `Probabilistic` α
/// displays as `pm`, which parses back to the paper's α = 0.25.
impl fmt::Display for PruningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PruningKind::None => "none",
            PruningKind::Strict => "sm",
            PruningKind::Relaxed => "rm",
            PruningKind::Probabilistic { .. } => "pm",
            PruningKind::Gain => "mg",
            PruningKind::GainRelaxed => "mgrm",
            PruningKind::GainDamped => "mgd",
        })
    }
}

impl FromStr for PruningKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mgd" => Ok(PruningKind::GainDamped),
            "mg" => Ok(PruningKind::Gain),
            "sm" => Ok(PruningKind::Strict),
            "rm" => Ok(PruningKind::Relaxed),
            "pm" => Ok(PruningKind::probabilistic_default()),
            "mgrm" | "mg+rm" => Ok(PruningKind::GainRelaxed),
            "none" => Ok(PruningKind::None),
            other => Err(format!(
                "unknown pruning strategy `{other}` (expected mgd|mg|sm|rm|pm|mgrm|none)"
            )),
        }
    }
}

/// Classifies every vertex: `true` = active (process), `false` = inactive
/// (skip). Iteration 0 activates everything.
pub fn classify(
    kind: PruningKind,
    graph: &Graph,
    state: &BspState,
    rng: &mut ChaCha8Rng,
) -> Vec<bool> {
    let mut out = Vec::new();
    classify_into(kind, graph, state, rng, &mut out);
    out
}

/// [`classify`] into a recycled buffer: the drivers keep one active-set
/// vector alive across supersteps instead of reallocating it each time.
pub fn classify_into(
    kind: PruningKind,
    graph: &Graph,
    state: &BspState,
    rng: &mut ChaCha8Rng,
    out: &mut Vec<bool>,
) {
    classify_certified_into(kind, graph, state, rng, &Certificates::default(), out);
}

/// [`classify_into`] that also skips, under [`PruningKind::GainDamped`],
/// every vertex whose stay certificate in `certs` holds. Disarmed
/// certificates, and every other policy, give [`classify_into`]'s mask.
pub(crate) fn classify_certified_into(
    kind: PruningKind,
    graph: &Graph,
    state: &BspState,
    rng: &mut ChaCha8Rng,
    certs: &Certificates,
    out: &mut Vec<bool>,
) {
    use gala_graph::VertexId;
    use rayon::prelude::*;

    let n = graph.num_vertices();
    if state.iteration == 0 || kind == PruningKind::None {
        out.clear();
        out.resize(n, true);
        return;
    }
    match kind {
        PruningKind::None => unreachable!("handled above"),
        PruningKind::Strict => strict::classify_into(graph, state, out),
        PruningKind::Relaxed => relaxed::classify_into(graph, state, out),
        PruningKind::Probabilistic { alpha } => {
            probabilistic::classify_into(state, alpha, rng, out)
        }
        PruningKind::Gain => gain::classify_into(graph, state, out),
        PruningKind::GainRelaxed => {
            // MG ∧ RM fused in one pass: same values the two-vector zip
            // produced, without the intermediate allocations.
            (0..n as VertexId)
                .into_par_iter()
                .map(|v| {
                    relaxed::is_active(v, graph, state)
                        && !gain::is_provably_unmoved(v, graph, state)
                })
                .collect_into_vec(out);
        }
        PruningKind::GainDamped => {
            let iteration = state.iteration;
            let damped = |v: VertexId| {
                let deferred = state.moved[v as usize] && defers(v, iteration);
                !deferred && !gain::is_provably_unmoved(v, graph, state)
            };
            // The certificate is one load, so it goes before the bound.
            match certs.armed() {
                Some(certs) => (0..n as VertexId)
                    .into_par_iter()
                    .map(|v| !certs.holds(v) && damped(v))
                    .collect_into_vec(out),
                None => (0..n as VertexId)
                    .into_par_iter()
                    .map(damped)
                    .collect_into_vec(out),
            }
        }
    }
}

/// Classifies the next superstep into the `active` mask and its ascending
/// work list `work`, both rewritten: the driver's classify. Under
/// [`PruningKind::GainDamped`] with armed certificates, from superstep 1
/// on, only the frontier is evaluated ([`Certificates::frontier`]); every
/// other vertex holds a certificate and stays inactive. Each candidate
/// gets [`classify_certified_into`]'s test, in its order, and a vertex the
/// MG bound prunes has its bound's margin recorded as a certificate, so
/// the frontier does not have to prove it again while the certificate
/// holds. The mask is the one [`classify_certified_into`] would produce,
/// and updating it costs O(frontier + last work list). Every other case
/// is that full classify, with the work list read off the mask.
pub(crate) fn classify_work(
    kind: PruningKind,
    graph: &Graph,
    state: &BspState,
    rng: &mut ChaCha8Rng,
    certs: &Certificates,
    active: &mut Vec<bool>,
    work: &mut Vec<gala_graph::VertexId>,
) {
    use certificate::Frontier;
    use gala_graph::VertexId;

    let frontier = match certs.armed() {
        Some(certs) if kind == PruningKind::GainDamped && state.iteration > 0 => certs.frontier(),
        _ => {
            classify_certified_into(kind, graph, state, rng, certs, active);
            work.clear();
            work.extend((0..active.len() as VertexId).filter(|&v| active[v as usize]));
            return;
        }
    };
    let records = certs.records_bound();
    // Each pool chunk lists its active vertices, in order, and counts the
    // frontier ([`Certificates::saw`]).
    let chunks = match frontier {
        Frontier::All(n) => {
            // The whole mask is rewritten.
            rayon::par_map_indexed_accum_into(
                n,
                active,
                <(Vec<VertexId>, Counts)>::default,
                |v, (work, counts)| {
                    let v = v as VertexId;
                    let is_active = judge(v, graph, state, certs, records, counts);
                    if is_active {
                        work.push(v);
                    }
                    is_active
                },
            )
        }
        Frontier::List(list) => {
            // The last superstep's work list holds every vertex the mask
            // marks.
            for &v in work.iter() {
                active[v as usize] = false;
            }
            // The pool writes one `()` per candidate: a vector that
            // allocates nothing.
            let chunks = rayon::par_map_accum_into(
                list,
                &mut Vec::new(),
                <(Vec<VertexId>, Counts)>::default,
                |&v, (work, counts)| {
                    if judge(v, graph, state, certs, records, counts) {
                        work.push(v);
                    }
                },
            );
            for &v in chunks.iter().flat_map(|(work, _)| work) {
                active[v as usize] = true;
            }
            chunks
        }
    };
    let counts = chunks.iter().fold(Counts::default(), |sum, (_, c)| Counts {
        uncertified: sum.uncertified + c.uncertified,
        bound: sum.bound + c.bound,
    });
    certs.saw(counts.uncertified, counts.bound);
    work.clear();
    work.extend(chunks.into_iter().flat_map(|(work, _)| work));
}

/// What [`classify_work`] counts: the candidates without a certificate,
/// and those the MG bound pruned without recording one.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    uncertified: usize,
    bound: usize,
}

/// [`classify_certified_into`]'s `mgd` test for one vertex: whether it is
/// active. Records the MG bound's certificate when `records` says to and
/// it would last, and counts the vertex into `counts`.
#[inline(always)]
fn judge(
    v: gala_graph::VertexId,
    graph: &Graph,
    state: &BspState,
    certs: &Certificates,
    records: bool,
    counts: &mut Counts,
) -> bool {
    if certs.holds(v) {
        return false;
    }
    counts.uncertified += 1;
    if state.moved[v as usize] && defers(v, state.iteration) {
        return false;
    }
    let margin = gain::margin(v, graph, state);
    if margin >= 0.0 {
        if !records {
            counts.bound += 1;
        } else if certs.lasts(v, margin, graph, state) {
            certs.record(v, margin, graph, state);
        }
        return false;
    }
    true
}

/// Move damping's schedule: whether vertex `v`, having moved in the
/// previous superstep, sits out superstep `iteration`. A fixed SplitMix64
/// hash of (vertex, superstep) keeps about half of the previous movers —
/// no rng draw and no dependence on pool width, so every backend, device
/// count and kernel defers the same vertices. A mover that sits out did not
/// move, so it is back under plain MG the superstep after.
pub(crate) fn defers(v: gala_graph::VertexId, iteration: usize) -> bool {
    let mut x = (v as u64) ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) >> 63 == 1
}

/// Outcome of a sampled false-negative audit ([`audit_pruned`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditResult {
    /// Pruned vertices whose decision was recomputed.
    pub sampled: u64,
    /// Sampled vertices that would in fact have made a strictly-improving
    /// move — each one is modularity the pruning strategy gave up.
    pub false_negatives: u64,
}

impl AuditResult {
    /// Estimated false-negative rate over the sampled pruned vertices.
    pub fn fnr(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.sampled as f64
        }
    }

    /// Accumulates another superstep's audit.
    pub fn merge(&mut self, other: &AuditResult) {
        self.sampled += other.sampled;
        self.false_negatives += other.false_negatives;
    }
}

/// Audits a pruning decision by recomputing the full DecideAndMove rule for
/// a deterministic sample of the *inactive* set: every `stride`-th pruned
/// vertex (in vertex-id order, `stride` chosen so at most `max_samples`
/// vertices are checked). A sampled vertex counts as a false negative only
/// when its recomputed move *strictly* improves the gain score — zero-gain
/// tie-break moves are modularity-neutral (paper Theorem 6), so pruning
/// them loses nothing.
///
/// This is pure host-side verification: it touches no simulated-memory
/// tally, so instrumented runs keep bit-identical cycle totals.
pub fn audit_pruned(
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    max_samples: usize,
) -> AuditResult {
    use crate::kernels::cpu;
    use gala_graph::VertexId;

    let mut result = AuditResult::default();
    let pruned_total = active.iter().filter(|&&a| !a).count();
    if pruned_total == 0 || max_samples == 0 {
        return result;
    }
    let stride = pruned_total.div_ceil(max_samples);
    let mut idx = 0usize;
    for (v, &is_active) in active.iter().enumerate() {
        if is_active {
            continue;
        }
        if idx.is_multiple_of(stride) {
            result.sampled += 1;
            let v = v as VertexId;
            let cv = state.comm[v as usize];
            let target = cpu::decide_one(v, graph, state);
            if target != cv && strictly_improves(v, graph, state, target) {
                result.false_negatives += 1;
            }
        }
        idx += 1;
    }
    result
}

/// Audits stay certificates by deciding a deterministic sample of the
/// `certified` vertices in full: every `stride`-th one, at most
/// `max_samples`. A certificate claims more than MG's "no strictly better
/// move", namely that DecideAndMove leaves the vertex where it is, so any
/// sampled vertex that [`crate::kernels::cpu::decide_one`] would move —
/// even by a zero-gain tie-break — counts as a false negative.
pub(crate) fn audit_certified(
    graph: &Graph,
    state: &BspState,
    certified: &[gala_graph::VertexId],
    max_samples: usize,
) -> AuditResult {
    use crate::kernels::cpu;

    let mut result = AuditResult::default();
    if certified.is_empty() || max_samples == 0 {
        return result;
    }
    let stride = certified.len().div_ceil(max_samples);
    for &v in certified.iter().step_by(stride) {
        result.sampled += 1;
        if cpu::decide_one(v, graph, state) != state.comm[v as usize] {
            result.false_negatives += 1;
        }
    }
    result
}

/// Whether moving `v` from its community to `target` has strictly positive
/// gain (not just a tie broken toward a smaller id).
fn strictly_improves(
    v: gala_graph::VertexId,
    graph: &Graph,
    state: &BspState,
    target: gala_graph::partition::CommunityId,
) -> bool {
    let cv = state.comm[v as usize];
    let d_v = graph.degree_w(v);
    let mut stay_d_vc = 0.0;
    let mut move_d_vc = 0.0;
    for (u, w) in graph.neighbors(v) {
        if u == v {
            continue;
        }
        let c = state.comm[u as usize];
        if c == cv {
            stay_d_vc += w;
        } else if c == target {
            move_d_vc += w;
        }
    }
    let move_score = state.score(move_d_vc, d_v, state.d_tot[target as usize]);
    let stay_score = state.score(stay_d_vc, d_v, state.d_tot_without(v, graph));
    move_score > stay_score
}

/// Misprediction counts for one superstep, comparing a prediction against
/// the ground-truth decisions of a full (unpruned) DecideAndMove pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Vertices that moved but were predicted inactive (modularity risk).
    pub false_negatives: usize,
    /// Vertices that stayed but were predicted active (wasted work).
    pub false_positives: usize,
    /// Ground-truth moved vertices.
    pub actual_moved: usize,
    /// Ground-truth unmoved vertices.
    pub actual_unmoved: usize,
}

impl PredictionStats {
    /// Compares a predicted active set against ground-truth moves.
    pub fn evaluate(active: &[bool], moved: &[bool]) -> Self {
        assert_eq!(active.len(), moved.len());
        let mut s = Self::default();
        for (&a, &m) in active.iter().zip(moved) {
            match (a, m) {
                (false, true) => {
                    s.false_negatives += 1;
                    s.actual_moved += 1;
                }
                (true, false) => {
                    s.false_positives += 1;
                    s.actual_unmoved += 1;
                }
                (true, true) => s.actual_moved += 1,
                (false, false) => s.actual_unmoved += 1,
            }
        }
        s
    }

    /// False-negative rate: misclassified fraction of the moved vertices.
    pub fn fnr(&self) -> f64 {
        if self.actual_moved == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.actual_moved as f64
        }
    }

    /// False-positive rate: misclassified fraction of the unmoved vertices.
    pub fn fpr(&self) -> f64 {
        if self.actual_unmoved == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.actual_unmoved as f64
        }
    }

    /// Accumulates another superstep's counts.
    pub fn merge(&mut self, other: &PredictionStats) {
        self.false_negatives += other.false_negatives;
        self.false_positives += other.false_positives;
        self.actual_moved += other.actual_moved;
        self.actual_unmoved += other.actual_unmoved;
    }
}

/// Evaluates several strategies side by side on the *baseline trajectory*:
/// every superstep processes all vertices (no strategy influences the run),
/// and each strategy's prediction is scored against the ground-truth moves
/// of that superstep — the methodology behind the paper's Table 1.
///
/// Returns per-strategy accumulated stats plus the per-iteration records.
pub fn evaluate_on_baseline(
    graph: &Graph,
    kinds: &[PruningKind],
    theta: f64,
    max_iterations: usize,
    seed: u64,
) -> Vec<(PruningKind, PredictionStats, Vec<PredictionStats>)> {
    use crate::kernels::{self, KernelKind};
    use crate::weight::{self, WeightUpdateMode};
    use rand::SeedableRng;

    let mut state = crate::state::BspState::new(graph);
    let mut rngs: Vec<ChaCha8Rng> = (0..kinds.len())
        .map(|i| ChaCha8Rng::seed_from_u64(seed ^ (i as u64) << 32))
        .collect();
    let mut totals = vec![PredictionStats::default(); kinds.len()];
    let mut per_iter: Vec<Vec<PredictionStats>> = vec![Vec::new(); kinds.len()];
    let mut prev_q = state.modularity(graph);
    for _ in 0..max_iterations {
        let predictions: Vec<Vec<bool>> = kinds
            .iter()
            .zip(rngs.iter_mut())
            .map(|(&k, rng)| classify(k, graph, &state, rng))
            .collect();
        let all_active = vec![true; graph.num_vertices()];
        let out = kernels::decide(KernelKind::Cpu, graph, &state, &all_active);
        let moved: Vec<bool> = out
            .next_comm
            .iter()
            .zip(&state.comm)
            .map(|(a, b)| a != b)
            .collect();
        // Iteration 0 is trivially all-active for every strategy; skip it in
        // the scoring (the paper averages over the informative iterations).
        if state.iteration > 0 {
            for (i, pred) in predictions.iter().enumerate() {
                let s = PredictionStats::evaluate(pred, &moved);
                totals[i].merge(&s);
                per_iter[i].push(s);
            }
        }
        let summary = state.apply_moves(graph, &out.next_comm);
        weight::update(WeightUpdateMode::Delta, graph, &mut state, &summary);
        let q = state.modularity(graph);
        if summary.num_moved() == 0 || q - prev_q < theta {
            break;
        }
        prev_q = q;
    }
    kinds
        .iter()
        .zip(totals)
        .zip(per_iter)
        .map(|((&k, t), p)| (k, t, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;
    use rand::SeedableRng;

    #[test]
    fn iteration_zero_activates_everything() {
        let g = fixtures::two_cliques(4);
        let s = BspState::new(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for kind in [
            PruningKind::None,
            PruningKind::Strict,
            PruningKind::Relaxed,
            PruningKind::probabilistic_default(),
            PruningKind::Gain,
            PruningKind::GainRelaxed,
            PruningKind::GainDamped,
        ] {
            let active = classify(kind, &g, &s, &mut rng);
            assert!(active.iter().all(|&a| a), "{kind:?}");
        }
    }

    /// A 10k-vertex planted partition after one full superstep: most
    /// vertices just moved, so the damping schedule has work to do.
    fn after_one_superstep() -> (Graph, BspState) {
        let g = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 100,
            community_size: 100,
            internal_degree: 8.0,
            mixing: 0.3,
        }
        .generate(5)
        .graph;
        let mut s = BspState::new(&g);
        let out = crate::kernels::decide(
            crate::kernels::KernelKind::Cpu,
            &g,
            &s,
            &vec![true; g.num_vertices()],
        );
        let summary = s.apply_moves(&g, &out.next_comm);
        crate::weight::update(crate::weight::WeightUpdateMode::Delta, &g, &mut s, &summary);
        (g, s)
    }

    #[test]
    fn damping_defers_about_half_of_the_previous_movers_only() {
        let (g, s) = after_one_superstep();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mg = classify(PruningKind::Gain, &g, &s, &mut rng);
        let damped = classify(PruningKind::GainDamped, &g, &s, &mut rng);
        let movers = s.moved.iter().filter(|&&m| m).count();
        assert!(movers > g.num_vertices() / 2, "only {movers} movers");
        let mut deferred = 0;
        for v in 0..g.num_vertices() {
            if !s.moved[v] {
                assert_eq!(damped[v], mg[v], "non-mover {v} left MG's mask");
                continue;
            }
            let defer = defers(v as gala_graph::VertexId, s.iteration);
            assert_eq!(damped[v], mg[v] && !defer, "mover {v}");
            deferred += defer as usize;
        }
        let share = deferred as f64 / movers as f64;
        assert!((0.4..=0.6).contains(&share), "deferred share {share}");
        // Deferral only ever removes vertices MG kept active.
        let mg_active = mg.iter().filter(|&&a| a).count();
        let damped_active = damped.iter().filter(|&&a| a).count();
        assert!(damped_active < mg_active);
    }

    #[test]
    fn damped_mask_is_the_same_at_every_pool_width() {
        let (g, s) = after_one_superstep();
        let mask = |width| {
            rayon::with_parallelism(width, || {
                let mut rng = ChaCha8Rng::seed_from_u64(0);
                classify(PruningKind::GainDamped, &g, &s, &mut rng)
            })
        };
        let reference = mask(1);
        for width in [2, 8] {
            assert!(mask(width) == reference, "width {width}");
        }
    }

    #[test]
    fn prediction_stats_rates() {
        let active = vec![true, false, true, false];
        let moved = vec![true, true, false, false];
        let s = PredictionStats::evaluate(&active, &moved);
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.fnr(), 0.5);
        assert_eq!(s.fpr(), 0.5);
    }

    #[test]
    fn prediction_stats_merge() {
        let mut a = PredictionStats::evaluate(&[true], &[true]);
        let b = PredictionStats::evaluate(&[false], &[true]);
        a.merge(&b);
        assert_eq!(a.actual_moved, 2);
        assert_eq!(a.false_negatives, 1);
        assert_eq!(a.fnr(), 0.5);
    }

    #[test]
    fn sound_strategies_have_zero_fnr_on_baseline_trajectory() {
        let g = gala_graph::generators::sbm::PlantedPartition {
            num_communities: 8,
            community_size: 40,
            internal_degree: 8.0,
            mixing: 0.15,
        }
        .generate(11)
        .graph;
        let kinds = [
            PruningKind::Strict,
            PruningKind::Relaxed,
            PruningKind::probabilistic_default(),
            PruningKind::Gain,
        ];
        let results = evaluate_on_baseline(&g, &kinds, 1e-6, 50, 3);
        for (kind, total, _) in &results {
            match kind {
                PruningKind::Strict | PruningKind::Gain => {
                    assert_eq!(total.false_negatives, 0, "{kind:?} produced FNs");
                }
                _ => {}
            }
        }
        // MG must prune more than SM (lower FPR), the paper's headline.
        let sm = &results[0].1;
        let mg = &results[3].1;
        assert!(
            mg.fpr() <= sm.fpr(),
            "MG fpr {} vs SM fpr {}",
            mg.fpr(),
            sm.fpr()
        );
    }

    #[test]
    fn audit_finds_no_false_negatives_in_gain_pruning() {
        // MG is FN-free (Theorem 6): auditing its pruned set must never
        // find a strictly-improving move.
        let g = fixtures::ring_of_cliques(4, 6);
        let mut state = BspState::new(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..4 {
            let active = classify(PruningKind::Gain, &g, &state, &mut rng);
            let audit = audit_pruned(&g, &state, &active, usize::MAX);
            assert_eq!(audit.false_negatives, 0, "MG pruned a winning move");
            let out = crate::kernels::decide(crate::kernels::KernelKind::Cpu, &g, &state, &active);
            let summary = state.apply_moves(&g, &out.next_comm);
            crate::weight::update(
                crate::weight::WeightUpdateMode::Delta,
                &g,
                &mut state,
                &summary,
            );
        }
    }

    #[test]
    fn audit_catches_a_bad_pruning_decision() {
        // Pruning *everything* on the first iteration of a clique fixture
        // suppresses obviously-winning merges; the audit must notice.
        let g = fixtures::two_cliques(4);
        let state = BspState::new(&g);
        let active = vec![false; g.num_vertices()];
        let audit = audit_pruned(&g, &state, &active, usize::MAX);
        assert_eq!(audit.sampled, g.num_vertices() as u64);
        assert!(audit.false_negatives > 0, "suppressed merges not flagged");
        assert!(audit.fnr() > 0.0);
    }

    #[test]
    fn audit_sampling_is_deterministic_and_bounded() {
        let g = fixtures::ring_of_cliques(4, 6);
        let state = BspState::new(&g);
        let active = vec![false; g.num_vertices()];
        let a = audit_pruned(&g, &state, &active, 5);
        let b = audit_pruned(&g, &state, &active, 5);
        assert_eq!(a, b, "same inputs must sample the same vertices");
        assert!(a.sampled <= 5, "sampled {} > cap 5", a.sampled);
        assert!(a.sampled > 0);
        assert_eq!(audit_pruned(&g, &state, &active, 0), AuditResult::default());
        let all = audit_pruned(&g, &state, &vec![true; g.num_vertices()], 5);
        assert_eq!(
            all,
            AuditResult::default(),
            "nothing pruned, nothing sampled"
        );
    }

    #[test]
    fn cli_names_parse_and_display_round_trip() {
        for kind in [
            PruningKind::None,
            PruningKind::Strict,
            PruningKind::Relaxed,
            PruningKind::probabilistic_default(),
            PruningKind::Gain,
            PruningKind::GainRelaxed,
            PruningKind::GainDamped,
        ] {
            assert_eq!(kind.to_string().parse::<PruningKind>().unwrap(), kind);
        }
        // The paper labels are table headings, not CLI names.
        assert!("MG".parse::<PruningKind>().is_err());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PruningKind::Gain.label(), "MG");
        assert_eq!(PruningKind::probabilistic_default().label(), "PM");
        assert_eq!(PruningKind::GainRelaxed.label(), "MG+RM");
        assert_eq!(PruningKind::GainDamped.label(), "MGD");
    }
}
