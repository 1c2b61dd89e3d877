//! Probabilistic movement-based pruning (PM, Vite \[24\]).
//!
//! If a vertex kept its community id across the last superstep, it is
//! pruned with probability `alpha` (paper default 0.25). Vertices that just
//! moved are always active. Aggressive and cheap, but blind to the actual
//! gain landscape: it both misses real moves (false negatives, modularity
//! loss) and wastes work on stable vertices it happened not to prune.

use crate::state::BspState;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Classifies vertices under PM. `true` = active.
pub fn classify(state: &BspState, alpha: f64, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let mut out = Vec::new();
    classify_into(state, alpha, rng, &mut out);
    out
}

/// [`classify`] into a recycled buffer. Sequential: the RNG draw order is
/// part of the reproducible trajectory.
pub(crate) fn classify_into(
    state: &BspState,
    alpha: f64,
    rng: &mut ChaCha8Rng,
    out: &mut Vec<bool>,
) {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
    out.clear();
    out.extend(state.moved.iter().map(|&moved| {
        if moved {
            true
        } else {
            rng.gen::<f64>() >= alpha
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;
    use rand::SeedableRng;

    fn quiet_state() -> (gala_graph::Graph, BspState) {
        let g = fixtures::two_cliques(30);
        let mut s = BspState::new(&g);
        let next = s.comm.clone();
        s.apply_moves(&g, &next);
        (g, s)
    }

    #[test]
    fn prunes_roughly_alpha_fraction_of_stable_vertices() {
        let (_, s) = quiet_state();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let active = classify(&s, 0.25, &mut rng);
        let inactive = active.iter().filter(|&&a| !a).count() as f64;
        let frac = inactive / active.len() as f64;
        assert!((frac - 0.25).abs() < 0.12, "frac {frac}");
    }

    #[test]
    fn moved_vertices_always_active() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        let mut next = s.comm.clone();
        next[0] = 1;
        s.apply_moves(&g, &next);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let active = classify(&s, 1.0, &mut rng);
            assert!(active[0]);
        }
    }

    #[test]
    fn alpha_zero_prunes_nothing() {
        let (_, s) = quiet_state();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(classify(&s, 0.0, &mut rng).iter().all(|&a| a));
    }

    #[test]
    fn deterministic_for_seed() {
        let (_, s) = quiet_state();
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(classify(&s, 0.5, &mut r1), classify(&s, 0.5, &mut r2));
    }
}
