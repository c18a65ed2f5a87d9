//! Lemma 3.1: the cycle lower bound.
//!
//! On a cycle of `n ≥ 2k + 2` players where each owns exactly one
//! edge, every view is a path of length `2k` centered at the player;
//! buying any edge costs `α` and saves at most `k − 1` eccentricity,
//! so for `α ≥ k − 1` the profile is an LKE. Its social cost is
//! `Θ(αn + n²)` against the star's `Θ(αn + n)`:
//! `PoA = Ω(n / (1 + α))`.

use ncg_core::{GameSpec, GameState};
use ncg_solver::is_lke;

/// The Lemma 3.1 profile: an `n`-cycle, player `u` owning the edge to
/// `(u+1) mod n`.
pub fn cycle_equilibrium(n: usize) -> GameState {
    GameState::cycle_successor(n)
}

/// Whether the parameters satisfy the lemma's premise
/// (`α ≥ k − 1`, `n ≥ 2k + 2`).
pub fn lemma_premise(n: usize, alpha: f64, k: u32) -> bool {
    alpha >= k as f64 - 1.0 && n as f64 >= 2.0 * k as f64 + 2.0
}

/// Certifies computationally that the cycle is an LKE for the given
/// parameters (exact best responses for every player, fanned out over
/// the work-stealing pool with per-worker solver scratch).
pub fn certify(n: usize, spec: &GameSpec) -> bool {
    is_lke(&cycle_equilibrium(n), spec)
}

/// The PoA witnessed by the cycle: measured social cost over the
/// closed-form optimum.
pub fn witnessed_poa(n: usize, spec: &GameSpec) -> f64 {
    let state = cycle_equilibrium(n);
    let sc = ncg_core::social::social_cost(&state, spec).expect("cycles are connected");
    sc / ncg_core::social::optimum_cost(n, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn premise_window() {
        assert!(lemma_premise(20, 3.0, 4));
        assert!(!lemma_premise(20, 2.0, 4), "α below k − 1");
        assert!(!lemma_premise(8, 3.0, 4), "n below 2k + 2");
    }

    #[test]
    fn certification_inside_the_premise() {
        for (n, alpha, k) in [(10, 1.0, 1), (12, 2.0, 3), (16, 5.0, 4), (20, 3.5, 4)] {
            assert!(lemma_premise(n, alpha, k));
            assert!(
                certify(n, &GameSpec::max(alpha, k)),
                "cycle n={n} must certify at α={alpha}, k={k}"
            );
        }
    }

    #[test]
    fn certification_fails_outside_for_cheap_edges() {
        // α far below k − 1 with a wide view: players shortcut.
        assert!(!certify(20, &GameSpec::max(0.2, 9)));
    }

    #[test]
    fn witnessed_poa_grows_linearly_in_n() {
        let spec = GameSpec::max(2.0, 2);
        let p20 = witnessed_poa(20, &spec);
        let p80 = witnessed_poa(80, &spec);
        // Ω(n/(1+α)): quadrupling n should roughly quadruple the PoA.
        assert!(p80 > 3.0 * p20, "p20={p20}, p80={p80}");
    }

    #[test]
    fn witnessed_poa_decreases_in_alpha() {
        let p_cheap = witnessed_poa(40, &GameSpec::max(1.0, 2));
        let p_dear = witnessed_poa(40, &GameSpec::max(8.0, 2));
        assert!(p_cheap > p_dear);
    }
}
