//! Lemma 3.2 / Theorem 4.3: high-girth equilibria.
//!
//! When the girth is `≥ 2k + 2`, every radius-`k` view is a tree, so
//! a player cannot see any redundancy: buying edges barely reduces her
//! usage cost (each saved unit of eccentricity requires exponentially
//! many edges — Lemma 3.6), and removing an edge disconnects her view.
//! With `q`-quasi-regular graphs this yields `PoA = Ω(n^{1/(2k−2)})`
//! (density-based, MaxNCG, `α ≥ 1`) and the Theorem 4.3 bound for
//! SumNCG (`α ≥ kn`).
//!
//! The paper cites the algebraic Lazebnik–Ustimenko–Woldar graphs; we
//! generate quasi-regular high-girth graphs randomly (see
//! `ncg_graph::generators::high_girth` and DESIGN.md §4) and certify
//! the equilibrium property directly.

use ncg_core::{GameSpec, GameState};
use ncg_graph::generators::{high_girth, HighGirthParams};
use ncg_graph::metrics;
use ncg_solver::is_lke;
use rand::Rng;

/// A high-girth equilibrium candidate: the graph, the ownership
/// profile (uniformly random owner per edge), and its verified girth.
#[derive(Debug, Clone)]
pub struct HighGirthGadget {
    /// The game profile.
    pub state: GameState,
    /// Exact girth of the graph (`None` for forests).
    pub girth: Option<u32>,
    /// The degree target used.
    pub q: u32,
}

/// Builds a quasi-`q`-regular gadget with girth `≥ 2k + 2` on `n`
/// vertices — the Lemma 3.2 shape for knowledge radius `k`.
///
/// # Errors
/// Propagates generator parameter errors.
pub fn build<R: Rng + ?Sized>(
    n: usize,
    q: u32,
    k: u32,
    rng: &mut R,
) -> Result<HighGirthGadget, ncg_graph::GraphError> {
    let girth_target = 2 * k + 2;
    let graph = high_girth(HighGirthParams::new(n, q, girth_target), rng)?;
    let girth = metrics::girth(&graph);
    if let Some(g) = girth {
        assert!(g >= girth_target, "generator violated its girth contract: {g} < {girth_target}");
    }
    let state = GameState::from_graph_random_ownership(&graph, rng);
    Ok(HighGirthGadget { state, girth, q })
}

impl HighGirthGadget {
    /// Certifies the LKE property with exact best responses (players
    /// fanned out over the work-stealing pool).
    pub fn certify(&self, spec: &GameSpec) -> bool {
        is_lke(&self.state, spec)
    }

    /// The PoA this gadget witnesses (social cost / optimum).
    pub fn witnessed_poa(&self, spec: &GameSpec) -> Option<f64> {
        let sc = ncg_core::social::social_cost(&self.state, spec)?;
        Some(sc / ncg_core::social::optimum_cost(self.state.n(), spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn views_are_trees_when_girth_exceeds_2k_plus_1() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let gadget = build(80, 3, 2, &mut rng).unwrap();
        assert!(gadget.girth.unwrap_or(u32::MAX) >= 6);
        // Every radius-2 view of a girth-≥6 graph is a tree:
        // |E| = |V| − 1 within the view.
        for u in (0..80u32).step_by(9) {
            let view = ncg_core::PlayerView::build(&gadget.state, u, 2);
            assert_eq!(view.sub.graph.edge_count(), view.len() - 1, "view of {u} is not a tree");
        }
    }

    #[test]
    fn certification_for_large_alpha() {
        // Lemma 3.2 regime: with q = 3 the increase in building cost
        // exceeds any usage saving once α ≥ k − 1-ish; pick α large to
        // be safely inside.
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let gadget = build(60, 3, 2, &mut rng).unwrap();
        assert!(gadget.certify(&GameSpec::max(5.0, 2)));
    }

    #[test]
    fn sumncg_certification_for_alpha_at_least_kn() {
        // Theorem 4.3 regime: α ≥ k·n pins every strategy in place.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let n = 40;
        let k = 2;
        let gadget = build(n, 3, k, &mut rng).unwrap();
        let alpha = (k as usize * n) as f64;
        assert!(gadget.certify(&GameSpec::sum(alpha, k)));
    }

    #[test]
    fn witnessed_poa_is_finite_and_positive() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let gadget = build(50, 3, 2, &mut rng).unwrap();
        let poa = gadget.witnessed_poa(&GameSpec::max(5.0, 2)).unwrap();
        assert!(poa > 1.0 && poa.is_finite());
    }
}
