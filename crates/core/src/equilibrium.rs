//! Equilibrium concepts: Local Knowledge Equilibrium (LKE) and Nash
//! Equilibrium (NE).
//!
//! A profile `σ̄` is an **LKE** iff no player has a deviation with
//! `Δ(σ̄_u, σ'_u) < 0` (Eq. (3)), which by Propositions 2.1/2.2 means:
//! no strategy inside the view strictly beats the current cost under
//! [`crate::deviation`]'s worst-case semantics. With `k` at least the
//! diameter the view is the whole graph and LKE coincides with NE.
//!
//! [`is_lke_exhaustive`] enumerates *all* `2^{|view|−1}` candidate
//! strategies per player. It is exact but exponential: the test oracle
//! for small views (candidate cap 20). The efficient certifier,
//! `ncg_solver::is_lke`, asks an exact [`BestResponder`] once per
//! player instead.

use ncg_graph::NodeId;

use crate::deviation::{current_total, evaluate_total, EvalScratch};
use crate::scenario::MoveRulePolicy;
use crate::{GameSpec, GameState, PlayerView};

/// A concrete deviation: a strategy (in *local* view coordinates) and
/// its evaluated worst-case total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Deviation {
    /// The strategy, as sorted local ids of the view it was computed in.
    pub strategy_local: Vec<NodeId>,
    /// Evaluated total cost `α·|σ'| + usage` (may be `+∞`).
    pub total_cost: f64,
}

/// Strategy search engines (exact or heuristic best response).
///
/// Contract: the returned deviation's `total_cost` must equal
/// [`evaluate_total`] of its strategy on `view`, and implementations
/// must never return a strategy *worse* than the player's current one
/// (returning the current strategy is always legal).
pub trait BestResponder {
    /// Computes (an approximation of) the player's best response for
    /// the given view.
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation;
}

impl<F> BestResponder for F
where
    F: FnMut(&GameSpec, &PlayerView) -> Deviation,
{
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        self(spec, view)
    }
}

/// Exhaustive-search failure: the view is too large to enumerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge {
    /// Number of candidate purchase targets in the view.
    pub candidates: usize,
    /// The enumeration cap.
    pub cap: usize,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exhaustive search over {} candidates exceeds the cap of {}",
            self.candidates, self.cap
        )
    }
}

impl std::error::Error for TooLarge {}

/// Candidate cap for exhaustive enumeration (`2^20` evaluations).
pub const EXHAUSTIVE_CAP: usize = 20;

/// Exact best response by enumerating every legal move of the spec's
/// move rule: all `2^{candidates}` subsets under
/// [`MoveRulePolicy::AnySubset`] (exponential; see [`EXHAUSTIVE_CAP`]),
/// the polynomial swap neighbourhood under [`MoveRulePolicy::Swap`]
/// (never [`TooLarge`]).
///
/// Ties are broken toward fewer purchased edges, then lexicographically
/// smaller strategies, so the result is deterministic.
pub fn best_response_exhaustive(spec: &GameSpec, view: &PlayerView) -> Result<Deviation, TooLarge> {
    best_response_exhaustive_with(spec, view, &mut EvalScratch::new())
}

/// [`best_response_exhaustive`] with caller-provided evaluation
/// scratch, for hot loops (the SumNCG solver threads its per-run
/// scratch through here).
pub fn best_response_exhaustive_with(
    spec: &GameSpec,
    view: &PlayerView,
    scratch: &mut EvalScratch,
) -> Result<Deviation, TooLarge> {
    let candidates = view.candidate_count();
    if spec.move_rule == MoveRulePolicy::AnySubset && candidates > EXHAUSTIVE_CAP {
        return Err(TooLarge { candidates, cap: EXHAUSTIVE_CAP });
    }
    let mut best =
        Deviation { strategy_local: view.purchases.clone(), total_cost: current_total(spec, view) };
    spec.move_rule.for_each_move(view, &mut |strat| {
        let cost = evaluate_total(spec, view, strat, scratch);
        let better = GameSpec::strictly_better(cost, best.total_cost)
            || ((cost - best.total_cost).abs() <= crate::EPS
                && (strat.len() < best.strategy_local.len()
                    || (strat.len() == best.strategy_local.len()
                        && strat[..] < best.strategy_local[..])));
        if better {
            best = Deviation { strategy_local: strat.to_vec(), total_cost: cost };
        }
    });
    Ok(best)
}

/// Whether any player has a strictly improving deviation, by
/// exhaustive search. `Ok(None)` means the profile is an LKE.
pub fn improving_player_exhaustive(
    state: &GameState,
    spec: &GameSpec,
) -> Result<Option<(NodeId, Deviation)>, TooLarge> {
    for u in 0..state.n() as NodeId {
        let view = PlayerView::build(state, u, spec.k);
        let current = current_total(spec, &view);
        let best = best_response_exhaustive(spec, &view)?;
        if GameSpec::strictly_better(best.total_cost, current) {
            return Ok(Some((u, best)));
        }
    }
    Ok(None)
}

/// Exhaustive LKE check (small views only; see [`EXHAUSTIVE_CAP`]).
pub fn is_lke_exhaustive(state: &GameState, spec: &GameSpec) -> Result<bool, TooLarge> {
    Ok(improving_player_exhaustive(state, spec)?.is_none())
}

/// Exhaustive NE check: the LKE check with an effectively unbounded
/// radius (`k = u32::MAX`, so every view is the whole component and
/// the frontier rule never fires).
pub fn is_ne_exhaustive(state: &GameState, spec: &GameSpec) -> Result<bool, TooLarge> {
    let full = GameSpec { k: u32::MAX, ..*spec };
    is_lke_exhaustive(state, &full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;

    #[test]
    fn cycle_is_lke_for_alpha_at_least_k_minus_1() {
        // Lemma 3.1: the successor-owned cycle on n ≥ 2k+2 vertices is
        // an LKE whenever α ≥ k − 1.
        for (n, k, alpha) in [(8, 1, 1.0), (10, 2, 1.5), (12, 3, 2.0), (12, 2, 5.0)] {
            let state = GameState::cycle_successor(n);
            let spec = GameSpec::max(alpha, k);
            assert!(
                is_lke_exhaustive(&state, &spec).unwrap(),
                "cycle n={n} must be a MaxNCG LKE at α={alpha}, k={k}"
            );
        }
    }

    #[test]
    fn cycle_destabilises_when_alpha_small_and_k_large() {
        // With a large view and cheap edges a cycle player shortcuts.
        let state = GameState::cycle_successor(12);
        let spec = GameSpec::max(0.1, 6);
        let improving = improving_player_exhaustive(&state, &spec).unwrap();
        assert!(improving.is_some(), "cheap edges must destabilise the big cycle");
    }

    #[test]
    fn star_is_nash_for_alpha_above_one() {
        let state = GameState::star_center_owned(8);
        for alpha in [1.5, 2.0, 10.0] {
            let spec = GameSpec::max(alpha, 4);
            assert!(is_ne_exhaustive(&state, &spec).unwrap(), "star at α={alpha}");
            let spec = GameSpec::sum(alpha, 4);
            assert!(is_ne_exhaustive(&state, &spec).unwrap(), "sum star at α={alpha}");
        }
    }

    #[test]
    fn star_leaves_buy_edges_when_alpha_tiny_in_sum() {
        // For SumNCG with α < 1 a leaf profits from buying an edge to
        // another leaf (saves 1 distance per bought edge).
        let state = GameState::star_center_owned(8);
        let spec = GameSpec::sum(0.5, 4);
        let improving = improving_player_exhaustive(&state, &spec).unwrap();
        assert!(improving.is_some());
    }

    #[test]
    fn exhaustive_cap_is_enforced() {
        let state = GameState::star_center_owned(EXHAUSTIVE_CAP + 3);
        let spec = GameSpec::max(1.0, 2);
        let err =
            best_response_exhaustive(&spec, &PlayerView::build(&state, 0, spec.k)).unwrap_err();
        assert_eq!(err.candidates, EXHAUSTIVE_CAP + 2);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn best_response_never_worse_than_current() {
        let state = GameState::cycle_successor(9);
        for obj in [Objective::Max, Objective::Sum] {
            for k in 1..=4 {
                for alpha in [0.1, 1.0, 3.0] {
                    let spec = GameSpec::new(alpha, k, obj);
                    for u in 0..9 {
                        let view = PlayerView::build(&state, u, k);
                        let best = best_response_exhaustive(&spec, &view).unwrap();
                        assert!(
                            best.total_cost <= current_total(&spec, &view) + crate::EPS,
                            "{obj:?} α={alpha} k={k} u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tie_breaking_prefers_fewer_edges() {
        // On a triangle where dropping one of player 0's two edges
        // leaves the cost unchanged, buying less is preferred.
        let state = GameState::from_strategies(3, vec![vec![1, 2], vec![2], vec![]]);
        let spec = GameSpec::max(1.0, 2);
        let view = PlayerView::build(&state, 0, 2);
        let best = best_response_exhaustive(&spec, &view).unwrap();
        // Current cost: 2α + 1 = 3. Dropping one edge: α + 2 = 3 (tie,
        // fewer edges preferred). Dropping both: disconnects.
        assert_eq!(best.strategy_local.len(), 1);
    }

    #[test]
    fn closure_implements_best_responder() {
        let state = GameState::cycle_successor(6);
        let spec = GameSpec::max(2.0, 2);
        let mut responder =
            |spec: &GameSpec, view: &PlayerView| best_response_exhaustive(spec, view).unwrap();
        for u in 0..6 {
            let view = PlayerView::build(&state, u, spec.k);
            let expected = best_response_exhaustive(&spec, &view).unwrap();
            assert_eq!(responder.best_response(&spec, &view), expected, "player {u}");
        }
    }

    #[test]
    fn lke_equals_ne_when_k_covers_diameter() {
        // 6-cycle diameter 3; k = 3 sees everything, so the LKE and NE
        // predicates must agree on any profile we test.
        let spec_local = GameSpec::max(1.0, 3);
        let state = GameState::cycle_successor(6);
        assert_eq!(
            is_lke_exhaustive(&state, &spec_local).unwrap(),
            is_ne_exhaustive(&state, &spec_local).unwrap()
        );
    }
}
