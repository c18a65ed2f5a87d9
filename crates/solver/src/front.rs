//! The generic best-response front: one entry point for every cell of
//! the model zoo (objective × edge cost × move rule × mode).
//!
//! The dispatch table (DESIGN.md §10):
//!
//! | move rule | edge cost | objective | engine |
//! |-----------|-----------|-----------|--------|
//! | `Swap` | any | any | exact swap-neighbourhood enumeration (polynomial) |
//! | `AnySubset` | `Uniform` | `Max` | [`max_br`] (eccentricity guessing + domination B&B) |
//! | `AnySubset` | `Uniform` | `Sum` | [`sum_br`] (include/exclude B&B; [`hill_climb`] in Greedy) |
//! | `AnySubset` | `PerTarget` | any | exhaustive enumeration up to [`EXHAUSTIVE_CAP`], else [`hill_climb`] |
//!
//! The two exact engines stay gated to uniform pricing because their
//! pruning is *count-based* — `max_br`'s `⌈slack/α⌉` cutoff and the
//! sum engine's `α·t` bounds assume every edge costs exactly `α`, and
//! both would silently prune optima under per-target multipliers.
//! Swap neighbourhoods are quadratic in the view, so the swap arm is
//! exact for every pricing model and both modes; per-target subset
//! games are exact up to the enumeration cap and fall back to
//! [`hill_climb`] beyond it (the `nonuniform` experiment documents
//! which of its columns sit on which side of the cap). [`hill_climb`]
//! runs [`crate::climb`] over every candidate; the scale tier's
//! responder runs the same climb over a narrowed list.

use ncg_core::equilibrium::{self, Deviation, EXHAUSTIVE_CAP};
use ncg_core::{GameSpec, MoveRulePolicy, Objective, PlayerView};

use crate::climb::{climb, ClimbScratch};
use crate::{max_br, sum_br, Mode, SolverScratch};

/// Computes a best response for any scenario the workspace ships,
/// dispatching per the table above. This is what
/// [`Responder`](crate::Responder) calls; on the default (uniform,
/// subset-move) Max/Sum scenarios it forwards to the pre-front engines
/// with bit-identical results (property-tested).
pub fn best_response_with(
    spec: &GameSpec,
    view: &PlayerView,
    mode: Mode,
    scratch: &mut SolverScratch,
) -> Deviation {
    if view.len() <= 1 {
        return Deviation { strategy_local: Vec::new(), total_cost: spec.total_cost(0, Some(0)) };
    }
    match spec.move_rule {
        MoveRulePolicy::Swap => {
            equilibrium::best_response_exhaustive_with(spec, view, &mut scratch.eval)
                .expect("swap neighbourhoods are polynomial and never TooLarge")
        }
        MoveRulePolicy::AnySubset if spec.edge_cost.is_uniform() => match spec.objective {
            Objective::Max => max_br::max_best_response_with(spec, view, mode, scratch),
            Objective::Sum => sum_br::sum_best_response_with(spec, view, mode, scratch),
        },
        MoveRulePolicy::AnySubset => non_uniform_best_response(spec, view, mode, scratch),
    }
}

/// Per-target pricing breaks the count-based pruning of both exact
/// engines, so non-uniform subset games enumerate exactly while the
/// view fits under [`EXHAUSTIVE_CAP`] and hill-climb beyond it (also
/// the [`Mode::Greedy`] arm).
fn non_uniform_best_response(
    spec: &GameSpec,
    view: &PlayerView,
    mode: Mode,
    scratch: &mut SolverScratch,
) -> Deviation {
    if mode == Mode::Exact && view.candidate_count() <= EXHAUSTIVE_CAP {
        return equilibrium::best_response_exhaustive_with(spec, view, &mut scratch.eval)
            .expect("gated on EXHAUSTIVE_CAP");
    }
    hill_climb(spec, view, &mut scratch.climb)
}

/// The greedy climb over every candidate of the view, capped at
/// `4·max(len, 4)` steps — the front's greedy fallback (SumNCG's
/// [`Mode::Greedy`] ablation arm and the beyond-cap non-uniform path).
/// Objective- and pricing-agnostic, with the standard cost →
/// fewer-edges → lexicographic tie-break; see [`crate::climb`]. The
/// candidate list is filled in the scratch's own buffer, so a warm call
/// allocates only the strategy it returns.
pub fn hill_climb(spec: &GameSpec, view: &PlayerView, scratch: &mut ClimbScratch) -> Deviation {
    let mut candidates = std::mem::take(&mut scratch.candidates);
    candidates.clear();
    candidates.extend(view.candidates_iter());
    let best = climb(spec, view, &candidates, 4 * view.len().max(4), scratch).1;
    scratch.candidates = candidates;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::deviation::current_total;
    use ncg_core::{GameState, Scenario};
    use ncg_graph::NodeId;

    #[test]
    fn front_matches_direct_engines_on_default_scenarios() {
        let state = GameState::cycle_successor(10);
        let mut scratch = SolverScratch::new();
        for (spec, u) in [(GameSpec::max(0.4, 3), 2u32), (GameSpec::sum(1.1, 2), 7)] {
            let view = PlayerView::build(&state, u, spec.k);
            let via_front = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let direct = match spec.objective {
                Objective::Max => {
                    max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut scratch)
                }
                Objective::Sum => {
                    sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch)
                }
            };
            assert_eq!(via_front.strategy_local, direct.strategy_local);
            assert_eq!(via_front.total_cost.to_bits(), direct.total_cost.to_bits());
        }
    }

    #[test]
    fn swap_front_is_exact_against_move_enumeration() {
        // Cheap edges destabilise the cycle; the swap best response
        // must match the best strategy in the swap neighbourhood and
        // never resize the purchase set.
        let state = GameState::cycle_successor(12);
        let spec = Scenario::swap(Objective::Max).spec(0.1, 4);
        let mut scratch = SolverScratch::new();
        for u in 0..12u32 {
            let view = PlayerView::build(&state, u, spec.k);
            let d = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            assert_eq!(d.strategy_local.len(), view.purchases.len());
            let reference = equilibrium::best_response_exhaustive(&spec, &view).unwrap();
            assert_eq!(d.strategy_local, reference.strategy_local, "u={u}");
            assert_eq!(d.total_cost.to_bits(), reference.total_cost.to_bits());
        }
    }

    #[test]
    fn swap_improves_where_subset_games_would_buy_more() {
        // Path ends benefit from re-pointing their one edge inward.
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); 9];
        for (i, sigma) in strategies.iter_mut().enumerate().take(8) {
            sigma.push((i + 1) as NodeId);
        }
        let state = GameState::from_strategies(9, strategies);
        let spec = Scenario::swap(Objective::Max).spec(0.1, 100);
        let view = PlayerView::build(&state, 0, spec.k);
        let mut scratch = SolverScratch::new();
        let d = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
        assert_eq!(d.strategy_local.len(), 1, "swaps cannot change the count");
        assert!(
            GameSpec::strictly_better(d.total_cost, current_total(&spec, &view)),
            "re-pointing the edge toward the middle must improve the end player"
        );
    }

    #[test]
    fn non_uniform_exact_matches_enumeration_under_the_cap() {
        let state = GameState::cycle_successor(10);
        let spec = Scenario::non_uniform(Objective::Max, 0xA5).spec(0.5, 3);
        let mut scratch = SolverScratch::new();
        for u in (0..10u32).step_by(3) {
            let view = PlayerView::build(&state, u, spec.k);
            assert!(view.candidate_count() <= EXHAUSTIVE_CAP);
            let d = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let reference = equilibrium::best_response_exhaustive(&spec, &view).unwrap();
            assert_eq!(d.strategy_local, reference.strategy_local, "u={u}");
            assert_eq!(d.total_cost.to_bits(), reference.total_cost.to_bits());
        }
    }

    #[test]
    fn non_uniform_beyond_cap_falls_back_to_hill_climb_and_never_regresses() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let g = ncg_graph::generators::gnp_connected(30, 0.12, 100, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = Scenario::non_uniform(Objective::Sum, 0xBEE).spec(0.8, 1000);
        let mut scratch = SolverScratch::new();
        for u in (0..30u32).step_by(7) {
            let view = PlayerView::build(&state, u, spec.k);
            assert!(view.candidate_count() > EXHAUSTIVE_CAP);
            let d = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            assert!(d.total_cost <= current_total(&spec, &view) + ncg_core::EPS, "u={u}");
        }
    }

    #[test]
    fn per_target_pricing_steers_purchases_toward_cheap_targets() {
        // Two otherwise-symmetric targets: the hill climb and the
        // enumeration must both prefer the cheaper one on ties.
        let state = GameState::cycle_successor(8);
        let spec = Scenario::non_uniform(Objective::Max, 11).spec(2.0, 2);
        let view = PlayerView::build(&state, 0, spec.k);
        let mut scratch = SolverScratch::new();
        let exact = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
        let greedy = best_response_with(&spec, &view, Mode::Greedy, &mut scratch);
        assert!(exact.total_cost <= greedy.total_cost + ncg_core::EPS);
    }

    #[test]
    fn isolated_player_is_trivial_for_every_scenario() {
        let state = GameState::new(2);
        let view = PlayerView::build(&state, 0, 3);
        let mut scratch = SolverScratch::new();
        for spec in [
            GameSpec::max(1.0, 3),
            Scenario::swap(Objective::Sum).spec(1.0, 3),
            Scenario::non_uniform(Objective::Max, 1).spec(1.0, 3),
        ] {
            let d = best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            assert!(d.strategy_local.is_empty());
            assert_eq!(d.total_cost, 0.0);
        }
    }
}
