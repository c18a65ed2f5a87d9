//! The greedy climb against its BFS-priced reference.
//!
//! [`ncg_solver::climb::climb`] prices every trial of the add/drop/swap
//! neighbourhood from distance tables. The reference below is the
//! plain form of the same climb: it scores every trial with
//! [`evaluate_total`], one BFS per trial, and skips none. The two must
//! return the same strategy and the same cost bits, for every
//! candidate list and step cap the workspace uses — every candidate
//! with `hill_climb`'s `4·max(len, 4)` steps, and a narrowed list with
//! the scale responder's 8 — under uniform and per-target pricing,
//! Max and Sum.

use ncg_core::deviation::{current_total, evaluate_total, EvalScratch};
use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, GameState, Objective, PlayerView, Scenario};
use ncg_graph::{generators, NodeId};
use ncg_solver::climb::{climb, ClimbScratch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Steepest descent over single additions of `candidates`, removals
/// and swaps, at most `max_steps` steps, every trial scored through
/// [`evaluate_total`], with the cost → fewer-edges → lexicographic
/// tie-break. The empty strategy is a second seed.
fn reference_climb(
    spec: &GameSpec,
    view: &PlayerView,
    candidates: &[NodeId],
    max_steps: usize,
) -> Deviation {
    let scratch = &mut EvalScratch::new();
    let mut current = view.purchases.clone();
    let mut current_cost = current_total(spec, view);
    let empty_cost = evaluate_total(spec, view, &[], scratch);
    if GameSpec::strictly_better(empty_cost, current_cost) {
        current = Vec::new();
        current_cost = empty_cost;
    }
    for _step in 0..max_steps {
        let mut best_neighbor: Option<(Vec<NodeId>, f64)> = None;
        let mut consider = |strategy: Vec<NodeId>, scratch: &mut EvalScratch| {
            let cost = evaluate_total(spec, view, &strategy, scratch);
            if GameSpec::strictly_better(cost, current_cost)
                && best_neighbor.as_ref().is_none_or(|(bs, bc)| {
                    GameSpec::strictly_better(cost, *bc)
                        || ((cost - bc).abs() <= ncg_core::EPS
                            && (strategy.len() < bs.len()
                                || (strategy.len() == bs.len() && strategy < *bs)))
                })
            {
                best_neighbor = Some((strategy, cost));
            }
        };
        // Additions.
        for &c in candidates {
            if let Err(pos) = current.binary_search(&c) {
                let mut s = current.clone();
                s.insert(pos, c);
                consider(s, scratch);
            }
        }
        // Removals.
        for i in 0..current.len() {
            let mut s = current.clone();
            s.remove(i);
            consider(s, scratch);
        }
        // Swaps: drop one purchase, add one candidate.
        for i in 0..current.len() {
            for &c in candidates {
                if current.binary_search(&c).is_err() {
                    let mut s = current.clone();
                    s.remove(i);
                    let pos = s.binary_search(&c).unwrap_err();
                    s.insert(pos, c);
                    consider(s, scratch);
                }
            }
        }
        match best_neighbor {
            Some((s, c)) => {
                current = s;
                current_cost = c;
            }
            None => break,
        }
    }
    Deviation { strategy_local: current, total_cost: current_cost }
}

/// A random tree, or a sparse `G(n, p)` at average degree about 3
/// (possibly disconnected), with coin-toss ownership.
fn state(n: usize, seed: u64, gnp: bool) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = if gnp {
        generators::gnp(n, 3.0 / n as f64, &mut rng).unwrap()
    } else {
        generators::random_tree(n, &mut rng)
    };
    GameState::from_graph_random_ownership(&g, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every player's climb equals the reference climb on the same
    /// view, candidate list and step cap: strategy, final cost bits,
    /// and a start cost equal to the view's current cost.
    #[test]
    fn climb_matches_the_bfs_priced_reference(
        seed in 0u64..1_000_000,
        n in 4usize..32,
        gnp in any::<bool>(),
        ki in 0usize..4,
        ai in 0usize..7,
        sum in any::<bool>(),
        per_target in any::<bool>(),
        narrowed in any::<bool>(),
        short in any::<bool>(),
    ) {
        let k = [1u32, 2, 3, 1000][ki];
        let alpha = [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 5.0][ai];
        let objective = if sum { Objective::Sum } else { Objective::Max };
        let scenario = if per_target {
            Scenario::non_uniform(objective, seed)
        } else {
            Scenario::from(objective)
        };
        let spec = scenario.spec(alpha, k);
        let gs = state(n, seed, gnp);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e61_7272);
        let mut scratch = ClimbScratch::new();
        for u in 0..n as NodeId {
            let view = PlayerView::build(&gs, u, k);
            let candidates: Vec<NodeId> = if narrowed {
                view.candidates_iter().filter(|_| rng.random_bool(0.3)).collect()
            } else {
                view.candidates()
            };
            let steps = if short { 8 } else { 4 * view.len().max(4) };
            let (start, fast) = climb(&spec, &view, &candidates, steps, &mut scratch);
            let reference = reference_climb(&spec, &view, &candidates, steps);
            let current = current_total(&spec, &view);
            prop_assert_eq!(start.to_bits(), current.to_bits(), "start cost, u {}", u);
            prop_assert_eq!(&fast.strategy_local, &reference.strategy_local, "u {}", u);
            prop_assert_eq!(
                fast.total_cost.to_bits(), reference.total_cost.to_bits(), "u {}", u
            );
        }
    }
}
