//! Bit-identity of the trait-dispatched front against the pre-refactor
//! engine dispatch, through full dynamics runs.
//!
//! The model-zoo refactor replaced the hard-wired `match objective`
//! dispatch (Max → `max_br`, Sum → `sum_br`) with
//! `front::best_response_with`, which routes by move rule and edge-cost
//! model first. On the two canonical scenarios (uniform pricing, subset
//! moves) the front must be an identity transformation: every accepted
//! move, every trace event, every final strategy and every cost must
//! come out bit-for-bit the same as a responder that inlines the old
//! dispatch.

use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_dynamics::{run_with, DynamicsConfig, Outcome};
use ncg_solver::{max_br, sum_br, Mode, Responder, SolverScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pre-refactor dispatch, inlined: straight to the per-objective
/// engine, no front, no scenario routing. What `Responder` did before
/// the model-zoo layer existed.
struct LegacyResponder {
    mode: Mode,
    scratch: SolverScratch,
}

impl ncg_core::equilibrium::BestResponder for LegacyResponder {
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        match spec.objective {
            ncg_core::Objective::Max => {
                max_br::max_best_response_with(spec, view, self.mode, &mut self.scratch)
            }
            ncg_core::Objective::Sum => {
                sum_br::sum_best_response_with(spec, view, self.mode, &mut self.scratch)
            }
        }
    }
}

fn assert_runs_identical(state: &GameState, spec: GameSpec) {
    let config = DynamicsConfig::new(spec).with_trace();
    let via_front = run_with(state.clone(), &config, &mut Responder::exact());
    let legacy = run_with(
        state.clone(),
        &config,
        &mut LegacyResponder { mode: Mode::Exact, scratch: SolverScratch::new() },
    );
    assert_eq!(via_front.outcome, legacy.outcome);
    assert_eq!(via_front.total_moves, legacy.total_moves);
    for u in 0..state.n() as u32 {
        assert_eq!(via_front.state.strategy(u), legacy.state.strategy(u), "player {u}");
    }
    let (a, b) = (via_front.trace.unwrap(), legacy.trace.unwrap());
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.events.iter().zip(b.events.iter()) {
        assert_eq!(ea.player, eb.player);
        assert_eq!(ea.new_strategy, eb.new_strategy);
        assert_eq!(ea.new_cost.to_bits(), eb.new_cost.to_bits(), "player {}", ea.player);
        assert_eq!(ea.old_cost.to_bits(), eb.old_cost.to_bits(), "player {}", ea.player);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full dynamics through the front == full dynamics through the
    /// old dispatch, for both objectives.
    #[test]
    fn front_dynamics_bit_identical_to_legacy_dispatch(
        seed in 0u64..500,
        n in 8usize..18,
        alpha_i in 0usize..3,
        k in 2u32..=3,
        max_obj in any::<bool>(),
    ) {
        let alpha = [0.4f64, 1.2, 2.5][alpha_i];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(n, 0.25, 100, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = if max_obj { GameSpec::max(alpha, k) } else { GameSpec::sum(alpha, k) };
        assert_runs_identical(&state, spec);
    }
}

/// The two new scenarios run end-to-end through the same loop: swap
/// dynamics preserve every player's purchase count by construction,
/// and non-uniform dynamics converge deterministically.
#[test]
fn new_scenarios_run_through_the_same_loop() {
    use ncg_core::{Objective, Scenario};
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = ncg_graph::generators::gnp_connected(14, 0.2, 100, &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let counts: Vec<usize> = (0..state.n() as u32).map(|u| state.strategy(u).len()).collect();

    let swap = DynamicsConfig::new(Scenario::swap(Objective::Max).spec(0.5, 3));
    let r = run_with(state.clone(), &swap, &mut Responder::exact());
    assert!(matches!(r.outcome, Outcome::Converged { .. } | Outcome::Cycled { .. }));
    for u in 0..state.n() as u32 {
        assert_eq!(
            r.state.strategy(u).len(),
            counts[u as usize],
            "swap moves must preserve player {u}'s purchase count"
        );
    }

    let nonuni = DynamicsConfig::new(Scenario::non_uniform(Objective::Max, 0xC0FFEE).spec(0.8, 2));
    let a = run_with(state.clone(), &nonuni, &mut Responder::exact());
    let b = run_with(state.clone(), &nonuni, &mut Responder::exact());
    assert_eq!(a.outcome, b.outcome, "non-uniform dynamics must be deterministic");
    for u in 0..state.n() as u32 {
        assert_eq!(a.state.strategy(u), b.state.strategy(u));
    }
}
