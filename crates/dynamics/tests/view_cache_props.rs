//! Property tests for the incremental view cache.
//!
//! Two families of properties back the claim that the incremental
//! engine is observationally identical to per-round rebuilding:
//!
//! 1. **View parity** — after an arbitrary move sequence routed
//!    through [`ViewCache::apply_move`], every *clean* player's view
//!    as of her last refresh is field-for-field identical to a fresh
//!    [`PlayerView::build`], and every refreshed dirty view is too
//!    (exercising the allocation-reusing `rebuild` path).
//! 2. **Dynamics parity** — full runs agree bit-for-bit with
//!    [`rebuild_every_turn`], the seed's round loop kept here as the
//!    oracle, on outcome, final state, move count, and trace.
//!
//! Plus the skip proof: an instrumented responder shows untouched
//! players are never re-solved.

use ncg_core::deviation::current_total;
use ncg_core::equilibrium::BestResponder;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_dynamics::{run, run_with, DynamicsConfig, Outcome, ViewCache};
use ncg_graph::NodeId;
use ncg_solver::Responder;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random strategy profile on `n` players: each ownership pair
/// `(u, v)` means `u` buys an edge to `v`.
fn state_from_pairs(n: usize, pairs: &[(NodeId, NodeId)]) -> GameState {
    let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(u, v) in pairs {
        if u != v {
            strategies[u as usize].push(v);
        }
    }
    GameState::from_strategies(n, strategies)
}

/// What [`rebuild_every_turn`] reports, in the shape of the runner's
/// `RunResult` and trace.
struct OracleRun {
    outcome: Outcome,
    state: GameState,
    total_moves: usize,
    solver_calls: usize,
    /// `(round, player, new strategy as the responder returned it)`
    /// per accepted move.
    moves: Vec<(usize, NodeId, Vec<NodeId>)>,
}

/// The seed's round loop, the oracle of the incremental runner: every
/// round builds every player's view from scratch and re-solves her,
/// and a cycle is an end-of-round profile equal to an earlier one,
/// found by comparing whole profiles. It shares neither the view
/// cache's dirty bits nor the fingerprint detector with [`run`].
fn rebuild_every_turn(initial: GameState, config: &DynamicsConfig) -> OracleRun {
    let spec = config.spec;
    let mut responder = Responder::new(config.mode);
    let profile = |s: &GameState| -> Vec<Vec<NodeId>> {
        (0..s.n() as NodeId).map(|u| s.strategy(u).to_vec()).collect()
    };
    let mut state = initial;
    let mut seen = vec![profile(&state)];
    let (mut total_moves, mut solver_calls, mut moves) = (0, 0, Vec::new());
    let mut outcome = Outcome::MaxRoundsExceeded { rounds: config.max_rounds };
    for round in 1..=config.max_rounds {
        let mut moved = 0;
        for u in 0..state.n() as NodeId {
            let view = PlayerView::build(&state, u, spec.k);
            let current = current_total(&spec, &view);
            solver_calls += 1;
            let best = responder.best_response(&spec, &view);
            if GameSpec::strictly_better(best.total_cost, current) {
                let global = view.strategy_to_global(&best.strategy_local);
                moves.push((round, u, global.clone()));
                state.set_strategy(u, global);
                moved += 1;
            }
        }
        total_moves += moved;
        if moved == 0 {
            outcome = Outcome::Converged { rounds: round };
            break;
        }
        let end = profile(&state);
        if let Some(first_seen) = seen.iter().position(|p| *p == end) {
            outcome = Outcome::Cycled { first_seen, repeated_at: round };
            break;
        }
        seen.push(end);
    }
    OracleRun { outcome, state, total_moves, solver_calls, moves }
}

/// `(n, ownership pairs, k, move sequence)`.
type Scenario = (usize, Vec<(NodeId, NodeId)>, u32, Vec<(NodeId, Vec<NodeId>)>);

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4..=14usize).prop_flat_map(|n| {
        let node = 0..n as NodeId;
        let pairs = proptest::collection::vec((node.clone(), node.clone()), 0..=2 * n);
        let moves = proptest::collection::vec(
            (node.clone(), proptest::collection::vec(node, 0..=4)),
            1..=12,
        );
        (Just(n), pairs, 1..=3u32, moves)
    })
}

proptest! {
    // Capped so a full `cargo test -q` stays fast and deterministic;
    // override with PROPTEST_CASES (and PROPTEST_SEED) for deeper runs.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: each player's view as of her last refresh stays
    /// identical to a from-scratch build after arbitrary move
    /// sequences while she is clean (the invalidation never misses a
    /// changed ball), and dirty players' in-place rebuilds equal
    /// scratch builds.
    #[test]
    fn cached_views_match_scratch_builds((n, pairs, k, moves) in arb_scenario()) {
        let mut state = state_from_pairs(n, &pairs);
        let mut cache = ViewCache::new(n, k);
        let mut snapshots: Vec<PlayerView> =
            (0..n as NodeId).map(|u| cache.refresh(&state, u).clone()).collect();
        for (mover, strategy) in moves {
            let strategy: Vec<NodeId> =
                strategy.into_iter().filter(|&v| v != mover).collect();
            cache.apply_move(&mut state, mover, strategy);
            // A clean player's last view must still be current — the
            // invalidation-soundness half of the engine.
            for (u, snapshot) in (0..n as NodeId).zip(&snapshots) {
                if cache.is_clean(u) {
                    prop_assert_eq!(
                        snapshot,
                        &PlayerView::build(&state, u, k),
                        "clean player {} holds a stale view", u
                    );
                }
            }
            // Refreshing the dirty players exercises the in-place
            // rebuild path; results must equal scratch builds too.
            for (u, snapshot) in (0..n as NodeId).zip(&mut snapshots) {
                if !cache.is_clean(u) {
                    let view = cache.refresh(&state, u);
                    prop_assert_eq!(
                        view,
                        &PlayerView::build(&state, u, k),
                        "rebuilt view of {} diverges", u
                    );
                    *snapshot = view.clone();
                }
            }
        }
    }

    /// Property 2 (acceptance criterion): dynamics outcomes are
    /// bit-identical to the rebuild-every-turn oracle, real solver,
    /// both workload classes the paper sweeps.
    #[test]
    fn dynamics_parity_cache_on_vs_off(
        n in 6..=18usize,
        seed in any::<u64>(),
        alpha_i in 0..3usize,
        k in 2..=3u32,
        er in any::<bool>(),
    ) {
        let alpha = [0.3, 1.0, 2.5][alpha_i];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = if er {
            ncg_graph::generators::gnp_connected(n, 0.3, 200, &mut rng)
                .unwrap_or_else(|_| ncg_graph::generators::random_tree(n, &mut rng))
        } else {
            ncg_graph::generators::random_tree(n, &mut rng)
        };
        let initial = GameState::from_graph_random_ownership(&graph, &mut rng);
        let config = DynamicsConfig::new(GameSpec::max(alpha, k)).with_trace();
        let a = run(initial.clone(), &config);
        let b = rebuild_every_turn(initial, &config);
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.total_moves, b.total_moves);
        prop_assert_eq!(a.state, b.state);
        let ta = a.trace.unwrap();
        prop_assert_eq!(ta.events.len(), b.moves.len());
        for (ea, (round, player, new_strategy)) in ta.events.iter().zip(&b.moves) {
            prop_assert_eq!(ea.round, *round);
            prop_assert_eq!(ea.player, *player);
            prop_assert_eq!(&ea.new_strategy, new_strategy);
        }
        prop_assert!(a.solver_calls <= b.solver_calls);
    }
}

/// The incremental runner and the rebuild-every-turn oracle agree on
/// random trees across the α/k corners, and the cache only ever skips
/// work.
#[test]
fn cache_and_rebuild_paths_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..3 {
        let tree = ncg_graph::generators::random_tree(24, &mut rng);
        let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
        for (alpha, k) in [(0.4, 2u32), (1.0, 3), (4.0, 2)] {
            let config = DynamicsConfig::new(GameSpec::max(alpha, k));
            let a = run(initial.clone(), &config);
            let b = rebuild_every_turn(initial.clone(), &config);
            assert_eq!(a.outcome, b.outcome, "α={alpha} k={k}");
            assert_eq!(a.state, b.state, "α={alpha} k={k}");
            assert_eq!(a.total_moves, b.total_moves, "α={alpha} k={k}");
            assert!(
                a.solver_calls <= b.solver_calls,
                "the cache may only ever skip work (α={alpha} k={k})"
            );
            let stats = a.cache_stats.expect("every run reports its cache statistics");
            assert_eq!(stats.rebuilds as usize, a.solver_calls, "α={alpha} k={k}");
        }
    }
}

/// A responder that forces player 0 to toggle her purchase between
/// global nodes 1 and 2 forever; everyone else stands pat. On a long
/// path with `k = 2`, only players within the invalidation radius of
/// `{0, 1, 2}` may ever be re-solved.
struct TogglingZero;

impl ncg_core::equilibrium::BestResponder for TogglingZero {
    fn best_response(
        &mut self,
        spec: &GameSpec,
        view: &PlayerView,
    ) -> ncg_core::equilibrium::Deviation {
        if view.center_global != 0 {
            return ncg_core::equilibrium::Deviation {
                strategy_local: view.purchases.clone(),
                total_cost: ncg_core::deviation::current_total(spec, view),
            };
        }
        let currently_buys_1 = view.purchases.iter().any(|&l| view.sub.to_global(l) == 1);
        let target: NodeId = if currently_buys_1 { 2 } else { 1 };
        let local = view.sub.to_local(target).expect("targets 1 and 2 stay visible at k=2");
        ncg_core::equilibrium::Deviation {
            strategy_local: vec![local],
            total_cost: f64::NEG_INFINITY,
        }
    }
}

/// The skip proof (move-count instrumentation): players outside every
/// touched ball are solved exactly once, in round 1, and never again.
#[test]
fn untouched_players_are_provably_skipped() {
    // Path 0-1-…-11; only player 0 ever moves, toggling between
    // targets 1 and 2. Touched endpoints per round: {0, 1, 2}.
    let n = 12;
    let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (i, sigma) in strategies.iter_mut().enumerate().take(n - 1) {
        sigma.push((i + 1) as NodeId);
    }
    let state = GameState::from_strategies(n, strategies);
    let k = 2;
    let mut calls = vec![0usize; n];
    let mut counting = |spec: &GameSpec, view: &PlayerView| {
        calls[view.center_global as usize] += 1;
        TogglingZero.best_response(spec, view)
    };
    let config = DynamicsConfig::new(GameSpec::max(1.0, k));
    let result = run_with(state, &config, &mut counting);
    // The toggle has period 2: the end-of-round-2 profile equals the
    // initial one and the (fingerprint) detector must say so.
    assert_eq!(result.outcome, Outcome::Cycled { first_seen: 0, repeated_at: 2 });
    assert_eq!(result.total_moves, 2, "player 0 moves once per executed round");
    // Round 1 solves everyone. The move touches endpoints {0, 1, 2},
    // so round 2 re-solves exactly the players within distance k = 2
    // of those (the same in the graph before and after the toggle):
    // 0..=4.
    // Everyone further out is solved exactly once, then skipped.
    for (u, &count) in calls.iter().enumerate() {
        if u <= 4 {
            assert_eq!(count, 2, "player {u} is inside the dirty ball");
        } else {
            assert_eq!(count, 1, "player {u} must be solved once and then skipped");
        }
    }
    let solved: usize = calls.iter().sum();
    let stats = result.cache_stats.expect("every run reports its cache statistics");
    assert_eq!(stats.rebuilds as usize, solved);
    assert_eq!(stats.skips as usize, n * 2 - solved);
}

/// Belt-and-braces determinism: the cached run equals itself across
/// repetitions (guards against accidental nondeterminism in the
/// dirty-ball bookkeeping).
#[test]
fn cached_runs_are_reproducible() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let tree = ncg_graph::generators::random_tree(40, &mut rng);
    let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
    let config = DynamicsConfig::new(GameSpec::max(0.8, 2));
    let a = run(initial.clone(), &config);
    let b = run(initial, &config);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.state, b.state);
    assert_eq!(a.solver_calls, b.solver_calls);
    assert_eq!(a.cache_stats, b.cache_stats);
}
