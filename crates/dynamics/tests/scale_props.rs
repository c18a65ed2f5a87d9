//! Property tests for the scale tier: the CSR-native greedy responder
//! prices exactly (bit-for-bit against the exact tier's view
//! evaluator), never worsens a player, never beats the exact best
//! response, and the simultaneous round loop agrees with the
//! sequential reference whenever rounds are conflict-free — plus
//! bit-identical artifacts across worker-pool sizes.

use ncg_core::deviation::{current_total, evaluate_total, EvalScratch};
use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_dynamics::scale::{
    respond, run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleResponderConfig, ScaleScratch,
    ScaleState,
};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{generators, view, NodeId};
use ncg_solver::front::best_response_with;
use ncg_solver::{Mode, SolverScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small random connected-ish instance: a random tree (seeded) with
/// coin-toss ownership — the same family the paper sweeps.
fn tree_state(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = generators::random_tree(n, &mut rng);
    GameState::from_graph_random_ownership(&tree, &mut rng)
}

/// A sparse `G(n, p)` instance (average degree about 3, possibly
/// disconnected) with coin-toss ownership: balls with cycles, which
/// trees never have.
fn gnp_state(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = generators::gnp(n, 3.0 / n as f64, &mut rng).unwrap();
    GameState::from_graph_random_ownership(&graph, &mut rng)
}

/// A responder configuration wide enough that truncation never hides
/// candidates on these test sizes.
fn exhaustive_cfg() -> ScaleResponderConfig {
    ScaleResponderConfig { max_add_candidates: 64, exhaustive_ball: 1024, max_steps: 64 }
}

/// Runs the scale responder for every player of `gs` and cross-checks
/// each claimed cost bit-for-bit against the exact tier's view
/// evaluator; returns `(player, achieved cost, exact best cost)` per
/// player.
fn check_all_players(gs: &GameState, spec: &GameSpec) -> Vec<(NodeId, f64, f64)> {
    let ss = ScaleState::from_game_state(gs);
    let mut scratch = ScaleScratch::new();
    let (mut buf, mut ball) = (DistanceBuffer::new(), Vec::new());
    let mut solver = SolverScratch::new();
    let mut out = Vec::new();
    for u in 0..gs.n() as NodeId {
        view::ball_into(ss.graph(), u, spec.k, &mut buf, &mut ball);
        let mv = respond(&ss, spec, &exhaustive_cfg(), u, &ball, &mut scratch);
        let view = PlayerView::build_with(gs, u, spec.k, &mut ViewScratch::new());
        let current = current_total(spec, &view);
        let achieved = match &mv {
            Some(mv) => {
                assert_eq!(
                    mv.old_cost.to_bits(),
                    current.to_bits(),
                    "player {u}: responder's baseline disagrees with the view evaluator"
                );
                let local: Vec<NodeId> = mv
                    .strategy
                    .iter()
                    .map(|&g| view.sub.to_local(g).expect("move target must lie in the ball"))
                    .collect();
                let exact_price = evaluate_total(spec, &view, &local, &mut EvalScratch::new());
                assert_eq!(
                    mv.new_cost.to_bits(),
                    exact_price.to_bits(),
                    "player {u}: claimed cost disagrees with the view evaluator"
                );
                assert!(
                    GameSpec::strictly_better(mv.new_cost, mv.old_cost),
                    "player {u}: returned move must be strictly improving"
                );
                mv.new_cost
            }
            None => current,
        };
        let exact = best_response_with(spec, &view, Mode::Exact, &mut solver);
        assert!(
            !GameSpec::strictly_better(achieved, exact.total_cost),
            "player {u}: greedy ({achieved}) cannot beat the exact optimum ({})",
            exact.total_cost
        );
        // When nothing improves on the current strategy, the greedy
        // responder must stand pat — it only ever returns exactly
        // priced strictly improving moves.
        if !GameSpec::strictly_better(exact.total_cost, current) {
            assert!(mv.is_none(), "player {u}: no improvement exists, yet the responder moved");
        }
        out.push((u, achieved, exact.total_cost));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) + (b) + (c): exact pricing, no worsening, agreement with
    /// `best_response_with` whenever the greedy move is exact-optimal
    /// (and mandatory stand-pat when no improvement exists).
    #[test]
    fn responder_is_exactly_priced_and_bounded_by_the_exact_solver(
        seed in 0u64..1_000_000,
        n in 4usize..18,
        ai in 0usize..4,
        k in 2u32..4,
        sum in any::<bool>(),
        gnp in any::<bool>(),
    ) {
        let alpha = [0.3, 0.8, 1.5, 5.0][ai];
        let gs = if gnp { gnp_state(n, seed) } else { tree_state(n, seed) };
        let spec = if sum { GameSpec::sum(alpha, k) } else { GameSpec::max(alpha, k) };
        check_all_players(&gs, &spec);
    }

    /// (d) Sequential-vs-simultaneous parity on conflict-free rounds:
    /// when at most one dirty player per simultaneous round improves
    /// against the frozen network (at most one proposal and nobody
    /// skipped unpriced), the two disciplines provably apply the same
    /// move sequence, so outcome, move count, and final state must be
    /// bit-identical.
    #[test]
    fn single_proposal_rounds_make_the_modes_agree(
        seed in 0u64..1_000_000,
        n in 4usize..16,
        ai in 0usize..3,
        k in 2u32..4,
    ) {
        let alpha = [0.4, 1.2, 4.0][ai];
        let gs = tree_state(n, seed);
        let spec = GameSpec::max(alpha, k);
        let initial = ScaleState::from_game_state(&gs);
        let mut config = ScaleConfig::new(spec);
        config.max_rounds = 64;
        let mut sim_state = initial.clone();
        let sim = run_scale(&mut sim_state, &config, &mut ScaleArena::new());
        if sim.rounds.iter().all(|r| r.proposals <= 1 && r.skipped == 0) {
            config.mode = RoundMode::Sequential;
            let mut seq_state = initial;
            let seq = run_scale(&mut seq_state, &config, &mut ScaleArena::new());
            prop_assert_eq!(sim_state, seq_state, "final states diverge");
            prop_assert_eq!(sim.total_moves, seq.total_moves);
            // Round partitions legitimately differ (a sequential round
            // applies every improving move in one pass), so only the
            // convergence verdict must agree, not the round count.
            prop_assert_eq!(
                std::mem::discriminant(&sim.outcome),
                std::mem::discriminant(&seq.outcome)
            );
        }
    }
}

/// The parity property above is conditional; this fixed seed scan
/// keeps it honest: at `n = 9, α = 2.5, k = 3` roughly a third of
/// random trees produce a run with at least one move and never more
/// than one proposal per round, so the conflict-free branch is
/// exercised on every `cargo test`, not just when the fuzzer gets
/// lucky.
#[test]
fn parity_condition_is_reachable_on_a_known_instance() {
    let mut hit = false;
    for seed in 0..64u64 {
        let gs = tree_state(9, seed);
        let spec = GameSpec::max(2.5, 3);
        let initial = ScaleState::from_game_state(&gs);
        let mut config = ScaleConfig::new(spec);
        config.max_rounds = 64;
        let mut sim_state = initial.clone();
        let sim = run_scale(&mut sim_state, &config, &mut ScaleArena::new());
        if sim.rounds.iter().all(|r| r.proposals <= 1 && r.skipped == 0) && sim.total_moves > 0 {
            hit = true;
            config.mode = RoundMode::Sequential;
            let mut seq_state = initial;
            let seq = run_scale(&mut seq_state, &config, &mut ScaleArena::new());
            assert_eq!(sim_state, seq_state, "seed {seed}: final states diverge");
            assert_eq!(sim.total_moves, seq.total_moves, "seed {seed}");
            assert_eq!(
                std::mem::discriminant(&sim.outcome),
                std::mem::discriminant(&seq.outcome),
                "seed {seed}: convergence verdicts diverge"
            );
        }
    }
    assert!(hit, "no seed produced a non-trivial conflict-free run; the parity property is dead");
}

/// Artifacts must be byte-identical for any worker-pool size — the
/// in-process version of the CI scale lane's `NCG_THREADS=1` vs `4`
/// diff. A fixed resolve window plus the order-preserving vendored map
/// make this exact, not approximate, counters included.
#[test]
fn runs_are_bit_identical_across_thread_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut edges = Vec::new();
    generators::gnp_edges(3_000, 8.0 / 2_999.0, &mut rng, &mut edges).unwrap();
    let owned: Vec<(NodeId, NodeId)> = edges
        .into_iter()
        .enumerate()
        .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
        .collect();
    let initial = ScaleState::from_owned_edges(3_000, &owned);
    let mut config = ScaleConfig::new(GameSpec::max(1.0, 2));
    config.max_rounds = 4;
    let run_with_threads = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let mut state = initial.clone();
            let result = run_scale(&mut state, &config, &mut ScaleArena::new());
            (state, result.outcome, result.total_moves, result.rounds, result.view_sample)
        })
    };
    let single = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(single.0, four.0, "final states must be bit-identical across thread counts");
    assert_eq!(single.1, four.1);
    assert_eq!(single.2, four.2);
    assert_eq!(single.3, four.3);
    assert_eq!(single.4, four.4);
}
