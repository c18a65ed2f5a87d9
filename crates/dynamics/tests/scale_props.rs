//! Property tests for the scale tier: its views are the exact tier's
//! views, the greedy responder prices exactly (bit-for-bit against the
//! exact tier's view evaluator), never worsens a player, never beats
//! the exact best response,
//! and the simultaneous round loop agrees with the sequential reference
//! whenever rounds are conflict-free — plus bit-identical artifacts
//! across worker-pool sizes and pinned runs.

use ncg_core::deviation::{current_total, evaluate_total, EvalScratch};
use ncg_core::{GameSpec, GameState, PlayerView, RowScratch, ViewScratch};
use ncg_dynamics::scale::{
    respond, run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleScratch, ScaleState,
};
use ncg_dynamics::Outcome;
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{generators, NodeId, INFINITY};
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

/// A sparse `G(n, avg_deg/(n − 1))` state, edge ownership alternating
/// between the endpoints.
fn gnp_scale_state(n: usize, avg_deg: f64, seed: u64) -> ScaleState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    generators::gnp_edges(n, avg_deg / (n - 1) as f64, &mut rng, &mut edges).unwrap();
    let owned: Vec<(NodeId, NodeId)> = edges
        .into_iter()
        .enumerate()
        .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
        .collect();
    ScaleState::from_owned_edges(n, &owned)
}

/// Runs the scale responder for every player of `gs` and cross-checks
/// each claimed cost bit-for-bit against the exact tier's view
/// evaluator; returns `(player, achieved cost, exact best cost)` per
/// player.
fn check_all_players(gs: &GameState, spec: &GameSpec) -> Vec<(NodeId, f64, f64)> {
    let ss = ScaleState::from_game_state(gs);
    let mut scratch = ScaleScratch::new();
    let (mut slot, mut views) = (PlayerView::default(), ViewScratch::new());
    let mut solver = SolverScratch::new();
    let mut out = Vec::new();
    for u in 0..gs.n() as NodeId {
        slot.rebuild(&ss, u, spec.k, &mut views);
        let mv = respond(spec, &slot, &mut scratch);
        let view = PlayerView::build(gs, u, spec.k);
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

    /// Both tiers build their views with `PlayerView::rebuild`: one
    /// warm slot rebuilt from the flat state, player by player and
    /// radius by radius, equals a fresh view of the exact state field
    /// for field. The rows the responder and the Sum engine read are
    /// the per-source `H ∖ {u}` sweeps, and the center's row is all
    /// `INFINITY`.
    #[test]
    fn scale_views_and_rows_are_the_exact_tiers(
        seed in 0u64..1_000_000,
        n in 4usize..40,
        gnp in any::<bool>(),
    ) {
        let gs = if gnp { gnp_state(n, seed) } else { tree_state(n, seed) };
        let ss = ScaleState::from_game_state(&gs);
        let exact = ss.to_game_state();
        let (mut slot, mut views) = (PlayerView::default(), ViewScratch::new());
        let (mut buf, mut row_scratch, mut rows) =
            (DistanceBuffer::new(), RowScratch::new(), Vec::new());
        for k in [1u32, 2, 3, 1000] {
            for u in 0..n as NodeId {
                slot.rebuild(&ss, u, k, &mut views);
                prop_assert_eq!(&slot, &PlayerView::build(&exact, u, k), "u {} k {}", u, k);

                let b = slot.len();
                rows.clear();
                slot.extend_rows_minus_center(0..b as NodeId, &mut row_scratch, &mut rows);
                prop_assert_eq!(rows.len(), b * b);
                for (s, row) in rows.chunks(b).enumerate() {
                    if s == slot.center as usize {
                        prop_assert!(row.iter().all(|&d| d == INFINITY), "center row, u {}", u);
                    } else {
                        slot.bfs_minus_center(&[s as NodeId], &mut buf);
                        prop_assert_eq!(row, buf.distances(), "row {}, u {} k {}", s, u, k);
                    }
                }
            }
        }
    }

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
    let initial = gnp_scale_state(3_000, 8.0, 77);
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

/// FNV-1a, 64-bit, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hashes everything a `run_scale` run reports: the outcome, every
/// round's counters, the view sample and the final strategies.
fn run_digest(initial: &ScaleState, config: &ScaleConfig) -> u64 {
    let mut state = initial.clone();
    let result = run_scale(&mut state, config, &mut ScaleArena::new());
    let mut h = Fnv::new();
    let (tag, a, b) = match result.outcome {
        Outcome::Converged { rounds } => (0, rounds, 0),
        Outcome::Cycled { first_seen, repeated_at } => (1, first_seen, repeated_at),
        Outcome::MaxRoundsExceeded { rounds } => (2, rounds, 0),
    };
    for w in [tag, a as u64, b as u64, result.rounds.len() as u64] {
        h.word(w);
    }
    for r in &result.rounds {
        for w in [r.dirty, r.proposals, r.skipped, r.applied, r.conflicts] {
            h.word(w as u64);
        }
    }
    let sample = result.view_sample;
    for w in [sample.lanes as u64, sample.min as u64, sample.max as u64, sample.avg.to_bits()] {
        h.word(w);
    }
    for u in 0..state.n() as NodeId {
        let row = state.strategy(u);
        h.word(row.len() as u64);
        row.iter().for_each(|&v| h.word(v as u64));
    }
    h.0
}

/// Pinned scale-tier runs: every move, counter and the final profile of
/// `run_scale` on fixed sparse `G(n, p)` states, Max at α ∈ {1, 3, 5}
/// and k ∈ {2, 3} plus one Sum cell. Nothing else pins the scale
/// tier's moves across changes (the responder's in-crate oracle shares
/// its distance rows), so a refactor of the responder or the round
/// loop must leave every digest alone. A deliberate change of moves
/// re-pins: copy the digests the failure prints and record the reason
/// in the change log.
#[test]
fn scale_runs_are_pinned() {
    // (n, average degree, seed, spec, round cap)
    let cells = [
        (2_000, 6.0, 1, GameSpec::max(1.0, 2), 6),
        (2_000, 8.0, 2, GameSpec::max(3.0, 2), 6),
        (2_000, 10.0, 3, GameSpec::max(5.0, 2), 6),
        (2_000, 6.0, 4, GameSpec::max(3.0, 3), 4),
        (2_000, 6.0, 5, GameSpec::max(5.0, 3), 4),
        (2_000, 6.0, 6, GameSpec::sum(1.0, 3), 6),
    ];
    let pins: [u64; 6] = [
        0x2d7a_170c_b0a4_cb77,
        0x806f_acea_685c_3cd0,
        0xadf6_caf3_c1c3_a883,
        0xb51e_82bc_e198_03c3,
        0x23e3_9bea_cebc_0d64,
        0xd5a0_f679_f205_570d,
    ];
    let actual: Vec<u64> = cells
        .iter()
        .map(|&(n, avg_deg, seed, spec, max_rounds)| {
            let mut config = ScaleConfig::new(spec);
            config.max_rounds = max_rounds;
            run_digest(&gnp_scale_state(n, avg_deg, seed), &config)
        })
        .collect();
    let listing: String = actual.iter().map(|d| format!("0x{d:016x}, ")).collect();
    assert_eq!(
        actual, pins,
        "scale-tier runs no longer match their pins; if the change is intended, re-pin with: \
         [{listing}]"
    );
}
