//! Tier-1-safe performance smoke test for the incremental dynamics
//! engine (the `dynamics_rounds` bench's fast guard; see DESIGN.md
//! §6).
//!
//! Two guards, both robust to CI noise and debug builds:
//!
//! * a *structural* one — on a multi-round converging run the view
//!   cache must actually skip solver calls (this is what makes late
//!   rounds and the final quiet round `O(moved balls)` instead of
//!   `O(n·m)`), and the final round must be solver-free except for the
//!   players dirtied by the previous round's moves;
//! * a *wall-clock* one with an orders-of-magnitude margin — the whole
//!   mid-size run must finish far inside a generous cap even in debug,
//!   which a regression to per-round `O(n·m)` rebuilding plus re-solve
//!   of all `n` players would threaten and a real speed-class
//!   regression (seed-style per-candidate clones, cache never marking
//!   anyone clean) would trip.

use ncg_core::{GameSpec, GameState};
use ncg_dynamics::{run, DynamicsConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

#[test]
fn incremental_dynamics_mid_size_run_is_fast_and_skips() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let tree = ncg_graph::generators::random_tree(96, &mut rng);
    let initial = GameState::from_graph_random_ownership(&tree, &mut rng);
    let config = DynamicsConfig::new(GameSpec::max(0.8, 2));
    let start = Instant::now();
    let result = run(initial, &config);
    let elapsed = start.elapsed();
    assert!(result.outcome.converged(), "smoke instance must converge, got {:?}", result.outcome);
    let rounds = result.outcome.rounds();
    assert!(rounds >= 2, "need a multi-round run to exercise the cache (got {rounds})");
    let baseline_calls = 96 * rounds;
    let stats = result.cache_stats.expect("every run reports its cache statistics");
    assert!(
        result.solver_calls < baseline_calls,
        "view cache skipped nothing: {} solver calls out of a {} baseline — \
         dirty-ball tracking regression?",
        result.solver_calls,
        baseline_calls
    );
    assert_eq!(stats.skips as usize, baseline_calls - result.solver_calls);
    assert!(
        elapsed < Duration::from_secs(60),
        "mid-size incremental dynamics took {elapsed:?} — speed-class regression? \
         (expected well under a second in release, a few seconds in debug)"
    );
}
