//! Tier-1-safe performance smoke test for the exact branch-and-bound.
//!
//! Guards the `substrates/dominating_set/exact_bnb` speed-up (the
//! incremental engine's bounds; see `DESIGN.md` §4): a fixed mid-size
//! `G(n, p)` graph-domination instance must solve well under a
//! generous wall-clock cap even in unoptimised debug builds. The seed
//! branch-and-bound spends *minutes* on this instance in release
//! mode, so a regression to seed behaviour trips the cap by orders of
//! magnitude, while CI noise cannot.

use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::NodeId;
use ncg_solver::bitset::BitSet;
use ncg_solver::dominating::DominationInstance;
use ncg_solver::{sum_br, Mode, SolverScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

fn graph_instance(n: usize, p: f64, seed: u64) -> DominationInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = ncg_graph::generators::gnp_connected(n, p, 1000, &mut rng).unwrap();
    DominationInstance::closed_neighborhoods(&g, vec![])
}

#[test]
fn exact_bnb_mid_size_instance_is_fast() {
    // Same generator family and seed discipline as the criterion
    // bench; sized so the optimised solver finishes in well under a
    // second in debug while the seed algorithm would not.
    let inst = graph_instance(100, 0.08, 6);
    let start = Instant::now();
    let solution = inst.solve_exact(usize::MAX).expect("connected instance is feasible");
    let elapsed = start.elapsed();
    // Sanity: the result is a real dominating set.
    let mut covered = BitSet::new(inst.n());
    for &s in &solution {
        covered.union_with(&inst.covers[s as usize]);
    }
    assert!(covered.is_superset(&inst.universe));
    assert!(
        elapsed < Duration::from_secs(60),
        "exact B&B took {elapsed:?} on the mid-size smoke instance — \
         bound regression? (expected well under a second)"
    );
}

#[test]
fn sum_exact_is_fast_on_full_knowledge_views() {
    // The exact-at-scale acceptance floor: SumNCG best responses on
    // full-knowledge views at n ≥ 60 — 4× the removed 14-candidate
    // enumeration cap, where subset enumeration would need 2^64
    // evaluations. The cheap-α regime (packing bound territory) runs
    // every player; the expensive p-median-like α = 2 regime — where
    // the dual-ascent bound carries the search — runs every player in
    // release builds and a fixed spread of players in debug builds,
    // whose ~10× slowdown would otherwise dominate the tier-1 suite.
    // A regression to the pre-dual engine is an order of magnitude in
    // node count and trips the cap in either build. The α = 1 tie
    // plateau runs players 0 and 2 in either build: without the
    // raised-price layer bound (DESIGN.md §9) each of them takes
    // minutes even in release.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let tree = ncg_graph::generators::random_tree(64, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let mut scratch = SolverScratch::new();
    let start = Instant::now();
    for alpha in [0.5, 1.0, 2.0] {
        let spec = GameSpec::sum(alpha, 1000);
        for u in 0..state.n() as NodeId {
            if alpha == 1.0 && u != 0 && u != 2 {
                continue;
            }
            if alpha == 2.0 && cfg!(debug_assertions) && u % 21 != 0 {
                continue;
            }
            let view = PlayerView::build(&state, u, spec.k);
            assert_eq!(view.len(), 64, "full knowledge must see the whole tree");
            let d = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let current = ncg_core::deviation::current_total(&spec, &view);
            assert!(d.total_cost <= current + ncg_core::EPS, "u={u} α={alpha}");
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(120),
        "exact sum solves on 64-node full-knowledge views took {elapsed:?} — \
         bound regression? (expected well under a minute in either build)"
    );
}
