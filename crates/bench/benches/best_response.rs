//! Best-response engine benchmarks: the Section 5.3 reduction (our
//! Gurobi replacement) across view sizes, exact vs greedy, Max vs Sum,
//! and the incremental engine against the seed per-`h` rebuild loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_graph::NodeId;
use ncg_solver::{max_br, sum_br, Mode, SolverScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tree_state(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = ncg_graph::generators::random_tree(n, &mut rng);
    GameState::from_graph_random_ownership(&tree, &mut rng)
}

fn er_state(n: usize, p: f64, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = ncg_graph::generators::gnp_connected(n, p, 1000, &mut rng).unwrap();
    GameState::from_graph_random_ownership(&g, &mut rng)
}

fn bench_max_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_best_response_exact");
    group.sample_size(15);
    // Local views on a big tree.
    let tree = tree_state(200, 1);
    for k in [2u32, 5, 10] {
        let spec = GameSpec::max(1.0, k);
        let view = PlayerView::build(&tree, 0, k);
        group.bench_with_input(BenchmarkId::new("tree200_k", k), &view, |b, view| {
            b.iter(|| max_br::max_best_response(&spec, view, Mode::Exact))
        });
    }
    // Full-knowledge views on the paper's n = 100 ER row: the
    // incremental engine with reused scratch (the dynamics hot path),
    // the per-call-scratch variant, and the seed rebuild baseline.
    let er = er_state(100, 0.1, 2);
    let spec = GameSpec::max(1.0, 1000);
    let view = PlayerView::build(&er, 0, 1000);
    group.bench_function("er100_full_view", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut scratch))
    });
    group.bench_function("er100_full_view_cold_scratch", |b| {
        b.iter(|| max_br::max_best_response(&spec, &view, Mode::Exact))
    });
    group.bench_function("er100_full_view_rebuild", |b| {
        b.iter(|| max_br::max_best_response_cost_rebuild(&spec, &view))
    });
    // The exact solves of one dynamics turn per player on the ledger's
    // two Max shapes: `tree_local` (200-node random tree, k = 2) and
    // `er_full` (G(70, 0.15), full knowledge). One warm scratch solves
    // every player's view in turn; the views are built outside the
    // timed loop.
    let sweeps = [
        ("tree200_k2_all_players", tree_state(200, 5), 2u32, 0.3),
        ("er70_full_all_players", er_state(70, 0.15, 6), 1000, 0.5),
    ];
    for (name, state, k, alpha) in sweeps {
        let spec = GameSpec::max(alpha, k);
        let views: Vec<PlayerView> =
            (0..state.n() as NodeId).map(|u| PlayerView::build(&state, u, k)).collect();
        let mut scratch = SolverScratch::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                views
                    .iter()
                    .map(|view| {
                        max_br::max_best_response_with(&spec, view, Mode::Exact, &mut scratch)
                            .strategy_local
                            .len()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_max_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_best_response_greedy");
    group.sample_size(15);
    let er = er_state(100, 0.1, 2);
    let spec = GameSpec::max(1.0, 1000);
    let view = PlayerView::build(&er, 0, 1000);
    group.bench_function("er100_full_view", |b| {
        b.iter(|| max_br::max_best_response(&spec, &view, Mode::Greedy))
    });
    group.finish();
}

fn bench_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("sum_best_response");
    group.sample_size(15);
    let tree = tree_state(80, 3);
    // Small view (k = 2, well under 20 candidates): subset enumeration
    // and the branch-and-bound on the same instance, with the results
    // pinned equal so the bench doubles as a parity check — a bound
    // bug here would fail loudly rather than quietly reporting a
    // faster-but-wrong engine.
    let spec2 = GameSpec::sum(1.0, 2);
    let view2 = PlayerView::build(&tree, 0, 2);
    let reference = ncg_core::equilibrium::best_response_exhaustive(&spec2, &view2).unwrap();
    group.bench_function("enumerate", |b| {
        b.iter(|| ncg_core::equilibrium::best_response_exhaustive(&spec2, &view2).unwrap())
    });
    group.bench_function("bnb", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| {
            let d = sum_br::sum_best_response_with(&spec2, &view2, Mode::Exact, &mut scratch);
            assert_eq!(d.strategy_local, reference.strategy_local, "bnb diverged from enumeration");
            d
        })
    });
    // Full-knowledge view (63 candidates, far beyond any enumeration
    // cap): the exact branch-and-bound on the dynamics hot path with
    // warm scratch, against the hill-climb heuristic it replaced as
    // the `Mode::Exact` fallback. Same instance class as the
    // `perf_smoke.rs` pin (tree 64, seed 11, α = 2.0), in the
    // p-median-like regime the dual ascent carries.
    let tree_full = tree_state(64, 11);
    let spec_full = GameSpec::sum(2.0, 1000);
    let view_full = PlayerView::build(&tree_full, 0, 1000);
    group.bench_function("bnb_full_view", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| sum_br::sum_best_response_with(&spec_full, &view_full, Mode::Exact, &mut scratch))
    });
    // The α = 1 tie plateau (DESIGN.md §9) on a 40-node full-knowledge
    // tree view: after the first incumbent most of the search proves
    // that nothing ties it with fewer edges or a lex-smaller strategy,
    // the work the raised-price layer bound cuts.
    let tree_plateau = tree_state(40, 11);
    let spec_plateau = GameSpec::sum(1.0, 1000);
    let view_plateau = PlayerView::build(&tree_plateau, 0, 1000);
    group.bench_function("bnb_full_view_alpha1", |b| {
        let mut scratch = SolverScratch::new();
        b.iter(|| {
            sum_br::sum_best_response_with(&spec_plateau, &view_plateau, Mode::Exact, &mut scratch)
        })
    });
    group.bench_function("hillclimb", |b| {
        b.iter(|| sum_br::sum_best_response(&spec_full, &view_full, Mode::Greedy))
    });
    group.finish();
}

fn bench_view_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_build");
    group.sample_size(20);
    let er = er_state(200, 0.05, 4);
    for k in [2u32, 4, 1000] {
        group.bench_with_input(BenchmarkId::new("er200_k", k), &k, |b, &k| {
            b.iter(|| PlayerView::build(&er, 17, k))
        });
    }
    // The dynamics refresh path (`ViewCache::refresh`): one warm slot
    // and one scratch rebuilt in place for every player in turn, on
    // the ledger's `tree_local` shape (200-node random tree, k = 2)
    // and `er_full` shape (G(70, 0.15), full knowledge).
    let sweeps = [
        ("rebuild_all_tree200_k2", tree_state(200, 5), 2u32),
        ("rebuild_all_er70_k1000", er_state(70, 0.15, 6), 1000),
    ];
    for (name, state, k) in sweeps {
        let mut scratch = ViewScratch::new();
        let mut slot = PlayerView::build_with(&state, 0, k, &mut scratch);
        group.bench_function(name, |b| {
            b.iter(|| {
                for u in 0..state.n() as NodeId {
                    slot.rebuild(&state, u, k, &mut scratch);
                }
                slot.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_exact, bench_max_greedy, bench_sum, bench_view_build);
criterion_main!(benches);
