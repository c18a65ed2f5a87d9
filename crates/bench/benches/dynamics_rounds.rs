//! Dynamics-engine benchmarks for the incremental round machinery:
//!
//! * `dynamics_rounds` — one full dynamics run on a converged-tail
//!   instance (several rounds, sharply decaying move counts — the
//!   shape of every figure sweep in the paper) through the incremental
//!   view cache.
//! * `sweep_skewed` — a small `(α, k, rep)` sweep whose cells have
//!   wildly different costs (local `k = 2` cells converge in a few
//!   cheap rounds; full-knowledge `k = 1000` cells do orders of
//!   magnitude more solver work), exercising the work-stealing rayon
//!   shim. Static chunking serialises behind the unlucky worker that
//!   owns the heavy cells.

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::{GameSpec, GameState, Objective};
use ncg_dynamics::{run, DynamicsConfig};
use ncg_experiments::sweep::{run_spec_cells, Shard, SweepSpec};
use ncg_graph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The converged-tail instance: a large grid region already at
/// equilibrium plus a successor-owned 40-cycle hanging off one corner,
/// reset to its collapsing profile. Re-convergence takes ~5 rounds
/// whose moves stay inside the cycle's neighbourhood, so rebuilding
/// every view each round would spend almost all its time
/// re-confirming the 324 quiet grid players — the workload shape of
/// the paper's Figures 5–10 tails, distilled.
fn tail_instance() -> (GameState, DynamicsConfig) {
    let side = 18usize;
    let cycle = 40usize;
    let grid_n = side * side;
    let g = ncg_graph::generators::grid(side, side);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let grid_state = GameState::from_graph_random_ownership(&g, &mut rng);
    let mut strategies: Vec<Vec<NodeId>> =
        (0..grid_n).map(|u| grid_state.strategy(u as NodeId).to_vec()).collect();
    let base = grid_n as NodeId;
    for i in 0..cycle {
        strategies.push(vec![base + ((i + 1) % cycle) as NodeId]);
    }
    strategies[0].push(base); // tie the cycle to the grid corner
    let state = GameState::from_strategies(grid_n + cycle, strategies);
    let config = DynamicsConfig::new(GameSpec::max(0.5, 4));
    // Converge everything once (setup, untimed), then reset the cycle
    // tail to the collapsing successor profile: a near-equilibrium
    // state with one locally perturbed region.
    let eq = run(state, &config);
    assert!(eq.outcome.converged(), "setup run must converge");
    let mut perturbed = eq.state;
    for i in 0..cycle {
        perturbed.set_strategy(base + i as NodeId, vec![base + ((i + 1) % cycle) as NodeId]);
    }
    (perturbed, config)
}

fn bench_dynamics_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics_rounds");
    group.sample_size(10);
    let (initial, config) = tail_instance();
    assert!(
        run(initial.clone(), &config).outcome.rounds() >= 3,
        "want a multi-round tail instance"
    );
    group.bench_function("incremental", |b| b.iter(|| run(initial.clone(), &config)));
    group.finish();
}

fn bench_sweep_skewed(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_skewed");
    group.sample_size(10);
    // 2 α × 2 k × 4 reps = 16 cells; the k = 1000 column dominates the
    // total work by a wide margin, so static chunking leaves most
    // workers idle while one grinds through the heavy cells.
    let spec = SweepSpec::tree("t", 60, 4, 5, vec![0.5, 2.0], vec![2, 1000], Objective::Max);
    group.bench_function("tree60_heavy_tail", |b| {
        b.iter(|| {
            run_spec_cells(
                &spec,
                true,
                Shard::all(),
                &|_| false,
                &|_, record| {
                    std::hint::black_box(record.expect("no cell may fail"));
                },
                &|_| false,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dynamics_rounds, bench_sweep_skewed);
criterion_main!(benches);
