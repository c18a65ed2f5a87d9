//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * exact B&B dominating sets vs greedy approximation inside the
//!   dynamics (time; the quality delta is reported by the test suite);
//! * rayon-parallel sweeps vs a single-threaded pool;
//! * per-round metric collection overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::{GameSpec, GameState};
use ncg_dynamics::{run, run_many, DynamicsConfig};
use ncg_experiments::workloads;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tree_initial(n: usize, seed: u64) -> GameState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = ncg_graph::generators::random_tree(n, &mut rng);
    GameState::from_graph_random_ownership(&tree, &mut rng)
}

fn bench_exact_vs_greedy_dynamics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_exact_vs_greedy");
    group.sample_size(10);
    let initial = tree_initial(60, 5);
    let spec = GameSpec::max(1.0, 3);
    group.bench_function("dynamics_exact", |b| {
        b.iter(|| run(initial.clone(), &DynamicsConfig::new(spec)))
    });
    group.bench_function("dynamics_greedy", |b| {
        b.iter(|| run(initial.clone(), &DynamicsConfig::new(spec).greedy()))
    });
    group.finish();
}

fn bench_parallel_vs_sequential_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_sweep");
    group.sample_size(10);
    let states = workloads::tree_states(30, 4, 77);
    let config = DynamicsConfig::new(GameSpec::max(1.0, 3));
    group.bench_function("rayon_default_pool", |b| b.iter(|| run_many(states.clone(), &config)));
    group.bench_function("single_thread_pool", |b| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        b.iter(|| pool.install(|| run_many(states.clone(), &config)))
    });
    group.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_per_round_metrics");
    group.sample_size(10);
    let initial = tree_initial(60, 6);
    let spec = GameSpec::max(0.5, 4);
    group.bench_function("metrics_off", |b| {
        b.iter(|| run(initial.clone(), &DynamicsConfig::new(spec)))
    });
    group.bench_function("metrics_on", |b| {
        b.iter(|| run(initial.clone(), &DynamicsConfig::new(spec).with_per_round_metrics()))
    });
    group.finish();
}

fn bench_sum_vs_max_dynamics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sum_vs_max");
    group.sample_size(10);
    let initial = tree_initial(30, 7);
    group.bench_function("max_k3", |b| {
        let config = DynamicsConfig::new(GameSpec::max(1.5, 3));
        b.iter(|| run(initial.clone(), &config))
    });
    group.bench_function("sum_k3", |b| {
        let config = DynamicsConfig::new(GameSpec::sum(1.5, 3));
        b.iter(|| run(initial.clone(), &config))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_vs_greedy_dynamics,
    bench_parallel_vs_sequential_sweep,
    bench_metrics_overhead,
    bench_sum_vs_max_dynamics
);
criterion_main!(benches);
