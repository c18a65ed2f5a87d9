//! Lower-bound certification benchmarks: how fast the exact solver
//! certifies each gadget family as an LKE (`n` best responses per
//! certification).
//!
//! `lowerbound_torus_cert/thm42_sum_k3` and
//! `lowerbound_girth_cert/n1200_q3_sum` time the two SumNCG gadgets
//! of the paper's size class at a thousand-odd players: every view of
//! the Theorem 4.2 torus at k = 3 and of the Theorem 4.3 high-girth
//! graph splits at the player into two to four components of `H ∖ {u}`,
//! which the Sum best response solves one by one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_constructions::{cycle, high_girth, TorusGrid};
use ncg_core::GameSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_cycle_cert(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowerbound_cycle_cert");
    group.sample_size(10);
    for n in [40usize, 120] {
        let spec = GameSpec::max(3.0, 3);
        group.bench_with_input(BenchmarkId::new("n", n), &n, |b, &n| {
            b.iter(|| assert!(cycle::certify(n, &spec)))
        });
    }
    group.finish();
}

fn bench_girth_cert(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowerbound_girth_cert");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let gadget = high_girth::build(60, 3, 2, &mut rng).unwrap();
    let spec = GameSpec::max(5.0, 2);
    group.bench_function("n60_q3", |b| b.iter(|| assert!(gadget.certify(&spec))));
    // Theorem 4.3: SumNCG at α = kn, k = 2.
    let big = high_girth::build(1200, 3, 2, &mut rng).unwrap();
    let sum_spec = GameSpec::sum(2400.0, 2);
    group.bench_function("n1200_q3_sum", |b| b.iter(|| assert!(big.certify(&sum_spec))));
    group.finish();
}

fn bench_torus_certs(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowerbound_torus_cert");
    group.sample_size(10);
    let max_torus = TorusGrid::for_theorem_312(2.0, 2, 4).unwrap();
    let max_spec = GameSpec::max(2.0, 2);
    group.bench_function("thm312_max_n48", |b| b.iter(|| assert!(max_torus.certify(&max_spec))));
    let sum_torus = TorusGrid::for_theorem_42(2, 4).unwrap();
    let sum_spec = GameSpec::sum(40.0, 2);
    group.bench_function("thm42_sum_n48", |b| b.iter(|| assert!(sum_torus.certify(&sum_spec))));
    let sum_torus_k3 = TorusGrid::for_theorem_42(3, 60).unwrap();
    assert_eq!(sum_torus_k3.n(), 1080);
    let sum_spec_k3 = GameSpec::sum(110.0, 3);
    group
        .bench_function("thm42_sum_k3", |b| b.iter(|| assert!(sum_torus_k3.certify(&sum_spec_k3))));
    group.finish();
}

criterion_group!(benches, bench_cycle_cert, bench_girth_cert, bench_torus_certs);
criterion_main!(benches);
