//! Substrate micro-benchmarks: the BFS kernels, graph metrics,
//! generators and the dominating-set core that every experiment
//! bottoms out in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_graph::bfs::{bfs, DistanceBuffer};
use ncg_graph::{generators, metrics, view};
use ncg_solver::bitset::BitSet;
use ncg_solver::dominating::DominationInstance;
use ncg_solver::engine::DominationEngine;
use ncg_solver::max_br::RingGrowth;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    group.sample_size(20);
    for n in [100usize, 400] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::gnp_connected(n, 8.0 / n as f64, 1000, &mut rng).unwrap();
        let mut buf = DistanceBuffer::with_capacity(n);
        group.bench_with_input(BenchmarkId::new("single_source", n), &g, |b, g| {
            b.iter(|| bfs(g, 0, &mut buf))
        });
        // Ablation: the frozen CSR layout vs the mutable Vec<Vec<_>>.
        let csr = ncg_graph::CsrGraph::from_graph(&g);
        let mut csr_buf = DistanceBuffer::with_capacity(n);
        group.bench_with_input(BenchmarkId::new("single_source_csr", n), &csr, |b, csr| {
            b.iter(|| csr.bfs(0, &mut csr_buf))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs_parallel", n), &g, |b, g| {
            b.iter(|| black_box(metrics::distance_matrix(g)))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs_csr_sequential", n), &csr, |b, csr| {
            b.iter(|| black_box(csr.distance_matrix()))
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(20);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let g = generators::gnp_connected(200, 0.05, 1000, &mut rng).unwrap();
    group.bench_function("diameter_n200", |b| b.iter(|| metrics::diameter(black_box(&g))));
    group.bench_function("girth_n200", |b| b.iter(|| metrics::girth(black_box(&g))));
    group.bench_function("power2_n200", |b| b.iter(|| view::power(black_box(&g), 2)));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(20);
    group.bench_function("random_tree_n200", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| generators::random_tree(200, &mut rng))
    });
    group.bench_function("gnp_n200_p0.1", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| generators::gnp(200, 0.1, &mut rng).unwrap())
    });
    group.bench_function("high_girth_n120_q3_g6", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            generators::high_girth(generators::HighGirthParams::new(120, 3, 6), &mut rng).unwrap()
        })
    });
    group.finish();
}

fn graph_domination_instance(n: usize, p: f64, rng: &mut ChaCha8Rng) -> DominationInstance {
    let g = generators::gnp_connected(n, p, 1000, rng).unwrap();
    DominationInstance::closed_neighborhoods(&g, vec![])
}

fn bench_dominating(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominating_set");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    // Default instances sized so a local `cargo bench` terminates in
    // seconds (the ROADMAP's `exact_bnb/120` on G(120, 0.06) ran for
    // minutes per solve under the seed solver and still takes minutes
    // of total bench time after the engine speed-up; set
    // NCG_BENCH_HARD=1 to include it for before/after measurements).
    let mut sizes = vec![(60usize, 0.1), (100, 0.08)];
    if std::env::var_os("NCG_BENCH_HARD").is_some_and(|v| v != "0") {
        sizes.push((120, 0.06));
    }
    for (n, p) in sizes {
        let inst = graph_domination_instance(n, p, &mut rng);
        group.bench_with_input(BenchmarkId::new("exact_bnb", n), &inst, |b, inst| {
            b.iter(|| inst.solve_exact(usize::MAX))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &inst, |b, inst| {
            b.iter(|| inst.solve_greedy())
        });
    }
    group.finish();
}

/// The best-response access pattern: one domination solve per
/// eccentricity guess over *nested* coverage (radius-`r` balls,
/// `r = 0..R`). `exact_bnb_incremental` drives one persistent
/// [`DominationEngine`] across the guesses, fed by the reduction's
/// production [`RingGrowth`] (one word-level ring insert per source
/// and radius, allocations recycled via `reset`), while
/// `exact_bnb_rebuild` re-scans the distance matrix and reconstructs a
/// fresh [`DominationInstance`] (coverage clones and all) per guess,
/// exactly as the seed `max_br.rs` loop did. Identical solves —
/// asserted per radius before timing — different setup: the gap is
/// the engine rearchitecture's win (the whole-path version is
/// `max_best_response/er100_full_view` vs `…_rebuild` in
/// `best_response.rs`).
fn bench_dominating_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominating_set");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 80usize;
    let g = generators::gnp_connected(n, 0.05, 1000, &mut rng).unwrap();
    let csr = ncg_graph::CsrGraph::from_graph(&g);
    let mut buf = ncg_graph::bfs::DistanceBuffer::with_capacity(n);
    let dist: Vec<Vec<u32>> = (0..n as u32)
        .map(|s| {
            csr.bfs(s, &mut buf);
            buf.distances().to_vec()
        })
        .collect();
    let radii = 0..6u32;
    // Each arm returns its per-radius solutions.
    let mut engine = DominationEngine::new(BitSet::full(n), &[]);
    let mut rings = RingGrowth::default();
    let mut incremental = || -> Vec<Option<Vec<u32>>> {
        engine.reset(n, None, &[]);
        rings.reset(n, None, |v| g.neighbors(v).iter().copied());
        radii
            .clone()
            .map(|r| {
                rings.grow_to(&mut engine, r);
                engine.solve_exact(usize::MAX)
            })
            .collect()
    };
    let rebuild = || -> Vec<Option<Vec<u32>>> {
        let mut covers: Vec<BitSet> = vec![BitSet::new(n); n];
        radii
            .clone()
            .map(|r| {
                for s in 0..n {
                    for v in 0..n as u32 {
                        if dist[s][v as usize] == r {
                            covers[s].insert(v);
                        }
                    }
                }
                let inst = DominationInstance {
                    covers: covers.clone(),
                    universe: BitSet::full(n),
                    forced: vec![],
                };
                inst.solve_exact(usize::MAX)
            })
            .collect()
    };
    assert_eq!(incremental(), rebuild(), "ring growth must solve exactly the rebuilt instances");
    group.bench_function("exact_bnb_incremental", |b| b.iter(&mut incremental));
    group.bench_function("exact_bnb_rebuild", |b| b.iter(&rebuild));
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_metrics,
    bench_generators,
    bench_dominating,
    bench_dominating_incremental
);
criterion_main!(benches);
