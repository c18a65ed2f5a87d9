//! The workspace's one BFS kernel on its two shapes of job.
//!
//! *All-sources sweeps* (`{substrate}_scalar`): one full BFS per source
//! on the CSR layout, accumulating per-source eccentricity, reach count
//! and status sum — the `StateMetrics::measure` workload. Every run
//! visits its whole component, so the buffer's reset refills the
//! array. Substrates, labelled by their actual vertex counts: sparse
//! connected `G(n, 8/n)` at n ∈ {256, 1024, 4096}; uniform random
//! trees at n ∈ {200, 1000}, the initial states of the paper's
//! Section 5 dynamics; and the Section 3.1 torus gadgets at n ∈ {216,
//! 1014, 4056}.
//!
//! *Ball sweeps* (`{substrate}_ball_sweep`): every node's radius-2 ball
//! through `view::ball_into` with one reused buffer — the shape of LKE
//! certification and of the scale tier's responses. Each run visits a
//! few dozen nodes of thousands, so the reset clears only the previous
//! ball and a sweep costs `O(Σ balls)`, not `O(n²)`. On the n = 4056
//! torus and a 10^4-node random tree, gated against `view::ball`
//! before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncg_constructions::TorusGrid;
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{generators, view, CsrGraph, Graph, NodeId, INFINITY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// One full BFS per source on the CSR layout, folding the per-source
/// aggregates as `StateMetrics::measure` does.
fn scalar_sweep(csr: &CsrGraph, buf: &mut DistanceBuffer) -> (u64, u64, u64) {
    let n = csr.node_count();
    let (mut ecc, mut reached, mut status) = (0u64, 0u64, 0u64);
    for u in 0..n as NodeId {
        ecc += csr.bfs(u, buf) as u64;
        reached += buf.visited().len() as u64;
        status +=
            buf.distances().iter().filter(|&&d| d != INFINITY).map(|&d| d as u64).sum::<u64>();
    }
    (ecc, reached, status)
}

fn bench_substrate(c: &mut Criterion, label: &str, g: &Graph) {
    let n = g.node_count();
    let csr = CsrGraph::from_graph(g);
    let mut buf = DistanceBuffer::with_capacity(n);
    let mut group = c.benchmark_group("bfs_kernels");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new(format!("{label}_scalar"), n), &csr, |b, csr| {
        b.iter(|| black_box(scalar_sweep(csr, &mut buf)))
    });
    group.finish();
}

fn bench_gnp(c: &mut Criterion) {
    for n in [256usize, 1024, 4096] {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::gnp_connected(n, 8.0 / n as f64, 1000, &mut rng).unwrap();
        bench_substrate(c, "gnp", &g);
    }
}

fn bench_tree(c: &mut Criterion) {
    for n in [200usize, 1000] {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::random_tree(n, &mut rng);
        bench_substrate(c, "tree", &g);
    }
}

fn bench_torus(c: &mut Criterion) {
    // Closed tori near the gnp sizes (`n = 6δ²` at ℓ = 2):
    // δ = 6 → 216 vertices, δ = 13 → 1014, δ = 26 → 4056.
    for (deltas, ell) in [([6u32, 6], 2u32), ([13, 13], 2), ([26, 26], 2)] {
        let torus = TorusGrid::closed(&deltas, ell).unwrap();
        bench_substrate(c, "torus", torus.state().graph());
    }
}

/// Radius-2 balls of every node, one reused buffer, each ball handed
/// to `visit` with its center.
fn ball_sweep(
    csr: &CsrGraph,
    buf: &mut DistanceBuffer,
    ball: &mut Vec<NodeId>,
    mut visit: impl FnMut(NodeId, &[NodeId]),
) {
    for s in 0..csr.node_count() as NodeId {
        view::ball_into(csr, s, 2, buf, ball);
        visit(s, ball);
    }
}

fn bench_ball_sweep_on(c: &mut Criterion, label: &str, g: &Graph) {
    let n = g.node_count();
    let csr = CsrGraph::from_graph(g);
    let mut buf = DistanceBuffer::new();
    let mut ball = Vec::new();
    // Gate before timing: every ball equals a fresh `view::ball`.
    ball_sweep(&csr, &mut buf, &mut ball, |s, ball| {
        assert_eq!(ball, view::ball(g, s, 2), "ball of {s} diverges on {label}/{n}")
    });
    let mut group = c.benchmark_group("bfs_kernels");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new(format!("{label}_ball_sweep"), n), &csr, |b, csr| {
        b.iter(|| {
            let mut total = 0;
            ball_sweep(csr, &mut buf, &mut ball, |_, ball| total += ball.len());
            black_box(total)
        })
    });
    group.finish();
}

fn bench_ball_sweeps(c: &mut Criterion) {
    let torus = TorusGrid::closed(&[26, 26], 2).unwrap();
    bench_ball_sweep_on(c, "torus", torus.state().graph());
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    bench_ball_sweep_on(c, "tree", &generators::random_tree(10_000, &mut rng));
}

criterion_group!(benches, bench_gnp, bench_tree, bench_torus, bench_ball_sweeps);
criterion_main!(benches);
