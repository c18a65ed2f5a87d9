//! Benchmarks for the streaming sharded sweep engine:
//!
//! * `local_fold` — a full in-process sweep through the streaming
//!   engine (journal + canonical fold), the new default path of every
//!   figure module.
//! * `sharded2_merge` — the same grid as two shard runs plus a
//!   `merge`, quantifying the journal/merge overhead a multi-process
//!   deployment pays per process (the payoff — wall-clock halving —
//!   needs two actual machines/processes and is not measurable here).
//! * `warm_vs_cold` — `run_spec_cells` with the per-repetition arena
//!   warm start against a fresh arena per cell on the same grid;
//!   outcomes are bit-identical, only allocation reuse differs.

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::Objective;
use ncg_experiments::engine::{self, SweepContext, SweepMode};
use ncg_experiments::sweep::{run_spec_cells, Shard, SweepSpec};
use ncg_experiments::MetricGrid;

fn spec() -> SweepSpec {
    SweepSpec::tree("main", 40, 4, 5, vec![0.5, 2.0], vec![2, 4], Objective::Max)
}

fn fold_once(ctx: &SweepContext, specs: &[SweepSpec]) -> f64 {
    let mut grid = MetricGrid::new(specs[0].alphas.len(), specs[0].ks.len());
    engine::execute(ctx, "bench", specs, &mut |_, cell, rec| {
        grid.push(cell.ai, cell.ki, Some(rec.avg_view));
    });
    grid.summary(0, 0).mean
}

fn bench_sweep_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_sharded");
    group.sample_size(10);
    let specs = vec![spec()];

    group.bench_function("local_fold", |b| b.iter(|| fold_once(&SweepContext::local(), &specs)));

    let dir = std::env::temp_dir().join(format!("ncg_bench_sharded_{}", std::process::id()));
    group.bench_function("sharded2_merge", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            for index in 0..2 {
                let ctx = SweepContext {
                    mode: SweepMode::Shard { count: 2, index },
                    journal_dir: Some(dir.clone()),
                    warm_start: true,
                };
                engine::execute(&ctx, "bench", &specs, &mut |_, _, _| {});
            }
            let ctx = SweepContext {
                mode: SweepMode::Merge { count: 2 },
                journal_dir: Some(dir.clone()),
                warm_start: true,
            };
            fold_once(&ctx, &specs)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_warm_start");
    group.sample_size(10);
    let spec = spec();
    let run = |warm: bool| {
        let count = std::sync::atomic::AtomicUsize::new(0);
        run_spec_cells(
            &spec,
            warm,
            Shard::all(),
            &|_| false,
            &|_, _| {
                count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
            &|_| false,
        );
        count.into_inner()
    };
    assert_eq!(run(true), spec.cell_count());
    group.bench_function("warm", |b| b.iter(|| run(true)));
    group.bench_function("cold", |b| b.iter(|| run(false)));
    group.finish();
}

criterion_group!(benches, bench_sweep_sharded, bench_warm_vs_cold);
criterion_main!(benches);
