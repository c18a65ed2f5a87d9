//! Scale-tier benchmarks: simultaneous rounds on flat `G(n, p)`
//! states through the CSR-native responder path.
//!
//! * `scale_rounds/round_50k` — one simultaneous round on
//!   `G(5·10^4, avg deg 10)`: window by window, every player not
//!   already marked by an accepted move proposes against the frozen
//!   round-start network, conflicts resolve in canonical order, and
//!   the CSR rebuilds wholesale. This is the unit of work the
//!   `--smoke` CI lane times at `n = 10^5` and the `--full` tier
//!   scales to `10^6`.
//! * `scale_rounds/run_20k` — a short capped run (4 rounds) at
//!   `n = 2·10^4`, the shape of one `scale-dynamics --quick` cell:
//!   round one is dense (everyone is dirty), later rounds shrink to
//!   the balls the previous round touched.
//! * `scale_rounds/run_20k_alpha3` — the same run at α = 3, the
//!   benchmark ledger's `scale_er` cell. At α = 1 almost nobody
//!   proposes; at α = 3 every round does, so the responder's
//!   add/drop/swap pricing carries the run.
//! * `scale_rounds/window_map_512` — one parallel map of 512 trivial
//!   items at 2 threads: the pool's fixed cost per resolve window,
//!   which a round pays once per 512 dirty players.

use criterion::{criterion_group, criterion_main, Criterion};
use ncg_core::GameSpec;
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig};
use ncg_experiments::workloads;
use rayon::prelude::*;

fn bench_scale_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_rounds");
    group.sample_size(10);

    let big = workloads::scale_er_states(50_000, 10.0, 1, 7).remove(0);
    let mut one_round = ScaleConfig::new(GameSpec::max(1.0, 2));
    one_round.max_rounds = 1;
    let mut arena = ScaleArena::new();
    group.bench_function("round_50k", |b| {
        b.iter(|| {
            let mut state = big.clone();
            run_scale(&mut state, &one_round, &mut arena)
        })
    });

    let small = workloads::scale_er_states(20_000, 10.0, 1, 7).remove(0);
    let mut capped = ScaleConfig::new(GameSpec::max(1.0, 2));
    capped.max_rounds = 4;
    group.bench_function("run_20k", |b| {
        b.iter(|| {
            let mut state = small.clone();
            run_scale(&mut state, &capped, &mut arena)
        })
    });

    let mut alpha3 = ScaleConfig::new(GameSpec::max(3.0, 2));
    alpha3.max_rounds = 4;
    group.bench_function("run_20k_alpha3", |b| {
        b.iter(|| {
            let mut state = small.clone();
            run_scale(&mut state, &alpha3, &mut arena)
        })
    });

    let two = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("never fails");
    group.bench_function("window_map_512", |b| {
        b.iter(|| two.install(|| (0..512u32).into_par_iter().map(|u| u ^ 1).collect::<Vec<_>>()))
    });
    group.finish();
}

criterion_group!(benches, bench_scale_rounds);
criterion_main!(benches);
