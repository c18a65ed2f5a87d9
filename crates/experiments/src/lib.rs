//! # ncg-experiments — the paper's evaluation, regenerated
//!
//! One module per table/figure of
//!
//! > Bilò, Gualà, Leucci, Proietti. *Locality-based Network Creation
//! > Games.* SPAA 2014 / ACM TOPC 3(1), 2016,
//!
//! each producing the same rows/series the paper reports (mean ± 95%
//! CI over repeated runs) as aligned text and CSV:
//!
//! | module | artifact |
//! |---|---|
//! | [`table1`] | Table I — random-tree workload statistics |
//! | [`table2`] | Table II — Erdős–Rényi workload statistics |
//! | [`figures12`] | Figures 1–2 — torus construction geometry + DOT |
//! | [`figure3`] | Figure 3 — MaxNCG bound region map |
//! | [`figure4`] | Figure 4 — SumNCG bound region map |
//! | [`figure5`] | Figure 5 — view sizes at equilibrium vs `α`, per `k` |
//! | [`figure6`] | Figure 6 — equilibrium quality vs `n` (α = 1 and 10) |
//! | [`figure7`] | Figure 7 — equilibrium quality vs `k` (α = 2) + trend |
//! | [`figure8`] | Figure 8 — max degree / max bought edges vs `α` |
//! | [`figure9`] | Figure 9 — unfairness ratio vs `α` (folds Figure 8's journal) |
//! | [`figure10`] | Figure 10 — convergence rounds vs `α` and vs `n` |
//! | [`lower_bounds`] | Lemma 3.1 / 3.2, Theorems 3.12 / 4.2 certifications |
//! | [`scale_dynamics`] | *extension*: million-node approximate dynamics tier |
//! | [`sum_extension`] | *extension*: SumNCG dynamics sweep + Theorem 4.4 check |
//! | [`swap_ncg`] | *extension*: swap-game dynamics (one edge re-pointed per move) |
//! | [`nonuniform`] | *extension*: per-target edge prices `α·w(v)` (model zoo) |
//!
//! Every experiment takes a [`Profile`]: [`Profile::quick`] (default;
//! trimmed grids that finish in minutes on a laptop) or
//! [`Profile::paper`] (the paper's exact 36 000-run grid — hours).
//! Runs are seeded and bit-reproducible; the dynamics themselves are
//! deterministic given the initial state.
//!
//! ## The sweep engine
//!
//! Dynamics experiments run through a streaming, shardable engine
//! ([`sweep`] for the cell work-list, [`engine`] for orchestration,
//! [`journal`] for the JSONL run journals): every finished cell is
//! streamed to an append-only journal and folded into `O(grid)`
//! aggregates, grids can be partitioned across processes
//! (`--shards M --shard i`) and merged back (`merge`) with
//! byte-identical artifacts, killed runs resume from their journal,
//! and dynamics are warm-started per repetition
//! ([`ncg_dynamics::CacheArena`]). See DESIGN.md §7.
//!
//! A journal belongs to a grid: each experiment's [`Plan`] names the
//! journal its sweeps fold, and Figure 9 names Figure 8's, so `all`
//! solves that grid once. The engine's fold is the one route from
//! cells to results, for figures, tests and examples alike.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod figure10;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod figures12;
pub mod journal;
pub mod lower_bounds;
pub mod nonuniform;
pub mod output;
pub mod profile;
pub mod protocol;
pub mod queue;
pub mod scale_dynamics;
pub mod sum_extension;
pub mod swap_ncg;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod workloads;

pub use engine::{ExecReport, MetricGrid, Plan, SweepContext, SweepMode};
pub use output::ExperimentOutput;
pub use profile::Profile;

/// Runs one experiment by CLI name under the given context; `None`
/// for an unknown name. This is the single dispatch the binary, the
/// work-queue coordinator, and [`sweep_plan`] share.
pub fn run_experiment(
    name: &str,
    profile: &Profile,
    ctx: &SweepContext,
) -> Option<ExperimentOutput> {
    let out = match name {
        "table1" => table1::run(profile),
        "table2" => table2::run(profile),
        "figures12" => figures12::run(profile),
        "figure3" => figure3::run(profile),
        "figure4" => figure4::run(profile),
        "figure5" => figure5::run_ctx(profile, ctx),
        "figure6" => figure6::run_ctx(profile, ctx),
        "figure7" => figure7::run_ctx(profile, ctx),
        "figure8" => figure8::run_ctx(profile, ctx),
        "figure9" => figure9::run_ctx(profile, ctx),
        "figure10" => figure10::run_ctx(profile, ctx),
        "lower-bounds" => lower_bounds::run(profile),
        "scale-dynamics" => scale_dynamics::run_ctx(profile, ctx),
        "sum-extension" => sum_extension::run_ctx(profile, ctx),
        "swap-ncg" => swap_ncg::run_ctx(profile, ctx),
        "nonuniform" => nonuniform::run_ctx(profile, ctx),
        _ => return None,
    };
    Some(out)
}

/// The [`Plan`] an experiment would run under `profile`, without
/// running anything: the journal its sweeps fold, and the cell
/// work-list the queue coordinator hands out and its workers solve.
/// Empty for experiments that run no `(α, k, rep)` sweeps (tables,
/// constructions). `None` for an unknown name.
pub fn sweep_plan(name: &str, profile: &Profile) -> Option<Plan> {
    let plan_ctx = SweepContext { mode: SweepMode::Plan, journal_dir: None, warm_start: true };
    let mut known = false;
    let plan = engine::collect_plan(|| {
        known = run_experiment(name, profile, &plan_ctx).is_some();
    });
    known.then_some(plan)
}
