//! *Extension*: the million-node dynamics tier.
//!
//! The paper's experiments stop at `n = 200` — the exact
//! best-response solver prices every candidate deviation through a
//! materialised view graph, which is the right tool for reproducing
//! Tables I–II but caps throughput around `n ≈ 10^5`. This experiment
//! runs the approximate scale tier ([`ncg_dynamics::scale`]) instead:
//! flat `G(n, avg_deg/(n-1))` inputs in structure-of-arrays layout,
//! the exact tier's greedy climb over narrowed candidates (exact
//! pricing, narrowed search), and
//! simultaneous rounds with deterministic conflict resolution. Under
//! `--full` this is `n = 10^6` at average degree 10; the `--smoke`
//! grid (`n = 10^5`, four rounds) is the CI scale lane.
//!
//! Reported per `(α, k)` cell, mean ± 95% CI over repetitions:
//! rounds executed, moves applied, final maximum degree, and the
//! sampled average view size (a deterministic 64-player ball sample —
//! exhaustive view statistics are `O(n·m)` and unaffordable at this
//! tier). Convergence within the round cap is reported as a rate.
//! Cells stream through the same journal / shard / merge / work-queue
//! machinery as every other sweep, and artifacts are byte-identical
//! for any `NCG_THREADS`.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// Runs the scale-tier sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Builds the experiment's single sweep spec from a profile — shared
/// by [`run_ctx`] and the tests so the grid is defined in one place.
fn spec(profile: &Profile) -> SweepSpec {
    SweepSpec::scale_er(
        "main",
        profile.scale_n,
        profile.scale_avg_deg,
        profile.scale_rounds,
        profile.scale_reps,
        profile.base_seed,
        profile.scale_alphas.clone(),
        profile.scale_ks.clone(),
        Objective::Max,
    )
}

/// Runs the scale-tier sweep under the given execution context
/// (local / shard / merge — see [`crate::engine`]).
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("scale_dynamics");
    let specs = vec![spec(profile)];
    let (rows, cols) = (profile.scale_alphas.len(), profile.scale_ks.len());
    let mut rounds = MetricGrid::new(rows, cols);
    let mut moves = MetricGrid::new(rows, cols);
    let mut converged = MetricGrid::new(rows, cols);
    let mut max_degree = MetricGrid::new(rows, cols);
    let mut avg_view = MetricGrid::new(rows, cols);
    let report = engine::execute(ctx, "scale_dynamics", &specs, &mut |_, cell, rec| {
        rounds.push(cell.ai, cell.ki, Some(rec.rounds as f64));
        moves.push(cell.ai, cell.ki, Some(rec.moves as f64));
        converged.push(cell.ai, cell.ki, Some(if rec.converged { 1.0 } else { 0.0 }));
        max_degree.push(cell.ai, cell.ki, Some(rec.max_degree as f64));
        avg_view.push(cell.ai, cell.ki, Some(rec.avg_view));
    });
    if let Some(note) = report.shard_note("scale-dynamics") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Scale tier — approximate simultaneous dynamics on G(n = {}, avg deg {}), \
         round cap {}; view sizes are a 64-player sample; profile: {} ({} reps)",
        profile.scale_n,
        profile.scale_avg_deg,
        profile.scale_rounds,
        profile.name,
        profile.scale_reps
    );
    let row_labels: Vec<String> = profile.scale_alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.scale_ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "rounds",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| rounds.display(ri, ci, 1)),
    );
    out.push_table(
        "moves",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| moves.display(ri, ci, 1)),
    );
    out.push_table(
        "converged_rate",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| converged.display(ri, ci, 2)),
    );
    out.push_table(
        "max_degree",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| max_degree.display(ri, ci, 1)),
    );
    out.push_table(
        "avg_view_sampled",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| avg_view.display(ri, ci, 1)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny grid the unit tests can afford (hundreds of players,
    /// not 10^5) — same shape as the smoke profile otherwise.
    fn tiny() -> Profile {
        Profile { scale_n: 300, scale_reps: 2, scale_rounds: 6, ..Profile::smoke() }
    }

    #[test]
    fn output_has_all_panels() {
        let out = run(&tiny());
        let names: Vec<&str> = out.tables.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["rounds", "moves", "converged_rate", "max_degree", "avg_view_sampled"]);
    }

    #[test]
    fn reruns_are_byte_identical() {
        let profile = tiny();
        let a = run(&profile);
        let b = run(&profile);
        assert_eq!(a.render_console(), b.render_console());
    }

    #[test]
    fn plan_exposes_one_scale_sweep() {
        let specs = crate::sweep_plan("scale-dynamics", &tiny()).expect("known experiment").specs;
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].class(), "scale_er");
        assert_eq!(specs[0].n, 300);
    }
}
