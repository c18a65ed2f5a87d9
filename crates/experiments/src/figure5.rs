//! Figure 5: minimum and average view size at equilibrium, as a
//! function of `α`, one series per `k`.
//!
//! Paper setting: random trees with `n = 100`, 20 repetitions; the
//! view size of a player is the number of vertices in her radius-`k`
//! ball in the stable network. Expected shape: view sizes fall as `α`
//! grows (fewer edges are bought) and rise steeply with `k`; at `k = 7`
//! players already see almost the whole 100-node network.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// Runs the Figure 5 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 5 sweep under the given execution context
/// (local / shard / merge — see [`crate::engine`]).
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let n = profile.headline_tree_n();
    let mut out = ExperimentOutput::new("figure5");
    let specs = vec![SweepSpec::tree(
        "main",
        n,
        profile.reps,
        profile.base_seed,
        profile.alphas.clone(),
        profile.ks.clone(),
        Objective::Max,
    )];
    let (rows, cols) = (profile.alphas.len(), profile.ks.len());
    let mut avg = MetricGrid::new(rows, cols);
    let mut min = MetricGrid::new(rows, cols);
    let report = engine::execute(ctx, "figure5", &specs, &mut |_, cell, rec| {
        avg.push(cell.ai, cell.ki, Some(rec.avg_view));
        min.push(cell.ai, cell.ki, Some(rec.min_view as f64));
    });
    if let Some(note) = report.shard_note("figure5") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 5 — view sizes at equilibrium on random trees (n = {n}); profile: {} ({} reps)",
        profile.name, profile.reps
    );
    let row_labels: Vec<String> = profile.alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "avg_view_size",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| avg.display(ri, ci, 1)),
    );
    out.push_table(
        "min_view_size",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| min.display(ri, ci, 1)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_sizes_grow_with_k_and_shrink_with_alpha() {
        // Small but meaningful instance: trees n = 24.
        let profile = Profile {
            reps: 3,
            alphas: vec![0.1, 5.0],
            ks: vec![2, 1000],
            tree_ns: vec![24],
            ..Profile::smoke()
        };
        let n = 24;
        let spec = SweepSpec::tree(
            "t",
            n,
            profile.reps,
            profile.base_seed,
            profile.alphas.clone(),
            profile.ks.clone(),
            Objective::Max,
        );
        let mut views = vec![Vec::new(); 4];
        engine::execute(&SweepContext::local(), "figure5", &[spec], &mut |_, cell, rec| {
            views[cell.ai * 2 + cell.ki].push(rec.avg_view)
        });
        let mean_view = |ai: usize, ki: usize| {
            let cells = &views[ai * 2 + ki];
            cells.iter().sum::<f64>() / cells.len() as f64
        };
        // k = 1000 sees everything.
        assert!((mean_view(0, 1) - n as f64).abs() < 1e-9);
        assert!((mean_view(1, 1) - n as f64).abs() < 1e-9);
        // k = 2: cheap edges (α = 0.1) give denser equilibria, hence
        // larger views than expensive edges (α = 5).
        assert!(mean_view(0, 0) >= mean_view(1, 0), "cheap-α views should be at least as large");
    }

    #[test]
    fn output_has_both_panels() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].0, "avg_view_size");
        assert_eq!(out.tables[1].0, "min_view_size");
    }
}
