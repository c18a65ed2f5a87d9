//! Figure 8: maximum degree (left) and maximum number of bought edges
//! (right) of the stable networks, as a function of `α`, one series
//! per `k` — Erdős–Rényi workloads (paper: `n = 100, p = 0.1`).
//!
//! Paper shape: for `k ≥ 4` and small `α` the max degree exceeds 80
//! (hub formation) while no player ever buys more than ≈9 edges — the
//! asymmetry that motivates the fairness discussion of Figure 9.
//!
//! Figure 9 folds the same grid, so [`plan`] is shared: both figures
//! fold the `figure8` journal, and the grid is solved once.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, Plan, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// The plan Figures 8 and 9 share: the headline `G(n, p)` grid under
/// MaxNCG, journaled as `figure8_runs.jsonl`.
pub fn plan(profile: &Profile) -> Plan {
    let (n, p) = profile.headline_er();
    let main = SweepSpec::er(
        "main",
        n,
        p,
        profile.reps,
        profile.base_seed,
        profile.alphas.clone(),
        profile.ks.clone(),
        Objective::Max,
    );
    Plan { journal: "figure8".into(), specs: vec![main] }
}

/// Runs the Figure 8 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 8 sweep under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let (n, p) = profile.headline_er();
    let mut out = ExperimentOutput::new("figure8");
    let plan = plan(profile);
    let (rows, cols) = (profile.alphas.len(), profile.ks.len());
    let mut deg = MetricGrid::new(rows, cols);
    let mut bought = MetricGrid::new(rows, cols);
    let report = engine::execute(ctx, &plan.journal, &plan.specs, &mut |_, cell, rec| {
        deg.push(cell.ai, cell.ki, Some(rec.max_degree as f64));
        bought.push(cell.ai, cell.ki, Some(rec.max_bought as f64));
    });
    if let Some(note) = report.shard_note("figure8") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 8 — max degree / max bought edges vs α on G({n}, {p}); profile: {} ({} reps)",
        profile.name, profile.reps
    );
    let row_labels: Vec<String> = profile.alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "max_degree",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| deg.display(ri, ci, 1)),
    );
    out.push_table(
        "max_bought",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| bought.display(ri, ci, 1)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hubs_form_under_cheap_edges_with_wide_views() {
        let spec = SweepSpec::er("t", 30, 0.15, 3, 11, vec![0.1], vec![1000], Objective::Max);
        let mut max_degrees = Vec::new();
        engine::execute(&SweepContext::local(), "figure8", &[spec], &mut |_, _, rec| {
            max_degrees.push(rec.max_degree)
        });
        assert_eq!(max_degrees.len(), 3);
        for max_degree in max_degrees {
            // With α = 0.1 and full knowledge the equilibrium is
            // near-star-like: some node has high degree, yet no single
            // player buys anywhere near n edges herself... but the
            // *degree* of the hub (incoming purchases) is large.
            assert!(max_degree >= 15, "expected hub formation, max_degree = {max_degree}");
        }
    }

    #[test]
    fn bought_edges_bounded_by_degree() {
        let spec = SweepSpec::er("t", 24, 0.2, 2, 3, vec![0.5, 5.0], vec![2, 1000], Objective::Max);
        let mut cells = Vec::new();
        engine::execute(&SweepContext::local(), "figure8", &[spec], &mut |_, _, rec| {
            cells.push((rec.max_bought, rec.max_degree))
        });
        assert_eq!(cells.len(), 8);
        for (max_bought, max_degree) in cells {
            assert!(max_bought <= max_degree);
        }
    }

    #[test]
    fn output_has_two_panels() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 2);
    }
}
