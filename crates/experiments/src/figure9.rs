//! Figure 9: the unfairness ratio (costliest player / cheapest
//! player) of the stable networks as a function of `α`, one series
//! per `k` — Erdős–Rényi workloads (paper: `n = 100, p = 0.1`).
//!
//! Paper observation: *small* values of `k` yield more fair equilibria
//! — restricting the players' views flattens the cost distribution.
//!
//! Figures 8 and 9 plot two statistics of the same dynamics, so this
//! module runs no sweep of its own: it folds [`figure8::plan`] under
//! Figure 8's journal. After `figure8` (or in `all`) it resumes every
//! cell and solves none; run alone, it writes `figure8_runs.jsonl`,
//! which a later `figure8` resumes. Shards and `merge figure9` read
//! and write Figure 8's shard journals.

use crate::engine::{self, MetricGrid, SweepContext};
use crate::figure8;
use crate::output::grid_table;
use crate::{ExperimentOutput, Profile};

/// Runs the Figure 9 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 9 sweep under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let (n, p) = profile.headline_er();
    let mut out = ExperimentOutput::new("figure9");
    let plan = figure8::plan(profile);
    let mut unfair = MetricGrid::new(profile.alphas.len(), profile.ks.len());
    let report = engine::execute(ctx, &plan.journal, &plan.specs, &mut |_, cell, rec| {
        unfair.push(cell.ai, cell.ki, rec.unfairness);
    });
    if let Some(note) = report.shard_note("figure9") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 9 — unfairness (max/min player cost) vs α on G({n}, {p}); profile: {} ({} reps)",
        profile.name, profile.reps
    );
    let row_labels: Vec<String> = profile.alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "unfairness",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| unfair.display(ri, ci, 2)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 9's unfairness values on `G(n, p)` — `reps` repetitions
    /// from `seed` over `alphas × ks`, through Figure 8's plan — grouped
    /// by `k` index.
    fn unfairness_by_k(
        (n, p): (usize, f64),
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
    ) -> Vec<Vec<f64>> {
        let k_count = ks.len();
        let profile = Profile {
            reps,
            alphas,
            ks,
            er_configs: vec![(n, p)],
            base_seed: seed,
            ..Profile::smoke()
        };
        let plan = figure8::plan(&profile);
        let mut unfair = vec![Vec::new(); k_count];
        engine::execute(&SweepContext::local(), &plan.journal, &plan.specs, &mut |_, cell, rec| {
            unfair[cell.ki].extend(rec.unfairness)
        });
        unfair
    }

    #[test]
    fn local_views_are_more_fair_than_full_knowledge() {
        // The paper's qualitative claim, scaled down: compare the mean
        // unfairness at k = 2 against k = 1000 for a cheap α where
        // full knowledge builds hub-dominated (unfair) networks.
        let unfair = unfairness_by_k((28, 0.15), 3, 13, vec![0.3], vec![2, 1000]);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let local = mean(&unfair[0]);
        let full = mean(&unfair[1]);
        assert!(
            local <= full + 0.75,
            "local views should be at least comparably fair: k=2 → {local}, k=1000 → {full}"
        );
    }

    #[test]
    fn unfairness_at_least_one() {
        for u in unfairness_by_k((20, 0.2), 2, 5, vec![1.0], vec![3]).concat() {
            assert!(u >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn output_shape() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].1.len(), Profile::smoke().alphas.len());
    }
}
