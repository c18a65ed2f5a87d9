//! Figure 7: quality of the stable networks as a function of `k` at
//! `α = 2`, one series per `n` (random trees, left panel) and for the
//! densest Erdős–Rényi row (right panel), against the theoretical
//! trend `f(k) ∝ k / 2^{¼·log₂²(k/α)}` of Theorem 3.18.
//!
//! The trend column is normalised so that its value at the smallest
//! plotted `k` matches the measured mean there — the same
//! eye-guideline role the bold red curve plays in the paper.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// The `α` the figure fixes.
pub const ALPHA: f64 = 2.0;

/// Runs the Figure 7 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 7 sweep under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("figure7");
    // Restrict to finite k (the trend is about the local regime).
    let ks: Vec<u32> = profile.ks.iter().copied().filter(|&k| k <= 30).collect();
    let (er_n, er_p) = profile.headline_er();
    let mut specs: Vec<SweepSpec> = profile
        .tree_ns
        .iter()
        .map(|&n| {
            SweepSpec::tree(
                format!("tree_n{n}"),
                n,
                profile.reps,
                profile.base_seed,
                vec![ALPHA],
                ks.clone(),
                Objective::Max,
            )
        })
        .collect();
    specs.push(SweepSpec::er(
        "er",
        er_n,
        er_p,
        profile.reps,
        profile.base_seed,
        vec![ALPHA],
        ks.clone(),
        Objective::Max,
    ));
    let mut quality: Vec<MetricGrid> = specs.iter().map(|_| MetricGrid::new(1, ks.len())).collect();
    let report = engine::execute(ctx, "figure7", &specs, &mut |si, cell, rec| {
        quality[si].push(0, cell.ki, rec.quality);
    });
    if let Some(note) = report.shard_note("figure7") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 7 — equilibrium quality vs k at α = {ALPHA}; trend f(k) = k/2^(log₂²k) \
         normalised at k = {}; profile: {} ({} reps)",
        ks.first().copied().unwrap_or(2),
        profile.name,
        profile.reps
    );
    let row_labels: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let tree_count = profile.tree_ns.len();

    // Left panel: trees, one column per n, plus the theory trend
    // normalised to the first k of the largest n series.
    let anchor = if tree_count > 0 { quality[tree_count - 1].summary(0, 0).mean } else { 1.0 };
    let trend0 = ncg_bounds::fig7_trend(ks[0]).max(f64::MIN_POSITIVE);
    let mut col_labels: Vec<String> = profile.tree_ns.iter().map(|n| format!("n={n}")).collect();
    col_labels.push("trend f(k)".into());
    let trees = grid_table("k", &row_labels, &col_labels, |ri, ci| {
        if ci < tree_count {
            quality[ci].display(0, ri, 2)
        } else {
            format!("{:.2}", anchor * ncg_bounds::fig7_trend(ks[ri]) / trend0)
        }
    });
    out.push_table("trees", trees);

    // Right panel: the headline ER row.
    let er = grid_table("k", &row_labels, &[format!("n={er_n}, p={er_p}")], |ri, _| {
        quality[tree_count].display(0, ri, 2)
    });
    out.push_table("er", er);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_trend_column_and_k_rows() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 2);
        let csv = out.tables[0].1.render(ncg_stats::TableStyle::Csv);
        assert!(csv.contains("trend f(k)"));
    }

    #[test]
    fn quality_improves_for_large_k() {
        // The headline qualitative claim: moving from k = 2 to full
        // knowledge improves (or at least never hurts) quality at α=2.
        let profile = Profile { reps: 4, ..Profile::smoke() };
        let n = 32;
        let spec = SweepSpec::tree(
            "t",
            n,
            profile.reps,
            profile.base_seed,
            vec![ALPHA],
            vec![2, 1000],
            Objective::Max,
        );
        let mut quality = [Vec::new(), Vec::new()];
        engine::execute(&SweepContext::local(), "figure7", &[spec], &mut |_, cell, rec| {
            quality[cell.ki].extend(rec.quality)
        });
        let mean_q = |i: usize| quality[i].iter().sum::<f64>() / quality[i].len() as f64;
        assert!(
            mean_q(1) <= mean_q(0) + 0.2,
            "full knowledge should not be materially worse: k=2 → {}, k=1000 → {}",
            mean_q(0),
            mean_q(1)
        );
    }
}
