//! Figure 6: quality of the stable networks (`SC/OPT`) as a function
//! of `n`, one series per `k`, at `α = 1` (left panel) and `α = 10`
//! (right panel), on random trees.
//!
//! Paper shape: for small `k` the quality degrades linearly with `n`
//! (the PoA is `Θ(n)` there), while for `k` past the full-knowledge
//! threshold it is almost constant.

use ncg_core::Objective;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// The two `α` panels of the figure.
pub const PANEL_ALPHAS: [f64; 2] = [1.0, 10.0];

/// Runs the Figure 6 sweep under the given profile (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the Figure 6 sweep under the given execution context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("figure6");
    // One sweep per (panel α, tree size): the starting networks
    // differ by n, and each sweep is a 1 × |ks| grid.
    let mut specs = Vec::new();
    for alpha in PANEL_ALPHAS {
        for &n in &profile.tree_ns {
            specs.push(SweepSpec::tree(
                format!("alpha{alpha}_n{n}"),
                n,
                profile.reps,
                profile.base_seed,
                vec![alpha],
                profile.ks.clone(),
                Objective::Max,
            ));
        }
    }
    // quality[panel][n-index] is a 1 × |ks| grid.
    let mut quality: Vec<MetricGrid> =
        specs.iter().map(|_| MetricGrid::new(1, profile.ks.len())).collect();
    let report = engine::execute(ctx, "figure6", &specs, &mut |si, cell, rec| {
        quality[si].push(0, cell.ki, rec.quality);
    });
    if let Some(note) = report.shard_note("figure6") {
        out.notes = note;
        return out;
    }
    out.notes = format!(
        "Figure 6 — equilibrium quality vs n on random trees, α ∈ {{1, 10}}; profile: {} ({} reps)",
        profile.name, profile.reps
    );
    let row_labels: Vec<String> = profile.tree_ns.iter().map(|n| n.to_string()).collect();
    let col_labels: Vec<String> = profile.ks.iter().map(|k| format!("k={k}")).collect();
    for (pi, alpha) in PANEL_ALPHAS.iter().enumerate() {
        let base = pi * profile.tree_ns.len();
        let table = grid_table("n", &row_labels, &col_labels, |ri, ci| {
            quality[base + ri].display(0, ci, 2)
        });
        out.push_table(format!("quality_alpha{alpha}"), table);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean final quality over `reps` random trees of `n` players at
    /// one `(α, k)` cell.
    fn mean_quality(n: usize, reps: usize, seed: u64, alpha: f64, k: u32) -> f64 {
        let spec = SweepSpec::tree("t", n, reps, seed, vec![alpha], vec![k], Objective::Max);
        let mut vals = Vec::new();
        engine::execute(&SweepContext::local(), "figure6", &[spec], &mut |_, _, rec| {
            vals.extend(rec.quality)
        });
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn two_panels_with_one_row_per_n() {
        let out = run(&Profile::smoke());
        assert_eq!(out.tables.len(), 2);
        for (_, t) in &out.tables {
            assert_eq!(t.len(), Profile::smoke().tree_ns.len());
        }
    }

    #[test]
    fn quality_degrades_with_n_for_small_k() {
        // The Θ(n) regime: at α = 10, k = 2, quality grows with n.
        let profile = Profile { reps: 4, ..Profile::smoke() };
        let q = |n: usize| mean_quality(n, profile.reps, profile.base_seed, 10.0, 2);
        let q_small = q(16);
        let q_large = q(48);
        assert!(
            q_large > q_small,
            "quality must degrade with n in the small-k regime: {q_large} vs {q_small}"
        );
    }

    #[test]
    fn full_knowledge_quality_is_near_constant() {
        // At k = 1000 and α = 1 the equilibria are near-optimal stars
        // or low-diameter graphs; quality stays small and flat-ish.
        let profile = Profile { reps: 3, ..Profile::smoke() };
        let q = |n: usize| mean_quality(n, profile.reps, profile.base_seed, 1.0, 1000);
        let a = q(16);
        let b = q(40);
        assert!(a < 3.0 && b < 3.0, "full-knowledge equilibria should be near-optimal: {a}, {b}");
    }
}
