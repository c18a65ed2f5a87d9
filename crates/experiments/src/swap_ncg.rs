//! **Extension (beyond the paper):** swap-game dynamics under the
//! MaxNCG objective.
//!
//! The paper's players may buy or drop any subset of edges each turn.
//! The *swap game* (Yamauchi–Yoshimura-style move rule, the
//! [`MoveRulePolicy::Swap`] axis of the model zoo) restricts a move to
//! re-pointing exactly one owned edge — remove one purchase, add one —
//! so every player's purchase count is invariant for the whole run and
//! the per-move neighbourhood is polynomial (`1 + |σ_u|·(candidates −
//! |σ_u|)`), exactly enumerable at every view size. On the paper's
//! random-tree workload the edge *count* therefore never changes; what
//! the dynamics reshapes is purely the topology, which makes the swap
//! sweep a clean probe of how much of the paper's equilibrium
//! structure comes from edge-budget adjustment versus re-wiring.
//!
//! Converged corner cells are re-run and certified as local-knowledge
//! equilibria with exact swap-neighbourhood best responses, and the
//! purchase-count invariant is asserted per player; both checks are
//! exposed structurally as [`SwapCheck`].

use ncg_core::{MoveRulePolicy, Objective, Scenario};
use ncg_dynamics::DynamicsConfig;

use crate::engine::{self, MetricGrid, SweepContext};
use crate::output::grid_table;
use crate::sweep::SweepSpec;
use crate::{ExperimentOutput, Profile};

/// Structural outcome of the swap-sweep certification pass over the
/// grid's corner cells (rep 0): how many converged equilibria were
/// re-run and certified, and how many violated either the exact-LKE
/// property or the purchase-count invariant (must be zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapCheck {
    /// Corner-cell runs re-executed and certified.
    pub certified: usize,
    /// Certified runs that failed LKE or count preservation.
    pub violations: usize,
}

/// Runs the swap-NCG extension sweep (local mode).
pub fn run(profile: &Profile) -> ExperimentOutput {
    run_ctx(profile, &SweepContext::local())
}

/// Runs the swap-NCG extension sweep under the given execution
/// context.
pub fn run_ctx(profile: &Profile, ctx: &SweepContext) -> ExperimentOutput {
    run_ctx_stats(profile, ctx).0
}

/// [`run_ctx`], also returning the certification counters
/// structurally (sharded runs skip certification; it belongs to the
/// folding process).
pub fn run_ctx_stats(profile: &Profile, ctx: &SweepContext) -> (ExperimentOutput, SwapCheck) {
    let scenario = Scenario::swap(Objective::Max);
    let n = profile.headline_tree_n();
    let mut out = ExperimentOutput::new("swap_ncg");
    let alphas = profile.alphas.clone();
    let ks = profile.ks.clone();
    let specs = vec![SweepSpec::tree(
        "main",
        n,
        profile.reps,
        profile.base_seed ^ 0x6u64,
        alphas.clone(),
        ks.clone(),
        scenario,
    )];
    let (rows, cols) = (alphas.len(), ks.len());
    let mut rounds = MetricGrid::new(rows, cols);
    let mut diameter = MetricGrid::new(rows, cols);
    let report = engine::execute(ctx, "swap_ncg", &specs, &mut |_, cell, rec| {
        rounds.push(cell.ai, cell.ki, rec.converged.then_some(rec.rounds as f64));
        diameter.push(cell.ai, cell.ki, rec.diameter.map(f64::from));
    });
    let mut check = SwapCheck::default();
    if let Some(note) = report.shard_note("swap-ncg") {
        out.notes = note;
        return (out, check);
    }
    // Certification pass (corner cells, rep 0): the swap best
    // response is exact at every view size, so a converged run is a
    // genuine LKE certificate; the move rule must also have preserved
    // every player's purchase count from the initial tree.
    let states = specs[0].states();
    let initial_counts: Vec<usize> = (0..n as u32).map(|u| states[0].strategy(u).len()).collect();
    let mut corners: Vec<(usize, usize)> =
        vec![(0, 0), (0, ks.len() - 1), (alphas.len() - 1, 0), (alphas.len() - 1, ks.len() - 1)];
    corners.dedup();
    for (ai, ki) in corners {
        let spec = scenario.spec(alphas[ai], ks[ki]);
        debug_assert!(spec.move_rule == MoveRulePolicy::Swap);
        let result = ncg_dynamics::run(states[0].clone(), &DynamicsConfig::new(spec));
        check.certified += 1;
        let counts_ok =
            (0..n as u32).all(|u| result.state.strategy(u).len() == initial_counts[u as usize]);
        let lke_ok = !result.outcome.converged() || ncg_solver::is_lke(&result.state, &spec);
        if !counts_ok || !lke_ok {
            check.violations += 1;
        }
    }
    out.notes = format!(
        "EXTENSION (not in the paper): swap-game dynamics (one owned edge re-pointed \
         per move) under the MaxNCG objective on random trees (n = {n}); the purchase \
         count of every player is invariant, so the tree's edge budget never changes \
         and only the topology evolves. Exact swap-neighbourhood best responses at \
         every view size. Profile: {} ({} reps). Certified {} corner-cell runs \
         (exact LKE + per-player count preservation): {} violations.",
        profile.name, profile.reps, check.certified, check.violations
    );
    let row_labels: Vec<String> = alphas.iter().map(|a| format!("{a}")).collect();
    let col_labels: Vec<String> = ks.iter().map(|k| format!("k={k}")).collect();
    out.push_table(
        "rounds",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| rounds.display(ri, ci, 1)),
    );
    out.push_table(
        "diameter",
        grid_table("alpha", &row_labels, &col_labels, |ri, ci| diameter.display(ri, ci, 1)),
    );
    (out, check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_sweep_runs_and_certifies_corner_cells() {
        let (out, check) = run_ctx_stats(&Profile::smoke(), &SweepContext::local());
        assert_eq!(out.tables.len(), 2);
        assert!(check.certified > 0, "{}", out.notes);
        assert_eq!(check.violations, 0, "{}", out.notes);
        assert!(out.notes.contains(": 0 violations"), "{}", out.notes);
    }

    #[test]
    fn swap_sweep_spec_fingerprint_differs_from_subset_games() {
        // Same grid, same seed: the swap axis must change the journal
        // fingerprint so swap journals can never be resumed into the
        // canonical sweep (or vice versa).
        let p = Profile::smoke();
        let subset =
            SweepSpec::tree("main", 16, p.reps, 1, p.alphas.clone(), p.ks.clone(), Objective::Max);
        let swap = SweepSpec::tree(
            "main",
            16,
            p.reps,
            1,
            p.alphas.clone(),
            p.ks.clone(),
            Scenario::swap(Objective::Max),
        );
        assert_ne!(subset.fingerprint(), swap.fingerprint());
    }
}
