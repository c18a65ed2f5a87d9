//! The paper's qualitative claims, verified at laptop scale.
//!
//! These tests pin the *shape* of the results — who wins, what grows,
//! where behaviour flips — rather than absolute numbers, which depend
//! on the authors' testbed.

use ncg::constructions::{cycle, TorusGrid};
use ncg::core::{GameSpec, GameState, Objective};
use ncg::experiments::engine::{self, SweepContext};
use ncg::experiments::sweep::{RunRecord, SweepSpec};

/// Runs `spec` through the sweep engine (local, no journal) and folds
/// `metric` of every run into its `(α, k)` cell, in grid order; runs
/// where the metric is undefined are skipped.
fn per_cell(spec: SweepSpec, metric: fn(&RunRecord) -> Option<f64>) -> Vec<Vec<f64>> {
    let ks = spec.ks.len();
    let mut cells = vec![Vec::new(); spec.alphas.len() * ks];
    engine::execute(&SweepContext::local(), "paper_claims", &[spec], &mut |_, cell, rec| {
        cells[cell.ai * ks + cell.ki].extend(metric(rec))
    });
    cells
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Section 3.1 / Lemma 3.1: stable cycles make the PoA grow linearly
/// in `n` for fixed `α ≥ k − 1`.
#[test]
fn claim_cycle_poa_linear_in_n() {
    let spec = GameSpec::max(2.0, 2);
    let p1 = cycle::witnessed_poa(24, &spec);
    let p2 = cycle::witnessed_poa(48, &spec);
    let p4 = cycle::witnessed_poa(96, &spec);
    assert!(cycle::certify(24, &spec) && cycle::certify(48, &spec));
    let r21 = p2 / p1;
    let r42 = p4 / p2;
    assert!(
        (1.5..=2.5).contains(&r21) && (1.5..=2.5).contains(&r42),
        "doubling n should roughly double the PoA: ratios {r21:.2}, {r42:.2}"
    );
}

/// Introduction: "for constant values of k (regardless of α) … stable
/// graphs having diameter Ω(n)" — the torus diameter witness.
#[test]
fn claim_torus_diameter_linear_in_n() {
    let a = TorusGrid::for_theorem_312(2.0, 2, 4).unwrap();
    let b = TorusGrid::for_theorem_312(2.0, 2, 8).unwrap();
    let da = ncg::graph::metrics::diameter(a.state().graph()).unwrap() as f64;
    let db = ncg::graph::metrics::diameter(b.state().graph()).unwrap() as f64;
    let na = a.n() as f64;
    let nb = b.n() as f64;
    assert!(
        (db / da) / (nb / na) > 0.8,
        "diameter must scale ~linearly with n: d {da}→{db}, n {na}→{nb}"
    );
}

/// Section 5.4, "Knowledge of the network": view sizes decrease with
/// `α` and grow rapidly with `k`.
#[test]
fn claim_view_size_trends() {
    let n = 36;
    let reps = 4;
    let spec = SweepSpec::tree("t", n, reps, 0xBEEF, vec![0.1, 5.0], vec![2, 4], Objective::Max);
    let views = per_cell(spec, |rec| Some(rec.avg_view));
    let avg_view = |ai: usize, ki: usize| mean(&views[ai * 2 + ki]);
    // Growing k widens views dramatically.
    assert!(avg_view(0, 1) > avg_view(0, 0));
    assert!(avg_view(1, 1) > avg_view(1, 0));
    // Growing α shrinks them (weakly, at small scale).
    assert!(avg_view(1, 0) <= avg_view(0, 0) + 1.0);
}

/// Section 5.4, "Convergence time": dynamics converge fast, and cycles
/// are rare.
#[test]
fn claim_fast_convergence_and_rare_cycles() {
    let reps = 6;
    let spec =
        SweepSpec::tree("t", 30, reps, 0xCAFE, vec![0.5, 2.0], vec![2, 5, 1000], Objective::Max);
    let (mut total, mut converged, mut cycled, mut fast) = (0, 0, 0, 0);
    engine::execute(&SweepContext::local(), "paper_claims", &[spec], &mut |_, _, rec| {
        total += 1;
        if rec.converged {
            converged += 1;
            if rec.rounds <= 7 {
                fast += 1;
            }
        } else if rec.cycled() {
            cycled += 1;
        }
    });
    assert_eq!(total, 2 * 3 * reps);
    assert!(converged + cycled == total, "no run may hit the round cap");
    assert!(cycled * 20 <= total, "cycles must be rare: {cycled}/{total}");
    assert!(
        fast * 100 >= converged * 95,
        "≥95% of converged runs should need ≤7 rounds ({fast}/{converged})"
    );
}

/// Section 5.4, "Quality of equilibria": at α = 10 the quality
/// degrades with n for small k but not at full knowledge (Figure 6
/// right panel's two extremes).
#[test]
fn claim_quality_gap_small_k_vs_full_knowledge() {
    let reps = 4;
    let alpha = 10.0;
    let quality = |n: usize, k: u32| {
        let spec = SweepSpec::tree("t", n, reps, 0xD00D, vec![alpha], vec![k], Objective::Max);
        mean(&per_cell(spec, |rec| rec.quality)[0])
    };
    let q_local = quality(48, 2);
    let q_full = quality(48, 1000);
    assert!(
        q_local > q_full,
        "myopic equilibria must be worse at α = 10: local {q_local:.2} vs full {q_full:.2}"
    );
}

/// Section 2: NP-hardness forces exact best responses through the
/// dominating-set reduction — sanity-check that the solver agrees with
/// brute force on a batch of random views (the Gurobi-replacement
/// claim of DESIGN.md §4).
#[test]
fn claim_solver_matches_bruteforce_on_random_views() {
    use ncg::core::equilibrium::best_response_exhaustive;
    use ncg::core::PlayerView;
    use ncg::solver::{max_br, Mode};
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xACE);
    for trial in 0..8 {
        let g = ncg::graph::generators::gnp_connected(14, 0.22, 300, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(0.7, 2 + (trial % 3) as u32);
        for u in 0..state.n() as u32 {
            let view = PlayerView::build(&state, u, spec.k);
            let exact = max_br::max_best_response(&spec, &view, Mode::Exact);
            let brute = best_response_exhaustive(&spec, &view).unwrap();
            assert!(
                (exact.total_cost - brute.total_cost).abs() < 1e-9,
                "trial {trial}, player {u}"
            );
        }
    }
}

/// Figure 9's punchline: restricting views does not *hurt* fairness;
/// the most lopsided equilibria appear under full knowledge with
/// cheap edges (hub formation).
#[test]
fn claim_full_knowledge_hubs_are_less_fair() {
    let reps = 4;
    let spec = SweepSpec::er("t", 26, 0.18, reps, 0xFA1, vec![0.2], vec![2, 1000], Objective::Max);
    let unfair = per_cell(spec, |rec| rec.unfairness);
    let local = mean(&unfair[0]);
    let full = mean(&unfair[1]);
    assert!(
        local <= full + 0.5,
        "restricted views should be at least comparably fair: k=2 {local:.2} vs full {full:.2}"
    );
}
