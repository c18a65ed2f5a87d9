//! Computational certification of the lower-bound gadgets:
//! Lemma 3.1 (cycle), Lemma 3.2 (high girth), Theorem 3.12 (MaxNCG
//! torus) and Theorem 4.2 (SumNCG torus). For each instance the table
//! reports whether the exact solver confirms the LKE property, the
//! witnessed PoA (`SC/OPT`), and the theory bound at the same
//! parameters.
//!
//! Certification routes through `ncg_solver::is_lke`: the players of
//! each gadget fan out over the work-stealing pool in groups of 64
//! (one view rebuilt in place per player, from a radius-`k` BFS that
//! costs the ball, not the gadget) with one `Responder` (hence one
//! warm `SolverScratch`) per worker, and a found violation
//! short-circuits the remaining players. (Inside pool workers the
//! individual solves stay sequential — the player fan-out is the
//! parallelism; the §8 frontier split serves top-level callers.) The
//! table bytes are independent of `NCG_THREADS` — the CI determinism
//! job diffs them across thread counts.

use ncg_constructions::{cycle, high_girth, TorusGrid};
use ncg_core::GameSpec;
use ncg_stats::Table;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{ExperimentOutput, Profile};

/// Runs all certifications. The profile scales the instance sizes.
pub fn run(profile: &Profile) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("lower_bounds");
    out.notes = format!(
        "Lower-bound gadget certification (exact best responses for every player); \
         profile: {}",
        profile.name
    );
    let big = profile.name == "paper";
    let mut table = Table::new([
        "construction",
        "params",
        "n",
        "spec",
        "certified LKE",
        "witnessed PoA",
        "theory LB",
    ]);

    // Lemma 3.1 — cycles.
    let cycle_cases: &[(usize, f64, u32)] = if big {
        &[(60, 1.0, 1), (100, 2.0, 3), (200, 5.0, 4), (300, 9.0, 6)]
    } else {
        &[(30, 1.0, 1), (40, 2.0, 3), (60, 5.0, 4)]
    };
    for &(n, alpha, k) in cycle_cases {
        let spec = GameSpec::max(alpha, k);
        table.push_row([
            "cycle (Lemma 3.1)".to_string(),
            format!("n={n}"),
            n.to_string(),
            format!("Max α={alpha} k={k}"),
            cycle::certify(n, &spec).to_string(),
            format!("{:.2}", cycle::witnessed_poa(n, &spec)),
            format!("{:.2}", ncg_bounds::maxncg::lb_cycle(n, alpha, k).unwrap_or(1.0)),
        ]);
    }

    // Lemma 3.2 — high-girth graphs (MaxNCG) and Theorem 4.3 (SumNCG).
    let mut rng = ChaCha8Rng::seed_from_u64(profile.base_seed ^ 0x4c42);
    let hg_n = if big { 120 } else { 60 };
    let gadget = high_girth::build(hg_n, 3, 2, &mut rng).expect("generator parameters valid");
    let spec = GameSpec::max(5.0, 2);
    table.push_row([
        "high girth (Lemma 3.2)".to_string(),
        format!("q=3, girth≥6 (actual {:?})", gadget.girth),
        hg_n.to_string(),
        "Max α=5 k=2".to_string(),
        gadget.certify(&spec).to_string(),
        format!("{:.2}", gadget.witnessed_poa(&spec).unwrap_or(f64::NAN)),
        format!("{:.2}", (hg_n as f64).powf(1.0 / 2.0)),
    ]);
    let sum_spec = GameSpec::sum((2 * hg_n) as f64, 2);
    table.push_row([
        "high girth (Thm 4.3)".to_string(),
        "q=3, girth≥6, α=kn".to_string(),
        hg_n.to_string(),
        format!("Sum α={} k=2", 2 * hg_n),
        gadget.certify(&sum_spec).to_string(),
        format!("{:.2}", gadget.witnessed_poa(&sum_spec).unwrap_or(f64::NAN)),
        format!("{:.2}", (hg_n as f64).powf(1.0 / 2.0)),
    ]);

    // Theorem 3.12 — MaxNCG torus.
    let torus_cases: &[(f64, u32, u32)] =
        if big { &[(2.0, 2, 6), (2.0, 2, 12), (3.0, 3, 8)] } else { &[(2.0, 2, 4), (2.0, 2, 8)] };
    for &(alpha, k, dlast) in torus_cases {
        let t = TorusGrid::for_theorem_312(alpha, k, dlast).expect("valid parameters");
        let spec = GameSpec::max(alpha, k);
        table.push_row([
            "torus (Thm 3.12)".to_string(),
            format!("ℓ={} d={} δ={:?}", t.ell, t.d, t.deltas),
            t.n().to_string(),
            format!("Max α={alpha} k={k}"),
            t.certify(&spec).to_string(),
            format!("{:.2}", t.witnessed_poa(&spec).unwrap_or(f64::NAN)),
            format!("{:.2}", ncg_bounds::maxncg::lb_torus(t.n(), alpha, k).unwrap_or(1.0)),
        ]);
    }

    // Theorem 4.2 — SumNCG torus.
    let sum_torus: &[(u32, u32, f64)] = if big {
        &[(2, 4, 40.0), (2, 8, 40.0), (3, 6, 110.0)]
    } else {
        &[(2, 3, 40.0), (2, 5, 40.0)]
    };
    for &(k, d2, alpha) in sum_torus {
        let t = TorusGrid::for_theorem_42(k, d2).expect("valid parameters");
        let spec = GameSpec::sum(alpha, k);
        table.push_row([
            "torus (Thm 4.2)".to_string(),
            format!("ℓ=2 d=2 δ={:?}", t.deltas),
            t.n().to_string(),
            format!("Sum α={alpha} k={k}"),
            t.certify(&spec).to_string(),
            format!("{:.2}", t.witnessed_poa(&spec).unwrap_or(f64::NAN)),
            format!("{:.2}", ncg_bounds::sumncg::lb_torus(t.n(), alpha, k).unwrap_or(1.0)),
        ]);
    }

    out.push_table("certifications", table);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gadgets_certify_under_smoke_profile() {
        let out = run(&Profile::smoke());
        let csv = out.tables[0].1.render(ncg_stats::TableStyle::Csv);
        assert!(
            !csv.contains("false"),
            "every gadget inside its premise must certify as an LKE:\n{csv}"
        );
    }
}
