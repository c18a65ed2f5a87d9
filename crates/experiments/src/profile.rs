//! Parameter profiles: the paper's exact grids and a quick default.

/// The parameter grid an experiment sweeps.
///
/// The paper's grids (Section 5.1–5.2):
///
/// * `α ∈ {0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10}`
/// * `k ∈ {2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000}` (1000 ≈ full
///   knowledge)
/// * random trees with `n ∈ {20, 30, 50, 70, 100, 200}`
/// * `G(n,p)` with the six `(n, p)` rows of Table II
/// * 20 repetitions per cell.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Repetitions per parameter cell (paper: 20).
    pub reps: usize,
    /// Edge-price grid.
    pub alphas: Vec<f64>,
    /// Knowledge-radius grid.
    pub ks: Vec<u32>,
    /// Random-tree sizes.
    pub tree_ns: Vec<usize>,
    /// Erdős–Rényi `(n, p)` rows.
    pub er_configs: Vec<(usize, f64)>,
    /// Scale-tier player count (`scale-dynamics`; paper-scale is
    /// `10^6`, the CI smoke lane runs `10^5`).
    pub scale_n: usize,
    /// Scale-tier expected degree (`p = avg_deg / (n - 1)`).
    pub scale_avg_deg: f64,
    /// Scale-tier repetitions (kept separate from `reps`: one rep is
    /// a full million-node dynamics, not a 100-node one).
    pub scale_reps: usize,
    /// Scale-tier round cap (the approximate dynamics reports
    /// `capped` runs honestly instead of iterating to convergence).
    pub scale_rounds: usize,
    /// Scale-tier edge-price grid (much smaller than `alphas`).
    pub scale_alphas: Vec<f64>,
    /// Scale-tier knowledge-radius grid (small `k` only — a radius-7
    /// ball at average degree 10 is already the whole graph).
    pub scale_ks: Vec<u32>,
    /// Base seed; every workload seed derives from it.
    pub base_seed: u64,
    /// Human-readable name, recorded in outputs.
    pub name: &'static str,
}

impl Profile {
    /// The paper's exact grid (≈36 000 dynamics across all figures —
    /// hours of compute; use for full reproductions).
    pub fn paper() -> Self {
        Profile {
            reps: 20,
            alphas: vec![
                0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0,
            ],
            ks: vec![2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000],
            tree_ns: vec![20, 30, 50, 70, 100, 200],
            er_configs: vec![
                (100, 0.060),
                (100, 0.100),
                (100, 0.200),
                (200, 0.035),
                (200, 0.050),
                (200, 0.100),
            ],
            scale_n: 1_000_000,
            scale_avg_deg: 10.0,
            scale_reps: 3,
            scale_rounds: 8,
            scale_alphas: vec![1.0, 5.0],
            scale_ks: vec![2],
            base_seed: 0x9e3779b97f4a7c15,
            name: "paper",
        }
    }

    /// Trimmed grid that preserves every qualitative trend but
    /// finishes in minutes: fewer repetitions, a coarser `α`/`k` grid,
    /// and the smaller workload sizes.
    pub fn quick() -> Self {
        Profile {
            reps: 5,
            alphas: vec![0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0],
            ks: vec![2, 3, 4, 5, 7, 1000],
            tree_ns: vec![20, 30, 50, 70],
            er_configs: vec![(50, 0.10), (70, 0.07)],
            scale_n: 20_000,
            scale_avg_deg: 10.0,
            scale_reps: 2,
            scale_rounds: 8,
            scale_alphas: vec![1.0, 5.0],
            scale_ks: vec![2],
            base_seed: 0x9e3779b97f4a7c15,
            name: "quick",
        }
    }

    /// An even smaller profile for smoke tests and benches.
    pub fn smoke() -> Self {
        Profile {
            reps: 2,
            alphas: vec![0.5, 2.0],
            ks: vec![2, 1000],
            tree_ns: vec![16, 24],
            er_configs: vec![(24, 0.2)],
            // The CI scale lane runs `scale-dynamics --smoke`: 10^5
            // players, four rounds — seconds in release, and big
            // enough that an accidental O(n) per-player allocation
            // would blow the lane's wall-clock budget.
            scale_n: 100_000,
            scale_avg_deg: 10.0,
            scale_reps: 2,
            scale_rounds: 4,
            scale_alphas: vec![1.0, 5.0],
            scale_ks: vec![2],
            base_seed: 0x9e3779b97f4a7c15,
            name: "smoke",
        }
    }

    /// The tree size of the single-`n` figures (paper: `n = 100` for
    /// Figures 5 and 10-left). Picks 100 when the profile has it,
    /// otherwise the largest size present.
    pub fn headline_tree_n(&self) -> usize {
        if self.tree_ns.contains(&100) {
            100
        } else {
            self.tree_ns.iter().copied().max().unwrap_or(50)
        }
    }

    /// The tree size of the SumNCG extension sweep: the largest size
    /// in the profile that keeps *every* α cell tractable for the
    /// exact branch-and-bound. The binding cell is α ≈ 1, where the
    /// cost grid `α·t + usage` makes purchase-for-distance swaps
    /// exactly cost-neutral: optima proliferate into a tie plateau,
    /// and most of the search proves that nothing ties the incumbent
    /// with fewer edges or a lex-smaller strategy. The raised-price
    /// layer bound cuts most of that proof (DESIGN.md §9), but exact
    /// solves there still scale worse than in the cheap-α or
    /// p-median-like regimes. The sizes were chosen before that bound,
    /// so the degenerate cells stay within each profile's time
    /// budget: seconds per solve for `paper`, tens of milliseconds
    /// for `quick`. They stay, because raising them changes the
    /// sum-extension artifacts.
    pub fn sum_tree_n(&self) -> usize {
        let cap = if self.reps >= 20 { 50 } else { 30 };
        self.tree_ns.iter().copied().filter(|&n| n <= cap).max().unwrap_or(cap)
    }

    /// The ER row used by Figures 8–9 (paper: `n = 100, p = 0.1`);
    /// profiles without that exact row use their densest row.
    pub fn headline_er(&self) -> (usize, f64) {
        if self.er_configs.contains(&(100, 0.100)) {
            (100, 0.100)
        } else {
            self.er_configs
                .iter()
                .copied()
                .max_by(|a, b| (a.0 as f64 * a.1).total_cmp(&(b.0 as f64 * b.1)))
                .unwrap_or((50, 0.1))
        }
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_section_5() {
        let p = Profile::paper();
        assert_eq!(p.reps, 20);
        assert_eq!(p.alphas.len(), 15);
        assert_eq!(p.ks.len(), 12);
        assert_eq!(p.tree_ns, vec![20, 30, 50, 70, 100, 200]);
        assert_eq!(p.er_configs.len(), 6);
        assert!(p.ks.contains(&1000));
        assert!(p.alphas.contains(&0.025) && p.alphas.contains(&10.0));
    }

    #[test]
    fn quick_profile_is_a_subset_in_spirit() {
        let q = Profile::quick();
        let p = Profile::paper();
        assert!(q.reps < p.reps);
        for a in &q.alphas {
            assert!(p.alphas.contains(a), "quick α={a} should come from the paper grid");
        }
        for k in &q.ks {
            assert!(p.ks.contains(k), "quick k={k} should come from the paper grid");
        }
    }

    #[test]
    fn scale_tier_grids_are_sized_to_their_profiles() {
        assert_eq!(Profile::paper().scale_n, 1_000_000);
        assert_eq!(Profile::smoke().scale_n, 100_000);
        assert!(Profile::quick().scale_n < Profile::smoke().scale_n);
        for p in [Profile::paper(), Profile::quick(), Profile::smoke()] {
            assert!(p.scale_avg_deg > 0.0);
            assert!(p.scale_reps >= 1 && p.scale_rounds >= 1);
            assert!(!p.scale_alphas.is_empty() && !p.scale_ks.is_empty());
            assert!(p.scale_ks.iter().all(|&k| k <= 3), "scale tier keeps balls small");
        }
    }

    #[test]
    fn headline_selectors_match_the_paper() {
        // Figures 5, 8, 9 and 10-left use n = 100 (and G(100, 0.1)).
        assert_eq!(Profile::paper().headline_tree_n(), 100);
        assert_eq!(Profile::paper().sum_tree_n(), 50);
        assert_eq!(Profile::quick().sum_tree_n(), 30);
        assert_eq!(Profile::smoke().sum_tree_n(), 24);
        assert_eq!(Profile::paper().headline_er(), (100, 0.1));
        assert_eq!(Profile::smoke().headline_tree_n(), 24);
        assert_eq!(Profile::smoke().headline_er(), (24, 0.2));
    }
}
