//! Per-network statistics — the quantities the paper collects after
//! each round and reports in Figures 5–10.

use ncg_core::{social, GameSpec, GameState};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::CsrGraph;
use serde::{Deserialize, Serialize};

/// Reusable workspace of the measurement pass: the frozen CSR, the
/// BFS buffer, and the per-player usage vector. One per repetition
/// (the sweep engine's [`crate::CacheArena`] owns one), threaded
/// through [`StateMetrics::measure_with`] so the per-cell epilogue
/// re-allocates nothing — the same discipline `DistanceBuffer` brings
/// to a single BFS.
#[derive(Debug, Clone, Default)]
pub struct MeasureScratch {
    csr: CsrGraph,
    buf: DistanceBuffer,
    usages: Vec<Option<u64>>,
}

impl MeasureScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Snapshot of every statistic the experimental section plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateMetrics {
    /// Number of players.
    pub n: usize,
    /// Number of edges of `G(σ)`.
    pub edges: usize,
    /// Diameter (`None` if disconnected).
    pub diameter: Option<u32>,
    /// Social cost (`None` if disconnected).
    pub social_cost: Option<f64>,
    /// `SC/OPT` — the "quality of equilibrium" of Figures 6–7.
    pub quality: Option<f64>,
    /// Maximum node degree (Figure 8, left).
    pub max_degree: usize,
    /// Average node degree.
    pub avg_degree: f64,
    /// Maximum `|σ_u|` (Figure 8, right; Tables I–II).
    pub max_bought: usize,
    /// Average `|σ_u|`.
    pub avg_bought: f64,
    /// Smallest view size over players (Figure 5, right).
    pub min_view: usize,
    /// Mean view size over players (Figure 5, left).
    pub avg_view: f64,
    /// Max/min player cost ratio (Figure 9); `None` if degenerate.
    pub unfairness: Option<f64>,
}

impl StateMetrics {
    /// Measures a state under the given spec (view sizes use `spec.k`).
    ///
    /// One CSR freeze plus one full BFS per vertex over the workspace's
    /// one BFS kernel produces the diameter, both view-size statistics
    /// (a ball of radius `k` is the prefix of the BFS order at distance
    /// `≤ k`), *and* every social statistic together: the
    /// per-player usage (eccentricity for Max, status for Sum) falls
    /// out of the same distance arrays, so `social_cost`, `quality`
    /// and `unfairness` no longer run their own per-vertex BFS over
    /// the mutable adjacency inside `ncg_core::social` — the last
    /// duplicate sweep of the per-cell epilogue (ROADMAP follow-up;
    /// parity-tested against `ncg_graph::metrics::diameter`,
    /// `ncg_graph::view::ball`, and the `ncg_core::social` BFS path).
    ///
    /// On a connected state each BFS reaches every node, so the
    /// buffer's reset refills the array in one pass rather than
    /// clearing visits one by one (see `DistanceBuffer`).
    pub fn measure(state: &GameState, spec: &GameSpec) -> Self {
        Self::measure_with(state, spec, &mut MeasureScratch::new())
    }

    /// [`StateMetrics::measure`] with caller-provided scratch: the
    /// sweep epilogue's hot path, one scratch per repetition.
    pub fn measure_with(state: &GameState, spec: &GameSpec, scratch: &mut MeasureScratch) -> Self {
        let g = state.graph();
        let n = state.n();
        scratch.csr.refreeze(g);
        let mut min_view = usize::MAX;
        let mut view_total = 0usize;
        let mut ecc_max = 0u32;
        let mut connected = true;
        scratch.usages.clear();
        for u in 0..n as u32 {
            let ecc = scratch.csr.bfs(u, &mut scratch.buf);
            let reaches_all = scratch.buf.visited().len() == n;
            connected &= reaches_all;
            ecc_max = ecc_max.max(ecc);
            // `visited()` is in non-decreasing distance order, so the
            // radius-k ball is its prefix at distance ≤ k.
            let buf = &scratch.buf;
            let size = buf.visited().partition_point(|&v| buf.dist(v) <= spec.k);
            min_view = min_view.min(size);
            view_total += size;
            scratch.usages.push(spec.objective.distance_usage(
                reaches_all,
                ecc,
                scratch.buf.distances(),
            ));
        }
        if n == 0 {
            min_view = 0;
        }
        let usages = &scratch.usages;
        StateMetrics {
            n,
            edges: g.edge_count(),
            diameter: (n > 0 && connected).then_some(ecc_max),
            social_cost: social::social_cost_with_usages(state, spec, usages),
            quality: social::quality_with_usages(state, spec, usages),
            max_degree: g.max_degree(),
            avg_degree: g.avg_degree(),
            max_bought: state.max_bought(),
            avg_bought: if n == 0 { 0.0 } else { state.total_bought() as f64 / n as f64 },
            min_view,
            avg_view: if n == 0 { 0.0 } else { view_total as f64 / n as f64 },
            unfairness: social::unfairness_with_usages(state, spec, usages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::GameSpec;

    #[test]
    fn star_metrics_are_exact() {
        let state = GameState::star_center_owned(9);
        let spec = GameSpec::max(2.0, 3);
        let m = StateMetrics::measure(&state, &spec);
        assert_eq!(m.n, 9);
        assert_eq!(m.edges, 8);
        assert_eq!(m.diameter, Some(2));
        assert_eq!(m.max_degree, 8);
        assert_eq!(m.max_bought, 8);
        assert!((m.avg_bought - 8.0 / 9.0).abs() < 1e-12);
        // k = 3 ≥ diameter: everyone sees everything.
        assert_eq!(m.min_view, 9);
        assert!((m.avg_view - 9.0).abs() < 1e-12);
        // Quality 1: star is optimal at α = 2.
        assert!((m.quality.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn view_sizes_on_cycle() {
        let state = GameState::cycle_successor(10);
        let m = StateMetrics::measure(&state, &GameSpec::max(1.0, 2));
        assert_eq!(m.min_view, 5);
        assert!((m.avg_view - 5.0).abs() < 1e-12);
        let m = StateMetrics::measure(&state, &GameSpec::max(1.0, 1000));
        assert_eq!(m.min_view, 10);
        assert!((m.avg_view - 10.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_state_has_none_fields() {
        let state = GameState::from_strategies(4, vec![vec![1], vec![], vec![3], vec![]]);
        let m = StateMetrics::measure(&state, &GameSpec::max(1.0, 2));
        assert_eq!(m.diameter, None);
        assert_eq!(m.social_cost, None);
        assert_eq!(m.quality, None);
        assert_eq!(m.unfairness, None);
        assert_eq!(m.edges, 2);
    }

    #[test]
    fn serde_round_trip() {
        let state = GameState::cycle_successor(6);
        let m = StateMetrics::measure(&state, &GameSpec::sum(1.0, 2));
        let back: StateMetrics = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn csr_usage_path_matches_social_bfs_path() {
        // The social statistics now come from the measurement pass's
        // own distance arrays; they must agree bit-for-bit with the
        // `ncg_core::social` BFS entry points they replaced, for both
        // objectives, on connected and disconnected profiles.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(44);
        let mut states: Vec<GameState> = (0..4)
            .map(|t| {
                let g = ncg_graph::generators::gnp(30, 0.04 + 0.04 * t as f64, &mut rng).unwrap();
                GameState::from_graph_random_ownership(&g, &mut rng)
            })
            .collect();
        states.push(GameState::from_strategies(4, vec![vec![1], vec![], vec![3], vec![]]));
        states.push(GameState::cycle_successor(11));
        states.push(GameState::cycle_successor(130));
        states.push(GameState::from_strategies(0, vec![]));
        for (i, state) in states.iter().enumerate() {
            for spec in [GameSpec::max(1.3, 2), GameSpec::sum(2.1, 3)] {
                let m = StateMetrics::measure(state, &spec);
                assert_eq!(
                    m.social_cost,
                    ncg_core::social::social_cost(state, &spec),
                    "social cost parity (state {i}, {:?})",
                    spec.objective
                );
                assert_eq!(
                    m.quality,
                    ncg_core::social::quality(state, &spec),
                    "quality parity (state {i}, {:?})",
                    spec.objective
                );
                assert_eq!(
                    m.unfairness,
                    ncg_core::social::unfairness(state, &spec),
                    "unfairness parity (state {i}, {:?})",
                    spec.objective
                );
            }
        }
    }

    #[test]
    fn csr_path_matches_reference_diameter_and_balls() {
        // Parity of the CSR measurement path against the per-vertex
        // `Graph` reference implementations it replaced, including the
        // empty state and a 130-cycle.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        let mut states: Vec<GameState> = (0..4)
            .map(|trial| {
                let g =
                    ncg_graph::generators::gnp(40, 0.05 + 0.03 * trial as f64, &mut rng).unwrap();
                GameState::from_graph_random_ownership(&g, &mut rng)
            })
            .collect();
        states.push(GameState::cycle_successor(130));
        states.push(GameState::from_strategies(0, vec![]));
        for (i, state) in states.iter().enumerate() {
            for k in [1u32, 2, 3, 1000] {
                let spec = GameSpec::max(1.0, k);
                let m = StateMetrics::measure(state, &spec);
                assert_eq!(
                    m.diameter,
                    ncg_graph::metrics::diameter(state.graph()),
                    "diameter parity (state {i}, k={k})"
                );
                let sizes: Vec<usize> = (0..state.n() as u32)
                    .map(|u| ncg_graph::view::ball(state.graph(), u, k).len())
                    .collect();
                let min = sizes.iter().copied().min().unwrap_or(0);
                let avg = if sizes.is_empty() {
                    0.0
                } else {
                    sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
                };
                assert_eq!(m.min_view, min, "min view parity (state {i}, k={k})");
                assert!((m.avg_view - avg).abs() < 1e-12, "avg view parity (state {i}, k={k})");
            }
        }
    }
}
