//! Exact MaxNCG best response via the Section 5.3 reduction.
//!
//! To find player `u`'s best response inside her view `H`:
//!
//! 1. remove `u`; let `forced` be the players owning an edge to `u`
//!    (those edges survive any move and cost her nothing);
//! 2. guess her post-move eccentricity `h`; her strategy `σ'` achieves
//!    eccentricity `≤ h` iff `σ' ∪ forced` dominates the
//!    `(h−1)`-th power of `H ∖ {u}` — equivalently, every other vertex
//!    is within distance `h−1` of `σ' ∪ forced` in `H ∖ {u}`;
//! 3. solve the constrained minimum dominating set for each `h` and
//!    take the best `α·|σ'| + h`.
//!
//! The paper solved step 3 with Gurobi; we use the exact
//! branch-and-bound of [`crate::engine`] (see DESIGN.md §4). A greedy
//! variant backs the ablation study.
//!
//! Because the coverage sets of consecutive guesses are nested
//! (`covers[s]` is the radius-`(h−1)` ball around `s`), the whole
//! per-`h` loop drives one persistent
//! [`DominationEngine`]: [`RingGrowth`] holds the adjacency rows of
//! `H ∖ {u}` as bitsets, and each guess grows every source's ball by
//! one ring — the union of the adjacency rows of the previous ring,
//! minus the ball — fed to the engine as one word-level insert
//! (`DESIGN.md` §4.3). Rings grow only when a guess is solved, so the
//! guesses the loop never reaches cost nothing.

use ncg_core::deviation::{current_total, evaluate_max, EvalScratch};
use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, MoveRulePolicy, PlayerView};
use ncg_graph::NodeId;

use crate::bitset::{BitRows, BitSet};
use crate::bound::purchase_cutoff;
use crate::engine::DominationEngine;
use crate::{Mode, SolverScratch};

/// Computes the MaxNCG best response for `view` under `spec`.
///
/// With [`Mode::Exact`] the result is an optimal strategy, but cost
/// ties are not broken the way exhaustive search breaks them (fewer
/// edges, then lexicographically): every eccentricity guess searches
/// only strategies strictly cheaper than the best so far, the current
/// strategy to begin with, so the current strategy wins any tie, and
/// otherwise the smallest guess that reaches the optimal cost supplies
/// the witness (DESIGN.md §4.1). With [`Mode::Greedy`] the dominating
/// sets are greedy approximations, so the result is a valid but
/// possibly suboptimal improving move — never worse than the current
/// strategy.
///
/// Creates a throwaway [`SolverScratch`] per call; hot loops should
/// hold one and call [`max_best_response_with`] instead.
pub fn max_best_response(spec: &GameSpec, view: &PlayerView, mode: Mode) -> Deviation {
    max_best_response_with(spec, view, mode, &mut SolverScratch::new())
}

/// [`max_best_response`] with caller-provided scratch: after warm-up,
/// repeated calls (per-round dynamics, LKE sweeps) reuse the ring
/// growth's bitsets and the incremental domination engine across
/// views of any size, so a warm call allocates little beyond the
/// strategies it returns.
pub fn max_best_response_with(
    spec: &GameSpec,
    view: &PlayerView,
    mode: Mode,
    scratch: &mut SolverScratch,
) -> Deviation {
    let SolverScratch { eval, rings, engine, .. } = scratch;
    rings.reset(view.len(), Some(view.center), |v| view.neighbors_minus_center(v));
    guess_loop(spec, view, mode, engine, eval, |engine, r| rings.grow_to(engine, r))
}

/// The eccentricity-guess loop over `engine`, whose coverage
/// `grow_to(engine, r)` grows to radius `r` (monotone in `r`). The
/// production feed is [`RingGrowth`]; the tests drive the loop with
/// the cursor feed it replaced.
fn guess_loop(
    spec: &GameSpec,
    view: &PlayerView,
    mode: Mode,
    engine: &mut DominationEngine,
    eval: &mut EvalScratch,
    mut grow_to: impl FnMut(&mut DominationEngine, u32),
) -> Deviation {
    debug_assert!(
        spec.edge_cost.is_uniform() && spec.move_rule == MoveRulePolicy::AnySubset,
        "the max engine's ⌈slack/α⌉ cutoff is only sound for uniform \
         edge costs and subset moves; other scenarios must go through \
         front::best_response_with"
    );
    let n_local = view.len();
    let mut best =
        Deviation { strategy_local: view.purchases.clone(), total_cost: current_total(spec, view) };
    if n_local <= 1 {
        return Deviation { strategy_local: Vec::new(), total_cost: spec.total_cost(0, Some(0)) };
    }
    // Eccentricity guesses at or above the current best total cost can
    // never win (any strategy with eccentricity h costs at least h),
    // and eccentricities in H' never exceed |H| — so the guess loop is
    // bounded by `h_cap`.
    let h_cap = largest_useful_h(best.total_cost, n_local);
    if h_cap == 0 {
        return best;
    }
    // Universe: every vertex except the center.
    engine.reset(n_local, Some(view.center), &view.incoming);
    for h in 1..=h_cap {
        if h as f64 >= best.total_cost - ncg_core::EPS {
            break;
        }
        // Only solutions with α·extra + h < best are interesting
        // (shared cutoff arithmetic: crate::bound).
        let cutoff = purchase_cutoff(best.total_cost, h as f64, spec.alpha);
        if cutoff == 0 {
            continue;
        }
        // Grow coverage to radius h−1: every source's balls up to
        // `h − 1`, fed ring by ring.
        grow_to(engine, h - 1);
        let solution = match mode {
            Mode::Exact => engine.solve_exact(cutoff),
            Mode::Greedy => engine.solve_greedy().filter(|s| s.len() < cutoff),
        };
        let Some(strategy) = solution else { continue };
        // `strategy` is already sorted with forced elements excluded.
        debug_assert!(strategy.iter().all(|s| !view.incoming.contains(s)));
        // Re-evaluate exactly (the true eccentricity may be < h).
        let eval = evaluate_max(view, &strategy, eval);
        let cost = spec.total_cost(strategy.len(), eval.usage());
        if is_better(spec, &strategy, cost, &best) {
            best = Deviation { strategy_local: strategy, total_cost: cost };
        }
    }
    best
}

/// Ring-by-ring coverage growth: feeds a [`DominationEngine`] the
/// radius-`r` balls of a graph, one ring per source and radius.
///
/// The adjacency rows are bitsets, built once per [`reset`]; the ring
/// of a source at radius `r` is the union of the adjacency rows of its
/// radius-`(r − 1)` ring, minus its ball so far — which is exactly the
/// engine's `covers[s]`, so the engine's coverage must come from this
/// growth alone (reset both together). Each ring goes to the engine
/// through one [`DominationEngine::extend_cover`], sources in
/// increasing id within a radius. Every radius is fed whole before
/// `grow_to` returns, so between calls the coverage is the symmetric
/// ball system the engine's contract asks for. Rings are grown only as
/// far as [`grow_to`] is asked.
///
/// [`reset`]: RingGrowth::reset
/// [`grow_to`]: RingGrowth::grow_to
#[derive(Debug, Clone, Default)]
pub struct RingGrowth {
    /// `adj[v]`: the neighbours of `v`.
    adj: BitRows,
    /// `rings[s]`: the vertices at distance exactly `fed − 1` from
    /// `s` (before radius 0 is fed: `{s}`, or nothing for a
    /// non-source).
    rings: BitRows,
    next: BitSet,
    /// How many radii (0, 1, …) have been fed to the engine.
    fed: u32,
}

impl RingGrowth {
    /// Re-targets the growth at the graph on `0..n` whose adjacency
    /// rows `neighbors` yields, with every vertex but `center` a source
    /// and nothing fed yet. The reduction passes the view's
    /// [`PlayerView::neighbors_minus_center`], so the rows are those of
    /// `H ∖ {u}` and the center is no source. The rows keep their
    /// storage across graph sizes (`BitRows`): a reset allocates only
    /// for a graph larger than any seen before.
    pub fn reset<I: IntoIterator<Item = NodeId>>(
        &mut self,
        n: usize,
        center: Option<NodeId>,
        neighbors: impl Fn(NodeId) -> I,
    ) {
        self.adj.reset(n);
        self.rings.reset(n);
        for v in 0..n as NodeId {
            for w in neighbors(v) {
                self.adj[v as usize].insert(w);
            }
            if Some(v) != center {
                self.rings[v as usize].insert(v);
            }
        }
        self.next.reset(n);
        self.fed = 0;
    }

    /// Grows `engine`'s coverage to the radius-`r` balls, feeding the
    /// rings not fed yet. Monotone: a radius already reached is a
    /// no-op.
    pub fn grow_to(&mut self, engine: &mut DominationEngine, r: u32) {
        while self.fed <= r {
            if self.fed == 0 {
                for (s, ring) in self.rings.iter_mut().enumerate() {
                    engine.extend_cover(s as u32, ring);
                }
            } else {
                for s in 0..self.rings.len() {
                    if self.rings[s].is_empty() {
                        continue;
                    }
                    let next = self.next.words_mut();
                    next.fill(0);
                    for (i, &word) in self.rings[s].words().iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let v = i * 64 + bits.trailing_zeros() as usize;
                            for (nw, aw) in next.iter_mut().zip(self.adj[v].words()) {
                                *nw |= aw;
                            }
                            bits &= bits - 1;
                        }
                    }
                    engine.extend_cover(s as u32, &mut self.next);
                    std::mem::swap(&mut self.rings[s], &mut self.next);
                }
            }
            self.fed += 1;
        }
    }
}

/// The *seed* best-response loop, kept verbatim as the reference
/// baseline: all-pairs BFS rows, then one freshly cloned
/// [`DominationInstance`](crate::dominating::DominationInstance) per
/// eccentricity guess. Returns the optimal total cost only.
///
/// [`max_best_response`] must be cost-identical to this — the parity
/// proptest asserts it, and the `er100_full_view_rebuild` bench
/// measures the gap the incremental engine closes. Not for production
/// use.
pub fn max_best_response_cost_rebuild(spec: &GameSpec, view: &PlayerView) -> f64 {
    use crate::dominating::DominationInstance;
    use ncg_core::deviation::EvalScratch;
    use ncg_graph::bfs::DistanceBuffer;

    let n_local = view.len();
    let mut best_cost = current_total(spec, view);
    if n_local <= 1 {
        return spec.total_cost(0, Some(0));
    }
    let mut buf = DistanceBuffer::with_capacity(n_local);
    let dist: Vec<Vec<u32>> = (0..n_local as NodeId)
        .map(|s| {
            if s == view.center {
                vec![ncg_graph::INFINITY; n_local]
            } else {
                view.bfs_minus_center(&[s], &mut buf);
                buf.distances().to_vec()
            }
        })
        .collect();
    let mut universe = BitSet::full(n_local);
    universe.remove(view.center);
    let mut covers: Vec<BitSet> = vec![BitSet::new(n_local); n_local];
    let mut scratch = EvalScratch::new();
    for h in 1..=n_local as u32 {
        if h as f64 >= best_cost - ncg_core::EPS {
            break;
        }
        let r = h - 1;
        for s in 0..n_local {
            if s == view.center as usize {
                continue;
            }
            for v in 0..n_local as u32 {
                if v != view.center && dist[s][v as usize] == r {
                    covers[s].insert(v);
                }
            }
        }
        let inst = DominationInstance {
            covers: covers.clone(),
            universe: universe.clone(),
            forced: view.incoming.clone(),
        };
        let cutoff = purchase_cutoff(best_cost, h as f64, spec.alpha);
        if cutoff == 0 {
            continue;
        }
        let Some(extra) = inst.solve_exact(cutoff) else { continue };
        let eval = evaluate_max(view, &extra, &mut scratch);
        let cost = spec.total_cost(extra.len(), eval.usage());
        if GameSpec::strictly_better(cost, best_cost) {
            best_cost = cost;
        }
    }
    best_cost
}

/// Largest `h` the guess loop can enter: `h < total_cost − ε`, capped
/// by the view size.
fn largest_useful_h(total_cost: f64, n_local: usize) -> u32 {
    let m = (total_cost - ncg_core::EPS).ceil() - 1.0;
    if m <= 0.0 {
        0
    } else if m >= n_local as f64 {
        n_local as u32
    } else {
        m as u32
    }
}

fn is_better(_spec: &GameSpec, strategy: &[NodeId], cost: f64, best: &Deviation) -> bool {
    GameSpec::strictly_better(cost, best.total_cost)
        || ((cost - best.total_cost).abs() <= ncg_core::EPS
            && (strategy.len() < best.strategy_local.len()
                || (strategy.len() == best.strategy_local.len()
                    && *strategy < best.strategy_local[..])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::equilibrium::best_response_exhaustive;
    use ncg_core::GameState;
    use ncg_graph::bfs::DistanceBuffer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The coverage feed ring growth replaced: per-source BFS visit
    /// orders of `H ∖ {center}`, consumed pair by pair through one
    /// cursor per source.
    #[derive(Default)]
    struct CursorFeed {
        buf: DistanceBuffer,
        /// Per-source visit orders, flattened: node ids and distances
        /// in non-decreasing distance order per source.
        ord_node: Vec<NodeId>,
        ord_dist: Vec<u32>,
        /// `offsets[s]..offsets[s+1]` delimits source `s`.
        offsets: Vec<usize>,
        cursors: Vec<usize>,
    }

    impl CursorFeed {
        fn sweep_minus_center(&mut self, view: &PlayerView) {
            let n = view.len();
            self.ord_node.clear();
            self.ord_dist.clear();
            self.offsets.clear();
            self.offsets.push(0);
            for s in 0..n as NodeId {
                if s != view.center {
                    view.bfs_minus_center(&[s], &mut self.buf);
                    for &v in self.buf.visited() {
                        self.ord_node.push(v);
                        self.ord_dist.push(self.buf.dist(v));
                    }
                }
                self.offsets.push(self.ord_node.len());
            }
            self.cursors.clear();
            self.cursors.extend_from_slice(&self.offsets[..n]);
        }

        fn grow_covers_to(&mut self, engine: &mut DominationEngine, r: u32) {
            let n = self.offsets.len() - 1;
            for s in 0..n {
                let end = self.offsets[s + 1];
                let mut c = self.cursors[s];
                while c < end && self.ord_dist[c] <= r {
                    engine.add_pair(s as u32, self.ord_node[c]);
                    c += 1;
                }
                self.cursors[s] = c;
            }
        }
    }

    /// [`max_best_response_with`] driven by the cursor feed.
    fn max_best_response_cursor_feed(
        spec: &GameSpec,
        view: &PlayerView,
        mode: Mode,
        scratch: &mut SolverScratch,
    ) -> Deviation {
        let mut feed = CursorFeed::default();
        feed.sweep_minus_center(view);
        let SolverScratch { eval, engine, .. } = scratch;
        guess_loop(spec, view, mode, engine, eval, |engine, r| feed.grow_covers_to(engine, r))
    }

    #[test]
    fn ring_growth_matches_the_cursor_feed_at_every_radius() {
        // Views of one, two and three words, seen by players with at
        // least one incoming edge (so `forced` is non-empty).
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        let mut ring_scratch = SolverScratch::new();
        let mut cursor_scratch = SolverScratch::new();
        for n in [10usize, 63, 64, 65, 129] {
            let g = ncg_graph::generators::gnp_connected(n, 5.0 / n as f64, 500, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            let players: Vec<NodeId> = (0..n as NodeId)
                .filter(|&u| !PlayerView::build(&state, u, 1).incoming.is_empty())
                .take(3)
                .collect();
            assert!(!players.is_empty(), "n = {n}: no player with incoming edges");
            for &u in &players {
                for k in [3u32, 1000] {
                    let view = PlayerView::build(&state, u, k);
                    let tag = format!("n = {n}, u = {u}, k = {k}");
                    let mut universe = BitSet::full(view.len());
                    universe.remove(view.center);
                    let mut by_rings = DominationEngine::new(universe.clone(), &view.incoming);
                    let mut by_cursors = DominationEngine::new(universe, &view.incoming);
                    let mut rings = RingGrowth::default();
                    rings.reset(view.len(), Some(view.center), |v| view.neighbors_minus_center(v));
                    let mut feed = CursorFeed::default();
                    feed.sweep_minus_center(&view);
                    for r in 0..=view.len() as u32 {
                        rings.grow_to(&mut by_rings, r);
                        feed.grow_covers_to(&mut by_cursors, r);
                        assert_eq!(
                            by_rings.coverage_state(),
                            by_cursors.coverage_state(),
                            "{tag}, radius {r}"
                        );
                        // The coverage contract: `covers[v]` lists the sources
                        // covering `v`, `cover_sizes[v]` counts them.
                        let (covers, sizes, ..) = by_rings.coverage_state();
                        for v in 0..view.len() as NodeId {
                            let holders: Vec<NodeId> = (0..view.len() as NodeId)
                                .filter(|&s| covers[s as usize].contains(v))
                                .collect();
                            let vtag = format!("{tag}, radius {r}, v = {v}");
                            assert_eq!(holders, covers[v as usize].to_vec(), "{vtag}");
                            assert_eq!(holders.len(), sizes[v as usize] as usize, "{vtag}");
                        }
                        assert!(covers.iter().all(|c| !c.contains(view.center)), "{tag}");
                    }
                    for alpha in [0.3, 1.5, 6.0] {
                        let spec = GameSpec::max(alpha, k);
                        for mode in [Mode::Exact, Mode::Greedy] {
                            let a = max_best_response_with(&spec, &view, mode, &mut ring_scratch);
                            let b = max_best_response_cursor_feed(
                                &spec,
                                &view,
                                mode,
                                &mut cursor_scratch,
                            );
                            assert_eq!(a.strategy_local, b.strategy_local, "{tag}, α = {alpha}");
                            assert_eq!(
                                a.total_cost.to_bits(),
                                b.total_cost.to_bits(),
                                "{tag}, α = {alpha}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ring_growth_rows_are_the_detached_copy_rows() {
        // One warm growth retargeted across views of different sizes
        // (across the 64-bit word boundary): its adjacency rows must be
        // those of a copy of H with the center detached, and every
        // vertex but the center must start as a source.
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut rings = RingGrowth::default();
        for n in [40usize, 3, 25, 1, 70, 12] {
            let g = if n % 2 == 0 {
                ncg_graph::generators::gnp(n, 0.15, &mut rng).unwrap()
            } else {
                ncg_graph::generators::random_tree(n, &mut rng)
            };
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for k in [1u32, 2, 3, 1000] {
                for u in 0..n as NodeId {
                    let view = PlayerView::build(&state, u, k);
                    let h = &view.sub.graph;
                    let edges = (0..view.len() as NodeId)
                        .flat_map(|v| h.neighbors(v).iter().map(move |&w| (v, w)));
                    let mut detached = ncg_graph::Graph::from_edges(view.len(), edges).unwrap();
                    detached.detach_node(view.center);
                    rings.reset(view.len(), Some(view.center), |v| view.neighbors_minus_center(v));
                    assert_eq!(rings.adj.len(), view.len());
                    for v in 0..view.len() as NodeId {
                        let tag = format!("n = {n}, k = {k}, u = {u}, v = {v}");
                        assert_eq!(rings.adj[v as usize].to_vec(), detached.neighbors(v), "{tag}");
                        let source = if v == view.center { vec![] } else { vec![v] };
                        assert_eq!(rings.rings[v as usize].to_vec(), source, "{tag}");
                    }
                }
            }
        }
    }

    fn assert_matches_exhaustive(state: &GameState, spec: &GameSpec) {
        for u in 0..state.n() as NodeId {
            let view = PlayerView::build(state, u, spec.k);
            let exhaustive = best_response_exhaustive(spec, &view).unwrap();
            let solver = max_best_response(spec, &view, Mode::Exact);
            assert!(
                (solver.total_cost - exhaustive.total_cost).abs() < 1e-9,
                "u={u}, α={}, k={}: solver {} vs exhaustive {} (solver strat {:?}, exh {:?})",
                spec.alpha,
                spec.k,
                solver.total_cost,
                exhaustive.total_cost,
                solver.strategy_local,
                exhaustive.strategy_local,
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_cycles() {
        for n in [6usize, 9, 12] {
            let state = GameState::cycle_successor(n);
            for k in [1u32, 2, 3] {
                for alpha in [0.025, 0.3, 1.0, 2.5, 8.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_random_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..6 {
            let tree = ncg_graph::generators::random_tree(14, &mut rng);
            let state = GameState::from_graph_random_ownership(&tree, &mut rng);
            for k in [2u32, 3] {
                for alpha in [0.1, 1.0, 5.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        for _ in 0..6 {
            let g = ncg_graph::generators::gnp_connected(13, 0.25, 100, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for k in [2u32, 4] {
                for alpha in [0.05, 0.7, 2.0] {
                    assert_matches_exhaustive(&state, &GameSpec::max(alpha, k));
                }
            }
        }
    }

    #[test]
    fn a_later_guess_wins_only_when_strictly_cheaper() {
        // The guess loop hands every guess a cutoff that admits only
        // strategies strictly cheaper than the best so far, so the
        // smallest eccentricity guess reaching the optimal cost keeps
        // the witness, whatever its edge count. Here guess 1 reaches
        // 2.5 with three edges; exhaustive search breaks the same cost
        // tie toward one edge at eccentricity 2. The costs agree bit
        // for bit: the Max engine is held to cost parity, not to the
        // exhaustive tie-break, and changing that would change the Max
        // artifacts.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let mut state = GameState::new(1);
        for _ in 0..27 {
            let g = ncg_graph::generators::gnp_connected(13, 0.25, 100, &mut rng).unwrap();
            state = GameState::from_graph_random_ownership(&g, &mut rng);
        }
        let spec = GameSpec::max(0.5, 3);
        let view = PlayerView::build(&state, 2, spec.k);
        assert_eq!(view.len(), 5);
        let engine = max_best_response(&spec, &view, Mode::Exact);
        let exhaustive = best_response_exhaustive(&spec, &view).unwrap();
        assert_eq!(engine.strategy_local, vec![1, 2, 4]);
        assert_eq!(exhaustive.strategy_local, vec![4]);
        assert_ne!(engine.strategy_local, view.purchases, "the player moves");
        assert_eq!(engine.total_cost, 2.5);
        assert_eq!(engine.total_cost.to_bits(), exhaustive.total_cost.to_bits());
    }

    #[test]
    fn isolated_player_returns_empty_strategy() {
        let state = GameState::new(3);
        let view = PlayerView::build(&state, 0, 5);
        let d = max_best_response(&GameSpec::max(1.0, 5), &view, Mode::Exact);
        assert!(d.strategy_local.is_empty());
        assert_eq!(d.total_cost, 0.0);
    }

    #[test]
    fn star_leaf_keeps_quiet_for_expensive_edges() {
        let state = GameState::star_center_owned(10);
        let spec = GameSpec::max(3.0, 3);
        let view = PlayerView::build(&state, 4, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        // Leaf cost: 0 edges + ecc 2 = 2; nothing beats it at α=3.
        assert!(d.strategy_local.is_empty());
        assert!((d.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_cannot_improve() {
        let state = GameState::star_center_owned(10);
        let spec = GameSpec::max(2.0, 3);
        let view = PlayerView::build(&state, 0, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        assert!((d.total_cost - (9.0 * 2.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn path_end_buys_shortcut_when_cheap() {
        // Path 0-..-8; player 0 owns (0,1), k big. With α tiny she
        // should buy shortcuts and drop her eccentricity.
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); 9];
        for (i, sigma) in strategies.iter_mut().enumerate().take(8) {
            sigma.push((i + 1) as NodeId);
        }
        let state = GameState::from_strategies(9, strategies);
        let spec = GameSpec::max(0.1, 100);
        let view = PlayerView::build(&state, 0, spec.k);
        let d = max_best_response(&spec, &view, Mode::Exact);
        let current = current_total(&spec, &view);
        assert!(d.total_cost < current - 1.0, "expected a big improvement");
        assert!(d.strategy_local.len() >= 2);
    }

    #[test]
    fn greedy_never_beats_exact_and_never_worse_than_current() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for _ in 0..5 {
            let g = ncg_graph::generators::gnp_connected(20, 0.15, 100, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for alpha in [0.2, 1.0, 4.0] {
                let spec = GameSpec::max(alpha, 3);
                for u in 0..state.n() as NodeId {
                    let view = PlayerView::build(&state, u, spec.k);
                    let exact = max_best_response(&spec, &view, Mode::Exact);
                    let greedy = max_best_response(&spec, &view, Mode::Greedy);
                    let current = current_total(&spec, &view);
                    assert!(exact.total_cost <= greedy.total_cost + 1e-9);
                    assert!(greedy.total_cost <= current + 1e-9);
                }
            }
        }
    }

    #[test]
    fn full_knowledge_best_response_solves_larger_views() {
        // A 40-node connected G(n,p): the exact solver must handle the
        // full-view best response quickly (this is the paper's n=100+
        // regime scaled down for unit-test time).
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let g = ncg_graph::generators::gnp_connected(40, 0.1, 100, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(1.0, 1000);
        for u in 0..5 {
            let view = PlayerView::build(&state, u, spec.k);
            let d = max_best_response(&spec, &view, Mode::Exact);
            assert!(d.total_cost <= current_total(&spec, &view) + 1e-9);
        }
    }
}
