//! Worst-case deviation evaluation (Propositions 2.1 and 2.2).
//!
//! Player `u` contemplates switching from `σ_u` to `σ'_u ⊆ β(u,k)`.
//! The paper shows that the supremum in Eq. (3) over all realizable
//! networks is attained when the network *is* the view `H`, so the
//! deviation is judged on the modified view
//! `H' = H − (u × σ_u) + (u × σ'_u)`:
//!
//! * **MaxNCG** ([`evaluate_max`]): new usage = `ecc_{H'}(u)`; if `H'`
//!   disconnects any visible node the usage is `+∞`.
//! * **SumNCG** ([`evaluate_sum`]): a strategy that pushes a frontier
//!   vertex (distance exactly `k` in `H`) to distance `> k` in `H'` is
//!   *never* improving — an adversary may hang arbitrarily many
//!   invisible nodes behind it; otherwise new usage =
//!   `Σ_{v∈H} d_{H'}(u,v)`.
//!
//! The implementation never materialises `H'`: since every path from
//! `u` starts with one of her incident edges, `d_{H'}(u,v) = 1 +
//! min_{s ∈ σ'_u ∪ incoming(u)} d_{H∖u}(s,v)`, one multi-source BFS in
//! `H ∖ {u}` — the view's CSR read with the center skipped
//! ([`PlayerView::bfs_minus_center`]).

use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{NodeId, INFINITY};

use crate::{GameSpec, PlayerView};

/// Outcome of evaluating a candidate strategy in the worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviationEval {
    /// Finite usage cost in the worst-case network `H'`.
    Usage(u64),
    /// Some visible node becomes unreachable: usage `+∞`.
    Disconnecting,
    /// SumNCG only: a frontier vertex is pushed beyond distance `k`,
    /// so the worst-case cost difference of Eq. (3) is unbounded
    /// (Proposition 2.2) and the move is never improving.
    ForbiddenFrontier,
}

impl DeviationEval {
    /// The usage as an `Option` (`None` = effectively infinite).
    #[inline]
    pub fn usage(self) -> Option<u64> {
        match self {
            DeviationEval::Usage(u) => Some(u),
            _ => None,
        }
    }
}

/// Scratch space for deviation evaluation; reuse across calls (the
/// solver crate embeds one in its `SolverScratch` bundle so dynamics
/// rounds share it across every candidate evaluation).
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    buf: DistanceBuffer,
    sources: Vec<NodeId>,
}

impl EvalScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

fn multi_source_distances<'a>(
    view: &PlayerView,
    strategy_local: &[NodeId],
    scratch: &'a mut EvalScratch,
) -> &'a [u32] {
    debug_assert!(
        strategy_local.iter().all(|&v| v != view.center && (v as usize) < view.len()),
        "candidate strategy must name visible nodes other than the center"
    );
    scratch.sources.clear();
    scratch.sources.extend_from_slice(strategy_local);
    scratch.sources.extend_from_slice(&view.incoming);
    view.bfs_minus_center(&scratch.sources, &mut scratch.buf);
    scratch.buf.distances()
}

/// MaxNCG worst-case usage of playing `strategy_local` (local ids,
/// center excluded) from this view: `ecc_{H'}(center)`.
pub fn evaluate_max(
    view: &PlayerView,
    strategy_local: &[NodeId],
    scratch: &mut EvalScratch,
) -> DeviationEval {
    if view.len() == 1 {
        return DeviationEval::Usage(0);
    }
    let dist = multi_source_distances(view, strategy_local, scratch);
    let mut ecc = 0u64;
    for v in 0..view.len() as NodeId {
        if v == view.center {
            continue;
        }
        let d = dist[v as usize];
        if d == INFINITY {
            return DeviationEval::Disconnecting;
        }
        ecc = ecc.max(1 + d as u64);
    }
    DeviationEval::Usage(ecc)
}

/// Proposition 2.2 as a per-vertex constraint on *source* distances:
/// the largest `min_{s ∈ σ' ∪ incoming} d_{H∖u}(s, v)` a legal SumNCG
/// strategy may leave vertex `v` at.
///
/// Frontier vertices (distance exactly `k` in `H`) must stay within
/// distance `k` of the center, i.e. within `k − 1` of a source; every
/// other vertex merely has to stay reachable (`INFINITY − 1` accepts
/// any finite distance). A strategy is SumNCG-legal iff every
/// `v ≠ center` meets its limit — [`evaluate_sum`] applies the rule
/// per evaluation, and the `ncg-solver` sum engine prunes whole
/// subtrees with the *same* limits, so the two cannot drift.
#[inline]
pub fn sum_source_limit(view: &PlayerView, v: NodeId) -> u32 {
    if view.dist[v as usize] == view.k {
        view.k - 1
    } else {
        INFINITY - 1
    }
}

/// SumNCG worst-case usage of playing `strategy_local` from this view:
/// `Σ_{v∈H} d_{H'}(center, v)`, with the Proposition 2.2 frontier rule.
pub fn evaluate_sum(
    view: &PlayerView,
    strategy_local: &[NodeId],
    scratch: &mut EvalScratch,
) -> DeviationEval {
    if view.len() == 1 {
        return DeviationEval::Usage(0);
    }
    let dist = multi_source_distances(view, strategy_local, scratch);
    // Frontier rule first: it dominates plain disconnection because it
    // identifies moves whose Eq. (3) value is unbounded even when H'
    // stays connected.
    for v in 0..view.len() as NodeId {
        if v != view.center
            && view.dist[v as usize] == view.k
            && dist[v as usize] > sum_source_limit(view, v)
        {
            return DeviationEval::ForbiddenFrontier;
        }
    }
    let mut sum = 0u64;
    for v in 0..view.len() as NodeId {
        if v == view.center {
            continue;
        }
        let d = dist[v as usize];
        if d == INFINITY {
            return DeviationEval::Disconnecting;
        }
        sum += 1 + d as u64;
    }
    DeviationEval::Usage(sum)
}

/// Evaluates a candidate strategy under the spec's objective and
/// returns the player's **total** worst-case cost — the edge-cost
/// model's price of `σ'` plus the usage (`+∞` for disconnecting /
/// forbidden moves). Dispatches on the spec's objective
/// ([`Objective::evaluate`](crate::Objective::evaluate)); on the
/// default (uniform, Max/Sum) scenarios this is bit-identical to the
/// pre-scenario `α·|σ'| + usage`.
pub fn evaluate_total(
    spec: &GameSpec,
    view: &PlayerView,
    strategy_local: &[NodeId],
    scratch: &mut EvalScratch,
) -> f64 {
    let eval = spec.objective.evaluate(view, strategy_local, scratch);
    spec.priced_total(view, strategy_local, eval.usage())
}

/// The player's *current* total cost as she perceives it (usage
/// measured inside the view). This is the baseline a deviation must
/// strictly beat.
pub fn current_total(spec: &GameSpec, view: &PlayerView) -> f64 {
    let usage = spec.objective.current_usage(view);
    spec.priced_total(view, &view.purchases, Some(usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GameState;

    fn path_state(n: usize) -> GameState {
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, sigma) in strategies.iter_mut().enumerate().take(n - 1) {
            sigma.push((i + 1) as NodeId);
        }
        GameState::from_strategies(n, strategies)
    }

    #[test]
    fn replaying_current_strategy_reproduces_view_cost() {
        let s = GameState::cycle_successor(8);
        for u in 0..8 {
            for k in 1..=4 {
                let v = PlayerView::build(&s, u, k);
                let mut scratch = EvalScratch::new();
                let max = evaluate_max(&v, &v.purchases.clone(), &mut scratch);
                assert_eq!(max, DeviationEval::Usage(v.ecc_in_view() as u64), "u={u}, k={k}");
                let sum = evaluate_sum(&v, &v.purchases.clone(), &mut scratch);
                assert_eq!(sum, DeviationEval::Usage(v.status_in_view()), "u={u}, k={k}");
            }
        }
    }

    #[test]
    fn dropping_only_edge_disconnects() {
        // Path 0-1-2; player 0 owns (0,1). Dropping it disconnects her.
        let s = path_state(3);
        let v = PlayerView::build(&s, 0, 2);
        let mut scratch = EvalScratch::new();
        assert_eq!(evaluate_max(&v, &[], &mut scratch), DeviationEval::Disconnecting);
    }

    #[test]
    fn dropping_edge_owned_by_other_is_harmless() {
        // Path 0-1-2; player 1 owns (1,2) and *receives* (0,1).
        let s = path_state(3);
        let v = PlayerView::build(&s, 1, 2);
        let mut scratch = EvalScratch::new();
        // Playing the empty strategy still leaves the incoming edge
        // (0,1); node 2 becomes unreachable though.
        assert_eq!(evaluate_max(&v, &[], &mut scratch), DeviationEval::Disconnecting);
        // Buying only the far endpoint keeps everything reachable.
        let l2 = v.sub.to_local(2).unwrap();
        assert_eq!(evaluate_max(&v, &[l2], &mut scratch), DeviationEval::Usage(1));
    }

    #[test]
    fn buying_shortcut_reduces_eccentricity() {
        // Path of 7; center player 0 with k large sees everything.
        let s = path_state(7);
        let v = PlayerView::build(&s, 0, 100);
        let mut scratch = EvalScratch::new();
        // Current: buys edge to 1, ecc 6.
        assert_eq!(current_total(&GameSpec::max(1.0, 100), &v), 1.0 + 6.0);
        // Buy edges to 1 and 4: distances to 2,3 via 1 (2,3); to 4,5,6
        // via 4 (1,2,3) → ecc 3.
        let strat: Vec<NodeId> = vec![v.sub.to_local(1).unwrap(), v.sub.to_local(4).unwrap()];
        assert_eq!(evaluate_max(&v, &strat, &mut scratch), DeviationEval::Usage(3));
    }

    #[test]
    fn sum_frontier_rule_forbids_pushing_frontier_out() {
        // Path 0-1-2-3-4, player 2 at the middle, k = 2: frontier {0, 4}.
        let s = path_state(5);
        let v = PlayerView::build(&s, 2, 2);
        let mut scratch = EvalScratch::new();
        // Player 2 owns (2,3). Swapping it for an edge to 4 keeps 4 at
        // distance 1 and 3 at distance 2, but node 0's distance stays 2
        // (via the incoming edge from 1)… frontier fine → allowed.
        let l4 = v.sub.to_local(4).unwrap();
        let eval = evaluate_sum(&v, &[l4], &mut scratch);
        // New distances from 2: 1→1 (incoming), 0→2, 4→1, 3→2. Sum = 6.
        assert_eq!(eval, DeviationEval::Usage(6));

        // Player 0 at the end, k = 2: frontier {2}. Her only edge is
        // (0,1); replacing it with an edge to 2 keeps 2 at distance 1:
        // allowed. But dropping everything pushes the frontier to ∞.
        let v0 = PlayerView::build(&s, 0, 2);
        assert_eq!(evaluate_sum(&v0, &[], &mut scratch), DeviationEval::ForbiddenFrontier);
    }

    #[test]
    fn sum_frontier_rule_distinguishes_forbidden_from_disconnecting() {
        // Star with center 0 plus a pendant path 1-5 hanging off node 1:
        // 0 buys 1,2,3,4; 1 buys 5. Player 0 with k = 1 sees {0,1,2,3,4}
        // (5 is at distance 2). All of 1..4 are frontier (distance 1 = k).
        let s = GameState::from_strategies(
            6,
            vec![vec![1, 2, 3, 4], vec![5], vec![], vec![], vec![], vec![]],
        );
        let v = PlayerView::build(&s, 0, 1);
        assert_eq!(v.len(), 5);
        let mut scratch = EvalScratch::new();
        // Dropping node 4 from the purchases pushes frontier vertex 4
        // beyond k = 1 (it becomes unreachable in H'): forbidden.
        let strat: Vec<NodeId> = [1, 2, 3].iter().map(|&g| v.sub.to_local(g).unwrap()).collect();
        assert_eq!(evaluate_sum(&v, &strat, &mut scratch), DeviationEval::ForbiddenFrontier);
    }

    #[test]
    fn max_has_no_frontier_rule() {
        // Same star: dropping a frontier vertex under Max is merely
        // Disconnecting (infinite), not specially forbidden.
        let s =
            GameState::from_strategies(5, vec![vec![1, 2, 3, 4], vec![], vec![], vec![], vec![]]);
        let v = PlayerView::build(&s, 0, 1);
        let mut scratch = EvalScratch::new();
        let strat: Vec<NodeId> = [1, 2, 3].iter().map(|&g| v.sub.to_local(g).unwrap()).collect();
        assert_eq!(evaluate_max(&v, &strat, &mut scratch), DeviationEval::Disconnecting);
    }

    #[test]
    fn evaluate_total_dispatches_and_prices() {
        let s = GameState::cycle_successor(6);
        let v = PlayerView::build(&s, 0, 3);
        let mut scratch = EvalScratch::new();
        let spec_max = GameSpec::max(2.0, 3);
        let spec_sum = GameSpec::sum(2.0, 3);
        let cur = v.purchases.clone();
        let t_max = evaluate_total(&spec_max, &v, &cur, &mut scratch);
        let t_sum = evaluate_total(&spec_sum, &v, &cur, &mut scratch);
        assert!((t_max - (2.0 + 3.0)).abs() < 1e-9);
        // 6-cycle distances from 0: 1,2,3,2,1 → status 9.
        assert!((t_sum - (2.0 + 9.0)).abs() < 1e-9);
        assert_eq!(current_total(&spec_max, &v), t_max);
        assert_eq!(current_total(&spec_sum, &v), t_sum);
    }

    #[test]
    fn isolated_player_has_zero_usage() {
        let s = GameState::new(2);
        let v = PlayerView::build(&s, 0, 3);
        let mut scratch = EvalScratch::new();
        assert_eq!(evaluate_max(&v, &[], &mut scratch), DeviationEval::Usage(0));
        assert_eq!(evaluate_sum(&v, &[], &mut scratch), DeviationEval::Usage(0));
    }

    #[test]
    fn deviation_eval_usage_accessor() {
        assert_eq!(DeviationEval::Usage(5).usage(), Some(5));
        assert_eq!(DeviationEval::Disconnecting.usage(), None);
        assert_eq!(DeviationEval::ForbiddenFrontier.usage(), None);
    }
}
