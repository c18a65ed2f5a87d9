//! Greedy best response for the million-node tier: candidate
//! narrowing in front of `ncg_solver`'s climb.
//!
//! The exact tier answers "what should player `u` do?" by running an
//! exact engine over her [`PlayerView`]. This responder reads the same
//! view — the scale runner rebuilds it per player in one slot per
//! worker with [`PlayerView::rebuild`], as the exact tier's view cache
//! does — and runs the workspace's one greedy climb on it
//! ([`ncg_solver::climb::climb`], the climb behind
//! [`ncg_solver::front::hill_climb`]). It only chooses what the climb
//! may add and how long it may run.
//!
//! **Approximation contract.** On views with at most 64 candidates
//! every candidate is a possible new endpoint; on larger views only
//! the 4 farthest ball nodes (ties towards smaller id) are — the nodes
//! a shortcut helps most. The climb stops after 8 steps, where
//! `hill_climb` allows `4·max(len, 4)`. Every *returned* move is
//! still scored exactly: costs come from the same worst-case deviation
//! semantics as [`ncg_core::deviation`] (Propositions 2.1/2.2 of the
//! paper), so a move is only proposed when it is **provably** strictly
//! improving; approximation can only cause a missed improvement, never
//! a false one.

use ncg_core::{GameSpec, MoveRulePolicy, PlayerView};
use ncg_graph::NodeId;
use ncg_solver::climb::{climb, ClimbScratch};

/// Views with at most this many candidates climb over all of them.
const EXHAUSTIVE_CANDIDATES: usize = 64;

/// On larger views, the number of add endpoints: the farthest ball
/// nodes, ties towards smaller id.
const FARTHEST_CANDIDATES: usize = 4;

/// Cap on steepest-descent steps per response (each step strictly
/// decreases the cost, so this bounds work, not correctness).
const MAX_STEPS: usize = 8;

/// A strictly improving strategy rewrite found by [`respond`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMove {
    /// The moving player.
    pub player: NodeId,
    /// Replacement strategy in global ids, sorted ascending.
    pub strategy: Vec<NodeId>,
    /// Exact total cost of the player's current strategy.
    pub old_cost: f64,
    /// Exact total cost of [`Self::strategy`] (strictly lower).
    pub new_cost: f64,
}

/// Reusable buffers for [`respond`]: the narrowed candidate list and
/// the climb's scratch. The view itself lives in the caller's slot.
/// One instance per worker thread; allocation-free once warm except
/// for the climb's returned strategy.
#[derive(Debug, Clone, Default)]
pub struct ScaleScratch {
    candidates: Vec<NodeId>,
    farthest: Vec<(u32, NodeId)>,
    climb: ClimbScratch,
}

impl ScaleScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The climb's add endpoints: every candidate up to
/// [`EXHAUSTIVE_CANDIDATES`], else the [`FARTHEST_CANDIDATES`]
/// farthest, sorted by local id.
fn narrow(view: &PlayerView, scratch: &mut ScaleScratch) {
    let ScaleScratch { candidates, farthest, .. } = scratch;
    candidates.clear();
    if view.candidate_count() <= EXHAUSTIVE_CANDIDATES {
        candidates.extend(view.candidates_iter());
        return;
    }
    farthest.clear();
    for v in view.candidates_iter() {
        let d = view.dist[v as usize];
        let pos = farthest.partition_point(|&(pd, pv)| pd > d || (pd == d && pv < v));
        if pos < FARTHEST_CANDIDATES {
            farthest.insert(pos, (d, v));
            farthest.truncate(FARTHEST_CANDIDATES);
        }
    }
    candidates.extend(farthest.iter().map(|&(_, v)| v));
    candidates.sort_unstable();
}

/// Greedy best response of the view's player, on her view as
/// [`PlayerView::rebuild`] builds it at radius `spec.k`. Returns a
/// strictly improving move with exact old/new costs, or `None` when
/// the climb finds nothing better than the current strategy.
///
/// Only the paper's base scenario is supported (uniform edge cost,
/// any-subset moves) — asserted: the scale tier runs no other.
pub fn respond(
    spec: &GameSpec,
    view: &PlayerView,
    scratch: &mut ScaleScratch,
) -> Option<ScaleMove> {
    assert!(
        spec.edge_cost.is_uniform() && spec.move_rule == MoveRulePolicy::AnySubset,
        "scale responder supports the uniform any-subset scenario only"
    );
    debug_assert_eq!(view.k, spec.k, "the view's radius must be the game's");
    if view.is_empty() {
        // An isolated player has no purchases and no candidates.
        return None;
    }
    narrow(view, scratch);
    let (old_cost, best) = climb(spec, view, &scratch.candidates, MAX_STEPS, &mut scratch.climb);
    if best.strategy_local == view.purchases {
        return None;
    }
    debug_assert!(GameSpec::strictly_better(best.total_cost, old_cost));
    Some(ScaleMove {
        player: view.center_global,
        strategy: best.strategy_local.iter().map(|&l| view.sub.to_global(l)).collect(),
        old_cost,
        new_cost: best.total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleState;
    use ncg_core::deviation::{current_total, evaluate_total, EvalScratch};
    use ncg_core::GameState;
    use ncg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Runs the responder for `u` on her view of the flat state and
    /// cross-checks every claimed cost against the exact tier's
    /// evaluator on her view of `gs`.
    fn respond_checked(gs: &GameState, spec: &GameSpec, u: NodeId) -> Option<ScaleMove> {
        let ss = ScaleState::from_game_state(gs);
        let mv = respond(spec, &PlayerView::build(&ss, u, spec.k), &mut ScaleScratch::new());
        let view = PlayerView::build(gs, u, spec.k);
        let current = current_total(spec, &view);
        if let Some(mv) = &mv {
            assert_eq!(mv.old_cost.to_bits(), current.to_bits(), "old cost disagrees with view");
            let local: Vec<NodeId> = mv
                .strategy
                .iter()
                .map(|&g| view.sub.to_local(g).expect("move target must be in the ball"))
                .collect();
            let exact = evaluate_total(spec, &view, &local, &mut EvalScratch::new());
            assert_eq!(mv.new_cost.to_bits(), exact.to_bits(), "new cost disagrees with view");
            assert!(GameSpec::strictly_better(mv.new_cost, mv.old_cost));
        }
        mv
    }

    #[test]
    fn path_endpoint_shortcuts_like_the_exact_tier() {
        // Successor-buying path: the tail player can cut its
        // eccentricity by rewiring when edges are cheap.
        let n = 8;
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        let gs = GameState::from_strategies(n, strategies);
        let spec = GameSpec::max(0.5, 3);
        let mv = respond_checked(&gs, &spec, 0);
        assert!(mv.is_some(), "cheap edges must tempt the path head");
    }

    #[test]
    fn equilibrium_player_stands_pat() {
        // On a complete-ish clique with expensive edges, dropping all
        // purchases disconnects and single moves don't pay.
        let gs = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let spec = GameSpec::max(0.9, 2);
        // Triangle, α < 1: every player already has eccentricity 1.
        assert!(respond_checked(&gs, &spec, 0).is_none());
    }

    #[test]
    fn truncated_candidates_still_score_exactly() {
        // Full views of a 100-node tree: 99 candidates, past
        // EXHAUSTIVE_CANDIDATES, so only the farthest few are tried.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let tree = generators::random_tree(100, &mut rng);
        let gs = GameState::from_graph_random_ownership(&tree, &mut rng);
        for spec in [GameSpec::max(0.5, 1000), GameSpec::sum(1.0, 1000)] {
            assert!(PlayerView::build(&gs, 0, spec.k).candidate_count() > EXHAUSTIVE_CANDIDATES);
            let moves = (0..100).filter_map(|u| respond_checked(&gs, &spec, u)).count();
            assert!(moves > 0, "{:?}: some player must improve", spec.objective);
        }
    }
}
