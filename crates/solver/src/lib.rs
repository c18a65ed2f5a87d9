//! # ncg-solver — best-response engines
//!
//! The computational heart of the reproduction: exact and greedy best
//! responses for both game variants, built on a constrained minimum
//! dominating set branch-and-bound (our replacement for the paper's
//! Gurobi ILP, Section 5.3 — see the workspace DESIGN.md §4 for the
//! substitution argument).
//!
//! * [`dominating`] — the one-shot instance type + greedy set-cover
//!   baseline.
//! * [`engine`] — the persistent, incremental
//!   [`DominationEngine`](engine::DominationEngine): grows coverage
//!   across eccentricity guesses instead of rebuilding, and owns every
//!   scratch buffer of the branch-and-bound.
//! * [`max_br`] — MaxNCG best response via eccentricity guessing +
//!   domination of powers of `H ∖ {u}`, driving one engine per view.
//! * [`sum_br`] / [`sum_engine`] — SumNCG best response: an exact
//!   include/exclude branch-and-bound over candidate purchases
//!   (admissible residual-improvement bounds, DESIGN.md §9) with the
//!   greedy climb as the ablation arm. The paper's experiments
//!   avoid SumNCG for its hardness; our exact path handles the
//!   ~100-node full-knowledge views of the dynamics.
//! * [`front`] — the generic best-response front: one entry point
//!   dispatching every model-zoo cell (objective × edge cost × move
//!   rule × mode) to the right engine — the exact Max/Sum engines on
//!   their uniform subset-move home turf, exact swap-neighbourhood
//!   enumeration for swap games, enumeration-or-hill-climb for
//!   non-uniform pricing.
//! * [`climb`] — the workspace's one greedy best response: a
//!   steepest-descent add/drop/swap climb priced from distance tables
//!   in `O(ball)` per trial, for any edge-cost model. The front's
//!   [`hill_climb`](front::hill_climb) runs it over every candidate;
//!   the scale tier's responder over a narrowed list.
//! * [`SolverScratch`] — the reusable allocation bundle (evaluation
//!   buffers, the reduction's ring growth, the engines) threaded
//!   through the `*_with` entry points; hold one per thread or
//!   long-lived computation.
//! * [`Responder`] — a [`ncg_core::equilibrium::BestResponder`]
//!   dispatching through [`front`], in [`Mode::Exact`] or
//!   [`Mode::Greedy`] (the ablation axis). Owns a [`SolverScratch`],
//!   so a responder held across a dynamics run reuses all solver
//!   state from round to round.
//!
//! Every solve runs on the calling thread. The crate's one use of the
//! work-stealing pool is [`is_lke`], which certifies groups of 64
//! players in parallel; the callers above it split independent work
//! (sweep repetitions, the scale tier's windows), never one solve
//! (DESIGN.md §8).
//!
//! ## Example
//!
//! ```
//! use ncg_core::{GameSpec, GameState};
//! use ncg_solver::{is_lke, Responder};
//!
//! // Lemma 3.1: the n-cycle is an LKE for MaxNCG whenever α ≥ k − 1.
//! let state = GameState::cycle_successor(16);
//! assert!(is_lke(&state, &GameSpec::max(3.0, 2)));
//! // …and with cheap edges + a wide view it no longer is.
//! assert!(!is_lke(&state, &GameSpec::max(0.1, 8)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod bound;
pub mod climb;
pub mod dominating;
pub mod engine;
pub mod front;
pub mod max_br;
pub mod sum_br;
pub mod sum_engine;

use ncg_core::deviation::EvalScratch;
use ncg_core::equilibrium::{BestResponder, Deviation};
use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_graph::NodeId;
use rayon::prelude::*;

/// Search effort: exact optimisation or the greedy/heuristic variant
/// (the ablation axis of the benchmark suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Exact best responses (B&B dominating sets / exhaustive search).
    #[default]
    Exact,
    /// Greedy dominating sets / hill climbing.
    Greedy,
}

/// Reusable allocation bundle for the best-response engines: the
/// deviation-evaluation scratch, the greedy climb's
/// [`ClimbScratch`](climb::ClimbScratch), the reduction's ring growth
/// ([`max_br::RingGrowth`]: adjacency and ring bitsets of `H ∖ {u}`),
/// the incremental [`DominationEngine`](engine::DominationEngine), the
/// [`SumEngine`](sum_engine::SumEngine) and the Sum response's split
/// of a view into the components of `H ∖ {u}` (one sub-view slot).
///
/// One scratch per thread (or per long-lived computation); thread it
/// through [`max_br::max_best_response_with`] /
/// [`sum_br::sum_best_response_with`]. Every buffer keeps its storage
/// across views of any size, so after warm-up a call allocates little
/// beyond the strategies it returns, plus storage for a view larger
/// than any seen before. Measured means are 0.9–1.6 allocations per
/// call on radius-2 views of a random 200-node tree, 2.6–4.6 on full
/// views of a G(70, 0.15), 0.8–1.0 for the Sum engine on a 30-node
/// tree, 0.9 for it on the radius-2 views of a 1,200-node high-girth
/// gadget, each solved component by component, and 1.0 for the greedy
/// Sum climb on the one- to three-word radius-2 views of a sparse
/// G(2000, 10/n); `tests/scratch_allocations.rs` holds them to at most
/// 2, 6, 3, 2 and 1. The plain `max_best_response` /
/// `sum_best_response` entry points create a throwaway scratch per
/// call.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    pub(crate) eval: EvalScratch,
    pub(crate) climb: climb::ClimbScratch,
    pub(crate) rings: max_br::RingGrowth,
    pub(crate) engine: engine::DominationEngine,
    pub(crate) sum: sum_engine::SumEngine,
    pub(crate) split: sum_br::Split,
}

impl SolverScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The workspace's standard [`BestResponder`]: dispatches on the
/// spec's objective and the configured [`Mode`].
///
/// Owns a [`SolverScratch`], so holding one responder across many
/// best-response calls (a dynamics run, an LKE certification sweep)
/// reuses every solver allocation between calls.
#[derive(Debug, Clone, Default)]
pub struct Responder {
    /// Search effort.
    pub mode: Mode,
    scratch: SolverScratch,
}

impl Responder {
    /// A responder with the given search effort.
    pub fn new(mode: Mode) -> Self {
        Responder { mode, scratch: SolverScratch::new() }
    }

    /// An exact responder.
    pub fn exact() -> Self {
        Self::new(Mode::Exact)
    }

    /// A greedy responder.
    pub fn greedy() -> Self {
        Self::new(Mode::Greedy)
    }
}

impl BestResponder for Responder {
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        front::best_response_with(spec, view, self.mode, &mut self.scratch)
    }
}

/// Players per pool task of [`is_lke`]: enough to amortise a task's
/// hand-off, few enough that the first violation stops the sweep soon.
const LKE_GROUP: usize = 64;

/// Exact LKE check: `n` exact best responses, one per player.
///
/// Exact in both directions for both objectives: MaxNCG solves run
/// the domination branch-and-bound, SumNCG solves the include/exclude
/// branch-and-bound of [`sum_engine::SumEngine`], so a `true` here is
/// a genuine equilibrium certificate for any view size.
///
/// Each pool task certifies 64 consecutive players, one view slot
/// rebuilt in place per player ([`PlayerView::rebuild`]): one
/// radius-`k` BFS on the state's graph finds the ball, and its
/// distances are the view's. That BFS costs the ball, not `n`, so the
/// sweep is `O(Σ balls)` before the solves. Each worker keeps its
/// [`Responder`], view scratch and view slot across all the groups it
/// steals. The per-player verdicts are independent, so the answer does
/// not depend on the schedule; the first violation found stops the
/// remaining players' solves. Inside a pool worker (a sweep
/// repetition) the groups run inline, so nested calls never
/// over-subscribe the machine.
pub fn is_lke(state: &GameState, spec: &GameSpec) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    let violated = AtomicBool::new(false);
    let n = state.n() as NodeId;
    let starts: Vec<NodeId> = (0..n).step_by(LKE_GROUP).collect();
    let _: Vec<()> = starts
        .into_par_iter()
        .map_init(
            || (Responder::exact(), ViewScratch::new(), PlayerView::default()),
            |(responder, vscratch, view), lo| {
                for u in lo..(lo + LKE_GROUP as NodeId).min(n) {
                    if violated.load(Ordering::Relaxed) {
                        return;
                    }
                    view.rebuild(state, u, spec.k, vscratch);
                    let current = ncg_core::deviation::current_total(spec, view);
                    let best = responder.best_response(spec, view);
                    if GameSpec::strictly_better(best.total_cost, current) {
                        violated.store(true, Ordering::Relaxed);
                    }
                }
            },
        )
        .collect();
    !violated.load(Ordering::Relaxed)
}

/// The former name of [`is_lke`], kept because the benchmark ledger
/// (`ledger/`, which changes only together with the benchmark) still
/// calls it.
pub use self::is_lke as is_lke_par;

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference certifier: one scalar view build and one exact best
    /// response per player, in id order, stopping at the first
    /// improving player.
    fn per_player_oracle(state: &GameState, spec: &GameSpec) -> bool {
        let mut responder = Responder::exact();
        (0..state.n() as NodeId).all(|u| {
            let view = PlayerView::build(state, u, spec.k);
            let current = ncg_core::deviation::current_total(spec, &view);
            !GameSpec::strictly_better(responder.best_response(spec, &view).total_cost, current)
        })
    }

    /// The 70-cycle with player 69 also buying an edge to 67: every
    /// improving player sits in the second player group.
    fn late_group_instance() -> GameState {
        let mut state = GameState::cycle_successor(70);
        state.set_strategy(69, vec![0, 67]);
        state
    }

    #[test]
    fn responder_dispatches_both_objectives() {
        let state = GameState::cycle_successor(8);
        let mut r = Responder::exact();
        for spec in [GameSpec::max(1.0, 2), GameSpec::sum(1.0, 2)] {
            let view = PlayerView::build(&state, 0, spec.k);
            let d = r.best_response(&spec, &view);
            assert!(d.total_cost.is_finite());
        }
    }

    #[test]
    fn lemma_31_cycle_certification() {
        // α ≥ k − 1 ⇒ LKE; generous margins on both sides.
        assert!(is_lke(&GameState::cycle_successor(20), &GameSpec::max(2.0, 3)));
        assert!(is_lke(&GameState::cycle_successor(30), &GameSpec::max(9.0, 8)));
        assert!(!is_lke(&GameState::cycle_successor(20), &GameSpec::max(0.05, 9)));
    }

    #[test]
    fn star_is_stable_for_both_objectives() {
        let state = GameState::star_center_owned(12);
        assert!(is_lke(&state, &GameSpec::max(2.0, 4)));
        assert!(is_lke(&state, &GameSpec::sum(2.0, 4)));
    }

    #[test]
    fn batched_certification_matches_the_scalar_path() {
        // `is_lke` (and its `is_lke_par` alias) must agree with the
        // per-player loop of fresh views on positive and negative
        // instances, both objectives, including >64-player states
        // (several player groups, one partial, reusing a worker's view
        // slot) and one whose verdict only the second group can decide.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(52);
        let mut states = vec![
            GameState::cycle_successor(70),
            GameState::star_center_owned(66),
            GameState::cycle_successor(12),
            late_group_instance(),
        ];
        let tree = ncg_graph::generators::random_tree(30, &mut rng);
        states.push(GameState::from_graph_random_ownership(&tree, &mut rng));
        for (i, state) in states.iter().enumerate() {
            for spec in [
                GameSpec::max(2.0, 2),
                GameSpec::max(0.1, 4),
                GameSpec::sum(2.0, 2),
                GameSpec::sum(2.0, 3),
                GameSpec::sum(0.4, 3),
            ] {
                let oracle = per_player_oracle(state, &spec);
                let tag = format!("state {i}, {:?} α={} k={}", spec.objective, spec.alpha, spec.k);
                assert_eq!(is_lke(state, &spec), oracle, "is_lke verdict ({tag})");
                assert_eq!(is_lke_par(state, &spec), oracle, "is_lke_par verdict ({tag})");
            }
        }
    }

    #[test]
    fn a_later_lane_group_decides_the_verdict() {
        // Every player of the first player group (ids 0..64) is stable,
        // so only the group holding 64..70 can refute the profile.
        use ncg_core::equilibrium::best_response_exhaustive;
        let state = late_group_instance();
        for (spec, expected) in
            [(GameSpec::max(2.0, 2), vec![67, 68, 69]), (GameSpec::sum(2.0, 2), vec![67])]
        {
            let improving: Vec<NodeId> = (0..state.n() as NodeId)
                .filter(|&u| {
                    let view = PlayerView::build(&state, u, spec.k);
                    let best = best_response_exhaustive(&spec, &view).unwrap();
                    let current = ncg_core::deviation::current_total(&spec, &view);
                    GameSpec::strictly_better(best.total_cost, current)
                })
                .collect();
            assert_eq!(improving, expected, "{:?}", spec.objective);
            assert!(!is_lke(&state, &spec), "{:?}", spec.objective);
        }
    }

    #[test]
    fn sum_lke_certifies_positively_beyond_the_enumeration_cap() {
        // 29 candidates per full view — past both the old 14-candidate
        // sum cap and core's EXHAUSTIVE_CAP, so this `true` is the
        // branch-and-bound's positive certificate, not enumeration's.
        // With cheap edges the center finds real improvements and the
        // certificate flips.
        let state = GameState::star_center_owned(30);
        assert!(is_lke(&state, &GameSpec::sum(2.0, 4)));
        assert!(is_lke_par(&state, &GameSpec::sum(2.0, 4)));
        assert!(!is_lke(&state, &GameSpec::sum(0.5, 4)));
    }
}
