//! The million-node scale tier: approximate dynamics on flat state.
//!
//! The exact tier (crate root) keeps a `GameState` of per-player
//! vectors and solves every dirty player's view exactly — faithful to
//! the paper, but it caps the tier around `n ≈ 10^5`. This module
//! trades *none of the cost semantics* and *some of the search
//! breadth* for three orders of magnitude: flat structure-of-arrays
//! state ([`ScaleState`]), a greedy responder ([`respond`]: candidate
//! narrowing in front of `ncg_solver`'s greedy climb, the exact tier's
//! `hill_climb`), and simultaneous rounds with deterministic conflict
//! resolution ([`run_scale`]). The view is the exact tier's: each
//! worker rebuilds one [`PlayerView`](ncg_core::PlayerView) slot per
//! priced player with the same builder, so both tiers price on the
//! same input. See DESIGN.md §13 for the layout, the
//! conflict-resolution rule, and the approximation contract.
//!
//! Every move the tier applies is *provably* strictly improving under
//! the same worst-case deviation semantics as the exact tier
//! (Propositions 2.1/2.2); approximation only narrows which moves are
//! found, never their pricing. Artifacts are byte-identical for any
//! `NCG_THREADS` — enforced by the CI `scale` lane.

mod responder;
mod runner;
mod state;

pub use responder::{respond, ScaleMove, ScaleScratch};
pub use runner::{
    run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleRoundStats, ScaleRunResult, ViewSample,
};
pub use state::{ApplyScratch, ScaleState};
