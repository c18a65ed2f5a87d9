//! The million-node scale tier: CSR-native approximate dynamics.
//!
//! The exact tier (crate root) prices every candidate deviation
//! through materialised [`PlayerView`](ncg_core::PlayerView) graphs —
//! faithful to the paper but `O(n)` allocations per round, which caps
//! it around `n ≈ 10^5`. This module trades *none of the cost
//! semantics* and *some of the search breadth* for three orders of
//! magnitude: flat structure-of-arrays state ([`ScaleState`]), a
//! greedy responder working directly on distance arrays
//! ([`respond`]), and simultaneous rounds with deterministic conflict
//! resolution ([`run_scale`]). See DESIGN.md §13 for the layout, the
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

pub use responder::{respond, ScaleMove, ScaleResponderConfig, ScaleScratch};
pub use runner::{
    run_scale, RoundMode, ScaleArena, ScaleConfig, ScaleRoundStats, ScaleRunResult, ViewSample,
};
pub use state::{ApplyScratch, ScaleState};
