//! # ncg-dynamics — best-response dynamics (Section 5.1 of the paper)
//!
//! Simulates the iterated locality-based game exactly as the paper's
//! experiments do:
//!
//! > *"The players play in turns, following a round-robin policy […]
//! > we compute a best-response strategy according to her local
//! > knowledge of the network, and whenever this strategy is strictly
//! > better than the current one we update the network. […] We
//! > continue until we attain an equilibrium […] we check if the last
//! > strategy profile of the current round already appeared as the
//! > last strategy profile of any previous round"*
//!
//! — in which case the dynamics cycles and no equilibrium will ever
//! be reached.
//!
//! * [`run`] — one dynamics from a given initial
//!   [`GameState`](ncg_core::GameState); deterministic (round-robin
//!   order, deterministic solver). Incremental: a [`ViewCache`] marks
//!   dirty the players whose radius-`k` ball a move can have changed
//!   and skips the rest (see DESIGN.md §6); outcomes are bit-identical
//!   to rebuilding every view and re-solving every player each round.
//! * [`run_many`] — rayon-parallel batch over independent initial
//!   states, results in input order.
//! * [`run_with_cache`] — warm-started variant: a [`CacheArena`]
//!   (one [`ViewCache`] + one solver responder) carried across
//!   consecutive runs reuses every allocation; outcomes stay
//!   bit-identical to cold runs. The experiments sweep engine keeps
//!   one arena per repetition across all `(α, k)` cells.
//! * [`StateMetrics`] — the per-network statistics the paper collects
//!   after every round (diameter, social cost, degrees, bought edges,
//!   view sizes, fairness).
//! * [`scale`] — the million-node tier: flat structure-of-arrays
//!   state, a greedy responder (the exact tier's greedy climb over
//!   narrowed candidates), and simultaneous rounds with deterministic
//!   conflict resolution (approximate responders, exact pricing; see
//!   DESIGN.md §13).
//! * [`CycleDetector`] — the one cycle detector of both tiers: an
//!   incremental profile fingerprint whose hits are verified exactly
//!   against a journal of accepted moves.
//!
//! ## Example
//!
//! ```
//! use ncg_core::{GameSpec, GameState};
//! use ncg_dynamics::{run, DynamicsConfig, Outcome};
//!
//! let initial = GameState::cycle_successor(10);
//! let config = DynamicsConfig::new(GameSpec::max(1.0, 3));
//! let result = run(initial, &config);
//! assert!(matches!(result.outcome, Outcome::Converged { .. }));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod fingerprint;
mod metrics;
mod runner;
pub mod scale;
mod trace;
mod view_cache;

pub use fingerprint::CycleDetector;
pub use metrics::{MeasureScratch, StateMetrics};
pub use runner::{
    run, run_many, run_with, run_with_cache, CacheArena, DynamicsConfig, Outcome, RunResult,
};
pub use trace::{MoveEvent, Trace};
pub use view_cache::{CacheStats, ViewCache};
