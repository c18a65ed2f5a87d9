//! # ncg-core — the locality-based network creation game
//!
//! This crate implements the primary contribution of
//!
//! > Bilò, Gualà, Leucci, Proietti. *Locality-based Network Creation
//! > Games.* SPAA 2014 / ACM TOPC 3(1), 2016.
//!
//! `n` players sit on the nodes of an undirected graph. Player `u`'s
//! strategy `σ_u` is the set of nodes she buys edges to; the played
//! graph `G(σ)` has an edge `(u,v)` iff `v ∈ σ_u` or `u ∈ σ_v`. Her
//! cost is
//!
//! * **MaxNCG**: `α·|σ_u| + ecc_{G(σ)}(u)` (Eq. (2) of the paper), or
//! * **SumNCG**: `α·|σ_u| + Σ_v d_{G(σ)}(u, v)` (Eq. (1)).
//!
//! In the *locality-based* model each player only knows her radius-`k`
//! **view** — the subgraph induced by her distance-`≤ k` ball — does
//! not know `n`, and evaluates deviations against the worst realizable
//! network consistent with that view (Eq. (3)). Propositions 2.1 and
//! 2.2 of the paper reduce this to computations *inside the view*:
//!
//! * MaxNCG: the worst case network is the view itself, so a deviation
//!   is judged by its cost in the modified view `H'`
//!   ([`deviation::evaluate_max`]).
//! * SumNCG: ditto, except that any deviation pushing a *frontier*
//!   vertex (distance exactly `k`) beyond distance `k` is never
//!   improving ([`deviation::evaluate_sum`]).
//!
//! A profile where no player has an improving deviation is a **Local
//! Knowledge Equilibrium** ([`equilibrium`]); with `k ≥ diam(G)` this
//! coincides with Nash equilibrium.
//!
//! ## Example
//!
//! ```
//! use ncg_core::{GameSpec, GameState};
//! use ncg_core::equilibrium::is_lke_exhaustive;
//!
//! // A 6-cycle where each player buys the edge to her successor
//! // (Lemma 3.1 of the paper: an LKE whenever α ≥ k − 1).
//! let state = GameState::cycle_successor(6);
//! let spec = GameSpec::max(2.0, 1);
//! assert!(is_lke_exhaustive(&state, &spec).unwrap());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod deviation;
pub mod dot;
pub mod equilibrium;
pub mod scenario;
pub mod social;
mod spec;
mod state;
pub mod view;

pub use scenario::{EdgeCostModel, MoveRulePolicy, Scenario};
pub use spec::{GameSpec, Objective, EPS};
pub use state::{EdgeDiff, GameState};
pub use view::{PlayerView, RowScratch, ViewScratch, ViewSource};

/// Re-exported graph substrate, so downstream crates can name graph
/// types without an explicit `ncg-graph` dependency.
pub use ncg_graph as graph;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::deviation::{self, DeviationEval};
    pub use crate::equilibrium::{self, BestResponder, Deviation};
    pub use crate::social;
    pub use crate::view::{PlayerView, ViewScratch};
    pub use crate::{
        EdgeCostModel, EdgeDiff, GameSpec, GameState, MoveRulePolicy, Objective, Scenario, EPS,
    };
    pub use ncg_graph::prelude::*;
}
