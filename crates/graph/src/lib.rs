//! # ncg-graph — graph substrate for locality-based network creation games
//!
//! This crate provides the graph machinery that every other crate in the
//! `ncg` workspace builds on:
//!
//! * [`Graph`] — a compact, allocation-conscious undirected simple graph
//!   with sorted adjacency lists and `u32` node identifiers.
//! * [`bfs`] — the one breadth-first search kernel, with caller-provided
//!   scratch buffers so the hot path allocates nothing per call and a
//!   bounded run costs what it visits, not `O(n)`.
//! * [`batch`] — the benchmark ledger's ball-sweep names, a thin shim
//!   over [`bfs`] kept only until the next change to the benchmark.
//! * [`metrics`] — eccentricity, diameter, radius, girth, connectivity,
//!   with rayon-parallel all-pairs variants.
//! * [`view`] — radius-`k` balls, induced subgraphs with node mappings
//!   (the *views* of the locality-based game), and graph powers.
//! * [`generators`] — uniform random trees (Prüfer sequences),
//!   Erdős–Rényi `G(n,p)`, high-girth quasi-regular graphs, and the
//!   classic deterministic families (cycle, path, star, clique, grid).
//! * [`dot`] — Graphviz DOT export for debugging and figure generation.
//!
//! The crate is deliberately free of game semantics: ownership of edges,
//! costs and equilibria live in `ncg-core`.
//!
//! ## Example
//!
//! ```
//! use ncg_graph::{Graph, metrics};
//!
//! let g = ncg_graph::generators::cycle(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! assert_eq!(metrics::diameter(&g), Some(4));
//! assert_eq!(metrics::girth(&g), Some(8));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bfs;
pub mod csr;
pub mod dot;
mod error;
pub mod generators;
mod graph;
pub mod metrics;
pub mod view;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use graph::{Graph, NodeId};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::bfs::DistanceBuffer;
    pub use crate::generators;
    pub use crate::metrics;
    pub use crate::view::{ball, induced_subgraph, power, Subgraph};
    pub use crate::{Graph, GraphError, NodeId};
}

/// Sentinel distance denoting "unreachable" in BFS outputs.
///
/// Chosen as `u32::MAX` so that saturating arithmetic keeps unreachable
/// vertices unreachable and comparisons order it after every real
/// distance.
pub const INFINITY: u32 = u32::MAX;
