//! Flat structure-of-arrays game state for the million-node tier.
//!
//! [`GameState`](ncg_core::GameState) stores one `Vec<NodeId>` per
//! player plus an adjacency `Graph` of per-node `Vec`s — `2n + 1`
//! allocations and pointer-chasing that caps the exact tier around
//! `n ≈ 10^5`. [`ScaleState`] keeps the same information in four flat
//! arrays: a strategy CSR (`strat_offsets`/`strat_targets`, row `u` =
//! `σ_u` sorted ascending) and a [`CsrGraph`] of the induced network,
//! rebuilt wholesale from the strategy rows after every round with the
//! counting-sort builder ([`CsrGraph::rebuild_from_edges`]). Rebuild
//! is `O(n + m)` with zero steady-state allocation — cheaper than
//! patching per-node `Vec`s once thousands of players move per round.
//!
//! Ownership queries (`owns`, `incoming_into`) binary-search the
//! strategy rows exactly like the exact tier, so the two tiers agree
//! on every ownership-dependent quantity. [`ScaleState`] is a
//! [`ViewSource`]: the scale runner builds its players' views with the
//! exact tier's [`PlayerView::rebuild`](ncg_core::PlayerView::rebuild).

use ncg_core::{GameState, ViewSource};
use ncg_graph::{CsrGraph, NodeId};

/// Reusable buffers for [`ScaleState::apply_moves`]: the next round's
/// strategy CSR is written into these and swapped in, so repeated
/// rounds ping-pong between two allocations instead of growing fresh
/// ones.
#[derive(Debug, Clone, Default)]
pub struct ApplyScratch {
    new_offsets: Vec<u32>,
    new_targets: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
}

/// Strategy profile + induced network in structure-of-arrays layout.
///
/// Invariants (checked by [`ScaleState::validate`], maintained by all
/// constructors and [`ScaleState::apply_moves`]):
/// * strategy row `u` is sorted ascending, duplicate-free, in range,
///   and never contains `u` itself;
/// * `graph` is exactly the network induced by the strategy rows
///   (union of `{u, v}` for `v ∈ σ_u`, deduplicated across
///   double-buys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleState {
    n: usize,
    /// `strat_offsets[u]..strat_offsets[u + 1]` indexes `σ_u` in
    /// `strat_targets`; length `n + 1`.
    strat_offsets: Vec<u32>,
    strat_targets: Vec<NodeId>,
    graph: CsrGraph,
}

impl ScaleState {
    /// Builds a state from `(owner, target)` pairs: player `owner`
    /// buys the edge towards `target`. Pairs may arrive in any order;
    /// duplicates collapse. Panics on self-loops or out-of-range ids.
    pub fn from_owned_edges(n: usize, owned: &[(NodeId, NodeId)]) -> Self {
        let mut strat_offsets = vec![0u32; n + 1];
        for &(u, v) in owned {
            assert!(u != v, "self-loop purchase {u} -> {v}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "purchase {u} -> {v} out of range for n = {n}"
            );
            strat_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            strat_offsets[i + 1] += strat_offsets[i];
        }
        // Offsets-as-cursors fill, then shift back (same discipline as
        // the CSR builder).
        let mut strat_targets = vec![0 as NodeId; owned.len()];
        for &(u, v) in owned {
            strat_targets[strat_offsets[u as usize] as usize] = v;
            strat_offsets[u as usize] += 1;
        }
        for u in (1..=n).rev() {
            strat_offsets[u] = strat_offsets[u - 1];
        }
        strat_offsets[0] = 0;
        // Sort + dedup each row in place, compacting leftwards.
        let mut write = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = strat_offsets[u + 1] as usize;
            strat_targets[row_start..row_end].sort_unstable();
            let new_start = write;
            let mut last: Option<NodeId> = None;
            for i in row_start..row_end {
                let t = strat_targets[i];
                if last != Some(t) {
                    strat_targets[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            row_start = row_end;
            strat_offsets[u] = new_start as u32;
            strat_offsets[u + 1] = write as u32;
        }
        strat_targets.truncate(write);
        let mut state = ScaleState { n, strat_offsets, strat_targets, graph: CsrGraph::default() };
        let mut edges = Vec::new();
        state.rebuild_adjacency(&mut edges);
        state
    }

    /// Flattens an exact-tier [`GameState`] (testing bridge: small
    /// instances round-trip between the tiers).
    pub fn from_game_state(gs: &GameState) -> Self {
        let n = gs.n();
        let mut owned = Vec::new();
        for u in 0..n as NodeId {
            for &v in gs.strategy(u) {
                owned.push((u, v));
            }
        }
        Self::from_owned_edges(n, &owned)
    }

    /// Expands back into the exact tier's representation.
    pub fn to_game_state(&self) -> GameState {
        let strategies: Vec<Vec<NodeId>> =
            (0..self.n).map(|u| self.strategy(u as NodeId).to_vec()).collect();
        GameState::from_strategies(self.n, strategies)
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The induced network as a frozen CSR graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Player `u`'s purchase list, sorted ascending.
    pub fn strategy(&self, u: NodeId) -> &[NodeId] {
        let lo = self.strat_offsets[u as usize] as usize;
        let hi = self.strat_offsets[u as usize + 1] as usize;
        &self.strat_targets[lo..hi]
    }

    /// Number of edges player `u` pays for.
    pub fn bought(&self, u: NodeId) -> usize {
        self.strategy(u).len()
    }

    /// Whether `u` pays for the edge towards `v`.
    pub fn owns(&self, u: NodeId, v: NodeId) -> bool {
        self.strategy(u).binary_search(&v).is_ok()
    }

    /// Total number of purchases (with double-buys counted twice).
    pub fn total_bought(&self) -> usize {
        self.strat_targets.len()
    }

    /// Largest purchase count over all players.
    pub fn max_bought(&self) -> usize {
        (0..self.n).map(|u| self.bought(u as NodeId)).max().unwrap_or(0)
    }

    /// Neighbours `v` of `u` (in the induced network) that pay for
    /// their edge towards `u` — the sources beyond `u`'s own purchases
    /// whose distance fields a deviation of `u` inherits. Overwrites
    /// `out` with them, ascending.
    pub fn incoming_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for &v in self.graph.neighbors(u) {
            if self.owns(v, u) {
                out.push(v);
            }
        }
    }

    /// Applies a batch of strategy rewrites and rebuilds the induced
    /// network. `moves` must be sorted by player ascending with no
    /// player repeated; each new strategy must be sorted ascending,
    /// duplicate-free, in range, and self-loop-free (the responder
    /// returns exactly this shape). `O(n + m)`, allocation-free at
    /// steady state via `scratch`.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Vec<NodeId>)], scratch: &mut ApplyScratch) {
        debug_assert!(moves.windows(2).all(|w| w[0].0 < w[1].0), "moves not ascending by player");
        scratch.new_offsets.clear();
        scratch.new_offsets.reserve(self.n + 1);
        scratch.new_offsets.push(0);
        scratch.new_targets.clear();
        let mut mi = 0usize;
        for u in 0..self.n as NodeId {
            let row: &[NodeId] = if mi < moves.len() && moves[mi].0 == u {
                let row = moves[mi].1.as_slice();
                debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "new strategy not canonical");
                debug_assert!(
                    row.iter().all(|&v| v != u && (v as usize) < self.n),
                    "new strategy target out of range or self-loop"
                );
                mi += 1;
                row
            } else {
                self.strategy(u)
            };
            scratch.new_targets.extend_from_slice(row);
            scratch.new_offsets.push(scratch.new_targets.len() as u32);
        }
        debug_assert_eq!(mi, moves.len(), "move for out-of-range player");
        std::mem::swap(&mut self.strat_offsets, &mut scratch.new_offsets);
        std::mem::swap(&mut self.strat_targets, &mut scratch.new_targets);
        self.rebuild_adjacency(&mut scratch.edges);
    }

    /// Re-derives `graph` from the strategy rows via the counting-sort
    /// CSR builder; `edges` is a reused staging buffer.
    fn rebuild_adjacency(&mut self, edges: &mut Vec<(NodeId, NodeId)>) {
        edges.clear();
        edges.reserve(self.strat_targets.len());
        for u in 0..self.n as NodeId {
            for &v in self.strategy(u) {
                edges.push((u, v));
            }
        }
        self.graph.rebuild_from_edges(self.n, edges);
    }

    /// Checks every representation invariant; returns the first
    /// violation found. Meant for tests and debug assertions, not hot
    /// paths (`O(n + m log m)`).
    pub fn validate(&self) -> Result<(), String> {
        if self.strat_offsets.len() != self.n + 1 {
            return Err(format!(
                "offsets length {} != n + 1 = {}",
                self.strat_offsets.len(),
                self.n + 1
            ));
        }
        for u in 0..self.n as NodeId {
            let row = self.strategy(u);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("strategy row {u} not sorted/deduplicated"));
            }
            if row.contains(&u) {
                return Err(format!("player {u} buys a self-loop"));
            }
            if row.iter().any(|&v| v as usize >= self.n) {
                return Err(format!("player {u} buys out of range"));
            }
        }
        let rebuilt = CsrGraph::from_edges(
            self.n,
            &(0..self.n as NodeId)
                .flat_map(|u| self.strategy(u).iter().map(move |&v| (u, v)))
                .collect::<Vec<_>>(),
        );
        if rebuilt != self.graph {
            return Err("adjacency out of sync with strategy rows".to_string());
        }
        Ok(())
    }
}

impl ViewSource for ScaleState {
    type Graph = CsrGraph;

    fn graph(&self) -> &CsrGraph {
        ScaleState::graph(self)
    }

    fn strategy(&self, u: NodeId) -> &[NodeId] {
        ScaleState::strategy(self, u)
    }

    fn incoming_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        ScaleState::incoming_into(self, u, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_game_state() {
        let gs = GameState::from_strategies(4, vec![vec![1, 2], vec![2], vec![], vec![0]]);
        let ss = ScaleState::from_game_state(&gs);
        assert!(ss.validate().is_ok());
        assert_eq!(ss.to_game_state(), gs);
        assert_eq!(ss.bought(0), 2);
        assert!(ss.owns(0, 2));
        assert!(!ss.owns(2, 0));
        let mut inc = Vec::new();
        ss.incoming_into(2, &mut inc);
        assert_eq!(inc, vec![0, 1]);
    }

    #[test]
    fn from_owned_edges_collapses_duplicates() {
        let ss = ScaleState::from_owned_edges(3, &[(0, 2), (0, 1), (0, 2), (1, 2)]);
        assert_eq!(ss.strategy(0), &[1, 2]);
        assert_eq!(ss.strategy(1), &[2]);
        assert_eq!(ss.total_bought(), 3);
        // Double-buy 0->2 and 1->2: the induced network still has one
        // edge per pair.
        assert_eq!(ss.graph().edge_count(), 3);
        assert!(ss.validate().is_ok());
    }

    #[test]
    fn apply_moves_matches_set_strategy() {
        let gs = GameState::from_strategies(4, vec![vec![1], vec![2], vec![3], vec![0]]);
        let mut ss = ScaleState::from_game_state(&gs);
        let mut scratch = ApplyScratch::default();
        ss.apply_moves(&[(1, vec![0, 3]), (2, vec![])], &mut scratch);
        assert!(ss.validate().is_ok());

        let mut expected = gs;
        expected.set_strategy(1, vec![0, 3]);
        expected.set_strategy(2, vec![]);
        assert_eq!(ss.to_game_state(), expected);

        // A second batch reuses the swapped-out buffers.
        ss.apply_moves(&[(0, vec![2])], &mut scratch);
        assert!(ss.validate().is_ok());
        assert_eq!(ss.strategy(0), &[2]);
    }
}
