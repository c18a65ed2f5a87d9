//! Radius-`k` balls, induced subgraphs and graph powers.
//!
//! The *view* of a player in the locality-based game is the subgraph
//! induced by her radius-`k` ball. This module provides the graph-level
//! machinery; the game layer (`ncg-core`) adds ownership on top.

use crate::bfs::{bfs_bounded, Adjacency, DistanceBuffer};
use crate::{CsrGraph, Graph, NodeId};

/// The radius-`k` ball around `center`: all nodes at distance `≤ k`,
/// sorted by node id.
pub fn ball(g: &Graph, center: NodeId, k: u32) -> Vec<NodeId> {
    let mut out = Vec::new();
    ball_into(g, center, k, &mut DistanceBuffer::with_capacity(g.node_count()), &mut out);
    out
}

/// [`ball`] writing into caller-provided scratch, on any [`Adjacency`]:
/// `out` receives the sorted ball, `buf` is the BFS workspace and
/// keeps the ball's distances. Nothing allocates after warm-up, and a
/// call costs `O(ball + ball edges)` plus the previous run's visits
/// (see [`DistanceBuffer`]), not `O(n)`.
pub fn ball_into<A: Adjacency + ?Sized>(
    g: &A,
    center: NodeId,
    k: u32,
    buf: &mut DistanceBuffer,
    out: &mut Vec<NodeId>,
) {
    bfs_bounded(g, center, k, buf);
    out.clear();
    out.extend_from_slice(buf.visited());
    out.sort_unstable();
}

/// An epoch-stamped map from global node ids to `u32` values: the
/// global→local id map of the ball-local graphs.
///
/// [`StampMap::restart`] forgets every entry by bumping an epoch
/// counter instead of clearing `O(n)` slots, so a build that stamps
/// only its ball costs `O(ball)`. A build that panics half-way leaves
/// only entries of its own epoch, which the next restart retires.
/// [`CsrGraph::rebuild_induced`] stores local ids here.
#[derive(Debug, Clone, Default)]
pub struct StampMap {
    epoch: u32,
    stamp: Vec<u32>,
    value: Vec<u32>,
}

impl StampMap {
    /// An empty map; it sizes itself on the first restart.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every entry and admits keys `< n`. Amortised `O(1)`:
    /// the slots grow only past their previous size, and are zeroed
    /// only when the epoch counter wraps.
    pub fn restart(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.value.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Maps `key` to `value` in the current epoch.
    ///
    /// # Panics
    /// Panics if `key` is not below the `n` of the last restart.
    #[inline]
    pub fn insert(&mut self, key: NodeId, value: u32) {
        self.stamp[key as usize] = self.epoch;
        self.value[key as usize] = value;
    }

    /// The value of `key` in the current epoch, if it has one.
    #[inline]
    pub fn get(&self, key: NodeId) -> Option<u32> {
        (self.stamp[key as usize] == self.epoch).then(|| self.value[key as usize])
    }
}

/// An induced subgraph together with the mapping between local and
/// global node identifiers.
///
/// Local ids are dense `0..nodes.len()`, assigned in ascending global
/// order, so `local_to_global` is sorted, [`Subgraph::to_local`] can
/// use binary search, and the CSR rows are sorted in both id spaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subgraph {
    /// The induced graph over local identifiers.
    pub graph: CsrGraph,
    /// `local_to_global[l]` = global id of local node `l` (sorted).
    pub local_to_global: Vec<NodeId>,
}

impl Subgraph {
    /// Translates a global id to the local id, if present.
    #[inline]
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.local_to_global.binary_search(&global).ok().map(|i| i as NodeId)
    }

    /// Translates a local id back to the global id.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    #[inline]
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.local_to_global[local as usize]
    }

    /// Number of nodes in the subgraph.
    #[inline]
    pub fn len(&self) -> usize {
        self.local_to_global.len()
    }

    /// Whether the subgraph is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.local_to_global.is_empty()
    }
}

/// The subgraph of `g` induced by `nodes` (global ids, any order,
/// duplicates ignored), built by [`CsrGraph::rebuild_induced`].
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Subgraph {
    let mut out = Subgraph::default();
    out.local_to_global.extend_from_slice(nodes);
    out.local_to_global.sort_unstable();
    out.local_to_global.dedup();
    out.graph.rebuild_induced(g, &out.local_to_global, &mut StampMap::new());
    out
}

/// The `h`-th power of `g`: same nodes, an edge wherever the distance
/// in `g` is between 1 and `h`.
///
/// `power(g, 1)` is `g` itself (a copy). `power(g, 0)` is edgeless.
/// Used by the Section 5.3 best-response reduction, where domination
/// in the `(h−1)`-th power encodes "eccentricity ≤ h after buying".
pub fn power(g: &Graph, h: u32) -> Graph {
    let n = g.node_count();
    let mut p = Graph::new(n);
    if h == 0 {
        return p;
    }
    let mut buf = DistanceBuffer::with_capacity(n);
    for u in 0..n as NodeId {
        bfs_bounded(g, u, h, &mut buf);
        for &v in buf.visited() {
            if v > u {
                p.add_edge(u, v);
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ball_on_path_is_an_interval() {
        let g = generators::path(10);
        assert_eq!(ball(&g, 5, 2), vec![3, 4, 5, 6, 7]);
        assert_eq!(ball(&g, 0, 3), vec![0, 1, 2, 3]);
        assert_eq!(ball(&g, 9, 0), vec![9]);
    }

    #[test]
    fn ball_radius_larger_than_diameter_is_everything() {
        let g = generators::cycle(6);
        assert_eq!(ball(&g, 2, 100).len(), 6);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = generators::cycle(6);
        let sub = induced_subgraph(&g, &[0, 1, 2, 4]);
        assert_eq!(sub.len(), 4);
        // Edges 0-1 and 1-2 survive; 4 is isolated inside the subgraph.
        assert_eq!(sub.graph.edge_count(), 2);
        let l4 = sub.to_local(4).unwrap();
        assert_eq!(sub.graph.degree(l4), 0);
        assert_eq!(sub.graph.neighbors(1), &[0, 2]);
    }

    #[test]
    fn induced_subgraph_dedups_and_sorts() {
        let g = generators::path(5);
        let sub = induced_subgraph(&g, &[3, 1, 3, 1, 2]);
        assert_eq!(sub.local_to_global, vec![1, 2, 3]);
        assert_eq!(sub.graph.edge_count(), 2);
    }

    #[test]
    fn local_global_round_trip() {
        let g = generators::grid(3, 3);
        let sub = induced_subgraph(&g, &ball(&g, 4, 1));
        for l in 0..sub.len() as NodeId {
            let gid = sub.to_global(l);
            assert_eq!(sub.to_local(gid), Some(l));
        }
        assert_eq!(sub.to_local(999), None);
    }

    #[test]
    fn power_zero_and_one() {
        let g = generators::cycle(5);
        assert_eq!(power(&g, 0).edge_count(), 0);
        assert_eq!(power(&g, 1), g);
    }

    #[test]
    fn power_two_of_cycle_six() {
        let g = generators::cycle(6);
        let p2 = power(&g, 2);
        // Each node gains its two distance-2 neighbours: degree 4.
        assert!(p2.nodes().all(|u| p2.degree(u) == 4));
        assert_eq!(p2.edge_count(), 12);
    }

    #[test]
    fn power_saturates_to_complete_graph() {
        let g = generators::path(5);
        let p = power(&g, 4);
        assert_eq!(p.edge_count(), 5 * 4 / 2);
    }

    #[test]
    fn power_of_disconnected_graph_stays_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let p = power(&g, 10);
        assert!(p.has_edge(0, 1));
        assert!(p.has_edge(2, 3));
        assert!(!p.has_edge(1, 2));
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn into_variants_match_fresh_builds() {
        // One CSR and one stamp map retargeted across every ball of a
        // grid, growing and shrinking; the reference maps ids by binary
        // search and goes through a fresh `Graph`.
        let g = generators::grid(4, 4);
        let mut buf = DistanceBuffer::new();
        let mut ball_buf = Vec::new();
        let mut ids = StampMap::new();
        let mut csr = CsrGraph::default();
        for center in 0..g.node_count() as NodeId {
            for k in [4, 0, 2, 1, 3] {
                ball_into(&g, center, k, &mut buf, &mut ball_buf);
                assert_eq!(ball_buf, ball(&g, center, k), "ball center={center} k={k}");
                csr.rebuild_induced(&g, &ball_buf, &mut ids);
                let local = |v: NodeId| ball_buf.binary_search(&v).ok().map(|l| l as NodeId);
                let edges = g.edges().filter_map(|(a, b)| Some((local(a)?, local(b)?)));
                let reference = Graph::from_edges(ball_buf.len(), edges).unwrap();
                assert_eq!(csr, CsrGraph::from_graph(&reference), "center={center} k={k}");
                for v in 0..g.node_count() as NodeId {
                    assert_eq!(ids.get(v), local(v), "id of {v}, center={center} k={k}");
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_into_reuses_allocation_across_shrink() {
        // Rebuilding a subgraph's CSR in place for a smaller node set
        // leaves nothing of the larger one behind.
        let g = generators::cycle(8);
        let mut ids = StampMap::new();
        let mut sub = induced_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
        sub.local_to_global = vec![0, 6, 7];
        sub.graph.rebuild_induced(&g, &sub.local_to_global, &mut ids);
        assert_eq!(sub, induced_subgraph(&g, &[6, 7, 0]));
    }

    #[test]
    fn stamp_map_restart_forgets_and_survives_epoch_wrap() {
        let mut ids = StampMap::new();
        ids.restart(4);
        ids.insert(2, 7);
        assert_eq!(ids.get(2), Some(7));
        assert_eq!(ids.get(1), None);
        ids.restart(6);
        assert_eq!(ids.get(2), None, "a restart retires every entry");
        ids.insert(5, 1);
        ids.epoch = u32::MAX;
        ids.insert(3, 9);
        ids.restart(6);
        assert_eq!(ids.epoch, 1);
        assert!((0..6).all(|v| ids.get(v).is_none()), "the wrap zeroes stale stamps");
    }
}
