use serde::{Deserialize, Serialize};

use crate::GraphError;

/// Node identifier: a dense index in `0..node_count()`.
///
/// `u32` keeps adjacency lists half the size of `usize` on 64-bit
/// targets, which matters for the cache behaviour of the BFS kernels
/// (see the workspace performance notes in `DESIGN.md`).
pub type NodeId = u32;

/// A compact undirected simple graph.
///
/// Invariants (upheld by every mutator, checked by `debug_assert!` and
/// the property tests):
///
/// * adjacency lists are strictly sorted (no duplicates, no self-loops);
/// * `adj[u].contains(v)` iff `adj[v].contains(u)`;
/// * `edge_count` equals half the sum of all degrees.
///
/// Node identifiers are dense: `0..n`. The game layer (`ncg-core`)
/// identifies players with nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Creates a graph with `n` nodes and the given edges.
    ///
    /// Duplicate edges are collapsed; `(u, v)` and `(v, u)` denote the
    /// same edge. Returns an error on self-loops or out-of-range ids.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.check_node(u)?;
            g.check_node(v)?;
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            g.add_edge(u, v);
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids, `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// The sorted neighbour list of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average degree, `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.node_count() as f64
        }
    }

    /// Whether the edge `(u, v)` is present.
    ///
    /// Binary search on the sorted adjacency list of the lower-degree
    /// endpoint: `O(log min(deg u, deg v))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.adj.len() || v as usize >= self.adj.len() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Inserts the edge `(u, v)`. Returns `true` if the edge was new.
    ///
    /// Self-loops are rejected (returns `false`) so that bulk callers
    /// (generators) can stay branch-light; fallible construction should
    /// go through [`Graph::from_edges`].
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.adj[u as usize].insert(pos, v);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency symmetry violated: (v,u) present without (u,v)");
        self.adj[v as usize].insert(pos, u);
        self.edge_count += 1;
        true
    }

    /// Removes the edge `(u, v)`. Returns `true` if the edge existed.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(pos) => pos,
            Err(_) => return false,
        };
        self.adj[u as usize].remove(pos);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect("adjacency symmetry violated: (u,v) present without (v,u)");
        self.adj[v as usize].remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Iterator over all edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeId;
            nbrs.iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Removes every edge incident to `u`, returning the former
    /// neighbour list. The node itself stays (as an isolated vertex).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn detach_node(&mut self, u: NodeId) -> Vec<NodeId> {
        let nbrs = std::mem::take(&mut self.adj[u as usize]);
        for &v in &nbrs {
            let pos = self.adj[v as usize]
                .binary_search(&u)
                .expect("adjacency symmetry violated in detach_node");
            self.adj[v as usize].remove(pos);
        }
        self.edge_count -= nbrs.len();
        nbrs
    }

    /// Validates a node id.
    #[inline]
    pub fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if (u as usize) < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node: u, node_count: self.adj.len() })
        }
    }

    /// Exhaustive internal-consistency check, used by tests and
    /// `debug_assert!` call sites in the game layer.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.adj.len();
        let mut count = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency list of {u} not strictly sorted"));
            }
            for &v in nbrs {
                if v as usize >= n {
                    return Err(format!("neighbour {v} of {u} out of range"));
                }
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.adj[v as usize].binary_search(&(u as NodeId)).is_err() {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
            }
            count += nbrs.len();
        }
        if count % 2 != 0 {
            return Err("odd total degree".into());
        }
        if count / 2 != self.edge_count {
            return Err(format!(
                "edge_count {} disagrees with degree sum {}",
                self.edge_count,
                count / 2
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(2, 0), "re-adding the reverse edge must be a no-op");
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.edge_count(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = Graph::new(3);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(Graph::from_edges(3, [(1, 1)]), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn from_edges_collapses_duplicates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn from_edges_checks_range() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, node_count: 2 })
        ));
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert_eq!(g.edge_count(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn detach_node_removes_all_incident_edges() {
        let mut g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let nbrs = g.detach_node(0);
        assert_eq!(nbrs, vec![1, 2, 3]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.has_edge(1, 2));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_yields_canonical_pairs() {
        let g = Graph::from_edges(4, [(2, 1), (3, 0), (0, 1)]).unwrap();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip_preserves_graph() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn has_edge_handles_out_of_range_gracefully() {
        let g = Graph::new(2);
        assert!(!g.has_edge(0, 9));
        assert!(!g.has_edge(9, 0));
    }
}
