//! Frozen CSR (compressed sparse row) graph representation.
//!
//! [`Graph`]'s `Vec<Vec<NodeId>>` adjacency is ideal for the mutation
//! the dynamics performs, but its per-node heap allocations scatter
//! the neighbour lists across the heap. The all-pairs BFS sweeps of
//! the metrics layer and the best-response reduction read the whole
//! adjacency once per source — a contiguous offsets/targets layout
//! ([`CsrGraph`]) keeps those sweeps inside a single prefetch-friendly
//! allocation. Freezing is `O(n + m)`; the benches in
//! `ncg-bench/benches/substrates.rs` quantify the BFS win.

use crate::bfs::{Adjacency, DistanceBuffer};
use crate::view::StampMap;
#[cfg(test)]
use crate::INFINITY;
use crate::{Graph, NodeId};

/// An immutable graph in CSR layout: neighbours of `u` are
/// `targets[offsets[u] .. offsets[u+1]]`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Freezes a [`Graph`] into CSR form.
    pub fn from_graph(g: &Graph) -> Self {
        let mut csr = CsrGraph { offsets: Vec::new(), targets: Vec::new() };
        csr.refreeze(g);
        csr
    }

    /// Re-freezes `g` into this CSR, reusing the offsets/targets
    /// allocations of the previous freeze — the per-cell epilogue path
    /// of the sweep engine, which measures one state per repetition ×
    /// `(α, k)` cell and would otherwise re-allocate the layout every
    /// time. Equivalent to `*self = CsrGraph::from_graph(g)`.
    pub fn refreeze(&mut self, g: &Graph) {
        let n = g.node_count();
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.targets.clear();
        self.targets.reserve(2 * g.edge_count());
        self.offsets.push(0);
        for u in 0..n as NodeId {
            self.targets.extend_from_slice(g.neighbors(u));
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Builds a CSR directly from an undirected edge list, never
    /// materialising a [`Graph`]. See [`CsrGraph::rebuild_from_edges`].
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut csr = CsrGraph::default();
        csr.rebuild_from_edges(n, edges);
        csr
    }

    /// Re-builds this CSR from an undirected edge list via a two-pass
    /// counting sort, reusing the offsets/targets allocations.
    ///
    /// This is the scale-tier constructor: the SoA game state stores
    /// strategies as a flat CSR and derives the adjacency by streaming
    /// `(owner, target)` pairs through here every round — `O(n + m)`
    /// with two contiguous passes, no per-node `Vec` in sight.
    /// Duplicate pairs (a double-bought edge — both endpoints purchase
    /// it) and either orientation are tolerated: rows come out sorted
    /// ascending and deduplicated, identical to freezing the
    /// equivalent [`Graph`].
    ///
    /// # Panics
    /// Panics (debug assertion) on self-loops or endpoints `≥ n`.
    pub fn rebuild_from_edges(&mut self, n: usize, edges: &[(NodeId, NodeId)]) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in edges {
            debug_assert!(u != v, "self-loop {u}");
            debug_assert!((u as usize) < n && (v as usize) < n, "endpoint out of range");
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets.clear();
        self.targets.resize(2 * edges.len(), 0);
        // Fill using offsets[u] as the row cursor; afterwards each
        // offsets[u] has advanced to the start of row u+1, so one
        // backward shift restores the offset array without a separate
        // cursor allocation.
        for &(u, v) in edges {
            self.targets[self.offsets[u as usize] as usize] = v;
            self.offsets[u as usize] += 1;
            self.targets[self.offsets[v as usize] as usize] = u;
            self.offsets[v as usize] += 1;
        }
        for u in (1..=n).rev() {
            self.offsets[u] = self.offsets[u - 1];
        }
        self.offsets[0] = 0;
        // Sort rows, then compact out duplicate targets in place
        // (write cursor never passes the read cursor).
        let mut write = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = self.offsets[u + 1] as usize;
            self.targets[row_start..row_end].sort_unstable();
            let new_start = write;
            let mut last: Option<NodeId> = None;
            for i in row_start..row_end {
                let t = self.targets[i];
                if last != Some(t) {
                    self.targets[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            row_start = row_end;
            self.offsets[u] = new_start as u32;
            self.offsets[u + 1] = write as u32;
        }
        self.targets.truncate(write);
    }

    /// Re-builds this CSR as the subgraph of `g` induced by `ball`
    /// (global ids, strictly ascending): local node `i` is `ball[i]`.
    /// Reuses the offsets/targets allocations.
    ///
    /// This is the one induced-ball builder of the workspace: the exact
    /// tier's `PlayerView` and the scale tier's responder both build
    /// their ball-local graph here. `ids` is restarted and left mapping
    /// every ball node to its local id, so the whole build costs
    /// `O(|ball| + Σ_{v ∈ ball} deg_g(v))`: one pass over the ball's
    /// global adjacency rows, no binary search and no `O(n)` clear.
    /// Rows come out sorted because global rows are sorted and local
    /// ids are order-isomorphic to global ids.
    pub fn rebuild_induced<A: Adjacency + ?Sized>(
        &mut self,
        g: &A,
        ball: &[NodeId],
        ids: &mut StampMap,
    ) {
        debug_assert!(ball.windows(2).all(|w| w[0] < w[1]), "ball must be strictly ascending");
        ids.restart(g.node_count());
        for (local, &v) in ball.iter().enumerate() {
            ids.insert(v, local as NodeId);
        }
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        for &v in ball {
            self.targets.extend(g.adjacent(v).iter().filter_map(|&w| ids.get(w)));
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbour slice of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Full BFS from `source` on the CSR layout; same contract as
    /// [`crate::bfs::bfs`]. Returns the largest finite distance.
    pub fn bfs(&self, source: NodeId, buf: &mut DistanceBuffer) -> u32 {
        crate::bfs::bfs(self, source, buf)
    }

    /// Bounded BFS (distance `≤ limit`) on the CSR layout; same
    /// contract as [`crate::bfs::bfs_bounded`].
    pub fn bfs_bounded(&self, source: NodeId, limit: u32, buf: &mut DistanceBuffer) -> u32 {
        crate::bfs::bfs_bounded(self, source, limit, buf)
    }

    /// Bounded **multi-source** BFS on the CSR layout; same contract
    /// as [`crate::bfs::bfs_multi_bounded`] — these methods are pure
    /// conveniences over the one generic kernel in `crate::bfs`, not
    /// separate drivers.
    pub fn bfs_multi_bounded(
        &self,
        sources: &[NodeId],
        limit: u32,
        buf: &mut DistanceBuffer,
    ) -> u32 {
        crate::bfs::bfs_multi_bounded(self, sources, limit, buf)
    }

    /// All-pairs distance matrix via per-source BFS (sequential; the
    /// caller parallelises over chunks if desired).
    pub fn distance_matrix(&self) -> Vec<Vec<u32>> {
        let n = self.node_count();
        let mut buf = DistanceBuffer::with_capacity(n);
        (0..n as NodeId)
            .map(|u| {
                self.bfs(u, &mut buf);
                buf.distances().to_vec()
            })
            .collect()
    }

    /// Eccentricity of `u` (`None` when `u` does not reach everyone).
    pub fn eccentricity(&self, u: NodeId, buf: &mut DistanceBuffer) -> Option<u32> {
        let ecc = self.bfs(u, buf);
        if buf.visited().len() == self.node_count() {
            Some(ecc)
        } else {
            None
        }
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn adjacent(&self, u: NodeId) -> &[NodeId] {
        self.neighbors(u)
    }

    #[inline]
    fn degree_sum(&self) -> usize {
        self.targets.len()
    }
}

impl Default for CsrGraph {
    /// The CSR of the empty graph — a valid freeze target for
    /// [`CsrGraph::refreeze`], so scratch bundles can derive `Default`.
    fn default() -> Self {
        CsrGraph { offsets: vec![0], targets: Vec::new() }
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::generators;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn csr_preserves_structure() {
        let g = generators::grid(4, 5);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for u in 0..g.node_count() as NodeId {
            assert_eq!(csr.neighbors(u), g.neighbors(u));
            assert_eq!(csr.degree(u), g.degree(u));
        }
    }

    #[test]
    fn csr_bfs_matches_graph_bfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::gnp(60, 0.08, &mut rng).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut a = DistanceBuffer::new();
        let mut b = DistanceBuffer::new();
        for u in 0..g.node_count() as NodeId {
            let ea = bfs(&g, u, &mut a);
            let eb = csr.bfs(u, &mut b);
            assert_eq!(ea, eb);
            assert_eq!(a.distances(), b.distances());
        }
    }

    #[test]
    fn csr_bounded_bfs_truncates() {
        let g = generators::path(12);
        let csr = CsrGraph::from_graph(&g);
        let mut buf = DistanceBuffer::new();
        let reached = csr.bfs_bounded(0, 4, &mut buf);
        assert_eq!(reached, 4);
        assert_eq!(buf.dist(4), 4);
        assert_eq!(buf.dist(5), INFINITY);
    }

    #[test]
    fn csr_distance_matrix_matches_metrics() {
        let g = generators::cycle(11);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.distance_matrix(), crate::metrics::distance_matrix(&g));
    }

    #[test]
    fn csr_eccentricity_and_disconnection() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut buf = DistanceBuffer::new();
        assert_eq!(csr.eccentricity(0, &mut buf), None);
        let c = CsrGraph::from_graph(&generators::cycle(8));
        assert_eq!(c.eccentricity(0, &mut buf), Some(4));
    }

    #[test]
    fn csr_multi_bounded_matches_graph_kernel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::gnp(50, 0.07, &mut rng).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let mut a = DistanceBuffer::new();
        let mut b = DistanceBuffer::new();
        for (sources, limit) in
            [(vec![0u32, 7, 7, 23], 2u32), (vec![3], 0), (vec![], 5), (vec![11, 40], u32::MAX)]
        {
            let da = crate::bfs::bfs_multi_bounded(&g, &sources, limit, &mut a);
            let db = csr.bfs_multi_bounded(&sources, limit, &mut b);
            assert_eq!(da, db);
            assert_eq!(a.distances(), b.distances());
            assert_eq!(a.visited(), b.visited());
        }
    }

    #[test]
    fn refreeze_reuses_and_matches_fresh_freeze() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut csr = CsrGraph::from_graph(&generators::path(40));
        for p in [0.03, 0.08, 0.2] {
            let g = generators::gnp(35, p, &mut rng).unwrap();
            csr.refreeze(&g);
            assert_eq!(csr, CsrGraph::from_graph(&g));
        }
        // Shrinking to a smaller graph is fine too.
        csr.refreeze(&generators::path(3));
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr, CsrGraph::from_graph(&generators::path(3)));
    }

    #[test]
    fn from_edges_matches_graph_freeze() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for p in [0.0, 0.05, 0.15] {
            let mut edges = Vec::new();
            let mut check = ChaCha8Rng::seed_from_u64(rng.random());
            let mut gen = check.clone();
            generators::gnp_edges(70, p, &mut gen, &mut edges).unwrap();
            let g = generators::gnp(70, p, &mut check).unwrap();
            assert_eq!(CsrGraph::from_edges(70, &edges), CsrGraph::from_graph(&g));
        }
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        // Duplicates (double-bought edges) and mixed orientation: the
        // CSR must come out identical to the clean graph's freeze.
        let edges = [(3u32, 1u32), (1, 3), (0, 2), (2, 1), (4, 0), (0, 4), (0, 4)];
        let csr = CsrGraph::from_edges(5, &edges);
        let g = Graph::from_edges(5, [(1, 3), (0, 2), (1, 2), (0, 4)]).unwrap();
        assert_eq!(csr, CsrGraph::from_graph(&g));
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.neighbors(0), &[2, 4]);
    }

    #[test]
    fn rebuild_from_edges_reuses_allocations() {
        let mut csr = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        csr.rebuild_from_edges(3, &[(0, 2)]);
        assert_eq!(csr, CsrGraph::from_edges(3, &[(0, 2)]));
        csr.rebuild_from_edges(0, &[]);
        assert_eq!(csr.node_count(), 0);
    }

    #[test]
    fn degree_sum_matches_adjacency_lengths() {
        fn summed<A: Adjacency>(g: &A) -> usize {
            (0..g.node_count() as NodeId).map(|u| g.adjacent(u).len()).sum()
        }
        let mut shrunk = generators::grid(3, 4);
        assert!(shrunk.remove_edge(0, 1));
        assert!(shrunk.remove_edge(5, 9));
        let cases = [
            Graph::new(0),
            Graph::new(6),
            Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(),
            shrunk,
        ];
        for g in &cases {
            assert_eq!(g.degree_sum(), summed(g));
            let csr = CsrGraph::from_graph(g);
            assert_eq!(csr.degree_sum(), summed(&csr));
        }
        assert_eq!(cases[3].degree_sum(), 2 * (17 - 2));
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}
