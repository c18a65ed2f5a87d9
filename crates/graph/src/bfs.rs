//! Breadth-first search kernels.
//!
//! The BFS routines here are the hot path of the whole workspace: every
//! eccentricity, view extraction and dominating-set reduction bottoms
//! out in them. They therefore follow the allocation discipline from
//! the performance guides: a caller-provided [`DistanceBuffer`] is
//! reused across calls and nothing is allocated per BFS.
//!
//! All entry points — single-source, bounded, skipping, multi-source,
//! on [`Graph`] or on [`crate::CsrGraph`] — are thin wrappers around
//! **one** batched frontier sweep (the private `bfs_kernel`),
//! parameterised over the [`Adjacency`] representation. View extraction
//! (`crate::view::ball`), the deviation evaluator's multi-source
//! sweeps, and the best-response reduction's per-source APSP therefore
//! share a single, monomorphised inner loop (see `DESIGN.md` §5).

use crate::{Graph, NodeId, INFINITY};

/// Sentinel for "no node": larger than any valid [`NodeId`] (ids are
/// dense indices `< node_count ≤ u32::MAX`).
const NO_NODE: NodeId = u32::MAX;

/// Anything that can hand out a neighbour slice per node — the minimal
/// adjacency interface the BFS kernel needs. Implemented by the
/// mutable [`Graph`] and the frozen [`crate::CsrGraph`], so every BFS
/// flavour is written once and monomorphised per representation.
pub trait Adjacency {
    /// Number of nodes (ids are `0..node_count()`).
    fn node_count(&self) -> usize;
    /// Sorted neighbour slice of `u`.
    fn adjacent(&self, u: NodeId) -> &[NodeId];
    /// `Σ_u adjacent(u).len()`, i.e. twice the edge count, in `O(1)`.
    fn degree_sum(&self) -> usize;
}

impl Adjacency for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn adjacent(&self, u: NodeId) -> &[NodeId] {
        self.neighbors(u)
    }

    #[inline]
    fn degree_sum(&self) -> usize {
        2 * self.edge_count()
    }
}

/// Reusable scratch space for BFS.
///
/// Holds the distance array and the FIFO queue. Create one per thread
/// (or per long-lived computation) and pass it to the kernels; the
/// buffer grows on demand and never shrinks.
#[derive(Debug, Clone, Default)]
pub struct DistanceBuffer {
    /// Distances from the last source; `INFINITY` = unreachable.
    dist: Vec<u32>,
    /// FIFO queue storage (head index advances instead of popping).
    queue: Vec<NodeId>,
}

impl DistanceBuffer {
    /// Creates an empty buffer; it will size itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer pre-sized for graphs with `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        DistanceBuffer { dist: Vec::with_capacity(n), queue: Vec::with_capacity(n) }
    }

    /// Distance from the most recent source to `u` (`INFINITY` if
    /// unreachable).
    ///
    /// # Panics
    /// Panics if no BFS has been run or `u` is out of range for the
    /// graph of the last run.
    #[inline]
    pub fn dist(&self, u: NodeId) -> u32 {
        self.dist[u as usize]
    }

    /// The full distance slice of the most recent run.
    #[inline]
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Nodes visited by the most recent run, in BFS (non-decreasing
    /// distance) order. The source is first.
    #[inline]
    pub fn visited(&self) -> &[NodeId] {
        &self.queue
    }

    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, INFINITY);
        self.queue.clear();
    }
}

/// The one batched frontier sweep every public BFS flavour wraps:
/// multi-source, distance-bounded, with an optional deleted node.
///
/// * `sources` are enqueued at distance 0 (duplicates and the skipped
///   node are ignored);
/// * nodes at distance `> limit` keep `INFINITY` and are not enqueued;
/// * `skip` (pass [`NO_NODE`] for none) keeps `INFINITY` and its
///   incident edges are ignored — the `H ∖ {u}` semantics of the
///   best-response reduction.
///
/// Returns the largest finite distance reached (0 when no source is
/// usable).
fn bfs_kernel<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    skip: NodeId,
    buf: &mut DistanceBuffer,
) -> u32 {
    buf.reset(g.node_count());
    for &s in sources {
        debug_assert!((s as usize) < g.node_count(), "BFS source out of range");
        if s != skip && buf.dist[s as usize] != 0 {
            buf.dist[s as usize] = 0;
            buf.queue.push(s);
        }
    }
    let mut head = 0usize;
    let mut max_d = 0u32;
    while head < buf.queue.len() {
        let u = buf.queue[head];
        head += 1;
        let du = buf.dist[u as usize];
        max_d = du;
        if du == limit {
            continue;
        }
        for &v in g.adjacent(u) {
            if buf.dist[v as usize] == INFINITY && v != skip {
                buf.dist[v as usize] = du + 1;
                buf.queue.push(v);
            }
        }
    }
    max_d
}

/// Full BFS from `source`; fills `buf` with distances in `g`.
///
/// Returns the eccentricity of `source` within its connected component
/// (the largest finite distance reached).
pub fn bfs<A: Adjacency + ?Sized>(g: &A, source: NodeId, buf: &mut DistanceBuffer) -> u32 {
    bfs_kernel(g, &[source], u32::MAX, NO_NODE, buf)
}

/// BFS from `source` truncated at distance `limit` (inclusive).
///
/// Nodes at distance `> limit` keep distance `INFINITY` and are not
/// enqueued, which is exactly the semantics needed for radius-`k`
/// views. Returns the largest distance reached (`≤ limit`).
pub fn bfs_bounded<A: Adjacency + ?Sized>(
    g: &A,
    source: NodeId,
    limit: u32,
    buf: &mut DistanceBuffer,
) -> u32 {
    bfs_kernel(g, &[source], limit, NO_NODE, buf)
}

/// BFS from `source` on `g` *with node `skip` deleted*.
///
/// Used by the best-response reduction, which works on `H ∖ {u}`
/// without materialising the node-deleted graph. `skip` keeps distance
/// `INFINITY` and its incident edges are ignored.
pub fn bfs_skipping<A: Adjacency + ?Sized>(
    g: &A,
    source: NodeId,
    skip: NodeId,
    buf: &mut DistanceBuffer,
) -> u32 {
    debug_assert_ne!(source, skip, "cannot BFS from the deleted node");
    bfs_kernel(g, &[source], u32::MAX, skip, buf)
}

/// BFS from a *set* of sources (multi-source BFS), all at distance 0.
///
/// Returns the largest finite distance reached. Empty source sets
/// yield an all-`INFINITY` buffer and return 0.
pub fn bfs_multi<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    buf: &mut DistanceBuffer,
) -> u32 {
    bfs_kernel(g, sources, u32::MAX, NO_NODE, buf)
}

/// Multi-source BFS truncated at distance `limit` (inclusive): the
/// batched frontier sweep behind view extraction and the incremental
/// best-response APSP. Duplicate sources are harmless; with `limit` 0
/// only the sources themselves are visited.
pub fn bfs_multi_bounded<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    buf: &mut DistanceBuffer,
) -> u32 {
    bfs_kernel(g, sources, limit, NO_NODE, buf)
}

/// Single-pair shortest-path distance (early-exit BFS).
///
/// On success the buffer is consistent with the return value: the
/// found target has its distance recorded and appears in
/// [`DistanceBuffer::visited`] (nodes *behind* it are still
/// unexplored — the early exit is the point).
pub fn distance(g: &Graph, u: NodeId, v: NodeId, buf: &mut DistanceBuffer) -> u32 {
    if u == v {
        buf.reset(g.node_count());
        buf.dist[u as usize] = 0;
        buf.queue.push(u);
        return 0;
    }
    buf.reset(g.node_count());
    buf.dist[u as usize] = 0;
    buf.queue.push(u);
    let mut head = 0usize;
    while head < buf.queue.len() {
        let x = buf.queue[head];
        head += 1;
        let dx = buf.dist[x as usize];
        for &y in g.neighbors(x) {
            if buf.dist[y as usize] == INFINITY {
                buf.dist[y as usize] = dx + 1;
                buf.queue.push(y);
                if y == v {
                    return dx + 1;
                }
            }
        }
    }
    INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(6);
        let mut buf = DistanceBuffer::new();
        let ecc = bfs(&g, 0, &mut buf);
        assert_eq!(ecc, 5);
        for v in 0..6 {
            assert_eq!(buf.dist(v), v);
        }
    }

    #[test]
    fn bfs_marks_unreachable_as_infinity() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let mut buf = DistanceBuffer::new();
        let ecc = bfs(&g, 0, &mut buf);
        assert_eq!(ecc, 1);
        assert_eq!(buf.dist(2), INFINITY);
        assert_eq!(buf.dist(3), INFINITY);
    }

    #[test]
    fn bounded_bfs_truncates_at_limit() {
        let g = generators::path(10);
        let mut buf = DistanceBuffer::new();
        let reached = bfs_bounded(&g, 0, 3, &mut buf);
        assert_eq!(reached, 3);
        assert_eq!(buf.dist(3), 3);
        assert_eq!(buf.dist(4), INFINITY);
        assert_eq!(buf.visited().len(), 4);
    }

    #[test]
    fn bounded_bfs_visits_in_distance_order() {
        let g = generators::cycle(9);
        let mut buf = DistanceBuffer::new();
        bfs_bounded(&g, 0, 2, &mut buf);
        let ds: Vec<u32> = buf.visited().iter().map(|&v| buf.dist(v)).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(buf.visited()[0], 0);
    }

    #[test]
    fn skipping_bfs_deletes_the_node() {
        // path 0-1-2-3; skipping 1 disconnects 0 from {2,3}.
        let g = generators::path(4);
        let mut buf = DistanceBuffer::new();
        bfs_skipping(&g, 0, 1, &mut buf);
        assert_eq!(buf.dist(0), 0);
        assert_eq!(buf.dist(1), INFINITY);
        assert_eq!(buf.dist(2), INFINITY);
        // cycle 0-1-2-3-0; skipping 1 still reaches 2 the long way.
        let c = generators::cycle(4);
        bfs_skipping(&c, 0, 1, &mut buf);
        assert_eq!(buf.dist(2), 2);
        assert_eq!(buf.dist(3), 1);
        assert_eq!(buf.dist(1), INFINITY);
    }

    #[test]
    fn multi_source_bfs_takes_nearest_source() {
        let g = generators::path(7);
        let mut buf = DistanceBuffer::new();
        let maxd = bfs_multi(&g, &[0, 6], &mut buf);
        assert_eq!(maxd, 3);
        assert_eq!(buf.dist(3), 3);
        assert_eq!(buf.dist(5), 1);
    }

    #[test]
    fn multi_source_bfs_with_empty_sources() {
        let g = generators::path(3);
        let mut buf = DistanceBuffer::new();
        assert_eq!(bfs_multi(&g, &[], &mut buf), 0);
        assert!(buf.distances().iter().all(|&d| d == INFINITY));
    }

    #[test]
    fn multi_source_handles_duplicate_sources() {
        let g = generators::path(4);
        let mut buf = DistanceBuffer::new();
        bfs_multi(&g, &[2, 2, 2], &mut buf);
        assert_eq!(buf.dist(0), 2);
        assert_eq!(buf.visited().len(), 4);
    }

    #[test]
    fn multi_bounded_limit_zero_visits_sources_only() {
        let g = generators::path(8);
        let mut buf = DistanceBuffer::new();
        let maxd = bfs_multi_bounded(&g, &[2, 5], 0, &mut buf);
        assert_eq!(maxd, 0);
        assert_eq!(buf.visited(), &[2, 5]);
        assert_eq!(buf.dist(3), INFINITY);
        assert_eq!(buf.dist(2), 0);
    }

    #[test]
    fn multi_bounded_with_duplicate_sources_truncates() {
        let g = generators::path(9);
        let mut buf = DistanceBuffer::new();
        let maxd = bfs_multi_bounded(&g, &[4, 4, 0], 2, &mut buf);
        assert_eq!(maxd, 2);
        assert_eq!(buf.dist(4), 0);
        assert_eq!(buf.dist(6), 2);
        assert_eq!(buf.dist(7), INFINITY);
        // node 4 enqueued once despite the duplicate source.
        assert_eq!(buf.visited().iter().filter(|&&v| v == 4).count(), 1);
    }

    #[test]
    fn multi_bounded_on_disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]).unwrap();
        let mut buf = DistanceBuffer::new();
        let maxd = bfs_multi_bounded(&g, &[0], 10, &mut buf);
        assert_eq!(maxd, 2);
        assert_eq!(buf.dist(3), INFINITY);
        assert_eq!(buf.dist(4), INFINITY);
        // A source per component covers both sides; the isolate stays ∞.
        bfs_multi_bounded(&g, &[0, 4], 10, &mut buf);
        assert_eq!(buf.dist(5), 1);
        assert_eq!(buf.dist(3), INFINITY);
    }

    #[test]
    fn pairwise_distance_matches_full_bfs() {
        let g = generators::cycle(11);
        let mut buf = DistanceBuffer::new();
        for u in 0..11 {
            let mut full = DistanceBuffer::new();
            bfs(&g, u, &mut full);
            for v in 0..11 {
                assert_eq!(distance(&g, u, v, &mut buf), full.dist(v), "({u},{v})");
            }
        }
    }

    #[test]
    fn distance_records_the_found_target_in_the_buffer() {
        // Regression: the early exit used to return without writing the
        // target's distance, leaving `buf.dist(v)` at INFINITY and
        // `visited()` missing `v` for a reachable target.
        let g = generators::path(6);
        let mut buf = DistanceBuffer::new();
        let d = distance(&g, 0, 4, &mut buf);
        assert_eq!(d, 4);
        assert_eq!(buf.dist(4), d, "buffer must agree with the return value");
        assert!(buf.visited().contains(&4), "found target must be recorded as visited");
        // Identity pairs are consistent too.
        assert_eq!(distance(&g, 3, 3, &mut buf), 0);
        assert_eq!(buf.dist(3), 0);
        assert_eq!(buf.visited(), &[3]);
    }

    #[test]
    fn distance_unreachable_is_infinity() {
        let g = Graph::new(3);
        let mut buf = DistanceBuffer::new();
        assert_eq!(distance(&g, 0, 2, &mut buf), INFINITY);
        assert_eq!(distance(&g, 1, 1, &mut buf), 0);
    }

    #[test]
    fn buffer_is_reusable_across_graphs_of_different_size() {
        let mut buf = DistanceBuffer::new();
        bfs(&generators::path(10), 0, &mut buf);
        bfs(&generators::path(3), 0, &mut buf);
        assert_eq!(buf.distances().len(), 3);
    }
}
