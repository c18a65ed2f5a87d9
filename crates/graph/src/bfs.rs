//! Breadth-first search kernels.
//!
//! The BFS routines here are the hot path of the whole workspace: every
//! eccentricity, view extraction and deviation evaluation bottoms out
//! in them. They therefore follow the allocation discipline from
//! the performance guides: a caller-provided [`DistanceBuffer`] is
//! reused across calls and nothing is allocated per BFS.
//!
//! All entry points — single-source, bounded, skipping, multi-source,
//! on [`Graph`] or on [`crate::CsrGraph`] — are thin wrappers around
//! **one** frontier sweep (the private `bfs_kernel`), parameterised
//! over the [`Adjacency`] representation. View extraction
//! (`crate::view::ball`), LKE certification, the scale tier's balls
//! and distance rows, and the deviation evaluator's multi-source
//! sweeps therefore share a single, monomorphised inner loop, and a
//! bounded run costs what it visits (see `DESIGN.md` §5 and §12).

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
}

/// Reusable scratch space for BFS.
///
/// Holds the distance array and the FIFO queue. Create one per thread
/// (or per long-lived computation) and pass it to the kernels; the
/// buffer grows on demand.
///
/// **Output-sensitive reuse.** Every finite distance of a run belongs
/// to a node in [`DistanceBuffer::visited`], so the next run restores
/// the all-`INFINITY` array by clearing just those entries: a run
/// costs `O(previous run's visits + this run's work)`, not `O(n)`, and
/// a radius-`k` ball on a huge graph costs the ball. When the previous
/// run visited at least an eighth of the array, one sequential refill
/// is cheaper than scattered stores and is used instead. A buffer
/// moved from a small graph to a large one pays the difference in
/// size once, so keep one buffer per graph.
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

    /// Restores an all-`INFINITY` array of length `n` and an empty
    /// queue, clearing only the previous run's queued nodes (the only
    /// finite entries) unless a refill is cheaper.
    fn reset(&mut self, n: usize) {
        if self.queue.len() * DENSE_RESET >= self.dist.len() {
            self.dist.clear();
        } else {
            for &v in &self.queue {
                self.dist[v as usize] = INFINITY;
            }
        }
        self.dist.resize(n, INFINITY);
        self.queue.clear();
    }
}

/// [`DistanceBuffer::reset`] refills the whole array instead of
/// clearing the previous run's visits when they number at least
/// `1 / DENSE_RESET` of it: one sequential pass then beats that many
/// scattered stores, which keeps all-sources sweeps at their old cost.
const DENSE_RESET: usize = 8;

/// The one frontier sweep every public BFS flavour wraps:
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

/// BFS from a *set* of sources on `g` *with node `skip` deleted*.
///
/// The `H ∖ {u}` sweep of the best-response machinery (the deviation
/// evaluator, the Sum engine's distance rows), which never
/// materialises the node-deleted graph. `skip` keeps distance
/// `INFINITY` (also when listed as a source) and its incident edges
/// are ignored, so from sources other than `skip` the distances and the
/// visit order equal [`bfs_multi`]'s on a copy of `g` with `skip`
/// detached.
pub fn bfs_skipping<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    skip: NodeId,
    buf: &mut DistanceBuffer,
) -> u32 {
    bfs_kernel(g, sources, u32::MAX, skip, buf)
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
/// sweep behind the dynamics view cache's dirty marking. Duplicate
/// sources are harmless; with `limit` 0 only the sources themselves
/// are visited.
pub fn bfs_multi_bounded<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    buf: &mut DistanceBuffer,
) -> u32 {
    bfs_kernel(g, sources, limit, NO_NODE, buf)
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
        bfs_skipping(&g, &[0], 1, &mut buf);
        assert_eq!(buf.dist(0), 0);
        assert_eq!(buf.dist(1), INFINITY);
        assert_eq!(buf.dist(2), INFINITY);
        // cycle 0-1-2-3-0; skipping 1 still reaches 2 the long way.
        let c = generators::cycle(4);
        bfs_skipping(&c, &[0], 1, &mut buf);
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
    fn buffer_is_reusable_across_graphs_of_different_size() {
        let mut buf = DistanceBuffer::new();
        bfs(&generators::path(10), 0, &mut buf);
        bfs(&generators::path(3), 0, &mut buf);
        assert_eq!(buf.distances().len(), 3);
    }
}
