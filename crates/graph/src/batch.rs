//! The benchmark ledger's ball-sweep surface, over the one BFS kernel.
//!
//! This module exists only for the benchmark ledger (`ledger/`), whose
//! traced `lke_gadgets` recomposition imports these four names; nothing
//! in the workspace uses them. It goes with the next change to the
//! benchmark, once that recomposition calls the scalar kernel itself.
//! Each source ("lane") of a [`batch_bfs`] call is one
//! [`crate::bfs::bfs_bounded`] run, and its visits are stored sorted —
//! exactly the ball `crate::view::ball_into` produces. DESIGN.md §12
//! says why the bit-parallel kernel that used to live here was deleted.

use crate::bfs::{bfs_bounded, Adjacency, DistanceBuffer};
use crate::NodeId;

/// Sources per [`batch_bfs`] call in the ledger's recomposition.
pub const WORD_LANES: usize = 64;

/// The BFS buffer [`batch_bfs`] reuses across calls.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    buf: DistanceBuffer,
}

impl BatchScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Every lane's ball of the most recent [`batch_bfs`] call, each sorted
/// ascending, stored back to back.
#[derive(Debug, Clone, Default)]
pub struct BatchDistances {
    /// Lane `l`'s ball is `nodes[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl BatchDistances {
    /// An empty result buffer to thread through [`batch_bfs`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Lane `l`'s ball as ascending node ids.
    pub fn lane_ball_into(&self, lane: usize, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.nodes[self.offsets[lane]..self.offsets[lane + 1]]);
    }
}

/// The radius-`limit` ball of every source (duplicates allowed), one
/// bounded BFS each.
pub fn batch_bfs<A: Adjacency + ?Sized>(
    g: &A,
    sources: &[NodeId],
    limit: u32,
    scratch: &mut BatchScratch,
    out: &mut BatchDistances,
) {
    out.offsets.clear();
    out.offsets.push(0);
    out.nodes.clear();
    for &s in sources {
        bfs_bounded(g, s, limit, &mut scratch.buf);
        let start = out.nodes.len();
        out.nodes.extend_from_slice(scratch.buf.visited());
        out.nodes[start..].sort_unstable();
        out.offsets.push(out.nodes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn lane_balls_match_scalar_balls() {
        let g = generators::cycle(70);
        let sources: Vec<NodeId> = (0..65).map(|i| i % 60).collect();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        let mut ball = Vec::new();
        for limit in [0, 2, u32::MAX] {
            batch_bfs(&g, &sources, limit, &mut scratch, &mut out);
            for (lane, &s) in sources.iter().enumerate() {
                out.lane_ball_into(lane, &mut ball);
                assert_eq!(ball, crate::view::ball(&g, s, limit), "lane {lane}, limit {limit}");
            }
        }
    }
}
