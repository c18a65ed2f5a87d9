//! Player views: the radius-`k` ball a player actually knows.
//!
//! A [`PlayerView`] snapshots everything Propositions 2.1/2.2 need to
//! evaluate deviations: the induced ball subgraph `H` as one ball-local
//! [`ncg_graph::CsrGraph`], the center's current purchases and incoming edges
//! (both mapped to local ids), and the center-to-node distances.
//!
//! Every deviation is priced on `H ∖ {center}`. That graph is never
//! materialised: it is the same CSR read with the center skipped, and
//! [`PlayerView::bfs_minus_center`] and
//! [`PlayerView::neighbors_minus_center`] are the only two places that
//! know it.

use ncg_graph::bfs::{bfs_skipping, DistanceBuffer};
use ncg_graph::view::{ball_into, StampMap, Subgraph};
use ncg_graph::{NodeId, INFINITY};

use crate::GameState;

/// Reusable workspace for building [`PlayerView`]s: the BFS buffer, the
/// ball, and the epoch-stamped global→local id map of the induced-ball
/// build.
///
/// One per thread (the dynamics view cache owns one); threading it
/// through [`PlayerView::build_with`] / [`PlayerView::rebuild`] makes
/// view (re)construction allocation-free after warm-up. The id map is
/// sized to the whole state, once.
#[derive(Debug, Clone, Default)]
pub struct ViewScratch {
    buf: DistanceBuffer,
    ball: Vec<NodeId>,
    globals: Vec<NodeId>,
    ids: StampMap,
}

impl ViewScratch {
    /// Fresh scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything player `u` knows at radius `k`, in local coordinates.
///
/// Local ids are dense `0..len()`; [`PlayerView::sub`] holds the
/// local↔global mapping. All strategy-like fields (`purchases`,
/// `incoming`) are sorted local ids.
///
/// Equality is field-for-field — two views compare equal iff they are
/// observationally identical, which is what the incremental view cache
/// relies on (a clean player's cached view *is* the view a fresh
/// [`PlayerView::build`] would produce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayerView {
    /// The induced ball subgraph `H` (one ball-local CSR, rows sorted)
    /// with its id mapping. `H ∖ {center}` is this graph read with the
    /// center skipped; see [`PlayerView::bfs_minus_center`].
    pub sub: Subgraph,
    /// The player, in local coordinates.
    pub center: NodeId,
    /// The player, in global coordinates.
    pub center_global: NodeId,
    /// The knowledge radius the view was built with.
    pub k: u32,
    /// Local ids of the nodes `u` currently buys edges to.
    pub purchases: Vec<NodeId>,
    /// Local ids of players owning an edge towards `u`; these edges
    /// survive any move by `u` and cost her nothing.
    pub incoming: Vec<NodeId>,
    /// `dist[v]` = distance from the center to local node `v` in `H`
    /// (equal to the distance in the full graph, since shortest paths
    /// to nodes at distance `≤ k` stay inside the ball).
    pub dist: Vec<u32>,
}

impl PlayerView {
    /// Builds the view of player `u` at radius `k` from the current
    /// state.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn build(state: &GameState, u: NodeId, k: u32) -> Self {
        Self::build_with(state, u, k, &mut ViewScratch::new())
    }

    /// [`PlayerView::build`] with caller-provided scratch, for hot
    /// loops that build many views.
    pub fn build_with(state: &GameState, u: NodeId, k: u32, scratch: &mut ViewScratch) -> Self {
        let mut view = Self::empty(u, k);
        view.rebuild(state, u, k, scratch);
        view
    }

    /// [`PlayerView::build_with`] from a precomputed radius-`k` ball
    /// (see [`PlayerView::rebuild_from_ball`]).
    pub fn build_from_ball(
        state: &GameState,
        u: NodeId,
        k: u32,
        ball: &[NodeId],
        scratch: &mut ViewScratch,
    ) -> Self {
        let mut view = Self::empty(u, k);
        view.rebuild_from_ball(state, u, k, ball, scratch);
        view
    }

    /// The allocation-free skeleton every build entry point fills in.
    fn empty(u: NodeId, k: u32) -> Self {
        PlayerView {
            sub: Subgraph::default(),
            center: 0,
            center_global: u,
            k,
            purchases: Vec::new(),
            incoming: Vec::new(),
            dist: Vec::new(),
        }
    }

    /// Overwrites this view with the view of player `u` at radius `k`
    /// in the current state, reusing every allocation the old contents
    /// held (CSR, id map, distance and strategy buffers). The result
    /// is field-for-field identical to a fresh [`PlayerView::build`] —
    /// the incremental dynamics engine's refresh path, property-tested
    /// in `ncg-dynamics`.
    ///
    /// One bounded BFS on the global graph finds the ball; its
    /// distances are the view's `dist`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn rebuild(&mut self, state: &GameState, u: NodeId, k: u32, scratch: &mut ViewScratch) {
        let ViewScratch { buf, ball, globals, ids } = scratch;
        ball_into(state.graph(), u, k, buf, ball);
        self.load_ball(state, u, k, ball, ids, globals);
        self.dist.clear();
        self.dist.extend(ball.iter().map(|&v| buf.dist(v)));
    }

    /// [`PlayerView::rebuild`] with the radius-`k` ball of `u` already
    /// computed (ascending global ids, as `ncg_graph::view::ball`
    /// produces). Field-for-field identical to a fresh
    /// [`PlayerView::build`]; `dist` comes from a second BFS, on the
    /// view's CSR. The workspace builds every view with
    /// [`PlayerView::rebuild`], whose one BFS gives both; this entry
    /// point stays for the benchmark ledger's traced recomposition of
    /// LKE certification, until the next change to the benchmark.
    ///
    /// # Panics
    /// Panics if `ball` misses the center or one of her neighbours, and
    /// (in debug) if it is not exactly the radius-`k` ball of `u`.
    pub fn rebuild_from_ball(
        &mut self,
        state: &GameState,
        u: NodeId,
        k: u32,
        ball: &[NodeId],
        scratch: &mut ViewScratch,
    ) {
        debug_assert_eq!(
            ball,
            ncg_graph::view::ball(state.graph(), u, k),
            "precomputed ball disagrees with a scalar ball for player {u}"
        );
        self.load_ball(state, u, k, ball, &mut scratch.ids, &mut scratch.globals);
        self.sub.graph.bfs(self.center, &mut scratch.buf);
        self.dist.clear();
        self.dist.extend_from_slice(scratch.buf.distances());
        debug_assert!(
            self.dist.iter().all(|&d| d != INFINITY),
            "every node of the ball must be reachable from its center"
        );
    }

    /// Everything of a (re)build but `dist`: the induced-ball CSR and
    /// id maps, the center, and her purchases and incoming edges in
    /// local ids.
    fn load_ball(
        &mut self,
        state: &GameState,
        u: NodeId,
        k: u32,
        ball: &[NodeId],
        ids: &mut StampMap,
        globals: &mut Vec<NodeId>,
    ) {
        self.sub.local_to_global.clear();
        self.sub.local_to_global.extend_from_slice(ball);
        self.sub.graph.rebuild_induced(state.graph(), ball, ids);
        self.center = ids.get(u).expect("center is always inside her own ball");
        // Local ids are order-isomorphic to global ids, so the sorted
        // global lists map to sorted local lists.
        let to_local =
            |g: NodeId| ids.get(g).expect("distance-1 neighbours are always inside the ball");
        self.purchases.clear();
        self.purchases.extend(state.strategy(u).iter().map(|&g| to_local(g)));
        state.incoming_into(u, globals);
        self.incoming.clear();
        self.incoming.extend(globals.iter().map(|&g| to_local(g)));
        self.center_global = u;
        self.k = k;
    }

    /// Multi-source BFS in `H ∖ {center}` from `sources` (local ids):
    /// the center keeps `INFINITY` and no path passes through her. This
    /// is the sweep every deviation is priced with (`d_{H'}(u, v) = 1 +`
    /// the source distance of `v`, `H'` being the view after the
    /// deviation). Returns the largest finite distance reached.
    pub fn bfs_minus_center(&self, sources: &[NodeId], buf: &mut DistanceBuffer) -> u32 {
        bfs_skipping(&self.sub.graph, sources, self.center, buf)
    }

    /// The neighbours of local node `v` in `H ∖ {center}`, ascending:
    /// none for the center herself, and `v`'s row minus the center
    /// otherwise.
    pub fn neighbors_minus_center(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let center = self.center;
        let row = if v == center { &[][..] } else { self.sub.graph.neighbors(v) };
        row.iter().copied().filter(move |&w| w != center)
    }

    /// Number of nodes the player sees (including herself) — the
    /// paper's "view size" statistic of Figure 5.
    #[inline]
    pub fn len(&self) -> usize {
        self.sub.len()
    }

    /// Whether the view contains only the player herself.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sub.len() <= 1
    }

    /// The frontier `F`: local ids at distance exactly `k` — the
    /// vertices whose distance a SumNCG player must never increase
    /// beyond `k` (Proposition 2.2). Allocates; single-pass consumers
    /// should prefer [`PlayerView::frontier_iter`].
    pub fn frontier(&self) -> Vec<NodeId> {
        self.frontier_iter().collect()
    }

    /// Allocation-free iterator over the frontier (local ids at
    /// distance exactly `k`, ascending).
    pub fn frontier_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as NodeId).filter(|&v| self.dist[v as usize] == self.k)
    }

    /// All legal purchase targets: every visible node except the
    /// player herself (the strategy space of the local game).
    /// Allocates; single-pass consumers should prefer
    /// [`PlayerView::candidates_iter`].
    pub fn candidates(&self) -> Vec<NodeId> {
        self.candidates_iter().collect()
    }

    /// Allocation-free iterator over the purchase candidates (every
    /// visible node except the center, ascending).
    pub fn candidates_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let center = self.center;
        (0..self.len() as NodeId).filter(move |&v| v != center)
    }

    /// Number of purchase candidates, `len() − 1` (0 for the isolated
    /// player), without materialising them.
    #[inline]
    pub fn candidate_count(&self) -> usize {
        self.len().saturating_sub(1)
    }

    /// The player's current eccentricity *within the view*, i.e. the
    /// usage cost she can actually observe (equals `min(ecc_G(u), k)`
    /// on connected graphs).
    pub fn ecc_in_view(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// The player's current status (sum of distances) within the view.
    pub fn status_in_view(&self) -> u64 {
        self.dist.iter().map(|&d| d as u64).sum()
    }

    /// Maps a local strategy back to global node ids (sorted).
    pub fn strategy_to_global(&self, local: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = local.iter().map(|&l| self.sub.to_global(l)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GameState;

    fn path_state(n: usize) -> GameState {
        // Path 0-1-…-(n-1); player i buys the edge to i+1.
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, sigma) in strategies.iter_mut().enumerate().take(n - 1) {
            sigma.push((i + 1) as NodeId);
        }
        GameState::from_strategies(n, strategies)
    }

    #[test]
    #[allow(clippy::identity_op)] // 0 + 1 + 1 + 2 + 2 spells out the per-node distances
    fn view_of_path_center() {
        let s = path_state(9);
        let v = PlayerView::build(&s, 4, 2);
        assert_eq!(v.len(), 5); // nodes 2..=6
        assert_eq!(v.sub.local_to_global, vec![2, 3, 4, 5, 6]);
        assert_eq!(v.center_global, 4);
        assert_eq!(v.ecc_in_view(), 2);
        assert_eq!(v.status_in_view(), 0 + 1 + 1 + 2 + 2);
    }

    #[test]
    fn purchases_and_incoming_are_local_and_correct() {
        let s = path_state(9);
        let v = PlayerView::build(&s, 4, 2);
        // Player 4 buys the edge to 5; player 3 bought the edge to 4.
        let l5 = v.sub.to_local(5).unwrap();
        let l3 = v.sub.to_local(3).unwrap();
        assert_eq!(v.purchases, vec![l5]);
        assert_eq!(v.incoming, vec![l3]);
    }

    #[test]
    fn frontier_is_distance_exactly_k() {
        let s = path_state(9);
        let v = PlayerView::build(&s, 4, 2);
        let mut frontier_global: Vec<NodeId> =
            v.frontier().iter().map(|&l| v.sub.to_global(l)).collect();
        frontier_global.sort_unstable();
        assert_eq!(frontier_global, vec![2, 6]);
    }

    #[test]
    fn full_knowledge_view_sees_everything() {
        let s = GameState::cycle_successor(8);
        let v = PlayerView::build(&s, 3, 1000);
        assert_eq!(v.len(), 8);
        assert!(v.frontier().is_empty());
        assert_eq!(v.ecc_in_view(), 4);
    }

    #[test]
    fn minus_center_reads_detach_the_center_only() {
        let s = GameState::cycle_successor(6);
        let v = PlayerView::build(&s, 0, 2);
        // The ball of radius 2 on a 6-cycle is a path of 5 nodes with
        // the center in the middle; minus the center, 4 edges minus
        // the 2 incident to the center = 2.
        assert_eq!(v.sub.graph.edge_count(), 4);
        assert_eq!(v.neighbors_minus_center(v.center).count(), 0);
        let degrees: usize =
            (0..v.len() as NodeId).map(|x| v.neighbors_minus_center(x).count()).sum();
        assert_eq!(degrees, 2 * 2);
        // A BFS from one side never crosses the center.
        let mut buf = DistanceBuffer::new();
        let left = v.sub.to_local(5).unwrap();
        v.bfs_minus_center(&[left], &mut buf);
        assert_eq!(buf.dist(v.center), INFINITY);
        assert_eq!(buf.dist(v.sub.to_local(4).unwrap()), 1);
        assert_eq!(buf.dist(v.sub.to_local(1).unwrap()), INFINITY);
    }

    #[test]
    fn candidates_exclude_center() {
        let s = GameState::cycle_successor(5);
        let v = PlayerView::build(&s, 2, 1);
        assert_eq!(v.len(), 3);
        let cands = v.candidates();
        assert_eq!(cands.len(), 2);
        assert!(!cands.contains(&v.center));
    }

    #[test]
    fn strategy_to_global_round_trip() {
        let s = GameState::cycle_successor(7);
        let v = PlayerView::build(&s, 3, 2);
        let locals = v.candidates();
        let globals = v.strategy_to_global(&locals);
        assert_eq!(globals.len(), locals.len());
        for g in &globals {
            assert!(v.sub.to_local(*g).is_some());
        }
    }

    #[test]
    fn rebuild_matches_fresh_build_field_for_field() {
        let mut s = GameState::cycle_successor(10);
        let mut scratch = ViewScratch::new();
        // Start from one player's view, then retarget the same
        // allocation across players, radii, and a state mutation.
        let mut v = PlayerView::build_with(&s, 0, 2, &mut scratch);
        for k in [1u32, 3, 100] {
            for u in 0..10 {
                v.rebuild(&s, u, k, &mut scratch);
                assert_eq!(v, PlayerView::build(&s, u, k), "u={u} k={k}");
            }
        }
        s.set_strategy(3, vec![7]);
        for u in 0..10 {
            v.rebuild(&s, u, 2, &mut scratch);
            assert_eq!(v, PlayerView::build(&s, u, 2), "post-move u={u}");
        }
    }

    #[test]
    fn build_from_ball_matches_plain_build() {
        let s = GameState::cycle_successor(10);
        let mut scratch = ViewScratch::new();
        for k in [1u32, 2, 100] {
            for u in 0..10 {
                let ball = ncg_graph::view::ball(s.graph(), u, k);
                let from_ball = PlayerView::build_from_ball(&s, u, k, &ball, &mut scratch);
                assert_eq!(from_ball, PlayerView::build(&s, u, k), "u={u} k={k}");
                // And the rebuild-in-place flavour.
                let mut v = PlayerView::build(&s, (u + 1) % 10, 1);
                v.rebuild_from_ball(&s, u, k, &ball, &mut scratch);
                assert_eq!(v, PlayerView::build(&s, u, k), "rebuild u={u} k={k}");
            }
        }
    }

    #[test]
    fn iterator_accessors_match_vec_accessors() {
        let s = path_state(9);
        let v = PlayerView::build(&s, 4, 2);
        assert_eq!(v.frontier_iter().collect::<Vec<_>>(), v.frontier());
        assert_eq!(v.candidates_iter().collect::<Vec<_>>(), v.candidates());
        assert_eq!(v.candidate_count(), v.candidates().len());
        let isolated = PlayerView::build(&GameState::new(3), 1, 5);
        assert_eq!(isolated.candidate_count(), 0);
        assert_eq!(isolated.candidates_iter().count(), 0);
    }

    #[test]
    fn view_size_one_for_isolated_player() {
        let s = GameState::new(3);
        let v = PlayerView::build(&s, 1, 5);
        assert!(v.is_empty());
        assert_eq!(v.len(), 1);
        assert_eq!(v.ecc_in_view(), 0);
        assert!(v.candidates().is_empty());
    }
}
