//! The incremental view cache: dirty-ball invalidation across rounds,
//! so a player whose view cannot have changed is never re-solved.
//!
//! `PlayerView::build` is `O(ball)` per player, so rebuilding all `n`
//! views every round makes a dynamics round `O(n·m)` even when almost
//! nobody moves — and the paper's experiments (Figures 5–10) converge
//! in ≤ 7 rounds with sharply decaying per-round move counts, so most
//! of that work re-derives views that cannot have changed. The cache
//! keeps one dirty bit per player and, after a move, marks dirty
//! exactly the players whose view *can* have changed. Only dirty
//! players are refreshed and solved, on one view slot rebuilt in place.
//!
//! **Invalidation radius argument** (DESIGN.md §6): the view of `u` is
//! a function of (a) the subgraph induced by her radius-`k` ball, (b)
//! her own purchase list, and (c) her incoming-ownership set. When
//! player `v` moves, every changed quantity is anchored at a *touched
//! endpoint* — `v` herself plus the targets in the symmetric
//! difference of her old and new strategies ([`ncg_core::EdgeDiff`]).
//! A ball `B(u, k)` can only gain, lose, or re-wire vertices if some
//! touched endpoint lies within distance `k` of `u`; `incoming(u)`
//! changes only if `u` is adjacent to `v` (distance 1) or is herself a
//! touched target. Every changed edge, an ownership-only flip
//! included, joins two touched endpoints, so a shortest path to the
//! touched set, cut at the first touched endpoint it meets, uses no
//! changed edge: the distance to the touched set is the same before
//! and after the move. One bounded multi-source BFS from the touched
//! set on the new graph, over the shared [`ncg_graph::bfs`] kernel,
//! therefore marks every player whose view could differ, in
//! `O(ball(touched, k))` instead of `O(n·m)`.
//!
//! A *clean* player's view is bit-identical to the one she was last
//! solved on (property-tested in `tests/view_cache_props.rs`), so with
//! a deterministic responder her best response — and hence her
//! decision not to move — is unchanged: the runner skips view
//! construction *and* the solver call for her entirely.

use ncg_core::{EdgeDiff, GameState, PlayerView, ViewScratch};
use ncg_graph::bfs::{bfs_multi_bounded, DistanceBuffer};
use ncg_graph::NodeId;

/// Cache statistics, exposed for benchmarks and the skip-proof tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Views refreshed: one per solved turn.
    pub rebuilds: u64,
    /// Player turns skipped because the player was provably clean.
    pub skips: u64,
}

/// Per-player dirty bits plus the one view slot the runner solves on.
///
/// Protocol (what [`crate::run_with`] does each turn of player `u`):
///
/// 1. [`ViewCache::is_clean`]`(u)` — if `true`, skip the turn (call
///    [`ViewCache::note_skip`] for the statistics); the player had no
///    improving move when last solved and nothing in her ball changed.
/// 2. Otherwise [`ViewCache::refresh`]`(state, u)` to get her current
///    view (the slot rebuilt in place, reusing its allocations) and
///    solve on it. The refresh clears the dirty bit, so a player left
///    unmoved stays clean until a later move dirties her ball. The
///    view is only valid until the next refresh.
/// 3. On an accepted move, route the mutation through
///    [`ViewCache::apply_move`] instead of calling
///    [`GameState::set_strategy`] directly, so the cache can mark the
///    touched balls dirty.
///
/// `Default` is a cache for zero players, to be re-armed by
/// [`ViewCache::reset`].
#[derive(Debug, Clone, Default)]
pub struct ViewCache {
    k: u32,
    view: PlayerView,
    dirty: Vec<bool>,
    scratch: ViewScratch,
    bfs: DistanceBuffer,
    touched: Vec<NodeId>,
    stats: CacheStats,
}

impl ViewCache {
    /// A cache for `n` players at knowledge radius `k`; every player
    /// starts dirty (nothing has been solved yet).
    pub fn new(n: usize, k: u32) -> Self {
        ViewCache { k, dirty: vec![true; n], ..ViewCache::default() }
    }

    /// The knowledge radius the cache was built for.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Re-arms the cache for a fresh run of `n` players at radius `k`,
    /// keeping every allocation the previous run grew: the view slot
    /// (its next [`ViewCache::refresh`] rebuilds in place into the
    /// grown buffers), the BFS buffer, and the view scratch.
    /// Every player starts dirty and the statistics restart at zero,
    /// so a reset cache is observationally identical to
    /// [`ViewCache::new`] — the warm-start soundness argument of
    /// DESIGN.md §7 rests on exactly this equivalence.
    pub fn reset(&mut self, n: usize, k: u32) {
        self.k = k;
        self.dirty.clear();
        self.dirty.resize(n, true);
        self.touched.clear();
        self.stats = CacheStats::default();
    }

    /// Whether player `u`'s view is unchanged since she was last
    /// solved *and* she had no improving move then.
    #[inline]
    pub fn is_clean(&self, u: NodeId) -> bool {
        !self.dirty[u as usize]
    }

    /// Records a skipped turn (statistics only).
    #[inline]
    pub fn note_skip(&mut self) {
        self.stats.skips += 1;
    }

    /// Returns player `u`'s up-to-date view, rebuilt in place in the
    /// one slot (reusing its allocations), and clears her dirty bit.
    /// The caller is expected to solve on the returned view; the
    /// clean-skip invariant relies on it.
    pub fn refresh(&mut self, state: &GameState, u: NodeId) -> &PlayerView {
        self.stats.rebuilds += 1;
        self.dirty[u as usize] = false;
        self.view.rebuild(state, u, self.k, &mut self.scratch);
        &self.view
    }

    /// Applies player `u`'s accepted move through the cache: mutates
    /// the state, then marks dirty every player within distance `k`
    /// of the returned [`EdgeDiff::touched`] endpoints in the new
    /// graph — the same set as in the old graph (see the module doc).
    pub fn apply_move(
        &mut self,
        state: &mut GameState,
        u: NodeId,
        new_strategy: Vec<NodeId>,
    ) -> EdgeDiff {
        let diff = state.set_strategy(u, new_strategy);
        self.touched.clear();
        self.touched.extend(diff.touched());
        bfs_multi_bounded(state.graph(), &self.touched, self.k, &mut self.bfs);
        for &v in self.bfs.visited() {
            self.dirty[v as usize] = true;
        }
        diff
    }

    /// Rebuild/skip counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::GameState;

    #[test]
    fn all_players_start_dirty_and_refresh_cleans() {
        let state = GameState::cycle_successor(6);
        let mut cache = ViewCache::new(6, 2);
        assert!((0..6).all(|u| !cache.is_clean(u)));
        let view = cache.refresh(&state, 3);
        assert_eq!(view, &PlayerView::build(&state, 3, 2));
        assert!(cache.is_clean(3));
        assert_eq!(cache.stats().rebuilds, 1);
    }

    #[test]
    fn apply_move_dirties_exactly_the_touched_balls() {
        // Long path, k = 1: a move at one end must not dirty the far end.
        let n = 12;
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, sigma) in strategies.iter_mut().enumerate().take(n - 1) {
            sigma.push((i + 1) as NodeId);
        }
        let mut state = GameState::from_strategies(n, strategies);
        let mut cache = ViewCache::new(n, 1);
        for u in 0..n as NodeId {
            cache.refresh(&state, u);
        }
        assert!((0..n as NodeId).all(|u| cache.is_clean(u)));
        // Player 0 swaps her edge from 1 to 2: touched = {0, 1, 2}.
        let diff = cache.apply_move(&mut state, 0, vec![2]);
        assert_eq!(diff.added, vec![2]);
        assert_eq!(diff.removed, vec![1]);
        // Within distance 1 of {0,1,2} in old or new graph: 0,1,2,3.
        for u in 0..=3 {
            assert!(!cache.is_clean(u), "player {u} must be dirty");
        }
        for u in 4..n as NodeId {
            assert!(cache.is_clean(u), "player {u} must stay clean");
        }
        // Refreshed dirty views match fresh builds.
        for u in 0..n as NodeId {
            assert_eq!(cache.refresh(&state, u), &PlayerView::build(&state, u, 1));
        }
    }

    #[test]
    fn clean_views_stay_identical_to_fresh_builds_after_moves() {
        // Each player's view as of her last refresh: a clean player's
        // must still be what a fresh build returns after the move.
        let mut state = GameState::cycle_successor(10);
        let k = 2;
        let mut cache = ViewCache::new(10, k);
        let snapshots: Vec<PlayerView> =
            (0..10).map(|u| cache.refresh(&state, u).clone()).collect();
        cache.apply_move(&mut state, 4, vec![0, 5]);
        let mut clean = 0;
        for (u, snapshot) in (0..10u32).zip(&snapshots) {
            if cache.is_clean(u) {
                clean += 1;
                assert_eq!(
                    snapshot,
                    &PlayerView::build(&state, u, k),
                    "clean player {u} holds a stale view"
                );
            }
        }
        assert!(clean > 0, "the move must leave someone clean");
    }

    #[test]
    fn reset_rearms_like_a_fresh_cache() {
        let state_a = GameState::cycle_successor(8);
        let mut cache = ViewCache::new(8, 2);
        for u in 0..8 {
            cache.refresh(&state_a, u);
        }
        assert!(cache.stats().rebuilds > 0);
        // Re-arm for a different state, size, and radius.
        let state_b = GameState::star_center_owned(6);
        cache.reset(6, 3);
        assert_eq!(cache.k(), 3);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!((0..6).all(|u| !cache.is_clean(u)));
        for u in 0..6 {
            assert_eq!(
                cache.refresh(&state_b, u),
                &PlayerView::build(&state_b, u, 3),
                "warm refresh of player {u} must equal a fresh build"
            );
        }
        // Growing again is also fine.
        cache.reset(8, 2);
        for u in 0..8 {
            assert_eq!(cache.refresh(&state_a, u), &PlayerView::build(&state_a, u, 2));
        }
    }

    #[test]
    fn ownership_only_move_dirties_the_target() {
        // 0 and 1 both own (0,1); when 1 drops her copy the graph is
        // unchanged but incoming(0) loses 1, so 0 must be re-solved.
        let mut state = GameState::from_strategies(3, vec![vec![1], vec![0, 2], vec![]]);
        let mut cache = ViewCache::new(3, 1);
        for u in 0..3 {
            cache.refresh(&state, u);
        }
        let before = state.graph().clone();
        let diff = cache.apply_move(&mut state, 1, vec![2]);
        assert_eq!(state.graph(), &before, "graph must be unchanged");
        assert_eq!(diff.ownership, vec![0]);
        assert!(!cache.is_clean(0));
        assert_eq!(cache.refresh(&state, 0), &PlayerView::build(&state, 0, 1));
    }
}
