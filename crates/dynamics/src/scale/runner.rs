//! Simultaneous-move dynamics over [`ScaleState`] — the scale tier's
//! round loop.
//!
//! ## Round structure (`RoundMode::Simultaneous`)
//!
//! The dirty list is taken in canonical player order, one fixed-size
//! window of players at a time. A player is *marked* once she lies
//! within distance `k`, in the frozen start-of-round network, of the
//! touched set (mover + strategy symmetric difference) of a move
//! accepted earlier in the round. For each window:
//!
//! 1. **Propose** — players already marked are *skipped*: their ball
//!    may have changed this round, so the resolve would drop anything
//!    they proposed. Every other player computes a greedy best
//!    response against the *frozen* network, in parallel, one item per
//!    player. The window does not depend on the worker count and the
//!    vendored rayon map preserves input order, so proposals and
//!    counters are byte-identical for any `NCG_THREADS`.
//! 2. **Resolve** — the window's proposals are scanned in canonical
//!    player order. A proposal is *accepted*, extending the marks,
//!    unless its player is marked by a lower-id move accepted in the
//!    same window — then it was computed on stale information and is
//!    *conflicted* (dropped, player retried next round). Acceptance is
//!    safe: a changed edge is incident to a touched node, so any path
//!    from an unmarked player through a changed edge is longer than
//!    `k`, her radius-`k` ball is bit-identical in the frozen and
//!    updated networks, and her proposal's exact cost delta still
//!    holds.
//!
//! After the last window:
//!
//! 3. **Apply** — accepted moves land in one `O(n + m)` SoA rebuild.
//! 4. **Dirty** — the marks are the next round's dirty set: the
//!    radius-`k` ball of the round's touched nodes. Every changed edge
//!    joins two touched nodes, so a shortest path to the touched set,
//!    cut at the first touched node it meets, uses no changed edge:
//!    the ball is the same in the frozen and the updated network. It
//!    holds every skipped and conflicted player; everyone outside it
//!    kept their ball bit-identical and provably stands pat.
//!
//! **The window size changes no output.** Marks only grow within a
//! round, and only accepted moves of lower-id players add them. A
//! player marked when her window starts would be dropped by the
//! resolve if she were priced, so skipping her changes no acceptance,
//! and she is dirty next round either way. By induction over
//! canonical order, the accepted moves, their order, the marks, the
//! next dirty set and the profile fingerprint are the same for every
//! window size, up to one window holding the whole dirty list — the
//! all-at-once round. Convergence ("no proposal") is unchanged too:
//! the lowest-id player with an improving response has no accepted
//! move before her, so she is never skipped. Only the counters
//! `skipped`, `proposals` and `conflicts` depend on the window.
//!
//! `RoundMode::Sequential` is the small-`n` reference mode: players
//! move one at a time in ascending order within a round (each seeing
//! all earlier moves), which matches the exact tier's round-robin
//! discipline and anchors the sequential-vs-simultaneous parity
//! tests. It rebuilds the SoA per move, so it is not meant for
//! million-node inputs.
//!
//! Convergence and cycling reuse the exact tier's [`Outcome`]
//! vocabulary and its [`CycleDetector`]: every accepted move is
//! journaled as it is resolved, and a repeated end-of-round profile
//! fingerprint counts as a cycle only once the journal confirms the
//! two profiles are equal, exactly as in the exact tier.

use std::sync::Mutex;

use ncg_core::{GameSpec, PlayerView, ViewScratch};
use ncg_graph::{CsrGraph, NodeId};
use rayon::prelude::*;

use super::responder::{respond, ScaleMove, ScaleScratch};
use super::state::{ApplyScratch, ScaleState};
use crate::{CycleDetector, Outcome};

/// Dirty players per resolve window. Any size accepts the same moves
/// (see the module doc). Smaller windows skip more players that an
/// earlier window already marked, but issue more parallel maps, each
/// with a fixed cost (waking the pool's parked helpers, DESIGN.md §8)
/// and a tail in which the window's last responses run alone. Fixed,
/// because the per-round counters depend on it and must not depend on
/// the worker count.
const WINDOW: usize = 512;

/// How players take turns within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// All dirty players propose against the frozen round-start
    /// network; colliding proposals are dropped deterministically
    /// (canonical player order wins). The scale mode.
    Simultaneous,
    /// Players move one at a time in ascending order, each seeing all
    /// earlier moves — the exact tier's discipline, kept as the
    /// small-`n` parity reference.
    Sequential,
}

/// Configuration of a scale-tier dynamics run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Game parameters (uniform any-subset scenarios only).
    pub spec: GameSpec,
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// Turn-taking discipline.
    pub mode: RoundMode,
}

impl ScaleConfig {
    /// Defaults: simultaneous rounds, 64-round cap.
    pub fn new(spec: GameSpec) -> Self {
        ScaleConfig { spec, max_rounds: 64, mode: RoundMode::Simultaneous }
    }
}

/// Per-round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRoundStats {
    /// Players dirty at the start of the round: each is either priced
    /// or skipped.
    pub dirty: usize,
    /// Responses actually priced that strictly improve: `applied +
    /// conflicts`. Skipped players are not priced, so this is not the
    /// number of dirty players who could improve.
    pub proposals: usize,
    /// Dirty players left unpriced because a move accepted in an
    /// earlier window had already marked them (simultaneous mode only).
    pub skipped: usize,
    /// Proposals applied after conflict resolution.
    pub applied: usize,
    /// Proposals dropped inside their own window, because a lower-id
    /// move accepted in that window marked the player (simultaneous
    /// mode only).
    pub conflicts: usize,
}

/// Players in the final network's [`ViewSample`].
const VIEW_SAMPLE: usize = 64;

/// Ball sizes of a deterministic 64-player sample (the stand-in for
/// the exact tier's exhaustive min/avg view statistics, which are
/// `O(n·m)` and unaffordable at this tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewSample {
    /// Number of sampled players (`min(64, n)`).
    pub lanes: usize,
    /// Smallest sampled radius-`k` ball.
    pub min: usize,
    /// Largest sampled radius-`k` ball.
    pub max: usize,
    /// Mean sampled ball size.
    pub avg: f64,
}

/// Result of [`run_scale`].
#[derive(Debug, Clone)]
pub struct ScaleRunResult {
    /// How the run ended (same vocabulary as the exact tier).
    pub outcome: Outcome,
    /// Per-round accounting, in order.
    pub rounds: Vec<ScaleRoundStats>,
    /// Total moves applied.
    pub total_moves: usize,
    /// Total strictly improving proposals priced (applied +
    /// conflicted).
    pub total_proposals: usize,
    /// Total dirty players skipped unpriced.
    pub total_skipped: usize,
    /// Total conflicted proposals.
    pub total_conflicts: usize,
    /// Sampled ball statistics of the final network.
    pub view_sample: ViewSample,
}

/// Per-worker scratch: one view slot, rebuilt in place for each
/// player the worker prices ([`PlayerView::rebuild`], the exact tier's
/// builder), its [`ViewScratch`], and the responder's buffers.
#[derive(Debug, Default)]
struct WorkerScratch {
    view: PlayerView,
    views: ViewScratch,
    responder: ScaleScratch,
}

impl WorkerScratch {
    /// Player `u`'s greedy response on her radius-`k` view of `state`.
    fn respond(
        &mut self,
        state: &ScaleState,
        config: &ScaleConfig,
        u: NodeId,
    ) -> Option<ScaleMove> {
        self.view.rebuild(state, u, config.spec.k, &mut self.views);
        respond(&config.spec, &self.view, &mut self.responder)
    }
}

/// Checks a worker scratch out of the shared pool and returns it on
/// drop, so buffers persist across rounds instead of being
/// reallocated per parallel task.
struct PoolGuard<'a> {
    pool: &'a Mutex<Vec<WorkerScratch>>,
    ws: Option<WorkerScratch>,
}

impl<'a> PoolGuard<'a> {
    fn take(pool: &'a Mutex<Vec<WorkerScratch>>) -> Self {
        let ws = pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        PoolGuard { pool, ws: Some(ws) }
    }

    fn get(&mut self) -> &mut WorkerScratch {
        self.ws.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.lock().expect("scratch pool poisoned").push(ws);
        }
    }
}

/// Epoch-stamped bounded multi-source BFS used for interference and
/// dirty marking: `O(marked)` per call, no per-call `O(n)` reset, and
/// repeated calls within one epoch accumulate the *union* of balls
/// (distances only ever shrink, with re-enqueueing on improvement so
/// later, closer sources extend the marked region correctly). That
/// accumulation is why it is not the workspace's BFS kernel, which
/// starts every call afresh (DESIGN.md §12).
#[derive(Debug, Clone, Default)]
struct MarkScratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<NodeId>,
    /// Log of nodes stamped in the current epoch.
    marked: Vec<NodeId>,
}

impl MarkScratch {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.marked.clear();
    }

    fn is_marked(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Marks every node within distance `k` of `sources` in `g`.
    fn mark_ball(&mut self, g: &CsrGraph, sources: &[NodeId], k: u32) {
        self.queue.clear();
        for &s in sources {
            if self.stamp[s as usize] != self.epoch {
                self.stamp[s as usize] = self.epoch;
                self.marked.push(s);
                self.dist[s as usize] = 0;
                self.queue.push(s);
            } else if self.dist[s as usize] > 0 {
                self.dist[s as usize] = 0;
                self.queue.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            let d = self.dist[v as usize];
            if d == k {
                continue;
            }
            let nd = d + 1;
            for &w in g.neighbors(v) {
                if self.stamp[w as usize] != self.epoch {
                    self.stamp[w as usize] = self.epoch;
                    self.marked.push(w);
                    self.dist[w as usize] = nd;
                    self.queue.push(w);
                } else if self.dist[w as usize] > nd {
                    self.dist[w as usize] = nd;
                    self.queue.push(w);
                }
            }
        }
    }
}

/// All allocations [`run_scale`] needs, reusable across runs (the
/// sweep engine keeps one per repetition slot, like the exact tier's
/// [`CacheArena`](crate::CacheArena)).
#[derive(Debug, Default)]
pub struct ScaleArena {
    pool: Mutex<Vec<WorkerScratch>>,
    seq: WorkerScratch,
    apply: ApplyScratch,
    mark: MarkScratch,
    dirty: Vec<NodeId>,
    next_dirty: Vec<NodeId>,
    touched: Vec<NodeId>,
    accepted: Vec<(NodeId, Vec<NodeId>)>,
}

impl ScaleArena {
    /// Fresh arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `{u} ∪ (old Δ new)` of a move, ascending — the nodes whose
/// incident edges or ownership can change (same set as the exact
/// tier's [`EdgeDiff::touched`](ncg_core::EdgeDiff::touched)).
fn touched_of(u: NodeId, old: &[NodeId], new: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), b) if b.is_none() || a < *b.unwrap() => {
                out.push(a);
                i += 1;
            }
            (_, Some(&b)) => {
                out.push(b);
                j += 1;
            }
            _ => unreachable!(),
        }
    }
    let pos = out.binary_search(&u).unwrap_err();
    out.insert(pos, u);
}

/// View sizes of `min(64, n)` evenly spaced players, once per run, in
/// a worker's view slot. The slot's scratch is sized to `n` once;
/// after that a rebuild costs in proportion to the ball it reaches,
/// not to `n`.
fn sample_views(state: &ScaleState, k: u32, ws: &mut WorkerScratch) -> ViewSample {
    let n = state.n();
    if n == 0 {
        return ViewSample { lanes: 0, min: 0, max: 0, avg: 0.0 };
    }
    let lanes = n.min(VIEW_SAMPLE);
    let sizes: Vec<usize> = (0..lanes)
        .map(|i| {
            ws.view.rebuild(state, (i * n / lanes) as NodeId, k, &mut ws.views);
            ws.view.len()
        })
        .collect();
    ViewSample {
        lanes,
        min: sizes.iter().copied().min().unwrap_or(0),
        max: sizes.iter().copied().max().unwrap_or(0),
        avg: sizes.iter().sum::<usize>() as f64 / lanes as f64,
    }
}

/// Round `round`, simultaneous, resolved `window` dirty players at a
/// time. Returns the stats; mutates `state` and the arena's dirty
/// bookkeeping, and journals every accepted move in `detector`.
fn simultaneous_round(
    state: &mut ScaleState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
    detector: &mut CycleDetector,
    round: usize,
    window: usize,
) -> ScaleRoundStats {
    let k = config.spec.k;
    let n = state.n();
    let dirty_count = arena.dirty.len();
    let (mut proposals, mut skipped, mut conflicts) = (0usize, 0usize, 0usize);

    arena.mark.begin(n);
    arena.accepted.clear();
    let pool = &arena.pool;
    let frozen: &ScaleState = state;
    for players in arena.dirty.chunks(window) {
        // Phase 1: skip the players already marked; the rest propose
        // against the frozen network in parallel (order-preserving map
        // ⇒ canonical order).
        let live: Vec<NodeId> =
            players.iter().copied().filter(|&u| !arena.mark.is_marked(u)).collect();
        skipped += players.len() - live.len();
        let moves: Vec<Option<ScaleMove>> = live
            .into_par_iter()
            .map_init(|| PoolGuard::take(pool), |guard, u| guard.get().respond(frozen, config, u))
            .collect();

        // Phase 2: resolve the window in canonical order on the frozen
        // network, extending the marks.
        for mv in moves.into_iter().flatten() {
            proposals += 1;
            if arena.mark.is_marked(mv.player) {
                conflicts += 1;
                continue;
            }
            let old = frozen.strategy(mv.player);
            touched_of(mv.player, old, &mv.strategy, &mut arena.touched);
            detector.record_move(round, mv.player, old, &mv.strategy);
            arena.mark.mark_ball(frozen.graph(), &arena.touched, k);
            arena.accepted.push((mv.player, mv.strategy));
        }
    }
    let applied = arena.accepted.len();
    let stats = ScaleRoundStats { dirty: dirty_count, proposals, skipped, applied, conflicts };
    if proposals == 0 {
        return stats;
    }

    // Phase 3: one batched SoA rebuild.
    state.apply_moves(&arena.accepted, &mut arena.apply);

    // Phase 4: the marks are the next round's dirty set (see the
    // module doc); they hold every skipped and conflicted player.
    arena.dirty.clear();
    arena.dirty.extend_from_slice(&arena.mark.marked);
    arena.dirty.sort_unstable();
    stats
}

/// Round `round`, sequential: ascending order, each mover immediately
/// applied (full SoA rebuild per move — reference mode, small `n`).
fn sequential_round(
    state: &mut ScaleState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
    detector: &mut CycleDetector,
    round: usize,
) -> ScaleRoundStats {
    let k = config.spec.k;
    let n = state.n();
    let dirty_count = arena.dirty.len();
    arena.mark.begin(n);
    let mut applied = 0usize;
    arena.next_dirty.clear();
    std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);
    for i in 0..arena.next_dirty.len() {
        let u = arena.next_dirty[i];
        let Some(mv) = arena.seq.respond(state, config, u) else {
            continue;
        };
        let old = state.strategy(u);
        touched_of(u, old, &mv.strategy, &mut arena.touched);
        detector.record_move(round, u, old, &mv.strategy);
        // One pass, before the move: every changed edge joins two
        // touched nodes, so the touched set's radius-k ball is the same
        // in the old and the new network. The epoch accumulates the
        // union over the round's moves.
        arena.mark.mark_ball(state.graph(), &arena.touched, k);
        state.apply_moves(&[(u, mv.strategy)], &mut arena.apply);
        applied += 1;
    }
    arena.dirty.clear();
    arena.dirty.extend_from_slice(&arena.mark.marked);
    arena.dirty.sort_unstable();
    arena.dirty.dedup();
    ScaleRoundStats { dirty: dirty_count, proposals: applied, skipped: 0, applied, conflicts: 0 }
}

/// Runs the scale-tier dynamics to convergence, a detected cycle, or
/// the round cap. Deterministic for a given `(state, config)` —
/// independent of `NCG_THREADS` and of whether a previous run shared
/// the arena.
pub fn run_scale(
    state: &mut ScaleState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
) -> ScaleRunResult {
    run_rounds(state, config, arena, |state, arena, detector, round| match config.mode {
        RoundMode::Simultaneous => {
            simultaneous_round(state, config, arena, detector, round, WINDOW)
        }
        RoundMode::Sequential => sequential_round(state, config, arena, detector, round),
    })
}

/// [`run_scale`]'s round loop, with the round itself supplied by the
/// caller (the tests drive it with other windows, with the
/// all-at-once oracle and with crafted rounds). `round(state, arena,
/// detector, round_no)` plays round `round_no` and journals every
/// move it accepts in `detector`.
fn run_rounds(
    state: &mut ScaleState,
    config: &ScaleConfig,
    arena: &mut ScaleArena,
    mut round: impl FnMut(
        &mut ScaleState,
        &mut ScaleArena,
        &mut CycleDetector,
        usize,
    ) -> ScaleRoundStats,
) -> ScaleRunResult {
    let n = state.n();
    let mut detector = CycleDetector::new(n, |u| state.strategy(u));
    arena.dirty.clear();
    arena.dirty.extend(0..n as NodeId);

    let mut rounds = Vec::new();
    let mut total_moves = 0usize;
    let mut total_proposals = 0usize;
    let mut total_skipped = 0usize;
    let mut total_conflicts = 0usize;
    let mut outcome = Outcome::MaxRoundsExceeded { rounds: config.max_rounds };
    for round_no in 1..=config.max_rounds {
        let stats = round(state, arena, &mut detector, round_no);
        rounds.push(stats);
        total_moves += stats.applied;
        total_proposals += stats.proposals;
        total_skipped += stats.skipped;
        total_conflicts += stats.conflicts;
        if stats.proposals == 0 {
            outcome = Outcome::Converged { rounds: round_no };
            break;
        }
        if let Some(first_seen) = detector.check_round(round_no, |u| state.strategy(u)) {
            outcome = Outcome::Cycled { first_seen, repeated_at: round_no };
            break;
        }
    }
    let view_sample = sample_views(state, config.spec.k, PoolGuard::take(&arena.pool).get());
    ScaleRunResult {
        outcome,
        rounds,
        total_moves,
        total_proposals,
        total_skipped,
        total_conflicts,
        view_sample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::GameState;
    use ncg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The all-at-once round the windows replaced, kept as the oracle
    /// of [`windows_accept_exactly_the_all_at_once_moves`]: every dirty
    /// player proposes against the frozen network, the proposals
    /// resolve in canonical order, and the next dirty set is built
    /// the long way — touched balls in the frozen *and* the updated
    /// network, plus the conflicted players.
    fn all_at_once_round(
        state: &mut ScaleState,
        config: &ScaleConfig,
        arena: &mut ScaleArena,
        detector: &mut CycleDetector,
        round: usize,
    ) -> ScaleRoundStats {
        let k = config.spec.k;
        let n = state.n();
        let dirty_count = arena.dirty.len();
        let mut proposals = Vec::new();
        for &u in &arena.dirty {
            proposals.extend(arena.seq.respond(state, config, u));
        }
        let proposal_count = proposals.len();
        if proposal_count == 0 {
            return ScaleRoundStats {
                dirty: dirty_count,
                proposals: 0,
                skipped: 0,
                applied: 0,
                conflicts: 0,
            };
        }

        arena.mark.begin(n);
        arena.accepted.clear();
        let mut touched_all = Vec::new();
        let mut conflicted = Vec::new();
        for mv in proposals {
            if arena.mark.is_marked(mv.player) {
                conflicted.push(mv.player);
                continue;
            }
            let old = state.strategy(mv.player);
            touched_of(mv.player, old, &mv.strategy, &mut arena.touched);
            detector.record_move(round, mv.player, old, &mv.strategy);
            arena.mark.mark_ball(state.graph(), &arena.touched, k);
            touched_all.extend_from_slice(&arena.touched);
            arena.accepted.push((mv.player, mv.strategy));
        }
        let applied = arena.accepted.len();

        arena.next_dirty.clear();
        arena.next_dirty.extend_from_slice(&arena.mark.marked);
        state.apply_moves(&arena.accepted, &mut arena.apply);
        arena.mark.begin(n);
        arena.mark.mark_ball(state.graph(), &touched_all, k);
        arena.next_dirty.extend_from_slice(&arena.mark.marked);
        arena.next_dirty.extend_from_slice(&conflicted);
        arena.next_dirty.sort_unstable();
        arena.next_dirty.dedup();
        std::mem::swap(&mut arena.dirty, &mut arena.next_dirty);
        ScaleRoundStats {
            dirty: dirty_count,
            proposals: proposal_count,
            skipped: 0,
            applied,
            conflicts: conflicted.len(),
        }
    }

    /// A sparse `G(n, avg_deg/(n-1))` state, edge ownership alternating
    /// between the endpoints.
    fn gnp_state(n: usize, avg_deg: f64, seed: u64) -> ScaleState {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        generators::gnp_edges(n, avg_deg / (n - 1) as f64, &mut rng, &mut edges).unwrap();
        let owned: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .enumerate()
            .map(|(i, (u, v))| if i % 2 == 0 { (u, v) } else { (v, u) })
            .collect();
        ScaleState::from_owned_edges(n, &owned)
    }

    /// Any window accepts exactly the all-at-once round's moves: same
    /// final state, outcome, move count, view sample and per-round
    /// dirty/applied counts. One window holding the whole dirty list
    /// is the all-at-once round itself, counters included.
    #[test]
    fn windows_accept_exactly_the_all_at_once_moves() {
        // (n, average degree, α, k, seed): every n spans at least two
        // production windows.
        let cases = [
            (3_000, 6.0, 1.0, 2, 1),
            (3_000, 6.0, 3.0, 2, 2),
            (2_000, 8.0, 5.0, 2, 3),
            (1_500, 6.0, 3.0, 3, 4),
            (1_200, 6.0, 5.0, 3, 5),
            (800, 6.0, 1.0, 3, 6),
        ];
        let mut skipped_somewhere = false;
        for (n, avg_deg, alpha, k, seed) in cases {
            let initial = gnp_state(n, avg_deg, seed);
            let mut config = ScaleConfig::new(GameSpec::max(alpha, k));
            config.max_rounds = 3;
            let run = |round: &mut dyn FnMut(
                &mut ScaleState,
                &mut ScaleArena,
                &mut CycleDetector,
                usize,
            ) -> ScaleRoundStats| {
                let mut state = initial.clone();
                let result = run_rounds(&mut state, &config, &mut ScaleArena::new(), round);
                (state, result)
            };
            let (oracle_state, oracle) =
                run(&mut |s, a, det, r| all_at_once_round(s, &config, a, det, r));
            for window in [1, 7, WINDOW, usize::MAX] {
                let (state, result) =
                    run(&mut |s, a, det, r| simultaneous_round(s, &config, a, det, r, window));
                let case = format!("n {n}, α {alpha}, k {k}, window {window}");
                assert!(state == oracle_state, "{case}: final states differ");
                assert_eq!(result.outcome, oracle.outcome, "{case}");
                assert_eq!(result.total_moves, oracle.total_moves, "{case}");
                assert_eq!(result.view_sample, oracle.view_sample, "{case}");
                assert_eq!(result.rounds.len(), oracle.rounds.len(), "{case}");
                for (r, o) in result.rounds.iter().zip(&oracle.rounds) {
                    assert_eq!((r.dirty, r.applied), (o.dirty, o.applied), "{case}");
                    assert_eq!(r.proposals, r.applied + r.conflicts, "{case}");
                    if window == usize::MAX {
                        assert_eq!(r, o, "{case}: one window is the all-at-once round");
                    }
                }
                skipped_somewhere |= window == WINDOW && result.total_skipped > 0;
            }
        }
        assert!(skipped_somewhere, "no case skipped a player at the production window");
    }

    fn successor_path(n: usize) -> ScaleState {
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        ScaleState::from_game_state(&GameState::from_strategies(n, strategies))
    }

    #[test]
    fn converges_and_validates_on_a_path() {
        for mode in [RoundMode::Simultaneous, RoundMode::Sequential] {
            let mut state = successor_path(16);
            let mut config = ScaleConfig::new(GameSpec::max(0.5, 3));
            config.mode = mode;
            let mut arena = ScaleArena::new();
            let result = run_scale(&mut state, &config, &mut arena);
            assert!(
                matches!(result.outcome, Outcome::Converged { .. }),
                "{mode:?} did not converge: {:?}",
                result.outcome
            );
            assert!(state.validate().is_ok());
            // Re-running from the converged profile is a one-round no-op.
            let again = run_scale(&mut state, &config, &mut arena);
            assert!(matches!(again.outcome, Outcome::Converged { rounds: 1 }));
            assert_eq!(again.total_moves, 0);
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        let config = ScaleConfig::new(GameSpec::sum(1.0, 2));
        let mut arena = ScaleArena::new();
        let mut first = successor_path(12);
        let r1 = run_scale(&mut first, &config, &mut arena);
        let mut second = successor_path(12);
        let r2 = run_scale(&mut second, &config, &mut arena);
        assert_eq!(first, second);
        assert_eq!(r1.outcome, r2.outcome);
        assert_eq!(r1.rounds, r2.rounds);
    }

    /// Runs crafted rounds in which only player 0 moves, to her
    /// strategy `next(round)`, each move applied and journaled as the
    /// real rounds do.
    fn run_crafted(
        mut state: ScaleState,
        max_rounds: usize,
        next: impl Fn(usize) -> Vec<NodeId>,
    ) -> ScaleRunResult {
        let mut config = ScaleConfig::new(GameSpec::max(1.0, 2));
        config.max_rounds = max_rounds;
        let mut arena = ScaleArena::new();
        run_rounds(&mut state, &config, &mut arena, |state, arena, detector, round| {
            let new = next(round);
            detector.record_move(round, 0, state.strategy(0), &new);
            state.apply_moves(&[(0, new)], &mut arena.apply);
            ScaleRoundStats { dirty: 1, proposals: 1, skipped: 0, applied: 1, conflicts: 0 }
        })
    }

    #[test]
    fn toggling_round_is_caught_as_a_cycle() {
        // Player 0 of the path buys 1 at the start: buying 2 in odd
        // rounds and 1 in even ones repeats the initial profile at the
        // end of round 2.
        let result =
            run_crafted(successor_path(5), 10, |round| vec![if round % 2 == 1 { 2 } else { 1 }]);
        assert_eq!(result.outcome, Outcome::Cycled { first_seen: 0, repeated_at: 2 });
        assert_eq!(result.total_moves, 2);
    }

    #[test]
    fn rounds_that_never_repeat_a_profile_hit_the_cap() {
        // Player 0 buys one more edge every round: 1..=round + 1.
        let result =
            run_crafted(successor_path(12), 8, |round| (1..=round as NodeId + 1).collect());
        assert_eq!(result.outcome, Outcome::MaxRoundsExceeded { rounds: 8 });
        assert_eq!(result.total_moves, 8);
    }

    #[test]
    fn touched_of_is_center_plus_symdiff() {
        let mut out = Vec::new();
        touched_of(5, &[1, 3, 7], &[3, 4], &mut out);
        assert_eq!(out, vec![1, 4, 5, 7]);
        touched_of(0, &[], &[], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn view_sample_covers_small_graphs() {
        let state = successor_path(5);
        let sample = sample_views(&state, 2, &mut WorkerScratch::default());
        assert_eq!(sample.lanes, 5);
        assert!(sample.min >= 1 && sample.avg > 0.0);
    }
}
