//! The persistent, incremental domination engine.
//!
//! The Section 5.3 best-response reduction solves one constrained
//! minimum dominating set per eccentricity guess `h`, and consecutive
//! guesses differ only in that every coverage set `covers[s]` *grows*
//! (from the radius-`(h−2)` ball to the radius-`(h−1)` ball around
//! `s`). The seed implementation rebuilt the whole solver state —
//! coverage clones, the dominator transpose, the packing order — from
//! scratch at every `h`; the [`DominationEngine`] instead owns that
//! state across guesses and mutates it monotonically: the reduction's
//! ring growth ([`crate::max_br::RingGrowth`]) feeds each source's new
//! ring through one word-level insert,
//! [`DominationEngine::extend_cover`] (see `DESIGN.md` §4.3). It keeps
//! no transpose: coverage is symmetric, so `covers[v]` is the
//! dominator set of `v` (the contract on [`DominationEngine`]).
//!
//! The engine also carries every scratch buffer the branch-and-bound
//! needs (one probe bitset, live mask, candidate list and alive list
//! **per recursion depth**, a marginal-gain array, a packing scratch,
//! the greedy incumbent's pick list), and [`DominationEngine::reset`]
//! keeps all of it, the per-vertex coverage rows included, across
//! views of any size. Repeated solves — thousands per dynamics round —
//! therefore allocate only for the solutions they return and when a
//! view or a search is larger than any seen before.
//!
//! Before any search, a **root gate** answers the guesses the root
//! alone decides: an already-dominated universe, and any guess whose
//! static bound `⌈uncovered / max_cover⌉` already reaches the cutoff —
//! both without building the incumbent. The gate returns exactly what
//! the full search would.
//!
//! Search improvements over the seed branch-and-bound (each is
//! admissible, so optimality is preserved — the property suite checks
//! cost parity against both the per-`h` rebuild and brute force):
//!
//! * **dynamic fractional bound** — `⌈uncovered / max marginal gain⌉`
//!   with the max gain recomputed per node instead of once at the
//!   root; deep in the tree residual gains shrink and this bound
//!   tightens dramatically;
//! * **top-k gain bound** — the minimum number of candidates whose
//!   *current* marginal gains can sum to `uncovered` (a counting pass
//!   over the gain histogram); dominates the fractional bound;
//! * **greedy packing bound** — uncovered vertices with pairwise
//!   disjoint dominator sets (as in the seed, near-tight on sparse
//!   instances);
//! * **redundancy-pruned greedy upper bound** — the greedy seed
//!   solution with provably superfluous elements removed, which
//!   tightens the initial incumbent by 1–2 elements on dense
//!   instances;
//! * **sibling cutoff** — once the incumbent matches `chosen + 1`
//!   elements, no remaining sibling branch can improve it.

use crate::bitset::{BitRows, BitSet};
use crate::dominating::{DominationInstance, Solution};

/// Incremental solver state for a growing family of domination
/// instances over a fixed ground set `0..n`.
///
/// Construction: [`DominationEngine::new`] (or
/// [`DominationEngine::reset`] to recycle allocations), then feed
/// coverage with [`extend_cover`](DominationEngine::extend_cover) —
/// typically one ring per source and radius. Solving never
/// invalidates the incremental state, so the caller interleaves
/// `extend_cover` batches and
/// [`solve_exact`](DominationEngine::solve_exact) calls freely.
///
/// **Coverage contract.** At every solve, coverage is symmetric
/// (`v ∈ covers[s] ⇔ s ∈ covers[v]`) and inside the universe, so the
/// search reads the dominators of `v` as `covers[v]` and their number
/// as `cover_sizes[v]`. Closed neighbourhoods satisfy it, and so do the
/// balls of `H ∖ {u}` that [`crate::max_br::RingGrowth`] feeds radius
/// by radius (the center is isolated there, so it lies in no ball);
/// [`from_instance`](DominationEngine::from_instance) asserts it.
#[derive(Debug, Clone)]
pub struct DominationEngine {
    n: usize,
    /// `covers[s]` = set of vertices dominated when `s` is chosen and,
    /// by symmetry, the set of dominators of `s`.
    covers: BitRows,
    /// Vertices that must be dominated.
    universe: BitSet,
    /// Elements already in `D` for free (their coverage is merged into
    /// [`Self::initial_covered`] as it arrives).
    forced: Vec<u32>,
    forced_set: BitSet,
    /// Union of the forced elements' coverage, maintained by
    /// `extend_cover`.
    initial_covered: BitSet,
    /// Union of *all* coverage — feasibility is `any_cover ⊇ universe`.
    any_cover: BitSet,
    /// `|covers[s] ∩ universe|` per element (the number of dominators
    /// of `s`), maintained by `extend_cover`.
    cover_sizes: Vec<u32>,
    /// `max(cover_sizes)` — the static fractional-bound denominator.
    max_cover: usize,

    // ---- per-solve scratch, reused across solves ----
    packing_order: Vec<u32>,
    /// One probe bitset per recursion depth (the seed cloned two fresh
    /// bitsets per candidate).
    probe_pool: Vec<BitSet>,
    /// One `universe ∖ covered` mask per recursion depth.
    live_pool: Vec<BitSet>,
    /// One candidate list per recursion depth.
    cand_pool: Vec<Vec<(u32, u32)>>,
    /// One alive-element list per recursion depth (elements with
    /// positive marginal gain — monotone shrinking down any path).
    alive_pool: Vec<Vec<u32>>,
    /// Alive list for the root call.
    root_alive: Vec<u32>,
    /// Marginal gain per element at the current search node.
    gains: Vec<u32>,
    /// Counting histogram over gains for the top-k bound.
    gain_hist: Vec<u32>,
    used_scratch: BitSet,
    greedy_covered: BitSet,
    /// The pruned greedy incumbent, sorted.
    greedy_picks: Vec<u32>,
}

impl Default for DominationEngine {
    fn default() -> Self {
        Self::new(BitSet::new(0), &[])
    }
}

impl DominationEngine {
    /// Fresh engine over ground set `0..universe.capacity()` with empty
    /// coverage.
    pub fn new(universe: BitSet, forced: &[u32]) -> Self {
        let n = universe.capacity();
        let mut e = DominationEngine {
            n,
            covers: BitRows::default(),
            universe: BitSet::new(0),
            forced: Vec::new(),
            forced_set: BitSet::new(0),
            initial_covered: BitSet::new(0),
            any_cover: BitSet::new(0),
            cover_sizes: Vec::new(),
            max_cover: 0,
            packing_order: Vec::new(),
            probe_pool: Vec::new(),
            live_pool: Vec::new(),
            cand_pool: Vec::new(),
            alive_pool: Vec::new(),
            root_alive: Vec::new(),
            gains: vec![0; n],
            gain_hist: Vec::new(),
            used_scratch: BitSet::new(0),
            greedy_covered: BitSet::new(0),
            greedy_picks: Vec::new(),
        };
        e.reset(n, None, forced);
        // Nothing is fed yet, so no count depends on the universe.
        e.universe = universe;
        e
    }

    /// Builds the engine from a one-shot [`DominationInstance`] — the
    /// rebuild path the seed solver took at every `h`, kept as the
    /// reference (and bench baseline) for the incremental path.
    ///
    /// # Panics
    /// Panics if `inst` breaks the coverage contract of [`Self`].
    pub fn from_instance(inst: &DominationInstance) -> Self {
        for (s, c) in inst.covers.iter().enumerate() {
            assert!(inst.universe.is_superset(c), "covers[{s}] leaves the universe");
            if let Some(v) = c.iter().find(|&v| !inst.covers[v as usize].contains(s as u32)) {
                panic!("asymmetric coverage: {v} ∈ covers[{s}] but {s} ∉ covers[{v}]");
            }
        }
        let mut e = Self::new(inst.universe.clone(), &inst.forced);
        let mut cover = BitSet::new(e.n);
        for (s, c) in inst.covers.iter().enumerate() {
            cover.clone_from(c);
            e.extend_cover(s as u32, &mut cover);
        }
        e
    }

    /// Re-targets the engine at a new instance family over `0..n` with
    /// empty coverage, whose universe is every vertex but `center` —
    /// the reduction's `H ∖ {u}` with the center undominated. Every
    /// buffer keeps its storage across *any* size change (consecutive
    /// dynamics views rarely share a size): the coverage rows park and
    /// reuse theirs (`BitRows`), the per-vertex bitsets and the
    /// universe are re-targeted in place, and the per-depth pools are
    /// kept whole, since every use overwrites its slot first. A reset
    /// allocates only for a view larger than any this engine has
    /// seen.
    pub fn reset(&mut self, n: usize, center: Option<u32>, forced: &[u32]) {
        self.n = n;
        self.covers.reset(n);
        self.universe.reset(n);
        self.universe.fill();
        if let Some(c) = center {
            self.universe.remove(c);
        }
        self.cover_sizes.clear();
        self.cover_sizes.resize(n, 0);
        self.gains.clear();
        self.gains.resize(n, 0);
        self.forced_set.reset(n);
        self.initial_covered.reset(n);
        self.any_cover.reset(n);
        self.used_scratch.reset(n);
        self.greedy_covered.reset(n);
        self.max_cover = 0;
        self.forced.clear();
        self.forced.extend_from_slice(forced);
        for &f in forced {
            self.forced_set.insert(f);
        }
    }

    /// Records that choosing `s` dominates every vertex of `vs`, and
    /// leaves in `vs` only the vertices `s` did not cover before — one
    /// word-level insert of a whole ring. The coverage size, the
    /// feasibility union and, for a forced `s`, the free initial
    /// coverage follow; the mirrored pairs are the caller's to feed
    /// (the coverage contract). Idempotent; coverage only ever grows.
    ///
    /// # Panics
    /// Panics if `vs` is sized for a different ground set.
    pub fn extend_cover(&mut self, s: u32, vs: &mut BitSet) {
        assert_eq!(vs.capacity(), self.n, "ring sized for a different ground set");
        let forced = self.forced_set.contains(s);
        let cover = self.covers[s as usize].words_mut();
        let any = self.any_cover.words_mut();
        let initial = self.initial_covered.words_mut();
        let universe = self.universe.words();
        let mut added = 0u32;
        for (i, w) in vs.words_mut().iter_mut().enumerate() {
            let fresh = *w & !cover[i];
            *w = fresh;
            if fresh == 0 {
                continue;
            }
            cover[i] |= fresh;
            any[i] |= fresh;
            if forced {
                initial[i] |= fresh;
            }
            added += (fresh & universe[i]).count_ones();
        }
        if added > 0 {
            let size = &mut self.cover_sizes[s as usize];
            *size += added;
            self.max_cover = self.max_cover.max(*size as usize);
        }
    }

    /// The one-pair insert the cursor feed used before ring growth,
    /// kept as the reference [`Self::extend_cover`] must agree with.
    #[cfg(test)]
    pub(crate) fn add_pair(&mut self, s: u32, v: u32) {
        if self.covers[s as usize].insert(v) {
            self.any_cover.insert(v);
            if self.universe.contains(v) {
                let size = &mut self.cover_sizes[s as usize];
                *size += 1;
                self.max_cover = self.max_cover.max(*size as usize);
            }
            if self.forced_set.contains(s) {
                self.initial_covered.insert(v);
            }
        }
    }

    /// Everything a coverage feed maintains: covers, cover sizes,
    /// `max_cover`, the forced elements' coverage and the feasibility
    /// union.
    #[cfg(test)]
    pub(crate) fn coverage_state(&self) -> (&[BitSet], &[u32], usize, &BitSet, &BitSet) {
        (
            &self.covers[..],
            &self.cover_sizes,
            self.max_cover,
            &self.initial_covered,
            &self.any_cover,
        )
    }

    /// Whether every universe vertex currently has at least one
    /// dominator (maintained incrementally — O(words)).
    pub fn is_feasible(&self) -> bool {
        self.any_cover.is_superset(&self.universe)
    }

    /// Greedy `(1 + ln n)`-approximation over the current coverage:
    /// repeatedly take the element covering the most still-uncovered
    /// universe vertices (ties to the smallest element, as in the
    /// seed). Returns `None` if infeasible.
    pub fn solve_greedy(&mut self) -> Option<Solution> {
        let mut chosen = Vec::new();
        self.greedy_into(&mut chosen).then(|| {
            chosen.sort_unstable();
            chosen
        })
    }

    /// Greedy into a caller-provided vec; returns feasibility. The
    /// chosen elements are in pick order (not sorted).
    fn greedy_into(&mut self, chosen: &mut Vec<u32>) -> bool {
        chosen.clear();
        self.greedy_covered.clone_from(&self.initial_covered);
        while self.greedy_covered.missing_from(&self.universe) > 0 {
            let mut best: Option<(usize, u32)> = None;
            for s in 0..self.n as u32 {
                let gain = self.marginal_gain(s, &self.greedy_covered);
                if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, s));
                }
            }
            let Some((_, s)) = best else { return false }; // infeasible
            self.greedy_covered.union_with(&self.covers[s as usize]);
            chosen.push(s);
        }
        true
    }

    /// Whether `covers[a] ∩ live ⊆ covers[b] ∩ live`, word-parallel
    /// (`live` = `universe ∖ covered`).
    #[inline]
    fn residual_subset(&self, a: u32, b: u32, live: &BitSet) -> bool {
        self.covers[a as usize]
            .words()
            .iter()
            .zip(self.covers[b as usize].words())
            .zip(live.words())
            .all(|((aw, bw), lw)| aw & lw & !bw == 0)
    }

    /// `|covers[s] ∩ universe ∖ covered|`, word-parallel.
    #[inline]
    fn marginal_gain(&self, s: u32, covered: &BitSet) -> usize {
        let mut gain = 0usize;
        for ((cw, uw), dw) in
            self.covers[s as usize].words().iter().zip(self.universe.words()).zip(covered.words())
        {
            gain += (cw & uw & !dw).count_ones() as usize;
        }
        gain
    }

    /// Greedy solution with provably redundant elements removed — a
    /// tighter incumbent to seed the branch-and-bound with — left
    /// sorted in `greedy_picks`. Returns feasibility.
    fn greedy_pruned(&mut self) -> bool {
        let mut chosen = std::mem::take(&mut self.greedy_picks);
        if !self.greedy_into(&mut chosen) {
            self.greedy_picks = chosen;
            return false;
        }
        // Drop any element whose removal keeps the universe covered;
        // later picks first (they have the smallest marginal gains).
        let mut i = chosen.len();
        while i > 0 {
            i -= 1;
            self.greedy_covered.clone_from(&self.initial_covered);
            for (j, &s) in chosen.iter().enumerate() {
                if j != i {
                    self.greedy_covered.union_with(&self.covers[s as usize]);
                }
            }
            if self.greedy_covered.is_superset(&self.universe) {
                chosen.remove(i);
            }
        }
        chosen.sort_unstable();
        self.greedy_picks = chosen;
        true
    }

    /// The answer the root alone decides, before any incumbent is
    /// built: a universe the forced elements already dominate needs no
    /// extra element (reported iff `cutoff > 0`), and once the static
    /// fractional bound `⌈uncovered / max_cover⌉` reaches `cutoff`,
    /// every cover — the greedy incumbent included — is too large.
    /// Both are exactly the full search's answers; `None` means the
    /// search has to run. Requires a feasible instance.
    fn root_gate(&self, cutoff: usize) -> Option<Option<Solution>> {
        let uncovered = self.initial_covered.missing_from(&self.universe);
        if uncovered == 0 {
            Some((cutoff > 0).then(Vec::new))
        } else if uncovered.div_ceil(self.max_cover.max(1)) >= cutoff {
            Some(None)
        } else {
            None
        }
    }

    /// Exact constrained minimum via branch-and-bound over the current
    /// coverage state. Same contract as
    /// [`DominationInstance::solve_exact`]: only solutions with
    /// strictly fewer than `cutoff` extra elements are reported;
    /// `None` if infeasible or nothing beats the cutoff.
    pub fn solve_exact(&mut self, cutoff: usize) -> Option<Solution> {
        if !self.is_feasible() {
            return None;
        }
        if let Some(decided) = self.root_gate(cutoff) {
            return decided;
        }
        // Packing order: few-dominator vertices first makes the greedy
        // packing larger, hence the bound stronger.
        self.packing_order.clear();
        self.packing_order.extend(self.universe.iter());
        self.packing_order.sort_unstable_by_key(|&v| self.cover_sizes[v as usize]);
        // Pruned-greedy incumbent, copied out only when it beats the
        // cutoff.
        let len = if self.greedy_pruned() { self.greedy_picks.len() } else { usize::MAX };
        let mut best = (len < cutoff).then(|| self.greedy_picks.clone());
        let mut best_len = len.min(cutoff);
        let mut chosen: Vec<u32> = Vec::new();
        self.acquire_depth(0);
        let mut root_covered = std::mem::replace(&mut self.probe_pool[0], BitSet::new(0));
        root_covered.clone_from(&self.initial_covered);
        // Root alive set: every element that covers anything. Children
        // narrow it as marginal gains hit zero (gains only shrink down
        // a path, so a dead element stays dead in the whole subtree).
        let mut root_alive = std::mem::take(&mut self.root_alive);
        root_alive.clear();
        root_alive.extend((0..self.n as u32).filter(|&s| self.cover_sizes[s as usize] > 0));
        self.recurse(1, &root_covered, &root_alive, &mut chosen, &mut best, &mut best_len);
        self.root_alive = root_alive;
        self.probe_pool[0] = root_covered;
        best.map(|mut b| {
            b.sort_unstable();
            b
        })
    }

    /// Ensures the per-depth scratch pools reach slot `depth`. A slot
    /// may hold a set of any earlier size: every use overwrites it
    /// (`clone_from`, `assign_difference`, `clear`) before reading.
    fn acquire_depth(&mut self, depth: usize) {
        while self.probe_pool.len() <= depth {
            self.probe_pool.push(BitSet::default());
        }
        while self.live_pool.len() <= depth {
            self.live_pool.push(BitSet::default());
        }
        while self.cand_pool.len() <= depth {
            self.cand_pool.push(Vec::new());
        }
        while self.alive_pool.len() <= depth {
            self.alive_pool.push(Vec::new());
        }
    }

    /// Greedy packing: count uncovered vertices whose dominator sets
    /// `covers[v]` are pairwise disjoint — each needs its own element.
    fn packing_bound(&mut self, live: &BitSet) -> usize {
        self.used_scratch.clear();
        let mut count = 0usize;
        for i in 0..self.packing_order.len() {
            let v = self.packing_order[i];
            let dominators = &self.covers[v as usize];
            if live.contains(v) && self.used_scratch.intersection_len(dominators) == 0 {
                count += 1;
                self.used_scratch.union_with(dominators);
            }
        }
        count
    }

    /// Packing bound strengthened with the current gains: each packing
    /// vertex needs its *own* element, whose contribution is at most
    /// the best gain among that vertex's dominators; whatever coverage
    /// is still missing costs `⌈deficit / max_gain⌉` more elements.
    /// Strictly dominates both the plain packing bound and the
    /// fractional bound. Requires `self.gains` to be fresh. Early-outs
    /// at `need` (the caller prunes at that point anyway).
    fn packing_gain_bound(
        &mut self,
        live: &BitSet,
        uncovered: usize,
        max_gain: usize,
        need: usize,
    ) -> usize {
        self.used_scratch.clear();
        let mut count = 0usize;
        let mut cap_sum = 0usize;
        for i in 0..self.packing_order.len() {
            let v = self.packing_order[i];
            let dominators = &self.covers[v as usize];
            if live.contains(v) && self.used_scratch.intersection_len(dominators) == 0 {
                count += 1;
                if count >= need {
                    return count;
                }
                let best = dominators.iter().map(|s| self.gains[s as usize]).max().unwrap_or(0);
                cap_sum += best as usize;
                self.used_scratch.union_with(dominators);
            }
        }
        count + uncovered.saturating_sub(cap_sum).div_ceil(max_gain)
    }

    /// Minimum number of elements whose current marginal gains can sum
    /// to `uncovered` — a counting pass over `self.gains` from the
    /// largest gain down. Dominates `⌈uncovered / max_gain⌉`.
    fn topk_gain_bound(&mut self, alive: &[u32], uncovered: usize, max_gain: usize) -> usize {
        self.gain_hist.clear();
        self.gain_hist.resize(max_gain + 1, 0);
        for &s in alive {
            let g = self.gains[s as usize];
            if g > 0 {
                self.gain_hist[(g as usize).min(max_gain)] += 1;
            }
        }
        let mut need = uncovered;
        let mut k = 0usize;
        for g in (1..=max_gain).rev() {
            let cnt = self.gain_hist[g] as usize;
            if cnt == 0 {
                continue;
            }
            let take = cnt.min(need.div_ceil(g));
            k += take;
            need = need.saturating_sub(take * g);
            if need == 0 {
                break;
            }
        }
        debug_assert_eq!(need, 0, "total gain always covers the deficit when feasible");
        k
    }

    fn recurse(
        &mut self,
        depth: usize,
        covered: &BitSet,
        alive: &[u32],
        chosen: &mut Vec<u32>,
        best: &mut Option<Solution>,
        best_len: &mut usize,
    ) {
        self.acquire_depth(depth);
        // The still-uncovered mask, computed once per node; every
        // bound and the branch selection below read it.
        let mut live = std::mem::replace(&mut self.live_pool[depth], BitSet::new(0));
        live.assign_difference(&self.universe, covered);
        let uncovered = live.len();
        if uncovered == 0 {
            if chosen.len() < *best_len {
                *best_len = chosen.len();
                *best = Some(chosen.clone());
            }
            self.live_pool[depth] = live;
            return;
        }
        // Any completion needs at least one more element.
        if chosen.len() + 1 >= *best_len {
            self.live_pool[depth] = live;
            return;
        }
        self.recurse_at(depth, covered, &live, uncovered, alive, chosen, best, best_len);
        self.live_pool[depth] = live;
    }

    /// The body of a search node past the trivial exits; `live` is
    /// `universe ∖ covered` with `uncovered = |live|` (> 0).
    #[allow(clippy::too_many_arguments)] // internal hot path, split for pool juggling
    fn recurse_at(
        &mut self,
        depth: usize,
        covered: &BitSet,
        live: &BitSet,
        uncovered: usize,
        alive: &[u32],
        chosen: &mut Vec<u32>,
        best: &mut Option<Solution>,
        best_len: &mut usize,
    ) {
        // How many further elements a solution may use and still beat
        // the incumbent (≥ 2 after the entry checks).
        let need = *best_len - chosen.len();
        match self.prepare_node(depth, live, uncovered, alive, need) {
            NodeStep::Pruned => {}
            NodeStep::Terminal(found) => {
                if let Some(s) = found {
                    chosen.push(s);
                    *best_len = chosen.len();
                    *best = Some(chosen.clone());
                    chosen.pop();
                }
            }
            NodeStep::Branch => {
                let alive_next = std::mem::take(&mut self.alive_pool[depth]);
                let cands = std::mem::take(&mut self.cand_pool[depth]);
                let mut probe = std::mem::replace(&mut self.probe_pool[depth], BitSet::new(0));
                for &(_, s) in &cands {
                    probe.clone_from(covered);
                    probe.union_with(&self.covers[s as usize]);
                    chosen.push(s);
                    self.recurse(depth + 1, &probe, &alive_next, chosen, best, best_len);
                    chosen.pop();
                    // No remaining sibling can beat an incumbent of
                    // `chosen.len() + 1` elements.
                    if *best_len <= chosen.len() + 1 {
                        break;
                    }
                }
                self.probe_pool[depth] = probe;
                self.cand_pool[depth] = cands;
                self.alive_pool[depth] = alive_next;
            }
        }
    }

    /// Everything a search node decides past the trivial exits, with
    /// the incumbent handling left to the caller: lower bounds, the
    /// `need == 2` terminal scan, branch-vertex selection and the
    /// canonical (gain-sorted, subset-dominance-pruned) candidate
    /// order.
    fn prepare_node(
        &mut self,
        depth: usize,
        live: &BitSet,
        uncovered: usize,
        alive: &[u32],
        need: usize,
    ) -> NodeStep {
        // Cheap static fractional bound first (free).
        let frac = uncovered.div_ceil(self.max_cover.max(1));
        if frac >= need {
            return NodeStep::Pruned;
        }
        // Dynamic bounds where they can pay: on large ground sets (the
        // word-parallel gain sweep amortises) or when `uncovered`
        // spans several maximum covers (deep subtree). Residual gains
        // shrink as coverage grows, so these keep tightening while the
        // static bound stays put; on the tiny views of the dynamics
        // hot path they would be pure overhead per node, so those keep
        // the seed's static pair instead.
        let dynamic = self.n > 64 || uncovered > self.max_cover;
        let mut alive_next = std::mem::take(&mut self.alive_pool[depth]);
        alive_next.clear();
        if dynamic {
            // Gain sweep over the parent's alive list only — dead
            // elements stay dead in the whole subtree.
            let mut max_gain = 0u32;
            for &s in alive {
                let gain = self.covers[s as usize].intersection_len(live) as u32;
                self.gains[s as usize] = gain;
                if gain > 0 {
                    alive_next.push(s);
                    max_gain = max_gain.max(gain);
                }
            }
            if max_gain == 0 {
                // Unreachable for feasible instances (covered only
                // grows), but a cheap guard beats a debug-only
                // invariant here.
                self.alive_pool[depth] = alive_next;
                return NodeStep::Pruned;
            }
            let gain_bound = self.topk_gain_bound(&alive_next, uncovered, max_gain as usize);
            if gain_bound >= need {
                self.alive_pool[depth] = alive_next;
                return NodeStep::Pruned;
            }
            if self.packing_gain_bound(live, uncovered, max_gain as usize, need) >= need {
                self.alive_pool[depth] = alive_next;
                return NodeStep::Pruned;
            }
        } else {
            alive_next.extend_from_slice(alive);
            if frac.max(self.packing_bound(live)) >= need {
                self.alive_pool[depth] = alive_next;
                return NodeStep::Pruned;
            }
        }
        // Branch on the uncovered vertex with the fewest dominators
        // (fail-first).
        let mut branch_v: Option<(u32, u32)> = None;
        for v in live.iter() {
            let deg = self.cover_sizes[v as usize];
            if branch_v.is_none_or(|(bd, _)| deg < bd) {
                branch_v = Some((deg, v));
                if deg <= 1 {
                    break;
                }
            }
        }
        let (_, v) = branch_v.expect("uncovered > 0 implies an uncovered vertex exists");
        // Candidates: the dominators of `v` (`covers[v]`), best current
        // marginal gain first — sorted on the whole `(gain, id)` pair,
        // so the order never depends on how they are listed. Every
        // dominator of an uncovered vertex is alive, so on the dynamic
        // path `self.gains` is fresh for all of them; the static path
        // computes the few gains directly.
        let mut cands = std::mem::take(&mut self.cand_pool[depth]);
        cands.clear();
        let dominators = self.covers[v as usize].iter();
        if dynamic {
            cands.extend(dominators.map(|s| (self.gains[s as usize], s)));
        } else {
            cands.extend(
                dominators.map(|s| (self.covers[s as usize].intersection_len(live) as u32, s)),
            );
        }
        cands.sort_unstable_by(|a, b| b.cmp(a));
        // Subset-dominance elimination: a candidate whose residual
        // coverage is contained in an earlier (≥-gain) candidate's can
        // be swapped for that candidate in any solution without
        // growing it, so its branch is redundant. Cuts the effective
        // branching factor on dense instances for O(deg²·words).
        let mut kept = 0usize;
        for i in 0..cands.len() {
            let (gi, si) = cands[i];
            let dominated = (0..kept).any(|j| self.residual_subset(si, cands[j].1, live));
            if !dominated {
                cands[kept] = (gi, si);
                kept += 1;
            }
        }
        cands.truncate(kept);
        // Terminal-level shortcut: when only a single further element
        // can beat the incumbent, that element must cover *all*
        // uncovered vertices by itself — and it must dominate `v`, so
        // it is among `cands`. A scan of the gains replaces the
        // recursion; picking the first full-gain candidate in sorted
        // order matches exactly what the recursion would have
        // recorded.
        if need == 2 {
            let found = cands.iter().find(|&&(g, _)| g as usize == uncovered).map(|&(_, s)| s);
            self.cand_pool[depth] = cands;
            self.alive_pool[depth] = alive_next;
            return NodeStep::Terminal(found);
        }
        self.cand_pool[depth] = cands;
        self.alive_pool[depth] = alive_next;
        NodeStep::Branch
    }
}

/// What [`DominationEngine::prepare_node`] decided for a search node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStep {
    /// A lower bound proves no completion can beat the incumbent.
    Pruned,
    /// `need == 2` terminal level: the only possible improvement is a
    /// single element covering every uncovered vertex; the payload is
    /// the first such candidate in canonical order, if any.
    Terminal(Option<u32>),
    /// Branch over `cand_pool[depth]` in canonical order; the child
    /// alive list is in `alive_pool[depth]`.
    Branch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::{generators, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph_instance(g: &Graph, forced: Vec<u32>) -> DominationInstance {
        DominationInstance::closed_neighborhoods(g, forced)
    }

    /// Feeds `inst`'s coverage pair by pair.
    fn feed_pairs(engine: &mut DominationEngine, inst: &DominationInstance) {
        for (s, c) in inst.covers.iter().enumerate() {
            c.iter().for_each(|v| engine.add_pair(s as u32, v));
        }
    }

    #[test]
    fn engine_matches_instance_solver() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        for trial in 0..20 {
            let g = generators::gnp(13, 0.22, &mut rng).unwrap();
            let inst = graph_instance(&g, if trial % 3 == 0 { vec![1] } else { vec![] });
            let via_instance = inst.solve_exact(usize::MAX).map(|s| s.len());
            let via_engine =
                DominationEngine::from_instance(&inst).solve_exact(usize::MAX).map(|s| s.len());
            assert_eq!(via_instance, via_engine, "trial {trial}");
        }
    }

    #[test]
    fn incremental_growth_matches_rebuild_at_every_radius() {
        // Grow coverage ring by ring (exactly the best-response access
        // pattern) and check each intermediate solve against a from-
        // scratch instance of the same coverage.
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let g = generators::gnp_connected(16, 0.18, 300, &mut rng).unwrap();
        let n = g.node_count();
        let csr = ncg_graph::CsrGraph::from_graph(&g);
        let mut buf = ncg_graph::bfs::DistanceBuffer::with_capacity(n);
        let dist: Vec<Vec<u32>> = (0..n as u32)
            .map(|s| {
                csr.bfs(s, &mut buf);
                buf.distances().to_vec()
            })
            .collect();
        let mut engine = DominationEngine::new(BitSet::full(n), &[2]);
        for r in 0..4u32 {
            for s in 0..n as u32 {
                for v in 0..n as u32 {
                    if dist[s as usize][v as usize] == r {
                        engine.add_pair(s, v);
                    }
                }
            }
            let covers: Vec<BitSet> = (0..n as u32)
                .map(|s| {
                    BitSet::from_elems(
                        n,
                        (0..n as u32).filter(|&v| dist[s as usize][v as usize] <= r),
                    )
                })
                .collect();
            let inst = DominationInstance { covers, universe: BitSet::full(n), forced: vec![2] };
            assert_eq!(engine.solve_exact(usize::MAX), inst.solve_exact(usize::MAX), "radius {r}");
            assert_eq!(engine.solve_greedy(), inst.solve_greedy(), "greedy radius {r}");
        }
    }

    #[test]
    fn reset_recycles_without_stale_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let g1 = generators::gnp(12, 0.3, &mut rng).unwrap();
        let g2 = generators::gnp(12, 0.2, &mut rng).unwrap();
        let i1 = graph_instance(&g1, vec![]);
        let i2 = graph_instance(&g2, vec![0]);
        let mut engine = DominationEngine::from_instance(&i1);
        let first = engine.solve_exact(usize::MAX);
        assert_eq!(first, i1.solve_exact(usize::MAX));
        // Reuse for a different instance of the same size.
        engine.reset(i2.n(), None, &i2.forced);
        feed_pairs(&mut engine, &i2);
        assert_eq!(
            engine.solve_exact(usize::MAX).map(|s| s.len()),
            i2.solve_exact(usize::MAX).map(|s| s.len())
        );
        // And for a different size.
        let g3 = generators::path(7);
        let i3 = graph_instance(&g3, vec![]);
        engine.reset(i3.n(), None, &i3.forced);
        feed_pairs(&mut engine, &i3);
        assert_eq!(engine.solve_exact(usize::MAX).unwrap().len(), 3);
        // And growing again after the shrink (the grow-only reuse
        // path re-targets the recycled word storage).
        let g4 = generators::cycle(21);
        let i4 = graph_instance(&g4, vec![]);
        engine.reset(i4.n(), None, &i4.forced);
        feed_pairs(&mut engine, &i4);
        assert_eq!(
            engine.solve_exact(usize::MAX).map(|s| s.len()),
            i4.solve_exact(usize::MAX).map(|s| s.len())
        );
    }

    #[test]
    fn infeasible_until_coverage_arrives() {
        let mut engine = DominationEngine::new(BitSet::full(3), &[]);
        assert!(!engine.is_feasible());
        assert_eq!(engine.solve_exact(usize::MAX), None);
        assert_eq!(engine.solve_greedy(), None);
        // The closed star around 0: symmetric, as the contract asks.
        feed_pairs(&mut engine, &graph_instance(&generators::star(3), vec![]));
        assert!(engine.is_feasible());
        assert_eq!(engine.solve_exact(usize::MAX).unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "asymmetric coverage")]
    fn from_instance_rejects_asymmetric_coverage() {
        let mut inst = graph_instance(&generators::path(3), vec![]);
        inst.covers[0].remove(1); // 1 still covers 0
        DominationEngine::from_instance(&inst);
    }

    #[test]
    #[should_panic(expected = "leaves the universe")]
    fn from_instance_rejects_coverage_outside_the_universe() {
        let mut inst = graph_instance(&generators::path(3), vec![]);
        inst.universe.remove(2); // 1 and 2 still cover 2
        DominationEngine::from_instance(&inst);
    }

    #[test]
    fn cutoff_contract_matches_instance_solver() {
        let inst = graph_instance(&generators::path(9), vec![]);
        let mut engine = DominationEngine::from_instance(&inst);
        assert_eq!(engine.solve_exact(3), None, "optimum 3 is not < 3");
        assert_eq!(engine.solve_exact(4).unwrap().len(), 3);
        assert_eq!(engine.solve_exact(0), None);
        // An empty universe needs nothing, under any positive cutoff.
        let mut trivial = DominationEngine::new(BitSet::new(2), &[]);
        assert_eq!(trivial.solve_exact(usize::MAX), Some(vec![]));
        assert_eq!(trivial.solve_exact(0), None);
    }

    #[test]
    fn forced_coverage_is_free_and_never_rebought() {
        let inst = graph_instance(&generators::path(9), vec![0]);
        let mut engine = DominationEngine::from_instance(&inst);
        let extra = engine.solve_exact(usize::MAX).unwrap();
        assert!(extra.len() <= 3);
        assert!(!extra.contains(&0));
    }
}
