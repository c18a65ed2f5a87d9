//! Exact SumNCG branch-and-bound.
//!
//! [`SumEngine`] solves the sum-of-distances best response
//!
//! ```text
//!   min_{S ⊆ V(H)∖{u}}  α·|S| + Σ_{v ≠ u} (1 + min_{s ∈ S ∪ In(u)} d_{H∖u}(s, v))
//! ```
//!
//! exactly, by branching on *include / exclude* of each candidate
//! purchase — the sum-side sibling of the
//! [`DominationEngine`](crate::engine::DominationEngine)'s
//! eccentricity-guess branch-and-bound, replacing the seed-era
//! "enumerate up to 14 candidates, hill-climb beyond" path. Feasibility
//! is exactly Proposition 2.2's locality rule, shared with
//! [`evaluate_sum`](ncg_core::deviation::evaluate_sum) through
//! [`ncg_core::deviation::sum_source_limit`]: a frontier vertex
//! (distance exactly `k` in the view) must end within source-distance
//! `k − 1`, every other vertex merely has to stay reachable.
//!
//! ## Bounds (DESIGN.md §9)
//!
//! A node is a partial strategy: chosen set `I`, undecided candidate
//! list `U`, and the per-vertex residual `best[v] = min_{s ∈ I ∪
//! In(u)} d_{H∖u}(s, v)` maintained incrementally as `I` grows. Two
//! admissible lower bounds prune, both computed from the same
//! per-candidate distance rows, the `n × n` matrix
//! [`PlayerView::extend_rows_minus_center`] grows ring by ring over
//! adjacency words once per solve:
//!
//! * **Reachability bound** `LB₀ = α·|I| + Σ_v (1 + min(best[v],
//!   undmin[v]))`: no completion can bring `v` closer than the best
//!   undecided row.
//! * **Gain bound** `LB₁ = α·|I| + Σ_v (1 + min(best[v], cap)) +
//!   Σ_{c ∈ U} min(0, α − gain(c))` with `cap = n − 1` and `gain(c) =
//!   Σ_v (min(best[v], cap) − row_c[v])⁺`: buying any set `T ⊆ U`
//!   shortens the capped distance sum by at most `Σ_{c∈T} gain(c)`
//!   (improvements are subadditive), so only candidates whose ceiling
//!   gain exceeds α can lower the total, each by at most `gain(c) − α`.
//! * **Packing bound** `LB₂`: with `A_r = #{v : best[v] ≤ r}` and
//!   `M_r = max_{c ∈ U} #{v : row_c[v] ≤ r}` (the largest undecided
//!   ball), a completion buying `t` extra candidates ends at most
//!   `A_r + t·M_r` vertices within distance `r`, so its usage is at
//!   least `(n−1) + Σ_{r<cap} max(0, (n−1) − A_r − t·M_r)` — convex
//!   in `t`, so `LB₂ = min_t α·(|I|+t) + usage(t)` is found at the
//!   first non-improving `t`. This is the sum-side analogue of the
//!   Max engine's packing×gain bound, and it is the one that bites
//!   where `LB₁`'s additive gains overlap badly (a tree hub improves
//!   whole subtrees, so per-candidate gains grossly overcount joint
//!   savings); in particular `M_0 = 1` makes it near-exact in the
//!   cheap-α "buy almost everything" regime.
//! * **Greedy submodular refinement** `LB₃`: the capped saving
//!   `f(T) = Σ_v (min(best[v], cap) − min over T of row)⁺` is monotone
//!   submodular, so for *any* set `S`, `f(T) ≤ f(S) + Σ top-t
//!   marginals w.r.t. S`. Growing `S` greedily (argmax marginal, while
//!   the marginal exceeds α) collapses the overlap that makes `LB₁`
//!   loose — after two or three hub purchases the residual marginals
//!   are nearly additive — and the refined per-`t` curve, capped by
//!   the total achievable saving `P = Σ_v (min(best, cap) − min(best,
//!   undmin))` and maxed pointwise against the packing curve, is
//!   minimised over `t` like `LB₂`. The greedy set itself is recorded
//!   as an incumbent candidate when feasible, so every node seeds the
//!   race with a near-optimal completion for free. After each pick only
//!   the vertices it brought closer change a marginal, so the
//!   marginals drop by their terms there instead of being recomputed.
//! * **Dual-ascent bound**: the node is an uncapacitated
//!   facility-location relaxation (candidates are facilities at
//!   opening cost α, vertices are clients with outside option
//!   `min(best, cap)`), and any dual-feasible client vector certifies
//!   `α·|I| + (n−1) + Σ_j v_j` as a completion-cost floor by weak LP
//!   duality. An Erlenkotter-style breakpoint ascent — alternating
//!   sweep direction between passes, with a bounded adjustment phase
//!   near the prune threshold — is the strongest bound in the
//!   p-median-like mid-α regime where the packing and gain bounds
//!   stay loose. Only the root starts it cold; every other node starts
//!   from its parent's final duals, clipped to its own outside options,
//!   which stay feasible for the child (DESIGN.md §9), so a child's
//!   ascent resumes where its parent's stopped. Its residual facility
//!   slacks feed two further cuts: *reduced-cost fixing* (buying
//!   candidate `i` costs at least `dual + slack_i`, so high-slack
//!   candidates drop from `U` entirely) and a per-layer *integral
//!   lift* (at a fixed purchase count `t` the cost is `α·(|I|+t)` plus
//!   an integer, so the fractional dual floor rounds up onto each
//!   layer's grid).
//! * **Raised-price layer bound**: duals feasible at a raised facility
//!   price `λ = α + δ` certify `L(λ) − (λ − α)·t` for a completion
//!   buying `t` more candidates — a floor that rises as `t` falls,
//!   where the dual floor is the same on every layer. It is computed
//!   only for layers that could at best tie the incumbent (below), by
//!   a second ascent started from the node's final α-duals, which stay
//!   feasible at the higher price.
//!
//! Layers that survive the cost bounds still face the comparator:
//! a size-`|I|+t` completion is explored only if it can be strictly
//! cheaper than the incumbent, or tie on cost with fewer edges, or —
//! at equal cost and edge count — have its lexicographically minimal
//! completion (`I` merged with the `t` smallest undecided ids) beat
//! the incumbent strategy, mirroring the exhaustive enumerator's
//! tie-break exactly. A layer alive only on a tie must also reach the
//! incumbent's cost under the raised-price bound. At integer α the
//! dual floor sits exactly at that cost on the fewer-edges layers, so
//! without it the α = 1 search spends most of its nodes proving that
//! nothing ties the incumbent (DESIGN.md §9).
//!
//! Two exact reductions shrink nodes without search: a candidate whose
//! *uncapped* gain against finite residuals is `≤ α + EPS` and that
//! supports no unmet frontier constraint can never appear in the
//! comparator-minimal optimum (dropping it from any feasible superset
//! ties-with-fewer-edges or strictly improves), and an unmet vertex
//! with exactly one supporting undecided candidate forces that
//! candidate into `I`.
//!
//! ## One engine per view or per component
//!
//! The engine solves whatever view it is [`prepare`](SumEngine::prepare)d
//! on. The Sum best response ([`crate::sum_br`]) splits a view at the
//! player first: when `H ∖ {u}` has several connected components, each
//! component with the center is loaded as a sub-view and solved on its
//! own, and the union of the components' comparator minima is the
//! view's (DESIGN.md §9). The seed copy of `prepare` and the incumbent
//! of [`solve_into`](SumEngine::solve_into) reuse their buffers, so
//! solving a view component by component allocates no more than one
//! solve.
//!
//! ## Determinism
//!
//! Pruning only discards nodes whose bound exceeds `incumbent + EPS`
//! — or, for the comparator-aware layer cuts, completions provably
//! losing every stage of the tie-break — so *every* strategy that
//! could still win is visited and the result is the same comparator
//! minimum (cost, then fewer edges, then lexicographic) that
//! exhaustive enumeration returns — independent of visit order. The
//! one caveat — costs that differ by a nonzero amount `≤ EPS` — is
//! measure-zero in α and documented in DESIGN.md §9.

use ncg_core::{GameSpec, PlayerView, RowScratch};
use ncg_graph::{NodeId, INFINITY};

/// The raise `δ = λ − α` of the tie-layer bound's facility price: a
/// layer that could at best tie the incumbent is cut when `L(α + δ) −
/// δ·t`, lifted onto its grid, exceeds the bound (DESIGN.md §9, which
/// has the node counts of the raises measured against this one).
const RAISE: f64 = 0.25;

/// The raised-price layer bound: with `l = L(α + RAISE)`, a completion
/// buying `t` more candidates costs at least `l − RAISE·t`.
fn layer_lag(l: f64, t: usize) -> f64 {
    l - RAISE * t as f64
}

/// Rounds a fractional cost floor `lb` up onto the grid of a layer
/// whose purchases cost `at`: its cost is `at` plus an integer usage
/// (the small slack guards float drift between this product and
/// `total_cost`'s).
fn lift(lb: f64, at: f64) -> f64 {
    if lb > at {
        at + (lb - at - 1e-7).ceil()
    } else {
        lb
    }
}

/// The engine's running best solution: a sorted local strategy and its
/// total cost under the prepared spec. Starts as the view's current
/// strategy, so a solve can never return something worse than staying
/// put.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SumIncumbent {
    /// Locally-indexed strategy, sorted ascending (the exhaustive
    /// enumerator's canonical form, so tie-breaks agree bit for bit).
    pub strategy: Vec<NodeId>,
    /// `α·|strategy| + Σ_v (1 + d(v))`, computed through
    /// [`GameSpec::total_cost`] for bit-identical floats everywhere.
    pub cost: f64,
}

/// Outcome of processing one node (bounds, reductions, stop
/// evaluation).
enum SumStep {
    /// Bound exceeded or a constraint became unsatisfiable.
    Pruned,
    /// No undecided candidates remain; the stop evaluation (if
    /// feasible) was recorded.
    Leaf,
    /// Branch on this candidate: include-child first, then exclude.
    Branch(NodeId),
}

/// Exact branch-and-bound for the SumNCG best response; see the
/// module docs for the algorithm and DESIGN.md §9 for the
/// admissibility and determinism arguments.
///
/// One engine lives inside each [`SolverScratch`](crate::SolverScratch)
/// and is re-[`prepare`](SumEngine::prepare)d per view: distance rows,
/// per-depth pools and node scratch are grow-only, so dynamics rounds
/// never allocate after the first solve at a given size. Only
/// allocations carry over: no solve reads another's results.
#[derive(Debug, Clone)]
pub struct SumEngine {
    n: usize,
    center: NodeId,
    spec: GameSpec,
    /// Ceiling on any feasible finite distance (`n − 1`), used by the
    /// gain bound.
    cap: u32,
    /// Flat `n × n` distance rows on `H ∖ {u}`, from
    /// [`PlayerView::extend_rows_minus_center`]; row `c` holds
    /// `d_{H∖u}(c, ·)` (the center row is all-∞).
    rows: Vec<u32>,
    /// `min` over incoming rows: the residual with the empty strategy.
    base: Vec<u32>,
    /// Per-vertex inclusive cap on the final source distance
    /// ([`ncg_core::deviation::sum_source_limit`]; ∞ for the center).
    limit: Vec<u32>,
    seed: SumIncumbent,
    /// The adjacency and ring words the row sweep reuses.
    row_scratch: RowScratch,
    /// Per-depth node state pools (the engine-rearchitecture idiom:
    /// taken with `mem::take` around recursion, restored after).
    best_pool: Vec<Vec<u32>>,
    und_pool: Vec<Vec<NodeId>>,
    /// Starting duals of each depth's node: empty at the root, the
    /// parent's final duals below it.
    dual_pool: Vec<Vec<f64>>,
    /// DFS path of included candidates (branch + forced includes).
    chosen: Vec<NodeId>,
    // Per-node scratch, reused across the whole tree.
    und_min: Vec<u32>,
    unmet: Vec<NodeId>,
    gains_cap: Vec<u64>,
    gains_elim: Vec<u64>,
    /// Packing-bound histograms: `A_r` (met prefix counts), one
    /// candidate's ball sizes, and the running `M_r` maximum.
    a_hist: Vec<i64>,
    ball_hist: Vec<i64>,
    m_hist: Vec<i64>,
    /// Greedy-refinement state: residuals under the greedy set, its
    /// members, per-candidate marginals, and a sort buffer.
    g_best: Vec<u32>,
    g_set: Vec<NodeId>,
    g_rho: Vec<u64>,
    g_sorted: Vec<u64>,
    /// The vertices a greedy pick brought closer, with their capped
    /// residuals before and after it.
    g_drop: Vec<(usize, u32, u32)>,
    /// Refined packing tables: per-candidate cumulative ball sizes
    /// (`und.len() × cap`) and per-radius top-`t` prefix sums.
    ball_mat: Vec<i64>,
    bpref: Vec<i64>,
    /// Dual-ascent state: per-client dual values and per-facility
    /// residual slacks.
    dual_v: Vec<f64>,
    dual_slack: Vec<f64>,
    /// Snapshot buffers for the dual adjustment phase's trial moves.
    dual_v2: Vec<f64>,
    dual_slack2: Vec<f64>,
    /// The raised-price ascent's own duals and slacks, so the node's
    /// α-duals survive it for branch selection and the children.
    lag_v: Vec<f64>,
    lag_slack: Vec<f64>,
    forced: Vec<NodeId>,
    record_buf: Vec<NodeId>,
    /// Test-only audit of every dual ascent and greedy pick.
    #[cfg(test)]
    audit: Option<tests::SolveAudit>,
}

impl Default for SumEngine {
    fn default() -> Self {
        SumEngine {
            n: 0,
            center: 0,
            spec: GameSpec::sum(0.0, 1),
            cap: 0,
            rows: Vec::new(),
            base: Vec::new(),
            limit: Vec::new(),
            seed: SumIncumbent::default(),
            row_scratch: RowScratch::new(),
            best_pool: Vec::new(),
            und_pool: Vec::new(),
            dual_pool: Vec::new(),
            chosen: Vec::new(),
            und_min: Vec::new(),
            unmet: Vec::new(),
            gains_cap: Vec::new(),
            gains_elim: Vec::new(),
            a_hist: Vec::new(),
            ball_hist: Vec::new(),
            m_hist: Vec::new(),
            g_best: Vec::new(),
            g_set: Vec::new(),
            g_rho: Vec::new(),
            g_sorted: Vec::new(),
            g_drop: Vec::new(),
            ball_mat: Vec::new(),
            bpref: Vec::new(),
            dual_v: Vec::new(),
            dual_slack: Vec::new(),
            dual_v2: Vec::new(),
            dual_slack2: Vec::new(),
            lag_v: Vec::new(),
            lag_slack: Vec::new(),
            forced: Vec::new(),
            record_buf: Vec::new(),
            #[cfg(test)]
            audit: None,
        }
    }
}

impl SumEngine {
    /// Loads a view: the flat row matrix (one `H ∖ {u}` row per local
    /// vertex, from [`PlayerView::extend_rows_minus_center`], which
    /// reads the view's CSR with the center skipped, so no per-solve
    /// graph copy or freeze is made), the incoming-edge residual, the
    /// Proposition 2.2 limits, and the current strategy as the seed
    /// incumbent. Buffers are reused across calls (allocations only).
    ///
    /// The view must have at least two vertices (callers shortcut the
    /// singleton view).
    pub fn prepare(&mut self, spec: &GameSpec, view: &PlayerView) {
        let n = view.len();
        debug_assert!(n >= 2, "singleton views are handled by the caller");
        self.n = n;
        self.center = view.center;
        self.spec = *spec;
        self.cap = (n - 1) as u32;
        self.rows.clear();
        view.extend_rows_minus_center(0..n as NodeId, &mut self.row_scratch, &mut self.rows);
        self.base.clear();
        self.base.resize(n, INFINITY);
        for &inc in &view.incoming {
            let row = &self.rows[inc as usize * n..(inc as usize + 1) * n];
            for (b, &r) in self.base.iter_mut().zip(row) {
                if r < *b {
                    *b = r;
                }
            }
        }
        self.limit.clear();
        self.limit.extend((0..n as NodeId).map(|v| {
            if v == view.center {
                INFINITY
            } else {
                ncg_core::deviation::sum_source_limit(view, v)
            }
        }));
        self.seed.strategy.clear();
        self.seed.strategy.extend_from_slice(&view.purchases);
        self.seed.strategy.sort_unstable();
        self.seed.cost = ncg_core::deviation::current_total(spec, view);
        self.chosen.clear();
    }

    /// Exact solve of the prepared view. Deterministic: returns the
    /// comparator-minimal optimum (cost, then fewer edges, then
    /// lexicographic — exhaustive enumeration's tie-break).
    pub fn solve(&mut self) -> SumIncumbent {
        let mut inc = SumIncumbent::default();
        self.solve_into(&mut inc);
        inc
    }

    /// [`Self::solve`] into a caller-held incumbent: restarts `inc` from
    /// the seed in place and searches into it, so a warm `inc`
    /// allocates nothing. The Sum best response keeps one `inc` across
    /// all the components of a view it solves one by one.
    pub fn solve_into(&mut self, inc: &mut SumIncumbent) {
        inc.strategy.clear();
        inc.strategy.extend_from_slice(&self.seed.strategy);
        inc.cost = self.seed.cost;
        // The root: empty strategy, incoming-only residuals, every
        // non-center vertex a candidate, no starting duals.
        self.chosen.clear();
        self.acquire_depth(0);
        self.best_pool[0].clear();
        self.best_pool[0].extend_from_slice(&self.base);
        self.und_pool[0].clear();
        let center = self.center;
        self.und_pool[0].extend((0..self.n as NodeId).filter(|&v| v != center));
        self.dual_pool[0].clear();
        self.recurse(0, inc);
    }

    fn acquire_depth(&mut self, depth: usize) {
        while self.best_pool.len() <= depth {
            self.best_pool.push(Vec::new());
            self.und_pool.push(Vec::new());
            self.dual_pool.push(Vec::new());
        }
    }

    fn row(&self, c: NodeId) -> &[u32] {
        &self.rows[c as usize * self.n..(c as usize + 1) * self.n]
    }

    /// Erlenkotter-style dual ascent on the node's facility-location
    /// relaxation: clients are the non-center vertices with outside
    /// cost `min(best[v], cap)`, facilities are the undecided
    /// candidates with opening cost `price` and service costs `row_c`.
    /// Any dual-feasible `v` (client values below their outside cost
    /// whose overshoots `Σ_j (v_j − row_c[j])⁺` stay within `price` per
    /// facility) certifies `α·|I| + (n−1) + Σ_j v_j`, the value
    /// returned, as a cost lower bound for every completion when
    /// `price` is α, by weak LP duality; a completion buying `t` more
    /// candidates loses `(price − α)·t` of it at a raised price
    /// (DESIGN.md §9).
    ///
    /// The root (`start` empty) starts at the slack-free floor
    /// `min(best, undmin, cap)`, which is exactly LB₀. Every other node
    /// starts from its parent's final duals `start`, clipped to its own
    /// outside options and raised to its own floor: that vector is
    /// feasible for the child (DESIGN.md §9), and each slack is
    /// recomputed exactly from it, because the child's candidate list
    /// is a different list. Values then rise breakpoint by breakpoint
    /// in client order, for at most 48 passes, until facility slacks
    /// pin them, a deterministic procedure that is near-exact on tree
    /// views where the additive gain bounds stay loose. When `adjust`
    /// is `Some((bound, window))` and the ascent bound lands just below
    /// the prune threshold (`bound − lb ≤ window`), an
    /// Erlenkotter-style adjustment phase kicks in: clients paying into
    /// two or more slack-exhausted facilities drop back one breakpoint,
    /// freeing slack that a re-ascent redistributes to blocked clients,
    /// and the move is kept only when the dual total strictly rises.
    /// The small safety margin absorbs float drift so the returned
    /// value is always admissible.
    fn dual_ascent(
        &mut self,
        best: &[u32],
        und: &[NodeId],
        und_min: &[u32],
        start: &[f64],
        price: f64,
        adjust: Option<(f64, f64)>,
    ) -> f64 {
        let n = self.n;
        let center = self.center as usize;
        let cap = self.cap;
        let rows = &self.rows;
        let mut v = std::mem::take(&mut self.dual_v);
        let mut slack = std::mem::take(&mut self.dual_slack);
        v.clear();
        v.extend((0..n).map(|j| {
            if j == center {
                return 0.0;
            }
            let floor = best[j].min(und_min[j]).min(cap) as f64;
            match start.get(j) {
                Some(&parent) => parent.min(best[j].min(cap) as f64).max(floor),
                None => floor,
            }
        }));
        slack.clear();
        slack.extend(und.iter().map(|&c| {
            let row = &rows[c as usize * n..(c as usize + 1) * n];
            let mut over = 0.0;
            for (&vj, &d) in v.iter().zip(row) {
                if d != INFINITY && vj > d as f64 {
                    over += vj - d as f64;
                }
            }
            price - over
        }));
        const TOL: f64 = 1e-9;
        // One converging ascent: raise each client to its next
        // breakpoint or until a paying facility's slack pins it,
        // alternating the sweep direction between passes (the greedy
        // ascent is order-dependent, and alternating orders lets late
        // clients claim slack a fixed order would always hand to the
        // same winners). Returns the dual total Σ_j v_j.
        let ascent = |v: &mut [f64], slack: &mut [f64], passes: u32| -> f64 {
            for pass_no in 0..passes {
                let mut changed = false;
                for jj in 0..n {
                    let j = if pass_no % 2 == 0 { jj } else { n - 1 - jj };
                    if j == center {
                        continue;
                    }
                    let outside = best[j].min(cap) as f64;
                    if v[j] + TOL >= outside {
                        continue;
                    }
                    let mut next_bp = outside;
                    let mut min_slack = f64::INFINITY;
                    for (i, &c) in und.iter().enumerate() {
                        let d = rows[c as usize * n + j];
                        if d == INFINITY {
                            continue;
                        }
                        let df = d as f64;
                        if df <= v[j] + TOL {
                            min_slack = min_slack.min(slack[i]);
                        } else if df < next_bp {
                            next_bp = df;
                        }
                    }
                    let delta = (next_bp - v[j]).min(min_slack);
                    if delta > TOL {
                        for (i, &c) in und.iter().enumerate() {
                            let d = rows[c as usize * n + j];
                            if d != INFINITY && d as f64 <= v[j] + TOL {
                                slack[i] -= delta;
                            }
                        }
                        v[j] += delta;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut sum = 0.0;
            for (j, &vj) in v.iter().enumerate() {
                if j != center {
                    sum += vj;
                }
            }
            sum
        };
        let mut sum = ascent(&mut v, &mut slack, 48);
        let fixed = self.spec.alpha * self.chosen.len() as f64 + (n - 1) as f64 - 1e-6;
        let near_threshold = adjust
            .is_some_and(|(bound, window)| fixed + sum <= bound && bound - (fixed + sum) <= window);
        if near_threshold {
            // Adjustment phase: a client paying into ≥ 2 tight
            // facilities splits its value across all of them; dropping
            // it one breakpoint frees slack in each, which a re-ascent
            // can hand to clients blocked on a single facility. Every
            // move is trialled against a snapshot and reverted unless
            // the dual total strictly improves, so the phase is
            // monotone and deterministic (canonical client order).
            let mut v2 = std::mem::take(&mut self.dual_v2);
            let mut slack2 = std::mem::take(&mut self.dual_slack2);
            for _round in 0..2 {
                let mut improved = false;
                for j in 0..n {
                    if j == center || v[j] <= TOL {
                        continue;
                    }
                    let mut tight_payers = 0u32;
                    let mut next_below = 0.0f64;
                    for (i, &c) in und.iter().enumerate() {
                        let d = rows[c as usize * n + j];
                        if d == INFINITY {
                            continue;
                        }
                        let df = d as f64;
                        if df < v[j] - TOL {
                            if slack[i] <= 1e-7 {
                                tight_payers += 1;
                            }
                            next_below = next_below.max(df);
                        }
                    }
                    if tight_payers < 2 {
                        continue;
                    }
                    v2.clear();
                    v2.extend_from_slice(&v);
                    slack2.clear();
                    slack2.extend_from_slice(&slack);
                    let old_vj = v[j];
                    for (i, &c) in und.iter().enumerate() {
                        let d = rows[c as usize * n + j];
                        if d == INFINITY {
                            continue;
                        }
                        let df = d as f64;
                        if df < old_vj {
                            slack[i] += (old_vj - df) - (next_below - df).max(0.0);
                        }
                    }
                    v[j] = next_below;
                    let new_sum = ascent(&mut v, &mut slack, 8);
                    if new_sum > sum + 1e-7 {
                        sum = new_sum;
                        improved = true;
                    } else {
                        v.copy_from_slice(&v2);
                        slack.copy_from_slice(&slack2);
                    }
                }
                if !improved {
                    break;
                }
            }
            self.dual_v2 = v2;
            self.dual_slack2 = slack2;
        }
        self.dual_v = v;
        self.dual_slack = slack;
        fixed + sum
    }

    /// `L(λ)` of the node's raised-price layer bound at `λ = α + RAISE`
    /// ([`layer_lag`], DESIGN.md §9). The ascent starts from the
    /// node's final α-duals, which stay feasible at any `λ ≥ α` (same
    /// overshoots, slack `λ − over ≥ 0`), and skips the adjustment
    /// phase. It runs in the `lag_*` buffers, leaving the α-duals and
    /// slacks in place for branch selection and the children.
    fn raised_lag(&mut self, best: &[u32], und: &[NodeId], und_min: &[u32]) -> f64 {
        let duals = std::mem::replace(&mut self.dual_v, std::mem::take(&mut self.lag_v));
        let slack = std::mem::replace(&mut self.dual_slack, std::mem::take(&mut self.lag_slack));
        let price = self.spec.alpha + RAISE;
        let lag = self.dual_ascent(best, und, und_min, &duals, price, None);
        #[cfg(test)]
        self.audit_ascent(best, und, price, |t| layer_lag(lag, t), false);
        self.lag_v = std::mem::replace(&mut self.dual_v, duals);
        self.lag_slack = std::mem::replace(&mut self.dual_slack, slack);
        lag
    }

    /// Whether the lexicographically smallest completion of the sorted
    /// partial strategy `chosen_sorted` with `t` undecided candidates —
    /// the merge with `extra` = the `t` smallest undecided ids — is
    /// strictly lex-smaller than the incumbent strategy `inc_s` of the
    /// same length. Used to cut cost-tied, equal-edge-count layers that
    /// cannot win the comparator's final tie-break.
    fn lex_min_completion_beats(
        chosen_sorted: &[NodeId],
        extra: &[NodeId],
        inc_s: &[NodeId],
    ) -> bool {
        debug_assert_eq!(chosen_sorted.len() + extra.len(), inc_s.len());
        let (mut i, mut j) = (0, 0);
        for &target in inc_s {
            let next =
                if i < chosen_sorted.len() && (j >= extra.len() || chosen_sorted[i] < extra[j]) {
                    i += 1;
                    chosen_sorted[i - 1]
                } else {
                    j += 1;
                    extra[j - 1]
                };
            if next != target {
                return next < target;
            }
        }
        false
    }

    /// The exhaustive enumerator's acceptance test, verbatim: strictly
    /// cheaper, or an EPS-tie won on fewer edges then lexicographic
    /// order (both strategies sorted).
    fn better(cost: f64, strategy: &[NodeId], inc: &SumIncumbent) -> bool {
        GameSpec::strictly_better(cost, inc.cost)
            || ((cost - inc.cost).abs() <= ncg_core::EPS
                && (strategy.len() < inc.strategy.len()
                    || (strategy.len() == inc.strategy.len() && strategy < &inc.strategy[..])))
    }

    /// Records the current chosen set (the node's all-exclude
    /// completion) against the incumbent.
    fn record(&mut self, inc: &mut SumIncumbent, usage: u64) {
        let cost = self.spec.total_cost(self.chosen.len(), Some(usage));
        let mut buf = std::mem::take(&mut self.record_buf);
        buf.clear();
        buf.extend_from_slice(&self.chosen);
        buf.sort_unstable();
        if Self::better(cost, &buf, inc) {
            inc.cost = cost;
            inc.strategy.clear();
            inc.strategy.extend_from_slice(&buf);
        }
        self.record_buf = buf;
    }

    /// Bounds, reductions and the stop evaluation for one node; `best`
    /// and `und` are mutated in place (forced includes tighten
    /// residuals, eliminations shrink the candidate list) and
    /// `self.chosen` grows by any forced includes. `start` holds the
    /// node's starting duals (empty at the root); on a branch,
    /// `self.dual_v` holds its final duals.
    fn process_node(
        &mut self,
        best: &mut [u32],
        und: &mut Vec<NodeId>,
        start: &[f64],
        inc: &mut SumIncumbent,
    ) -> SumStep {
        let n = self.n;
        let center = self.center as usize;
        let alpha = self.spec.alpha;
        let mut und_min = std::mem::take(&mut self.und_min);
        let mut unmet = std::mem::take(&mut self.unmet);
        let mut gains_cap = std::mem::take(&mut self.gains_cap);
        let mut gains_elim = std::mem::take(&mut self.gains_elim);
        let mut a_hist = std::mem::take(&mut self.a_hist);
        let mut ball_hist = std::mem::take(&mut self.ball_hist);
        let mut m_hist = std::mem::take(&mut self.m_hist);
        let mut g_best = std::mem::take(&mut self.g_best);
        let mut g_set = std::mem::take(&mut self.g_set);
        let mut g_rho = std::mem::take(&mut self.g_rho);
        let mut g_sorted = std::mem::take(&mut self.g_sorted);
        let mut g_drop = std::mem::take(&mut self.g_drop);
        let mut ball_mat = std::mem::take(&mut self.ball_mat);
        let mut bpref = std::mem::take(&mut self.bpref);
        let mut forced = std::mem::take(&mut self.forced);
        let step = loop {
            // Best distance any undecided candidate could still offer.
            und_min.clear();
            und_min.resize(n, INFINITY);
            for &c in und.iter() {
                for (m, &r) in und_min.iter_mut().zip(self.row(c)) {
                    if r < *m {
                        *m = r;
                    }
                }
            }
            // Feasibility (Proposition 2.2 limits) and the unmet set.
            unmet.clear();
            let mut infeasible = false;
            for v in 0..n {
                if v != center && best[v] > self.limit[v] {
                    if und_min[v] > self.limit[v] {
                        infeasible = true;
                        break;
                    }
                    unmet.push(v as NodeId);
                }
            }
            if infeasible {
                break SumStep::Pruned;
            }
            // Stop evaluation: the all-exclude completion of this node
            // is feasible exactly when nothing is unmet.
            if unmet.is_empty() {
                let mut usage = 0u64;
                for (v, &b) in best.iter().enumerate() {
                    if v != center {
                        usage += 1 + b as u64;
                    }
                }
                self.record(inc, usage);
            }
            let bound = inc.cost + ncg_core::EPS;
            let bought = self.chosen.len();
            let e_star = inc.strategy.len();
            // Reachability bound LB₀.
            let mut lb0_usage = 0u64;
            for v in 0..n {
                if v != center {
                    lb0_usage += 1 + best[v].min(und_min[v]) as u64;
                }
            }
            let lb0 = self.spec.total_cost(bought, Some(lb0_usage));
            if lb0 > bound {
                break SumStep::Pruned;
            }
            // Comparator-aware quick cut: once the partial strategy
            // alone has more edges than the incumbent, completions can
            // only win by strict cost, not by tie-break.
            if bought > e_star && !GameSpec::strictly_better(lb0, inc.cost) {
                break SumStep::Pruned;
            }
            // Gain bound LB₁ plus the per-candidate gains it shares
            // with elimination and branch selection.
            let cap = self.cap;
            let mut s_cap = 0u64;
            for (v, &b) in best.iter().enumerate() {
                if v != center {
                    s_cap += 1 + b.min(cap) as u64;
                }
            }
            let mut lb1 = self.spec.total_cost(bought, Some(s_cap));
            let cap_us = cap as usize;
            a_hist.clear();
            a_hist.resize(cap_us, 0);
            for v in 0..n {
                if v != center && best[v] < cap {
                    a_hist[best[v] as usize] += 1;
                }
            }
            for r in 1..cap_us {
                a_hist[r] += a_hist[r - 1];
            }
            m_hist.clear();
            m_hist.resize(cap_us, 0);
            ball_hist.clear();
            ball_hist.resize(cap_us, 0);
            gains_cap.clear();
            gains_elim.clear();
            for &c in und.iter() {
                let row = self.row(c);
                let mut gc = 0u64;
                let mut ge = 0u64;
                for v in 0..n {
                    if v == center {
                        continue;
                    }
                    let b = best[v];
                    let r = row[v];
                    let bc = b.min(cap);
                    if r < bc {
                        gc += (bc - r) as u64;
                    }
                    if b != INFINITY && r < b {
                        ge += (b - r) as u64;
                    }
                    if r < cap {
                        ball_hist[r as usize] += 1;
                    }
                }
                gains_cap.push(gc);
                gains_elim.push(ge);
                let g = gc as f64;
                if g > alpha {
                    lb1 += alpha - g;
                }
                let mut run = 0i64;
                for r in 0..cap_us {
                    run += ball_hist[r];
                    ball_hist[r] = 0;
                    if run > m_hist[r] {
                        m_hist[r] = run;
                    }
                }
            }
            if lb1 > bound {
                break SumStep::Pruned;
            }
            // Packing bound LB₂ (module docs): `A_r` and `M_r` are both
            // non-decreasing in `r`, so the per-radius deficit is
            // non-increasing and the inner sum stops at its first
            // non-positive term; the outer scan stops at the first
            // non-improving `t` because the objective is convex.
            let live = (n - 1) as i64;
            let mut lb2 = f64::INFINITY;
            let mut prev = f64::INFINITY;
            for t in 0..=und.len() {
                let mut usage = live as u64;
                for r in 0..cap_us {
                    let deficit = live - a_hist[r] - t as i64 * m_hist[r];
                    if deficit > 0 {
                        usage += deficit as u64;
                    } else {
                        break;
                    }
                }
                let g = self.spec.total_cost(bought + t, Some(usage));
                if g < lb2 {
                    lb2 = g;
                }
                if g > prev {
                    break;
                }
                prev = g;
            }
            if lb2 > bound {
                break SumStep::Pruned;
            }
            // Elimination: a candidate that cannot pay for itself and
            // supports no unmet constraint never appears in the
            // comparator-minimal optimum.
            let mut w = 0;
            for i in 0..und.len() {
                let c = und[i];
                let supports =
                    unmet.iter().any(|&v| self.row(c)[v as usize] <= self.limit[v as usize]);
                if gains_elim[i] as f64 <= alpha + ncg_core::EPS && !supports {
                    continue;
                }
                und[w] = c;
                gains_cap[w] = gains_cap[i];
                w += 1;
            }
            und.truncate(w);
            gains_cap.truncate(w);
            // Forced includes: an unmet vertex with no undecided
            // supporter is a dead end; with exactly one, every feasible
            // completion of this node contains it.
            forced.clear();
            let mut dead_end = false;
            for &v in unmet.iter() {
                let mut supporters = und
                    .iter()
                    .copied()
                    .filter(|&c| self.row(c)[v as usize] <= self.limit[v as usize]);
                match (supporters.next(), supporters.next()) {
                    (None, _) => {
                        dead_end = true;
                        break;
                    }
                    (Some(only), None) => forced.push(only),
                    _ => {}
                }
            }
            if dead_end {
                break SumStep::Pruned;
            }
            if !forced.is_empty() {
                forced.sort_unstable();
                forced.dedup();
                for &c in forced.iter() {
                    self.chosen.push(c);
                    let row = &self.rows[c as usize * n..(c as usize + 1) * n];
                    for (b, &r) in best.iter_mut().zip(row) {
                        if r < *b {
                            *b = r;
                        }
                    }
                }
                und.retain(|c| !forced.contains(c));
                continue;
            }
            if und.is_empty() {
                break SumStep::Leaf;
            }
            // Dual-ascent bound on the node's facility-location
            // relaxation — the strongest cost floor available here;
            // it also lifts the per-`t` curve below.
            let window =
                if self.chosen.len() <= 6 { self.spec.alpha.mul_add(2.0, 6.0) } else { 0.0 };
            let dual_lb =
                self.dual_ascent(best, und, &und_min, start, alpha, Some((bound, window)));
            #[cfg(test)]
            self.audit_ascent(best, und, alpha, |_| dual_lb, !start.is_empty());
            if dual_lb > bound {
                break SumStep::Pruned;
            }
            // Reduced-cost fixing: buying candidate `i` costs every
            // completion at least `dual_lb + slack_i` (the dual bound
            // with facility `i`'s opening constraint saturated), so a
            // candidate whose residual slack alone pushes past the
            // bound can never appear in an improving completion and is
            // dropped for the whole subtree.
            {
                let mut w = 0;
                for i in 0..und.len() {
                    if dual_lb + self.dual_slack[i] <= bound {
                        und[w] = und[i];
                        gains_cap[w] = gains_cap[i];
                        self.dual_slack[w] = self.dual_slack[i];
                        w += 1;
                    }
                }
                if w < und.len() {
                    und.truncate(w);
                    gains_cap.truncate(w);
                    self.dual_slack.truncate(w);
                    // Fixing can orphan an unmet vertex; such nodes
                    // have no feasible improving completion at all.
                    let orphaned = unmet.iter().any(|&v| {
                        !und.iter().any(|&c| self.row(c)[v as usize] <= self.limit[v as usize])
                    });
                    if orphaned {
                        break SumStep::Pruned;
                    }
                    if und.is_empty() {
                        break SumStep::Leaf;
                    }
                    // The shrunken candidate set tightens `und_min`
                    // and every bound derived from it — restart the
                    // node pipeline on the reduced problem.
                    continue;
                }
            }
            // Greedy submodular refinement LB₃ (module docs): grow a
            // greedy set while its argmax marginal exceeds α, each
            // round minimising over `t` the max of the packing curve
            // and the refined prefix-of-marginals curve (capped by the
            // total achievable saving). The greedy completion is
            // recorded as an incumbent candidate when feasible.
            let p_total = s_cap - lb0_usage;
            // Refined packing tables over the post-elimination
            // candidates: `t` purchases cover, per radius `r`, at most
            // the `t` largest `r`-balls (distinct candidates bring
            // distinct balls — strictly tighter than `t` copies of the
            // maximum used by the early LB₂ check).
            let u_len = und.len();
            ball_mat.clear();
            ball_mat.resize(u_len * cap_us, 0);
            for (i, &c) in und.iter().enumerate() {
                let row = &self.rows[c as usize * n..(c as usize + 1) * n];
                let dst = &mut ball_mat[i * cap_us..(i + 1) * cap_us];
                for (v, &r) in row.iter().enumerate() {
                    if v != center && r < cap {
                        dst[r as usize] += 1;
                    }
                }
                let mut run = 0i64;
                for x in dst.iter_mut() {
                    run += *x;
                    *x = run;
                }
            }
            bpref.clear();
            bpref.resize(cap_us * (u_len + 1), 0);
            for r in 0..cap_us {
                ball_hist.clear();
                ball_hist.extend((0..u_len).map(|i| ball_mat[i * cap_us + r]));
                ball_hist.sort_unstable_by(|a, b| b.cmp(a));
                let dst = &mut bpref[r * (u_len + 1)..(r + 1) * (u_len + 1)];
                let mut run = 0i64;
                for (slot, &b) in dst[1..].iter_mut().zip(ball_hist.iter()) {
                    run += b;
                    *slot = run;
                }
            }
            g_best.clear();
            g_best.extend_from_slice(best);
            g_rho.clear();
            g_rho.extend_from_slice(&gains_cap);
            g_set.clear();
            let mut f_s = 0u64;
            let mut steps_left = 16u32;
            let mut refined_prune = false;
            // Sorted copy of the partial strategy for the lex test,
            // built lazily on the first tie-eligible layer.
            let mut lex_sorted = false;
            // `L(α + RAISE)`, computed on the first tie-only layer that
            // needs it and shared by every scan of the node.
            let mut lag = None;
            loop {
                g_sorted.clear();
                g_sorted.extend_from_slice(&g_rho);
                g_sorted.sort_unstable_by(|a, b| b.cmp(a));
                // A size-`|I|+t` completion survives only if it can
                // still beat the incumbent under the full comparator:
                // strictly cheaper, or a cost tie won on fewer edges,
                // or on equal edges with a lexicographically smaller
                // strategy (the lex-minimal completion merges `I` with
                // the `t` smallest undecided ids).
                let mut alive = false;
                let mut prev = f64::INFINITY;
                let mut past_min = false;
                let mut prefix = 0u64;
                for t in 0..=und.len() {
                    if t > 0 {
                        prefix += g_sorted[t - 1];
                    }
                    let save = (f_s + prefix).min(p_total);
                    let mut usage = live as u64;
                    for r in 0..cap_us {
                        let deficit = live - a_hist[r] - bpref[r * (u_len + 1) + t];
                        if deficit > 0 {
                            usage += deficit as u64;
                        } else {
                            break;
                        }
                    }
                    let usage = usage.max(s_cap - save);
                    // Integral lift of the dual floor: at fixed `t` the
                    // cost is alpha*(|I|+t) plus an integer usage, so the
                    // fractional dual bound rounds up onto this layer's
                    // grid.
                    let at = alpha * (bought + t) as f64;
                    let dual_t = lift(dual_lb, at);
                    let g_raw = self.spec.total_cost(bought + t, Some(usage)).max(dual_lb);
                    // The lifted value is a sawtooth in `t` (the ceil
                    // drops by floor(alpha) or ceil(alpha) per layer),
                    // so only the convex `g_raw` may drive the
                    // past-the-minimum early exit; the lift tightens
                    // the per-layer alive test alone.
                    let g = g_raw.max(dual_t);
                    if g_raw > prev {
                        past_min = true;
                    }
                    prev = g_raw;
                    if g <= bound {
                        if GameSpec::strictly_better(g, inc.cost) {
                            alive = true;
                        } else if bought + t <= e_star {
                            // Not strictly cheaper, the layer can only
                            // win a cost tie: on fewer edges, or on equal
                            // edges with a lex-smaller strategy.
                            let ties = bought + t < e_star || {
                                if !lex_sorted {
                                    self.record_buf.clear();
                                    self.record_buf.extend_from_slice(&self.chosen);
                                    self.record_buf.sort_unstable();
                                    lex_sorted = true;
                                }
                                Self::lex_min_completion_beats(
                                    &self.record_buf,
                                    &und[..t],
                                    &inc.strategy,
                                )
                            };
                            // A tie needs cost ≤ bound, which the
                            // raised-price layer bound can rule out even
                            // where every α-bound sits exactly at the
                            // incumbent's cost.
                            if ties {
                                let l = *lag
                                    .get_or_insert_with(|| self.raised_lag(best, und, &und_min));
                                alive = lift(layer_lag(l, t), at) <= bound;
                            }
                        }
                    }
                    if alive || (past_min && g_raw > bound) {
                        break;
                    }
                }
                if !alive {
                    refined_prune = true;
                    break;
                }
                let mut bi = 0;
                for (i, &r) in g_rho.iter().enumerate().skip(1) {
                    if r > g_rho[bi] {
                        bi = i;
                    }
                }
                if steps_left == 0 || g_rho[bi] as f64 <= alpha {
                    break;
                }
                steps_left -= 1;
                f_s += g_rho[bi];
                let c = und[bi];
                g_set.push(c);
                // Only the vertices the pick brought closer change any
                // marginal (the center's column is ∞ in every row, so
                // it never does). A candidate at distance `r` from `v`
                // loses `(old − r)⁺ − (new − r)⁺ = old − max(r, new)`
                // there when `r < old`.
                let row = &self.rows[c as usize * n..(c as usize + 1) * n];
                g_drop.clear();
                for (v, (b, &r)) in g_best.iter_mut().zip(row).enumerate() {
                    if r < *b {
                        g_drop.push((v, (*b).min(cap), r));
                        *b = r;
                    }
                }
                for (rho, &c2) in g_rho.iter_mut().zip(und.iter()) {
                    let row2 = &self.rows[c2 as usize * n..(c2 as usize + 1) * n];
                    for &(v, old, new) in g_drop.iter() {
                        let r = row2[v];
                        if r < old {
                            *rho -= (old - r.max(new)) as u64;
                        }
                    }
                }
                #[cfg(test)]
                self.audit_marginals(&g_best, und, &g_rho);
            }
            if refined_prune {
                break SumStep::Pruned;
            }
            if !g_set.is_empty() {
                let mut feasible = true;
                let mut usage = 0u64;
                for (v, &b) in g_best.iter().enumerate() {
                    if v == center {
                        continue;
                    }
                    if b > self.limit[v] {
                        feasible = false;
                        break;
                    }
                    usage += 1 + b as u64;
                }
                if feasible {
                    let greedy_mark = self.chosen.len();
                    self.chosen.extend_from_slice(&g_set);
                    self.record(inc, usage);
                    self.chosen.truncate(greedy_mark);
                }
            }
            // Branch on a dual-tight facility when one exists (the
            // relaxation wants it open, so the include child follows
            // the LP support and the exclude child's dual jumps),
            // preferring the largest capped gain among ties; fall back
            // to the global argmax gain. `und` is ascending, so the
            // first maximum is the smallest id either way.
            let mut bi = usize::MAX;
            for i in 0..und.len() {
                if self.dual_slack[i] <= 1e-7 && (bi == usize::MAX || gains_cap[i] > gains_cap[bi])
                {
                    bi = i;
                }
            }
            if bi == usize::MAX {
                bi = 0;
                for (i, &g) in gains_cap.iter().enumerate().skip(1) {
                    if g > gains_cap[bi] {
                        bi = i;
                    }
                }
            }
            break SumStep::Branch(und[bi]);
        };
        self.und_min = und_min;
        self.unmet = unmet;
        self.gains_cap = gains_cap;
        self.gains_elim = gains_elim;
        self.a_hist = a_hist;
        self.ball_hist = ball_hist;
        self.m_hist = m_hist;
        self.g_best = g_best;
        self.g_set = g_set;
        self.g_rho = g_rho;
        self.g_sorted = g_sorted;
        self.g_drop = g_drop;
        self.ball_mat = ball_mat;
        self.bpref = bpref;
        self.forced = forced;
        step
    }

    /// Depth-first search over include/exclude decisions; node state
    /// for `depth` must already sit in the pools.
    fn recurse(&mut self, depth: usize, inc: &mut SumIncumbent) {
        let mut best = std::mem::take(&mut self.best_pool[depth]);
        let mut und = std::mem::take(&mut self.und_pool[depth]);
        let start = std::mem::take(&mut self.dual_pool[depth]);
        let mark = self.chosen.len();
        if let SumStep::Branch(c) = self.process_node(&mut best, &mut und, &start, inc) {
            self.acquire_depth(depth + 1);
            // Both children start their ascent from this node's final
            // duals: the include child's recursion hands the entry back
            // unchanged, so the exclude child reads the same vector.
            self.dual_pool[depth + 1].clear();
            self.dual_pool[depth + 1].extend_from_slice(&self.dual_v);
            // Include child first: the greedy descent reaches a strong
            // incumbent fast, sharpening both bounds for the excludes.
            self.fill_child(depth + 1, &best, &und, c, true);
            self.chosen.push(c);
            self.recurse(depth + 1, inc);
            self.chosen.pop();
            self.fill_child(depth + 1, &best, &und, c, false);
            self.recurse(depth + 1, inc);
        }
        self.chosen.truncate(mark);
        self.best_pool[depth] = best;
        self.und_pool[depth] = und;
        self.dual_pool[depth] = start;
    }

    /// Copies a child node into the pools at `depth`: parent residuals
    /// (tightened by `c`'s row when including) and the parent
    /// candidates minus `c`.
    fn fill_child(&mut self, depth: usize, best: &[u32], und: &[NodeId], c: NodeId, include: bool) {
        let n = self.n;
        let mut child_best = std::mem::take(&mut self.best_pool[depth]);
        let mut child_und = std::mem::take(&mut self.und_pool[depth]);
        child_best.clear();
        child_best.extend_from_slice(best);
        if include {
            let row = &self.rows[c as usize * n..(c as usize + 1) * n];
            for (b, &r) in child_best.iter_mut().zip(row) {
                if r < *b {
                    *b = r;
                }
            }
        }
        child_und.clear();
        child_und.extend(und.iter().copied().filter(|&x| x != c));
        self.best_pool[depth] = child_best;
        self.und_pool[depth] = child_und;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::equilibrium::best_response_exhaustive;
    use ncg_core::GameState;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// What the audit checked: dual ascents, how many of them started
    /// from a parent's duals and how many ran at a raised price, and
    /// greedy picks whose incremental marginals were recomputed.
    #[derive(Debug, Clone, Default)]
    pub(super) struct SolveAudit {
        ascents: usize,
        warm: usize,
        raised: usize,
        picks: usize,
    }

    impl SumEngine {
        /// Called after every dual ascent when `self.audit` is set,
        /// with the ascent's facility `price` and its bound `lb(t)` on
        /// a completion buying `t` more candidates. Asserts that the
        /// final duals in `dual_v` are feasible at that price — each
        /// client at most its outside option `min(best, cap)`, each
        /// undecided facility's overshoot at most `price` — and that
        /// `lb(|T|)` is at most the cost of `I ∪ T` for every `T ⊆ U`,
        /// found by enumeration.
        pub(super) fn audit_ascent(
            &mut self,
            best: &[u32],
            und: &[NodeId],
            price: f64,
            lb: impl Fn(usize) -> f64,
            warm: bool,
        ) {
            if self.audit.is_none() {
                return;
            }
            let (n, center) = (self.n, self.center as usize);
            let clients = || (0..n).filter(move |&j| j != center);
            let v = &self.dual_v;
            for j in clients() {
                let outside = best[j].min(self.cap) as f64;
                assert!(v[j] <= outside + 1e-9, "client {j}: dual {} > outside {outside}", v[j]);
            }
            for &c in und {
                let row = self.row(c);
                let over: f64 = clients().map(|j| (v[j] - row[j] as f64).max(0.0)).sum();
                assert!(over <= price + 1e-9, "facility {c}: overshoot {over} > price {price}");
            }
            // Residuals of `I ∪ T` for every subset mask of `und`, each
            // built from the mask without its lowest candidate.
            let mut dist = best.to_vec();
            for mask in 0usize..1 << und.len() {
                if mask > 0 {
                    let from = (mask & (mask - 1)) * n;
                    let row = self.row(und[mask.trailing_zeros() as usize]);
                    for j in 0..n {
                        dist.push(dist[from + j].min(row[j]));
                    }
                }
                let d = &dist[mask * n..(mask + 1) * n];
                if clients().all(|j| d[j] != INFINITY) {
                    let usage = clients().map(|j| 1 + d[j] as u64).sum();
                    let t = mask.count_ones() as usize;
                    let cost = self.spec.total_cost(self.chosen.len() + t, Some(usage));
                    let bound = lb(t);
                    assert!(
                        bound <= cost,
                        "price {price}: bound {bound} > completion {mask:#b} at {cost}"
                    );
                }
            }
            let raised = price > self.spec.alpha;
            let audit = self.audit.as_mut().expect("checked above");
            audit.ascents += 1;
            audit.warm += usize::from(warm);
            audit.raised += usize::from(raised);
        }

        /// Called after every greedy pick when `self.audit` is set:
        /// each incrementally updated marginal must equal its dense
        /// recompute `Σ_v (min(g_best[v], cap) − row_c[v])⁺`.
        pub(super) fn audit_marginals(&mut self, g_best: &[u32], und: &[NodeId], g_rho: &[u64]) {
            if self.audit.is_none() {
                return;
            }
            let (center, cap) = (self.center as usize, self.cap);
            for (&rho, &c) in g_rho.iter().zip(und) {
                let dense: u64 = self
                    .row(c)
                    .iter()
                    .zip(g_best)
                    .enumerate()
                    .filter(|&(v, _)| v != center)
                    .map(|(_, (&r, &b))| b.min(cap).saturating_sub(r) as u64)
                    .sum();
                assert_eq!(rho, dense, "candidate {c}: incremental marginal");
            }
            self.audit.as_mut().expect("checked above").picks += 1;
        }
    }

    fn solve_for(state: &GameState, spec: &GameSpec, u: NodeId) -> (SumIncumbent, PlayerView) {
        let view = PlayerView::build(state, u, spec.k);
        let mut engine = SumEngine::default();
        engine.prepare(spec, &view);
        (engine.solve(), view)
    }

    #[test]
    fn matches_exhaustive_on_random_views() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..4 {
            let g = ncg_graph::generators::gnp_connected(11, 0.25, 100, &mut rng).unwrap();
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for alpha in [0.4, 1.0, 2.5] {
                for k in [2u32, 1000] {
                    let spec = GameSpec::sum(alpha, k);
                    for u in 0..state.n() as NodeId {
                        let (inc, view) = solve_for(&state, &spec, u);
                        let brute = best_response_exhaustive(&spec, &view).unwrap();
                        assert_eq!(inc.strategy, brute.strategy_local, "u={u} α={alpha} k={k}");
                        assert_eq!(
                            inc.cost.to_bits(),
                            brute.total_cost.to_bits(),
                            "u={u} α={alpha} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_ascent_is_feasible_and_admissible() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut total = SolveAudit::default();
        for case in 0..6 {
            let n = 8 + case % 4;
            let g = if case % 2 == 0 {
                ncg_graph::generators::random_tree(n, &mut rng)
            } else {
                ncg_graph::generators::gnp_connected(n, 0.3, 100, &mut rng).unwrap()
            };
            let state = GameState::from_graph_random_ownership(&g, &mut rng);
            for alpha in [0.5, 1.0, 2.5, 40.0] {
                for k in [2u32, 1000] {
                    let spec = GameSpec::sum(alpha, k);
                    for u in 0..state.n() as NodeId {
                        let view = PlayerView::build(&state, u, k);
                        let mut engine = SumEngine {
                            audit: Some(SolveAudit::default()),
                            ..SumEngine::default()
                        };
                        engine.prepare(&spec, &view);
                        engine.solve();
                        let audit = engine.audit.take().expect("set above");
                        total.ascents += audit.ascents;
                        total.warm += audit.warm;
                        total.raised += audit.raised;
                        total.picks += audit.picks;
                    }
                }
            }
        }
        assert!(total.warm > 0 && total.ascents > total.warm + total.raised, "{total:?}");
        assert!(total.raised > 0 && total.picks > 0, "{total:?}");
    }

    #[test]
    fn star_center_is_optimal_beyond_the_enumeration_cap() {
        // 29 candidates — far beyond both the old 14-candidate sum cap
        // and core's EXHAUSTIVE_CAP. With α = 2 < n the star center's
        // all-leaves strategy is the exact optimum; with cheap edges it
        // still is (every leaf must stay adjacent); an expensive-edge
        // leaf player keeps its view optimal too.
        let state = GameState::star_center_owned(30);
        let spec = GameSpec::sum(2.0, 4);
        let (inc, view) = solve_for(&state, &spec, 0);
        assert_eq!(inc.strategy.len(), 29);
        assert_eq!(inc.cost.to_bits(), ncg_core::deviation::current_total(&spec, &view).to_bits());
    }
}
