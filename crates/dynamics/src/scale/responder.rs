//! CSR-native greedy best-response for the million-node tier.
//!
//! The exact tier answers "what should player `u` do?" by building a
//! [`PlayerView`](ncg_core::PlayerView) of the radius-`k` ball — kept
//! per player in the dynamics view cache — and running an exact engine
//! over it. At `n = 10^6` that is a view slot per player. This
//! responder builds no view: it builds the same ball-local CSR with the
//! same builder ([`CsrGraph::rebuild_induced`]) into one epoch-stamped
//! scratch per worker, works on flat distance arrays produced by the
//! workspace's one BFS kernel ([`ncg_graph::bfs`]) over it, and climbs
//! the same add/drop/swap neighbourhood as
//! [`ncg_solver::front::hill_climb`] with the identical cost →
//! fewer-edges → lexicographic tie-break.
//!
//! **Approximation contract.** On balls with at most
//! [`ScaleResponderConfig::exhaustive_ball`] candidates the
//! neighbourhood is the full hill-climb neighbourhood, so a returned
//! move matches `hill_climb` exactly (and the exact engines whenever
//! the optimum is one move away). On larger balls only the
//! [`ScaleResponderConfig::max_add_candidates`] farthest ball nodes
//! (ties towards smaller id) are considered as new endpoints — the
//! nodes a shortcut helps most. Every *returned* move is still scored
//! exactly: costs come from the same worst-case deviation semantics
//! as [`ncg_core::deviation`] (Propositions 2.1/2.2 of the paper),
//! so a move is only proposed when it is **provably** strictly
//! improving; approximation can only cause a missed improvement,
//! never a false one.

use ncg_core::{EdgeCostModel, GameSpec, MoveRulePolicy, Objective, EPS};
use ncg_graph::bfs::{bfs, bfs_skipping, DistanceBuffer};
use ncg_graph::view::StampMap;
use ncg_graph::{CsrGraph, NodeId, INFINITY};
use ncg_solver::bound::purchase_cutoff;

use super::state::ScaleState;

/// Sentinel "no unique nearest purchase" in the per-step tables.
const NO_ARG: u32 = u32::MAX;

/// Knobs bounding the responder's work per player.
#[derive(Debug, Clone, Copy)]
pub struct ScaleResponderConfig {
    /// On balls with more candidates than [`Self::exhaustive_ball`],
    /// only this many add-endpoints are considered (the farthest ball
    /// nodes, ties towards smaller id).
    pub max_add_candidates: usize,
    /// Candidate-count threshold up to which the full hill-climb
    /// neighbourhood is used and the responder matches
    /// [`ncg_solver::front::hill_climb`] move for move.
    pub exhaustive_ball: usize,
    /// Cap on steepest-descent steps per response (each step strictly
    /// decreases the cost, so this bounds work, not correctness).
    pub max_steps: usize,
}

impl Default for ScaleResponderConfig {
    fn default() -> Self {
        ScaleResponderConfig { max_add_candidates: 4, exhaustive_ball: 64, max_steps: 8 }
    }
}

/// A strictly improving strategy rewrite found by [`respond`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMove {
    /// The moving player.
    pub player: NodeId,
    /// Replacement strategy in global ids, sorted ascending.
    pub strategy: Vec<NodeId>,
    /// Exact total cost of the player's current strategy.
    pub old_cost: f64,
    /// Exact total cost of [`Self::strategy`] (strictly lower).
    pub new_cost: f64,
}

/// Reusable buffers for [`respond`]: an epoch-stamped global→local
/// map sized to the full graph, plus the ball-local CSR, the BFS buffer
/// that runs on it, and ball-sized work arrays. One instance per worker
/// thread; `O(n)` once, then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScaleScratch {
    ids: StampMap,
    ball_graph: CsrGraph,
    buf: DistanceBuffer,
    dist0: Vec<u32>,
    base: Vec<u32>,
    drop_row: Vec<u32>,
    fields: Vec<u32>,
    src_ids: Vec<u32>,
    purchases: Vec<u32>,
    incoming_globals: Vec<NodeId>,
    incoming: Vec<u32>,
    cand: Vec<u32>,
    sel: Vec<(u32, u32)>,
    current: Vec<u32>,
    trial: Vec<u32>,
    best: Vec<u32>,
    rows: Vec<usize>,
    cand_rows: Vec<usize>,
    near1: Vec<u32>,
    near2: Vec<u32>,
    arg: Vec<u32>,
}

impl ScaleScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The climb's outcome as a move of `u`, or `None` when it ended
    /// on the player's current strategy.
    fn finish(
        &self,
        u: NodeId,
        ball: &[NodeId],
        old_cost: f64,
        new_cost: f64,
    ) -> Option<ScaleMove> {
        if self.current == self.purchases {
            return None;
        }
        debug_assert!(GameSpec::strictly_better(new_cost, old_cost));
        Some(ScaleMove {
            player: u,
            strategy: self.current.iter().map(|&l| ball[l as usize]).collect(),
            old_cost,
            new_cost,
        })
    }
}

/// Builds everything the climb prices against for `u`: the induced
/// ball CSR, the center's distances `dist0`, the incoming-edge row
/// `base`, the add candidates `cand`, and one distance row per field
/// source (`src_ids` = purchases ∪ candidates, rows in `fields`).
/// Returns the center's local id.
fn build_fields(
    state: &ScaleState,
    cfg: &ScaleResponderConfig,
    u: NodeId,
    ball: &[NodeId],
    scratch: &mut ScaleScratch,
) -> u32 {
    let b = ball.len();
    let ScaleScratch {
        ids,
        ball_graph,
        buf,
        dist0,
        base,
        fields,
        src_ids,
        purchases,
        incoming_globals,
        incoming,
        cand,
        sel,
        ..
    } = scratch;
    // The exact tier's induced-ball CSR builder, in local ids.
    ball_graph.rebuild_induced(state.graph(), ball, ids);
    let center = ids.get(u).expect("ball must contain the center");

    // Center's distances inside the ball (= the exact tier's
    // `view.dist`: radius-k shortest paths never leave the ball).
    bfs(ball_graph, center, buf);
    dist0.clear();
    dist0.extend_from_slice(buf.distances());

    let to_local = |v: NodeId| ids.get(v).expect("neighbours of the center lie in the ball");
    purchases.clear();
    purchases.extend(state.strategy(u).iter().map(|&v| to_local(v)));
    state.incoming_into(u, incoming_globals);
    incoming.clear();
    incoming.extend(incoming_globals.iter().map(|&v| to_local(v)));

    // Distance fields on the ball minus the center: one shared
    // multi-source row for the incoming sources, one row per possible
    // purchase endpoint (current purchases ∪ add candidates).
    bfs_skipping(ball_graph, incoming, center, buf);
    base.clear();
    base.extend_from_slice(buf.distances());

    cand.clear();
    if b - 1 <= cfg.exhaustive_ball {
        cand.extend((0..b as u32).filter(|&v| v != center));
    } else {
        sel.clear();
        for v in 0..b as u32 {
            if v == center {
                continue;
            }
            let d = dist0[v as usize];
            let pos = sel.partition_point(|&(pd, pv)| pd > d || (pd == d && pv < v));
            if pos < cfg.max_add_candidates.max(1) {
                sel.insert(pos, (d, v));
                sel.truncate(cfg.max_add_candidates.max(1));
            }
        }
        cand.extend(sel.iter().map(|&(_, v)| v));
        cand.sort_unstable();
    }

    src_ids.clear();
    src_ids.extend_from_slice(purchases);
    src_ids.extend_from_slice(cand);
    src_ids.sort_unstable();
    src_ids.dedup();
    fields.clear();
    for &s in src_ids.iter() {
        bfs_skipping(ball_graph, &[s], center, buf);
        fields.extend_from_slice(buf.distances());
    }
    center
}

/// Per-step tables of a strategy whose purchases have field rows at
/// `rows`, with `base` folded in. Per ball node: `near1` is the nearest
/// source distance, `arg` the unique purchase index attaining it
/// ([`NO_ARG`] on a tie or when `base` attains it), and `near2` the
/// second-nearest distance counting multiplicity. Dropping purchase
/// `i` therefore leaves `near2` where `arg == i` and `near1` elsewhere.
fn build_tables(
    base: &[u32],
    fields: &[u32],
    rows: &[usize],
    near1: &mut Vec<u32>,
    near2: &mut Vec<u32>,
    arg: &mut Vec<u32>,
) {
    let b = base.len();
    near1.clear();
    near1.extend_from_slice(base);
    near2.clear();
    near2.resize(b, INFINITY);
    arg.clear();
    arg.resize(b, NO_ARG);
    for (i, &ro) in rows.iter().enumerate() {
        let cells = near1.iter_mut().zip(near2.iter_mut()).zip(arg.iter_mut());
        for (&d, ((n1, n2), a)) in fields[ro..ro + b].iter().zip(cells) {
            if d < *n1 {
                *n2 = *n1;
                *n1 = d;
                *a = i as u32;
            } else if d == *n1 {
                *n2 = d;
                *a = NO_ARG;
            } else if d < *n2 {
                *n2 = d;
            }
        }
    }
}

/// Nearest-source distances once purchase `i` is dropped, into `out`.
fn fill_drop_row(i: usize, near1: &[u32], near2: &[u32], arg: &[u32], out: &mut Vec<u32>) {
    let i = i as u32;
    out.clear();
    out.extend(
        near1.iter().zip(near2).zip(arg).map(|((&n1, &n2), &a)| if a == i { n2 } else { n1 }),
    );
}

/// The ball as pricing sees it: objective, radius, the center's local
/// id and its distances.
struct Pricer<'a> {
    objective: Objective,
    k: u32,
    center: usize,
    dist0: &'a [u32],
}

impl Pricer<'_> {
    /// Worst-case usage cost of a trial whose nearest source (a
    /// purchase or an incoming neighbour) sits at distance `near(v)`
    /// from ball node `v` in the ball minus the center: `d(u, v) =
    /// 1 + near(v)`, exactly Propositions 2.1/2.2. Returns `None` when
    /// the deviation disconnects the ball, violates the Sum frontier
    /// rule (a vertex at distance exactly `k` whose nearest source sits
    /// at distance `> k − 1`), or once the running usage — monotone
    /// under both objectives — reaches `limit`.
    #[inline]
    fn usage(&self, limit: u64, near: impl Fn(usize) -> u32) -> Option<u64> {
        let mut acc = 0u64;
        for (v, &d0) in self.dist0.iter().enumerate() {
            if v == self.center {
                continue;
            }
            let d = near(v);
            if d == INFINITY {
                return None; // disconnecting
            }
            match self.objective {
                Objective::Max => acc = acc.max(d as u64 + 1),
                Objective::Sum => {
                    if d0 == self.k && d > self.k - 1 {
                        return None; // forbidden frontier
                    }
                    acc += d as u64 + 1;
                }
            }
            if acc >= limit {
                return None;
            }
        }
        Some(acc)
    }
}

/// Smallest integer usage at which a trial buying `len` edges can no
/// longer win the step: winning means strictly below the step's start
/// cost and, once an `incumbent` exists, at most its cost plus
/// [`EPS`] (exact ties go to the tie-break). `total_cost` is monotone
/// in the usage and consecutive usages lie a whole unit apart — far
/// wider than the `2·EPS` tie window — so every usage at or above the
/// limit loses too, and scoring a trial may stop there.
fn usage_limit(spec: &GameSpec, len: usize, current_cost: f64, incumbent: Option<f64>) -> u64 {
    let can_win = |usage: u64| {
        let cost = spec.total_cost(len, Some(usage));
        GameSpec::strictly_better(cost, current_cost)
            && incumbent.is_none_or(|best| {
                GameSpec::strictly_better(cost, best) || (cost - best).abs() <= EPS
            })
    };
    let ceiling = incumbent.map_or(current_cost, |best| best.min(current_cost));
    if !ceiling.is_finite() {
        return u64::MAX;
    }
    // A guess within a unit or two of the limit, settled by the exact
    // predicate.
    let mut limit = (ceiling + 1.0 - spec.alpha * len as f64).max(0.0) as u64;
    while limit > 0 && !can_win(limit - 1) {
        limit -= 1;
    }
    while can_win(limit) {
        limit += 1;
    }
    limit
}

/// Offers a fully priced trial to the step under hill-climb's
/// ordering: strictly better than the step's start first, then
/// cost → fewer edges → lexicographically smaller among accepted
/// neighbours.
fn offer(
    cost: f64,
    current_cost: f64,
    trial: &[u32],
    best: &mut Vec<u32>,
    best_cost: &mut f64,
    found: &mut bool,
) {
    if !GameSpec::strictly_better(cost, current_cost) {
        return;
    }
    let wins = !*found
        || GameSpec::strictly_better(cost, *best_cost)
        || ((cost - *best_cost).abs() <= EPS
            && (trial.len() < best.len() || (trial.len() == best.len() && trial < &best[..])));
    if wins {
        best.clear();
        best.extend_from_slice(trial);
        *best_cost = cost;
        *found = true;
    }
}

/// Steepest-descent climb over the add/drop/swap neighbourhood of the
/// fields [`build_fields`] left in `scratch`. Leaves the final strategy
/// in `scratch.current` and returns the start and final costs.
///
/// One step costs `O(b·|S|)` for the tables ([`build_tables`]) plus
/// `O(b)` per trial on a ball of `b` nodes: dropping purchase `i`
/// reads `near2` where `arg == i` and `near1` elsewhere, adding `c`
/// reads `min(near1, row_c)`, and a swap reads `min(drop_i, row_c)`.
/// Scoring stops at the trial's [`usage_limit`], and the trial vector
/// is only built for trials that survive to the tie-break.
fn climb(
    spec: &GameSpec,
    cfg: &ScaleResponderConfig,
    center: u32,
    scratch: &mut ScaleScratch,
) -> (f64, f64) {
    let ScaleScratch {
        dist0,
        base,
        drop_row,
        fields,
        src_ids,
        purchases,
        cand,
        current,
        trial,
        best,
        rows,
        cand_rows,
        near1,
        near2,
        arg,
        ..
    } = scratch;
    let b = dist0.len();
    let pricer =
        Pricer { objective: spec.objective, k: spec.k, center: center as usize, dist0: &dist0[..] };
    let row_of =
        |s: &u32| src_ids.binary_search(s).expect("strategy member must be a field source") * b;
    cand_rows.clear();
    cand_rows.extend(cand.iter().map(row_of));

    // Baseline: the current strategy scored through the same fields.
    // By the worst-case deviation identity this equals the view-based
    // current cost bit for bit (every shortest path from the center
    // starts at a purchase or an incoming neighbour).
    current.clear();
    current.extend_from_slice(purchases);
    rows.clear();
    rows.extend(current.iter().map(row_of));
    build_tables(base, fields, rows, near1, near2, arg);
    let start_cost = spec.total_cost(current.len(), pricer.usage(u64::MAX, |v| near1[v]));
    let mut current_cost = start_cost;

    // Empty-strategy second seed, as in `hill_climb`: incoming edges
    // alone may keep the ball connected.
    let empty_cost = spec.total_cost(0, pricer.usage(u64::MAX, |v| base[v]));
    let mut tables_stale = false;
    if GameSpec::strictly_better(empty_cost, current_cost) {
        current.clear();
        current_cost = empty_cost;
        tables_stale = true;
    }

    let usage_floor = match spec.objective {
        Objective::Max => 1.0,
        Objective::Sum => (b - 1) as f64,
    };
    for _step in 0..cfg.max_steps {
        if tables_stale {
            rows.clear();
            rows.extend(current.iter().map(row_of));
            build_tables(base, fields, rows, near1, near2, arg);
        }
        let m = current.len();
        let mut found = false;
        let mut best_cost = f64::INFINITY;
        best.clear();
        let cutoff = purchase_cutoff(current_cost, usage_floor, spec.alpha);
        // Additions.
        if m + 1 < cutoff {
            for (&c, &cr) in cand.iter().zip(cand_rows.iter()) {
                if current.binary_search(&c).is_ok() {
                    continue;
                }
                let row = &fields[cr..cr + b];
                let limit = usage_limit(spec, m + 1, current_cost, found.then_some(best_cost));
                if let Some(usage) = pricer.usage(limit, |v| near1[v].min(row[v])) {
                    trial.clear();
                    trial.extend_from_slice(current);
                    let pos = trial.binary_search(&c).unwrap_err();
                    trial.insert(pos, c);
                    let cost = spec.total_cost(m + 1, Some(usage));
                    offer(cost, current_cost, trial, best, &mut best_cost, &mut found);
                }
            }
        }
        // Removals (never prunable: they can only lower the purchase
        // bill).
        for i in 0..m {
            fill_drop_row(i, near1, near2, arg, drop_row);
            let limit = usage_limit(spec, m - 1, current_cost, found.then_some(best_cost));
            if let Some(usage) = pricer.usage(limit, |v| drop_row[v]) {
                trial.clear();
                trial.extend_from_slice(current);
                trial.remove(i);
                let cost = spec.total_cost(m - 1, Some(usage));
                offer(cost, current_cost, trial, best, &mut best_cost, &mut found);
            }
        }
        // Swaps: drop one purchase, add one candidate.
        if m < cutoff {
            for i in 0..m {
                fill_drop_row(i, near1, near2, arg, drop_row);
                for (&c, &cr) in cand.iter().zip(cand_rows.iter()) {
                    if current.binary_search(&c).is_ok() {
                        continue;
                    }
                    let row = &fields[cr..cr + b];
                    let limit = usage_limit(spec, m, current_cost, found.then_some(best_cost));
                    if let Some(usage) = pricer.usage(limit, |v| drop_row[v].min(row[v])) {
                        trial.clear();
                        trial.extend_from_slice(current);
                        trial.remove(i);
                        let pos = trial.binary_search(&c).unwrap_err();
                        trial.insert(pos, c);
                        let cost = spec.total_cost(m, Some(usage));
                        offer(cost, current_cost, trial, best, &mut best_cost, &mut found);
                    }
                }
            }
        }
        if !found {
            break;
        }
        std::mem::swap(current, best);
        current_cost = best_cost;
        tables_stale = true;
    }
    (start_cost, current_cost)
}

/// Greedy best response for `u` over its radius-`k` ball (`ball` must
/// be the sorted ascending ball of `u` in `state.graph()`, center
/// included, as [`ncg_graph::view::ball_into`] produces it).
/// Returns a strictly improving move with exact old/new costs, or
/// `None` when the climb finds nothing better than the current
/// strategy.
///
/// Only the paper's base scenario is supported (uniform edge cost,
/// any-subset moves) — asserted, because the count-based pruning via
/// [`purchase_cutoff`] is unsound otherwise.
pub fn respond(
    state: &ScaleState,
    spec: &GameSpec,
    cfg: &ScaleResponderConfig,
    u: NodeId,
    ball: &[NodeId],
    scratch: &mut ScaleScratch,
) -> Option<ScaleMove> {
    assert!(
        spec.edge_cost == EdgeCostModel::Uniform && spec.move_rule == MoveRulePolicy::AnySubset,
        "scale responder supports the uniform any-subset scenario only"
    );
    if ball.len() <= 1 {
        // An isolated player has no purchases and no candidates.
        return None;
    }
    let center = build_fields(state, cfg, u, ball, scratch);
    let (old_cost, new_cost) = climb(spec, cfg, center, scratch);
    scratch.finish(u, ball, old_cost, new_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_core::deviation::evaluate_total;
    use ncg_core::{GameState, PlayerView, ViewScratch};
    use ncg_graph::generators;
    use ncg_graph::view::ball_into;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn exhaustive_cfg() -> ScaleResponderConfig {
        ScaleResponderConfig { exhaustive_ball: 1024, max_steps: 64, ..Default::default() }
    }

    /// Reference pricing: usage of the trial whose purchases have field
    /// rows at `row_offs`, re-taking the minimum over every row at
    /// every ball node, scored to the end.
    #[allow(clippy::too_many_arguments)]
    fn usage_of(
        objective: Objective,
        k: u32,
        center: u32,
        dist0: &[u32],
        base: &[u32],
        fields: &[u32],
        row_offs: &[usize],
    ) -> Option<u64> {
        let b = dist0.len();
        if b == 1 {
            return Some(0);
        }
        let mut acc = 0u64;
        for v in 0..b {
            if v == center as usize {
                continue;
            }
            let mut d = base[v];
            for &ro in row_offs {
                d = d.min(fields[ro + v]);
            }
            if objective == Objective::Sum && dist0[v] == k && d > k - 1 {
                return None; // forbidden frontier
            }
            if d == INFINITY {
                return None; // disconnecting
            }
            match objective {
                Objective::Max => acc = acc.max(d as u64 + 1),
                Objective::Sum => acc += d as u64 + 1,
            }
        }
        Some(acc)
    }

    /// Reference trial: prices `trial` through [`usage_of`] and
    /// replaces the incumbent when it wins under hill-climb's ordering.
    #[allow(clippy::too_many_arguments)]
    fn consider(
        spec: &GameSpec,
        center: u32,
        dist0: &[u32],
        base: &[u32],
        fields: &[u32],
        src_ids: &[u32],
        trial: &[u32],
        current_cost: f64,
        rows: &mut Vec<usize>,
        best: &mut Vec<u32>,
        best_cost: &mut f64,
        found: &mut bool,
    ) {
        let b = dist0.len();
        rows.clear();
        for &s in trial {
            let idx = src_ids.binary_search(&s).expect("trial member must be a field source");
            rows.push(idx * b);
        }
        let usage = usage_of(spec.objective, spec.k, center, dist0, base, fields, rows);
        let cost = spec.total_cost(trial.len(), usage);
        if !GameSpec::strictly_better(cost, current_cost) {
            return;
        }
        let wins = !*found
            || GameSpec::strictly_better(cost, *best_cost)
            || ((cost - *best_cost).abs() <= EPS
                && (trial.len() < best.len() || (trial.len() == best.len() && trial < &best[..])));
        if wins {
            best.clear();
            best.extend_from_slice(trial);
            *best_cost = cost;
            *found = true;
        }
    }

    /// Reference climb: every trial priced by [`consider`] — the oracle
    /// [`climb`] must match bit for bit.
    fn climb_reference(
        spec: &GameSpec,
        cfg: &ScaleResponderConfig,
        center: u32,
        scratch: &mut ScaleScratch,
    ) -> (f64, f64) {
        let ScaleScratch {
            dist0,
            base,
            fields,
            src_ids,
            purchases,
            cand,
            current,
            trial,
            best,
            rows,
            ..
        } = scratch;
        let b = dist0.len();
        current.clear();
        current.extend_from_slice(purchases);
        rows.clear();
        for &s in current.iter() {
            rows.push(src_ids.binary_search(&s).expect("purchase is a field source") * b);
        }
        let start_cost = spec.total_cost(
            current.len(),
            usage_of(spec.objective, spec.k, center, dist0, base, fields, rows),
        );
        let mut current_cost = start_cost;
        let empty_usage = usage_of(spec.objective, spec.k, center, dist0, base, fields, &[]);
        let empty_cost = spec.total_cost(0, empty_usage);
        if GameSpec::strictly_better(empty_cost, current_cost) {
            current.clear();
            current_cost = empty_cost;
        }
        let usage_floor = match spec.objective {
            Objective::Max => 1.0,
            Objective::Sum => (b - 1) as f64,
        };
        for _step in 0..cfg.max_steps {
            let mut found = false;
            let mut best_cost = f64::INFINITY;
            best.clear();
            let cutoff = purchase_cutoff(current_cost, usage_floor, spec.alpha);
            if current.len() + 1 < cutoff {
                for &c in cand.iter() {
                    if current.binary_search(&c).is_err() {
                        trial.clear();
                        trial.extend_from_slice(current);
                        let pos = trial.binary_search(&c).unwrap_err();
                        trial.insert(pos, c);
                        consider(
                            spec,
                            center,
                            dist0,
                            base,
                            fields,
                            src_ids,
                            trial,
                            current_cost,
                            rows,
                            best,
                            &mut best_cost,
                            &mut found,
                        );
                    }
                }
            }
            for i in 0..current.len() {
                trial.clear();
                trial.extend_from_slice(current);
                trial.remove(i);
                consider(
                    spec,
                    center,
                    dist0,
                    base,
                    fields,
                    src_ids,
                    trial,
                    current_cost,
                    rows,
                    best,
                    &mut best_cost,
                    &mut found,
                );
            }
            if current.len() < cutoff {
                for i in 0..current.len() {
                    for &c in cand.iter() {
                        if current.binary_search(&c).is_err() {
                            trial.clear();
                            trial.extend_from_slice(current);
                            trial.remove(i);
                            let pos = trial.binary_search(&c).unwrap_err();
                            trial.insert(pos, c);
                            consider(
                                spec,
                                center,
                                dist0,
                                base,
                                fields,
                                src_ids,
                                trial,
                                current_cost,
                                rows,
                                best,
                                &mut best_cost,
                                &mut found,
                            );
                        }
                    }
                }
            }
            if !found {
                break;
            }
            std::mem::swap(current, best);
            current_cost = best_cost;
        }
        (start_cost, current_cost)
    }

    /// [`respond`] driven by the reference climb.
    fn respond_reference(
        state: &ScaleState,
        spec: &GameSpec,
        cfg: &ScaleResponderConfig,
        u: NodeId,
        ball: &[NodeId],
        scratch: &mut ScaleScratch,
    ) -> Option<ScaleMove> {
        if ball.len() <= 1 {
            return None;
        }
        let center = build_fields(state, cfg, u, ball, scratch);
        let (old_cost, new_cost) = climb_reference(spec, cfg, center, scratch);
        scratch.finish(u, ball, old_cost, new_cost)
    }

    /// A move with its costs as bit patterns, so equality is exact.
    fn bits(mv: &Option<ScaleMove>) -> Option<(NodeId, Vec<NodeId>, u64, u64)> {
        mv.as_ref()
            .map(|m| (m.player, m.strategy.clone(), m.old_cost.to_bits(), m.new_cost.to_bits()))
    }

    fn tree_state(n: usize, seed: u64) -> ScaleState {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = generators::random_tree(n, &mut rng);
        ScaleState::from_game_state(&GameState::from_graph_random_ownership(&tree, &mut rng))
    }

    /// Sparse `G(n, p)` at average degree about 3 with coin-toss
    /// ownership; may be disconnected.
    fn gnp_state(n: usize, seed: u64) -> ScaleState {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        generators::gnp_edges(n, 3.0 / n as f64, &mut rng, &mut edges).unwrap();
        let owned: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .map(|(u, v)| if rng.random::<bool>() { (u, v) } else { (v, u) })
            .collect();
        ScaleState::from_owned_edges(n, &owned)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The table-priced, early-exiting climb returns the reference
        /// climb's move, costs included, bit for bit. The default config
        /// runs on graphs three times larger, so that balls beyond
        /// `exhaustive_ball` (truncated candidates) occur.
        #[test]
        fn climb_matches_the_reference_bit_for_bit(
            seed in 0u64..1_000_000,
            size in 4usize..40,
            gnp in any::<bool>(),
            ai in 0usize..5,
            k in 2u32..4,
            sum in any::<bool>(),
            exhaustive in any::<bool>(),
        ) {
            let alpha = [0.5, 1.0, 2.0, 3.0, 5.0][ai];
            let spec = if sum { GameSpec::sum(alpha, k) } else { GameSpec::max(alpha, k) };
            let (n, cfg) = if exhaustive {
                (size, exhaustive_cfg())
            } else {
                (3 * size, ScaleResponderConfig::default())
            };
            let state = if gnp { gnp_state(n, seed) } else { tree_state(n, seed) };
            let mut scratch = ScaleScratch::new();
            let (mut buf, mut ball) = (DistanceBuffer::new(), Vec::new());
            for u in 0..n as NodeId {
                ball_into(state.graph(), u, k, &mut buf, &mut ball);
                let fast = respond(&state, &spec, &cfg, u, &ball, &mut scratch);
                let reference = respond_reference(&state, &spec, &cfg, u, &ball, &mut scratch);
                prop_assert_eq!(bits(&fast), bits(&reference), "player {}", u);
            }
        }
    }

    /// Runs the responder for `u` and cross-checks every claimed cost
    /// against the exact tier's evaluator on a freshly built view.
    fn respond_checked(
        gs: &GameState,
        spec: &GameSpec,
        u: NodeId,
        cfg: &ScaleResponderConfig,
    ) -> Option<ScaleMove> {
        let ss = ScaleState::from_game_state(gs);
        let mut scratch = ScaleScratch::new();
        let ball = ncg_graph::view::ball(gs.graph(), u, spec.k);
        let mv = respond(&ss, spec, cfg, u, &ball, &mut scratch);
        let view = PlayerView::build_with(gs, u, spec.k, &mut ViewScratch::new());
        let current = ncg_core::deviation::current_total(spec, &view);
        if let Some(mv) = &mv {
            assert_eq!(mv.old_cost.to_bits(), current.to_bits(), "old cost disagrees with view");
            let local: Vec<NodeId> = mv
                .strategy
                .iter()
                .map(|&g| view.sub.to_local(g).expect("move target must be in the ball"))
                .collect();
            let exact =
                evaluate_total(spec, &view, &local, &mut ncg_core::deviation::EvalScratch::new());
            assert_eq!(mv.new_cost.to_bits(), exact.to_bits(), "new cost disagrees with view");
            assert!(GameSpec::strictly_better(mv.new_cost, mv.old_cost));
        }
        mv
    }

    #[test]
    fn path_endpoint_shortcuts_like_the_exact_tier() {
        // Successor-buying path: the tail player can cut its
        // eccentricity by rewiring when edges are cheap.
        let n = 8;
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        let gs = GameState::from_strategies(n, strategies);
        let spec = GameSpec::max(0.5, 3);
        let mv = respond_checked(&gs, &spec, 0, &exhaustive_cfg());
        assert!(mv.is_some(), "cheap edges must tempt the path head");
    }

    #[test]
    fn equilibrium_player_stands_pat() {
        // On a complete-ish clique with expensive edges, dropping all
        // purchases disconnects and single moves don't pay.
        let gs = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let spec = GameSpec::max(0.9, 2);
        // Triangle, α < 1: every player already has eccentricity 1.
        assert!(respond_checked(&gs, &spec, 0, &exhaustive_cfg()).is_none());
    }

    #[test]
    fn truncated_candidates_still_score_exactly() {
        let n = 12;
        let strategies: Vec<Vec<NodeId>> =
            (0..n).map(|u| if u + 1 < n { vec![u as NodeId + 1] } else { vec![] }).collect();
        let gs = GameState::from_strategies(n, strategies);
        let spec = GameSpec::sum(1.0, 2);
        let cfg = ScaleResponderConfig {
            exhaustive_ball: 2,
            max_add_candidates: 2,
            ..Default::default()
        };
        for u in 0..n as NodeId {
            respond_checked(&gs, &spec, u, &cfg);
        }
    }
}
