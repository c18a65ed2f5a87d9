//! The workspace's greedy best response: a deterministic
//! steepest-descent climb over single additions, removals and swaps,
//! priced from distance tables.
//!
//! Both tiers climb here. The exact tier's [`hill_climb`] runs it over
//! every candidate with a `4·max(len, 4)` step cap (SumNCG's
//! [`Mode::Greedy`] arm and per-target pricing past
//! [`EXHAUSTIVE_CAP`]); the scale tier's responder
//! (`ncg_dynamics::scale::respond`) narrows the candidates and caps
//! the steps lower. Each step takes the best strictly improving
//! neighbour under the cost → fewer-edges → lexicographic tie-break.
//!
//! Pricing follows the worst-case deviation identity of
//! [`ncg_core::deviation`] (Propositions 2.1/2.2): every path from the
//! center starts at one of her edges, so a strategy `S` leaves ball
//! node `v` at distance `1 + min_{s ∈ S ∪ incoming} d_{H∖u}(s, v)`.
//! One distance row per purchase and candidate, plus one multi-source
//! row from the incoming neighbours, therefore price every trial of
//! the neighbourhood in `O(ball)` each, bit for bit what
//! [`evaluate_total`](ncg_core::deviation::evaluate_total) assigns the
//! same strategy. Trials are costed with [`GameSpec::priced_total`],
//! so per-target multipliers are honoured; the two bounds that skip
//! trials ([`purchase_cutoff`] and the usage limit) price every edge
//! at `α`, a lower bound on any edge the workspace prices, so they
//! skip only trials that cannot win.
//!
//! [`hill_climb`]: crate::front::hill_climb
//! [`Mode::Greedy`]: crate::Mode::Greedy
//! [`EXHAUSTIVE_CAP`]: ncg_core::equilibrium::EXHAUSTIVE_CAP

use ncg_core::deviation::sum_source_limit;
use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, MoveRulePolicy, Objective, PlayerView, RowScratch, EPS};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::{NodeId, INFINITY};

use crate::bound::purchase_cutoff;

/// Sentinel "no unique nearest purchase" in the per-step tables.
const NO_ARG: u32 = u32::MAX;

/// Reusable buffers of [`climb`]: the BFS buffer of the incoming-edge
/// row, the word scratch of the per-source rows
/// ([`PlayerView::extend_rows_minus_center`]), the distance rows and
/// the ball-sized work arrays, plus the candidate list that
/// [`hill_climb`](crate::front::hill_climb) fills. Hold one per thread;
/// allocation-free once warm except for the returned strategy.
#[derive(Debug, Clone, Default)]
pub struct ClimbScratch {
    /// Every candidate of the view, filled by
    /// [`hill_climb`](crate::front::hill_climb); [`climb`] itself reads
    /// its caller's list.
    pub(crate) candidates: Vec<NodeId>,
    buf: DistanceBuffer,
    row_scratch: RowScratch,
    base: Vec<u32>,
    drop_row: Vec<u32>,
    fields: Vec<u32>,
    src_ids: Vec<NodeId>,
    current: Vec<NodeId>,
    trial: Vec<NodeId>,
    best: Vec<NodeId>,
    rows: Vec<usize>,
    cand_rows: Vec<usize>,
    near1: Vec<u32>,
    near2: Vec<u32>,
    arg: Vec<u32>,
}

impl ClimbScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds the rows the climb prices against: the incoming-edge row
/// `base` and one distance row per source (`src_ids` = purchases ∪
/// candidates, rows in `fields`).
fn build_rows(view: &PlayerView, candidates: &[NodeId], scratch: &mut ClimbScratch) {
    let ClimbScratch { buf, row_scratch, base, fields, src_ids, .. } = scratch;
    // One shared multi-source row for the incoming sources.
    view.bfs_minus_center(&view.incoming, buf);
    base.clear();
    base.extend_from_slice(buf.distances());

    src_ids.clear();
    src_ids.extend_from_slice(&view.purchases);
    src_ids.extend_from_slice(candidates);
    src_ids.sort_unstable();
    src_ids.dedup();
    fields.clear();
    view.extend_rows_minus_center(src_ids.iter().copied(), row_scratch, fields);
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

/// The view as pricing sees it, under one objective.
struct Pricer<'a> {
    objective: Objective,
    view: &'a PlayerView,
}

impl Pricer<'_> {
    /// Worst-case usage cost of a trial whose nearest source (a
    /// purchase or an incoming neighbour) sits at distance `near(v)`
    /// from ball node `v` in the ball minus the center: `d(u, v) =
    /// 1 + near(v)`, exactly Propositions 2.1/2.2. Returns `None` when
    /// the deviation disconnects the ball, violates the Sum frontier
    /// rule ([`sum_source_limit`]), or once the running usage —
    /// monotone under both objectives — reaches `limit`.
    #[inline]
    fn usage(&self, limit: u64, near: impl Fn(usize) -> u32) -> Option<u64> {
        let view = self.view;
        let mut acc = 0u64;
        for v in 0..view.len() {
            if v == view.center as usize {
                continue;
            }
            let d = near(v);
            match self.objective {
                Objective::Max => {
                    if d == INFINITY {
                        return None; // disconnecting
                    }
                    acc = acc.max(d as u64 + 1);
                }
                Objective::Sum => {
                    if d > sum_source_limit(view, v as NodeId) {
                        return None; // disconnecting or forbidden frontier
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

/// Smallest integer usage at which a trial buying `len` edges at `α`
/// each can no longer win the step: winning means strictly below the
/// step's start cost and, once an `incumbent` exists, at most its cost
/// plus [`EPS`] (exact ties go to the tie-break). Both conditions are
/// monotone in the cost, and a trial's priced cost is at least its
/// `α`-per-edge cost, so a priced trial at or above the limit loses
/// too. `total_cost` is monotone in the usage and consecutive usages
/// lie a whole unit apart — far wider than the `2·EPS` tie window — so
/// scoring a trial may stop at the limit.
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

/// Offers a fully priced trial to the step: strictly better than the
/// step's start first, then cost → fewer edges → lexicographically
/// smaller among accepted neighbours.
fn offer(
    cost: f64,
    current_cost: f64,
    trial: &[NodeId],
    best: &mut Vec<NodeId>,
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

/// Climbs from the view's current strategy over the add/drop/swap
/// neighbourhood whose new endpoints are `candidates` (sorted local
/// ids, center excluded), for at most `max_steps` steps. Returns the
/// current strategy's cost and the final strategy with its cost; the
/// final cost is strictly below the first unless the strategy is the
/// current one.
///
/// The empty strategy is a second seed: when the player's incoming
/// edges alone keep the view connected, the climb could otherwise be
/// stuck paying for redundant purchases. Purchases outside
/// `candidates` may be dropped but never re-added.
///
/// One step costs `O(b·|S|)` for the nearest-source tables plus
/// `O(b)` per trial on a ball of `b` nodes: dropping purchase `i`
/// reads `near2` where `arg == i` and `near1` elsewhere, adding `c`
/// reads `min(near1, row_c)`, and a swap reads `min(drop_i, row_c)`.
/// Scoring stops at the smallest usage at which the trial can no
/// longer win, and the trial vector is only built for trials that
/// survive to the tie-break. Subset moves only (asserted): the
/// neighbourhood resizes the strategy.
pub fn climb(
    spec: &GameSpec,
    view: &PlayerView,
    candidates: &[NodeId],
    max_steps: usize,
    scratch: &mut ClimbScratch,
) -> (f64, Deviation) {
    assert_eq!(spec.move_rule, MoveRulePolicy::AnySubset, "the climb resizes strategies");
    debug_assert!(
        candidates.windows(2).all(|w| w[0] < w[1])
            && candidates.iter().all(|&c| c != view.center && (c as usize) < view.len()),
        "candidates must be sorted local ids other than the center"
    );
    build_rows(view, candidates, scratch);
    let ClimbScratch {
        base,
        drop_row,
        fields,
        src_ids,
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
    let b = view.len();
    let pricer = Pricer { objective: spec.objective, view };
    let row_of =
        |s: &NodeId| src_ids.binary_search(s).expect("strategy member must be a field source") * b;
    cand_rows.clear();
    cand_rows.extend(candidates.iter().map(row_of));

    // Baseline: the current strategy scored through the same rows. By
    // the worst-case deviation identity this equals the view-based
    // current cost bit for bit.
    current.clear();
    current.extend_from_slice(&view.purchases);
    rows.clear();
    rows.extend(current.iter().map(row_of));
    build_tables(base, fields, rows, near1, near2, arg);
    let start_cost = spec.priced_total(view, current, pricer.usage(u64::MAX, |v| near1[v]));
    let mut current_cost = start_cost;

    let empty_cost = spec.priced_total(view, &[], pricer.usage(u64::MAX, |v| base[v]));
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
    for _step in 0..max_steps {
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
            for (&c, &cr) in candidates.iter().zip(cand_rows.iter()) {
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
                    let cost = spec.priced_total(view, trial, Some(usage));
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
                let cost = spec.priced_total(view, trial, Some(usage));
                offer(cost, current_cost, trial, best, &mut best_cost, &mut found);
            }
        }
        // Swaps: drop one purchase, add one candidate.
        if m < cutoff {
            for i in 0..m {
                fill_drop_row(i, near1, near2, arg, drop_row);
                for (&c, &cr) in candidates.iter().zip(cand_rows.iter()) {
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
                        let cost = spec.priced_total(view, trial, Some(usage));
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
    (start_cost, Deviation { strategy_local: current.clone(), total_cost: current_cost })
}
