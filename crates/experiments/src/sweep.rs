//! The `(α, k, rep)` sweep engine: a deterministic cell work-list
//! with warm-started dynamics, process-level sharding, and streaming
//! per-cell results.
//!
//! This is the one module that knows which dynamics tier a sweep runs
//! on. Every sweep mode above it — local runs, shards and the lease
//! worker — solves cells through one tier-blind call,
//! [`SweepSpec::solve_record`]: the sweep's [`SweepStates`] (exact
//! `GameState`s or flat [`ScaleState`]s) and a [`SweepArena`] in, one
//! panic-isolated [`RunRecord`] out. The engine walks a [`SweepSpec`]'s
//! cells as a work-list:
//!
//! * cells are identified by a [`CellId`] with a canonical linear
//!   index (`α`-major, then `k`, then `rep`) — the order every
//!   journal, fold, and table is defined over;
//! * one rep-major loop, [`run_spec_cells`], parallelises over
//!   *repetitions*, so one [`SweepArena`] per rep is reused across all
//!   `(α, k)` cells sharing that initial state — the warm-start path of
//!   DESIGN.md §7; outcomes are bit-identical to cold runs, which take
//!   a fresh arena per cell;
//! * `--shards M --shard i` process-level sharding partitions cells
//!   by `rep % M` (see [`Shard`]), keeping warm-start groups intact
//!   and the partition deterministic;
//! * finished cells are *streamed* to a sink instead of being
//!   collected: the higher-level [`crate::engine`] journals them as
//!   JSONL and folds `O(grid)` aggregates in canonical order, and
//!   that fold is the one route from cells to results — figures,
//!   tests and examples alike.

use ncg_core::{EdgeCostModel, GameState, MoveRulePolicy, Objective, Scenario};
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig, ScaleRunResult, ScaleState};
use ncg_dynamics::{run_with_cache, CacheArena, DynamicsConfig, RunResult};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::workloads;

/// One cell of a sweep grid, with its canonical linear index.
///
/// The canonical order is `α`-major, then `k`, then `rep`:
/// `index = (ai · |ks| + ki) · reps + rep`. Every journal line,
/// fold call, and merged artifact is defined over this order, which
/// is what makes sharded + merged output byte-identical to a
/// single-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// Canonical linear index within the sweep.
    pub index: usize,
    /// Index into the `α` grid.
    pub ai: usize,
    /// Index into the `k` grid.
    pub ki: usize,
    /// Repetition (initial-state) index.
    pub rep: usize,
}

/// How a sweep's initial states are generated (lazily — merge-mode
/// folds never sample workloads at all).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Uniform random trees with coin-toss ownership (Table I).
    Tree,
    /// Connected `G(n, p)` samples with coin-toss ownership (Table II).
    Er(f64),
    /// Flat `G(n, avg_deg/(n-1))` samples for the million-node scale
    /// tier, solved with the approximate simultaneous-move dynamics
    /// ([`ncg_dynamics::scale`]) instead of the exact responder.
    ScaleEr {
        /// Expected degree (`p = avg_deg / (n - 1)`).
        avg_deg: f64,
        /// Round cap of the scale dynamics (part of the cell contents,
        /// unlike the exact tier's effectively-never-hit default cap).
        max_rounds: usize,
    },
}

/// A declarative description of one sweep: the workload family, the
/// parameter grid, and the scenario (objective plus edge-cost and
/// move-rule axes of the model zoo). Everything the engine, the
/// journal, and the merge fold need — states are only sampled when
/// cells actually run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Stable label of this sweep within its experiment (journal key).
    pub label: String,
    /// Workload family.
    pub workload: Workload,
    /// Player count.
    pub n: usize,
    /// Repetitions (initial states).
    pub reps: usize,
    /// Base seed the per-rep instance seeds derive from.
    pub seed: u64,
    /// Edge-price grid.
    pub alphas: Vec<f64>,
    /// Knowledge-radius grid.
    pub ks: Vec<u32>,
    /// Game objective.
    pub objective: Objective,
    /// Edge-cost model (`Uniform` for every paper sweep).
    pub edge_cost: EdgeCostModel,
    /// Move rule (`AnySubset` for every paper sweep).
    pub move_rule: MoveRulePolicy,
}

impl SweepSpec {
    /// A random-tree sweep. The last argument is any scenario handle:
    /// a bare [`Objective`] selects the canonical (uniform, subset)
    /// game, a full [`Scenario`] selects a model-zoo variant.
    pub fn tree(
        label: impl Into<String>,
        n: usize,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        scenario: impl Into<Scenario>,
    ) -> Self {
        let scenario = scenario.into();
        SweepSpec {
            label: label.into(),
            workload: Workload::Tree,
            n,
            reps,
            seed,
            alphas,
            ks,
            objective: scenario.objective,
            edge_cost: scenario.edge_cost,
            move_rule: scenario.move_rule,
        }
    }

    /// An Erdős–Rényi sweep; scenario handle as in [`SweepSpec::tree`].
    #[allow(clippy::too_many_arguments)] // mirrors `tree` plus the edge probability
    pub fn er(
        label: impl Into<String>,
        n: usize,
        p: f64,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        scenario: impl Into<Scenario>,
    ) -> Self {
        let scenario = scenario.into();
        SweepSpec {
            label: label.into(),
            workload: Workload::Er(p),
            n,
            reps,
            seed,
            alphas,
            ks,
            objective: scenario.objective,
            edge_cost: scenario.edge_cost,
            move_rule: scenario.move_rule,
        }
    }

    /// A scale-tier Erdős–Rényi sweep: `G(n, avg_deg/(n-1))` inputs in
    /// flat [`ScaleState`] layout, solved with the approximate
    /// simultaneous-move dynamics under a `max_rounds` cap. Only the
    /// canonical (uniform-price, any-subset) games are supported at
    /// this tier, so the scenario handle is a bare [`Objective`].
    #[allow(clippy::too_many_arguments)] // mirrors `er` plus the round cap
    pub fn scale_er(
        label: impl Into<String>,
        n: usize,
        avg_deg: f64,
        max_rounds: usize,
        reps: usize,
        seed: u64,
        alphas: Vec<f64>,
        ks: Vec<u32>,
        objective: Objective,
    ) -> Self {
        SweepSpec {
            label: label.into(),
            workload: Workload::ScaleEr { avg_deg, max_rounds },
            n,
            reps,
            seed,
            alphas,
            ks,
            objective,
            edge_cost: EdgeCostModel::Uniform,
            move_rule: MoveRulePolicy::AnySubset,
        }
    }

    /// Whether this sweep runs on the scale tier (flat states, the
    /// approximate simultaneous dynamics, [`ScaleArena`] warm starts)
    /// instead of the exact `GameState` path.
    pub fn is_scale(&self) -> bool {
        matches!(self.workload, Workload::ScaleEr { .. })
    }

    /// The sweep's scenario (objective × edge cost × move rule).
    pub fn scenario(&self) -> Scenario {
        Scenario { objective: self.objective, edge_cost: self.edge_cost, move_rule: self.move_rule }
    }

    /// The workload class tag recorded in run records
    /// (`"tree"` / `"er"` / `"scale_er"`).
    pub fn class(&self) -> &'static str {
        match self.workload {
            Workload::Tree => "tree",
            Workload::Er(_) => "er",
            Workload::ScaleEr { .. } => "scale_er",
        }
    }

    /// Total number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.alphas.len() * self.ks.len() * self.reps
    }

    /// Decomposes a canonical linear index into a [`CellId`].
    ///
    /// # Panics
    /// Panics if `index ≥ cell_count()`.
    pub fn cell(&self, index: usize) -> CellId {
        assert!(index < self.cell_count(), "cell index {index} out of range");
        let rep = index % self.reps;
        let rest = index / self.reps;
        CellId { index, ai: rest / self.ks.len(), ki: rest % self.ks.len(), rep }
    }

    /// The canonical linear index of `(ai, ki, rep)` — `α`-major, then
    /// `k`, then `rep`: the one definition every journal, fold,
    /// resume-skip and merge shares.
    pub fn index_of(&self, ai: usize, ki: usize, rep: usize) -> usize {
        (ai * self.ks.len() + ki) * self.reps + rep
    }

    /// Recomputes the canonical index of a journaled record under
    /// *this* spec's grid from the record's own coordinates.
    ///
    /// This is what lets journals written under a different `--reps`
    /// of the same grid be resumed and merged: a stored `cell` index
    /// encodes the writer's rep count, but `(α, k, rep)` plus this
    /// spec pins the cell down unambiguously. Returns `None` when the
    /// record doesn't belong to this grid at all — wrong class or
    /// `n`, an `α`/`k` not on the grid, or a rep at or beyond this
    /// spec's `reps` (a valid cell of a *larger* split, dropped here).
    pub fn index_of_record(&self, record: &RunRecord) -> Option<usize> {
        if record.class != self.class() || record.n != self.n || record.rep >= self.reps {
            return None;
        }
        let ai = self.alphas.iter().position(|&a| a == record.alpha)?;
        let ki = self.ks.iter().position(|&k| k == record.k)?;
        Some(self.index_of(ai, ki, record.rep))
    }

    /// Samples the sweep's initial states (one per rep, seeded
    /// per-instance — reproducible in isolation).
    ///
    /// # Panics
    /// Panics for scale sweeps, whose inputs must never round-trip
    /// through a `GameState` (`O(n)` allocations); use
    /// [`SweepSpec::scale_states`] there — or [`SweepSpec::sample`],
    /// which picks the tier's layout for you.
    pub fn states(&self) -> Vec<GameState> {
        match self.workload {
            Workload::Tree => workloads::tree_states(self.n, self.reps, self.seed),
            Workload::Er(p) => workloads::er_states(self.n, p, self.reps, self.seed),
            Workload::ScaleEr { .. } => {
                panic!("scale sweeps sample flat ScaleStates; call scale_states() instead")
            }
        }
    }

    /// Samples a scale sweep's initial states in flat layout.
    ///
    /// # Panics
    /// Panics for exact-tier workloads; use [`SweepSpec::states`].
    pub fn scale_states(&self) -> Vec<ScaleState> {
        match self.workload {
            Workload::ScaleEr { avg_deg, .. } => {
                workloads::scale_er_states(self.n, avg_deg, self.reps, self.seed)
            }
            _ => panic!("exact-tier sweeps sample GameStates; call states() instead"),
        }
    }

    /// Samples the sweep's initial states in its tier's layout.
    pub fn sample(&self) -> SweepStates {
        if self.is_scale() {
            SweepStates::Scale(self.scale_states())
        } else {
            SweepStates::Exact(self.states())
        }
    }

    /// Solves canonical cell `index` into its record, on either tier,
    /// with panic isolation: `states` is what [`SweepSpec::sample`]
    /// returned, `arena` the cell's repetition's warm-start buffers
    /// (`warm_start = false` replaces them with fresh ones first), and
    /// `inject_panic` makes the solve panic (the `panic_cell` fault).
    /// A panicking solve comes back as `Err(message)` with the arena
    /// rebuilt, as in [`solve_cell_guarded`].
    pub fn solve_record(
        &self,
        states: &SweepStates,
        index: usize,
        arena: &mut SweepArena,
        warm_start: bool,
        inject_panic: bool,
    ) -> Result<RunRecord, String> {
        let CellId { ai, ki, rep, .. } = self.cell(index);
        let (alpha, k) = (self.alphas[ai], self.ks[ki]);
        match states {
            SweepStates::Exact(states) => {
                let result = solve_cell_guarded(
                    &states[rep],
                    self.scenario(),
                    alpha,
                    k,
                    warm_start,
                    &mut arena.exact,
                    inject_panic,
                )?;
                Ok(RunRecord::new(self.class(), self.n, alpha, k, rep, &result))
            }
            SweepStates::Scale(states) => {
                if !warm_start {
                    arena.scale = ScaleArena::new();
                }
                let (result, state) = solve_scale_cell_guarded(
                    &states[rep],
                    self,
                    alpha,
                    k,
                    &mut arena.scale,
                    inject_panic,
                )?;
                Ok(RunRecord::from_scale(self.class(), alpha, k, rep, &result, &state))
            }
        }
    }

    /// A fingerprint of everything that determines this sweep's cell
    /// contents — workload family (and `p`), `n`, seed, and the
    /// `α`/`k` grids. Stamped on every journal line and checked on
    /// resume and merge, so a journal written under a different
    /// `--seed` or grid can never be silently reused (the record's own
    /// `(α, k, rep, n, class)` cannot carry the seed).
    ///
    /// `reps` is deliberately *not* mixed in: per-rep instance seeds
    /// derive from `(seed, class, n, rep)` alone, so a cell's contents
    /// don't depend on how many reps the run around it asked for.
    /// Journals written under different `--reps` of the same grid are
    /// therefore mergeable — the union's completeness is checked
    /// against the merge target's rep count instead.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            // SplitMix64 over a running state: order-sensitive, cheap.
            let mut z = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = match self.workload {
            Workload::Tree => mix(1, 0),
            Workload::Er(p) => mix(2, p.to_bits()),
            // The round cap is mixed in because capped scale cells
            // genuinely depend on it, unlike the exact tier's
            // effectively-unreachable default cap.
            Workload::ScaleEr { avg_deg, max_rounds } => {
                mix(mix(3, avg_deg.to_bits()), max_rounds as u64)
            }
        };
        h = mix(h, self.n as u64);
        h = mix(h, self.seed);
        h = mix(h, self.objective as u64);
        for &alpha in &self.alphas {
            h = mix(h, alpha.to_bits());
        }
        for &k in &self.ks {
            h = mix(h, u64::from(k) | 1 << 40);
        }
        // Model-zoo axes are mixed only when non-default, so every
        // journal written before the scenario layer existed (canonical
        // uniform/subset games) keeps its fingerprint and stays
        // resumable.
        if let EdgeCostModel::PerTarget { seed } = self.edge_cost {
            h = mix(h, 0xEDC0);
            h = mix(h, seed);
        }
        if self.move_rule == MoveRulePolicy::Swap {
            h = mix(h, 0x54A9);
        }
        h
    }
}

/// A process-level shard selection: this process owns the cells whose
/// repetition satisfies `rep % count == index`. Partitioning by rep
/// (rather than raw cell index) keeps every warm-start group — all
/// `(α, k)` cells of one initial state — inside a single shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Total number of shards (`≥ 1`).
    pub count: usize,
    /// This process's shard index (`< count`).
    pub index: usize,
}

impl Shard {
    /// The trivial partition: one shard owning everything.
    pub fn all() -> Self {
        Shard { count: 1, index: 0 }
    }

    /// Whether this shard owns repetition `rep`.
    #[inline]
    pub fn owns_rep(&self, rep: usize) -> bool {
        rep % self.count == self.index
    }
}

/// A sweep's initial states, one per repetition, in its tier's
/// layout ([`SweepSpec::sample`]): `GameState`s on the exact tier,
/// flat [`ScaleState`]s on the scale tier, whose inputs never
/// round-trip through a `GameState`.
#[derive(Debug)]
pub enum SweepStates {
    /// Exact-tier initial states.
    Exact(Vec<GameState>),
    /// Scale-tier initial states.
    Scale(Vec<ScaleState>),
}

/// One repetition's warm-start buffers, for either tier: the exact
/// tier's [`CacheArena`] (view cache and solver scratch) and the scale
/// tier's [`ScaleArena`]. Both start empty; a sweep only grows the one
/// its tier uses.
#[derive(Debug, Default)]
pub struct SweepArena {
    exact: CacheArena,
    scale: ScaleArena,
}

/// Solves one exact-tier cell with panic isolation: a panic anywhere
/// inside the dynamics (or injected via `inject_panic`, the
/// `panic_cell` fault) is caught, the cell's [`CacheArena`] is rebuilt
/// — its dirty tracking and solver scratch may have been left
/// mid-update, so the warm-start soundness argument no longer covers
/// them — and the panic payload comes back as `Err(message)`. The
/// *next* cell on the same arena is then observationally a cold run,
/// which the dynamics crate tests to be bit-identical to a warm one.
/// A cold solve (`warm_start = false`) is that same rebuild, before
/// the run.
pub fn solve_cell_guarded(
    state: &GameState,
    scenario: Scenario,
    alpha: f64,
    k: u32,
    warm_start: bool,
    arena: &mut CacheArena,
    inject_panic: bool,
) -> Result<RunResult, String> {
    let config = DynamicsConfig::new(scenario.spec(alpha, k));
    if !warm_start {
        arena.rebuild();
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: panic_cell");
        }
        run_with_cache(state.clone(), &config, arena)
    }));
    outcome.map_err(|payload| {
        arena.rebuild();
        panic_message(payload.as_ref())
    })
}

/// A caught panic's payload as a string: the message of a `panic!`
/// with a literal or a formatted string, else a fixed placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Solves one *scale-tier* cell with panic isolation, mirroring
/// [`solve_cell_guarded`]: the rep's initial [`ScaleState`] is cloned
/// (a handful of flat memcpys), the approximate simultaneous dynamics
/// run under the spec's round cap, and a panic anywhere inside comes
/// back as `Err(message)` with the [`ScaleArena`] rebuilt (its dirty
/// set and scratch pool may have been left mid-round). Returns the
/// run result together with the final state so callers can extract
/// the record's network statistics without keeping the state alive.
pub fn solve_scale_cell_guarded(
    initial: &ScaleState,
    spec: &SweepSpec,
    alpha: f64,
    k: u32,
    arena: &mut ScaleArena,
    inject_panic: bool,
) -> Result<(ScaleRunResult, ScaleState), String> {
    let Workload::ScaleEr { max_rounds, .. } = spec.workload else {
        panic!("solve_scale_cell_guarded requires a scale workload")
    };
    let mut config = ScaleConfig::new(spec.scenario().spec(alpha, k));
    config.max_rounds = max_rounds;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: panic_cell");
        }
        let mut state = initial.clone();
        let result = run_scale(&mut state, &config, arena);
        (result, state)
    }));
    outcome.map_err(|payload| {
        *arena = ScaleArena::new();
        panic_message(payload.as_ref())
    })
}

/// Runs this shard's cells of one grid, on either tier, streaming each
/// finished cell's [`RunRecord`] — or the panic payload of a failed
/// solve — to `sink`; the sweep carries on past a failed cell. This is
/// the one rep-major loop under every sweep: one parallel item per
/// repetition, whose [`SweepArena`] persists across its whole `(α, k)`
/// column (the warm-start win), cells in canonical order within it.
///
/// Cells for which `skip(index)` returns `true` (already journaled, on
/// resume) are not run and not reported, and a run with no cell left
/// in this shard returns without sampling; `inject_panic(index)` makes a
/// cell's solve panic (the `panic_cell` fault). `warm_start = false`
/// gives every cell a fresh arena. `sink` may be called from worker
/// threads in any completion order; the canonical order is
/// re-established downstream (see `crate::engine`).
pub fn run_spec_cells(
    spec: &SweepSpec,
    warm_start: bool,
    shard: Shard,
    skip: &(dyn Fn(usize) -> bool + Sync),
    sink: &(dyn Fn(CellId, Result<RunRecord, String>) + Sync),
    inject_panic: &(dyn Fn(usize) -> bool + Sync),
) {
    assert!(shard.count >= 1 && shard.index < shard.count, "invalid shard {shard:?}");
    let cells_left = |rep: usize| {
        (0..spec.alphas.len())
            .any(|ai| (0..spec.ks.len()).any(|ki| !skip(spec.index_of(ai, ki, rep))))
    };
    let my_reps: Vec<usize> =
        (0..spec.reps).filter(|&rep| shard.owns_rep(rep) && cells_left(rep)).collect();
    if my_reps.is_empty() {
        // Nothing left to run here: do not sample the initial states.
        return;
    }
    let states = spec.sample();
    let _: Vec<()> = my_reps
        .into_par_iter()
        .map(|rep| {
            let mut arena = SweepArena::default();
            for ai in 0..spec.alphas.len() {
                for ki in 0..spec.ks.len() {
                    let index = spec.index_of(ai, ki, rep);
                    if skip(index) {
                        continue;
                    }
                    let inject = inject_panic(index);
                    let record = spec.solve_record(&states, index, &mut arena, warm_start, inject);
                    sink(CellId { index, ai, ki, rep }, record);
                }
            }
        })
        .collect();
}

/// A compact serialisable record of one run — the unit the sweep
/// engine streams to its JSONL journal and the fold API aggregates.
/// Holds only scalars, so a full 36 000-cell grid of records is a few
/// megabytes where the same grid of [`RunResult`]s was gigabytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload class tag (`"tree"` / `"er"`).
    pub class: String,
    /// Player count.
    pub n: usize,
    /// Edge price.
    pub alpha: f64,
    /// Knowledge radius.
    pub k: u32,
    /// Repetition index.
    pub rep: usize,
    /// `true` iff the dynamics converged.
    pub converged: bool,
    /// `true` iff the run hit the round cap without converging or
    /// cycling (in which case `rounds` is the cap, not a sentinel).
    pub capped: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Total accepted moves.
    pub moves: usize,
    /// Final diameter, if connected.
    pub diameter: Option<u32>,
    /// Final quality `SC/OPT`.
    pub quality: Option<f64>,
    /// Final maximum degree.
    pub max_degree: usize,
    /// Final maximum bought edges.
    pub max_bought: usize,
    /// Final minimum view size.
    pub min_view: usize,
    /// Final average view size.
    pub avg_view: f64,
    /// Final unfairness ratio.
    pub unfairness: Option<f64>,
}

impl RunRecord {
    /// Builds a record from a finished exact-tier run. Capped runs
    /// record the rounds actually executed plus `capped: true`, never
    /// the `usize::MAX` sentinel. The sweep drops the [`RunResult`]
    /// (and its `GameState`) as soon as this returns.
    pub fn new(class: &str, n: usize, alpha: f64, k: u32, rep: usize, result: &RunResult) -> Self {
        let m = &result.final_metrics;
        RunRecord {
            class: class.to_string(),
            n,
            alpha,
            k,
            rep,
            converged: result.outcome.converged(),
            capped: matches!(result.outcome, ncg_dynamics::Outcome::MaxRoundsExceeded { .. }),
            rounds: result.outcome.rounds(),
            moves: result.total_moves,
            diameter: m.diameter,
            quality: m.quality,
            max_degree: m.max_degree,
            max_bought: m.max_bought,
            min_view: m.min_view,
            avg_view: m.avg_view,
            unfairness: m.unfairness,
        }
    }

    /// Builds a record from a finished scale-tier run. The schema is
    /// shared with the exact tier; fields the scale tier does not
    /// measure exhaustively are `None` (`diameter`, `quality`,
    /// `unfairness` would each cost `O(n·m)`), and the view statistics
    /// come from the deterministic 64-player [`ViewSample`]
    /// (`min_view` is the sampled minimum, not the global one).
    ///
    /// [`ViewSample`]: ncg_dynamics::scale::ViewSample
    pub fn from_scale(
        class: &str,
        alpha: f64,
        k: u32,
        rep: usize,
        result: &ScaleRunResult,
        final_state: &ScaleState,
    ) -> Self {
        let n = final_state.n();
        let g = final_state.graph();
        let max_degree =
            (0..n as ncg_graph::NodeId).map(|u| g.neighbors(u).len()).max().unwrap_or(0);
        RunRecord {
            class: class.to_string(),
            n,
            alpha,
            k,
            rep,
            converged: result.outcome.converged(),
            capped: matches!(result.outcome, ncg_dynamics::Outcome::MaxRoundsExceeded { .. }),
            rounds: result.outcome.rounds(),
            moves: result.total_moves,
            diameter: None,
            quality: None,
            max_degree,
            max_bought: final_state.max_bought(),
            min_view: result.view_sample.min,
            avg_view: result.view_sample.avg,
            unfairness: None,
        }
    }

    /// Whether the run ended in a detected best-response cycle.
    pub fn cycled(&self) -> bool {
        !self.converged && !self.capped
    }
}

#[cfg(test)]
mod tests {
    use parking_lot::Mutex;

    use super::*;
    use crate::workloads;

    #[test]
    fn cell_index_round_trips() {
        let spec =
            SweepSpec::tree("t", 10, 3, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        assert_eq!(spec.cell_count(), 24);
        for index in 0..spec.cell_count() {
            let cell = spec.cell(index);
            assert_eq!(cell.index, index);
            assert_eq!(spec.index_of(cell.ai, cell.ki, cell.rep), index);
        }
        // α-major, then k, then rep.
        assert_eq!(spec.cell(0), CellId { index: 0, ai: 0, ki: 0, rep: 0 });
        assert_eq!(spec.cell(3), CellId { index: 3, ai: 0, ki: 1, rep: 0 });
        assert_eq!(spec.cell(6), CellId { index: 6, ai: 1, ki: 0, rep: 0 });
    }

    #[test]
    fn shard_partition_is_by_rep_and_complete() {
        let shards: Vec<Shard> = (0..3).map(|index| Shard { count: 3, index }).collect();
        for rep in 0..10 {
            let owners: Vec<usize> =
                shards.iter().filter(|s| s.owns_rep(rep)).map(|s| s.index).collect();
            assert_eq!(owners, vec![rep % 3], "rep {rep} must have exactly one owner");
        }
    }

    /// Every entry `run_spec_cells` streams for `shard`, in canonical
    /// order.
    fn stream(
        spec: &SweepSpec,
        warm_start: bool,
        shard: Shard,
        inject_panic: &(dyn Fn(usize) -> bool + Sync),
    ) -> Vec<(usize, Result<RunRecord, String>)> {
        let got = Mutex::new(Vec::new());
        run_spec_cells(
            spec,
            warm_start,
            shard,
            &|_| false,
            &|cell, entry| got.lock().push((cell.index, entry)),
            inject_panic,
        );
        let mut got = got.into_inner();
        got.sort_by_key(|(i, _)| *i);
        got
    }

    #[test]
    fn sharded_run_cells_cover_exactly_the_grid() {
        let spec = SweepSpec::tree("t", 10, 3, 5, vec![0.5, 2.0], vec![2], Objective::Max);
        let mut seen: Vec<usize> = (0..2)
            .flat_map(|index| stream(&spec, true, Shard { count: 2, index }, &|_| false))
            .map(|(index, _)| index)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "shards must partition the grid exactly");
    }

    /// Skipped cells are neither solved nor reported, so the sink's
    /// total is the count of cells left to run.
    #[test]
    fn skip_suppresses_cells_and_progress_total() {
        let spec = SweepSpec::tree("t", 10, 2, 9, vec![1.0], vec![2, 3], Objective::Max);
        let ran: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        run_spec_cells(
            &spec,
            true,
            Shard::all(),
            &|index| index % 2 == 0,
            &|cell, _| ran.lock().push(cell.index),
            &|_| false,
        );
        let mut ran = ran.into_inner();
        ran.sort_unstable();
        assert_eq!(ran, vec![1, 3]);
    }

    /// A run with nothing left to do returns before it samples: this
    /// spec's sampling panics (`G(8, 0)` is never connected), yet a
    /// fully skipped run and a shard that owns no repetition both
    /// return without reporting a cell.
    #[test]
    fn nothing_left_to_run_samples_nothing() {
        let spec = SweepSpec::er("e", 8, 0.0, 1, 3, vec![1.0], vec![2, 3], Objective::Max);
        assert!(std::panic::catch_unwind(|| spec.sample()).is_err(), "sampling must panic");
        let reported = |cell: CellId, _| panic!("cell {} was reported", cell.index);
        let (all, none) = (|_: usize| true, |_: usize| false);
        run_spec_cells(&spec, true, Shard::all(), &all, &reported, &none);
        run_spec_cells(&spec, true, Shard { count: 2, index: 1 }, &none, &reported, &none);
    }

    #[test]
    fn run_record_extracts_fields() {
        let states = workloads::tree_states(12, 1, 4);
        let config = DynamicsConfig::new(ncg_core::GameSpec::max(2.0, 3));
        let result = ncg_dynamics::run(states[0].clone(), &config);
        let rec = RunRecord::new("tree", 12, 2.0, 3, 0, &result);
        assert_eq!(rec.class, "tree");
        assert_eq!(rec.n, 12);
        assert_eq!(rec.alpha, 2.0);
        assert_eq!(rec.k, 3);
        assert!(rec.converged);
        assert!(!rec.capped);
        assert!(!rec.cycled());
        assert!(rec.rounds >= 1);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"class\":\"tree\""));
        assert!(json.contains("\"capped\":false"));
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec, "records must round-trip through the journal encoding");
    }

    #[test]
    fn capped_runs_record_executed_rounds_not_a_sentinel() {
        // A toggling two-player gadget that can never converge, with a
        // cap of 1 round: the record must say rounds = 1, capped.
        let state = GameState::from_strategies(3, vec![vec![1], vec![2], vec![0]]);
        let spec = ncg_core::GameSpec::max(1.0, 2);
        let mut config = DynamicsConfig::new(spec);
        config.max_rounds = 0;
        let result = ncg_dynamics::run(state, &config);
        let rec = RunRecord::new("tree", 3, spec.alpha, spec.k, 0, &result);
        assert!(rec.capped);
        assert!(!rec.converged);
        assert_eq!(rec.rounds, 0, "rounds must be the executed count, not usize::MAX");
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"capped\":true"));
        assert!(!json.contains(&usize::MAX.to_string()));
    }

    #[test]
    fn fingerprint_ignores_reps_but_nothing_else() {
        let base =
            SweepSpec::tree("t", 10, 3, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        let mut more_reps = base.clone();
        more_reps.reps = 12;
        assert_eq!(
            base.fingerprint(),
            more_reps.fingerprint(),
            "reps splits of one grid must share a fingerprint (hetero-reps merge)"
        );
        let mut other_seed = base.clone();
        other_seed.seed = 8;
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let mut other_grid = base.clone();
        other_grid.ks.push(4);
        assert_ne!(base.fingerprint(), other_grid.fingerprint());
    }

    #[test]
    fn index_of_record_reindexes_across_reps_splits() {
        let writer =
            SweepSpec::tree("t", 10, 2, 7, vec![0.5, 1.0, 2.0, 4.0], vec![2, 3], Objective::Max);
        let reader = SweepSpec { reps: 5, ..writer.clone() };
        let record = |alpha: f64, k: u32, rep: usize| RunRecord {
            class: "tree".into(),
            n: 10,
            alpha,
            k,
            rep,
            converged: true,
            capped: false,
            rounds: 1,
            moves: 1,
            diameter: Some(2),
            quality: Some(1.0),
            max_degree: 2,
            max_bought: 1,
            min_view: 3,
            avg_view: 3.0,
            unfairness: Some(1.0),
        };
        // Every writer cell lands at the reader's index for the same
        // (α, k, rep), which differs from the writer's stored index.
        for index in 0..writer.cell_count() {
            let cell = writer.cell(index);
            let rec = record(writer.alphas[cell.ai], writer.ks[cell.ki], cell.rep);
            assert_eq!(
                writer.index_of_record(&rec),
                Some(index),
                "round-trip under the writer's own grid"
            );
            assert_eq!(
                reader.index_of_record(&rec),
                Some(reader.index_of(cell.ai, cell.ki, cell.rep)),
                "reindex under a larger reps split"
            );
        }
        // Records outside the grid are rejected, not mis-filed.
        assert_eq!(reader.index_of_record(&record(0.75, 2, 0)), None, "off-grid α");
        assert_eq!(reader.index_of_record(&record(0.5, 9, 0)), None, "off-grid k");
        assert_eq!(reader.index_of_record(&record(0.5, 2, 5)), None, "rep beyond reps");
        let mut er = record(0.5, 2, 0);
        er.class = "er".into();
        assert_eq!(reader.index_of_record(&er), None, "wrong workload class");
        let mut other_n = record(0.5, 2, 0);
        other_n.n = 11;
        assert_eq!(reader.index_of_record(&other_n), None, "wrong n");
    }

    /// A scale spec small enough for unit tests; two reps so the
    /// shard partition is non-trivial.
    fn tiny_scale_spec() -> SweepSpec {
        SweepSpec::scale_er("s", 120, 4.0, 6, 2, 9, vec![0.8, 4.0], vec![2], Objective::Max)
    }

    #[test]
    fn scale_spec_classifies_and_fingerprints() {
        let spec = tiny_scale_spec();
        assert!(spec.is_scale());
        assert_eq!(spec.class(), "scale_er");
        let mut other_deg = spec.clone();
        other_deg.workload = Workload::ScaleEr { avg_deg: 5.0, max_rounds: 6 };
        assert_ne!(spec.fingerprint(), other_deg.fingerprint(), "avg_deg is load-bearing");
        let mut other_cap = spec.clone();
        other_cap.workload = Workload::ScaleEr { avg_deg: 4.0, max_rounds: 7 };
        assert_ne!(spec.fingerprint(), other_cap.fingerprint(), "round cap is load-bearing");
    }

    #[test]
    #[should_panic(expected = "scale sweeps sample flat ScaleStates")]
    fn scale_spec_refuses_game_states() {
        let _ = tiny_scale_spec().states();
    }

    #[test]
    fn run_spec_cells_covers_scale_grids_and_records_round_trip() {
        let spec = tiny_scale_spec();
        let got = stream(&spec, true, Shard::all(), &|_| false);
        assert_eq!(got.len(), spec.cell_count());
        for (index, entry) in &got {
            let rec = entry.as_ref().expect("no cell may fail");
            assert_eq!(rec.class, "scale_er");
            assert_eq!(rec.n, 120);
            assert!(rec.rounds <= 6);
            assert!(rec.diameter.is_none() && rec.quality.is_none() && rec.unfairness.is_none());
            assert!(rec.avg_view >= 1.0, "sampled balls always contain their center");
            // The journal keying used by resume and merge must accept
            // scale records like any other class.
            assert_eq!(spec.index_of_record(rec), Some(*index));
            let json = serde_json::to_string(rec).unwrap();
            let back: RunRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, rec);
        }
        // The dynamics do something on a random flat network: at the
        // cheap price at least, some player buys or drops an edge.
        assert!(got.iter().any(|(_, r)| r.as_ref().unwrap().moves > 0), "no cell moved at all");
    }

    #[test]
    fn scale_cells_are_identical_warm_cold_and_across_shards() {
        let spec = tiny_scale_spec();
        let collect = |warm: bool, shards: usize| {
            let mut got: Vec<_> = (0..shards)
                .flat_map(|index| stream(&spec, warm, Shard { count: shards, index }, &|_| false))
                .collect();
            got.sort_by_key(|(i, _)| *i);
            got
        };
        let reference = collect(true, 1);
        assert!(reference.iter().all(|(_, entry)| entry.is_ok()), "no failures");
        assert_eq!(reference, collect(false, 1), "warm arenas must not change outcomes");
        assert_eq!(reference, collect(true, 2), "shard partition must not change outcomes");
    }

    #[test]
    fn panicking_scale_cell_fails_alone() {
        let spec = tiny_scale_spec();
        let got = stream(&spec, true, Shard::all(), &|index| index == 1);
        assert_eq!(got.len(), spec.cell_count());
        for (index, entry) in got {
            if index == 1 {
                assert!(entry.unwrap_err().contains("injected fault: panic_cell"));
            } else {
                assert!(entry.is_ok(), "cell {index} must survive a sibling's panic");
            }
        }
    }

    #[test]
    fn panicking_cell_fails_alone_and_the_rest_match_a_clean_run() {
        let spec = SweepSpec::tree("t", 14, 2, 11, vec![0.5, 2.0], vec![2, 1000], Objective::Max);
        let clean = stream(&spec, true, Shard::all(), &|_| false);
        // Cell 2 is mid-rep-0's warm-start column: rep 0 runs cells
        // 0, 2, 4, 6, so the arena is warm before and rebuilt after.
        let faulty = stream(&spec, true, Shard::all(), &|index| index == 2);
        assert_eq!(faulty.len(), clean.len(), "every cell still reports");
        for ((ci, c), (fi, f)) in clean.iter().zip(&faulty) {
            assert_eq!(ci, fi);
            if *ci == 2 {
                let message = f.as_ref().unwrap_err();
                assert!(
                    message.contains("injected fault: panic_cell"),
                    "failed cell must carry the panic payload, got {message:?}"
                );
            } else {
                assert_eq!(c, f, "cells other than the panicking one are bit-identical");
            }
        }
    }

    #[test]
    fn warm_and_cold_sweeps_agree_bitwise() {
        // The warm-start acceptance criterion at the engine level:
        // per-cell outcomes identical with arenas on and off.
        let spec = SweepSpec::tree("t", 16, 3, 11, vec![0.4, 3.0], vec![2, 1000], Objective::Max);
        let warm = stream(&spec, true, Shard::all(), &|_| false);
        assert!(warm.iter().all(|(_, entry)| entry.is_ok()), "unexpected cell failure");
        assert_eq!(warm, stream(&spec, false, Shard::all(), &|_| false));
    }
}
