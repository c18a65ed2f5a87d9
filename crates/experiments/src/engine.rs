//! The experiment-level sweep orchestrator: one entry point
//! ([`execute`]) that every dynamics figure routes its sweeps
//! through, in one of four modes.
//!
//! * **Local** — run every cell in-process (warm-started per rep),
//!   stream each finished cell to the JSONL journal the moment it
//!   completes, and *fold* records into the experiment's `O(grid)`
//!   aggregates in canonical cell order (a small reorder buffer
//!   re-serialises the workers' completion order). If a journal from
//!   a killed run exists, its cells are replayed into the fold and
//!   only the missing ones are computed.
//! * **Shard** — run only the cells of shard `i` of `M` (partitioned
//!   by `rep % M`, keeping warm-start groups intact), journal them,
//!   and skip table rendering entirely: tables come from `merge`.
//! * **Merge** — run nothing; read the `M` shard journals, verify
//!   the grid is complete, fold in canonical order, and write the
//!   canonical merged journal. Because folding consumes records in
//!   the same order Local mode does and serialisation is
//!   deterministic, merged tables and JSONL are byte-identical to a
//!   single-process run (property-tested in
//!   `tests/sweep_shard_props.rs`). Each entry's canonical index is
//!   re-derived from its record under the merge target's grid, so
//!   shards run with *different* `--reps` splits of one grid merge
//!   cleanly — completeness is checked on the union.
//! * **Plan** — run nothing and journal nothing; report the journal
//!   name and the specs to [`collect_plan`] so callers (the work-queue
//!   coordinator and its workers) can learn an experiment's [`Plan`] —
//!   its journal and cell work-list — without executing it.
//!
//! The fold callback receives `(sweep index, cell, record)` strictly
//! in canonical order: sweeps in plan order, cells by linear index.
//!
//! A journal belongs to a grid, not to a figure: `execute`'s
//! `experiment` argument names the journal (`<experiment>_runs.jsonl`,
//! or its shard files), and two experiments that fold the same grid
//! pass the same name. Figure 9 folds [`crate::figure8::plan`] under
//! `figure8`, so after Figure 8 it resumes every cell and solves none.
//!
//! Failure isolation: a cell whose solve panics (caught in
//! [`SweepSpec::solve_record`]) is journaled as a `CellFailed` marker
//! and the rest of the sweep completes; `execute` then panics with a
//! summary instead of rendering tables from a hole-y grid. Re-running
//! the experiment retries exactly the failed cells (completed ones
//! resume from the journal).
//!
//! Fault injection: when the process-level `NCG_FAULT` plan is set
//! (see [`crate::fault`]), the engine wires it through — the journal
//! writer arms `torn_write`, the sink counts results for
//! `kill_after_cells`, and the cell solve injects `panic_cell`.
//!
//! Resume and merge read journals through [`journal::index`], the one
//! map from journal entries to `(sweep, canonical cell)` keys that the
//! work-queue coordinator uses too.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ncg_stats::{Accumulator, Summary};
use parking_lot::Mutex;

use crate::fault::{self, FaultPlan};
use crate::journal::{self, CellFailed, JournalEntry, JournalWriter};
use crate::sweep::{run_spec_cells, CellId, RunRecord, Shard, SweepSpec};

/// How an experiment's sweeps are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Run everything in this process.
    Local,
    /// Run only shard `index` of `count`, journal, render no tables.
    Shard {
        /// Total number of shards.
        count: usize,
        /// This process's shard.
        index: usize,
    },
    /// Fold the `count` shard journals into the final artifacts.
    Merge {
        /// Total number of shards to merge.
        count: usize,
    },
    /// Run nothing; record the plan's specs for [`collect_plan`].
    Plan,
}

/// Execution context threaded from the CLI into every experiment.
#[derive(Debug, Clone)]
pub struct SweepContext {
    /// Execution mode.
    pub mode: SweepMode,
    /// Directory holding journals (`None`: no journaling — the pure
    /// in-memory library path used by tests and `run(profile)`).
    pub journal_dir: Option<PathBuf>,
    /// Whether to warm-start dynamics per repetition (on by default;
    /// outcomes are bit-identical either way).
    pub warm_start: bool,
}

impl SweepContext {
    /// The default context: local, no journal, warm starts on.
    pub fn local() -> Self {
        SweepContext { mode: SweepMode::Local, journal_dir: None, warm_start: true }
    }
}

impl Default for SweepContext {
    fn default() -> Self {
        Self::local()
    }
}

/// What [`execute`] did, for the experiment's notes.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// `true` when the fold ran (Local/Merge) and tables can be
    /// rendered; `false` in shard mode.
    pub folded: bool,
    /// Cells actually computed in this process.
    pub cells_run: usize,
    /// Cells replayed from journals (resume or merge).
    pub cells_resumed: usize,
    /// Cells whose solve panicked (journaled as `CellFailed`).
    pub cells_failed: usize,
    /// The journal written, if journaling was on.
    pub journal: Option<PathBuf>,
    shard: Option<(usize, usize)>,
}

impl ExecReport {
    /// In shard (and plan) mode, the note replacing the experiment's
    /// tables; `None` otherwise. `command` is the experiment's CLI
    /// name, which the note tells the user to merge.
    pub fn shard_note(&self, command: &str) -> Option<String> {
        let (index, count) = self.shard?;
        let path = self
            .journal
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<no journal>".into());
        Some(format!(
            "{command} — shard {index} of {count}: journaled {} new cells \
             ({} resumed) to {path}; run `merge {command} --shards {count}` \
             with the same profile flags and --out once every shard has finished.",
            self.cells_run, self.cells_resumed
        ))
    }
}

/// What an experiment's sweeps are: the journal they fold and their
/// specs, in plan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// The journal name passed to [`execute`] (`<journal>_runs.jsonl`);
    /// empty when the experiment plans no sweep.
    pub journal: String,
    /// The sweeps, in plan order.
    pub specs: Vec<SweepSpec>,
}

thread_local! {
    static PLAN_SINK: RefCell<Option<Plan>> = const { RefCell::new(None) };
}

/// Runs `f` with plan collection armed on this thread and returns the
/// journal name and every spec that [`execute`] calls under a
/// [`SweepMode::Plan`] context reported while it ran. This is how the
/// queue layer turns "experiment name" into "journal and cell
/// work-list" without running anything: drive the experiment with a
/// Plan context inside `collect_plan` and read the plan off.
pub fn collect_plan(f: impl FnOnce()) -> Plan {
    PLAN_SINK.with(|sink| *sink.borrow_mut() = Some(Plan::default()));
    f();
    PLAN_SINK.with(|sink| sink.borrow_mut().take()).unwrap_or_default()
}

/// The per-sweep streaming sink: appends finished cells to the
/// journal immediately (crash safety) and re-serialises the workers'
/// completion order into canonical order for the fold via a reorder
/// buffer keyed by cell index. Resumed records are preloaded into the
/// buffer, so the fold sees one contiguous canonical stream. The
/// buffer only ever holds records completed ahead of the canonical
/// cursor (plus preloaded resume records), so it stays far below the
/// grid size in practice.
struct SinkState<'a> {
    writer: Option<JournalWriter>,
    pending: BTreeMap<usize, RunRecord>,
    next: usize,
    ran: usize,
    failed: usize,
    fold: &'a mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
}

impl SinkState<'_> {
    fn drain(&mut self, spec_idx: usize, spec: &SweepSpec) {
        while let Some(record) = self.pending.remove(&self.next) {
            (self.fold)(spec_idx, spec.cell(self.next), &record);
            self.next += 1;
        }
    }
}

/// Executes an experiment's sweeps under the given context, driving
/// `fold(sweep index, cell, record)` in canonical order (Local and
/// Merge modes); `experiment` names the journal the sweeps resume and
/// write. Returns what happened; in shard and plan modes the fold is
/// never called. Panics on journal I/O errors, on merge
/// journals that are incomplete or from a different profile, on an
/// invalid shard selection, and — after journaling `CellFailed`
/// markers and compacting — when any cell's solve panicked.
pub fn execute(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    match ctx.mode {
        SweepMode::Merge { count } => merge(ctx, experiment, specs, count, fold),
        SweepMode::Local => run_shard(ctx, experiment, specs, Shard::all(), true, fold),
        SweepMode::Shard { count, index } => {
            assert!(count >= 1 && index < count, "invalid shard {index} of {count}");
            run_shard(ctx, experiment, specs, Shard { count, index }, false, fold)
        }
        SweepMode::Plan => {
            PLAN_SINK.with(|sink| {
                let mut sink = sink.borrow_mut();
                let plan = sink
                    .as_mut()
                    .expect("SweepMode::Plan requires running inside engine::collect_plan");
                assert!(
                    plan.journal.is_empty() || plan.journal == experiment,
                    "an experiment folds one journal, not both '{}' and '{experiment}'",
                    plan.journal
                );
                plan.journal = experiment.to_string();
                plan.specs.extend(specs.iter().cloned());
            });
            // Report as a pseudo-shard so figures take their existing
            // journal-only early return and render nothing.
            ExecReport {
                folded: false,
                cells_run: 0,
                cells_resumed: 0,
                cells_failed: 0,
                journal: None,
                shard: Some((0, 1)),
            }
        }
    }
}

fn run_shard(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    shard: Shard,
    do_fold: bool,
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    let fault: Option<Arc<FaultPlan>> = fault::env_plan();
    let path = ctx.journal_dir.as_ref().map(|dir| {
        if shard.count == 1 {
            journal::journal_path(dir, experiment)
        } else {
            journal::shard_journal_path(dir, experiment, shard.index, shard.count)
        }
    });
    // Resume: every journaled record, keyed by (sweep, cell) — the
    // cell index re-derived under the current plan's grid.
    let (resumed, dropped) = match path.as_ref() {
        Some(path) => {
            journal::index(journal::read(path).expect("reading the resume journal"), specs)
        }
        None => Default::default(),
    };
    if dropped > 0 {
        eprintln!(
            "[resume] {experiment}: dropped {dropped} journaled cells whose rep lies beyond \
             the current --reps (they belong to a larger split of this grid)"
        );
    }
    // Even an empty shard must leave a journal behind, or `merge`
    // could not tell "ran, owned nothing" from "never ran".
    let mut writer = path
        .as_ref()
        .map(|p| JournalWriter::append(p).expect("opening journal").with_fault(fault.clone()));
    // Each spec's resumed records: skipped by the engine and (in fold
    // mode) preloaded into the reorder buffer so the fold still sees
    // one contiguous canonical stream.
    let mut preloads: Vec<BTreeMap<usize, RunRecord>> = vec![BTreeMap::new(); specs.len()];
    for ((si, index), entry) in resumed {
        preloads[si].insert(index, entry.record);
    }
    let (mut cells_run, mut cells_resumed) = (0usize, 0usize);
    let failures: Mutex<Vec<(String, usize, String)>> = Mutex::new(Vec::new());
    for (si, (spec, preload)) in specs.iter().zip(preloads).enumerate() {
        cells_resumed += preload.len();
        let skip: Vec<bool> = (0..spec.cell_count()).map(|i| preload.contains_key(&i)).collect();
        let grid = spec.fingerprint();
        let sink = Mutex::new(SinkState {
            writer: writer.take(),
            pending: if do_fold { preload } else { BTreeMap::new() },
            next: 0,
            ran: 0,
            failed: 0,
            fold: &mut *fold,
        });
        if do_fold {
            sink.lock().drain(si, spec);
        }
        run_spec_cells(
            spec,
            ctx.warm_start,
            shard,
            &|index| skip[index],
            &|cell, entry| match entry {
                Ok(record) => {
                    if let Some(f) = fault.as_ref() {
                        if f.should_die_before_result() {
                            f.abort("before journaling a cell result");
                        }
                    }
                    let mut s = sink.lock();
                    s.ran += 1;
                    if let Some(w) = s.writer.as_mut() {
                        w.push(&JournalEntry {
                            sweep: spec.label.clone(),
                            cell: cell.index,
                            grid,
                            record: record.clone(),
                        })
                        .expect("appending to the run journal");
                    }
                    if do_fold {
                        s.pending.insert(cell.index, record);
                        s.drain(si, spec);
                    }
                }
                Err(message) => {
                    let mut s = sink.lock();
                    s.failed += 1;
                    if let Some(w) = s.writer.as_mut() {
                        w.push_failed(&CellFailed {
                            sweep: spec.label.clone(),
                            cell: cell.index,
                            grid,
                            failed: message.clone(),
                        })
                        .expect("appending a cell failure to the run journal");
                    }
                    failures.lock().push((spec.label.clone(), cell.index, message));
                }
            },
            &|cell| fault.as_ref().is_some_and(|f| f.panics_at_cell(si, cell)),
        );
        let mut s = sink.into_inner();
        if do_fold {
            s.drain(si, spec);
            // With failed cells the canonical stream has holes; the
            // summary panic below replaces table rendering entirely.
            if s.failed == 0 {
                assert_eq!(
                    s.next,
                    spec.cell_count(),
                    "sweep '{}' must fold every cell exactly once",
                    spec.label
                );
            }
        }
        cells_run += s.ran;
        writer = s.writer.take();
    }
    drop(writer);
    if let Some(path) = path.as_ref() {
        journal::compact(path, specs).expect("compacting the run journal");
    }
    let failures = failures.into_inner();
    if !failures.is_empty() {
        let listing: Vec<String> = failures
            .iter()
            .map(|(sweep, cell, message)| format!("'{sweep}' cell {cell}: {message}"))
            .collect();
        panic!(
            "{experiment}: {} cell(s) failed with panics — {}; completed cells are journaled, \
             so re-running retries only the failed ones",
            failures.len(),
            listing.join("; ")
        );
    }
    ExecReport {
        folded: do_fold,
        cells_run,
        cells_resumed,
        cells_failed: 0,
        journal: path,
        shard: (shard.count > 1).then_some((shard.index, shard.count)),
    }
}

/// The first of the `count` shard journals of `experiment`'s journal
/// that `dir` lacks, as `(shard index, path)`; `None` once every shard
/// has run. Merge mode refuses to run until this is `None`.
pub fn missing_shard(dir: &Path, experiment: &str, count: usize) -> Option<(usize, PathBuf)> {
    (0..count)
        .map(|index| (index, journal::shard_journal_path(dir, experiment, index, count)))
        .find(|(_, path)| !path.is_file())
}

fn merge(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
    count: usize,
    fold: &mut (dyn FnMut(usize, CellId, &RunRecord) + Send),
) -> ExecReport {
    assert!(count >= 1, "merge needs at least one shard");
    let dir = ctx.journal_dir.as_ref().expect("merge mode requires a results directory");
    if let Some((index, path)) = missing_shard(dir, experiment, count) {
        panic!("missing shard journal {}; run shard {index} of {count} first", path.display());
    }
    // The union of every shard's cells, keyed by (sweep position,
    // canonical index under the *merge target's* grid), so shards run
    // under different --reps splits of one grid land in one keyspace.
    // The first occurrence in shard order wins; determinism of the
    // solve guarantees a duplicate would carry identical bytes anyway.
    let mut shard_entries = Vec::new();
    for index in 0..count {
        let path = journal::shard_journal_path(dir, experiment, index, count);
        shard_entries.extend(journal::read(&path).expect("reading shard journal"));
    }
    let (mut union, dropped) = journal::index(shard_entries, specs);
    if dropped > 0 {
        eprintln!(
            "[merge] {experiment}: dropped {dropped} journaled cells whose rep lies beyond \
             the merge target's --reps (they belong to a larger split of this grid)"
        );
    }
    // Completeness over the union, then fold in canonical order.
    let mut entries: Vec<JournalEntry> = Vec::with_capacity(union.len());
    for (si, spec) in specs.iter().enumerate() {
        for index in 0..spec.cell_count() {
            let entry = union.remove(&(si, index)).unwrap_or_else(|| {
                panic!(
                    "shard journals are incomplete: sweep '{}' is missing cell {index} \
                     (did every shard finish?)",
                    spec.label
                )
            });
            fold(si, spec.cell(index), &entry.record);
            entries.push(entry);
        }
    }
    debug_assert!(union.is_empty(), "journal::index bounds every key to the grid");
    let merged_path = journal::journal_path(dir, experiment);
    std::fs::create_dir_all(dir).expect("creating the results directory");
    std::fs::write(&merged_path, journal::render(&entries)).expect("writing the merged journal");
    ExecReport {
        folded: true,
        cells_run: 0,
        cells_resumed: entries.len(),
        cells_failed: 0,
        journal: Some(merged_path),
        shard: None,
    }
}

/// An `α × k` grid of streaming [`Accumulator`]s — the fold-side
/// counterpart of the paper's per-cell `mean ± CI` tables. Pushing
/// `None` (a metric undefined for that run, e.g. the diameter of a
/// disconnected network) is a no-op, mirroring the old
/// `filter_map` + `Summary::of` pipelines.
#[derive(Debug, Clone)]
pub struct MetricGrid {
    cols: usize,
    accs: Vec<Accumulator>,
}

impl MetricGrid {
    /// A `rows × cols` grid of empty accumulators.
    pub fn new(rows: usize, cols: usize) -> Self {
        MetricGrid { cols, accs: vec![Accumulator::new(); rows * cols] }
    }

    /// Folds an observation into cell `(ri, ci)`; `None` is skipped.
    pub fn push(&mut self, ri: usize, ci: usize, value: Option<f64>) {
        if let Some(v) = value {
            self.accs[ri * self.cols + ci].push(v);
        }
    }

    /// The summary of cell `(ri, ci)`.
    pub fn summary(&self, ri: usize, ci: usize) -> Summary {
        self.accs[ri * self.cols + ci].summary()
    }

    /// `mean ± ci` of cell `(ri, ci)` at the given precision.
    pub fn display(&self, ri: usize, ci: usize, precision: usize) -> String {
        self.summary(ri, ci).display(precision)
    }
}
