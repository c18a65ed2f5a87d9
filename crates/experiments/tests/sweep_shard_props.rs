//! Property and scenario tests for the streaming sharded sweep
//! engine: the acceptance criteria of the sweep-engine rearchitecture.
//!
//! * **Shard/merge parity** (property-tested over grid shapes): a
//!   `--shards M` run of every shard followed by `merge` folds the
//!   exact same canonical record stream and writes byte-identical
//!   journals to a single-process run.
//! * **Warm-start parity** (same property runs): records produced
//!   with per-rep `CacheArena` warm starts are bit-identical to cold
//!   runs.
//! * **Kill/resume**: truncating a journal mid-grid (including a
//!   torn trailing line, even one cut inside a multi-byte character)
//!   and re-running recomputes only the missing cells and ends with
//!   byte-identical artifacts.
//! * **Merge refuses incomplete inputs** instead of writing wrong
//!   tables.

use std::fs;
use std::path::PathBuf;

use ncg_core::Objective;
use ncg_experiments::engine::{self, SweepContext, SweepMode};
use ncg_experiments::journal;
use ncg_experiments::sweep::{RunRecord, SweepSpec};
use proptest::prelude::*;

/// A unique temp directory per test invocation.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg_shard_props_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Executes and captures the canonical fold stream.
fn capture(
    ctx: &SweepContext,
    experiment: &str,
    specs: &[SweepSpec],
) -> (Vec<(usize, usize, RunRecord)>, engine::ExecReport) {
    let mut folded: Vec<(usize, usize, RunRecord)> = Vec::new();
    let report = engine::execute(ctx, experiment, specs, &mut |si, cell, rec| {
        folded.push((si, cell.index, rec.clone()));
    });
    (folded, report)
}

/// Small two-sweep plans over varying grid shapes: a tree sweep and,
/// sometimes, a second tree sweep at a different size (exercising
/// multi-sweep journals like Figures 6/7/10 use).
type Shape = (usize, usize, Vec<f64>, Vec<u32>, usize, bool);

fn arb_shape() -> impl Strategy<Value = Shape> {
    ((8..=12usize, 1..=3usize), (0..=2usize, 0..=2usize), (2..=3usize, any::<bool>())).prop_map(
        |((n, reps), (ai, ki), (shards, second))| {
            let alpha_pool = [vec![0.5], vec![2.0], vec![0.5, 2.0]];
            let k_pool = [vec![2u32], vec![3u32], vec![2u32, 1000]];
            (n, reps, alpha_pool[ai].clone(), k_pool[ki].clone(), shards, second)
        },
    )
}

fn plan_of(shape: &Shape) -> Vec<SweepSpec> {
    let (n, reps, alphas, ks, _, second) = shape;
    let mut specs =
        vec![SweepSpec::tree("main", *n, *reps, 42, alphas.clone(), ks.clone(), Objective::Max)];
    if *second {
        specs.push(SweepSpec::tree(
            "aux",
            n - 2,
            *reps,
            43,
            alphas.clone(),
            ks.clone(),
            Objective::Max,
        ));
    }
    specs
}

proptest! {
    // Each case runs every cell of a small grid 3–4 times (local,
    // shards, cold); keep the count tame for tier-1.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline acceptance criterion: sharded + merged output is
    /// bit-identical to a single-process run — the fold stream, the
    /// canonical journal bytes, and warm vs cold execution.
    #[test]
    fn sharded_merge_is_byte_identical_to_local(shape in arb_shape()) {
        let specs = plan_of(&shape);
        let shards = shape.4;
        let dir_local = temp_dir("local");
        let dir_shard = temp_dir("shard");

        // Single-process reference run (journaled).
        let local_ctx = SweepContext {
            mode: SweepMode::Local,
            journal_dir: Some(dir_local.clone()),
            warm_start: true,
        };
        let (local_fold, local_report) = capture(&local_ctx, "prop", &specs);
        prop_assert!(local_report.folded);
        let total: usize = specs.iter().map(|s| s.cell_count()).sum();
        prop_assert_eq!(local_fold.len(), total);

        // Cold single-process run: warm starts must be unobservable.
        let cold_ctx = SweepContext { journal_dir: None, warm_start: false, ..local_ctx.clone() };
        let (cold_fold, _) = capture(&cold_ctx, "prop", &specs);
        prop_assert_eq!(&local_fold, &cold_fold, "warm-start changed an outcome");

        // Every shard, then merge.
        for index in 0..shards {
            let ctx = SweepContext {
                mode: SweepMode::Shard { count: shards, index },
                journal_dir: Some(dir_shard.clone()),
                warm_start: true,
            };
            let (folded, report) = capture(&ctx, "prop", &specs);
            prop_assert!(folded.is_empty(), "shard mode must not fold");
            prop_assert!(!report.folded);
            prop_assert!(report.shard_note("prop").is_some());
        }
        let merge_ctx = SweepContext {
            mode: SweepMode::Merge { count: shards },
            journal_dir: Some(dir_shard.clone()),
            warm_start: true,
        };
        let (merge_fold, merge_report) = capture(&merge_ctx, "prop", &specs);
        prop_assert!(merge_report.folded);
        prop_assert_eq!(&local_fold, &merge_fold, "merge fold diverged from local");

        // Byte identity of the canonical journals.
        let local_bytes = fs::read(journal::journal_path(&dir_local, "prop")).unwrap();
        let merged_bytes = fs::read(journal::journal_path(&dir_shard, "prop")).unwrap();
        prop_assert!(!local_bytes.is_empty());
        prop_assert_eq!(local_bytes, merged_bytes, "merged journal bytes diverged");

        let _ = fs::remove_dir_all(&dir_local);
        let _ = fs::remove_dir_all(&dir_shard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite of the work-queue PR: shard journals written under
    /// *different* `--reps` splits of the same grid merge cleanly, as
    /// long as their union covers the merge's repetition count. The
    /// grid fingerprint deliberately excludes `reps` (per-rep
    /// instance seeds derive from the base seed alone), and merge
    /// re-derives every record's canonical index under the merge
    /// plan, dropping excess repetitions with a warning.
    #[test]
    fn merge_accepts_heterogeneous_reps_splits(
        reps in 1..=3usize,
        extra_a in 0..=2usize,
        extra_b in 0..=2usize,
    ) {
        let spec_with = |r: usize| {
            vec![SweepSpec::tree("main", 9, r, 21, vec![0.5, 2.0], vec![2], Objective::Max)]
        };
        // Reference: a single-process run at the merge's reps.
        let dir_local = temp_dir("hetero_local");
        let local_ctx = SweepContext {
            mode: SweepMode::Local,
            journal_dir: Some(dir_local.clone()),
            warm_start: true,
        };
        let (local_fold, _) = capture(&local_ctx, "hr", &spec_with(reps));

        // Each shard ran under its own (larger or equal) reps count —
        // e.g. one machine pre-computed more repetitions than the
        // other — so the two shard journals disagree about the grid's
        // repetition axis.
        let dir = temp_dir("hetero_shards");
        for (index, shard_reps) in [(0usize, reps + extra_a), (1usize, reps + extra_b)] {
            let ctx = SweepContext {
                mode: SweepMode::Shard { count: 2, index },
                journal_dir: Some(dir.clone()),
                warm_start: true,
            };
            capture(&ctx, "hr", &spec_with(shard_reps));
        }
        let merge_ctx = SweepContext {
            mode: SweepMode::Merge { count: 2 },
            journal_dir: Some(dir.clone()),
            warm_start: true,
        };
        let (merge_fold, merge_report) = capture(&merge_ctx, "hr", &spec_with(reps));
        prop_assert!(merge_report.folded);
        prop_assert_eq!(&local_fold, &merge_fold, "heterogeneous-reps merge fold diverged");
        prop_assert_eq!(
            fs::read(journal::journal_path(&dir_local, "hr")).unwrap(),
            fs::read(journal::journal_path(&dir, "hr")).unwrap(),
            "heterogeneous-reps merged journal bytes diverged"
        );
        let _ = fs::remove_dir_all(&dir_local);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_run_resumes_to_identical_artifacts() {
    // One ~12-cell grid; reference run in dirA, killed + resumed run
    // in dirB; artifacts must match byte for byte.
    let specs = vec![SweepSpec::tree("main", 10, 3, 7, vec![0.5, 2.0], vec![2, 3], Objective::Max)];
    let dir_a = temp_dir("resume_a");
    let dir_b = temp_dir("resume_b");
    let ctx = |dir: &PathBuf| SweepContext {
        mode: SweepMode::Local,
        journal_dir: Some(dir.clone()),
        warm_start: true,
    };
    let (fold_a, _) = capture(&ctx(&dir_a), "kill", &specs);
    let path_a = journal::journal_path(&dir_a, "kill");
    let bytes_a = fs::read_to_string(&path_a).unwrap();

    // "Kill" a fresh run mid-grid: keep the first 5 journal lines and
    // a torn partial line, as a SIGKILL mid-write would leave behind.
    let (_, first) = capture(&ctx(&dir_b), "kill", &specs);
    assert_eq!(first.cells_run, 12);
    let path_b = journal::journal_path(&dir_b, "kill");
    let full = fs::read_to_string(&path_b).unwrap();
    let mut truncated: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
    truncated.push_str(&full.lines().nth(5).unwrap()[..20]);
    fs::write(&path_b, &truncated).unwrap();

    // Resume: exactly the 7 missing cells run, artifacts match.
    let (fold_b, report) = capture(&ctx(&dir_b), "kill", &specs);
    assert_eq!(report.cells_resumed, 5);
    assert_eq!(report.cells_run, 7);
    assert_eq!(fold_a, fold_b, "resumed fold stream diverged");
    assert_eq!(bytes_a, fs::read_to_string(&path_b).unwrap(), "resumed journal diverged");

    // Idempotent re-run: everything resumes, nothing recomputes.
    let (fold_c, report) = capture(&ctx(&dir_b), "kill", &specs);
    assert_eq!(report.cells_run, 0);
    assert_eq!(report.cells_resumed, 12);
    assert_eq!(fold_a, fold_c);
    assert_eq!(bytes_a, fs::read_to_string(&path_b).unwrap());

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn a_tail_torn_inside_a_multibyte_character_resumes_identically() {
    // A kill inside the `α` of a failed-cell marker leaves a tail that
    // is not UTF-8. Resume reads the journal before reopening it for
    // append (which truncates the tail), so the read must skip the
    // tail like any other torn line.
    let specs = vec![SweepSpec::tree("main", 10, 2, 7, vec![0.5, 2.0], vec![2], Objective::Max)];
    let dir_a = temp_dir("utf8_a");
    let dir_b = temp_dir("utf8_b");
    let ctx = |dir: &PathBuf| SweepContext {
        mode: SweepMode::Local,
        journal_dir: Some(dir.clone()),
        warm_start: true,
    };
    let (fold_a, _) = capture(&ctx(&dir_a), "utf8", &specs);
    let bytes_a = fs::read(journal::journal_path(&dir_a, "utf8")).unwrap();

    let (_, first) = capture(&ctx(&dir_b), "utf8", &specs);
    assert_eq!(first.cells_run, 4);
    let path_b = journal::journal_path(&dir_b, "utf8");
    let full = fs::read_to_string(&path_b).unwrap();
    let mut torn: Vec<u8> =
        full.lines().take(2).flat_map(|l| format!("{l}\n").into_bytes()).collect();
    let marker = r#"{"sweep":"main","cell":2,"grid":1,"failed":"α"#;
    torn.extend_from_slice(&marker.as_bytes()[..marker.len() - 1]);
    fs::write(&path_b, &torn).unwrap();

    let (fold_b, report) = capture(&ctx(&dir_b), "utf8", &specs);
    assert_eq!(report.cells_resumed, 2);
    assert_eq!(report.cells_run, 2);
    assert_eq!(fold_a, fold_b, "resumed fold stream diverged");
    assert_eq!(bytes_a, fs::read(&path_b).unwrap(), "resumed journal diverged");

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn killed_shard_resumes_and_merges_identically() {
    // Reference: two uninterrupted shards + merge in dirA. In dirB,
    // shard 0's journal is truncated mid-grid and re-run before the
    // merge. Both merged journals must be byte-identical.
    let specs = vec![SweepSpec::tree("main", 10, 4, 9, vec![0.5, 2.0], vec![2], Objective::Max)];
    let dir_a = temp_dir("shardkill_a");
    let dir_b = temp_dir("shardkill_b");
    let shard_ctx = |dir: &PathBuf, index: usize| SweepContext {
        mode: SweepMode::Shard { count: 2, index },
        journal_dir: Some(dir.clone()),
        warm_start: true,
    };
    let merge_ctx = |dir: &PathBuf| SweepContext {
        mode: SweepMode::Merge { count: 2 },
        journal_dir: Some(dir.clone()),
        warm_start: true,
    };
    for dir in [&dir_a, &dir_b] {
        capture(&shard_ctx(dir, 0), "sk", &specs);
        capture(&shard_ctx(dir, 1), "sk", &specs);
    }
    // Kill shard 0 of dirB retroactively: drop half its journal.
    let shard0 = journal::shard_journal_path(&dir_b, "sk", 0, 2);
    let full = fs::read_to_string(&shard0).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 4, "shard 0 owns reps 0 and 2 of a 2×1×4 grid");
    fs::write(&shard0, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let (_, report) = capture(&shard_ctx(&dir_b, 0), "sk", &specs);
    assert_eq!(report.cells_resumed, 2);
    assert_eq!(report.cells_run, 2);

    let (fold_a, _) = capture(&merge_ctx(&dir_a), "sk", &specs);
    let (fold_b, _) = capture(&merge_ctx(&dir_b), "sk", &specs);
    assert_eq!(fold_a, fold_b);
    assert_eq!(
        fs::read(journal::journal_path(&dir_a, "sk")).unwrap(),
        fs::read(journal::journal_path(&dir_b, "sk")).unwrap()
    );
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn merge_refuses_missing_or_incomplete_shards() {
    let specs = vec![SweepSpec::tree("main", 8, 2, 3, vec![1.0], vec![2], Objective::Max)];
    let dir = temp_dir("incomplete");
    // Only shard 0 of 2 has run.
    capture(
        &SweepContext {
            mode: SweepMode::Shard { count: 2, index: 0 },
            journal_dir: Some(dir.clone()),
            warm_start: true,
        },
        "inc",
        &specs,
    );
    let merge = || {
        let specs = specs.clone();
        let dir = dir.clone();
        std::panic::catch_unwind(move || {
            let mut sink = |_: usize, _: ncg_experiments::sweep::CellId, _: &RunRecord| {};
            engine::execute(
                &SweepContext {
                    mode: SweepMode::Merge { count: 2 },
                    journal_dir: Some(dir),
                    warm_start: true,
                },
                "inc",
                &specs,
                &mut sink,
            )
        })
    };
    let err = merge().expect_err("merge must refuse a missing shard journal");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("missing shard journal"), "unexpected panic: {msg}");
    // An empty journal for shard 1 (ran, owned nothing it could own
    // here? it owns rep 1) is still incomplete: cells are missing.
    fs::write(journal::shard_journal_path(&dir, "inc", 1, 2), "").unwrap();
    let err = merge().expect_err("merge must refuse an incomplete grid");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("incomplete"), "unexpected panic: {msg}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_journal_from_another_profile_is_rejected() {
    let dir = temp_dir("stale");
    let specs_a = vec![SweepSpec::tree("main", 10, 2, 11, vec![1.0], vec![2], Objective::Max)];
    let ctx =
        SweepContext { mode: SweepMode::Local, journal_dir: Some(dir.clone()), warm_start: true };
    capture(&ctx, "stale", &specs_a);
    // Same experiment name, different α grid: the journaled records
    // no longer match their cells.
    let specs_b = vec![SweepSpec::tree("main", 10, 2, 11, vec![3.0], vec![2], Objective::Max)];
    let result = std::panic::catch_unwind(move || {
        let mut sink = |_: usize, _: ncg_experiments::sweep::CellId, _: &RunRecord| {};
        engine::execute(&ctx, "stale", &specs_b, &mut sink)
    });
    let err = result.expect_err("stale journals must not be silently merged");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("was written under a different profile"), "unexpected panic: {msg}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_journal_from_another_seed_is_rejected() {
    // The subtle case the grid fingerprint exists for: a record's own
    // (α, k, rep, n, class) fields cannot reveal a changed seed.
    let dir = temp_dir("stale_seed");
    let mut spec = SweepSpec::tree("main", 10, 2, 11, vec![1.0], vec![2], Objective::Max);
    let ctx =
        SweepContext { mode: SweepMode::Local, journal_dir: Some(dir.clone()), warm_start: true };
    capture(&ctx, "ss", std::slice::from_ref(&spec));
    spec.seed = 12;
    let result = std::panic::catch_unwind(move || {
        let mut sink = |_: usize, _: ncg_experiments::sweep::CellId, _: &RunRecord| {};
        engine::execute(&ctx, "ss", &[spec], &mut sink)
    });
    let err = result.expect_err("a changed --seed must not silently reuse the journal");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("was written under a different profile"), "unexpected panic: {msg}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_shards_produce_journals_and_merge_cleanly() {
    // 1 rep across 2 shards: shard 1 owns nothing but must still
    // leave an (empty) journal so merge can proceed.
    let specs = vec![SweepSpec::tree("main", 9, 1, 5, vec![1.0], vec![2], Objective::Max)];
    let dir = temp_dir("empty_shard");
    for index in 0..2 {
        let (_, report) = capture(
            &SweepContext {
                mode: SweepMode::Shard { count: 2, index },
                journal_dir: Some(dir.clone()),
                warm_start: true,
            },
            "es",
            &specs,
        );
        assert_eq!(report.cells_run, if index == 0 { 1 } else { 0 });
    }
    let path1 = journal::shard_journal_path(&dir, "es", 1, 2);
    assert!(path1.is_file(), "empty shard must still write its journal");
    assert_eq!(fs::read_to_string(&path1).unwrap(), "");
    let (folded, report) = capture(
        &SweepContext {
            mode: SweepMode::Merge { count: 2 },
            journal_dir: Some(dir.clone()),
            warm_start: true,
        },
        "es",
        &specs,
    );
    assert!(report.folded);
    assert_eq!(folded.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}
