//! Lease-protocol edge-case tests for the work-queue coordinator,
//! driven entirely through [`Coordinator::handle`] — no sockets, no
//! sleeps: time is an explicit `Instant` so every race is scripted.
//!
//! The recurring assertion is the orchestration contract: whatever
//! sequence of crashes, duplicate completions, expiries, and
//! coordinator restarts occurs, the finished run journal is
//! byte-identical to a single-process run's.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ncg_core::Objective;
use ncg_experiments::engine::{self, SweepContext, SweepMode};
use ncg_experiments::journal::{self, JournalLine};
use ncg_experiments::protocol::{Reply, Request};
use ncg_experiments::queue::{Coordinator, QueueOptions};
use ncg_experiments::sweep::{RunRecord, SweepArena, SweepSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg_queue_props_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small 2×1×2 = 4-cell plan.
fn plan() -> Vec<SweepSpec> {
    vec![SweepSpec::tree("main", 10, 2, 7, vec![0.5, 2.0], vec![2], Objective::Max)]
}

/// The single-process reference journal bytes for a plan.
fn reference_bytes(specs: &[SweepSpec], experiment: &str) -> Vec<u8> {
    let dir = temp_dir(&format!("ref_{experiment}"));
    let ctx =
        SweepContext { mode: SweepMode::Local, journal_dir: Some(dir.clone()), warm_start: true };
    let mut sink = |_: usize, _: ncg_experiments::sweep::CellId, _: &RunRecord| {};
    engine::execute(&ctx, experiment, specs, &mut sink);
    let bytes = fs::read(journal::journal_path(&dir, experiment)).unwrap();
    let _ = fs::remove_dir_all(&dir);
    bytes
}

/// Solves one cell through the per-cell solve a worker runs (cold —
/// warm starts are bit-identical anyway) and renders its record JSON.
fn solve_json(specs: &[SweepSpec], si: usize, cell: usize) -> String {
    let spec = &specs[si];
    let record = spec
        .solve_record(&spec.sample(), cell, &mut SweepArena::default(), false, false)
        .expect("clean solve");
    serde_json::to_string(&record).unwrap()
}

fn hello(specs: &[SweepSpec], worker: &str, experiment: &str) -> Request {
    Request::Hello {
        worker: worker.to_string(),
        experiment: experiment.to_string(),
        fingerprints: specs.iter().map(|s| s.fingerprint()).collect(),
    }
}

fn opts(lease: Duration) -> QueueOptions {
    QueueOptions { lease, max_retries: 3 }
}

/// Leases one cell for `worker` (asserting a grant) and returns it.
fn lease(c: &Coordinator, worker: &str, now: Instant) -> (usize, usize) {
    match c.handle(worker, Request::Lease, now) {
        Some(Reply::Cell { si, cell }) => (si, cell),
        other => panic!("expected a cell grant for {worker}, got {other:?}"),
    }
}

/// Reports a solved cell and returns the ACK's duplicate flag.
fn report(
    c: &Coordinator,
    specs: &[SweepSpec],
    worker: &str,
    key: (usize, usize),
    now: Instant,
) -> bool {
    let (si, cell) = key;
    let record = solve_json(specs, si, cell);
    match c.handle(worker, Request::Result { si, cell, record }, now) {
        Some(Reply::Ack { duplicate }) => duplicate,
        other => panic!("expected an ACK, got {other:?}"),
    }
}

#[test]
fn two_workers_out_of_order_match_local_bytes() {
    let specs = plan();
    let reference = reference_bytes(&specs, "q_order");
    let dir = temp_dir("order");
    let c = Coordinator::open(&dir, "q_order", plan(), opts(Duration::from_secs(60))).unwrap();
    let t0 = Instant::now();
    for w in ["a", "b"] {
        assert!(
            matches!(c.handle(w, hello(&specs, w, "q_order"), t0), Some(Reply::Welcome { .. })),
            "handshake must be accepted"
        );
    }
    // Lease all four cells across two workers, then report them in
    // reverse order: completion order must not leak into the journal.
    let grants: Vec<_> =
        (0..4).map(|i| lease(&c, if i % 2 == 0 { "a" } else { "b" }, t0)).collect();
    assert!(matches!(c.handle("a", Request::Lease, t0), Some(Reply::Wait { .. })));
    for (i, &key) in grants.iter().enumerate().rev() {
        assert!(!report(&c, &specs, if i % 2 == 0 { "a" } else { "b" }, key, t0));
    }
    assert!(matches!(c.handle("a", Request::Lease, t0), Some(Reply::Done)));
    assert!(c.is_finished());
    c.handle("a", Request::Bye, t0);
    c.finish().unwrap();
    assert_eq!(
        fs::read(journal::journal_path(&dir, "q_order")).unwrap(),
        reference,
        "out-of-order distributed completion diverged from the local journal"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_completions_are_idempotent() {
    let specs = plan();
    let reference = reference_bytes(&specs, "q_dup");
    let dir = temp_dir("dup");
    let c = Coordinator::open(&dir, "q_dup", plan(), opts(Duration::from_secs(60))).unwrap();
    let t0 = Instant::now();
    for _ in 0..4 {
        let key = lease(&c, "a", t0);
        assert!(!report(&c, &specs, "a", key, t0), "first completion is fresh");
        // A retransmitted RESULT (worker never saw the ACK) must be
        // acknowledged as a duplicate and journaled zero extra times.
        assert!(report(&c, &specs, "a", key, t0), "second completion is a duplicate");
    }
    c.finish().unwrap();
    assert_eq!(fs::read(journal::journal_path(&dir, "q_dup")).unwrap(), reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lease_expiry_racing_a_late_completion_keeps_bytes_identical() {
    let specs = plan();
    let reference = reference_bytes(&specs, "q_race");
    let dir = temp_dir("race");
    let lease_for = Duration::from_millis(100);
    let c = Coordinator::open(&dir, "q_race", plan(), opts(lease_for)).unwrap();
    let t0 = Instant::now();
    // Worker a leases cell 0, then goes silent (no heartbeats).
    let key_a = lease(&c, "a", t0);
    // Past the lease timeout, b asks: the cell is re-issued.
    let t_late = t0 + lease_for * 2;
    let key_b = lease(&c, "b", t_late);
    assert_eq!(key_a, key_b, "the expired lease's cell is re-issued first");
    // a was only slow, not dead: its genuine result lands first…
    assert!(!report(&c, &specs, "a", key_a, t_late), "late result is still the first");
    // …and b's duplicate of the same (deterministic) cell is folded away.
    assert!(report(&c, &specs, "b", key_b, t_late), "re-issued copy completes as a duplicate");
    // Drain the rest normally.
    loop {
        match c.handle("b", Request::Lease, t_late) {
            Some(Reply::Cell { si, cell }) => {
                report(&c, &specs, "b", (si, cell), t_late);
            }
            Some(Reply::Done) => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    c.finish().unwrap();
    assert_eq!(
        fs::read(journal::journal_path(&dir, "q_race")).unwrap(),
        reference,
        "the expiry/late-completion race changed the journal bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_crash_mid_lease_resumes_and_finishes_identically() {
    let specs = plan();
    let reference = reference_bytes(&specs, "q_crash");
    let dir = temp_dir("crash");
    let t0 = Instant::now();
    // First coordinator: two cells leased, one completed — then the
    // process "dies" (drop without finish; the ledger keeps the grant
    // events, the journal keeps the one completion).
    {
        let c = Coordinator::open(&dir, "q_crash", plan(), opts(Duration::from_secs(60))).unwrap();
        let key = lease(&c, "a", t0);
        let _orphan = lease(&c, "b", t0);
        assert!(!report(&c, &specs, "a", key, t0));
        assert_eq!(c.progress(), (1, 4));
    }
    // Restarted coordinator: the completed cell resumes from the
    // journal, the orphaned lease is simply pending again.
    let c = Coordinator::open(&dir, "q_crash", plan(), opts(Duration::from_secs(60))).unwrap();
    assert_eq!(c.progress(), (1, 4), "exactly the journaled completion survives the crash");
    let mut granted = Vec::new();
    loop {
        match c.handle("c", Request::Lease, t0) {
            Some(Reply::Cell { si, cell }) => {
                granted.push((si, cell));
                report(&c, &specs, "c", (si, cell), t0);
            }
            Some(Reply::Done) => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(granted.len(), 3, "only the three unjournaled cells are re-issued");
    c.finish().unwrap();
    assert_eq!(
        fs::read(journal::journal_path(&dir, "q_crash")).unwrap(),
        reference,
        "crash + resume changed the journal bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disconnect_requeues_leases_immediately() {
    let dir = temp_dir("disc");
    let c = Coordinator::open(&dir, "q_disc", plan(), opts(Duration::from_secs(60))).unwrap();
    let t0 = Instant::now();
    let key = lease(&c, "a", t0);
    // a's connection drops without a BYE: no waiting out the lease.
    c.disconnect("a");
    assert_eq!(lease(&c, "b", t0), key, "the dead worker's cell re-issues at once");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_handshakes_are_rejected() {
    let specs = plan();
    let dir = temp_dir("hello");
    let c = Coordinator::open(&dir, "q_hello", plan(), opts(Duration::from_secs(60))).unwrap();
    let t0 = Instant::now();
    // Wrong experiment name.
    match c.handle("a", hello(&specs, "a", "other_exp"), t0) {
        Some(Reply::Reject { reason }) => assert!(reason.contains("q_hello"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    // Right experiment, different profile (seed changed → different
    // fingerprints): the worker would solve different instances.
    let mut other = plan();
    other[0].seed = 8;
    match c.handle("a", hello(&other, "a", "q_hello"), t0) {
        Some(Reply::Reject { reason }) => assert!(reason.contains("fingerprint"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    // And a result whose record does not name the claimed cell.
    let key = lease(&c, "a", t0);
    let wrong = solve_json(&specs, key.0, (key.1 + 1) % specs[0].cell_count());
    match c.handle("a", Request::Result { si: key.0, cell: key.1, record: wrong }, t0) {
        Some(Reply::Reject { reason }) => assert!(reason.contains("do not name"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A RESULT whose record nests deeper than any stack holds draws a
/// rejection like any unparsable record, and the coordinator keeps
/// serving: the genuine result for the same cell still lands.
#[test]
fn deeply_nested_result_records_are_rejected() {
    let specs = plan();
    let dir = temp_dir("deep");
    let c = Coordinator::open(&dir, "q_deep", plan(), opts(Duration::from_secs(60))).unwrap();
    let t0 = Instant::now();
    let (si, cell) = lease(&c, "a", t0);
    let record = "[".repeat(100_000);
    match c.handle("a", Request::Result { si, cell, record }, t0) {
        Some(Reply::Reject { reason }) => {
            assert!(reason.contains("unparsable record JSON"), "{reason}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert!(!report(&c, &specs, "a", (si, cell), t0), "the genuine result is the first");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeated_panics_abandon_the_cell_and_finish_reports_it() {
    let specs = plan();
    let dir = temp_dir("abandon");
    let c = Coordinator::open(
        &dir,
        "q_fail",
        plan(),
        QueueOptions { lease: Duration::from_secs(60), max_retries: 1 },
    )
    .unwrap();
    let t0 = Instant::now();
    let key = lease(&c, "a", t0);
    let failed = |attempt: usize| Request::Failed {
        si: key.0,
        cell: key.1,
        message: format!("injected panic, attempt {attempt}"),
    };
    assert!(matches!(c.handle("a", failed(1), t0), Some(Reply::Ack { duplicate: false })));
    assert_eq!(lease(&c, "a", t0), key, "first failure re-queues the cell");
    assert!(matches!(c.handle("a", failed(2), t0), Some(Reply::Ack { duplicate: false })));
    // The abandoned cell no longer blocks the rest of the sweep.
    loop {
        match c.handle("a", Request::Lease, t0) {
            Some(Reply::Cell { si, cell }) => {
                assert_ne!((si, cell), key, "an abandoned cell must not be re-issued");
                report(&c, &specs, "a", (si, cell), t0);
            }
            Some(Reply::Done) => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let err = c.finish().expect_err("finish must refuse to bless a sweep with holes");
    assert!(err.contains("abandoned"), "{err}");
    // The failure is journaled as a structured marker (kept by
    // compaction because no completed retry supersedes it)…
    let lines = journal::read_lines(&journal::journal_path(&dir, "q_fail")).unwrap();
    let failures: Vec<_> = lines
        .iter()
        .filter_map(|l| match l {
            JournalLine::Failed(f) => Some(f),
            JournalLine::Ok(_) => None,
        })
        .collect();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].failed.contains("attempt 2"));
    // …and the three completed cells still parse for a future resume.
    assert_eq!(lines.len() - failures.len(), 3);
    let _ = fs::remove_dir_all(&dir);
}
