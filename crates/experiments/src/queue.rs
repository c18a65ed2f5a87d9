//! The lease-based sweep work queue: a coordinator that owns an
//! experiment's cell work-list and hands cells out to workers over
//! the line protocol of [`crate::protocol`], re-issuing the cells of
//! crashed or stalled workers and deduplicating late completions.
//!
//! Layering, bottom-up:
//!
//! * [`WorkQueue`] — a *pure* lease state machine. Every method takes
//!   an explicit `now: Instant`, so expiry races are ordinary unit
//!   tests, not sleeps. Cells are granted in canonical order
//!   (`BTreeSet` of `(sweep, cell)` keys); a cell is `pending`,
//!   leased, `done`, or (after `max_retries` panics) `abandoned`.
//! * [`LeaseLedger`] — an append-only, flush-per-line event log
//!   (`<experiment>_leases.log`) of grants, completions, duplicates,
//!   failures, expiries, and releases. On reopen a torn trailing line
//!   is truncated (same recovery as the run journals) and grants
//!   without a terminal event are counted, so a restarted coordinator
//!   can report exactly how many leases its crash orphaned. The *run
//!   journal* stays the single source of truth for which cells are
//!   done; the ledger adds the who/when observability around it.
//! * [`Coordinator`] — the queue + journal + ledger behind a `Mutex`,
//!   with one [`Coordinator::handle`] method mapping a parsed
//!   [`Request`] to its [`Reply`]. Fully drivable without sockets —
//!   the lease-protocol edge-case tests call it directly.
//! * [`serve`] / [`work`] — the TCP skins: a non-blocking accept loop
//!   with one thread per connection, and the worker loop that leases,
//!   solves (warm-started, panic-isolated, on either tier, through
//!   the local engine's own cell solve
//!   [`crate::sweep::SweepSpec::solve_record`]), heartbeats on a
//!   dedicated second connection, and reports results idempotently.
//!
//! Why retries can't break byte-identical output: a cell's record is
//! a pure function of `(spec, cell)` — per-rep instance seeds derive
//! from the spec's base seed alone and the dynamics are deterministic
//! — so *every* genuine completion of a cell carries identical bytes,
//! no matter which worker computed it or how often. The coordinator
//! journals only the first completion per cell (first-result-wins),
//! and [`crate::journal::compact`] rewrites the journal in canonical
//! order at the end, erasing completion-order nondeterminism. The
//! merged artifacts are therefore byte-identical to a single-process
//! run regardless of crashes, re-issues, and duplicates. DESIGN.md
//! §11 walks through the argument.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::fault::{self, FaultPlan};
use crate::journal::{self, CellFailed, JournalEntry, JournalWriter};
use crate::protocol::{Reply, Request};
use crate::sweep::{RunRecord, SweepArena, SweepSpec, SweepStates};

/// A cell's key in the queue: `(sweep position in the plan, canonical
/// cell index)`.
pub type CellKey = (usize, usize);

/// Tuning knobs of the lease state machine and its coordinator.
#[derive(Debug, Clone, Copy)]
pub struct QueueOptions {
    /// How long a lease lives without a heartbeat.
    pub lease: Duration,
    /// How many times a cell may *fail* (panic) before it is
    /// abandoned instead of re-queued. Expiries and disconnects are
    /// not failures — a cell can be re-issued any number of times.
    pub max_retries: usize,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions { lease: Duration::from_secs(15), max_retries: 3 }
    }
}

#[derive(Debug)]
struct LeaseInfo {
    worker: String,
    expires: Instant,
}

/// What a lease request got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// One cell, leased to the caller.
    Cell(CellKey),
    /// Nothing pending right now (cells are leased out); ask again.
    Wait,
    /// Nothing pending and nothing leased: the sweep is finished.
    Finished,
}

/// What recording a completion did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First completion of this cell — it was journaled.
    First,
    /// The cell was already complete; nothing was journaled.
    Duplicate,
}

/// What recording a failure did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The cell returned to the queue for another attempt.
    Requeued,
    /// The cell exhausted `max_retries` and was abandoned.
    Abandoned,
    /// The cell was already complete; the failure is moot.
    Stale,
}

/// The pure lease state machine. No clocks, no I/O: callers pass
/// `now` explicitly, which makes every expiry race a deterministic
/// unit test.
#[derive(Debug)]
pub struct WorkQueue {
    opts: QueueOptions,
    pending: BTreeSet<CellKey>,
    leases: HashMap<CellKey, LeaseInfo>,
    done: HashSet<CellKey>,
    failures: HashMap<CellKey, usize>,
    abandoned: BTreeSet<CellKey>,
}

impl WorkQueue {
    /// A queue over `cells`, with `done` already completed (resumed
    /// from a journal).
    pub fn new(
        cells: impl IntoIterator<Item = CellKey>,
        done: impl IntoIterator<Item = CellKey>,
        opts: QueueOptions,
    ) -> Self {
        let done: HashSet<CellKey> = done.into_iter().collect();
        let pending = cells.into_iter().filter(|key| !done.contains(key)).collect();
        WorkQueue {
            opts,
            pending,
            leases: HashMap::new(),
            done,
            failures: HashMap::new(),
            abandoned: BTreeSet::new(),
        }
    }

    /// Moves every lease that expired before `now` back to pending,
    /// returning `(cell, holder)` for each.
    pub fn expire(&mut self, now: Instant) -> Vec<(CellKey, String)> {
        let lapsed: Vec<CellKey> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.expires <= now)
            .map(|(&key, _)| key)
            .collect();
        let mut out: Vec<(CellKey, String)> = lapsed
            .into_iter()
            .map(|key| {
                let lease = self.leases.remove(&key).expect("key collected above");
                self.pending.insert(key);
                (key, lease.worker)
            })
            .collect();
        out.sort();
        out
    }

    /// Leases the first pending cell (canonical order) to `worker`.
    /// Expired leases are reclaimed first.
    pub fn lease(&mut self, worker: &str, now: Instant) -> Grant {
        self.expire(now);
        match self.pending.pop_first() {
            Some(key) => {
                self.leases.insert(
                    key,
                    LeaseInfo { worker: worker.to_string(), expires: now + self.opts.lease },
                );
                Grant::Cell(key)
            }
            None if self.leases.is_empty() => Grant::Finished,
            None => Grant::Wait,
        }
    }

    /// Extends `worker`'s lease on `key`; `false` if the lease is no
    /// longer theirs (expired and re-issued, or never granted).
    pub fn heartbeat(&mut self, worker: &str, key: CellKey, now: Instant) -> bool {
        match self.leases.get_mut(&key) {
            Some(lease) if lease.worker == worker => {
                lease.expires = now + self.opts.lease;
                true
            }
            _ => false,
        }
    }

    /// Records a completion of `key`, first-result-wins: only the
    /// first completion reports [`Completion::First`] (and gets
    /// journaled by the caller); any later completion — a retried
    /// cell, a worker whose lease expired finishing late — is a
    /// [`Completion::Duplicate`] no-op. Determinism makes the two
    /// interchangeable byte-wise; the dedup keeps the journal
    /// single-entry-per-cell.
    pub fn complete(&mut self, key: CellKey) -> Completion {
        if !self.done.insert(key) {
            return Completion::Duplicate;
        }
        self.leases.remove(&key);
        self.pending.remove(&key);
        self.abandoned.remove(&key);
        Completion::First
    }

    /// Records a failed (panicked) attempt at `key`: re-queued until
    /// the cell's failure count exceeds `max_retries`, then abandoned.
    pub fn fail(&mut self, key: CellKey) -> Failure {
        if self.done.contains(&key) {
            return Failure::Stale;
        }
        self.leases.remove(&key);
        let failures = self.failures.entry(key).or_insert(0);
        *failures += 1;
        if *failures > self.opts.max_retries {
            self.pending.remove(&key);
            self.abandoned.insert(key);
            Failure::Abandoned
        } else {
            self.pending.insert(key);
            Failure::Requeued
        }
    }

    /// Releases every lease `worker` holds (clean BYE or detected
    /// death), re-queueing the cells; returns them in canonical order.
    pub fn release_worker(&mut self, worker: &str) -> Vec<CellKey> {
        let held: Vec<CellKey> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.worker == worker)
            .map(|(&key, _)| key)
            .collect();
        let mut out = held;
        out.sort();
        for key in &out {
            self.leases.remove(key);
            self.pending.insert(*key);
        }
        out
    }

    /// `true` when nothing is pending and nothing is leased. Note an
    /// abandoned cell also finishes the queue — the coordinator's
    /// `finish` turns that into an error instead of silent holes.
    pub fn is_finished(&self) -> bool {
        self.pending.is_empty() && self.leases.is_empty()
    }

    /// Cells abandoned after exhausting their retries.
    pub fn abandoned(&self) -> impl Iterator<Item = &CellKey> {
        self.abandoned.iter()
    }

    /// `(done, total)` progress over the cells this queue has seen.
    pub fn progress(&self) -> (usize, usize) {
        let total = self.done.len() + self.pending.len() + self.leases.len() + self.abandoned.len();
        (self.done.len(), total)
    }
}

/// Path of the coordinator's lease ledger for an experiment.
pub fn ledger_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}_leases.log"))
}

/// The crash-safe lease event log: one text line per event, flushed
/// immediately. Purely observational — resume correctness rests on
/// the run journal — but it is what tells an operator (and the
/// coordinator-restart test) which leases a crash orphaned.
#[derive(Debug)]
pub struct LeaseLedger {
    file: BufWriter<fs::File>,
}

impl LeaseLedger {
    /// Opens (or creates) the ledger at `path` for appending,
    /// truncating a torn trailing line first, and replays it, skipping
    /// lines it cannot read (not UTF-8, or not an event):
    /// returns the ledger plus the keys of grants with no terminal
    /// event — the leases a previous coordinator took to its grave.
    pub fn open(path: &Path) -> std::io::Result<(Self, Vec<CellKey>)> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        journal::truncate_torn_tail(path)?;
        let mut outstanding: BTreeSet<CellKey> = BTreeSet::new();
        for line in journal::utf8_lines(&journal::read_bytes(path)?) {
            let mut it = line.split(' ');
            let (Some(event), Some(si), Some(cell)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            let (Ok(si), Ok(cell)) = (si.parse::<usize>(), cell.parse::<usize>()) else {
                continue;
            };
            match event {
                "grant" => {
                    outstanding.insert((si, cell));
                }
                "complete" | "dup" | "fail" | "expire" | "release" | "abandon" => {
                    outstanding.remove(&(si, cell));
                }
                _ => {}
            }
        }
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok((LeaseLedger { file: BufWriter::new(file) }, outstanding.into_iter().collect()))
    }

    /// Appends one event line and flushes it.
    pub fn log(
        &mut self,
        event: &str,
        key: CellKey,
        worker: &str,
        detail: Option<&str>,
    ) -> std::io::Result<()> {
        let (si, cell) = key;
        match detail {
            Some(detail) => {
                let detail = detail.replace('\n', " ");
                writeln!(self.file, "{event} {si} {cell} {worker} {detail}")?;
            }
            None => writeln!(self.file, "{event} {si} {cell} {worker}")?,
        }
        self.file.flush()
    }
}

struct CoordState {
    queue: WorkQueue,
    writer: Option<JournalWriter>,
    ledger: LeaseLedger,
}

/// The sweep coordinator: owns the cell work-list of one experiment
/// plus its run journal and lease ledger, and answers protocol
/// requests. All socket-free — [`serve`] is the TCP skin — so every
/// lease-protocol edge case is directly unit-testable.
pub struct Coordinator {
    experiment: String,
    specs: Vec<SweepSpec>,
    fingerprints: Vec<u64>,
    lease_ms: u64,
    journal_path: PathBuf,
    state: Mutex<CoordState>,
}

impl Coordinator {
    /// Opens a coordinator for `experiment` over `specs`, resuming
    /// completed cells from the run journal in `dir` (the canonical
    /// `<experiment>_runs.jsonl` — indices re-derived per record, so
    /// journals from other `--reps` splits resume too) and replaying
    /// the lease ledger to report leases a previous coordinator
    /// crash left outstanding (their cells are simply pending again;
    /// the journal already proves they never completed).
    ///
    /// # Panics
    /// Panics if the journal holds entries fingerprinted by a
    /// different profile — the same refusal resume and merge make,
    /// through the same [`journal::index`].
    pub fn open(
        dir: &Path,
        experiment: &str,
        specs: Vec<SweepSpec>,
        opts: QueueOptions,
    ) -> std::io::Result<Self> {
        let journal_path = journal::journal_path(dir, experiment);
        let (done, dropped) = journal::index(journal::read(&journal_path)?, &specs);
        if dropped > 0 {
            eprintln!(
                "[serve] {experiment}: ignoring {dropped} journaled cells beyond the current \
                 --reps (larger split of this grid)"
            );
        }
        let resumed = done.len();
        let cells = specs
            .iter()
            .enumerate()
            .flat_map(|(si, spec)| (0..spec.cell_count()).map(move |index| (si, index)));
        let queue = WorkQueue::new(cells, done.into_keys(), opts);
        let (ledger, orphaned) = LeaseLedger::open(&ledger_path(dir, experiment))?;
        if !orphaned.is_empty() {
            eprintln!(
                "[serve] {experiment}: a previous coordinator left {} lease(s) outstanding \
                 (crash mid-lease); their cells are pending again",
                orphaned.len()
            );
        }
        if resumed > 0 {
            eprintln!("[serve] {experiment}: resumed {resumed} completed cells from the journal");
        }
        let writer = JournalWriter::append(&journal_path)?.with_fault(fault::env_plan());
        let fingerprints = specs.iter().map(|s| s.fingerprint()).collect();
        Ok(Coordinator {
            experiment: experiment.to_string(),
            specs,
            fingerprints,
            lease_ms: opts.lease.as_millis().max(1) as u64,
            journal_path,
            state: Mutex::new(CoordState { queue, writer: Some(writer), ledger }),
        })
    }

    /// The experiment this coordinator serves.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Whether every cell is done (or abandoned).
    pub fn is_finished(&self) -> bool {
        self.state.lock().queue.is_finished()
    }

    /// `(done, total)` cell progress.
    pub fn progress(&self) -> (usize, usize) {
        self.state.lock().queue.progress()
    }

    /// Reclaims expired leases (the accept loop's periodic tick, so
    /// a stalled worker's cells return even when no requests arrive).
    pub fn tick(&self, now: Instant) {
        let mut st = self.state.lock();
        for (key, holder) in st.queue.expire(now) {
            let _ = st.ledger.log("expire", key, &holder, None);
        }
    }

    /// Releases every lease `worker` holds — called when a worker's
    /// connection drops without a BYE (crash detection: an aborted
    /// worker's cells re-queue immediately instead of waiting out the
    /// lease timeout).
    pub fn disconnect(&self, worker: &str) {
        let mut st = self.state.lock();
        for key in st.queue.release_worker(worker) {
            let _ = st.ledger.log("release", key, worker, None);
        }
    }

    /// Answers one request from `worker` at time `now`. `None` means
    /// the protocol sends no reply (BEAT, BYE).
    pub fn handle(&self, worker: &str, request: Request, now: Instant) -> Option<Reply> {
        match request {
            Request::Hello { experiment, fingerprints, .. } => {
                if experiment != self.experiment {
                    return Some(Reply::Reject {
                        reason: format!(
                            "serving '{}', not '{experiment}'; point the worker at the right \
                             coordinator",
                            self.experiment
                        ),
                    });
                }
                if fingerprints != self.fingerprints {
                    return Some(Reply::Reject {
                        reason: "grid fingerprints differ: the worker planned a different \
                                 profile (seed, grid, scenario, or workload); rerun the worker \
                                 with the coordinator's flags"
                            .to_string(),
                    });
                }
                Some(Reply::Welcome { lease_ms: self.lease_ms })
            }
            Request::Lease => {
                let mut st = self.state.lock();
                for (key, holder) in st.queue.expire(now) {
                    let _ = st.ledger.log("expire", key, &holder, None);
                }
                match st.queue.lease(worker, now) {
                    Grant::Cell(key) => {
                        let _ = st.ledger.log("grant", key, worker, None);
                        Some(Reply::Cell { si: key.0, cell: key.1 })
                    }
                    Grant::Wait => Some(Reply::Wait { ms: (self.lease_ms / 4).clamp(50, 1000) }),
                    Grant::Finished => Some(Reply::Done),
                }
            }
            Request::Beat { si, cell } => {
                self.state.lock().queue.heartbeat(worker, (si, cell), now);
                None
            }
            Request::Result { si, cell, record } => {
                Some(self.record_result(worker, si, cell, &record))
            }
            Request::Failed { si, cell, message } => {
                if si >= self.specs.len() || cell >= self.specs[si].cell_count() {
                    return Some(Reply::Reject {
                        reason: format!("FAILED names unknown cell ({si}, {cell})"),
                    });
                }
                let key = (si, cell);
                let mut st = self.state.lock();
                match st.queue.fail(key) {
                    Failure::Requeued => {
                        let _ = st.ledger.log("fail", key, worker, Some(&message));
                        Some(Reply::Ack { duplicate: false })
                    }
                    Failure::Abandoned => {
                        let _ = st.ledger.log("abandon", key, worker, Some(&message));
                        if let Some(w) = st.writer.as_mut() {
                            w.push_failed(&CellFailed {
                                sweep: self.specs[si].label.clone(),
                                cell,
                                grid: self.fingerprints[si],
                                failed: message,
                            })
                            .expect("appending a cell failure to the run journal");
                        }
                        Some(Reply::Ack { duplicate: false })
                    }
                    Failure::Stale => Some(Reply::Ack { duplicate: true }),
                }
            }
            Request::Bye => {
                self.disconnect(worker);
                None
            }
        }
    }

    fn record_result(&self, worker: &str, si: usize, cell: usize, record: &str) -> Reply {
        if si >= self.specs.len() || cell >= self.specs[si].cell_count() {
            return Reply::Reject { reason: format!("RESULT names unknown cell ({si}, {cell})") };
        }
        let record: RunRecord = match serde_json::from_str(record) {
            Ok(record) => record,
            Err(e) => return Reply::Reject { reason: format!("unparsable record JSON: {e}") },
        };
        // The record's own coordinates must pin down exactly the cell
        // the worker claims — the same index derivation resume and
        // merge use, so a buggy or mismatched worker cannot file a
        // record under the wrong cell.
        if self.specs[si].index_of_record(&record) != Some(cell) {
            return Reply::Reject {
                reason: format!(
                    "record coordinates (α={}, k={}, rep={}) do not name cell ({si}, {cell})",
                    record.alpha, record.k, record.rep
                ),
            };
        }
        let key = (si, cell);
        let mut st = self.state.lock();
        match st.queue.complete(key) {
            Completion::First => {
                if let Some(w) = st.writer.as_mut() {
                    w.push(&JournalEntry {
                        sweep: self.specs[si].label.clone(),
                        cell,
                        grid: self.fingerprints[si],
                        record,
                    })
                    .expect("appending to the run journal");
                }
                let _ = st.ledger.log("complete", key, worker, None);
                Reply::Ack { duplicate: false }
            }
            Completion::Duplicate => {
                let _ = st.ledger.log("dup", key, worker, None);
                Reply::Ack { duplicate: true }
            }
        }
    }

    /// Closes the journal, compacts it into canonical order (erasing
    /// completion-order nondeterminism — this is where byte-identity
    /// with a single-process run is restored), and reports abandoned
    /// cells as an error instead of leaving silent holes.
    pub fn finish(&self) -> Result<(), String> {
        let mut st = self.state.lock();
        st.writer.take(); // drop flushes and closes the file
        let abandoned: Vec<CellKey> = st.queue.abandoned().copied().collect();
        drop(st);
        journal::compact(&self.journal_path, &self.specs)
            .map_err(|e| format!("compacting {}: {e}", self.journal_path.display()))?;
        if !abandoned.is_empty() {
            let listing: Vec<String> = abandoned
                .iter()
                .map(|(si, cell)| format!("'{}' cell {cell}", self.specs[*si].label))
                .collect();
            return Err(format!(
                "{}: {} cell(s) abandoned after repeated panics — {}; the failures are \
                 journaled, fix the cause and re-serve to retry them",
                self.experiment,
                abandoned.len(),
                listing.join(", ")
            ));
        }
        Ok(())
    }
}

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:0` (port 0: pick a free one).
    pub listen: String,
    /// If set, the bound address is written here (atomically, via a
    /// temp file + rename) once listening — how scripts and the chaos
    /// CI job discover a port-0 coordinator.
    pub port_file: Option<PathBuf>,
}

/// Runs the coordinator's accept loop until every cell is done (or
/// abandoned), then finishes the journal. One thread per connection;
/// the loop polls a non-blocking listener so it can reclaim expired
/// leases and notice completion even while idle.
pub fn serve(coordinator: &Arc<Coordinator>, opts: &ServeOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(&opts.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    eprintln!("[serve] {}: listening on {addr}", coordinator.experiment());
    if let Some(port_file) = &opts.port_file {
        if let Some(parent) = port_file.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = port_file.with_extension("tmp");
        fs::write(&tmp, format!("{addr}\n"))?;
        fs::rename(&tmp, port_file)?;
    }
    while !coordinator.is_finished() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let coordinator = Arc::clone(coordinator);
                std::thread::spawn(move || connection_loop(&coordinator, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                coordinator.tick(Instant::now());
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    let (done, total) = coordinator.progress();
    eprintln!("[serve] {}: all cells accounted for ({done}/{total})", coordinator.experiment());
    coordinator.finish().map_err(std::io::Error::other)
    // Connection threads may still be blocked on dead workers; the
    // process exits without joining them (they hold no state the
    // journal doesn't already have).
}

fn connection_loop(coordinator: &Arc<Coordinator>, stream: TcpStream) {
    let mut worker = match stream.peer_addr() {
        Ok(peer) => format!("conn-{peer}"),
        Err(_) => "conn-unknown".to_string(),
    };
    let Ok(read_half) = stream.try_clone() else { return };
    let mut write_half = stream;
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(reason) => {
                let _ = writeln!(write_half, "{}", Reply::Reject { reason }.render());
                break;
            }
        };
        if let Request::Hello { worker: name, .. } = &request {
            worker = name.clone();
        }
        let clean_bye = matches!(request, Request::Bye);
        if let Some(reply) = coordinator.handle(&worker, request, Instant::now()) {
            if writeln!(write_half, "{}", reply.render()).is_err() {
                break;
            }
        }
        if clean_bye {
            return; // handle() already released the worker's leases
        }
    }
    // EOF or I/O error without a BYE: the worker died — re-queue its
    // cells right away rather than waiting out the lease timeout.
    coordinator.disconnect(&worker);
}

/// Options for [`work`].
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// This worker's stable identifier (lease bookkeeping + backoff
    /// jitter seed).
    pub worker_id: String,
    /// Warm-start dynamics per `(sweep, rep)` arena; `false` solves
    /// every cell on a fresh arena.
    pub warm_start: bool,
}

/// Deterministically jittered exponential backoff, seeded from the
/// worker id: two workers restarting together won't hammer the
/// coordinator in lockstep, and a given worker's delays reproduce.
struct Backoff {
    state: u64,
    attempt: u32,
}

impl Backoff {
    fn new(seed_text: &str) -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for byte in seed_text.bytes() {
            state = splitmix(state ^ u64::from(byte));
        }
        Backoff { state, attempt: 0 }
    }

    fn jitter_ms(&mut self, range: u64) -> u64 {
        self.state = splitmix(self.state);
        self.state % range.max(1)
    }

    fn next_delay(&mut self) -> Duration {
        self.attempt += 1;
        let base = 50u64.saturating_mul(1 << self.attempt.min(5));
        Duration::from_millis(base + self.jitter_ms(base))
    }

    fn reset(&mut self) {
        self.attempt = 0;
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a worker session over one connection ended.
enum SessionEnd {
    /// The coordinator said DONE; the worker is finished.
    Done,
    /// The connection dropped; reconnect and carry on.
    Lost,
}

/// Per-worker solving state, kept across reconnects: lazily sampled
/// initial states per sweep, and one warm-start arena per
/// `(sweep, rep)` — cells of one rep reuse it whenever the queue
/// happens to hand them to the same worker (bit-identical either
/// way; the arena is purely a speedup). Both are in the sweep's tier
/// layout, so a million-node worker never materialises a `GameState`
/// or an `O(n)`-slot view cache.
struct Solver<'a> {
    specs: &'a [SweepSpec],
    warm_start: bool,
    states: HashMap<usize, SweepStates>,
    arenas: HashMap<(usize, usize), SweepArena>,
}

impl<'a> Solver<'a> {
    fn new(specs: &'a [SweepSpec], warm_start: bool) -> Self {
        Solver { specs, warm_start, states: HashMap::new(), arenas: HashMap::new() }
    }

    fn solve(
        &mut self,
        si: usize,
        cell: usize,
        fault: Option<&FaultPlan>,
    ) -> Result<RunRecord, String> {
        let spec = &self.specs[si];
        let states = self.states.entry(si).or_insert_with(|| spec.sample());
        let arena = self.arenas.entry((si, spec.cell(cell).rep)).or_default();
        let inject = fault.is_some_and(|f| f.panics_at_cell(si, cell));
        spec.solve_record(states, cell, arena, self.warm_start, inject)
    }
}

/// Runs a worker against the coordinator at `opts.connect` until the
/// sweep is done. Reconnects with jittered exponential backoff if
/// the connection drops; once the coordinator has gone away after a
/// successful session (it exits when the sweep completes), the
/// worker exits cleanly — the coordinator's journal is the source of
/// truth, a worker has nothing to flush.
pub fn work(experiment: &str, specs: &[SweepSpec], opts: &WorkOptions) -> std::io::Result<()> {
    let fault = fault::env_plan();
    let fingerprints: Vec<u64> = specs.iter().map(|s| s.fingerprint()).collect();
    let mut solver = Solver::new(specs, opts.warm_start);
    let mut backoff = Backoff::new(&opts.worker_id);
    let mut ever_connected = false;
    loop {
        let stream = match TcpStream::connect(&opts.connect) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream
            }
            Err(e) => {
                if ever_connected {
                    eprintln!(
                        "[work {}] coordinator at {} is gone; exiting (journal is with the \
                         coordinator)",
                        opts.worker_id, opts.connect
                    );
                    return Ok(());
                }
                if backoff.attempt >= 12 {
                    return Err(std::io::Error::other(format!(
                        "could not reach the coordinator at {}: {e}",
                        opts.connect
                    )));
                }
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        ever_connected = true;
        backoff.reset();
        match session(experiment, &fingerprints, &mut solver, stream, opts, fault.as_deref()) {
            Ok(SessionEnd::Done) => {
                eprintln!("[work {}] sweep complete; exiting", opts.worker_id);
                return Ok(());
            }
            Ok(SessionEnd::Lost) => {
                std::thread::sleep(backoff.next_delay());
            }
            Err(e) => return Err(e),
        }
    }
}

/// One request/reply exchange; `Err(io)` on a dropped connection.
fn exchange(
    write_half: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> std::io::Result<Reply> {
    writeln!(write_half, "{}", request.render())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "coordinator closed"));
    }
    Reply::parse(&line).map_err(std::io::Error::other)
}

fn session(
    experiment: &str,
    fingerprints: &[u64],
    solver: &mut Solver<'_>,
    stream: TcpStream,
    opts: &WorkOptions,
    fault: Option<&FaultPlan>,
) -> std::io::Result<SessionEnd> {
    let mut write_half = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let hello = Request::Hello {
        worker: opts.worker_id.clone(),
        experiment: experiment.to_string(),
        fingerprints: fingerprints.to_vec(),
    };
    let lease_ms = match exchange(&mut write_half, &mut reader, &hello) {
        Ok(Reply::Welcome { lease_ms }) => lease_ms,
        Ok(Reply::Reject { reason }) => {
            // A rejection is a configuration error, not a transient:
            // retrying would loop forever.
            return Err(std::io::Error::other(format!("coordinator rejected us: {reason}")));
        }
        Ok(other) => {
            return Err(std::io::Error::other(format!("unexpected handshake reply {other:?}")))
        }
        Err(_) => return Ok(SessionEnd::Lost),
    };
    // The heartbeat runs on its own connection so its frames can
    // never interleave with the request/reply stream. It stops when
    // the session ends — or when a `stall` fault freezes the whole
    // worker, beats included, which is exactly what lease expiry
    // exists to survive.
    let current: Arc<Mutex<Option<(usize, usize)>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    let beat_handle = {
        let connect = opts.connect.clone();
        let worker_id = opts.worker_id.clone();
        let experiment = experiment.to_string();
        let fingerprints = fingerprints.to_vec();
        let current = Arc::clone(&current);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let Ok(stream) = TcpStream::connect(&connect) else { return };
            let _ = stream.set_nodelay(true);
            let Ok(mut write_half) = stream.try_clone() else { return };
            let mut reader = BufReader::new(stream);
            let hello = Request::Hello { worker: worker_id, experiment, fingerprints };
            if exchange(&mut write_half, &mut reader, &hello).is_err() {
                return;
            }
            let pause = Duration::from_millis((lease_ms / 3).max(10));
            while !stop.load(Ordering::Relaxed) {
                if let Some((si, cell)) = *current.lock() {
                    if writeln!(write_half, "{}", Request::Beat { si, cell }.render()).is_err() {
                        return;
                    }
                    let _ = write_half.flush();
                }
                // Parked, not slept, so the end of the session wakes
                // the beat at once; a spurious wake-up only beats early.
                std::thread::park_timeout(pause);
            }
        })
    };
    let end = session_loop(solver, &mut write_half, &mut reader, &current, fault);
    stop.store(true, Ordering::Relaxed);
    beat_handle.thread().unpark();
    if matches!(end, Ok(SessionEnd::Done)) {
        let _ = writeln!(write_half, "{}", Request::Bye.render());
        let _ = beat_handle.join();
    }
    end
}

fn session_loop(
    solver: &mut Solver<'_>,
    write_half: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    current: &Mutex<Option<(usize, usize)>>,
    fault: Option<&FaultPlan>,
) -> std::io::Result<SessionEnd> {
    let mut wait_jitter = Backoff::new("wait-jitter");
    loop {
        let reply = match exchange(write_half, reader, &Request::Lease) {
            Ok(reply) => reply,
            Err(_) => return Ok(SessionEnd::Lost),
        };
        match reply {
            Reply::Cell { si, cell } => {
                if si >= solver.specs.len() || cell >= solver.specs[si].cell_count() {
                    return Err(std::io::Error::other(format!(
                        "coordinator leased unknown cell ({si}, {cell})"
                    )));
                }
                if fault.is_some_and(|f| f.should_stall()) {
                    // A frozen straggler: holds the lease, never
                    // beats again, never finishes. The lease timeout
                    // re-issues the cell to someone else.
                    *current.lock() = None;
                    eprintln!("[ncg-fault] stalling forever with cell ({si}, {cell}) leased");
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                *current.lock() = Some((si, cell));
                let outcome = solver.solve(si, cell, fault);
                *current.lock() = None;
                let request = match outcome {
                    Ok(record) => {
                        if let Some(f) = fault {
                            if f.should_die_before_result() {
                                f.abort("before reporting a cell result");
                            }
                        }
                        let record = serde_json::to_string(&record)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        Request::Result { si, cell, record }
                    }
                    Err(message) => {
                        Request::Failed { si, cell, message: message.replace('\n', "; ") }
                    }
                };
                let sends = if fault.is_some_and(|f| f.duplicates_completions()) { 2 } else { 1 };
                for _ in 0..sends {
                    match exchange(write_half, reader, &request) {
                        Ok(Reply::Ack { .. }) => {}
                        Ok(Reply::Reject { reason }) => {
                            return Err(std::io::Error::other(format!(
                                "coordinator rejected a report: {reason}"
                            )))
                        }
                        Ok(other) => {
                            return Err(std::io::Error::other(format!(
                                "unexpected report reply {other:?}"
                            )))
                        }
                        Err(_) => return Ok(SessionEnd::Lost),
                    }
                }
            }
            Reply::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms + wait_jitter.jitter_ms(ms.max(1))));
            }
            Reply::Done => return Ok(SessionEnd::Done),
            Reply::Reject { reason } => {
                return Err(std::io::Error::other(format!("coordinator rejected us: {reason}")))
            }
            other => {
                return Err(std::io::Error::other(format!("unexpected lease reply {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(lease_ms: u64, max_retries: usize) -> QueueOptions {
        QueueOptions { lease: Duration::from_millis(lease_ms), max_retries }
    }

    #[test]
    fn leases_grant_in_canonical_order_and_finish() {
        let t0 = Instant::now();
        let mut q = WorkQueue::new([(0, 1), (0, 0), (1, 0)], [], opts(1000, 3));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 0)));
        assert_eq!(q.lease("b", t0), Grant::Cell((0, 1)));
        assert_eq!(q.lease("a", t0), Grant::Cell((1, 0)));
        assert_eq!(q.lease("b", t0), Grant::Wait, "everything is leased out");
        assert!(!q.is_finished());
        assert_eq!(q.complete((0, 0)), Completion::First);
        assert_eq!(q.complete((0, 1)), Completion::First);
        assert_eq!(q.complete((1, 0)), Completion::First);
        assert_eq!(q.lease("a", t0), Grant::Finished);
        assert!(q.is_finished());
        assert_eq!(q.progress(), (3, 3));
    }

    #[test]
    fn resumed_done_cells_are_never_granted() {
        let t0 = Instant::now();
        let mut q = WorkQueue::new([(0, 0), (0, 1), (0, 2)], [(0, 1)], opts(1000, 3));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 0)));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 2)));
        assert_eq!(q.complete((0, 1)), Completion::Duplicate, "already done from the journal");
    }

    #[test]
    fn expiry_requeues_and_heartbeat_prevents_it() {
        let t0 = Instant::now();
        let mut q = WorkQueue::new([(0, 0), (0, 1)], [], opts(100, 3));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 0)));
        assert_eq!(q.lease("b", t0), Grant::Cell((0, 1)));
        // b beats at t+80; a does not.
        let t80 = t0 + Duration::from_millis(80);
        assert!(q.heartbeat("b", (0, 1), t80));
        let t150 = t0 + Duration::from_millis(150);
        let expired = q.expire(t150);
        assert_eq!(expired, vec![((0, 0), "a".to_string())], "only a's lease lapses");
        // The re-issued cell goes to the next asker…
        assert_eq!(q.lease("c", t150), Grant::Cell((0, 0)));
        // …and a's stale heartbeat no longer owns it.
        assert!(!q.heartbeat("a", (0, 0), t150));
    }

    #[test]
    fn late_completion_after_expiry_still_wins_once() {
        let t0 = Instant::now();
        let mut q = WorkQueue::new([(0, 0)], [], opts(50, 3));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 0)));
        let t100 = t0 + Duration::from_millis(100);
        q.expire(t100);
        assert_eq!(q.lease("b", t100), Grant::Cell((0, 0)), "re-issued to b");
        // a finishes late — genuine work, deterministic bytes: first
        // completion wins, b's later one is the duplicate.
        assert_eq!(q.complete((0, 0)), Completion::First);
        assert_eq!(q.complete((0, 0)), Completion::Duplicate);
        assert!(q.is_finished());
    }

    #[test]
    fn failures_requeue_then_abandon_and_disconnect_releases() {
        let t0 = Instant::now();
        let mut q = WorkQueue::new([(0, 0), (0, 1)], [], opts(1000, 1));
        assert_eq!(q.lease("a", t0), Grant::Cell((0, 0)));
        assert_eq!(q.fail((0, 0)), Failure::Requeued, "first panic: retry");
        assert_eq!(q.lease("b", t0), Grant::Cell((0, 0)));
        assert_eq!(q.fail((0, 0)), Failure::Abandoned, "second panic: give up");
        assert_eq!(q.lease("b", t0), Grant::Cell((0, 1)));
        assert_eq!(q.release_worker("b"), vec![(0, 1)], "disconnect re-queues b's lease");
        assert_eq!(q.lease("c", t0), Grant::Cell((0, 1)));
        assert_eq!(q.complete((0, 1)), Completion::First);
        assert_eq!(q.lease("c", t0), Grant::Finished, "abandoned cells don't block finish");
        assert_eq!(q.abandoned().copied().collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(q.fail((0, 1)), Failure::Stale, "failing a done cell is moot");
    }

    #[test]
    fn ledger_replay_reports_orphaned_grants() {
        let dir = std::env::temp_dir().join(format!("ncg_ledger_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = ledger_path(&dir, "demo");
        let (mut ledger, orphaned) = LeaseLedger::open(&path).unwrap();
        assert!(orphaned.is_empty());
        ledger.log("grant", (0, 0), "a", None).unwrap();
        ledger.log("grant", (0, 1), "a", None).unwrap();
        ledger.log("complete", (0, 0), "a", None).unwrap();
        ledger.log("grant", (0, 2), "b", None).unwrap();
        ledger.log("expire", (0, 2), "b", None).unwrap();
        ledger.log("grant", (0, 2), "c", Some("re-issued\nwith newline")).unwrap();
        drop(ledger);
        // Tear the tail, as a coordinator SIGKILL mid-write would.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"grant 0 3");
        fs::write(&path, &bytes).unwrap();
        let (_ledger, orphaned) = LeaseLedger::open(&path).unwrap();
        assert_eq!(
            orphaned,
            vec![(0, 1), (0, 2)],
            "grants without terminal events — the torn one dropped"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_solves_match_the_streamed_records_on_both_tiers() {
        use crate::sweep::{run_spec_cells, Shard};
        use ncg_core::Objective;
        let specs = [
            SweepSpec::tree("tree", 10, 2, 7, vec![0.5, 2.0], vec![2], Objective::Max),
            SweepSpec::scale_er(
                "scale",
                120,
                4.0,
                6,
                2,
                9,
                vec![0.8, 4.0],
                vec![2],
                Objective::Max,
            ),
        ];
        for (si, spec) in specs.iter().enumerate() {
            let streamed = Mutex::new(Vec::new());
            run_spec_cells(
                spec,
                true,
                Shard::all(),
                &|_| false,
                &|cell, entry| streamed.lock().push((cell.index, entry.expect("no cell may fail"))),
                &|_| false,
            );
            let mut streamed = streamed.into_inner();
            streamed.sort_by_key(|(cell, _)| *cell);
            assert_eq!(streamed.len(), spec.cell_count());
            for warm_start in [true, false] {
                let mut solver = Solver::new(&specs, warm_start);
                for (cell, record) in &streamed {
                    let solved = solver.solve(si, *cell, None).expect("no cell may fail");
                    assert_eq!(&solved, record, "sweep {si}, cell {cell}, warm {warm_start}");
                }
            }
        }
        // panic_cell:0 fails cell 0 of the first sweep only, as locally.
        let fault = FaultPlan::parse("panic_cell:0").unwrap();
        let mut solver = Solver::new(&specs, true);
        let failed = solver.solve(0, 0, Some(&fault)).unwrap_err();
        assert!(failed.contains("injected fault: panic_cell"), "{failed}");
        assert!(solver.solve(1, 0, Some(&fault)).is_ok(), "later sweeps are not faulted");
    }

    #[test]
    fn backoff_is_deterministic_per_worker_and_differs_between_them() {
        let delays = |id: &str| {
            let mut b = Backoff::new(id);
            (0..4).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(delays("w1"), delays("w1"), "same worker, same delays");
        assert_ne!(delays("w1"), delays("w2"), "different workers desynchronise");
        let mut b = Backoff::new("w1");
        let first = b.next_delay();
        let second = b.next_delay();
        assert!(second >= first, "delays grow (with jitter on top of a doubling base)");
    }
}
