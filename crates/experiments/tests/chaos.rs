//! End-to-end fault-injection test of the work-queue orchestration:
//! a real coordinator process, one worker that is killed by an
//! injected fault mid-sweep (`NCG_FAULT=kill_after_cells:1` aborts it
//! after solving its first cell, before the result is reported), and
//! one clean worker that finishes the sweep. The artifacts must be
//! byte-identical to a single-process `--cold` run — crashes, lease
//! re-issue, and retries must leave no trace. The CI `chaos` job runs
//! the same scenario against the release binary with both workers
//! live; this in-tree test keeps it reproducible under `cargo test`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ncg_experiments::journal::{self, JournalLine};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn binary() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"));
    // Keep the tiny smoke grids single-threaded: three concurrent
    // processes on a CI box should not oversubscribe it.
    cmd.env("NCG_THREADS", "1");
    cmd
}

const PROFILE_ARGS: &[&str] = &["--smoke", "--seed", "7", "--reps", "2"];

/// Waits for a child with a deadline; kills and panics on timeout.
fn wait_with_deadline(
    child: &mut Child,
    name: &str,
    deadline: Duration,
) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            panic!("{name} did not finish within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Files that legitimately differ between a distributed and a local
/// run: the lease ledger and the port file are orchestration
/// artifacts, not results.
fn is_orchestration_artifact(name: &str) -> bool {
    name.ends_with("_leases.log") || name == "port"
}

/// Asserts that `dist` holds the same result files as `reference`,
/// byte for byte, orchestration artifacts aside.
fn assert_same_results(reference: &Path, dist: &Path) {
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| !is_orchestration_artifact(n))
            .collect();
        names.sort();
        names
    };
    let ref_names = names(reference);
    assert!(
        ref_names.iter().any(|n| n.ends_with(".csv")),
        "reference run produced no tables: {ref_names:?}"
    );
    assert_eq!(ref_names, names(dist), "artifact sets differ");
    for name in &ref_names {
        let a = std::fs::read(reference.join(name)).unwrap();
        let b = std::fs::read(dist.join(name)).unwrap();
        assert_eq!(a, b, "artifact {name} differs between local and distributed runs");
    }
}

#[test]
fn killed_worker_mid_sweep_still_yields_byte_identical_artifacts() {
    // Reference: single-process run, cold (warm starts are
    // bit-identical, so this also cross-checks the workers' warm
    // arenas against cold solves).
    let ref_dir = temp_dir("reference");
    let output = binary()
        .args(["figure5"])
        .args(PROFILE_ARGS)
        .args(["--cold", "--out"])
        .arg(&ref_dir)
        .output()
        .expect("spawning the reference run");
    assert!(
        output.status.success(),
        "reference run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Distributed run: coordinator + a doomed worker + a clean one.
    let dist_dir = temp_dir("distributed");
    let port_file = dist_dir.join("port");
    let mut serve = binary()
        .args(["serve", "figure5"])
        .args(PROFILE_ARGS)
        .args(["--listen", "127.0.0.1:0", "--lease-timeout", "2", "--port-file"])
        .arg(&port_file)
        .arg("--out")
        .arg(&dist_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the coordinator");

    // The doomed worker goes first, alone, so it deterministically
    // leases a cell: the fault aborts the process after its first
    // solve, *before* the result is reported — the crash the lease
    // queue exists to survive.
    let mut doomed = binary()
        .args(["work", "figure5"])
        .args(PROFILE_ARGS)
        .args(["--worker-id", "chaos-doomed", "--port-file"])
        .arg(&port_file)
        .env("NCG_FAULT", "kill_after_cells:1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the doomed worker");
    let doomed_status = wait_with_deadline(&mut doomed, "doomed worker", Duration::from_secs(120));
    assert!(!doomed_status.success(), "the injected fault must abort the worker");

    let mut clean = binary()
        .args(["work", "figure5"])
        .args(PROFILE_ARGS)
        .args(["--worker-id", "chaos-clean", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the clean worker");

    let clean_status = wait_with_deadline(&mut clean, "clean worker", Duration::from_secs(300));
    assert!(clean_status.success(), "the clean worker must finish the sweep");
    let serve_status = wait_with_deadline(&mut serve, "coordinator", Duration::from_secs(300));
    let mut serve_stderr = String::new();
    if let Some(mut err) = serve.stderr.take() {
        use std::io::Read as _;
        let _ = err.read_to_string(&mut serve_stderr);
    }
    assert!(serve_status.success(), "coordinator failed; stderr:\n{serve_stderr}");
    // The crash must have been noticed and the cell re-issued, not
    // silently absorbed by a lucky schedule.
    assert!(
        std::fs::read_to_string(dist_dir.join("figure5_leases.log"))
            .expect("lease ledger exists")
            .contains("release"),
        "the doomed worker's death should release its lease"
    );

    // Byte-diff every artifact the two runs produced.
    assert_same_results(&ref_dir, &dist_dir);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dist_dir);
}

/// Figure 9's plan names Figure 8's journal, so the queue journals and
/// leases under `figure8`: `serve figure9` plus one `work figure9`
/// leave `figure8_runs.jsonl` and `figure8_leases.log`, no
/// `figure9_runs.jsonl`, and every other artifact equal to a local
/// `figure9` run's.
#[test]
fn serve_figure9_journals_and_leases_under_figure8() {
    let ref_dir = temp_dir("figure9_reference");
    let output = binary()
        .args(["figure9"])
        .args(PROFILE_ARGS)
        .arg("--out")
        .arg(&ref_dir)
        .output()
        .expect("spawning the reference run");
    assert!(
        output.status.success(),
        "reference run failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let dist_dir = temp_dir("figure9_queue");
    let port_file = dist_dir.join("port");
    let mut serve = binary()
        .args(["serve", "figure9"])
        .args(PROFILE_ARGS)
        .args(["--listen", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .arg("--out")
        .arg(&dist_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the coordinator");
    let mut worker = binary()
        .args(["work", "figure9"])
        .args(PROFILE_ARGS)
        .args(["--worker-id", "figure9-worker", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the worker");
    let worker_status = wait_with_deadline(&mut worker, "worker", Duration::from_secs(300));
    assert!(worker_status.success(), "the worker must finish the sweep");
    let serve_status = wait_with_deadline(&mut serve, "coordinator", Duration::from_secs(300));
    let mut serve_stderr = String::new();
    if let Some(mut err) = serve.stderr.take() {
        use std::io::Read as _;
        let _ = err.read_to_string(&mut serve_stderr);
    }
    assert!(serve_status.success(), "coordinator failed; stderr:\n{serve_stderr}");

    for name in ["figure8_runs.jsonl", "figure8_leases.log"] {
        assert!(dist_dir.join(name).is_file(), "the queue must write {name}");
    }
    assert!(!dist_dir.join("figure9_runs.jsonl").exists(), "figure9 has no journal of its own");
    assert_same_results(&ref_dir, &dist_dir);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dist_dir);
}

/// `panic_cell:N` fails cell `N` of the plan's first sweep only, in a
/// local run as in a worker: figure10 plans three sweeps, and a local
/// run under the fault journals one `CellFailed` line, for the first,
/// then exits non-zero.
#[test]
fn panic_cell_fails_one_cell_of_the_first_sweep_only() {
    let dir = temp_dir("panic_cell");
    let output = binary()
        .args(["figure10", "--smoke", "--seed", "7", "--out"])
        .arg(&dir)
        .env("NCG_FAULT", "panic_cell:0")
        .output()
        .expect("spawning the faulted run");
    assert!(!output.status.success(), "a failed cell must fail the run");
    let failed: Vec<(String, usize)> =
        journal::read_lines(&journal::journal_path(&dir, "figure10"))
            .expect("reading the journal")
            .into_iter()
            .filter_map(|line| match line {
                JournalLine::Failed(marker) => Some((marker.sweep, marker.cell)),
                JournalLine::Ok(_) => None,
            })
            .collect();
    assert_eq!(failed, vec![("vs_alpha".to_string(), 0)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker exits with its coordinator, not one heartbeat pause after
/// it: under a 120 s lease the heartbeat pauses 40 s between beats,
/// and the end of the session must cut that pause short. Enough
/// repetitions that the sweep outlasts the heartbeat's own handshake,
/// so the heartbeat is asleep when the session ends.
#[test]
fn worker_exits_with_the_coordinator_under_a_long_lease() {
    const LONG_SWEEP_ARGS: &[&str] = &["--smoke", "--seed", "7", "--reps", "64"];
    let dir = temp_dir("long_lease");
    let port_file = dir.join("port");
    let serve = binary()
        .args(["serve", "figure5"])
        .args(LONG_SWEEP_ARGS)
        .args(["--listen", "127.0.0.1:0", "--lease-timeout", "120", "--port-file"])
        .arg(&port_file)
        .arg("--out")
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the coordinator");
    let worker = binary()
        .args(["work", "figure5"])
        .args(LONG_SWEEP_ARGS)
        .args(["--worker-id", "long-lease", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning the worker");

    // Poll both children, noting when each exits.
    let deadline = Duration::from_secs(300);
    let start = Instant::now();
    let mut children = [("coordinator", serve, None), ("worker", worker, None)];
    while children.iter().any(|(_, _, exit)| exit.is_none()) {
        for (name, child, exit) in &mut children {
            if exit.is_none() {
                if let Some(status) = child.try_wait().unwrap() {
                    assert!(status.success(), "{name} failed: {status}");
                    *exit = Some(Instant::now());
                }
            }
        }
        if start.elapsed() > deadline {
            for (_, child, _) in &mut children {
                let _ = child.kill();
            }
            panic!("the serve/work pair did not finish within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let [(_, _, Some(serve_exit)), (_, _, Some(worker_exit))] = children else { unreachable!() };
    let lag = worker_exit.saturating_duration_since(serve_exit);
    assert!(lag < Duration::from_secs(3), "the worker exited {lag:?} after the coordinator");
    let _ = std::fs::remove_dir_all(&dir);
}
