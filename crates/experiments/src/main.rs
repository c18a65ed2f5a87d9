//! CLI for the experiment harness.
//!
//! ```text
//! NCG_THREADS=N ncg-experiments <experiment> [--full|--paper|--smoke] [--out DIR]
//!                              [--seed N] [--reps N] [--shards M --shard I] [--cold]
//! ncg-experiments merge <experiment> --shards M [--out DIR] [profile flags]
//! ncg-experiments serve <experiment> [--listen ADDR] [--port-file PATH]
//!                       [--lease-timeout SECS] [--max-retries N] [profile flags]
//! ncg-experiments work <experiment> (--connect ADDR | --port-file PATH)
//!                      [--worker-id ID] [profile flags]
//!
//! experiments: table1 table2 figures12 figure3 figure4 figure5
//!              figure6 figure7 figure8 figure9 figure10
//!              lower-bounds scale-dynamics sum-extension swap-ncg
//!              nonuniform all
//! --full/--paper   use the paper's exact grid instead of the quick
//!                  profile (with the paper's 20 repetitions this can
//!                  take hours; combine with --reps to trade CI width
//!                  for time)
//! --smoke          the smallest grid, used by the CLI tests and CI
//! --out DIR        results directory (default: results/)
//! --seed N         override the base seed
//! --reps N         override the repetition count of the profile
//! --shards M       split the sweep grid into M deterministic shards
//!                  (partitioned by repetition)
//! --shard I        run only shard I (0-based); tables are rendered
//!                  by `merge` once every shard has finished
//! --cold           solve every cell on a fresh arena, on both tiers
//!                  and in every mode, workers included (A/B runs;
//!                  results are bit-identical either way)
//!
//! Dynamics sweeps stream every finished cell to an append-only
//! JSONL journal under --out; re-running after a kill resumes from
//! the journal. `merge` folds the M shard journals into the same
//! tables and canonical JSONL a single-process run produces,
//! byte-for-byte — and the shard journals may even have been written
//! under different --reps splits of the same grid, as long as their
//! union covers the merge's repetition count. A merge with a shard
//! journal missing exits 1 and names the command that writes it.
//!
//! A journal belongs to a grid, and each experiment's plan names it:
//! figure9 folds figure8's journal (`figure8_runs.jsonl`), so after
//! figure8, or in `all`, it solves nothing, and its shards, `merge`,
//! `serve` and `work` read and write figure8's files.
//!
//! `serve` + `work` are the fault-tolerant alternative to static
//! sharding: the coordinator owns the cell work-list and a crash-safe
//! lease ledger, workers lease cells over TCP, heartbeat while
//! solving, and report results idempotently. Killed or stalled
//! workers lose their leases and the cells are re-issued; duplicate
//! completions are deduplicated; the merged artifacts are
//! byte-identical to a single-process run regardless of crashes and
//! retries (the chaos CI job kills a worker mid-sweep and diffs).
//! Both sides must be launched with the same profile flags — the
//! handshake compares grid fingerprints and refuses mismatches. See
//! DESIGN.md §11.
//!
//! NCG_FAULT=kill_after_cells:N|torn_write:N|dup_complete|stall|panic_cell:N
//! injects one deterministic fault into this process (testing only).
//!
//! NCG_THREADS=N caps the worker pool for everything the harness
//! parallelises — sweep repetitions, the LKE certifications' player
//! groups and the scale tier's windows; every solve runs on one
//! thread (DESIGN.md §8). Every artifact is byte-identical for every
//! N; the CI `determinism` job runs this binary at N = 1 and N = 4
//! and diffs the outputs.
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ncg_experiments::{
    engine, fault, queue, run_experiment, sweep_plan, Plan, Profile, SweepContext, SweepMode,
};

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "figures12",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "lower-bounds",
    "scale-dynamics",
    "sum-extension",
    "swap-ncg",
    "nonuniform",
];

/// The experiments that run `(α, k, rep)` dynamics sweeps and hence
/// understand sharding, journaling, merging, and the work queue. The
/// rest are cheap deterministic computations that every mode just
/// runs locally.
const SWEEP_EXPERIMENTS: &[&str] = &[
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "scale-dynamics",
    "sum-extension",
    "swap-ncg",
    "nonuniform",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: ncg-experiments <experiment|all> [--full|--paper|--smoke] [--out DIR] \
         [--seed N] [--reps N] [--shards M --shard I] [--cold]\n\
         \u{20}      ncg-experiments merge <experiment|all> --shards M [--out DIR] [profile flags]\n\
         \u{20}      ncg-experiments serve <experiment> [--listen ADDR] [--port-file PATH] \
         [--lease-timeout SECS] [--max-retries N] [profile flags]\n\
         \u{20}      ncg-experiments work <experiment> (--connect ADDR | --port-file PATH) \
         [--worker-id ID] [profile flags]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // NCG_THREADS caps the worker pool for the whole process; unset
    // (or unparsable) means one worker per core. The scoped install
    // covers sweep repetitions, parallel LKE certification and the
    // scale tier's windows alike — and output bytes are independent
    // of the value (the CI determinism job enforces it).
    match std::env::var("NCG_THREADS").ok().map(|v| v.parse::<usize>()) {
        Some(Ok(threads)) if threads >= 1 => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction is infallible");
            pool.install(run)
        }
        Some(_) => {
            eprintln!("[ncg-experiments] NCG_THREADS must be a positive integer");
            ExitCode::FAILURE
        }
        None => run(),
    }
}

/// Which top-level action the positionals selected.
enum Action {
    Run,
    Merge,
    Serve,
    Work,
}

fn run() -> ExitCode {
    // Fail fast on an unparsable NCG_FAULT instead of deep inside a
    // sweep (env_plan panics with the accepted grammar).
    let _ = fault::env_plan();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut profile = Profile::quick();
    let mut out_dir = PathBuf::from("results");
    let mut seed_override: Option<u64> = None;
    let mut reps_override: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut shard: Option<usize> = None;
    let mut warm_start = true;
    let mut listen = String::from("127.0.0.1:0");
    let mut port_file: Option<PathBuf> = None;
    let mut lease_timeout = Duration::from_secs(15);
    let mut max_retries = 3usize;
    let mut connect: Option<String> = None;
    let mut worker_id: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" | "--paper" => profile = Profile::paper(),
            "--smoke" => profile = Profile::smoke(),
            "--cold" => warm_start = false,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => return usage(),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(seed) => seed_override = Some(seed),
                    None => return usage(),
                }
            }
            "--reps" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(reps) if reps > 0 => reps_override = Some(reps),
                    _ => return usage(),
                }
            }
            "--shards" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(m) if m > 0 => shards = Some(m),
                    _ => return usage(),
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(idx) => shard = Some(idx),
                    None => return usage(),
                }
            }
            "--listen" => {
                i += 1;
                match args.get(i) {
                    Some(addr) => listen = addr.clone(),
                    None => return usage(),
                }
            }
            "--port-file" => {
                i += 1;
                match args.get(i) {
                    Some(path) => port_file = Some(PathBuf::from(path)),
                    None => return usage(),
                }
            }
            "--lease-timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(secs) if secs > 0 => lease_timeout = Duration::from_secs(secs),
                    _ => return usage(),
                }
            }
            "--max-retries" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => max_retries = n,
                    None => return usage(),
                }
            }
            "--connect" => {
                i += 1;
                match args.get(i) {
                    Some(addr) => connect = Some(addr.clone()),
                    None => return usage(),
                }
            }
            "--worker-id" => {
                i += 1;
                match args.get(i) {
                    Some(id) => worker_id = Some(id.clone()),
                    None => return usage(),
                }
            }
            name if !name.starts_with('-') => positionals.push(name.to_string()),
            _ => return usage(),
        }
        i += 1;
    }
    // Apply overrides last so flag order does not matter.
    if let Some(seed) = seed_override {
        profile.base_seed = seed;
    }
    if let Some(reps) = reps_override {
        profile.reps = reps;
    }
    // Positionals: `<experiment>` or `<merge|serve|work> <experiment>`.
    let (action, target) = match positionals.as_slice() {
        [target] if !matches!(target.as_str(), "merge" | "serve" | "work") => {
            (Action::Run, target.clone())
        }
        [action, target] => match action.as_str() {
            "merge" => (Action::Merge, target.clone()),
            "serve" => (Action::Serve, target.clone()),
            "work" => (Action::Work, target.clone()),
            _ => return usage(),
        },
        _ => return usage(),
    };
    match action {
        Action::Serve => {
            return serve(
                &target,
                &profile,
                &out_dir,
                warm_start,
                &listen,
                port_file,
                lease_timeout,
                max_retries,
            )
        }
        Action::Work => return work(&target, &profile, warm_start, connect, port_file, worker_id),
        Action::Run | Action::Merge => {}
    }
    let merging = matches!(action, Action::Merge);
    let mode = match (merging, shards, shard) {
        (true, Some(count), None) => SweepMode::Merge { count },
        (true, _, _) => {
            eprintln!("merge requires --shards M (and no --shard)");
            return usage();
        }
        (false, Some(count), Some(index)) if index < count => SweepMode::Shard { count, index },
        (false, None, None) => SweepMode::Local,
        _ => {
            eprintln!("--shards M and --shard I (with I < M) must be given together");
            return usage();
        }
    };
    let ctx = SweepContext { mode, journal_dir: Some(out_dir.clone()), warm_start };
    let names: Vec<&str> = if target == "all" {
        EXPERIMENTS.to_vec()
    } else if EXPERIMENTS.contains(&target.as_str()) {
        vec![target.as_str()]
    } else {
        return usage();
    };
    for name in names {
        let is_sweep = SWEEP_EXPERIMENTS.contains(&name);
        // Non-sweep experiments are cheap and deterministic: shard 0
        // and merge produce them; other shards skip them.
        if !is_sweep {
            if let SweepMode::Shard { index, .. } = mode {
                if index != 0 {
                    eprintln!("[ncg-experiments] {name} has no sweep; left to shard 0");
                    continue;
                }
            }
        }
        let verb = match mode {
            SweepMode::Merge { .. } if is_sweep => "merging",
            SweepMode::Shard { index, count } if is_sweep => {
                eprintln!(
                    "[ncg-experiments] running {name} shard {index} of {count} \
                     with the '{}' profile…",
                    profile.name
                );
                ""
            }
            _ => "running",
        };
        if !verb.is_empty() {
            eprintln!("[ncg-experiments] {verb} {name} with the '{}' profile…", profile.name);
        }
        if let (SweepMode::Merge { count }, true) = (mode, is_sweep) {
            let plan = sweep_plan(name, &profile).expect("name validated above");
            let missing = (!plan.specs.is_empty())
                .then(|| engine::missing_shard(&out_dir, &plan.journal, count))
                .flatten();
            if let Some((index, path)) = missing {
                eprintln!(
                    "[ncg-experiments] merge {name}: missing shard journal {}; run \
                     `{name} --shards {count} --shard {index}` with the same profile flags first",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
        if !render_and_write(name, &profile, &ctx, &out_dir) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one experiment and writes its artifacts; `false` on failure.
fn render_and_write(
    name: &str,
    profile: &Profile,
    ctx: &SweepContext,
    out_dir: &std::path::Path,
) -> bool {
    let started = std::time::Instant::now();
    let output = run_experiment(name, profile, ctx).expect("name validated above");
    println!("{}", output.render_console());
    match output.write_to(out_dir) {
        Ok(paths) => {
            for p in paths {
                eprintln!("[ncg-experiments]   wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("[ncg-experiments] failed to write results: {e}");
            return false;
        }
    }
    eprintln!("[ncg-experiments] {name} finished in {:.1}s", started.elapsed().as_secs_f64());
    true
}

/// `serve <experiment>`: coordinate a distributed sweep, then render
/// the experiment's tables from the completed journal.
#[allow(clippy::too_many_arguments)]
fn serve(
    target: &str,
    profile: &Profile,
    out_dir: &std::path::Path,
    warm_start: bool,
    listen: &str,
    port_file: Option<PathBuf>,
    lease_timeout: Duration,
    max_retries: usize,
) -> ExitCode {
    let Some(plan) = plan_for(target, profile) else { return usage() };
    let coordinator = match queue::Coordinator::open(
        out_dir,
        &plan.journal,
        plan.specs,
        queue::QueueOptions { lease: lease_timeout, max_retries },
    ) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("[ncg-experiments] serve {target}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = queue::ServeOptions { listen: listen.to_string(), port_file };
    if let Err(e) = queue::serve(&coordinator, &opts) {
        eprintln!("[ncg-experiments] serve {target}: {e}");
        return ExitCode::FAILURE;
    }
    // Every cell is journaled; render the artifacts locally — the
    // run resumes all cells from the journal, so this re-solves
    // nothing and folds in canonical order.
    eprintln!("[ncg-experiments] serve {target}: rendering artifacts from the journal…");
    let ctx = SweepContext {
        mode: SweepMode::Local,
        journal_dir: Some(out_dir.to_path_buf()),
        warm_start,
    };
    if render_and_write(target, profile, &ctx, out_dir) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `work <experiment>`: lease and solve cells for a coordinator.
fn work(
    target: &str,
    profile: &Profile,
    warm_start: bool,
    connect: Option<String>,
    port_file: Option<PathBuf>,
    worker_id: Option<String>,
) -> ExitCode {
    let Some(plan) = plan_for(target, profile) else { return usage() };
    let connect = match (connect, port_file) {
        (Some(addr), _) => addr,
        (None, Some(path)) => {
            // The coordinator writes its bound address atomically once
            // listening; poll briefly so workers can start first.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                match std::fs::read_to_string(&path) {
                    Ok(text) if !text.trim().is_empty() => break text.trim().to_string(),
                    _ if std::time::Instant::now() >= deadline => {
                        eprintln!(
                            "[ncg-experiments] work {target}: no coordinator address in {} \
                             after 30s",
                            path.display()
                        );
                        return ExitCode::FAILURE;
                    }
                    _ => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        }
        (None, None) => {
            eprintln!("work requires --connect ADDR or --port-file PATH");
            return usage();
        }
    };
    let worker_id = worker_id.unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let opts = queue::WorkOptions { connect, worker_id, warm_start };
    match queue::work(&plan.journal, &plan.specs, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[ncg-experiments] work {target}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The sweep plan for a serve/work target — its journal and specs;
/// `None` (after an error message) if the target is unknown, is `all`,
/// or has no sweep.
fn plan_for(target: &str, profile: &Profile) -> Option<Plan> {
    if !SWEEP_EXPERIMENTS.contains(&target) {
        eprintln!(
            "serve/work need a single sweep experiment (one of: {}); '{target}' does not \
             distribute",
            SWEEP_EXPERIMENTS.join(" ")
        );
        return None;
    }
    let plan = sweep_plan(target, profile).expect("membership checked above");
    if plan.specs.is_empty() {
        eprintln!("'{target}' plans no sweep cells under this profile");
        return None;
    }
    Some(plan)
}
