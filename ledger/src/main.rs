//! `ledger` — the benchmark of the ncg workspace.
//!
//! ```text
//! ledger run --workload W --seed N --seconds S --trace 0|1
//!            [--size full|smoke] [--out results.jsonl] [--trace-out trace.jsonl]
//! ledger compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`) and ends its standard output with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when an
//! output check or the pinned digest fails. See README.md.

mod compare;
mod reference;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use crate::reference::Reference;
use crate::stats::{median, peak_rss_mb};
use crate::workload::{iteration_seed, Size, Workload};

/// A run measures at least this many iterations, so every reported
/// value is a median.
const MIN_ITERATIONS: usize = 3;

/// Set-up repeats per iteration while their total stays under the budget.
const SETUP_REPEATS: usize = 5;
const SETUP_REPEAT_BUDGET_S: f64 = 0.05;

/// Everything the ledger writes lives under this directory of the
/// working directory (journals of the timed phase, the default trace).
const WORK_DIR: &str = ".ledger";

const BASELINE: &str = include_str!("../baseline.json");

/// One metric value with its unit, in output order.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports. The output line's metrics are `metrics` then
/// `counters`; `compare` diffs the digest and the counters, which repeat
/// exactly for a given seed.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub counters: Vec<Metric>,
    pub digest: String,
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ledger run --workload <{}> --seed N --seconds S --trace 0|1 \
         [--size full|smoke] [--out results.jsonl] [--trace-out trace.jsonl]\n  \
         ledger compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: Workload::TreeLocal,
        seed: default_seed(),
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: None,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                parsed.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("expected full or smoke")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run_args) => run(run_args),
            Err(e) => {
                eprintln!("ledger: {e}");
                usage()
            }
        },
        Some("compare") => compare::main(&args[1..]),
        _ => usage(),
    }
}

fn baseline() -> Value {
    serde_json::from_str(BASELINE).expect("baseline.json is valid JSON")
}

/// The seed whose iteration-0 digests `baseline.json` pins.
fn default_seed() -> u64 {
    baseline()["default_seed"].as_u64().expect("baseline.json names its default seed")
}

/// The digest pinned for `workload`'s iteration 0 at the default seed.
fn pinned_digest(workload: Workload) -> Option<String> {
    baseline()["workloads"][workload.name()]["digest"].as_str().map(str::to_string)
}

fn run(args: RunArgs) -> ExitCode {
    // The environment overrides of the library (`NCG_BATCH_BFS`,
    // `NCG_PAR_MIN_GROUND`, `NCG_FAULT`, …) would change what is
    // measured; the ledger only measures the defaults.
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("NCG_")) {
        eprintln!("ledger: unset {key}; the benchmark measures the library defaults");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the thread pool shim never fails");
    let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    eprintln!(
        "ledger: {} seed={} seconds={} trace={} threads={threads} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = pool.install(|| {
        if args.trace {
            let trace_out = args.trace_out.clone().unwrap_or_else(|| {
                Path::new(WORK_DIR).join(format!("trace-{}.jsonl", args.workload.name()))
            });
            traced::run(args.workload, args.size, args.seed, &scratch, &trace_out)
        } else {
            untraced(&args, &scratch)
        }
    });
    let _ = std::fs::remove_dir_all(&scratch);
    if args.seed == default_seed() && args.size == Size::Full {
        match pinned_digest(args.workload) {
            Some(pinned) if pinned != report.digest => {
                eprintln!("ledger: digest {} differs from the pinned {pinned}", report.digest);
                report.failed = report.attempted;
            }
            Some(_) => eprintln!("ledger: digest {} matches the pin", report.digest),
            None => eprintln!("ledger: no pinned digest for {}", args.workload.name()),
        }
    }
    let correct = report.failed == 0;
    for m in report.metrics.iter().chain(&report.counters) {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = |list: &mut dyn Iterator<Item = &Metric>| {
        Value::Object(
            list.map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
        )
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(report.attempted as u64)),
        ("failed".into(), Value::U64(report.failed as u64)),
        ("metrics".into(), metrics(&mut report.metrics.iter().chain(&report.counters))),
    ]);
    if let Some(out) = &args.out {
        let line = Value::Object(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::U64(args.seed)),
            ("trace".into(), Value::Bool(args.trace)),
            ("threads".into(), Value::U64(threads as u64)),
            ("nproc".into(), Value::U64(nproc as u64)),
            ("digest".into(), Value::Str(report.digest.clone())),
            ("counters".into(), metrics(&mut report.counters.iter())),
            ("result".into(), result.clone()),
        ]);
        if let Err(e) = append_line(out, &serde_json::to_string(&line).expect("serialises")) {
            eprintln!("ledger: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", serde_json::to_string(&result).expect("serialises"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(format!("{line}\n").as_bytes())?;
    file.sync_all()
}

/// The untraced run: iterations of set-up, timed phase and checks until
/// `--seconds` have passed (and at least [`MIN_ITERATIONS`]). A
/// reference measurement sits between consecutive iterations, and each
/// iteration's times are divided by the mean of the two around it (see
/// `reference.rs`). Each metric is the median over iterations.
fn untraced(args: &RunArgs, scratch: &Path) -> Report {
    let reference = Reference::new();
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut digest = String::new();
    let start = Instant::now();
    let mut before = reference.measure();
    let mut i = 0usize;
    while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        let seed = iteration_seed(args.seed, i);
        // Cheap set-ups repeat (the inputs are identical each time), so
        // the median of a microsecond-scale phase rests on many samples.
        let mut inputs;
        let mut setup = Vec::new();
        loop {
            let start = Instant::now();
            inputs = workload::setup(args.workload, args.size, seed);
            setup.push(start.elapsed().as_secs_f64());
            if setup.len() == SETUP_REPEATS || setup.iter().sum::<f64>() > SETUP_REPEAT_BUDGET_S {
                break;
            }
        }
        let dir = scratch.join(format!("iter{i}"));
        let mut verdict = Ok(());
        if i == 0 {
            // A warm-up run that the measured run must reproduce byte
            // for byte; it also carries the one-off checks.
            let warm = workload::run_timed(&inputs, &dir);
            verdict = workload::check(&inputs, &warm, &dir, true);
            let _ = std::fs::remove_dir_all(&dir);
            digest = warm.digest;
        }
        let it = workload::run_timed(&inputs, &dir);
        let after = reference.measure();
        verdict = verdict.and_then(|()| workload::check(&inputs, &it, &dir, false));
        if i == 0 && it.digest != digest {
            verdict = Err(format!("digest {} differs from the warm-up's {digest}", it.digest));
        }
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = verdict {
            eprintln!("ledger: iteration {i}: {e}");
            failed += it.attempted;
        }
        attempted += it.attempted;

        let ref_wall = (before.wall_s + after.wall_s) / 2.0;
        let ref_cpu = (before.cpu_s + after.cpu_s) / 2.0;
        let wall = reference::NOMINAL_WALL_S / ref_wall;
        setups.extend(setup.iter().map(|s| s * wall));
        walls.push(it.wall_s * wall);
        cpus.push(it.cpu_s * reference::NOMINAL_CPU_S / ref_cpu);
        eprintln!(
            "  iteration {i}: setup {:.5}s wall {:.3}s cpu {:.3}s reference {:.4}s {:.4}s \
             -> wall {:.3} cpu {:.3} (reference seconds) digest {}",
            median(&setup),
            it.wall_s,
            it.cpu_s,
            ref_wall,
            ref_cpu,
            walls[i],
            cpus[i],
            it.digest
        );
        before = after;
        i += 1;
    }
    Report {
        attempted,
        failed,
        metrics: vec![
            Metric { name: "setup_s", unit: "s", value: median(&setups) },
            Metric { name: "wall_s", unit: "s", value: median(&walls) },
            Metric { name: "cpu_s", unit: "s", value: median(&cpus) },
            Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb() },
        ],
        counters: Vec::new(),
        digest,
    }
}
