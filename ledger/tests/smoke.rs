//! Runs every workload on the reduced `--size smoke` grid (seconds in a
//! debug build) and checks the benchmark's contract: every metric named
//! in `BENCHMARK.json` is emitted with its unit, names are well formed,
//! the traced run reproduces the untraced digest, spans nest with no
//! negative self time, and counters repeat exactly across two runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    benchmark()[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the ledger in `dir`; returns the result line and the `--out` record.
fn run(dir: &Path, workload: &str, trace: bool) -> (Value, Value) {
    let out_file = dir.join("results.jsonl");
    let _ = std::fs::remove_file(&out_file);
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .current_dir(dir)
        .args(["run", "--workload", workload, "--seed", "7", "--seconds", "0.2", "--size", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", "results.jsonl", "--trace-out", "trace.jsonl"])
        .output()
        .expect("spawning the ledger");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON result");
    let record: Value =
        serde_json::from_str(std::fs::read_to_string(&out_file).unwrap().trim()).expect("record");
    (result, record)
}

fn check_result(result: &Value, list: &str) {
    let keys: Vec<&str> =
        result.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result["correct"], Value::Bool(true));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap() >= 1);
    let emitted: BTreeMap<String, String> = result["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some(), "{name} has no numeric value");
            (name.clone(), m["unit"].as_str().unwrap().to_string())
        })
        .collect();
    assert_eq!(emitted, declared(list), "emitted metrics must match BENCHMARK.json {list}");
    assert!(emitted.keys().all(|n| well_formed(n)), "malformed metric name");
}

/// Spans nest inside their parents and no self time is negative.
fn check_trace(path: &Path) {
    let spans: Vec<Value> = std::fs::read_to_string(path)
        .expect("trace.jsonl")
        .lines()
        .map(|l| serde_json::from_str(l).expect("span line"))
        .collect();
    assert!(!spans.is_empty());
    let mut own: Vec<i64> = spans.iter().map(|s| s["busy_ns"].as_i64().unwrap()).collect();
    for (id, s) in spans.iter().enumerate() {
        assert_eq!(s["id"].as_u64(), Some(id as u64));
        assert!(well_formed(s["name"].as_str().unwrap()));
        let (start, end) = (s["start_ns"].as_u64().unwrap(), s["end_ns"].as_u64().unwrap());
        assert!(start <= end);
        if let Some(p) = s["parent"].as_u64() {
            let p = p as usize;
            assert!(p < id, "parents precede children");
            let parent = &spans[p];
            assert!(
                parent["start_ns"].as_u64().unwrap() <= start
                    && end <= parent["end_ns"].as_u64().unwrap(),
                "span {id} escapes its parent {p}"
            );
            own[p] -= s["busy_ns"].as_i64().unwrap();
        }
    }
    assert!(own.iter().all(|&n| n >= 0), "negative self time");
}

fn workload(name: &str) {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (result, untraced) = run(&dir, name, false);
    check_result(&result, "end_to_end");

    let (result, traced) = run(&dir, name, true);
    check_result(&result, "per_layer");
    check_trace(&dir.join("trace.jsonl"));
    assert_eq!(traced["digest"], untraced["digest"], "traced digest must match untraced");

    let (_, again) = run(&dir, name, true);
    assert_eq!(again["counters"], traced["counters"], "counters must repeat exactly");
    assert_eq!(again["digest"], traced["digest"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tree_local() {
    workload("tree_local");
}

#[test]
fn er_full() {
    workload("er_full");
}

#[test]
fn sum_tree() {
    workload("sum_tree");
}

#[test]
fn scale_er() {
    workload("scale_er");
}

#[test]
fn lke_gadgets() {
    workload("lke_gadgets");
}

#[test]
fn benchmark_names_are_well_formed() {
    let bench = benchmark();
    for w in bench["workloads"].as_array().unwrap() {
        assert!(well_formed(w["name"].as_str().unwrap()));
    }
    for list in ["end_to_end", "per_layer"] {
        assert!(declared(list).keys().all(|n| well_formed(n)), "{list}");
    }
}
