//! `ledger compare A.jsonl B.jsonl`: parent (`A`) against change (`B`),
//! from result files written by `ledger run --out`.
//!
//! For each workload × end-to-end metric it prints both sides' median
//! and quartiles, the parent's spread, the share of alternating pairs
//! (`A[i]`, `B[i]`) the change won, and a verdict under the bounds of
//! `BENCHMARK.json`:
//!
//! * `worse` — the change's median is worse by more than the bound;
//! * `better` — at least 10 pairs, the change won ≥ 9 in 10 (ties count
//!   for neither side), and the medians differ by more than the
//!   parent's interquartile range;
//! * `unresolved` — the parent's own spread exceeds the bound and not
//!   every change run beats every parent run;
//! * `unchanged` — otherwise.
//!
//! It then lists every digest (same workload and seed) and every
//! traced-run counter that differs. Exit status 1 when any verdict is
//! `worse` or `unresolved` or anything differs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::stats::{median, quartiles};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_lines(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bench: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = bench["end_to_end"].as_array().ok_or(format!("{path}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"].as_str().ok_or("metric without a name")?.to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced runs per workload, in file order.
fn untraced(lines: &[Value]) -> BTreeMap<String, Vec<&Value>> {
    let mut out: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for l in lines.iter().filter(|l| l["trace"] == Value::Bool(false)) {
        out.entry(l["workload"].as_str().unwrap_or("?").to_string()).or_default().push(l);
    }
    out
}

fn key(l: &Value) -> (String, u64) {
    (l["workload"].as_str().unwrap_or("?").to_string(), l["seed"].as_u64().unwrap_or(0))
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return fail("--benchmark needs a path"),
            },
            _ => files.push(a.clone()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return fail("compare needs exactly two result files");
    };
    let (a, b, bounds) = match (read_lines(a_path), read_lines(b_path), read_bounds(&bench)) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail(&e),
    };
    let mut clean = true;

    println!(
        "{:<12} {:<12} {:>32} {:>32} {:>10} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "A iqr", "B won"
    );
    let (ua, ub) = (untraced(&a), untraced(&b));
    for (workload, runs_a) in &ua {
        let Some(runs_b) = ub.get(workload) else { continue };
        for bound in &bounds {
            let values = |runs: &[&Value]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r["result"]["metrics"][bound.name.as_str()]["value"].as_f64())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(bound, &va, &vb);
            clean &= matches!(verdict.0, "unchanged" | "better");
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "{workload:<12} {:<12} {:>10} [{}, {}] {:>10} [{}, {}] {:>10} {:>9}  {}",
                bound.name,
                num(median(&va)),
                num(qa[0]),
                num(qa[2]),
                num(median(&vb)),
                num(qb[0]),
                num(qb[2]),
                num(qa[2] - qa[0]),
                verdict.1,
                verdict.0
            );
        }
    }

    // Digests and counters must match run for run.
    let index = |lines: &[Value], traced: bool| -> BTreeMap<(String, u64), Value> {
        lines
            .iter()
            .filter(|l| l["trace"] == Value::Bool(traced))
            .map(|l| (key(l), l.clone()))
            .collect()
    };
    for traced in [false, true] {
        let (ia, ib) = (index(&a, traced), index(&b, traced));
        for (k, la) in &ia {
            let Some(lb) = ib.get(k) else { continue };
            if la["digest"] != lb["digest"] {
                clean = false;
                println!(
                    "digest differs: {} seed {}: {:?} vs {:?}",
                    k.0, k.1, la["digest"], lb["digest"]
                );
            }
            let counters = |l: &Value| l["counters"].as_object().cloned().unwrap_or_default();
            let cb: BTreeMap<String, Value> = counters(lb).into_iter().collect();
            for (name, va) in counters(la) {
                if cb.get(&name) != Some(&va) {
                    clean = false;
                    println!(
                        "counter differs: {} seed {} {name}: {:?} vs {:?}",
                        k.0,
                        k.1,
                        va["value"],
                        cb.get(&name).map(|v| &v["value"])
                    );
                }
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The verdict and the "pairs won" column for one metric.
fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (&'static str, String) {
    // Positive when the change is better.
    let gain = |pa: f64, pb: f64| if bound.lower_is_better { pa - pb } else { pb - pa };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|&(&pa, &pb)| gain(pa, pb) > 0.0).count();
    let (ma, mb) = (median(a), median(b));
    let qa = quartiles(a);
    let iqr_a = qa[2] - qa[0];
    let all_better = a.iter().all(|&pa| b.iter().all(|&pb| gain(pa, pb) > 0.0));
    let verdict = if -gain(ma, mb) > bound.bound * ma.abs() {
        "worse"
    } else if pairs >= 10 && won * 10 >= pairs * 9 && gain(ma, mb) > iqr_a {
        "better"
    } else if iqr_a > bound.bound * ma.abs() && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    (verdict, format!("{won}/{pairs}"))
}

/// Four significant digits, whatever the magnitude.
fn num(x: f64) -> String {
    format!("{x:.3e}")
}

fn fail(message: &str) -> ExitCode {
    eprintln!("ledger compare: {message}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "wall_s".into(), lower_is_better: true, bound }
    }

    #[test]
    fn verdicts_follow_the_bounds_and_the_pair_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let same = parent.clone();
        assert_eq!(judge(&lower(0.05), &parent, &same).0, "unchanged");
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&lower(0.05), &parent, &slower).0, "worse");
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&lower(0.05), &parent, &faster), ("better", "10/10".to_string()));
        // Fewer than 10 pairs can never claim a gain.
        assert_eq!(judge(&lower(0.05), &parent[..5], &faster[..5]).0, "unchanged");
        let noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(judge(&lower(0.05), &noisy, &[1.5; 6]).0, "unresolved");
    }
}
