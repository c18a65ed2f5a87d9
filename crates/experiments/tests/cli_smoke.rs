//! End-to-end smoke test for the `ncg-experiments` CLI: run one real
//! dynamics figure (Figure 5, quick profile trimmed to one repetition)
//! with a fixed seed into a temp `--out` directory, then assert that
//! the artifacts exist and parse as well-formed CSV.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_out_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ncg_cli_smoke_{}", std::process::id()))
}

/// Checks a table CSV: at least a header plus one data row, every row
/// with the same column count, and at least one parsable number in
/// each data row.
fn assert_parses_as_csv(path: &Path) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let rows: Vec<Vec<&str>> = text.lines().map(|line| line.split(',').collect()).collect();
    assert!(rows.len() >= 2, "{}: expected header + data rows", path.display());
    let columns = rows[0].len();
    assert!(columns >= 2, "{}: expected at least two columns", path.display());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), columns, "{}: ragged row {i}", path.display());
    }
    for (i, row) in rows.iter().enumerate().skip(1) {
        let numeric = row.iter().any(|cell| {
            cell.split_whitespace().next().is_some_and(|tok| tok.parse::<f64>().is_ok())
        });
        assert!(numeric, "{}: no numeric cell in data row {i}: {row:?}", path.display());
    }
}

#[test]
fn figure5_quick_profile_writes_parsable_artifacts() {
    let out_dir = temp_out_dir();
    let _ = std::fs::remove_dir_all(&out_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .args(["figure5", "--reps", "1", "--seed", "12345", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(
        output.status.success(),
        "CLI exited with {:?}; stderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );

    // The two Figure 5 panels plus the notes file.
    let avg = out_dir.join("figure5_avg_view_size.csv");
    let min = out_dir.join("figure5_min_view_size.csv");
    let notes = out_dir.join("figure5_notes.txt");
    for path in [&avg, &min, &notes] {
        assert!(path.is_file(), "missing artifact {}", path.display());
    }
    assert_parses_as_csv(&avg);
    assert_parses_as_csv(&min);
    let notes_text = std::fs::read_to_string(&notes).expect("notes readable");
    assert!(!notes_text.trim().is_empty(), "notes file is empty");

    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Satellite of the sweep-engine rearchitecture: a two-shard
/// `figure5` run plus `merge` must reproduce the single-process
/// artifacts byte for byte — tables, notes, and the canonical JSONL
/// run journal (quick profile, 2 reps so each shard owns one).
#[test]
fn figure5_two_shard_merge_round_trips_byte_identically() {
    let single_dir = temp_out_dir().with_extension("single");
    let shard_dir = temp_out_dir().with_extension("sharded");
    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
    let base_args = ["figure5", "--reps", "2", "--seed", "4242"];
    let run = |extra: &[&str], out: &Path| {
        let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
            .args(base_args)
            .args(extra)
            .arg("--out")
            .arg(out)
            .output()
            .expect("spawning the ncg-experiments binary");
        assert!(
            output.status.success(),
            "CLI {extra:?} exited with {:?}; stderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&[], &single_dir);
    run(&["--shards", "2", "--shard", "0"], &shard_dir);
    run(&["--shards", "2", "--shard", "1"], &shard_dir);
    // `merge` is spelled as a leading subcommand.
    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .args(["merge", "figure5", "--reps", "2", "--seed", "4242", "--shards", "2", "--out"])
        .arg(&shard_dir)
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(
        output.status.success(),
        "merge exited with {:?}; stderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );

    for artifact in [
        "figure5_avg_view_size.csv",
        "figure5_min_view_size.csv",
        "figure5_notes.txt",
        "figure5_runs.jsonl",
    ] {
        let a = std::fs::read(single_dir.join(artifact))
            .unwrap_or_else(|e| panic!("single-run artifact {artifact}: {e}"));
        let b = std::fs::read(shard_dir.join(artifact))
            .unwrap_or_else(|e| panic!("merged artifact {artifact}: {e}"));
        assert!(!a.is_empty(), "{artifact} is empty");
        assert_eq!(a, b, "sharded+merged {artifact} differs from the single-process run");
    }
    // The shard journals themselves partition the grid: together they
    // hold exactly the lines of the canonical journal.
    let canonical = std::fs::read_to_string(single_dir.join("figure5_runs.jsonl")).unwrap();
    let mut shard_lines: Vec<String> = (0..2)
        .flat_map(|i| {
            std::fs::read_to_string(shard_dir.join(format!("figure5_runs.shard{i}of2.jsonl")))
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut canonical_lines: Vec<String> = canonical.lines().map(str::to_string).collect();
    shard_lines.sort();
    canonical_lines.sort();
    assert_eq!(shard_lines, canonical_lines);

    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

/// Figure 9 folds Figure 8's journal, so a `figure9` run after
/// `figure8` into the same `--out` solves no cell: under
/// `NCG_FAULT=panic_cell:0`, which would fail the first cell it
/// solved, it exits 0, leaves `figure8_runs.jsonl` as it was, and
/// writes the same `figure9_*` bytes as a standalone `figure9`.
#[test]
fn figure9_after_figure8_solves_nothing() {
    let shared = temp_out_dir().with_extension("figure8_then_9");
    let alone = temp_out_dir().with_extension("figure9_alone");
    let _ = std::fs::remove_dir_all(&shared);
    let _ = std::fs::remove_dir_all(&alone);
    let run = |experiment: &str, out: &Path, fault: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"));
        cmd.args([experiment, "--smoke", "--seed", "7", "--out"]).arg(out);
        if let Some(fault) = fault {
            cmd.env("NCG_FAULT", fault);
        }
        let output = cmd.output().expect("spawning the ncg-experiments binary");
        assert!(
            output.status.success(),
            "{experiment} (fault {fault:?}) exited with {:?}; stderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run("figure8", &shared, None);
    let journal = std::fs::read(shared.join("figure8_runs.jsonl")).expect("figure8's journal");
    run("figure9", &shared, Some("panic_cell:0"));
    assert_eq!(
        std::fs::read(shared.join("figure8_runs.jsonl")).unwrap(),
        journal,
        "figure9 must leave figure8's journal as it was"
    );
    run("figure9", &alone, None);
    let figure9_files = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.file_name().unwrap().to_string_lossy().starts_with("figure9_"))
            .map(|path| {
                let bytes = std::fs::read(&path).unwrap();
                (path.file_name().unwrap().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        files.sort();
        files
    };
    let standalone = figure9_files(&alone);
    let names: Vec<&str> = standalone.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["figure9_notes.txt", "figure9_unfairness.csv"]);
    assert_eq!(figure9_files(&shared), standalone, "figure9 artifacts differ after figure8");
    assert_eq!(
        std::fs::read(alone.join("figure8_runs.jsonl")).unwrap(),
        journal,
        "a standalone figure9 writes figure8's journal"
    );

    let _ = std::fs::remove_dir_all(&shared);
    let _ = std::fs::remove_dir_all(&alone);
}

/// The commands a merge error and a shard note name run as written,
/// with the run's profile flags and `--out`, for a hyphenated
/// experiment too: `merge sum-extension` before any shard has run names
/// shard 0's command, and the note shard 1 leaves in
/// `sum_extension_notes.txt` names the merge.
#[test]
fn shard_notes_and_merge_errors_name_commands_that_run() {
    let out = temp_out_dir().with_extension("sum_extension_shards");
    let _ = std::fs::remove_dir_all(&out);
    let run = |command: &str| {
        Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
            .args(command.split_whitespace())
            .args(["--smoke", "--seed", "7", "--out"])
            .arg(&out)
            .output()
            .expect("spawning the ncg-experiments binary")
    };
    let run_ok = |command: &str| {
        let output = run(command);
        assert!(
            output.status.success(),
            "`{command}` exited with {:?}; stderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    // The first command quoted in backticks.
    let named = |text: &str| -> String {
        text.split('`').nth(1).unwrap_or_else(|| panic!("no command named in:\n{text}")).to_string()
    };

    let early = run("merge sum-extension --shards 2");
    let stderr = String::from_utf8_lossy(&early.stderr);
    assert_eq!(early.status.code(), Some(1), "a merge without shards must fail:\n{stderr}");
    let shard0 = named(&stderr);
    assert_eq!(shard0, "sum-extension --shards 2 --shard 0");
    run_ok(&shard0);
    run_ok("sum-extension --shards 2 --shard 1");
    let note = std::fs::read_to_string(out.join("sum_extension_notes.txt")).expect("shard note");
    let merge = named(&note);
    assert_eq!(merge, "merge sum-extension --shards 2");
    run_ok(&merge);

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn rejects_unknown_experiment_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .arg("no-such-figure")
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "expected usage text, got:\n{stderr}");
}
