//! Pinned smoke artifacts: every exact-dynamics experiment, plus the
//! lower-bound certifications, run through the real `ncg-experiments`
//! binary at `--smoke --seed 7`, each into a fresh temp directory, and
//! every file they write must hash to the FNV-1a digest committed
//! below. The certifications are pinned at paper size (`--full`) too:
//! that run adds the Theorem 4.2 torus at k = 3 and the 120-node
//! Theorem 4.3 high-girth gadget, whose Sum views split at the player
//! into several components.
//!
//! Same seed ⇒ same bytes is the workspace's signature invariant, so a
//! performance change must leave every digest alone. A deliberate
//! output change (a new column, a different tie-break) re-pins: copy
//! the digests the failure message prints and record the reason in the
//! change log.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Runs `experiment --smoke --seed 7` and compares the artifact set,
/// file names and digests alike, with `pins`.
fn assert_pinned(experiment: &str, pins: &[(&str, u64)]) {
    assert_pinned_at(experiment, "--smoke", pins);
}

/// [`assert_pinned`] under the given profile flag.
fn assert_pinned_at(experiment: &str, profile: &str, pins: &[(&str, u64)]) {
    let out = std::env::temp_dir()
        .join(format!("ncg_pinned_{experiment}{profile}_{}", std::process::id()))
        .with_extension("d");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_ncg-experiments"))
        .args([experiment, profile, "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("spawning the ncg-experiments binary");
    assert!(
        run.status.success(),
        "{experiment} exited with {:?}; stderr:\n{}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    let mut actual: Vec<(String, u64)> = std::fs::read_dir(&out)
        .expect("artifact directory readable")
        .map(|entry| {
            let path: PathBuf = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            let bytes = std::fs::read(&path).expect("artifact readable");
            (name, fnv1a(&bytes))
        })
        .collect();
    actual.sort();
    let _ = std::fs::remove_dir_all(&out);
    let expected: Vec<(String, u64)> = pins.iter().map(|&(f, d)| (f.to_string(), d)).collect();
    let listing: String =
        actual.iter().map(|(f, d)| format!("    (\"{f}\", 0x{d:016x}),\n")).collect();
    assert_eq!(
        actual, expected,
        "{experiment} {profile} --seed 7 no longer reproduces its pinned artifacts; \
         if the change is intended, re-pin with:\n{listing}"
    );
}

#[test]
fn figure5_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure5",
        &[
            ("figure5_avg_view_size.csv", 0x3966_e76d_1fa1_f2b8),
            ("figure5_min_view_size.csv", 0x71e7_9745_c33d_4388),
            ("figure5_notes.txt", 0xc64a_f2ee_7320_1969),
            ("figure5_runs.jsonl", 0xbca5_53fb_e361_7a8e),
        ],
    );
}

#[test]
fn figure8_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure8",
        &[
            ("figure8_max_bought.csv", 0x1ddf_2e61_b127_3640),
            ("figure8_max_degree.csv", 0x2a1a_1fd6_4c29_c8ba),
            ("figure8_notes.txt", 0xff80_a33c_de06_fb66),
            ("figure8_runs.jsonl", 0xab04_c5d9_dc49_8f53),
        ],
    );
}

#[test]
fn lower_bounds_smoke_artifacts_are_pinned() {
    assert_pinned(
        "lower-bounds",
        &[
            ("lower_bounds_certifications.csv", 0xc15e_430d_608c_a5d2),
            ("lower_bounds_notes.txt", 0xfc8e_8e7f_9b89_04eb),
        ],
    );
}

#[test]
fn lower_bounds_full_artifacts_are_pinned() {
    assert_pinned_at(
        "lower-bounds",
        "--full",
        &[
            ("lower_bounds_certifications.csv", 0xa5a6_a08e_2583_a9cd),
            ("lower_bounds_notes.txt", 0xf0a5_3368_e34e_7fb2),
        ],
    );
}

#[test]
fn sum_extension_smoke_artifacts_are_pinned() {
    assert_pinned(
        "sum-extension",
        &[
            ("sum_extension_notes.txt", 0x9f52_8b10_0981_8ee5),
            ("sum_extension_quality.csv", 0x2826_1ddc_4832_41f5),
            ("sum_extension_rounds.csv", 0xf095_ef06_d14c_9b61),
            ("sum_extension_runs.jsonl", 0xe33e_bcff_bc84_67e4),
        ],
    );
}

#[test]
fn swap_ncg_smoke_artifacts_are_pinned() {
    assert_pinned(
        "swap-ncg",
        &[
            ("swap_ncg_diameter.csv", 0x1a4e_aef5_dd16_09fd),
            ("swap_ncg_notes.txt", 0x3cd5_49e5_5248_5eb4),
            ("swap_ncg_rounds.csv", 0x05ee_9515_16cf_4b25),
            ("swap_ncg_runs.jsonl", 0x3d23_b4bb_d755_95e4),
        ],
    );
}

#[test]
fn nonuniform_smoke_artifacts_are_pinned() {
    assert_pinned(
        "nonuniform",
        &[
            ("nonuniform_notes.txt", 0x8c49_112e_125c_3941),
            ("nonuniform_quality.csv", 0x83c4_0177_f8f6_d0d9),
            ("nonuniform_rounds.csv", 0x96fb_729e_5be6_1b52),
            ("nonuniform_runs.jsonl", 0x10c5_1a5e_95d9_839c),
        ],
    );
}

#[test]
fn table1_smoke_artifacts_are_pinned() {
    assert_pinned(
        "table1",
        &[
            ("table1_notes.txt", 0xd19a_bf36_4313_bbb6),
            ("table1_random_trees.csv", 0x713a_198a_01d6_82b3),
        ],
    );
}

#[test]
fn table2_smoke_artifacts_are_pinned() {
    assert_pinned(
        "table2",
        &[
            ("table2_er_graphs.csv", 0xc12a_57f2_a6d6_e3d8),
            ("table2_notes.txt", 0xf535_d16c_dab6_9db9),
        ],
    );
}

#[test]
fn figure6_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure6",
        &[
            ("figure6_notes.txt", 0x9006_381f_ea6e_35d5),
            ("figure6_quality_alpha1.csv", 0xcbc9_c6d8_e480_3c33),
            ("figure6_quality_alpha10.csv", 0xfa58_5339_1a14_501d),
            ("figure6_runs.jsonl", 0x7aca_ff10_b7f4_6b76),
        ],
    );
}

#[test]
fn figure7_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure7",
        &[
            ("figure7_er.csv", 0x0f2e_dd8b_3fea_f045),
            ("figure7_notes.txt", 0x118b_9a99_bf4e_9f10),
            ("figure7_runs.jsonl", 0xb3b0_5c3e_2970_a63b),
            ("figure7_trees.csv", 0xbba5_143f_9517_9127),
        ],
    );
}

#[test]
fn figure9_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure9",
        &[
            ("figure8_runs.jsonl", 0xab04_c5d9_dc49_8f53),
            ("figure9_notes.txt", 0xedb7_cb1c_d6fe_304b),
            ("figure9_unfairness.csv", 0x1939_61a0_fc17_880b),
        ],
    );
}

#[test]
fn figure10_smoke_artifacts_are_pinned() {
    assert_pinned(
        "figure10",
        &[
            ("figure10_notes.txt", 0x6016_6b00_3189_5a49),
            ("figure10_rounds_vs_alpha_n24.csv", 0x38ca_397d_39df_e8d0),
            ("figure10_rounds_vs_n_alpha2.csv", 0x798b_7fa4_608a_a1f1),
            ("figure10_runs.jsonl", 0x80ea_5f29_d472_bd43),
        ],
    );
}
