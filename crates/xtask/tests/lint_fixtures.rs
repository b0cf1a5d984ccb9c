//! Fixture-driven self-tests for the lint suite.
//!
//! Each fixture under `tests/fixtures/` is linted as if it sat at a given
//! workspace-relative path (which determines the rule scope), and the
//! findings must match **exactly** — rule ids and 1-based line numbers.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use xtask::{lint_source, scope_for};

fn lint_fixture(rel_path: &str, fixture: &str) -> Vec<(&'static str, usize)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let source = std::fs::read_to_string(format!("{dir}/{fixture}")).expect("fixture exists");
    lint_source(rel_path, &source, scope_for(rel_path))
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn xl001_panic_paths_flagged_at_exact_lines() {
    assert_eq!(
        lint_fixture("crates/core/src/panics.rs", "fail/panics.rs"),
        vec![
            ("XL001", 4),  // .unwrap()
            ("XL001", 5),  // .expect(...)
            ("XL001", 7),  // panic!
            ("XL001", 9),  // v[0]
            ("XL001", 13), // todo!
        ]
    );
}

#[test]
fn xl001_is_scoped_to_the_panic_free_crates() {
    // The same panic-ridden source is fine in a crate outside the policy.
    assert_eq!(
        lint_fixture("crates/data/src/panics.rs", "fail/panics.rs"),
        vec![]
    );
}

#[test]
fn xl002_float_comparisons_flagged_at_exact_lines() {
    assert_eq!(
        lint_fixture("crates/dataflow/src/float_eq.rs", "fail/float_eq.rs"),
        vec![
            ("XL002", 4), // x == 0.0
            ("XL002", 8), // dist(a, b) <= limit
        ]
    );
}

#[test]
fn xl003_unvalidated_params_flagged() {
    assert_eq!(
        lint_fixture("crates/core/src/params_fixture.rs", "fail/params.rs"),
        vec![("XL003", 3)]
    );
}

#[test]
fn xl003_only_applies_to_core() {
    // `eps`/`min_pts` in other crates are someone else's contract.
    assert_eq!(
        lint_fixture("crates/metrics/src/params_fixture.rs", "fail/params.rs"),
        vec![]
    );
}

#[test]
fn xl004_bare_error_enum_flagged() {
    assert_eq!(
        lint_fixture("crates/core/src/error.rs", "fail/error.rs"),
        vec![("XL004", 3)]
    );
    // The same file outside an `error.rs` path is unscoped.
    assert_eq!(
        lint_fixture("crates/core/src/types.rs", "fail/error.rs"),
        vec![]
    );
}

#[test]
fn xl005_catch_unwind_flagged_outside_the_executor() {
    assert_eq!(
        lint_fixture("crates/data/src/recover.rs", "fail/catch_unwind.rs"),
        vec![("XL005", 4)]
    );
    // The dataflow executor is the sanctioned panic boundary.
    assert_eq!(
        lint_fixture("crates/dataflow/src/executor.rs", "fail/catch_unwind.rs"),
        vec![]
    );
}

#[test]
fn xl006_prints_flagged_in_library_crates_only() {
    let expected = vec![
        ("XL006", 3), // println!
        ("XL006", 4), // eprintln!
        ("XL006", 5), // print!
    ];
    assert_eq!(
        lint_fixture("crates/telemetry/src/noisy.rs", "fail/stdout.rs"),
        expected
    );
    assert_eq!(
        lint_fixture("crates/data/src/noisy.rs", "fail/stdout.rs"),
        expected
    );
    // The CLI prints by design.
    assert_eq!(
        lint_fixture("crates/cli/src/noisy.rs", "fail/stdout.rs"),
        vec![]
    );
}

#[test]
fn xl007_hash_iteration_flagged_at_exact_lines() {
    assert_eq!(
        lint_fixture("crates/core/src/determinism.rs", "fail/determinism.rs"),
        vec![
            ("XL007", 6),  // for .. in cells.values()
            ("XL007", 13), // seen.into_iter()
            ("XL007", 19), // for .. in &counts (ctor-tracked binding)
        ]
    );
}

#[test]
fn xl007_is_scoped_to_result_affecting_crates() {
    // The CLI renders results; it never produces them.
    assert_eq!(
        lint_fixture("crates/cli/src/determinism.rs", "fail/determinism.rs"),
        vec![]
    );
}

#[test]
fn xl008_raw_locks_and_held_guards_flagged() {
    assert_eq!(
        lint_fixture("crates/dataflow/src/locking.rs", "fail/locking.rs"),
        vec![
            ("XL008", 9),  // raw .lock() outside the wrapper
            ("XL008", 13), // raw .try_lock()
            ("XL008", 17), // guard live across .join()
        ]
    );
}

#[test]
fn xl008_is_scoped_to_the_dataflow_crate() {
    assert_eq!(
        lint_fixture("crates/core/src/locking.rs", "fail/locking.rs"),
        vec![]
    );
}

#[test]
fn xl009_relaxed_load_store_flagged_rmw_exempt() {
    assert_eq!(
        lint_fixture("crates/core/src/atomics.rs", "fail/atomics.rs"),
        vec![
            ("XL009", 5), // Relaxed store
            ("XL009", 9), // Relaxed load
        ]
    );
}

#[test]
fn xl010_kernel_lane_tokens_flagged_at_exact_lines() {
    let expected = vec![
        ("XL010", 3),  // fn accumulate_unrolled
        ("XL010", 9),  // #[target_feature(..)]
        ("XL010", 10), // fn simd_sum
        ("XL010", 11), // use std::arch
    ];
    assert_eq!(
        lint_fixture("crates/core/src/fast.rs", "fail/kernel_lane.rs"),
        expected
    );
    // Confinement is workspace-wide, not just the detection crates.
    assert_eq!(
        lint_fixture("crates/data/src/fast.rs", "fail/kernel_lane.rs"),
        expected
    );
}

#[test]
fn xl010_spatial_kernel_modules_are_sanctioned() {
    assert_eq!(
        lint_fixture("crates/spatial/src/distance.rs", "fail/kernel_lane.rs"),
        vec![]
    );
    assert_eq!(
        lint_fixture("crates/spatial/src/cell_major.rs", "fail/kernel_lane.rs"),
        vec![]
    );
}

#[test]
fn xl000_malformed_directive_flagged() {
    assert_eq!(
        lint_fixture("crates/data/src/malformed.rs", "fail/malformed.rs"),
        vec![("XL000", 4)]
    );
}

#[test]
fn pass_fixtures_are_clean_under_the_strictest_scope() {
    assert_eq!(
        lint_fixture("crates/core/src/clean.rs", "pass/clean.rs"),
        vec![]
    );
    assert_eq!(
        lint_fixture("crates/core/src/error.rs", "pass/error.rs"),
        vec![]
    );
    // Waived / canonicalized hash iteration passes XL007.
    assert_eq!(
        lint_fixture("crates/core/src/determinism.rs", "pass/determinism.rs"),
        vec![]
    );
}

#[test]
fn lexer_edge_cases_do_not_leak_phantom_findings() {
    // Raw strings, nested block comments, and byte-char quotes must all
    // be blanked; a regression in any of them would surface the decoy
    // `.unwrap()` texts in this fixture as XL001 findings.
    assert_eq!(
        lint_fixture("crates/core/src/lexer_edges.rs", "pass/lexer_edges.rs"),
        vec![]
    );
}

/// End-to-end: drive the binary against throwaway mini-workspaces and
/// check exit codes plus `--json` output.
mod binary {
    use std::path::{Path, PathBuf};
    use std::process::Command;

    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str, files: &[(&str, &str)]) -> Self {
            let dir =
                std::env::temp_dir().join(format!("xtask-fixture-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            for (rel, content) in files {
                let path = dir.join(rel);
                std::fs::create_dir_all(path.parent().expect("fixture paths have parents"))
                    .expect("mkdir");
                std::fs::write(path, content).expect("write fixture");
            }
            TempRoot(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_lint(root: &Path, json: bool) -> (bool, String) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
        cmd.arg("lint").arg("--root").arg(root);
        if json {
            cmd.arg("--json");
        }
        let out = cmd.output().expect("spawn xtask");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    }

    #[test]
    fn clean_root_exits_zero() {
        let root = TempRoot::new(
            "clean",
            &[(
                "crates/core/src/lib.rs",
                "pub fn ok(v: &[u32]) -> Option<u32> {\n    v.first().copied()\n}\n",
            )],
        );
        let (ok, stdout) = run_lint(root.path(), false);
        assert!(ok, "clean workspace must exit 0; got: {stdout}");
        assert!(stdout.contains("clean"), "unexpected output: {stdout}");
    }

    #[test]
    fn check_report_accepts_conforming_and_rejects_corrupted() {
        use dbscout_telemetry::{
            DatasetEcho, ParamsEcho, PhaseReport, RunReport, StageReport, TotalsReport,
        };
        let report = RunReport {
            dataset: DatasetEcho {
                source: "blobs.csv".to_owned(),
                points: 800,
                dimensions: 2,
            },
            params: ParamsEcho {
                engine: "distributed".to_owned(),
                eps: 0.6,
                min_pts: 5,
                partitions: 8,
                workers: 4,
                threads: 1,
                chaos_seed: Some(42),
            },
            phases: vec![PhaseReport {
                name: "grid partitioning".to_owned(),
                wall_clock_us: 12,
            }],
            stages: vec![StageReport {
                label: "grid partitioning:map_partitions".to_owned(),
                tasks: 8,
                ..StageReport::default()
            }],
            serve: None,
            totals: TotalsReport {
                stages: 1,
                tasks: 8,
                ..TotalsReport::default()
            },
        }
        .to_json();
        let corrupted = report.replacen("\"totals\"", "\"tallies\"", 1);
        let root = TempRoot::new(
            "check-report",
            &[
                ("good.json", report.as_str()),
                ("bad.json", corrupted.as_str()),
            ],
        );

        let check = |name: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
                .arg("check-report")
                .arg(root.path().join(name))
                .output()
                .expect("spawn xtask");
            (
                out.status.success(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
            )
        };

        let (ok, _) = check("good.json");
        assert!(ok, "a writer-produced report must conform");
        let (ok, stderr) = check("bad.json");
        assert!(!ok, "a corrupted report must fail");
        assert!(stderr.contains("totals"), "unexpected stderr: {stderr}");
    }

    #[test]
    fn dirty_root_exits_nonzero_with_json_findings() {
        let root = TempRoot::new(
            "dirty",
            &[(
                "crates/core/src/lib.rs",
                "pub fn bad(v: &[u32]) -> u32 {\n    v.first().copied().unwrap()\n}\n",
            )],
        );
        let (ok, stdout) = run_lint(root.path(), true);
        assert!(!ok, "findings must fail the run");
        assert!(
            stdout.contains("\"rules\":["),
            "JSON missing the advertised rule set: {stdout}"
        );
        assert!(
            stdout.contains("\"XL007\"") && stdout.contains("\"XL009\""),
            "rule set must cover the concurrency lints: {stdout}"
        );
        assert!(
            stdout.contains("\"rule\":\"XL001\""),
            "JSON missing rule: {stdout}"
        );
        assert!(stdout.contains("\"line\":2"), "JSON missing line: {stdout}");
        assert!(
            stdout.contains("\"count\":1"),
            "JSON missing count: {stdout}"
        );
    }

    #[test]
    fn explain_prints_rationale_for_known_rules() {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--explain", "XL007"])
            .output()
            .expect("spawn xtask");
        assert!(out.status.success(), "known rule must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("XL007") && text.contains("xlint: ordered"),
            "explanation must name the rule and its waiver: {text}"
        );
    }

    #[test]
    fn explain_rejects_unknown_rules() {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--explain", "XL999"])
            .output()
            .expect("spawn xtask");
        assert!(!out.status.success(), "unknown rule must exit nonzero");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("XL999") && err.contains("XL007"),
            "error must echo the rule and list the shipped set: {err}"
        );
    }
}
