//! Worker-loss chaos suite for `--backend process` (satellite of the
//! shared-nothing process-worker work).
//!
//! The contract under test: the process backend's labels are
//! **byte-identical** to the in-process backend's — no matter how many
//! worker processes are SIGKILLed mid-stage — because every shard is a
//! pure function of the shared input file and the failure machinery
//! only re-dispatches whole shards. Failure-path behaviour (poisoned
//! tasks, respawn-budget exhaustion) must be a clean typed error with
//! the engine exit code, never a hang or a wrong answer.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use dbscout_telemetry::json::parse;
use dbscout_telemetry::strip_timing_lines;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dbscout-process-backend");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `dbscout` with optional chaos env vars; panics only on spawn
/// failure so failure-path tests can inspect the exit status.
fn dbscout_raw(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dbscout"));
    cmd.args(args);
    for var in [
        "DBSCOUT_CHAOS_SEED",
        "DBSCOUT_WORKER_KILL",
        "DBSCOUT_WORKER_KILL_AT_END",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

fn dbscout_ok(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = dbscout_raw(args, envs);
    assert!(
        out.status.success(),
        "dbscout {args:?} (env {envs:?}) failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Generates the shared binary dataset once per test binary. Tests run
/// in parallel threads, so the first caller generates while the others
/// wait, and the file appears under its final name only when complete.
fn dataset() -> PathBuf {
    static DATA: OnceLock<PathBuf> = OnceLock::new();
    DATA.get_or_init(|| {
        let data = tmp("chaos.dbsc");
        if !data.exists() {
            let partial = tmp(&format!("chaos.dbsc.{}.partial", std::process::id()));
            dbscout_ok(
                &[
                    "generate",
                    "--dataset",
                    "blobs",
                    "--n",
                    "4000",
                    "--seed",
                    "11",
                    "--output",
                    partial.to_str().unwrap(),
                    "--format",
                    "binary",
                ],
                &[],
            );
            std::fs::rename(&partial, &data).unwrap();
        }
        data
    })
    .clone()
}

const EPS: &str = "0.6";
const MIN_PTS: &str = "5";

/// Runs a detection writing flagged labels to `out_csv`, returning the
/// report text. `backend_args` selects the backend; `envs` the chaos.
fn detect_to(data: &Path, out_csv: &Path, backend_args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut args = vec![
        "detect",
        "--input",
        data.to_str().unwrap(),
        "--from-binary",
        "--eps",
        EPS,
        "--min-pts",
        MIN_PTS,
        "--output",
        out_csv.to_str().unwrap(),
    ];
    args.extend_from_slice(backend_args);
    dbscout_ok(&args, envs)
}

/// The in-process reference labels (computed once per test binary,
/// compared by bytes). Concurrent tests must not share the file while it
/// is written, so one caller computes it and the rest reuse the bytes.
fn reference_labels(data: &Path) -> Vec<u8> {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE
        .get_or_init(|| {
            let out = tmp("labels-reference.csv");
            detect_to(data, &out, &[], &[]);
            std::fs::read(&out).unwrap()
        })
        .clone()
}

#[test]
fn process_backend_labels_match_in_process_byte_for_byte() {
    let data = dataset();
    let reference = reference_labels(&data);
    let out = tmp("labels-process.csv");
    let report = detect_to(
        &data,
        &out,
        &["--backend", "process", "--workers", "4"],
        &[],
    );
    assert!(report.contains("backend = process (4 workers)"), "{report}");
    assert_eq!(std::fs::read(&out).unwrap(), reference);
}

#[test]
fn csv_input_is_spilled_and_agrees_with_binary_streaming() {
    // The spill path: CSV input is re-encoded to a temp DBSC file for
    // the workers; labels must match the binary-input process run.
    let csv = tmp("chaos.csv");
    dbscout_ok(
        &[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "4000",
            "--seed",
            "11",
            "--output",
            csv.to_str().unwrap(),
        ],
        &[],
    );
    let from_csv = tmp("labels-from-csv.csv");
    dbscout_ok(
        &[
            "detect",
            "--input",
            csv.to_str().unwrap(),
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--output",
            from_csv.to_str().unwrap(),
            "--backend",
            "process",
            "--workers",
            "2",
        ],
        &[],
    );
    let reference = reference_labels(&dataset());
    assert_eq!(std::fs::read(&from_csv).unwrap(), reference);
}

#[test]
fn sigkill_mid_core_point_pass_preserves_labels() {
    let data = dataset();
    let reference = reference_labels(&data);
    let out = tmp("labels-kill-core.csv");
    let report = detect_to(
        &data,
        &out,
        &["--backend", "process", "--workers", "4"],
        &[("DBSCOUT_WORKER_KILL", "core-point:1:1")],
    );
    // Respawn count is deliberately not asserted: the 25ms backoff races
    // stage completion, so the dead slot may or may not be revived before
    // the run finishes. Kills and reassignments are plan-driven and exact.
    assert!(report.contains("worker failures: 1 kill(s)"), "{report}");
    assert!(report.contains("1 task reassignment(s)"), "{report}");
    assert_eq!(std::fs::read(&out).unwrap(), reference);
}

#[test]
fn sigkill_mid_outlier_pass_preserves_labels() {
    let data = dataset();
    let reference = reference_labels(&data);
    let out = tmp("labels-kill-outlier.csv");
    let report = detect_to(
        &data,
        &out,
        &["--backend", "process", "--workers", "4"],
        &[("DBSCOUT_WORKER_KILL", "outlier:2:1")],
    );
    assert!(report.contains("worker failures: 1 kill(s)"), "{report}");
    assert_eq!(std::fs::read(&out).unwrap(), reference);
}

#[test]
fn sigkill_after_stage_completion_preserves_labels() {
    // The worker dies while idle, between the shuffle-complete point of
    // the core-point pass and the outlier pass; the pool discovers the
    // corpse on the next dispatch and works around it.
    let data = dataset();
    let reference = reference_labels(&data);
    let out = tmp("labels-kill-idle.csv");
    let report = detect_to(
        &data,
        &out,
        &["--backend", "process", "--workers", "4"],
        &[("DBSCOUT_WORKER_KILL_AT_END", "core-point:0")],
    );
    assert!(report.contains("worker failures: 1 kill(s)"), "{report}");
    assert_eq!(std::fs::read(&out).unwrap(), reference);
}

#[test]
fn every_single_worker_kill_survives_with_identical_labels() {
    // Graceful degradation: killing any one worker of a two-worker pool
    // mid-stage leaves one survivor that must still produce the exact
    // labels (the ISSUE's "SIGKILL of any single worker" acceptance).
    let data = dataset();
    let reference = reference_labels(&data);
    for slot_task in [0usize, 3, 5] {
        let out = tmp(&format!("labels-anykill-{slot_task}.csv"));
        let kill = format!(":{slot_task}:1");
        let report = detect_to(
            &data,
            &out,
            &["--backend", "process", "--workers", "2"],
            &[("DBSCOUT_WORKER_KILL", kill.as_str())],
        );
        // The kill spec has no stage filter, so both stages lose the
        // worker hosting that task once.
        assert!(report.contains("worker failures: 2 kill(s)"), "{report}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "labels diverged after killing the worker of task {slot_task}"
        );
    }
}

#[test]
fn poison_task_is_quarantined_with_engine_exit_code() {
    // The same task kills two distinct workers -> quarantined as poison
    // input with a clean typed failure, not an infinite respawn loop.
    let data = dataset();
    let out = dbscout_raw(
        &[
            "detect",
            "--input",
            data.to_str().unwrap(),
            "--from-binary",
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--backend",
            "process",
            "--workers",
            "2",
        ],
        &[("DBSCOUT_WORKER_KILL", "core-point:0:2")],
    );
    assert_eq!(out.status.code(), Some(3), "engine exit code expected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("poison input quarantined"), "{stderr}");
    assert!(stderr.contains("2 distinct worker processes"), "{stderr}");
}

#[test]
fn respawn_budget_exhaustion_is_a_clean_worker_lost_error() {
    // One worker, killed on every dispatch, tiny budget: the run must
    // end in a WorkerLost engine error (exit 3) naming the budget —
    // never a hang.
    let data = dataset();
    let out = dbscout_raw(
        &[
            "detect",
            "--input",
            data.to_str().unwrap(),
            "--from-binary",
            "--eps",
            EPS,
            "--min-pts",
            MIN_PTS,
            "--backend",
            "process",
            "--workers",
            "1",
            "--respawn-budget",
            "2",
        ],
        &[("DBSCOUT_WORKER_KILL", ":0:99")],
    );
    assert_eq!(out.status.code(), Some(3), "engine exit code expected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("respawn budget exhausted"), "{stderr}");
    assert!(stderr.contains("2 respawn(s) used"), "{stderr}");
}

#[test]
fn seeded_worker_kills_record_versioned_report_and_deterministic_skeleton() {
    let data = dataset();
    let mut reports = Vec::new();
    for run in 0..2 {
        let report_path = tmp(&format!("process-report-{run}.json"));
        dbscout_ok(
            &[
                "detect",
                "--input",
                data.to_str().unwrap(),
                "--from-binary",
                "--eps",
                EPS,
                "--min-pts",
                MIN_PTS,
                "--backend",
                "process",
                "--workers",
                "4",
                "--report-json",
                report_path.to_str().unwrap(),
            ],
            &[("DBSCOUT_CHAOS_SEED", "20210414")],
        );
        reports.push(std::fs::read_to_string(&report_path).unwrap());
    }

    // Same seed, two runs: every non-timing field is byte-identical.
    assert_eq!(
        strip_timing_lines(&reports[0]),
        strip_timing_lines(&reports[1])
    );

    let doc = parse(&reports[0]).unwrap();
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64(),
        Some(dbscout_telemetry::REPORT_SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("params")
            .unwrap()
            .get("chaos_seed")
            .unwrap()
            .as_u64(),
        Some(20_210_414)
    );

    // The seeded plan kills one worker per stage; the report records the
    // kills and the reassignments of their in-flight shards, per stage
    // and in totals, plus the pool's own attribution section.
    let stages = doc.get("stages").unwrap().as_array().unwrap();
    assert_eq!(stages.len(), 2, "core-point and outlier stages");
    for stage in stages {
        assert_eq!(stage.get("worker_kills").unwrap().as_u64(), Some(1));
        assert_eq!(stage.get("task_reassignments").unwrap().as_u64(), Some(1));
    }
    let totals = doc.get("totals").unwrap();
    assert_eq!(totals.get("worker_kills").unwrap().as_u64(), Some(2));
    assert_eq!(totals.get("task_reassignments").unwrap().as_u64(), Some(2));

    let process = doc.get("process").unwrap();
    assert_eq!(process.get("workers").unwrap().as_u64(), Some(4));
    assert_eq!(process.get("worker_kills").unwrap().as_u64(), Some(2));
    assert_eq!(
        process.get("per_worker").unwrap().as_array().unwrap().len(),
        4
    );
    // Workers self-report their peak RSS (VmHWM) over IPC; on Linux the
    // sum is nonzero and flows into the totals.
    if cfg!(target_os = "linux") {
        let child_rss = totals
            .get("child_peak_rss_bytes")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(child_rss > 0, "child VmHWM should be reported");
        assert_eq!(
            process.get("child_peak_rss_bytes").unwrap().as_u64(),
            Some(child_rss)
        );
    }

    // And the chaos run's labels still match the clean reference.
    let reference = reference_labels(&data);
    let out = tmp("labels-seeded.csv");
    detect_to(
        &data,
        &out,
        &["--backend", "process", "--workers", "4"],
        &[("DBSCOUT_CHAOS_SEED", "20210414")],
    );
    assert_eq!(std::fs::read(&out).unwrap(), reference);
}

#[test]
fn backend_flag_validation() {
    let data = dataset();
    let base = [
        "detect",
        "--input",
        data.to_str().unwrap(),
        "--from-binary",
        "--eps",
        EPS,
        "--min-pts",
        MIN_PTS,
    ];
    for (extra, expect) in [
        (&["--backend", "sidecar"][..], "unknown backend"),
        (
            &["--backend", "process", "--engine", "distributed"][..],
            "native engine only",
        ),
    ] {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        let out = dbscout_raw(&args, &[]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{extra:?} must be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{extra:?}: {stderr}");
    }
    // Malformed chaos env specs are usage errors, not silent no-ops.
    let mut args = base.to_vec();
    args.extend_from_slice(&["--backend", "process"]);
    let out = dbscout_raw(&args, &[("DBSCOUT_WORKER_KILL", "not-a-spec")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("DBSCOUT_WORKER_KILL"),
        "malformed kill spec must be named in the error"
    );
}

/// Runs a detection with `--trace-out`/`--report-json` plus
/// `backend_args`, returning (trace JSON, report JSON, stdout, stderr).
fn detect_traced(
    data: &Path,
    tag: &str,
    backend_args: &[&str],
) -> (String, String, String, String) {
    let trace = tmp(&format!("trace-{tag}.json"));
    let report = tmp(&format!("report-{tag}.json"));
    let mut args = vec![
        "detect",
        "--input",
        data.to_str().unwrap(),
        "--from-binary",
        "--eps",
        EPS,
        "--min-pts",
        MIN_PTS,
        "--trace-out",
        trace.to_str().unwrap(),
        "--report-json",
        report.to_str().unwrap(),
    ];
    args.extend_from_slice(backend_args);
    let out = dbscout_raw(&args, &[]);
    assert!(
        out.status.success(),
        "dbscout {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).unwrap(),
        std::fs::read_to_string(&report).unwrap(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Validates Chrome Trace shape: parses as an array, every event is a
/// complete (`X`) or counter (`C`) event, span timestamps are monotone
/// within each (pid, tid) lane, and counter events reference declared
/// kernel counters with numeric values.
fn assert_valid_chrome_trace(trace: &str) {
    use std::collections::BTreeMap;
    let doc = parse(trace).unwrap();
    let events = doc.as_array().expect("trace must be a JSON array");
    assert!(!events.is_empty(), "trace must not be empty");
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        let ts = e.get("ts").unwrap().as_u64().unwrap();
        match e.get("ph").unwrap().as_str().unwrap() {
            "X" => {
                assert!(e.get("dur").unwrap().as_u64().is_some());
                let pid = e.get("pid").unwrap().as_u64().unwrap();
                let tid = e.get("tid").unwrap().as_u64().unwrap();
                let prev = last_ts.entry((pid, tid)).or_insert(0);
                assert!(
                    ts >= *prev,
                    "span timestamps must be monotone per lane: {ts} < {prev} in ({pid}, {tid})"
                );
                *prev = ts;
            }
            "C" => {
                let name = e.get("name").unwrap().as_str().unwrap();
                assert!(
                    dbscout_telemetry::KERNEL_COUNTER_NAMES.contains(&name),
                    "undeclared counter {name:?}"
                );
                let args = e.get("args").unwrap();
                assert!(args.get("value").unwrap().as_u64().is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
}

#[test]
fn process_trace_merges_every_worker_lane_without_warnings() {
    let data = dataset();
    let (trace, _report, stdout, stderr) =
        detect_traced(&data, "merged", &["--backend", "process", "--workers", "3"]);
    // Satellite of the distributed-tracing work: the trace now covers
    // the workers too, so the CLI must not warn that it is parent-only.
    assert!(!stdout.to_lowercase().contains("warning"), "{stdout}");
    assert!(!stderr.to_lowercase().contains("warning"), "{stderr}");

    let doc = parse(&trace).unwrap();
    let events = doc.as_array().unwrap();
    let mut worker_pids = std::collections::BTreeSet::new();
    let mut driver_spans = 0usize;
    for e in events {
        if e.get("ph").unwrap().as_str() != Some("X") {
            continue;
        }
        let pid = e.get("pid").unwrap().as_u64().unwrap();
        if pid == 1 {
            driver_spans += 1;
        } else {
            worker_pids.insert(pid);
        }
    }
    assert!(driver_spans > 0, "driver lane must keep its spans");
    assert_eq!(
        worker_pids.len(),
        3,
        "every worker pid must have a distinct lane: {worker_pids:?}"
    );
}

#[test]
fn chrome_traces_are_valid_on_both_backends() {
    let data = dataset();
    let (in_process, _, _, _) = detect_traced(&data, "valid-inproc", &[]);
    assert_valid_chrome_trace(&in_process);
    let (process, _, _, _) = detect_traced(
        &data,
        "valid-process",
        &["--backend", "process", "--workers", "2"],
    );
    assert_valid_chrome_trace(&process);
}

/// The acceptance pin for the kernel-counter taxonomy: totals are sums
/// over a disjoint partition of the cell range, so they are identical
/// across thread counts and across the in-process / process backends.
#[test]
fn kernel_counters_identical_across_backends_and_thread_counts() {
    let data = dataset();
    let kernel_totals = |report: &str| -> Vec<u64> {
        let doc = parse(report).unwrap();
        let totals = doc.get("totals").unwrap();
        [
            "cells_visited",
            "bbox_prunes",
            "early_exit_hits",
            "distance_evals",
        ]
        .iter()
        .map(|k| totals.get(k).unwrap().as_u64().unwrap())
        .collect()
    };
    let (_, one_thread, _, _) = detect_traced(&data, "eq-t1", &["--threads", "1"]);
    let (_, four_threads, _, _) = detect_traced(&data, "eq-t4", &["--threads", "4"]);
    let (_, process, _, _) = detect_traced(
        &data,
        "eq-proc",
        &["--backend", "process", "--workers", "3"],
    );
    let reference = kernel_totals(&one_thread);
    assert!(reference.iter().sum::<u64>() > 0, "counters must be live");
    assert_eq!(reference, kernel_totals(&four_threads));
    assert_eq!(reference, kernel_totals(&process));
}
