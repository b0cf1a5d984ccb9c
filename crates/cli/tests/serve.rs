//! End-to-end tests of `dbscout serve` as a real child process: the
//! daemon's warm answers must be byte-identical to what the batch CLI
//! computes from scratch over the equivalent dataset, across arbitrary
//! insert/remove interleavings (with exact id mapping), on both stdio
//! and Unix-socket transports, and hostile request lines must be
//! answered with errors while the warm state lives on.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use dbscout_core::reference::naive_labels;
use dbscout_core::{DbscoutParams, PointLabel};
use dbscout_spatial::PointStore;
use dbscout_telemetry::json::{parse, Value};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dbscout-serve-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn dbscout_ok(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_dbscout"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "dbscout {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Reads the CSV the test generated back as rows of `f64`s.
fn read_rows(path: &PathBuf) -> Vec<Vec<f64>> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
        .collect()
}

/// Writes rows as a CSV the batch CLI can consume.
fn write_rows(path: &PathBuf, rows: &[Vec<f64>]) {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    std::fs::write(path, out).unwrap();
}

/// Runs the batch CLI over `rows` and returns the flagged row indices
/// (the trailing column `--output` writes is the outlier flag).
fn batch_outlier_indices(name: &str, rows: &[Vec<f64>], eps: &str, min_pts: &str) -> Vec<usize> {
    let input = tmp(&format!("{name}-batch-in.csv"));
    let flagged = tmp(&format!("{name}-batch-out.csv"));
    write_rows(&input, rows);
    dbscout_ok(&[
        "detect",
        "--input",
        input.to_str().unwrap(),
        "--eps",
        eps,
        "--min-pts",
        min_pts,
        "--output",
        flagged.to_str().unwrap(),
    ]);
    std::fs::read_to_string(&flagged)
        .unwrap()
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim().ends_with(",1"))
        .map(|(i, _)| i)
        .collect()
}

/// Spawns `dbscout serve` on stdio and returns the child.
fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dbscout"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// Sends the request lines and collects one response line per request.
fn drive(child: &mut Child, requests: &[String]) -> Vec<String> {
    let mut stdin = child.stdin.take().unwrap();
    for r in requests {
        writeln!(stdin, "{r}").unwrap();
    }
    drop(stdin); // EOF after shutdown
    let stdout = child.stdout.take().unwrap();
    let responses: Vec<String> = BufReader::new(stdout).lines().map(Result::unwrap).collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status:?}");
    responses
}

fn ids_of_outliers_response(line: &str) -> Vec<u64> {
    let doc = parse(line).unwrap();
    assert_eq!(doc.get("ok").and_then(Value::as_u64), None); // bools aren't u64
    assert_eq!(doc.get("op").unwrap().as_str(), Some("outliers"));
    doc.get("ids")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect()
}

#[test]
fn interleaved_session_matches_batch_cli_with_exact_id_mapping() {
    let data = tmp("mix.csv");
    dbscout_ok(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "400",
        "--seed",
        "19",
        "--output",
        data.to_str().unwrap(),
    ]);
    // The same points as a DBSC binary file, for `--from-binary`.
    let binary = tmp("mix.dbsc");
    dbscout_ok(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "400",
        "--seed",
        "19",
        "--format",
        "binary",
        "--output",
        binary.to_str().unwrap(),
    ]);
    let base_rows = read_rows(&data);
    let n = base_rows.len();

    // Book-keep the session ourselves: rows by id, and liveness.
    let mut rows_by_id = base_rows.clone();
    let mut alive: Vec<bool> = vec![true; n];
    let mut requests: Vec<String> = Vec::new();
    // An arbitrary interleaving: new points (clustered and far),
    // removals of original AND fresh ids, a re-remove miss, probes.
    let new_points: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            if i % 3 == 0 {
                vec![200.0 + f64::from(i), 200.0]
            } else {
                vec![0.01 * f64::from(i), 0.02 * f64::from(i)]
            }
        })
        .collect();
    for (i, p) in new_points.iter().enumerate() {
        requests.push(format!(
            r#"{{"op":"insert","point":[{:?},{:?}]}}"#,
            p[0], p[1]
        ));
        rows_by_id.push(p.clone());
        alive.push(true);
        if i % 2 == 0 {
            // Remove an original id interleaved with the inserts.
            let victim = i * 13 % n;
            requests.push(format!(r#"{{"op":"remove","id":{victim}}}"#));
            alive[victim] = false;
        }
        requests.push(r#"{"op":"probe","point":[0.0,0.0]}"#.to_string());
    }
    // Remove two of the fresh ids too, plus one guaranteed miss.
    for fresh in [n as u64, n as u64 + 3] {
        requests.push(format!(r#"{{"op":"remove","id":{fresh}}}"#));
        alive[fresh as usize] = false;
    }
    requests.push(format!(r#"{{"op":"remove","id":{}}}"#, n)); // re-remove
    requests.push(r#"{"op":"outliers"}"#.to_string());
    requests.push(r#"{"op":"stats"}"#.to_string());
    requests.push(r#"{"op":"shutdown"}"#.to_string());

    let mut child = spawn_serve(&[
        "--input",
        data.to_str().unwrap(),
        "--eps",
        "0.6",
        "--min-pts",
        "5",
    ]);
    let responses = drive(&mut child, &requests);
    assert_eq!(responses.len(), requests.len(), "{responses:?}");
    // Loaded from the binary copy, the daemon answers the same session
    // line for line.
    let mut child = spawn_serve(&[
        "--input",
        binary.to_str().unwrap(),
        "--from-binary",
        "--eps",
        "0.6",
        "--min-pts",
        "5",
    ]);
    assert_eq!(drive(&mut child, &requests), responses, "--from-binary");
    let outliers_line = &responses[responses.len() - 3];
    let served_ids = ids_of_outliers_response(outliers_line);

    // Exact id mapping: survivors in id order are the batch rows in
    // row order, so batch outlier row k is survivor id ids[k].
    let survivor_ids: Vec<u64> = (0..rows_by_id.len() as u64)
        .filter(|&id| alive[id as usize])
        .collect();
    let survivor_rows: Vec<Vec<f64>> = survivor_ids
        .iter()
        .map(|&id| rows_by_id[id as usize].clone())
        .collect();
    let batch_ids: Vec<u64> = batch_outlier_indices("mix", &survivor_rows, "0.6", "5")
        .into_iter()
        .map(|k| survivor_ids[k])
        .collect();
    assert_eq!(served_ids, batch_ids);

    // The counters `stats` reads equal brute-force counts on the
    // survivors.
    let stats = parse(&responses[responses.len() - 2]).unwrap();
    assert_eq!(stats.get("op").and_then(Value::as_str), Some("stats"));
    let store = PointStore::from_rows(2, survivor_rows).unwrap();
    let want = naive_labels(&store, DbscoutParams::new(0.6, 5).unwrap());
    let count = |label| want.iter().filter(|&&l| l == label).count() as u64;
    assert_eq!(
        stats.get("outliers").and_then(Value::as_u64),
        Some(count(PointLabel::Outlier))
    );
    assert_eq!(
        stats.get("core").and_then(Value::as_u64),
        Some(count(PointLabel::Core))
    );
}

/// A DBSC file: the header (magic, version 1, `dims`, the point count
/// `n`) and `rows`' coordinates as little-endian `f64`s.
fn dbsc_bytes(dims: u8, n: u64, rows: &[[f64; 2]]) -> Vec<u8> {
    let mut out = b"DBSC".to_vec();
    out.extend_from_slice(&[1, dims]);
    out.extend_from_slice(&n.to_le_bytes());
    for v in rows.iter().flatten() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The `error:` line a failed `dbscout` run printed, and its exit code.
fn error_line(out: &Output) -> (String, Option<i32>) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| l.starts_with("error: "));
    (line.unwrap_or_default().to_owned(), out.status.code())
}

#[test]
fn hostile_dbsc_files_fail_the_boot_as_they_fail_detect() {
    let rows: Vec<[f64; 2]> = (0..40)
        .map(|i| [f64::from(i % 7), f64::from(i / 7)])
        .collect();
    let with_row = |at: usize, row: [f64; 2]| {
        let mut all = rows.clone();
        all.insert(at, row);
        dbsc_bytes(2, all.len() as u64, &all)
    };
    let mut short = dbsc_bytes(2, rows.len() as u64, &rows);
    short.truncate(short.len() - 4); // cut inside the last row
    let files = [
        ("short", short),
        ("nan", with_row(20, [f64::NAN, 1.0])),
        // 1e19 is beyond 2^53 cell sides at eps 1.
        ("far", with_row(10, [1e19, 0.0])),
    ];
    for (name, bytes) in files {
        let path = tmp(&format!("hostile-{name}.dbsc"));
        std::fs::write(&path, bytes).unwrap();
        let input = path.to_str().unwrap();
        let args = [
            "--input",
            input,
            "--from-binary",
            "--eps",
            "1",
            "--min-pts",
            "3",
        ];
        let detect = Command::new(env!("CARGO_BIN_EXE_dbscout"))
            .arg("detect")
            .args(args)
            .output()
            .unwrap();
        let mut child = spawn_serve(&args);
        let mut stdin = child.stdin.take().unwrap();
        // The boot fails before the session reads a line.
        let _ = writeln!(stdin, r#"{{"op":"stats"}}"#);
        drop(stdin);
        let serve = child.wait_with_output().unwrap();
        let (line, code) = error_line(&serve);
        assert_eq!(code, Some(2), "{name}: serve exit, {line}");
        assert!(!line.is_empty(), "{name}: serve printed no error line");
        assert_eq!((line, code), error_line(&detect), "{name}: serve vs detect");
        assert!(serve.stdout.is_empty(), "{name}: serve answered a request");
    }

    // A file of zero points boots an empty daemon.
    let path = tmp("hostile-empty.dbsc");
    std::fs::write(&path, dbsc_bytes(2, 0, &[])).unwrap();
    let mut child = spawn_serve(&[
        "--input",
        path.to_str().unwrap(),
        "--from-binary",
        "--eps",
        "1",
        "--min-pts",
        "3",
    ]);
    let requests = [
        r#"{"op":"stats"}"#.to_owned(),
        r#"{"op":"shutdown"}"#.to_owned(),
    ];
    let responses = drive(&mut child, &requests);
    let stats = parse(&responses[0]).unwrap();
    assert_eq!(stats.get("op").and_then(Value::as_str), Some("stats"));
    assert_eq!(stats.get("points").and_then(Value::as_u64), Some(0));
    assert_eq!(responses[1], r#"{"ok":true,"op":"shutdown"}"#);
}

#[test]
fn hostile_request_lines_are_answered_and_the_daemon_survives() {
    let data = tmp("hostile.csv");
    dbscout_ok(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "200",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    let mut child = spawn_serve(&[
        "--input",
        data.to_str().unwrap(),
        "--eps",
        "0.6",
        "--min-pts",
        "5",
    ]);
    let requests = vec![
        // Deep enough to overflow the stack of an unbounded recursive parser.
        "[".repeat(200_000),
        // Past the request-line byte cap.
        format!(r#"{{"op":"probe","point":[{}]}}"#, "0.0,".repeat(1 << 20)),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    // `drive` requires a zero exit status.
    let responses = drive(&mut child, &requests);
    assert_eq!(responses.len(), 4, "{responses:?}");
    for (r, what) in responses[..2].iter().zip(["nesting", "longer than"]) {
        let doc = parse(r).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)), "{r}");
        let error = doc.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(what), "{error}");
    }
    let stats = parse(&responses[2]).unwrap();
    assert_eq!(stats.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(stats.get("points").and_then(Value::as_u64), Some(200));
    assert_eq!(responses[3], r#"{"ok":true,"op":"shutdown"}"#);
}

#[test]
fn serve_report_carries_the_v6_serve_section() {
    let data = tmp("report.csv");
    dbscout_ok(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "300",
        "--seed",
        "5",
        "--output",
        data.to_str().unwrap(),
    ]);
    let report = tmp("serve-report.json");
    let mut child = spawn_serve(&[
        "--input",
        data.to_str().unwrap(),
        "--eps",
        "0.6",
        "--min-pts",
        "5",
        "--report-json",
        report.to_str().unwrap(),
    ]);
    let requests: Vec<String> = vec![
        r#"{"op":"probe","point":[0.0,0.0]}"#.to_string(),
        r#"{"op":"insert","point":[90.0,90.0]}"#.to_string(),
        r#"{"op":"remove","id":300}"#.to_string(),
        r#"{"op":"outliers"}"#.to_string(),
        "garbage".to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
    ];
    let responses = drive(&mut child, &requests);
    assert_eq!(responses.len(), 7);

    let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64(),
        Some(dbscout_telemetry::REPORT_SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("params").unwrap().get("engine").unwrap().as_str(),
        Some("incremental")
    );
    let serve = doc.get("serve").expect("serve section present");
    assert_eq!(serve.get("queries").unwrap().as_u64(), Some(7));
    assert_eq!(serve.get("probes").unwrap().as_u64(), Some(1));
    assert_eq!(serve.get("inserts").unwrap().as_u64(), Some(1));
    assert_eq!(serve.get("removes").unwrap().as_u64(), Some(1));
    assert_eq!(serve.get("outlier_queries").unwrap().as_u64(), Some(1));
    assert_eq!(serve.get("stats_queries").unwrap().as_u64(), Some(1));
    assert_eq!(serve.get("errors").unwrap().as_u64(), Some(1));
    assert!(serve.get("rebuilds").unwrap().as_u64().is_some());
    assert!(serve.get("compactions").unwrap().as_u64().is_some());
    // The dataset's points echo the *surviving* count (300 + 1 - 1).
    assert_eq!(
        doc.get("dataset").unwrap().get("points").unwrap().as_u64(),
        Some(300)
    );
    // Kernel totals reflect the accumulated per-query work.
    let totals = doc.get("totals").unwrap();
    assert!(totals.get("distance_evals").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn socket_transport_answers_across_reconnects() {
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let data = tmp("socket.csv");
    dbscout_ok(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "200",
        "--seed",
        "8",
        "--output",
        data.to_str().unwrap(),
    ]);
    let sock = tmp("serve.sock");
    let _ = std::fs::remove_file(&sock);
    let mut child = spawn_serve(&[
        "--input",
        data.to_str().unwrap(),
        "--eps",
        "0.6",
        "--min-pts",
        "5",
        "--socket",
        sock.to_str().unwrap(),
    ]);
    // Wait for the socket to appear.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let ask = |line: &str| -> String {
        let stream = UnixStream::connect(&sock).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };

    // Warm state persists across reconnects: the insert from the first
    // connection is visible to the second.
    let first = ask(r#"{"op":"insert","point":[500.0,500.0]}"#);
    assert!(first.contains(r#""id":200"#), "{first}");
    let second = ask(r#"{"op":"outliers"}"#);
    assert!(ids_of_outliers_response(&second).contains(&200), "{second}");
    let bye = ask(r#"{"op":"shutdown"}"#);
    assert_eq!(bye, r#"{"ok":true,"op":"shutdown"}"#);

    let status = child.wait().unwrap();
    assert!(status.success(), "{status:?}");
    assert!(!sock.exists(), "socket file cleaned up");
}
