//! `dbscout serve`: a warm serving daemon over the incremental engine.
//!
//! Bulk-loads a dataset once, keeps detector state warm (grid, counts,
//! labels), and then answers line-delimited JSON queries on stdin/stdout
//! or a Unix socket without ever rebuilding the grid per query.
//!
//! Protocol (one JSON object per line, one response line per request):
//!
//! ```text
//! > {"op":"probe","point":[1.0,2.0]}
//! < {"ok":true,"op":"probe","label":"outlier"}
//! > {"op":"insert","point":[1.0,2.0]}
//! < {"ok":true,"op":"insert","id":800,"label":"outlier"}
//! > {"op":"remove","id":800}
//! < {"ok":true,"op":"remove","id":800,"removed":true}
//! > {"op":"outliers"}
//! < {"ok":true,"op":"outliers","count":2,"ids":[13,77]}
//! > {"op":"stats"}
//! < {"ok":true,"op":"stats","points":800,...}
//! > {"op":"shutdown"}
//! < {"ok":true,"op":"shutdown"}
//! ```
//!
//! Malformed requests answer `{"ok":false,"error":"..."}` and keep the
//! session alive; only `shutdown` (or EOF / a hangup) ends it. That
//! includes hostile ones: a line longer than [`MAX_REQUEST_BYTES`] is
//! skipped through its newline unparsed, a line that is not UTF-8 is
//! rejected, and JSON nested deeper than
//! [`dbscout_telemetry::json::MAX_DEPTH`] fails to parse. `probe`
//! is non-mutating: it answers the label an `insert` of the same point
//! would receive, without changing detector state. All human-facing
//! output goes to stderr; stdout carries protocol frames only.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use dbscout_core::{build_run_report, DbscoutParams, IncrementalDbscout, PointLabel, RunInfo};
use dbscout_data::io::IngestMode;
use dbscout_data::{BinarySource, DEFAULT_BATCH_SIZE};
use dbscout_dataflow::MetricsSnapshot;
use dbscout_spatial::points::PointId;
use dbscout_telemetry::json::{escape, parse, Value};
use dbscout_telemetry::{Recorder, ServeReport, Span, SpanKind, TraceCollector};

use crate::cli::{CliError, Flags};
use crate::commands::{detect_err, load_dataset};

/// The longest request line a session reads, in bytes (its `\n`
/// excluded). A request is a few hundred bytes; longer lines are
/// answered with an error and discarded up to the next newline, so a
/// client cannot make the daemon buffer without bound.
pub(crate) const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Warm serving state: the incremental detector plus the session's
/// operation tally and (optional) trace collector.
pub(crate) struct ServeState {
    inc: IncrementalDbscout,
    report: ServeReport,
    collector: Option<Arc<TraceCollector>>,
}

impl ServeState {
    pub(crate) fn new(inc: IncrementalDbscout, collector: Option<Arc<TraceCollector>>) -> Self {
        Self {
            inc,
            report: ServeReport::default(),
            collector,
        }
    }

    /// The warm detector (for post-session reporting).
    pub(crate) fn detector(&self) -> &IncrementalDbscout {
        &self.inc
    }

    /// The session's operation tally so far.
    pub(crate) fn serve_report(&self) -> ServeReport {
        let mut r = self.report.clone();
        r.rebuilds = self.inc.rebuilds();
        r.compactions = self.inc.compactions();
        r
    }
}

/// Renders a label for the wire.
fn label_str(label: PointLabel) -> &'static str {
    match label {
        PointLabel::Core => "core",
        PointLabel::Covered => "covered",
        PointLabel::Outlier => "outlier",
    }
}

/// Appends a one-line error response to `out`.
fn err_line(out: &mut Vec<u8>, msg: &str) {
    // Writing to a `Vec` cannot fail.
    let _ = write!(out, "{{\"ok\":false,\"error\":\"{}\"}}", escape(msg));
}

/// The bytes of digits and commas the `outliers` answer gathers before
/// it copies them into the response in one piece.
const ID_CHUNK: usize = 4096;

/// The most bytes one id takes in the answer: `u32::MAX` has 10 digits,
/// and a comma follows.
const ID_BYTES: usize = 11;

/// "00" to "99": the two digits of each number below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `id` in decimal ASCII, the digits `id.to_string()` spells,
/// and a comma to the front of `dst`; returns how many bytes it wrote.
/// The digits go in from the back, four and then two at a time from a
/// table of digit pairs: one division by 10 per digit makes a chain of
/// dependent multiplies that costs more than the rest of the answer.
fn put_id(dst: &mut [u8; ID_BYTES], id: PointId) -> usize {
    let len = id.checked_ilog10().map_or(1, |l| l as usize + 1);
    // Writes the two digits of `two` (< 100) to end the number at `end`.
    let mut put_pair = |end: usize, two: u32| {
        let from = two as usize * 2;
        if let (Some(d), Some(s)) = (dst.get_mut(end - 2..end), DIGIT_PAIRS.get(from..from + 2)) {
            d.copy_from_slice(s);
        }
    };
    let (mut end, mut rest) = (len, id);
    while rest >= 10_000 {
        let four = rest % 10_000;
        rest /= 10_000;
        put_pair(end, four % 100);
        put_pair(end - 2, four / 100);
        end -= 4;
    }
    if rest >= 100 {
        put_pair(end, rest % 100);
        rest /= 100;
        end -= 2;
    }
    if rest >= 10 {
        put_pair(end, rest);
    } else if let Some(d) = dst.get_mut(end - 1) {
        *d = b'0' + rest as u8;
    }
    if let Some(comma) = dst.get_mut(len) {
        *comma = b',';
    }
    len + 1
}

/// Appends the `outliers` answer for `ids`, the `count` live outliers
/// ascending, taken straight off the engine's bitset. Each id and its
/// comma are spelled into a fixed chunk, and the chunk is copied into
/// `out` only when it could not take another id, so the response grows
/// once per chunk instead of once per id. The bytes are the ones
/// `write!` would give.
fn outliers_line(out: &mut Vec<u8>, count: usize, ids: impl Iterator<Item = PointId>) {
    out.reserve(64 + count * ID_BYTES);
    let _ = write!(
        out,
        "{{\"ok\":true,\"op\":\"outliers\",\"count\":{count},\"ids\":["
    );
    let mut chunk = [0u8; ID_CHUNK];
    let mut len = 0;
    ids.for_each(|id| {
        if len + ID_BYTES > ID_CHUNK {
            out.extend_from_slice(chunk.get(..len).unwrap_or_default());
            len = 0;
        }
        let window = chunk.get_mut(len..len + ID_BYTES);
        if let Some(window) = window.and_then(|w| <&mut [u8; ID_BYTES]>::try_from(w).ok()) {
            len += put_id(window, id);
        }
    });
    // Every id is followed by a comma; the list's last one is not.
    out.extend_from_slice(chunk.get(..len.saturating_sub(1)).unwrap_or_default());
    out.extend_from_slice(b"]}");
}

/// Extracts the `"point"` array from a request.
fn point_of(doc: &Value) -> Result<Vec<f64>, String> {
    let arr = doc
        .get("point")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing \"point\" array".to_string())?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        out.push(
            v.as_f64()
                .ok_or_else(|| "\"point\" must hold numbers".to_string())?,
        );
    }
    Ok(out)
}

/// Handles one request line, appending its response line (without the
/// newline) to `out`. Returns the op name (for the per-query telemetry
/// span) and whether the session should end.
fn handle(state: &mut ServeState, line: &str, out: &mut Vec<u8>) -> (&'static str, bool) {
    let doc = match parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            state.report.errors += 1;
            err_line(out, &format!("invalid JSON: {e}"));
            return ("error", false);
        }
    };
    let Some(op) = doc.get("op").and_then(Value::as_str) else {
        state.report.errors += 1;
        err_line(out, "missing \"op\" field");
        return ("error", false);
    };
    // Writing to a `Vec` cannot fail, so the `write!` results are dropped.
    match op {
        "probe" => {
            match point_of(&doc).and_then(|p| state.inc.probe(&p).map_err(|e| e.to_string())) {
                Ok(label) => {
                    state.report.probes += 1;
                    let _ = write!(
                        out,
                        "{{\"ok\":true,\"op\":\"probe\",\"label\":\"{}\"}}",
                        label_str(label)
                    );
                }
                Err(e) => {
                    state.report.errors += 1;
                    err_line(out, &e);
                }
            }
            ("probe", false)
        }
        "insert" => {
            match point_of(&doc).and_then(|p| state.inc.insert(&p).map_err(|e| e.to_string())) {
                Ok(id) => {
                    state.report.inserts += 1;
                    let _ = write!(
                        out,
                        "{{\"ok\":true,\"op\":\"insert\",\"id\":{id},\"label\":\"{}\"}}",
                        label_str(state.inc.label(id))
                    );
                }
                Err(e) => {
                    state.report.errors += 1;
                    err_line(out, &e);
                }
            }
            ("insert", false)
        }
        "remove" => {
            match doc.get("id").and_then(Value::as_u64) {
                Some(raw) => {
                    // Ids outside the u32 id space were never assigned, so
                    // they are misses, not errors — same as a re-remove.
                    let removed = u32::try_from(raw)
                        .ok()
                        .is_some_and(|id: PointId| state.inc.remove(id));
                    state.report.removes += 1;
                    let _ = write!(
                        out,
                        "{{\"ok\":true,\"op\":\"remove\",\"id\":{raw},\"removed\":{removed}}}"
                    );
                }
                None => {
                    state.report.errors += 1;
                    err_line(out, "missing \"id\" field");
                }
            }
            ("remove", false)
        }
        "outliers" => {
            state.report.outlier_queries += 1;
            outliers_line(out, state.inc.num_outliers(), state.inc.outlier_ids());
            ("outliers", false)
        }
        "stats" => {
            state.report.stats_queries += 1;
            let inc = &state.inc;
            let k = inc.kernel_counters();
            let _ = write!(
                out,
                "{{\"ok\":true,\"op\":\"stats\",\"points\":{},\"total_inserted\":{},\
                 \"outliers\":{},\"core\":{},\"rebuilds\":{},\"compactions\":{},\
                 \"cells_visited\":{},\"bbox_prunes\":{},\"early_exit_hits\":{},\
                 \"distance_evals\":{}}}",
                inc.len(),
                inc.total_inserted(),
                inc.num_outliers(),
                inc.num_core(),
                inc.rebuilds(),
                inc.compactions(),
                k.cells_visited,
                k.bbox_prunes,
                k.early_exit_hits,
                k.distance_evals,
            );
            ("stats", false)
        }
        "shutdown" => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"shutdown\"}");
            ("shutdown", true)
        }
        other => {
            state.report.errors += 1;
            err_line(out, &format!("unknown op {other:?}"));
            ("error", false)
        }
    }
}

/// Reads one request line into `buf`, without its line ending. Returns
/// `Ok(false)` at end of input. A line longer than
/// [`MAX_REQUEST_BYTES`] is consumed through its newline and leaves
/// `buf` holding only the first `MAX_REQUEST_BYTES + 1` bytes, so the
/// caller can tell it from a line that fits.
fn read_request<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    if reader.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_BYTES {
        // Over the cap: skip the rest of the line unbuffered.
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    break;
                }
                None => {
                    let n = chunk.len();
                    reader.consume(n);
                }
            }
        }
    }
    Ok(true)
}

/// Runs one serving session: reads request lines from `reader`, writes
/// one response line per request to `writer`, each with its newline in
/// one `write_all`, so a client never wakes on half a line. Returns
/// `Ok(true)` when the client asked for `shutdown`, `Ok(false)` on
/// EOF/hangup.
pub(crate) fn serve_session<R: BufRead, W: Write>(
    state: &mut ServeState,
    mut reader: R,
    writer: &mut W,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    let mut response = Vec::new();
    while read_request(&mut reader, &mut buf)? {
        let started = Instant::now();
        response.clear();
        let (op, shutdown) = if buf.len() > MAX_REQUEST_BYTES {
            state.report.errors += 1;
            let msg = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
            err_line(&mut response, &msg);
            ("error", false)
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle(state, line, &mut response),
                Err(_) => {
                    state.report.errors += 1;
                    err_line(&mut response, "request line is not UTF-8");
                    ("error", false)
                }
            }
        };
        state.report.queries += 1;
        if let Some(c) = &state.collector {
            c.record_span(
                Span::new(
                    format!("serve:{op}"),
                    SpanKind::Task,
                    started,
                    started.elapsed(),
                )
                .arg("seq", state.report.queries),
            );
        }
        response.push(b'\n');
        writer.write_all(&response)?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `dbscout serve`: bulk-load a dataset, then answer queries against the
/// warm incremental detector until `shutdown`.
pub fn serve(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let eps: f64 = flags.require("eps")?;
    let min_pts: usize = flags.require("min-pts")?;
    let from_binary = flags.has("from-binary");
    let labeled = flags.has("labeled");
    if from_binary && labeled {
        return Err(CliError::new(
            "--from-binary input carries no label column; drop --labeled",
        ));
    }
    let batch_size: usize = flags.get("batch-size", DEFAULT_BATCH_SIZE)?;
    if batch_size == 0 {
        return Err(CliError::new("--batch-size must be at least 1"));
    }
    let socket: Option<String> = flags.require::<String>("socket").ok();
    let trace_out = flags.require::<String>("trace-out").ok();
    let report_out = flags.require::<String>("report-json").ok();
    let collector =
        (trace_out.is_some() || report_out.is_some()).then(|| Arc::new(TraceCollector::new()));

    let params = DbscoutParams::new(eps, min_pts).map_err(|e| CliError::new(e.to_string()))?;
    // A DBSC file streams into the bulk load, as into `detect
    // --from-binary`; a CSV is parsed once, into a store the engine
    // copies.
    let t = Instant::now();
    let inc = if from_binary {
        let mut src =
            BinarySource::open(&input, batch_size).map_err(|e| CliError::data(e.to_string()))?;
        IncrementalDbscout::from_source(&mut src, params)
    } else {
        let store = load_dataset(&input, labeled, IngestMode::Strict)?.store;
        IncrementalDbscout::from_store(&store, params)
    }
    .map_err(detect_err)?;
    let dims = inc.store().dims() as u64;
    eprintln!(
        "dbscout serve: {} points warm in {:?}, {} outliers",
        inc.len(),
        t.elapsed(),
        inc.num_outliers(),
    );
    let mut state = ServeState::new(inc, collector.clone());

    let session_start = Instant::now();
    if let Some(path) = &socket {
        serve_on_socket(&mut state, path)?;
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        serve_session(&mut state, stdin.lock(), &mut out)
            .map_err(|e| CliError::engine(format!("serve session failed: {e}")))?;
    }
    let elapsed = session_start.elapsed();

    let serve_report = state.serve_report();
    eprintln!(
        "dbscout serve: session over — {} queries ({} probes, {} inserts, {} removes, \
         {} outlier queries, {} stats queries, {} errors), {} rebuilds, {} compactions",
        serve_report.queries,
        serve_report.probes,
        serve_report.inserts,
        serve_report.removes,
        serve_report.outlier_queries,
        serve_report.stats_queries,
        serve_report.errors,
        serve_report.rebuilds,
        serve_report.compactions,
    );

    let inc = state.detector();
    if let (Some(path), Some(c)) = (&trace_out, &collector) {
        let end = Instant::now();
        for (name, value) in inc.kernel_counters().named() {
            c.record_counter_point(name, end, value);
        }
        std::fs::write(path, c.to_chrome_trace()).map_err(|e| CliError::data(e.to_string()))?;
        eprintln!("wrote chrome trace to {path}");
    }
    if let Some(path) = &report_out {
        let result = inc.snapshot();
        let info = RunInfo {
            source: input.clone(),
            points: inc.len() as u64,
            dimensions: dims,
            engine: "incremental".to_owned(),
            partitions: 0,
            workers: 0,
            // The warm engine answers each query on one thread.
            threads: 1,
            chaos_seed: None,
            peak_rss_bytes: dbscout_telemetry::peak_rss_bytes(),
        };
        let mut report = build_run_report(
            &info,
            params,
            &result,
            &MetricsSnapshot::default(),
            &[],
            elapsed,
        );
        // The snapshot's per-run kernel counters are zero by design (the
        // work happened across individual queries); the totals echo the
        // accumulated per-operation counters instead.
        let k = inc.kernel_counters();
        report.totals.cells_visited = k.cells_visited;
        report.totals.bbox_prunes = k.bbox_prunes;
        report.totals.early_exit_hits = k.early_exit_hits;
        report.totals.distance_evals = k.distance_evals;
        report.serve = Some(serve_report);
        std::fs::write(path, report.to_json()).map_err(|e| CliError::data(e.to_string()))?;
        eprintln!("wrote run report to {path}");
    }
    // Stdout is the protocol channel, so the report string stays empty
    // (summaries went to stderr above).
    Ok(String::new())
}

/// Socket mode: accept connections one at a time and serve each as a
/// session; `shutdown` from any client stops the daemon.
fn serve_on_socket(state: &mut ServeState, path: &str) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| CliError::data(format!("bind {path}: {e}")))?;
    eprintln!("dbscout serve: listening on {path}");
    let mut shutdown = false;
    while !shutdown {
        let (stream, _) = listener
            .accept()
            .map_err(|e| CliError::engine(format!("accept on {path}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| CliError::engine(format!("socket clone: {e}")))?,
        );
        let mut writer = stream;
        // A client hanging up mid-session is normal; only report errors
        // that are not disconnects.
        match serve_session(state, reader, &mut writer) {
            Ok(s) => shutdown = s,
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
            Err(e) => return Err(CliError::engine(format!("serve session failed: {e}"))),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscout_core::reference::naive_labels;
    use std::io::Cursor;

    fn warm_state() -> ServeState {
        // A dense 3×3 grid plus one far-away outlier, ids 0..=9.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                rows.push(vec![0.1 * f64::from(i), 0.1 * f64::from(j)]);
            }
        }
        rows.push(vec![100.0, 100.0]);
        let store = dbscout_spatial::PointStore::from_rows(2, rows).unwrap();
        let params = DbscoutParams::new(1.0, 4).unwrap();
        let inc = IncrementalDbscout::from_store(&store, params).unwrap();
        ServeState::new(inc, None)
    }

    fn run_bytes(state: &mut ServeState, input: Vec<u8>) -> (Vec<String>, bool) {
        let mut out = Vec::new();
        let shutdown = serve_session(state, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_owned).collect(), shutdown)
    }

    fn run_lines(state: &mut ServeState, lines: &[&str]) -> (Vec<String>, bool) {
        run_bytes(state, lines.join("\n").into_bytes())
    }

    #[test]
    fn protocol_round_trip_probe_insert_remove_outliers() {
        let mut state = warm_state();
        let (responses, shutdown) = run_lines(
            &mut state,
            &[
                r#"{"op":"outliers"}"#,
                r#"{"op":"probe","point":[0.1,0.1]}"#,
                r#"{"op":"probe","point":[50.0,50.0]}"#,
                r#"{"op":"insert","point":[50.0,50.0]}"#,
                r#"{"op":"outliers"}"#,
                r#"{"op":"remove","id":10}"#,
                r#"{"op":"remove","id":10}"#,
                r#"{"op":"outliers"}"#,
                r#"{"op":"stats"}"#,
                r#"{"op":"shutdown"}"#,
            ],
        );
        assert!(shutdown);
        assert_eq!(responses.len(), 10, "{responses:?}");
        assert_eq!(
            responses[0],
            r#"{"ok":true,"op":"outliers","count":1,"ids":[9]}"#
        );
        // Probing inside the dense grid answers core; far away, outlier.
        assert_eq!(responses[1], r#"{"ok":true,"op":"probe","label":"core"}"#);
        assert_eq!(
            responses[2],
            r#"{"ok":true,"op":"probe","label":"outlier"}"#
        );
        // The probe did not mutate: the insert gets the next id (10).
        assert_eq!(
            responses[3],
            r#"{"ok":true,"op":"insert","id":10,"label":"outlier"}"#
        );
        assert_eq!(
            responses[4],
            r#"{"ok":true,"op":"outliers","count":2,"ids":[9,10]}"#
        );
        assert_eq!(
            responses[5],
            r#"{"ok":true,"op":"remove","id":10,"removed":true}"#
        );
        // Re-removing is a miss, answered — not an error.
        assert_eq!(
            responses[6],
            r#"{"ok":true,"op":"remove","id":10,"removed":false}"#
        );
        assert_eq!(
            responses[7],
            r#"{"ok":true,"op":"outliers","count":1,"ids":[9]}"#
        );
        assert!(responses[8].contains("\"points\":10"), "{}", responses[8]);
        assert!(
            responses[8].contains("\"total_inserted\":11"),
            "{}",
            responses[8]
        );
        assert_eq!(responses[9], r#"{"ok":true,"op":"shutdown"}"#);

        let r = state.serve_report();
        assert_eq!(r.queries, 10);
        assert_eq!(r.probes, 2);
        assert_eq!(r.inserts, 1);
        assert_eq!(r.removes, 2);
        assert_eq!(r.outlier_queries, 3);
        assert_eq!(r.stats_queries, 1);
        assert_eq!(r.errors, 0);
    }

    /// The answer built the plain way, the reference the streamed one
    /// must match: a `String` per id, joined with commas.
    fn outliers_line_by_vec(ids: &[PointId]) -> Vec<u8> {
        let list: Vec<String> = ids.iter().map(ToString::to_string).collect();
        format!(
            r#"{{"ok":true,"op":"outliers","count":{},"ids":[{}]}}"#,
            ids.len(),
            list.join(",")
        )
        .into_bytes()
    }

    fn streamed(ids: &[PointId]) -> Vec<u8> {
        let mut out = b"prefix ".to_vec();
        outliers_line(&mut out, ids.len(), ids.iter().copied());
        out.split_off(b"prefix ".len())
    }

    #[test]
    fn put_id_spells_what_to_string_spells() {
        let powers = (0..10).map(|k| 10u32.pow(k));
        let edges = powers
            .flat_map(|p| [p - 1, p, p + 1, p.saturating_mul(2) - 1])
            .chain([65_535, 99_999, 123_456_789, u32::MAX - 1, u32::MAX])
            .chain(0..120_000);
        for id in edges {
            let mut window = [b'x'; ID_BYTES];
            let len = put_id(&mut window, id);
            assert_eq!(&window[..len], format!("{id},").as_bytes(), "{id}");
            assert!(
                window[len..].iter().all(|&b| b == b'x'),
                "{id} wrote past its comma"
            );
        }
    }

    #[test]
    fn the_streamed_answer_is_the_vec_formatter_s_bytes() {
        let edges: [PointId; 10] = [
            0,
            9,
            10,
            99,
            100,
            99_999,
            100_000,
            999_999_999,
            1_000_000_000,
            u32::MAX,
        ];
        assert_eq!(streamed(&[]), outliers_line_by_vec(&[]));
        assert_eq!(
            streamed(&[]),
            br#"{"ok":true,"op":"outliers","count":0,"ids":[]}"#
        );
        for id in edges {
            assert_eq!(streamed(&[id]), outliers_line_by_vec(&[id]), "{id}");
        }
        assert_eq!(streamed(&edges), outliers_line_by_vec(&edges));
        // Long enough to flush the chunk many times, with ids of every
        // width, so some chunk ends right before a 10-digit id.
        let long: Vec<PointId> = (0..40_000u32)
            .map(|i| i * 3)
            .chain((0..3_000u32).map(|i| 999_990_000 + i * 7))
            .chain((0..3_000u32).map(|i| u32::MAX - 3_000 + i))
            .collect();
        assert!(long.len() * 6 > 20 * ID_CHUNK, "flushes several chunks");
        assert_eq!(streamed(&long), outliers_line_by_vec(&long));
        // Ids 0..n fill the first chunk to every level up to its first
        // flush (near n = 1,040), each followed by a 10-digit id.
        for n in 0..1_100 {
            let mut ids: Vec<PointId> = (0..n as u32).collect();
            ids.push(u32::MAX);
            assert_eq!(streamed(&ids), outliers_line_by_vec(&ids), "{n} ids");
        }
    }

    #[test]
    fn an_empty_outlier_set_answers_an_empty_list() {
        let mut state = warm_state();
        let (responses, _) = run_lines(
            &mut state,
            &[r#"{"op":"remove","id":9}"#, r#"{"op":"outliers"}"#],
        );
        assert_eq!(
            responses[1],
            r#"{"ok":true,"op":"outliers","count":0,"ids":[]}"#
        );
    }

    #[test]
    fn malformed_requests_answer_errors_and_keep_the_session_alive() {
        let mut state = warm_state();
        let (responses, shutdown) = run_lines(
            &mut state,
            &[
                "not json at all",
                r#"{"point":[1.0,2.0]}"#,
                r#"{"op":"frobnicate"}"#,
                r#"{"op":"probe"}"#,
                r#"{"op":"probe","point":[1.0]}"#,
                r#"{"op":"probe","point":["a","b"]}"#,
                r#"{"op":"insert","point":[1.0,2.0,3.0]}"#,
                r#"{"op":"remove"}"#,
                "",
                r#"{"op":"stats"}"#,
            ],
        );
        // EOF without shutdown: the daemon reports a hangup, not a close.
        assert!(!shutdown);
        // The blank line is skipped entirely (no response, not counted).
        assert_eq!(responses.len(), 9, "{responses:?}");
        for r in &responses[..8] {
            assert!(r.starts_with(r#"{"ok":false,"error":""#), "{r}");
        }
        assert!(responses[8].starts_with(r#"{"ok":true,"op":"stats""#));
        let r = state.serve_report();
        assert_eq!(r.queries, 9);
        assert_eq!(r.errors, 8);
        assert_eq!(r.stats_queries, 1);
        // The dimension-mismatched insert really was rejected.
        assert_eq!(state.detector().total_inserted(), 10);
    }

    #[test]
    fn hostile_lines_answer_errors_and_keep_the_session_alive() {
        let mut state = warm_state();
        // Nesting far past the parser's depth limit, within the line cap.
        let mut input = "[".repeat(200_000).into_bytes();
        input.push(b'\n');
        // One byte over the line cap (blank, so only the cap answers it).
        input.extend_from_slice(" ".repeat(MAX_REQUEST_BYTES + 1).as_bytes());
        input.push(b'\n');
        // Not UTF-8.
        input.extend(b"{\"op\":\"\xff\"}\n");
        // A line of exactly the cap is still read (and is blank).
        input.extend_from_slice(" ".repeat(MAX_REQUEST_BYTES).as_bytes());
        input.push(b'\n');
        input.extend(b"{\"op\":\"stats\"}\r\n{\"op\":\"shutdown\"}");
        let (responses, shutdown) = run_bytes(&mut state, input);
        assert!(shutdown);
        assert_eq!(responses.len(), 5, "{responses:?}");
        assert!(responses[0].contains("nesting"), "{}", responses[0]);
        assert!(responses[1].contains("longer than"), "{}", responses[1]);
        assert!(responses[2].contains("not UTF-8"), "{}", responses[2]);
        for r in &responses[..3] {
            assert!(r.starts_with(r#"{"ok":false,"error":""#), "{r}");
        }
        assert!(responses[3].starts_with(r#"{"ok":true,"op":"stats","points":10,"#));
        assert_eq!(responses[4], r#"{"ok":true,"op":"shutdown"}"#);
        let r = state.serve_report();
        assert_eq!(r.errors, 3);
        assert_eq!(r.queries, 5);
    }

    #[test]
    fn read_request_buffers_at_most_the_cap_and_skips_the_rest() {
        let mut input = "x".repeat(3 * MAX_REQUEST_BYTES).into_bytes();
        input.extend(b"\n{\"op\":\"stats\"}");
        let mut reader = Cursor::new(input);
        let mut buf = Vec::new();
        assert!(read_request(&mut reader, &mut buf).unwrap());
        assert_eq!(buf.len(), MAX_REQUEST_BYTES + 1);
        assert!(read_request(&mut reader, &mut buf).unwrap());
        assert_eq!(buf, br#"{"op":"stats"}"#);
        assert!(!read_request(&mut reader, &mut buf).unwrap());
    }

    #[test]
    fn session_mutations_match_the_oracle_on_the_survivors() {
        let mut state = warm_state();
        let mut lines = Vec::new();
        for i in 0..20u32 {
            let x = 0.05 * f64::from(i % 7);
            let y = 40.0 + 0.05 * f64::from(i % 5);
            lines.push(format!(r#"{{"op":"insert","point":[{x},{y}]}}"#));
            if i % 3 == 0 {
                lines.push(format!(r#"{{"op":"remove","id":{i}}}"#));
            }
        }
        lines.push(r#"{"op":"outliers"}"#.to_string());
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (responses, _) = run_lines(&mut state, &refs);

        let inc = state.detector();
        let live: Vec<PointId> = (0..inc.total_inserted() as PointId)
            .filter(|&id| inc.is_alive(id))
            .collect();
        let expected = naive_labels(&inc.store().gather(&live), inc.params());
        let live_labels: Vec<PointLabel> = live.iter().map(|&id| inc.label(id)).collect();
        assert_eq!(live_labels, expected);
        let want_ids: Vec<String> = live
            .iter()
            .zip(&expected)
            .filter(|(_, l)| l.is_outlier())
            .map(|(id, _)| id.to_string())
            .collect();
        let want = format!(
            r#"{{"ok":true,"op":"outliers","count":{},"ids":[{}]}}"#,
            want_ids.len(),
            want_ids.join(",")
        );
        assert_eq!(responses.last().unwrap(), &want);
    }
}
