//! The traced pass: per-layer metrics, timed from outside around calls
//! into each crate's public functions, plus what the binary already
//! emits (`detect --report-json/--trace-out`, `serve --trace-out`).
//!
//! Every layer call is recorded as a span in the benchmark's own
//! [`TraceCollector`], tagged with the op's sequence number. The trace
//! and every report read are validated with the checkers behind `cargo
//! xtask check-trace` / `check-report`.

use std::path::Path;
use std::time::{Duration, Instant};

use dbscout_core::{
    DetectorBuilder, ExecutionConfig, ExecutionLayout, IncrementalDbscout, KernelKind,
    OutlierResult, PHASE_NAMES,
};
use dbscout_data::io::{read_csv_with, write_csv, IngestMode};
use dbscout_data::{BinarySource, PointSource, DEFAULT_BATCH_SIZE};
use dbscout_spatial::CellMajorStore;
use dbscout_telemetry::json::{parse, Value};
use dbscout_telemetry::{Recorder, Span, SpanKind, TraceCollector, KERNEL_COUNTER_NAMES};

use crate::detect::{cached_oracle, DetectSpec, Expected, GEOLIFE, OSM};
use crate::proc::{run_timed, SharedCpu};
use crate::serve::{self, Kind, Op, OpGen, Session, KINDS, ROUND};
use crate::util::{ctx, median, ms, percentile, us, whole_unit_median, Metrics, Res, Tally};

/// Requests in each traced serve session and in-process replay: 40
/// rounds of the serve mix, so 1000 inserts and 1000 removes (ten
/// samples beyond a p99) and 1960 probes. Per-request layer calls are
/// spanned per round: `check-trace` parses with a reader whose cost
/// grows with the square of the document's string bytes, so the trace
/// keeps to a few hundred spans.
const TRACED_REQUESTS: usize = 40 * ROUND;

/// Repeats of each in-process data-layer call; the metric is the median.
const LAYER_REPS: usize = 3;

/// Rounds of interleaved untraced and traced `dbscout detect` ops.
const DETECT_ROUNDS: usize = 3;

/// The benchmark's own trace: one span per layer call.
struct Tracer {
    collector: TraceCollector,
    seq: u64,
}

impl Tracer {
    /// Times `f` as one call into `layer`.
    fn call<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.span(layer, started, elapsed, 1);
        (out, elapsed)
    }

    /// Records `calls` consecutive calls into `layer` as one span,
    /// tagged with the sequence number of its first call.
    fn span(&mut self, layer: &str, started: Instant, elapsed: Duration, calls: usize) {
        self.collector.record_span(
            Span::new(layer, SpanKind::Task, started, elapsed)
                .arg("seq", self.seq + 1)
                .arg("calls", calls),
        );
        self.seq += calls as u64;
    }
}

/// Runs `check` (one of the `cargo xtask check-*` validators) on a file.
fn validate(tally: &mut Tally, what: &str, path: &Path, check: fn(&str) -> Vec<String>) {
    let outcome = std::fs::read_to_string(path)
        .map_err(ctx("read"))
        .and_then(|text| {
            let errors = check(&text);
            if errors.is_empty() {
                Ok(())
            } else {
                Err(errors.join("; "))
            }
        });
    tally.check(what, outcome);
}

/// The detect input each workload's detect-layer metrics are taken on:
/// its own input, and for `serve-mixed` the daemon's bulk-load dataset.
pub fn detect_spec(workload: &str) -> Res<DetectSpec> {
    match workload {
        "detect-geolife" => Ok(GEOLIFE),
        "detect-osm-csv" => Ok(OSM),
        "serve-mixed" => Ok(serve::SPEC),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Phase times and kernel totals from a `--report-json` document.
struct Report {
    phases_us: Vec<f64>,
    totals: Value,
}

impl Report {
    fn read(path: &Path) -> Res<Self> {
        let text = std::fs::read_to_string(path).map_err(ctx("read report"))?;
        let doc = parse(&text).map_err(ctx("parse report"))?;
        let phases_us = doc
            .get("phases")
            .and_then(Value::as_array)
            .ok_or("report has no phases")?
            .iter()
            .map(|p| p.get("wall_clock_us").and_then(Value::as_f64))
            .collect::<Option<Vec<f64>>>()
            .ok_or("bad phase entry")?;
        if phases_us.len() != 5 {
            return Err(format!("{} phases, expected 5", phases_us.len()));
        }
        let totals = doc.get("totals").cloned().ok_or("report has no totals")?;
        Ok(Self { phases_us, totals })
    }

    fn phase_ms(&self, i: usize) -> f64 {
        self.phases_us[i] / 1e3
    }

    /// The four kernel counters, in `KERNEL_COUNTER_NAMES` order.
    fn kernel_counts(&self) -> Res<[f64; 4]> {
        let mut counts = [0.0; 4];
        for (c, name) in counts.iter_mut().zip(KERNEL_COUNTER_NAMES) {
            *c = self
                .totals
                .get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("report totals lack {name}"))?;
        }
        Ok(counts)
    }
}

/// One traced `dbscout detect` op, split with what the binary emitted.
struct TracedOp {
    /// Spawn to exit.
    op_ms: f64,
    /// Start of the first phase span. The CLI starts its trace before
    /// it opens the input, so on the materialized (CSV) path this is
    /// the ingest time; on the streamed path ingest is inside phase 1.
    ingest_ms: f64,
    report: Report,
}

impl TracedOp {
    /// Validates and reads the op's `--report-json` and `--trace-out`.
    fn read(op_ms: f64, report: &Path, trace: &Path, tally: &mut Tally) -> Res<Self> {
        validate(
            tally,
            "detect report (check-report)",
            report,
            xtask::report_check::check_report,
        );
        validate(
            tally,
            "detect trace (check-trace)",
            trace,
            xtask::trace_check::check_trace,
        );
        let text = std::fs::read_to_string(trace).map_err(ctx("read detect trace"))?;
        let events = parse(&text).map_err(ctx("parse detect trace"))?;
        let ingest_us = events
            .as_array()
            .ok_or("trace is not an array")?
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(PHASE_NAMES[0]))
            .and_then(|e| e.get("ts"))
            .and_then(Value::as_f64)
            .ok_or("trace has no first phase span")?;
        Ok(Self {
            op_ms,
            ingest_ms: ingest_us / 1e3,
            report: Report::read(report)?,
        })
    }

    /// The five phases: `PhaseTimings::total` as the report gives it.
    fn engine_ms(&self) -> f64 {
        (0..5).map(|i| self.report.phase_ms(i)).sum()
    }

    /// Everything outside ingest and the engine: start-up, the labels
    /// write if any, the summary and report output, and exit.
    fn rest_ms(&self) -> f64 {
        self.op_ms - self.ingest_ms - self.engine_ms()
    }
}

/// Phases 3 + 5 (the counted kernels) of an in-process run, in seconds.
fn kernel_secs(r: &OutlierResult) -> f64 {
    (r.timings.core_points + r.timings.outliers).as_secs_f64()
}

/// `dbscout-data`: a binary pass over the Geolife input, a strict CSV
/// read of the OSM input and a write of its labels.
fn data_layer(t: &mut Tracer, work: &Path, seed: u64, m: &mut Metrics) -> Res<()> {
    let geo = GEOLIFE.input(work, seed);
    let mut pass = Vec::new();
    for _ in 0..LAYER_REPS {
        let (points, d) = t.call("data.bin_pass", || -> Res<usize> {
            let mut src = BinarySource::open(&geo, DEFAULT_BATCH_SIZE).map_err(ctx("open"))?;
            let mut points = 0;
            while let Some(batch) = src.next_batch().map_err(ctx("batch"))? {
                points += batch.len();
            }
            Ok(points)
        });
        if points? != GEOLIFE.n {
            return Err("binary pass lost points".to_string());
        }
        pass.push(ms(d));
    }
    m.push("data.bin_pass_ms", median(&pass), "ms", pass.len());

    let osm = OSM.input(work, seed);
    let mut read = Vec::new();
    let mut store = None;
    for _ in 0..LAYER_REPS {
        drop(store.take());
        let (ingest, d) = t.call("data.csv_read", || {
            read_csv_with(&osm, false, IngestMode::Strict)
        });
        store = Some(ingest.map_err(ctx("read csv"))?.store);
        read.push(ms(d));
    }
    m.push("data.csv_read_ms", median(&read), "ms", read.len());

    let store = store.ok_or("no store")?;
    let mask = DetectorBuilder::new(OSM.params()?)
        .build_native()
        .detect(&store)
        .map_err(ctx("osm detect"))?
        .outlier_mask();
    let out = work.join("layer-labels.csv");
    let mut write = Vec::new();
    for _ in 0..LAYER_REPS {
        let (r, d) = t.call("data.csv_write", || write_csv(&out, &store, Some(&mask)));
        r.map_err(ctx("write csv"))?;
        write.push(ms(d));
    }
    m.push("data.csv_write_ms", median(&write), "ms", write.len());
    Ok(())
}

/// `dbscout-spatial`, `dbscout-core` native phases, `dbscout-dataflow`
/// and the CLI's detect overhead, on the workload's detect input.
/// Returns the untraced and traced op times in ms.
fn detect_layers(
    t: &mut Tracer,
    spec: DetectSpec,
    bin: &Path,
    work: &Path,
    seed: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let input = spec.input(work, seed);
    let expected = Expected::new(spec, &input, cached_oracle(&spec, &input, work)?)?;
    let report = work.join(format!("detect-report-{}.json", spec.dataset));
    let trace = work.join(format!("detect-trace-{}.json", spec.dataset));
    let traced_flags = [
        "--report-json",
        report.to_str().ok_or("path")?,
        "--trace-out",
        trace.to_str().ok_or("path")?,
    ];

    // Untraced and traced ops interleaved, so drift hits both alike. An
    // op that writes labels also gets a traced op without `--output`
    // each round: its time outside ingest and the engine is the CLI's
    // own share, with no write left in it.
    let (mut plain, mut traced, mut unwritten) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..DETECT_ROUNDS {
        let (exit, _) = t.call("cli.detect", || {
            run_timed(&mut spec.detect_cmd(bin, &input, work, &[]))
        });
        let exit = exit?;
        tally.check(&format!("detect op {round}"), expected.check(&exit, work));
        plain.push(ms(exit.elapsed));

        let (exit, _) = t.call("cli.detect(traced)", || {
            run_timed(&mut spec.detect_cmd(bin, &input, work, &traced_flags))
        });
        let exit = exit?;
        tally.check(
            &format!("traced detect op {round}"),
            expected.check(&exit, work),
        );
        traced.push(TracedOp::read(ms(exit.elapsed), &report, &trace, tally)?);

        if spec.writes_labels {
            let (exit, _) = t.call("cli.detect(traced, no output)", || {
                run_timed(&mut spec.unwritten_cmd(bin, &input, &traced_flags))
            });
            let exit = exit?;
            tally.check(
                &format!("traced detect op {round} without output"),
                expected.check_counts(&exit),
            );
            unwritten.push(TracedOp::read(ms(exit.elapsed), &report, &trace, tally)?);
        }
    }

    // The engine does the same work with or without the write.
    let ops: Vec<&TracedOp> = traced.iter().chain(&unwritten).collect();
    let median_of =
        |f: &dyn Fn(&TracedOp) -> f64| median(&ops.iter().map(|&o| f(o)).collect::<Vec<_>>());
    let phase_ms = |i: usize| median_of(&|o| o.report.phase_ms(i));
    let engine_ms = median_of(&TracedOp::engine_ms);
    let kernel_ms = phase_ms(2) + phase_ms(4);
    let counts = ops.first().ok_or("no traced op")?.report.kernel_counts()?;
    for (i, o) in ops.iter().enumerate().skip(1) {
        let again = o.report.kernel_counts()?;
        tally.check(
            &format!("kernel counts repeat (traced op {i})"),
            if again == counts {
                Ok(())
            } else {
                Err(format!("{again:?} != {counts:?}"))
            },
        );
    }
    let traced_ms: Vec<f64> = traced.iter().map(|o| o.op_ms).collect();
    let rest: Vec<f64> = if spec.writes_labels {
        &unwritten
    } else {
        &traced
    }
    .iter()
    .map(TracedOp::rest_ms)
    .collect();
    let n = ops.len();
    m.push("spatial.grid_ms", phase_ms(0), "ms", n);
    for (name, value) in KERNEL_COUNTER_NAMES.iter().zip(counts) {
        m.push(&format!("spatial.{name}"), value, "count", n);
        t.collector
            .record_counter_point(name, Instant::now(), value as u64);
    }
    let [visited, prunes, _, evals] = counts;
    m.push(
        "spatial.distance_evals_per_s",
        evals / (kernel_ms / 1e3),
        "1/s",
        n,
    );
    m.push(
        "spatial.distance_evals_per_point",
        evals / spec.n as f64,
        "count",
        1,
    );
    m.push("spatial.bbox_prunes_per_cell", prunes / visited, "count", 1);
    m.push("core.core_points_ms", phase_ms(2), "ms", n);
    m.push("core.outliers_ms", phase_ms(4), "ms", n);
    m.push("core.engine_ms", engine_ms, "ms", n);
    m.push(
        "core.engine_share",
        engine_ms / median(&traced_ms),
        "1",
        traced_ms.len(),
    );
    m.push("cli.detect_other_ms", median(&rest), "ms", rest.len());

    let store = spec.load(&input)?;
    let (cm, _) = t.call("spatial.cell_major_build", || {
        CellMajorStore::build(&store, spec.eps)
    });
    let cm = cm.map_err(ctx("cell-major build"))?;
    let top = cm.cells().iter().map(|c| c.len()).max().unwrap_or(0);
    m.push("spatial.cells", cm.num_cells() as f64, "count", 1);
    m.push("spatial.top_cell_share", top as f64 / spec.n as f64, "1", 1);
    Ok((plain, traced_ms))
}

fn same_ids(got: &[u32], want: &[u32]) -> Res<()> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{} ids vs {} expected", got.len(), want.len()))
    }
}

/// `dbscout-dataflow`: phases 3 + 5 at one thread against the default
/// thread count, both set through `ExecutionConfig`, on the streamed
/// Geolife input (the kernels of the other inputs are too short to
/// time). The ids must not depend on the thread count, and on
/// `detect-geolife` they must be the oracle's.
fn dataflow_layer(
    t: &mut Tracer,
    work: &Path,
    seed: u64,
    oracle: Option<&[u32]>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Res<()> {
    let input = GEOLIFE.input(work, seed);
    let params = GEOLIFE.params()?;
    let mut native = |threads: usize| -> Res<OutlierResult> {
        let builder =
            DetectorBuilder::new(params).execution(ExecutionConfig::new().with_threads(threads));
        t.call(&format!("core.native_detect(threads={threads})"), || {
            let mut src = BinarySource::open(&input, DEFAULT_BATCH_SIZE).map_err(ctx("open"))?;
            builder.detect_source(&mut src).map_err(ctx("detect"))
        })
        .0
    };
    let default_run = native(0)?;
    let single = native(1)?;
    tally.check(
        "outlier ids at 1 thread vs default threads",
        same_ids(&single.outliers, &default_run.outliers),
    );
    if let Some(want) = oracle {
        tally.check(
            "outlier ids vs oracle",
            same_ids(&default_run.outliers, want),
        );
    }
    m.push(
        "dataflow.threads",
        ExecutionConfig::new().resolved_threads() as f64,
        "count",
        1,
    );
    m.push(
        "dataflow.speedup",
        kernel_secs(&single) / kernel_secs(&default_run),
        "1",
        1,
    );
    Ok(())
}

/// `dbscout-core::incremental` over `dbscout-spatial::mutable`: bulk
/// load, then the serve workload's op sequence replayed in process.
/// Returns the oracle's outlier ids on the sequence's survivors.
fn incremental_layer(
    t: &mut Tracer,
    seed: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Res<Vec<u32>> {
    let initial = serve::initial_store(seed);
    let params = serve::SPEC.params()?;
    let (inc, d) = t.call("incremental.bulk_load", || {
        IncrementalDbscout::from_store_with(
            &initial,
            params,
            ExecutionLayout::CellMajor,
            KernelKind::Auto,
        )
    });
    let mut inc = inc.map_err(ctx("bulk load"))?;
    m.push("incremental.bulk_load_ms", ms(d), "ms", 1);

    let before = inc.kernel_counters().distance_evals;
    let mut gen = OpGen::new(seed, &initial);
    let mut lat: [Vec<f64>; 4] = Default::default();
    let mut round_start = Instant::now();
    for i in 0..TRACED_REQUESTS {
        let op = gen.next_op();
        let started = Instant::now();
        let outcome = match op {
            Op::Probe(p) => inc.probe(&p).map(drop).map_err(|e| e.to_string()),
            Op::Insert(p, want) => match inc.insert(&p) {
                Ok(id) if id == want => Ok(()),
                Ok(id) => Err(format!("insert id {id}, expected {want}")),
                Err(e) => Err(e.to_string()),
            },
            Op::Remove(id) if inc.remove(id) => Ok(()),
            Op::Remove(id) => Err(format!("remove of live id {id} missed")),
            Op::Outliers => {
                std::hint::black_box(inc.outliers());
                Ok(())
            }
        };
        lat[op.kind().index()].push(us(started.elapsed()));
        tally.check(&format!("in-process op {i}"), outcome);
        if (i + 1) % ROUND == 0 {
            t.span("incremental.ops", round_start, round_start.elapsed(), ROUND);
            round_start = Instant::now();
        }
    }
    let [probe, insert, remove, outliers] = &lat;
    m.push("incremental.probe_us_p50", median(probe), "us", probe.len());
    m.push(
        "incremental.insert_us_p50",
        median(insert),
        "us",
        insert.len(),
    );
    m.push(
        "incremental.insert_us_p99",
        percentile(insert, 0.99),
        "us",
        insert.len(),
    );
    m.push(
        "incremental.remove_us_p50",
        median(remove),
        "us",
        remove.len(),
    );
    m.push(
        "incremental.remove_us_p99",
        percentile(remove, 0.99),
        "us",
        remove.len(),
    );
    m.push(
        "incremental.outliers_us_p50",
        median(outliers),
        "us",
        outliers.len(),
    );
    m.push("incremental.rebuilds", inc.rebuilds() as f64, "count", 1);
    m.push(
        "incremental.compactions",
        inc.compactions() as f64,
        "count",
        1,
    );
    let evals = inc.kernel_counters().distance_evals - before;
    m.push(
        "incremental.distance_evals_per_op",
        evals as f64 / TRACED_REQUESTS as f64,
        "count",
        TRACED_REQUESTS,
    );
    let got = inc.outliers();
    let want = serve::expected_outliers(&gen)?;
    tally.check(
        "in-process final outliers vs oracle",
        if got == want {
            Ok(())
        } else {
            Err(format!("{} ids vs {}", got.len(), want.len()))
        },
    );
    Ok(want)
}

/// The top-level objects of a JSON array document, as slices. The
/// daemon's trace is split per event and each event parsed on its own:
/// `json::parse` slows down with the square of a document's size.
fn array_items(text: &str) -> Vec<&str> {
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    let mut items = Vec::new();
    for (i, b) in text.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                depth += 1;
                if depth == 2 {
                    start = i;
                }
            }
            b'}' | b']' => {
                if depth == 2 {
                    items.push(&text[start..=i]);
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    items
}

/// Durations (µs) of the daemon's `serve:<op>` spans in its trace.
fn daemon_spans(path: &Path, op: &str) -> Res<Vec<f64>> {
    let text = std::fs::read_to_string(path).map_err(ctx("read serve trace"))?;
    let name = format!("serve:{op}");
    let mut durs = Vec::new();
    for item in array_items(&text) {
        let event = parse(item).map_err(ctx("parse serve trace event"))?;
        if event.get("name").and_then(Value::as_str) == Some(name.as_str()) {
            durs.push(
                event
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or("span without dur")?,
            );
        }
    }
    Ok(durs)
}

/// One daemon session of the serve workload's op sequence, with the
/// daemon's `--trace-out`/`--report-json` when `artifacts` names them.
/// Its final `outliers` answer must equal `want`, the oracle's answer
/// on the sequence's survivors.
fn session(
    bin: &Path,
    work: &Path,
    seed: u64,
    artifacts: Option<(&Path, &Path)>,
    want: &[u32],
    tally: &mut Tally,
) -> Res<Session> {
    let input = serve::SPEC.input(work, seed);
    let mut flags = Vec::new();
    if let Some((trace, report)) = artifacts {
        flags.extend(["--trace-out", trace.to_str().ok_or("path")?]);
        flags.extend(["--report-json", report.to_str().ok_or("path")?]);
    }
    let (daemon, mut client, _) = serve::boot(bin, &input, work, &flags)?;
    let mut gen = OpGen::new(seed, &serve::initial_store(seed));
    let keep_lines = artifacts.is_some();
    let pinned = SharedCpu::pin(daemon.pid())?;
    let s = serve::drive(&mut client, &mut gen, TRACED_REQUESTS, tally, keep_lines)?;
    drop(pinned);
    tally.check(
        "daemon final outliers vs oracle",
        serve::final_check(&mut client, &gen, want, false),
    );
    tally.check("session shutdown", serve::shutdown(client, daemon));
    Ok(s)
}

/// The CLI's serve path and `dbscout-telemetry::json`, from a traced
/// daemon session; per-request-type round trips from an untraced one.
/// Returns the untraced and traced sessions' round trips (ms).
fn serve_layer(
    t: &mut Tracer,
    bin: &Path,
    work: &Path,
    seed: u64,
    final_oracle: &[u32],
    m: &mut Metrics,
    tally: &mut Tally,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let plain = session(bin, work, seed, None, final_oracle, tally)?;
    for k in KINDS {
        let xs = &plain.lat[k.index()];
        m.push(
            &format!("serve.{}_ms_p50", k.name()),
            median(xs),
            "ms",
            xs.len(),
        );
        if k != Kind::Outliers {
            m.push(
                &format!("serve.{}_ms_p99", k.name()),
                percentile(xs, 0.99),
                "ms",
                xs.len(),
            );
        }
    }

    let trace = work.join("serve-trace.json");
    let report = work.join("serve-report.json");
    let traced = session(
        bin,
        work,
        seed,
        Some((&trace, &report)),
        final_oracle,
        tally,
    )?;
    for pair in traced.round_starts.windows(2) {
        t.span("cli.serve", pair[0], pair[1] - pair[0], ROUND);
    }
    validate(
        tally,
        "serve report (check-report)",
        &report,
        xtask::report_check::check_report,
    );

    let handle = daemon_spans(&trace, "probe")?;
    let handle_p50 = whole_unit_median(&handle);
    let probe_rt_us = median(&traced.lat[Kind::Probe.index()]) * 1e3;
    m.push("cli.serve_handle_us_p50", handle_p50, "us", handle.len());
    m.push(
        "cli.serve_wait_us_p50",
        probe_rt_us - handle_p50,
        "us",
        handle.len(),
    );
    let kb: Vec<f64> = traced
        .outliers_bytes
        .iter()
        .map(|&b| b as f64 / 1024.0)
        .collect();
    m.push("cli.outliers_response_kb", median(&kb), "KiB", kb.len());

    let mut parse_us = Vec::new();
    let mut round_start = Instant::now();
    for (i, line) in traced.lines.iter().enumerate() {
        let started = Instant::now();
        parse(line).map_err(ctx("parse request"))?;
        parse_us.push(us(started.elapsed()));
        if (i + 1) % ROUND == 0 {
            t.span(
                "telemetry.json_parse",
                round_start,
                round_start.elapsed(),
                ROUND,
            );
            round_start = Instant::now();
        }
    }
    m.push(
        "telemetry.json_parse_us_p50",
        median(&parse_us),
        "us",
        parse_us.len(),
    );
    Ok((plain.all_ms(), traced.all_ms()))
}

/// One traced run of `workload`: every per-layer metric.
pub fn run(workload: &str, bin: &Path, work: &Path, seed: u64) -> Res<(Metrics, Tally)> {
    let spec = detect_spec(workload)?;
    for s in [GEOLIFE, OSM, serve::SPEC] {
        s.generate(bin, &s.input(work, seed), seed)?;
    }
    let mut t = Tracer {
        collector: TraceCollector::new(),
        seq: 0,
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    data_layer(&mut t, work, seed, &mut m)?;
    let (detect_plain, detect_traced) =
        detect_layers(&mut t, spec, bin, work, seed, &mut m, &mut tally)?;
    let oracle = if workload == "detect-geolife" {
        Some(cached_oracle(&GEOLIFE, &GEOLIFE.input(work, seed), work)?.outliers)
    } else {
        None
    };
    dataflow_layer(&mut t, work, seed, oracle.as_deref(), &mut m, &mut tally)?;
    let final_oracle = incremental_layer(&mut t, seed, &mut m, &mut tally)?;
    let (serve_plain, serve_traced) =
        serve_layer(&mut t, bin, work, seed, &final_oracle, &mut m, &mut tally)?;

    let (plain, traced) = if workload == "serve-mixed" {
        (serve_plain, serve_traced)
    } else {
        (detect_plain, detect_traced)
    };
    let (base, with) = (median(&plain), median(&traced));
    m.push(
        "trace.overhead_pct",
        (with - base) / base * 100.0,
        "%",
        traced.len(),
    );

    let path = work.join(format!("perfbench-trace-{workload}-{seed}.json"));
    std::fs::write(&path, t.collector.to_chrome_trace()).map_err(ctx("write trace"))?;
    validate(
        &mut tally,
        "benchmark trace (check-trace)",
        &path,
        xtask::trace_check::check_trace,
    );
    eprintln!(
        "perfbench: wrote {} ({} spans)",
        path.display(),
        t.collector.span_count()
    );
    Ok((m, tally))
}

#[cfg(test)]
mod tests {
    use super::array_items;

    #[test]
    fn splits_top_level_objects() {
        let text = r#"[ {"name": "a}\"[", "args": {"seq": 1}}, {"name": "b", "dur": 2} ]"#;
        assert_eq!(
            array_items(text),
            vec![
                r#"{"name": "a}\"[", "args": {"seq": 1}}"#,
                r#"{"name": "b", "dur": 2}"#
            ]
        );
        assert!(array_items("[]").is_empty());
    }
}
