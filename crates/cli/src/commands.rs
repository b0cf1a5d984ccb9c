//! Subcommand implementations. Each returns the report to print, so the
//! logic is testable without spawning processes.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dbscout_core::{
    build_run_report, DbscoutError, DbscoutParams, DetectorBuilder, ExecutionConfig, PhaseTimings,
    RunInfo, GRID_STEP_NAMES, PHASE_NAMES,
};
use dbscout_data::generators as gen;
use dbscout_data::io::{read_csv_with, write_binary, write_csv, IngestMode, QuarantineReport};
use dbscout_data::kdist::{elbow_eps, kdist_graph};
use dbscout_data::{materialize, BinarySource, CsvIngest, PointSource, DEFAULT_BATCH_SIZE};
use dbscout_dataflow::{ExecutionContext, FaultPlan, MetricsSnapshot, StageRecord};
use dbscout_spatial::{Grid, PointStore};
use dbscout_telemetry::{Recorder, Span, SpanKind, TraceCollector};

use crate::cli::{CliError, Flags};
use crate::progress::{ProgressReporter, TeeRecorder};

/// A failure while reading or writing the dataset (exit code 2).
fn data_err(e: impl std::fmt::Display) -> CliError {
    CliError::data(e.to_string())
}

/// A failure inside a detection engine (exit code 3).
fn engine_err(e: impl std::fmt::Display) -> CliError {
    CliError::engine(e.to_string())
}

/// Classifies a detection failure: bad input — ingest errors surfaced
/// through a streaming source, or points an engine rejects, such as a
/// non-finite coordinate in a binary file or one too far out for ε — is
/// a data failure (exit code 2, as on the CSV read path); everything
/// else is an engine fault.
pub(crate) fn detect_err(e: DbscoutError) -> CliError {
    match e {
        DbscoutError::Ingest(_) | DbscoutError::InvalidInput(_) => CliError::data(e.to_string()),
        other => CliError::engine(other.to_string()),
    }
}

/// Reads the CSV dataset a subcommand operates on, mapping failures to
/// the data exit class (exit code 2). Every subcommand that
/// materializes a CSV goes through here, so label/ingest-mode plumbing
/// and error mapping live in one place — and all of them ride the same
/// streaming [`dbscout_data::CsvSource`] underneath.
pub(crate) fn load_dataset(
    path: &str,
    labeled: bool,
    mode: IngestMode,
) -> Result<CsvIngest, CliError> {
    read_csv_with(path, labeled, mode).map_err(data_err)
}

/// Renders a permissive-ingest quarantine summary into `out`.
fn quarantine_summary(out: &mut String, q: &QuarantineReport) {
    if q.is_clean() {
        return;
    }
    let _ = writeln!(
        out,
        "quarantined {} malformed row(s) (permissive ingest):",
        q.quarantined
    );
    for s in &q.samples {
        let _ = writeln!(out, "  line {}: {}", s.line, s.reason);
    }
    if q.quarantined > q.samples.len() {
        let _ = writeln!(out, "  ... and {} more", q.quarantined - q.samples.len());
    }
}

/// Replays the native engine's phase timings as phase spans (the native
/// engine has no execution context, so its trace is synthesized from
/// [`PhaseTimings`] after the fact, phases laid end to end), with the
/// grid partitioning phase's three steps as stage spans laid end to end
/// from its start, inside it.
fn synthesize_phase_spans(recorder: &dyn Recorder, started: Instant, timings: &PhaseTimings) {
    let mut cursor = started;
    for (name, duration) in GRID_STEP_NAMES.iter().zip(timings.grid_steps()) {
        recorder.record_span(Span::new(*name, SpanKind::Stage, cursor, duration));
        cursor += duration;
    }
    let durations = [
        timings.grid,
        timings.dense_map,
        timings.core_points,
        timings.core_map,
        timings.outliers,
    ];
    let mut cursor = started;
    for (name, duration) in PHASE_NAMES.iter().zip(durations) {
        recorder.record_span(Span::new(*name, SpanKind::Phase, cursor, duration));
        cursor += duration;
    }
}

/// `dbscout detect`: read points, run DBSCOUT, report / write outliers.
pub fn detect(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let eps: f64 = flags.require("eps")?;
    let min_pts: usize = flags.require("min-pts")?;
    // Parameters are checked before the input is read.
    let params = DbscoutParams::new(eps, min_pts).map_err(|e| CliError::new(e.to_string()))?;
    let engine: String = flags.get("engine", "native".to_string())?;
    let labeled = flags.has("labeled");
    let from_binary = flags.has("from-binary");
    let batch_size: usize = flags.get("batch-size", DEFAULT_BATCH_SIZE)?;
    if batch_size == 0 {
        return Err(CliError::new("--batch-size must be at least 1"));
    }
    if from_binary && labeled {
        return Err(CliError::new(
            "--from-binary input carries no label column; drop --labeled",
        ));
    }
    if from_binary && flags.has("permissive-ingest") {
        return Err(CliError::new(
            "--permissive-ingest applies to CSV input only",
        ));
    }
    let mode = if flags.has("permissive-ingest") {
        IngestMode::Permissive
    } else {
        IngestMode::Strict
    };
    let max_task_retries: usize = flags.get(
        "max-task-retries",
        dbscout_dataflow::context::DEFAULT_TASK_RETRIES,
    )?;
    let output_path = flags.require::<String>("output").ok();
    let trace_out = flags.require::<String>("trace-out").ok();
    let report_out = flags.require::<String>("report-json").ok();
    // A single collector feeds both outputs; it is only constructed (and
    // the engine only records spans) when one of the flags asks for it.
    let collector =
        (trace_out.is_some() || report_out.is_some()).then(|| Arc::new(TraceCollector::new()));
    // `--progress` streams rate-limited status lines to stderr; when it
    // rides alongside trace collection, a tee fans the events out.
    let progress = flags
        .has("progress")
        .then(|| Arc::new(ProgressReporter::new()));
    let recorder: Option<Arc<dyn Recorder>> = match (&collector, &progress) {
        (Some(c), Some(p)) => Some(Arc::new(TeeRecorder::new(vec![
            Arc::clone(c) as Arc<dyn Recorder>,
            Arc::clone(p) as Arc<dyn Recorder>,
        ]))),
        (Some(c), None) => Some(Arc::clone(c) as Arc<dyn Recorder>),
        (None, Some(p)) => Some(Arc::clone(p) as Arc<dyn Recorder>),
        (None, None) => None,
    };
    let chaos_seed: Option<u64> = std::env::var("DBSCOUT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    // The thread count funnels through one ExecutionConfig here; the
    // engine arms below read from it instead of re-parsing flags.
    let exec = ExecutionConfig::new().with_threads(flags.get("threads", 0)?);

    // The streaming path never materializes the dataset. It needs the
    // native engine (the distributed one partitions an in-memory store)
    // and no `--output` (writing flagged rows needs the coordinates).
    let streaming = from_binary && engine == "native" && output_path.is_none();
    let mut quarantine = QuarantineReport::default();
    let mut truth: Option<Vec<bool>> = None;
    let mut source = if from_binary {
        Some(BinarySource::open(&input, batch_size).map_err(data_err)?)
    } else {
        None
    };
    let store: Option<PointStore> = match (&mut source, streaming) {
        (Some(_), true) => None,
        (Some(src), false) => Some(materialize(src).map_err(data_err)?),
        (None, _) => {
            let ingest = load_dataset(&input, labeled, mode)?;
            quarantine = ingest.quarantine;
            truth = ingest.labels;
            Some(ingest.store)
        }
    };
    let dims: u64 = match (&store, &source) {
        (Some(s), _) => s.dims() as u64,
        (None, Some(src)) => src.dims().unwrap_or(0) as u64,
        (None, None) => 0,
    };

    let t = Instant::now();
    let mut fault_tolerance: Option<MetricsSnapshot> = None;
    let mut stage_records: Vec<StageRecord> = Vec::new();
    // 0 = "auto" for the native engine's thread count.
    let echo_workers;
    let mut echo_partitions = 0u64;
    let result = match engine.as_str() {
        "native" => {
            echo_workers = exec.threads as u64;
            let builder = DetectorBuilder::new(params).execution(exec);
            match (&store, &mut source) {
                (Some(st), _) => builder.build_native().detect(st).map_err(detect_err)?,
                (None, Some(src)) => builder.detect_source(src).map_err(detect_err)?,
                (None, None) => return Err(CliError::new("internal: no dataset loaded")),
            }
        }
        "distributed" => {
            let mut builder = ExecutionContext::builder().max_task_retries(max_task_retries);
            if let Some(seed) = chaos_seed {
                // The chaos seed drives the same bounded seeded-fault plan
                // the chaos test suite uses, so a seeded CLI run exercises
                // (and reports) the retry machinery deterministically.
                builder =
                    builder.fault_plan(FaultPlan::builder(seed).max_faults_per_task(1).build());
            }
            if let Some(r) = &recorder {
                builder = builder.recorder(Arc::clone(r));
            }
            let ctx = builder.build();
            echo_workers = ctx.workers() as u64;
            echo_partitions = ctx.default_partitions() as u64;
            let st = store
                .as_ref()
                .ok_or_else(|| CliError::new("internal: no dataset loaded"))?;
            let detector = DetectorBuilder::new(params)
                .distributed(ctx)
                .build_distributed();
            let before = detector.ctx().metrics().snapshot();
            let result = detector.detect(st).map_err(detect_err)?;
            fault_tolerance = Some(detector.ctx().metrics().snapshot().since(&before));
            stage_records = detector.ctx().metrics().stage_records();
            if let Some(c) = &collector {
                detector.ctx().metrics().emit_stage_spans(c.as_ref());
            }
            result
        }
        other => return Err(CliError::new(format!("unknown engine {other:?}"))),
    };
    let elapsed = t.elapsed();
    // The resolved in-process thread count. The distributed engine's
    // parallelism is the worker count echoed above.
    let echo_threads = if engine == "native" {
        exec.resolved_threads() as u64
    } else {
        0
    };
    if engine == "native" {
        if let Some(c) = &collector {
            synthesize_phase_spans(c.as_ref(), t, &result.timings);
            // Kernel work totals as Chrome Trace counter events: the
            // native engine records no stages, so the run total is the
            // only sample.
            let end = t + result.timings.total();
            for (name, value) in result.stats.kernel.named() {
                c.record_counter_point(name, end, value);
            }
        }
    }

    let points: u64 = match &store {
        Some(s) => u64::from(s.len()),
        None => result.labels.len() as u64,
    };
    let mut out = String::new();
    // `write!` into a String is infallible; the results are discarded.
    let _ = writeln!(
        out,
        "{points} points, eps = {eps}, minPts = {min_pts}, engine = {engine}{}{}",
        if engine == "native" {
            format!(", threads = {echo_threads}")
        } else {
            String::new()
        },
        if streaming {
            format!(" (streamed, batch size {batch_size})")
        } else {
            String::new()
        }
    );
    let _ = writeln!(
        out,
        "{} outliers, {} core points, {} cells ({} dense, {} core) in {elapsed:?}",
        result.num_outliers(),
        result.num_core(),
        result.stats.num_cells,
        result.stats.dense_cells,
        result.stats.core_cells,
    );
    quarantine_summary(&mut out, &quarantine);
    if let Some(m) = fault_tolerance {
        if m.task_retries > 0 || m.speculative_launches > 0 || m.injected_faults > 0 {
            let _ = writeln!(
                out,
                "fault tolerance: {} task retr{} (budget {max_task_retries}), \
                 {} speculative launch(es), {} speculative win(s), {} injected fault(s)",
                m.task_retries,
                if m.task_retries == 1 { "y" } else { "ies" },
                m.speculative_launches,
                m.speculative_wins,
                m.injected_faults,
            );
        }
    }

    if let Some(truth) = truth {
        let m = dbscout_metrics::ConfusionMatrix::from_masks(&result.outlier_mask(), &truth);
        let _ = writeln!(
            out,
            "vs labels: precision {:.4}, recall {:.4}, F1 {:.4}",
            m.precision(),
            m.recall(),
            m.f1()
        );
    }

    if let (Some(path), Some(st)) = (&output_path, &store) {
        let mask = result.outlier_mask();
        write_csv(path, st, Some(&mask)).map_err(data_err)?;
        let _ = writeln!(out, "wrote labelled output to {path}");
    }

    if let (Some(path), Some(c)) = (&trace_out, &collector) {
        std::fs::write(path, c.to_chrome_trace()).map_err(data_err)?;
        let _ = writeln!(out, "wrote chrome trace to {path}");
    }
    if let Some(path) = &report_out {
        let info = RunInfo {
            source: input.clone(),
            points,
            dimensions: dims,
            engine: engine.clone(),
            partitions: echo_partitions,
            workers: echo_workers,
            threads: echo_threads,
            chaos_seed,
            peak_rss_bytes: dbscout_telemetry::peak_rss_bytes(),
        };
        let report = build_run_report(
            &info,
            params,
            &result,
            &fault_tolerance.unwrap_or_default(),
            &stage_records,
            elapsed,
        );
        std::fs::write(path, report.to_json()).map_err(data_err)?;
        let _ = writeln!(out, "wrote run report to {path}");
    }
    Ok(out)
}

/// `dbscout generate`: emit a synthetic dataset as CSV.
pub fn generate(flags: &Flags) -> Result<String, CliError> {
    let dataset: String = flags.require("dataset")?;
    let output: String = flags.require("output")?;
    let n: usize = flags.get("n", 10_000)?;
    let seed: u64 = flags.get("seed", 1)?;
    let labeled = flags.has("labeled");
    let format: String = flags.get("format", "csv".to_string())?;

    let n_out = (n / 100).max(1);
    let n_in = n.saturating_sub(n_out).max(1);
    let (store, labels): (PointStore, Option<Vec<bool>>) = match dataset.as_str() {
        "blobs" => labeled_parts(gen::blobs(n_in, n_out, 3, 0.5, seed)),
        "circles" => labeled_parts(gen::circles(n_in, n_out, 0.5, 0.03, seed)),
        "moons" => labeled_parts(gen::moons(n_in, n_out, 0.04, seed)),
        "cluto-t4" => labeled_parts(gen::cluto_t4_like(seed)),
        "cluto-t5" => labeled_parts(gen::cluto_t5_like(seed)),
        "cluto-t7" => labeled_parts(gen::cluto_t7_like(seed)),
        "cluto-t8" => labeled_parts(gen::cluto_t8_like(seed)),
        "cure-t2" => labeled_parts(gen::cure_t2_like(seed)),
        "geolife" => (gen::geolife_like(n, seed), None),
        "osm" => (gen::osm_like(n, seed), None),
        other => return Err(CliError::new(format!("unknown dataset {other:?}"))),
    };
    let labels = if labeled { labels } else { None };
    match format.as_str() {
        "csv" => write_csv(&output, &store, labels.as_deref()).map_err(data_err)?,
        "binary" => {
            if labels.is_some() {
                return Err(CliError::new(
                    "--labeled requires --format csv (the binary format carries no labels)",
                ));
            }
            write_binary(&output, &store).map_err(data_err)?;
        }
        other => {
            return Err(CliError::new(format!(
                "unknown format {other:?} (expected csv or binary)"
            )))
        }
    }
    Ok(format!(
        "wrote {} {}-dimensional points to {output}{}\n",
        store.len(),
        store.dims(),
        if labels.is_some() {
            " (with labels)"
        } else {
            ""
        }
    ))
}

fn labeled_parts(ds: dbscout_data::LabeledDataset) -> (PointStore, Option<Vec<bool>>) {
    (ds.points, Some(ds.labels))
}

/// `dbscout kdist`: print the k-dist graph summary and the elbow ε.
pub fn kdist(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let k: usize = flags.get("k", 5)?;
    let store = load_dataset(&input, flags.has("labeled"), IngestMode::Strict)?.store;
    if store.len() < 3 {
        return Err(CliError::new("need at least 3 points for a k-dist graph"));
    }
    let graph = kdist_graph(&store, k);
    let eps =
        elbow_eps(&graph).ok_or_else(|| CliError::new("k-dist graph too small for an elbow"))?;
    let q = |f: f64| {
        let i = ((graph.len() - 1) as f64 * f) as usize;
        graph.get(i).copied().unwrap_or(0.0)
    };
    Ok(format!(
        "k-dist graph (k = {k}, {} points)\n\
         max {:.6}  p90 {:.6}  median {:.6}  p10 {:.6}  min {:.6}\n\
         suggested eps (elbow): {eps:.6}\n",
        store.len(),
        graph.first().copied().unwrap_or(0.0),
        q(0.1),
        q(0.5),
        q(0.9),
        graph.last().copied().unwrap_or(0.0),
    ))
}

/// `dbscout sweep`: run DBSCOUT over an ε ladder (geometric between
/// `--from` and `--to`, or ±2 octaves around the k-dist elbow) and report
/// outlier counts (plus F1 when labels are present).
pub fn sweep(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let min_pts: usize = flags.get("min-pts", 5)?;
    let steps: usize = flags.get("steps", 7)?;
    if steps < 2 {
        return Err(CliError::new("--steps must be at least 2"));
    }
    let labeled = flags.has("labeled");
    let ingest = load_dataset(&input, labeled, IngestMode::Strict)?;
    let (store, truth) = (ingest.store, ingest.labels);

    let (from, to) = match (flags.require::<f64>("from"), flags.require::<f64>("to")) {
        (Ok(a), Ok(b)) if a > 0.0 && b > a => (a, b),
        (Ok(_), Ok(_)) => return Err(CliError::new("--from/--to must satisfy 0 < from < to")),
        _ => {
            let elbow = dbscout_data::kdist::suggest_eps(&store, min_pts)
                .ok_or_else(|| CliError::new("dataset too small for a k-dist elbow"))?;
            (elbow / 4.0, elbow * 4.0)
        }
    };

    let mut out = format!(
        "eps sweep on {} points (minPts = {min_pts}): {from:.6} .. {to:.6}\n",
        store.len()
    );
    let ratio = (to / from).powf(1.0 / (steps - 1) as f64);
    for i in 0..steps {
        let eps = from * ratio.powi(i as i32);
        let params = DbscoutParams::new(eps, min_pts).map_err(|e| CliError::new(e.to_string()))?;
        let result = DetectorBuilder::new(params)
            .build_native()
            .detect(&store)
            .map_err(engine_err)?;
        let _ = write!(
            out,
            "  eps {eps:12.6}: {:6} outliers",
            result.num_outliers()
        );
        if let Some(truth) = &truth {
            let f1 =
                dbscout_metrics::ConfusionMatrix::from_masks(&result.outlier_mask(), truth).f1();
            let _ = write!(out, "  F1 {f1:.4}");
        }
        out.push('\n');
    }
    Ok(out)
}

/// `dbscout compare`: DBSCOUT vs LOF / IF / kNN-dist on a labelled CSV.
pub fn compare(flags: &Flags) -> Result<String, CliError> {
    use dbscout_baselines::{IsolationForest, KnnOutlier, Lof};

    let input: String = flags.require("input")?;
    let min_pts: usize = flags.get("min-pts", 5)?;
    let k: usize = flags.get("k", 20)?;
    let ingest = load_dataset(&input, true, IngestMode::Strict)?;
    let (store, truth) = (ingest.store, ingest.labels);
    let truth = truth.ok_or_else(|| CliError::new("input has no label column"))?;
    let nu = truth.iter().filter(|&&t| t).count() as f64 / truth.len().max(1) as f64;
    if nu == 0.0 {
        return Err(CliError::new("no positive labels in the input"));
    }

    let eps = match flags.require::<f64>("eps") {
        Ok(e) => e,
        Err(_) => dbscout_data::kdist::suggest_eps(&store, min_pts)
            .ok_or_else(|| CliError::new("dataset too small for a k-dist elbow"))?,
    };
    let params = DbscoutParams::new(eps, min_pts).map_err(|e| CliError::new(e.to_string()))?;
    let scout = DetectorBuilder::new(params)
        .build_native()
        .detect(&store)
        .map_err(engine_err)?;

    let mut table =
        dbscout_metrics::table::Table::new(&["detector", "params", "precision", "recall", "F1"]);
    let mut add = |name: &str, p: String, mask: &[bool]| {
        let m = dbscout_metrics::ConfusionMatrix::from_masks(mask, &truth);
        table.row(&[
            name.to_string(),
            p,
            format!("{:.4}", m.precision()),
            format!("{:.4}", m.recall()),
            format!("{:.4}", m.f1()),
        ]);
    };
    add(
        "DBSCOUT",
        format!("eps={eps:.4} minPts={min_pts}"),
        &scout.outlier_mask(),
    );
    add(
        "LOF",
        format!("k={k} nu={nu:.3}"),
        &Lof::new(k).detect(&store, nu),
    );
    add(
        "IsolationForest",
        format!("nu={nu:.3}"),
        &IsolationForest::new(0).detect(&store, nu),
    );
    add(
        "kNN-dist",
        format!("k={k} nu={nu:.3}"),
        &KnnOutlier::new(k).detect(&store, nu),
    );
    Ok(format!("{}\n", table.render()))
}

/// `dbscout info`: dataset statistics (and grid stats at a given ε).
pub fn info(flags: &Flags) -> Result<String, CliError> {
    let input: String = flags.require("input")?;
    let store = load_dataset(&input, flags.has("labeled"), IngestMode::Strict)?.store;
    let mut out = format!("{} points, {} dimensions\n", store.len(), store.dims());
    if let Some((min, max)) = store.bounding_box() {
        let _ = writeln!(out, "bounding box: min {min:?}, max {max:?}");
    }
    if let Ok(eps) = flags.require::<f64>("eps") {
        let grid = Grid::build(&store, eps).map_err(data_err)?;
        let _ = writeln!(
            out,
            "grid at eps = {eps}: {} non-empty cells, heaviest holds {:.2}% of points",
            grid.num_cells(),
            grid.skew() * 100.0
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {

    use crate::cli::run;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("dbscout-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_detect_round_trip() {
        let data = tmp("blobs.csv");
        let report = run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "2000",
            "--seed",
            "7",
            "--output",
            &data,
            "--labeled",
        ]))
        .unwrap();
        assert!(report.contains("2000"), "{report}");

        let out = tmp("flagged.csv");
        let report = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--labeled",
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--output",
            &out,
        ]))
        .unwrap();
        assert!(report.contains("outliers"), "{report}");
        assert!(report.contains("F1"), "{report}");
        assert!(std::path::Path::new(&out).exists());
    }

    #[test]
    fn grid_step_spans_nest_in_the_grid_phase() {
        use dbscout_core::{GRID_STEP_NAMES, PHASE_NAMES};
        use dbscout_telemetry::json::{parse, Value};

        let data = tmp("steps.bin");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "3000",
            "--seed",
            "5",
            "--format",
            "binary",
            "--output",
            &data,
        ]))
        .unwrap();
        for threads in ["1", "2"] {
            let trace = tmp(&format!("steps-trace-{threads}.json"));
            run(&argv(&[
                "detect",
                "--input",
                &data,
                "--from-binary",
                "--batch-size",
                "100",
                "--threads",
                threads,
                "--eps",
                "0.6",
                "--min-pts",
                "5",
                "--trace-out",
                &trace,
            ]))
            .unwrap();
            let events = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
            let span = |name: &str| -> (f64, f64) {
                let found: Vec<&Value> = events
                    .as_array()
                    .unwrap()
                    .iter()
                    .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
                    .collect();
                assert_eq!(found.len(), 1, "one {name:?} span");
                let field = |k: &str| found[0].get(k).and_then(Value::as_f64).unwrap();
                (field("ts"), field("dur"))
            };
            let (phase_ts, phase_dur) = span(PHASE_NAMES[0]);
            let mut sum = 0.0;
            for name in GRID_STEP_NAMES {
                let (ts, dur) = span(name);
                // The trace floors every ts and dur to whole microseconds,
                // so an end may read 1 µs past the phase's.
                assert!(
                    ts >= phase_ts && ts + dur <= phase_ts + phase_dur + 1.0,
                    "{name:?} [{ts}, +{dur}] outside phase 1 [{phase_ts}, +{phase_dur}]"
                );
                sum += dur;
            }
            assert!(sum <= phase_dur, "steps sum {sum} > phase 1 {phase_dur}");
        }
    }

    #[test]
    fn detect_engines_agree() {
        let data = tmp("moons.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "1000",
            "--output",
            &data,
        ]))
        .unwrap();
        let native = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "0.1",
            "--min-pts",
            "5",
        ]))
        .unwrap();
        let dist = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "0.1",
            "--min-pts",
            "5",
            "--engine",
            "distributed",
        ]))
        .unwrap();
        let count = |r: &str| {
            r.lines()
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(count(&native), count(&dist));
    }

    #[test]
    fn threads_flag_is_echoed() {
        use dbscout_telemetry::json::parse;

        let data = tmp("threads.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "800",
            "--output",
            &data,
        ]))
        .unwrap();
        let report = tmp("threads-report.json");
        let args = [
            "detect",
            "--input",
            &data,
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--threads",
            "2",
            "--report-json",
            &report,
        ];
        let out = run(&argv(&args)).unwrap();
        assert!(out.contains("engine = native, threads = 2"), "{out}");
        let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let params = doc.get("params").unwrap();
        assert_eq!(params.get("threads").unwrap().as_u64(), Some(2));
        assert!(params.get("kernel").is_none());
        // The retired kernel switch is an unknown flag.
        let mut retired = argv(&args);
        retired.extend(argv(&["--kernel", "scalar"]));
        let err = run(&retired).unwrap_err();
        assert!(err.message.contains("--kernel"), "{err}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn kdist_and_info_report() {
        let data = tmp("circles.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "circles",
            "--n",
            "500",
            "--output",
            &data,
        ]))
        .unwrap();
        let report = run(&argv(&["kdist", "--input", &data, "--k", "4"])).unwrap();
        assert!(report.contains("suggested eps"), "{report}");
        let report = run(&argv(&["info", "--input", &data, "--eps", "0.1"])).unwrap();
        assert!(report.contains("non-empty cells"), "{report}");
    }

    #[test]
    fn sweep_reports_ladder_with_f1() {
        let data = tmp("sweep.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "1500",
            "--output",
            &data,
            "--labeled",
        ]))
        .unwrap();
        let report = run(&argv(&[
            "sweep",
            "--input",
            &data,
            "--labeled",
            "--min-pts",
            "5",
            "--steps",
            "4",
        ]))
        .unwrap();
        assert_eq!(report.matches("F1").count(), 4, "{report}");
        assert!(run(&argv(&["sweep", "--input", &data, "--steps", "1"])).is_err());
        assert!(run(&argv(&[
            "sweep", "--input", &data, "--from", "2.0", "--to", "1.0"
        ]))
        .is_err());
    }

    #[test]
    fn compare_ranks_detectors() {
        let data = tmp("compare.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "1500",
            "--output",
            &data,
            "--labeled",
        ]))
        .unwrap();
        let report = run(&argv(&["compare", "--input", &data, "--min-pts", "5"])).unwrap();
        assert!(report.contains("DBSCOUT"), "{report}");
        assert!(report.contains("IsolationForest"), "{report}");
        assert!(report.contains("kNN-dist"), "{report}");
    }

    #[test]
    fn permissive_ingest_quarantines_and_reports() {
        let data = tmp("dirty.csv");
        let mut content = String::new();
        for i in 0..200 {
            content.push_str(&format!("{}.0,{}.5\n", i % 20, i % 17));
        }
        content.push_str("garbage,row\n1.0,NaN\n");
        std::fs::write(&data, content).unwrap();

        // Strict mode (the default) fails with a data error.
        let err = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "1.0",
            "--min-pts",
            "3",
        ]))
        .unwrap_err();
        assert_eq!(err.kind, crate::cli::ErrorKind::Data);

        // Permissive mode quarantines the two bad rows and proceeds.
        let report = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "1.0",
            "--min-pts",
            "3",
            "--permissive-ingest",
        ]))
        .unwrap();
        assert!(report.contains("200 points"), "{report}");
        assert!(
            report.contains("quarantined 2 malformed row(s)"),
            "{report}"
        );
        assert!(report.contains("non-finite coordinate"), "{report}");
    }

    #[test]
    fn max_task_retries_flag_reaches_the_distributed_engine() {
        let data = tmp("retries.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "500",
            "--output",
            &data,
        ]))
        .unwrap();
        let report = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--engine",
            "distributed",
            "--max-task-retries",
            "0",
        ]))
        .unwrap();
        // Healthy run: no faults, so no fault-tolerance line is printed.
        assert!(report.contains("outliers"), "{report}");
        assert!(!report.contains("fault tolerance"), "{report}");
    }

    #[test]
    fn trace_and_report_flags_emit_valid_documents() {
        use dbscout_telemetry::json::{parse, Value};

        let data = tmp("traced.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "800",
            "--output",
            &data,
        ]))
        .unwrap();
        let trace = tmp("trace.json");
        let report = tmp("report.json");
        let out = run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--engine",
            "distributed",
            "--trace-out",
            &trace,
            "--report-json",
            &report,
        ]))
        .unwrap();
        assert!(out.contains("wrote chrome trace"), "{out}");
        assert!(out.contains("wrote run report"), "{out}");

        // The trace is a Chrome Trace Event array with complete events
        // covering every paper phase plus stage and task spans.
        let doc = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.as_array().expect("trace must be a JSON array");
        assert!(!events.is_empty());
        let mut cats = std::collections::BTreeSet::new();
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_u64().is_some());
            assert!(e.get("dur").unwrap().as_u64().is_some());
            assert!(matches!(e.get("name"), Some(Value::Str(_))));
            cats.insert(e.get("cat").unwrap().as_str().unwrap().to_owned());
        }
        assert_eq!(
            cats.into_iter().collect::<Vec<_>>(),
            ["phase", "stage", "task"]
        );
        let phase_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").unwrap().as_str() == Some("phase"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for required in dbscout_core::PHASE_NAMES {
            assert!(phase_names.contains(&required), "missing {required}");
        }

        // The report is schema-versioned and echoes the run shape.
        let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(dbscout_telemetry::REPORT_SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("dataset").unwrap().get("points").unwrap().as_u64(),
            Some(800)
        );
        assert_eq!(
            doc.get("params").unwrap().get("engine").unwrap().as_str(),
            Some("distributed")
        );
        assert_eq!(
            doc.get("phases").unwrap().as_array().unwrap().len(),
            dbscout_core::PHASE_NAMES.len()
        );
        assert!(!doc.get("stages").unwrap().as_array().unwrap().is_empty());
        // Peak RSS is populated from /proc on Linux (0 elsewhere means
        // "unknown", which the report schema also allows).
        let rss = doc
            .get("totals")
            .unwrap()
            .get("peak_rss_bytes")
            .unwrap()
            .as_u64()
            .unwrap();
        if cfg!(target_os = "linux") {
            assert!(rss > 0);
        }
    }

    #[test]
    fn native_engine_trace_and_report_cover_phases() {
        use dbscout_telemetry::json::parse;

        let data = tmp("traced-native.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "500",
            "--output",
            &data,
        ]))
        .unwrap();
        let trace = tmp("trace-native.json");
        let report = tmp("report-native.json");
        run(&argv(&[
            "detect",
            "--input",
            &data,
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--trace-out",
            &trace,
            "--report-json",
            &report,
        ]))
        .unwrap();
        let doc = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.as_array().unwrap();
        // The native engine has no executor stages or tasks: phase spans,
        // the grid phase's three step spans, and one counter sample per
        // kernel counter.
        let mut spans: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        spans.sort_unstable();
        let mut expected_spans = dbscout_core::PHASE_NAMES.to_vec();
        expected_spans.extend(dbscout_core::GRID_STEP_NAMES);
        expected_spans.sort_unstable();
        assert_eq!(spans, expected_spans);
        let mut counters: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        counters.sort_unstable();
        let mut expected = dbscout_telemetry::KERNEL_COUNTER_NAMES.to_vec();
        expected.sort_unstable();
        assert_eq!(counters, expected);
        let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(
            doc.get("params").unwrap().get("engine").unwrap().as_str(),
            Some("native")
        );
        assert!(doc.get("stages").unwrap().as_array().unwrap().is_empty());
        // Kernel totals land in the deterministic section of the totals.
        let totals = doc.get("totals").unwrap();
        assert!(totals.get("cells_visited").unwrap().as_u64().unwrap() > 0);
        assert!(totals.get("distance_evals").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn progress_flag_is_accepted_on_every_engine() {
        let data = tmp("progress.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "400",
            "--output",
            &data,
        ]))
        .unwrap();
        let base = ["detect", "--input", &data, "--eps", "0.6", "--min-pts", "5"];
        for extra in [
            &["--progress"][..],
            &["--progress", "--engine", "distributed"][..],
        ] {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            let report = run(&argv(&args)).unwrap();
            assert!(report.contains("outliers"), "{extra:?}: {report}");
        }
    }

    #[test]
    fn binary_streaming_detect_agrees_with_materialized_csv() {
        use dbscout_telemetry::json::parse;

        let csv = tmp("stream.csv");
        let bin = tmp("stream.bin");
        for (path, format) in [(&csv, "csv"), (&bin, "binary")] {
            run(&argv(&[
                "generate",
                "--dataset",
                "blobs",
                "--n",
                "1200",
                "--seed",
                "3",
                "--output",
                path,
                "--format",
                format,
            ]))
            .unwrap();
        }

        let materialized = run(&argv(&[
            "detect",
            "--input",
            &csv,
            "--eps",
            "0.6",
            "--min-pts",
            "5",
        ]))
        .unwrap();
        let report = tmp("stream-report.json");
        let streamed = run(&argv(&[
            "detect",
            "--input",
            &bin,
            "--from-binary",
            "--batch-size",
            "97",
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--report-json",
            &report,
        ]))
        .unwrap();
        assert!(streamed.contains("(streamed, batch size 97)"), "{streamed}");

        // Same outliers/core/cell counts; only the elapsed time differs.
        let counts = |r: &str| {
            r.lines()
                .nth(1)
                .unwrap()
                .split(" in ")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(counts(&materialized), counts(&streamed));

        // The run report reflects the streamed dataset's true shape.
        let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let dataset = doc.get("dataset").unwrap();
        assert_eq!(dataset.get("points").unwrap().as_u64(), Some(1200));
        assert_eq!(dataset.get("dimensions").unwrap().as_u64(), Some(2));

        // `--output` forces materialization but still accepts binary input.
        let flagged = tmp("stream-flagged.csv");
        let with_output = run(&argv(&[
            "detect",
            "--input",
            &bin,
            "--from-binary",
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--output",
            &flagged,
        ]))
        .unwrap();
        assert!(!with_output.contains("streamed"), "{with_output}");
        assert_eq!(counts(&materialized), counts(&with_output));
        assert!(std::path::Path::new(&flagged).exists());

        // The distributed engine consumes binary input via the
        // materializing adapter and agrees too.
        let dist = run(&argv(&[
            "detect",
            "--input",
            &bin,
            "--from-binary",
            "--eps",
            "0.6",
            "--min-pts",
            "5",
            "--engine",
            "distributed",
        ]))
        .unwrap();
        let outliers = |r: &str| {
            r.lines()
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(outliers(&materialized), outliers(&dist));

        // Traced streamed runs at 1 and 4 threads: each trace is
        // well-formed, and the kernel totals are sums over a disjoint
        // partition of the cell range, so they match across thread counts.
        let mut kernel_totals = Vec::new();
        for threads in ["1", "4"] {
            let trace = tmp(&format!("stream-trace-t{threads}.json"));
            let report = tmp(&format!("stream-report-t{threads}.json"));
            let traced = run(&argv(&[
                "detect",
                "--input",
                &bin,
                "--from-binary",
                "--eps",
                "0.6",
                "--min-pts",
                "5",
                "--threads",
                threads,
                "--trace-out",
                &trace,
                "--report-json",
                &report,
            ]))
            .unwrap();
            assert!(traced.contains("streamed"), "{traced}");
            assert_eq!(counts(&materialized), counts(&traced));
            assert_valid_chrome_trace(&std::fs::read_to_string(&trace).unwrap());
            let doc = parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
            let totals = doc.get("totals").unwrap();
            let named: Vec<u64> = dbscout_telemetry::KERNEL_COUNTER_NAMES
                .iter()
                .map(|k| totals.get(k).unwrap().as_u64().unwrap())
                .collect();
            kernel_totals.push(named);
        }
        assert!(
            kernel_totals[0].iter().sum::<u64>() > 0,
            "counters must be live"
        );
        assert_eq!(kernel_totals[0], kernel_totals[1]);
    }

    /// Checks a Chrome Trace's shape: a non-empty array in which every
    /// event is a complete (`X`) or counter (`C`) event, `X` timestamps
    /// are monotone within each (pid, tid) lane, and `C` events name a
    /// declared kernel counter with a numeric value.
    fn assert_valid_chrome_trace(trace: &str) {
        use std::collections::BTreeMap;
        let doc = dbscout_telemetry::json::parse(trace).unwrap();
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
    fn streaming_flag_validation() {
        let bin = tmp("validate.bin");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "300",
            "--output",
            &bin,
            "--format",
            "binary",
        ]))
        .unwrap();
        let base = ["detect", "--input", &bin, "--eps", "0.6", "--min-pts", "5"];
        for extra in [
            &["--batch-size", "0"][..],
            &["--from-binary", "--labeled"][..],
            &["--from-binary", "--permissive-ingest"][..],
        ] {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            let err = run(&argv(&args)).unwrap_err();
            assert_eq!(err.kind, crate::cli::ErrorKind::Usage, "{extra:?}: {err}");
        }
        // A CSV fed to --from-binary is a data error (bad header), not a crash.
        let csv = tmp("validate.csv");
        run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "300",
            "--output",
            &csv,
        ]))
        .unwrap();
        let err = run(&argv(&[
            "detect",
            "--input",
            &csv,
            "--from-binary",
            "--eps",
            "0.6",
            "--min-pts",
            "5",
        ]))
        .unwrap_err();
        assert_eq!(err.kind, crate::cli::ErrorKind::Data);
        // Labels require the CSV format, and unknown formats are rejected.
        assert!(run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "100",
            "--output",
            &bin,
            "--format",
            "binary",
            "--labeled",
        ]))
        .is_err());
        assert!(run(&argv(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "100",
            "--output",
            &bin,
            "--format",
            "parquet",
        ]))
        .is_err());
    }

    #[test]
    fn bad_inputs_are_clean_errors() {
        assert!(run(&argv(&[
            "detect",
            "--input",
            "/nonexistent.csv",
            "--eps",
            "1",
            "--min-pts",
            "5"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "generate",
            "--dataset",
            "nope",
            "--output",
            &tmp("x.csv")
        ]))
        .is_err());
        assert!(run(&argv(&[
            "detect",
            "--input",
            &tmp("x.csv"),
            "--eps",
            "-1",
            "--min-pts",
            "5"
        ]))
        .is_err());
    }
}
