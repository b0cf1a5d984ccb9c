//! Per-stage engine metrics.
//!
//! Every executor stage leaves behind one [`StageRecord`]: its label,
//! task count, record/shuffle volumes, fault-tolerance outcomes, and a
//! task-duration histogram. [`EngineMetrics`] is an ordered log of those
//! records (plus a broadcast counter, which has no owning stage); the
//! familiar [`MetricsSnapshot`] is now an aggregation over the log
//! rather than a bag of global atomics, so experiments keep their
//! whole-run counters while reports and traces can attribute volume and
//! wall-clock to individual stages.
//!
//! The driver executes stages sequentially, so "the most recently pushed
//! record" is well-defined when an operation attaches its record/shuffle
//! volumes after its stage completes — that is what the `attach_*`
//! methods rely on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dbscout_telemetry::{DurationHistogram, KernelCounters, Recorder, Span, SpanKind};

/// One executed stage's full accounting.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage label (`"{phase}:{op}"` while a phase label is set).
    pub label: String,
    /// When the stage started executing.
    pub started: Instant,
    /// Stage wall-clock (driver-observed).
    pub duration: Duration,
    /// Completed tasks (one per partition; superseded speculative
    /// attempts are not counted).
    pub tasks: u64,
    /// Records consumed by the stage's operation.
    pub records_in: u64,
    /// Records produced by the stage's operation.
    pub records_out: u64,
    /// Records moved across this stage's shuffle boundary.
    pub shuffle_records: u64,
    /// Approximate bytes moved across the shuffle boundary (record count
    /// times in-memory record size).
    pub shuffle_bytes: u64,
    /// Records emitted by a join probe in this stage.
    pub join_output_records: u64,
    /// Failed attempts that were re-queued.
    pub task_retries: u64,
    /// Speculative duplicate attempts launched.
    pub speculative_launches: u64,
    /// Speculative duplicates that finished before the original.
    pub speculative_wins: u64,
    /// Faults injected by a [`crate::FaultPlan`].
    pub injected_faults: u64,
    /// Kernel work counters summed over the stage's tasks. Totals are
    /// sums over a disjoint partition of the cell range, so they are
    /// invariant across thread counts and schedules —
    /// deterministic, unlike every timing field here.
    pub kernel: KernelCounters,
    /// Durations of the winning attempt of each completed task.
    pub task_durations: DurationHistogram,
}

impl StageRecord {
    /// A zeroed record for a stage starting now.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            started: Instant::now(),
            duration: Duration::ZERO,
            tasks: 0,
            records_in: 0,
            records_out: 0,
            shuffle_records: 0,
            shuffle_bytes: 0,
            join_output_records: 0,
            task_retries: 0,
            speculative_launches: 0,
            speculative_wins: 0,
            injected_faults: 0,
            kernel: KernelCounters::new(),
            task_durations: DurationHistogram::new(),
        }
    }
}

/// The engine's metrics log, owned by an
/// [`ExecutionContext`](crate::ExecutionContext): one [`StageRecord`]
/// per executed stage, in execution order, plus the broadcast counter.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    records: Mutex<Vec<StageRecord>>,
    broadcasts: AtomicU64,
}

impl EngineMetrics {
    /// Creates an empty metrics log.
    pub fn new() -> Self {
        Self::default()
    }

    fn records_locked(&self) -> std::sync::MutexGuard<'_, Vec<StageRecord>> {
        crate::executor::lock_unpoisoned(&self.records)
    }

    /// Appends one completed stage's record (called by the executor once
    /// per stage, success or failure).
    pub(crate) fn push_stage(&self, record: StageRecord) {
        self.records_locked().push(record);
    }

    /// Runs `f` on the most recently pushed record. Operations call this
    /// right after their stage completes; if nothing was recorded (a
    /// driver-only operation), a synthetic record is pushed first.
    fn with_last(&self, label: &str, f: impl FnOnce(&mut StageRecord)) {
        let mut records = self.records_locked();
        if records.is_empty() {
            records.push(StageRecord::new(label));
        }
        if let Some(last) = records.last_mut() {
            f(last);
        }
    }

    /// Attaches an operation's record volumes to its final stage.
    pub(crate) fn attach_io(&self, records_in: u64, records_out: u64) {
        self.with_last("driver", |r| {
            r.records_in = r.records_in.saturating_add(records_in);
            r.records_out = r.records_out.saturating_add(records_out);
        });
    }

    /// Attaches shuffle volume (records and approximate bytes) to the
    /// map-side stage that produced it.
    pub(crate) fn attach_shuffle(&self, records: u64, bytes: u64) {
        self.with_last("driver", |r| {
            r.shuffle_records = r.shuffle_records.saturating_add(records);
            r.shuffle_bytes = r.shuffle_bytes.saturating_add(bytes);
        });
    }

    /// Attaches join-probe output volume to the probe stage.
    pub(crate) fn attach_join_output(&self, records: u64) {
        self.with_last("driver", |r| {
            r.join_output_records = r.join_output_records.saturating_add(records);
        });
    }

    /// Attaches kernel work counters to the most recently pushed stage
    /// record. Detectors call this right after a kernel-bearing stage
    /// completes, having summed the counters over the stage's tasks in
    /// task-index order.
    pub fn attach_kernel_counters(&self, counters: KernelCounters) {
        self.with_last("driver", |r| {
            r.kernel.merge(&counters);
        });
    }

    /// Records a driver-only stage (no worker tasks), e.g. `repartition`,
    /// which moves every record without running on the pool.
    pub(crate) fn push_driver_stage(&self, record: StageRecord) {
        self.push_stage(record);
    }

    /// Records one broadcast of a driver-side value to all workers.
    pub(crate) fn record_broadcast(&self) {
        self.broadcasts.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of every stage record, in execution order. This is the raw
    /// material for run reports and stage spans.
    pub fn stage_records(&self) -> Vec<StageRecord> {
        self.records_locked().clone()
    }

    /// Emits one [`SpanKind::Stage`] span per recorded stage into
    /// `recorder`, carrying the stage's volumes and outcomes as span
    /// arguments. Called once at the end of a traced run, after
    /// operations have attached their volumes.
    pub fn emit_stage_spans(&self, recorder: &dyn Recorder) {
        // Running totals feed the trace's counter track: one cumulative
        // sample per kernel counter at each stage's end instant.
        let mut running = KernelCounters::new();
        for r in self.records_locked().iter() {
            recorder.record_span(
                Span::new(r.label.clone(), SpanKind::Stage, r.started, r.duration)
                    .arg("tasks", r.tasks)
                    .arg("records_in", r.records_in)
                    .arg("records_out", r.records_out)
                    .arg("shuffle_records", r.shuffle_records)
                    .arg("shuffle_bytes", r.shuffle_bytes)
                    .arg("join_output_records", r.join_output_records)
                    .arg("task_retries", r.task_retries)
                    .arg("speculative_launches", r.speculative_launches)
                    .arg("speculative_wins", r.speculative_wins)
                    .arg("injected_faults", r.injected_faults)
                    .arg("cells_visited", r.kernel.cells_visited)
                    .arg("bbox_prunes", r.kernel.bbox_prunes)
                    .arg("early_exit_hits", r.kernel.early_exit_hits)
                    .arg("distance_evals", r.kernel.distance_evals),
            );
            if r.kernel != KernelCounters::new() {
                running.merge(&r.kernel);
                let at = r.started + r.duration;
                for (name, value) in running.named() {
                    recorder.record_counter_point(name, at, value);
                }
            }
        }
    }

    /// Takes a consistent point-in-time aggregation over all stage
    /// records (plus the broadcast counter).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let records = self.records_locked();
        let mut s = MetricsSnapshot {
            stages: records.len() as u64,
            broadcasts: self.broadcasts.load(Ordering::Acquire),
            ..MetricsSnapshot::default()
        };
        for r in records.iter() {
            s.tasks = s.tasks.saturating_add(r.tasks);
            s.records_in = s.records_in.saturating_add(r.records_in);
            s.records_out = s.records_out.saturating_add(r.records_out);
            s.shuffle_records = s.shuffle_records.saturating_add(r.shuffle_records);
            s.shuffle_bytes = s.shuffle_bytes.saturating_add(r.shuffle_bytes);
            s.join_output_records = s.join_output_records.saturating_add(r.join_output_records);
            s.task_retries = s.task_retries.saturating_add(r.task_retries);
            s.speculative_launches = s
                .speculative_launches
                .saturating_add(r.speculative_launches);
            s.speculative_wins = s.speculative_wins.saturating_add(r.speculative_wins);
            s.injected_faults = s.injected_faults.saturating_add(r.injected_faults);
        }
        s
    }

    /// Clears the log and counters (between experiment repetitions).
    pub fn reset(&self) {
        self.records_locked().clear();
        self.broadcasts.store(0, Ordering::Release);
    }
}

/// A point-in-time aggregation over [`EngineMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Number of executor stages run (shuffle-bearing operations count
    /// one stage per internal step).
    pub stages: u64,
    /// Number of per-partition tasks completed.
    pub tasks: u64,
    /// Total records consumed by all operations.
    pub records_in: u64,
    /// Total records produced by all operations.
    pub records_out: u64,
    /// Records that crossed a shuffle (repartitioning) boundary.
    pub shuffle_records: u64,
    /// Approximate bytes that crossed a shuffle boundary.
    pub shuffle_bytes: u64,
    /// Number of broadcast variables created.
    pub broadcasts: u64,
    /// Records emitted by join stages.
    pub join_output_records: u64,
    /// Task attempts re-queued after a failure (panic, transient fault).
    pub task_retries: u64,
    /// Speculative duplicate attempts launched on straggler tasks.
    pub speculative_launches: u64,
    /// Speculative attempts that completed before the original.
    pub speculative_wins: u64,
    /// Faults injected by a [`crate::FaultPlan`] (all kinds, delays
    /// included).
    pub injected_faults: u64,
}

impl MetricsSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    ///
    /// Saturates at zero so that a reset between snapshots cannot produce
    /// nonsense deltas.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: self.stages.saturating_sub(earlier.stages),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            records_in: self.records_in.saturating_sub(earlier.records_in),
            records_out: self.records_out.saturating_sub(earlier.records_out),
            shuffle_records: self.shuffle_records.saturating_sub(earlier.shuffle_records),
            shuffle_bytes: self.shuffle_bytes.saturating_sub(earlier.shuffle_bytes),
            broadcasts: self.broadcasts.saturating_sub(earlier.broadcasts),
            join_output_records: self
                .join_output_records
                .saturating_sub(earlier.join_output_records),
            task_retries: self.task_retries.saturating_sub(earlier.task_retries),
            speculative_launches: self
                .speculative_launches
                .saturating_sub(earlier.speculative_launches),
            speculative_wins: self
                .speculative_wins
                .saturating_sub(earlier.speculative_wins),
            injected_faults: self.injected_faults.saturating_sub(earlier.injected_faults),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscout_telemetry::TraceCollector;

    fn record(label: &str) -> StageRecord {
        let mut r = StageRecord::new(label);
        r.tasks = 4;
        r.records_in = 100;
        r.records_out = 50;
        r
    }

    #[test]
    fn snapshot_aggregates_stage_records() {
        let m = EngineMetrics::new();
        m.push_stage(record("a"));
        let mut second = record("b");
        second.tasks = 2;
        second.records_in = 50;
        second.records_out = 50;
        second.task_retries = 1;
        m.push_stage(second);
        m.attach_shuffle(30, 240);
        m.attach_join_output(7);
        m.record_broadcast();
        let s = m.snapshot();
        assert_eq!(s.stages, 2);
        assert_eq!(s.tasks, 6);
        assert_eq!(s.records_in, 150);
        assert_eq!(s.records_out, 100);
        assert_eq!(s.shuffle_records, 30);
        assert_eq!(s.shuffle_bytes, 240);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.join_output_records, 7);
        assert_eq!(s.task_retries, 1);
    }

    #[test]
    fn attach_targets_the_most_recent_record() {
        let m = EngineMetrics::new();
        m.push_stage(record("map-side"));
        m.attach_shuffle(10, 80);
        m.push_stage(record("reduce-side"));
        m.attach_io(5, 3);
        let records = m.stage_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].shuffle_records, 10);
        assert_eq!(records[0].shuffle_bytes, 80);
        assert_eq!(records[1].shuffle_records, 0);
        // attach_io adds on top of the record's own counts.
        assert_eq!(records[1].records_in, 105);
        assert_eq!(records[1].records_out, 53);
    }

    #[test]
    fn attach_without_stage_creates_a_driver_record() {
        let m = EngineMetrics::new();
        m.attach_shuffle(9, 72);
        let records = m.stage_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "driver");
        assert_eq!(records[0].shuffle_records, 9);
    }

    #[test]
    fn reset_clears_log_and_counters() {
        let m = EngineMetrics::new();
        m.push_stage(record("a"));
        m.record_broadcast();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert!(m.stage_records().is_empty());
    }

    #[test]
    fn since_computes_delta() {
        let m = EngineMetrics::new();
        m.push_stage(record("a"));
        let before = m.snapshot();
        let mut r = record("b");
        r.tasks = 2;
        r.records_in = 20;
        r.records_out = 5;
        m.push_stage(r);
        let d = m.snapshot().since(&before);
        assert_eq!(d.stages, 1);
        assert_eq!(d.tasks, 2);
        assert_eq!(d.records_in, 20);
        assert_eq!(d.records_out, 5);
    }

    #[test]
    fn since_saturates() {
        let a = MetricsSnapshot {
            stages: 1,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            stages: 5,
            ..Default::default()
        };
        assert_eq!(a.since(&b).stages, 0);
    }

    #[test]
    fn emit_stage_spans_renders_one_span_per_stage() {
        let m = EngineMetrics::new();
        let mut r = record("core-point pass:map_partitions");
        r.shuffle_records = 12;
        m.push_stage(r);
        m.push_stage(record("outlier pass:aggregate"));
        let collector = TraceCollector::new();
        m.emit_stage_spans(&collector);
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "core-point pass:map_partitions");
        assert_eq!(spans[0].kind.category(), "stage");
        assert!(spans[0]
            .args
            .iter()
            .any(|(k, v)| *k == "shuffle_records" && *v == dbscout_telemetry::ArgValue::U64(12)));
        // Zeroed kernel counters emit no counter samples.
        assert!(collector.counter_points().is_empty());
    }

    #[test]
    fn attached_kernel_counters_reach_spans_and_counter_points() {
        let m = EngineMetrics::new();
        m.push_stage(record("core-point pass:shard"));
        m.attach_kernel_counters(KernelCounters {
            cells_visited: 10,
            bbox_prunes: 2,
            early_exit_hits: 1,
            distance_evals: 500,
        });
        m.push_stage(record("outlier pass:shard"));
        m.attach_kernel_counters(KernelCounters {
            cells_visited: 5,
            bbox_prunes: 0,
            early_exit_hits: 0,
            distance_evals: 300,
        });
        let records = m.stage_records();
        assert_eq!(records[0].kernel.distance_evals, 500);
        assert_eq!(records[1].kernel.cells_visited, 5);
        let collector = TraceCollector::new();
        m.emit_stage_spans(&collector);
        let spans = collector.spans();
        assert!(spans[0]
            .args
            .iter()
            .any(|(k, v)| *k == "distance_evals" && *v == dbscout_telemetry::ArgValue::U64(500)));
        // Counter points are cumulative: the second sample of each name
        // carries the running total, and the totals map holds the max.
        let points = collector.counter_points();
        assert_eq!(points.len(), 8);
        assert!(points.contains(&("distance_evals".to_owned(), 500)));
        assert!(points.contains(&("distance_evals".to_owned(), 800)));
        assert!(collector
            .counters()
            .contains(&("distance_evals".to_owned(), 800)));
    }

    #[test]
    fn concurrent_stage_pushes_are_all_kept() {
        let m = std::sync::Arc::new(EngineMetrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.push_stage(StageRecord::new("x"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().stages, 800);
    }
}
