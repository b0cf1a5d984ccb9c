//! Live progress reporting for `--progress`: a [`Recorder`] that turns
//! the engine's span stream into rate-limited stderr lines.
//!
//! This lives in the CLI binary on purpose — library crates are
//! print-free (lint XL006); the only place allowed to talk to a
//! terminal is this binary.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dbscout_telemetry::{Recorder, Span, SpanKind};

/// Minimum gap between two progress lines, so a stage with thousands of
/// short tasks cannot flood stderr.
const MIN_INTERVAL: Duration = Duration::from_millis(100);

#[derive(Default)]
struct State {
    /// Label of the most recently completed task span.
    stage: String,
    /// Task spans seen so far (attempts, including speculative ones).
    tasks: u64,
    /// When the last line was written; `None` before the first.
    last_emit: Option<Instant>,
}

/// Streams coarse progress (current stage, tasks completed) to stderr as
/// the engine records task spans.
pub struct ProgressReporter {
    state: Mutex<State>,
}

impl ProgressReporter {
    /// A reporter with no progress observed yet.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State::default()),
        }
    }

    /// Emits a line if enough time has passed since the previous one
    /// (or `force`, on a stage change).
    fn emit(&self, state: &mut State, force: bool) {
        let now = Instant::now();
        let due = state
            .last_emit
            .is_none_or(|last| now.duration_since(last) >= MIN_INTERVAL);
        if !(force || due) {
            return;
        }
        state.last_emit = Some(now);
        eprintln!(
            "progress: {} — {} task(s) done",
            if state.stage.is_empty() {
                "starting"
            } else {
                &state.stage
            },
            state.tasks,
        );
    }
}

impl Default for ProgressReporter {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for ProgressReporter {
    fn record_span(&self, span: Span) {
        if span.kind != SpanKind::Task {
            return;
        }
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        let stage_changed = state.stage != span.name;
        if stage_changed {
            state.stage = span.name;
        }
        state.tasks += 1;
        self.emit(&mut state, stage_changed);
    }
}

/// Fans every recorder event out to several sinks, so `--progress` can
/// ride alongside `--trace-out`/`--report-json` collection.
pub struct TeeRecorder {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// A recorder forwarding to all of `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> Self {
        Self { sinks }
    }
}

impl Recorder for TeeRecorder {
    fn record_span(&self, span: Span) {
        for sink in &self.sinks {
            sink.record_span(span.clone());
        }
    }

    fn record_counter_point(&self, name: &str, at: Instant, value: u64) {
        for sink in &self.sinks {
            sink.record_counter_point(name, at, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn task_spans_update_state() {
        let p = ProgressReporter::new();
        let t = Instant::now();
        for i in 0..3 {
            p.record_span(
                Span::new("core-point pass: shard", SpanKind::Task, t, Duration::ZERO)
                    .arg("partition", i as u64),
            );
        }
        // Non-task spans are ignored.
        p.record_span(Span::new(
            "core-point pass",
            SpanKind::Stage,
            t,
            Duration::ZERO,
        ));
        let state = p.state.lock().unwrap();
        assert_eq!(state.stage, "core-point pass: shard");
        assert_eq!(state.tasks, 3);
    }

    #[test]
    fn tee_forwards_to_every_sink() {
        let a = Arc::new(dbscout_telemetry::TraceCollector::new());
        let b = Arc::new(dbscout_telemetry::TraceCollector::new());
        let tee = TeeRecorder::new(vec![
            Arc::clone(&a) as Arc<dyn Recorder>,
            Arc::clone(&b) as Arc<dyn Recorder>,
        ]);
        let t = Instant::now();
        tee.record_span(Span::new("s", SpanKind::Task, t, Duration::ZERO));
        tee.record_counter_point("distance_evals", t, 42);
        for c in [&a, &b] {
            let trace = c.to_chrome_trace();
            assert!(trace.contains("\"s\""), "{trace}");
            assert!(trace.contains("distance_evals"), "{trace}");
        }
    }
}
