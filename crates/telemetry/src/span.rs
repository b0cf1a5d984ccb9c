//! The span model and the [`Recorder`] trait producers emit into.

use std::time::{Duration, Instant};

/// What layer of the stack a span describes. Rendered as the Chrome
/// Trace `cat` field, so Perfetto can filter by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One paper phase of a detector run (e.g. `"core-point pass"`).
    Phase,
    /// One executor stage (all tasks of one transformation step).
    Stage,
    /// One task attempt on one partition.
    Task,
}

impl SpanKind {
    /// The Chrome Trace `cat` string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Phase => "phase",
            SpanKind::Stage => "stage",
            SpanKind::Task => "task",
        }
    }
}

/// A typed span argument value (rendered into the trace `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned counter (partition index, record count, …).
    U64(u64),
    /// A flag (e.g. `speculative`).
    Bool(bool),
    /// A short string (e.g. a task outcome).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

/// One completed span: a named interval with a kind, a lane, and
/// key-value arguments.
///
/// Spans are only constructed when a recorder is installed; the disabled
/// path never allocates one.
#[derive(Debug, Clone)]
pub struct Span {
    /// Human-readable name (stage label, phase name, …).
    pub name: String,
    /// Which layer of the stack this span describes.
    pub kind: SpanKind,
    /// When the interval started.
    pub start: Instant,
    /// How long the interval lasted.
    pub duration: Duration,
    /// Rendering lane (worker index for tasks, 0 for driver-side spans).
    /// Becomes the Chrome Trace `tid`.
    pub lane: u64,
    /// Extra key-value arguments (partition, attempt, outcome, volumes).
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// A completed span that started at `start` and lasted `duration`.
    pub fn new(
        name: impl Into<String>,
        kind: SpanKind,
        start: Instant,
        duration: Duration,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            start,
            duration,
            lane: 0,
            args: Vec::new(),
        }
    }

    /// Sets the rendering lane (Chrome Trace `tid`).
    #[must_use]
    pub fn lane(mut self, lane: u64) -> Self {
        self.lane = lane;
        self
    }

    /// Attaches one key-value argument.
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// The sink spans and counters are emitted into.
///
/// Implementations must be cheap and thread-safe: the dataflow executor
/// calls [`record_span`](Recorder::record_span) once per task attempt
/// from every worker thread. Producers hold `Option<&dyn Recorder>` —
/// when no recorder is installed nothing is allocated or locked.
pub trait Recorder: Send + Sync {
    /// Records one completed span.
    fn record_span(&self, span: Span);

    /// Records a timestamped *cumulative* sample of a named counter
    /// (rendered as a Chrome Trace `"ph": "C"` event): `value` is the
    /// counter's running total at `at`, not a delta. The default
    /// discards it; collectors that only care about spans need not
    /// override.
    fn record_counter_point(&self, _name: &str, _at: Instant, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_builder_sets_fields() {
        let t = Instant::now();
        let s = Span::new(
            "core-point pass",
            SpanKind::Phase,
            t,
            Duration::from_millis(3),
        )
        .lane(7)
        .arg("partition", 4usize)
        .arg("speculative", true)
        .arg("outcome", "success");
        assert_eq!(s.name, "core-point pass");
        assert_eq!(s.kind.category(), "phase");
        assert_eq!(s.lane, 7);
        assert_eq!(s.args.len(), 3);
        assert_eq!(s.args[0], ("partition", ArgValue::U64(4)));
        assert_eq!(s.args[1], ("speculative", ArgValue::Bool(true)));
        assert_eq!(s.args[2], ("outcome", ArgValue::Str("success".into())));
    }

    #[test]
    fn kind_categories_are_distinct() {
        assert_eq!(SpanKind::Phase.category(), "phase");
        assert_eq!(SpanKind::Stage.category(), "stage");
        assert_eq!(SpanKind::Task.category(), "task");
    }
}
