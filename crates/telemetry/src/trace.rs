//! A [`Recorder`] that buffers spans and renders a Chrome Trace file.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::JsonWriter;
use crate::span::{ArgValue, Recorder, Span};

/// Buffers spans (and counter totals) in memory and renders them as a
/// Chrome Trace Event Format JSON array — the format consumed by
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// All timestamps are microsecond offsets from the collector's creation
/// instant, so traces from different runs line up at zero.
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, u64>>,
    counter_points: Mutex<Vec<(String, Instant, u64)>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A collector whose time origin is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            counter_points: Mutex::new(Vec::new()),
        }
    }

    /// Number of buffered spans.
    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// A snapshot of the buffered spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Counter totals, sorted by name: the largest sample each counter
    /// reached via [`record_counter_point`](Recorder::record_counter_point).
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Timestamped counter samples recorded via
    /// [`record_counter_point`](Recorder::record_counter_point), in
    /// recording order.
    pub fn counter_points(&self) -> Vec<(String, u64)> {
        self.counter_points
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, _, value)| (name.clone(), *value))
            .collect()
    }

    /// Renders the buffered spans as a Chrome Trace Event Format
    /// document: a JSON array of complete (`"ph": "X"`) events with
    /// microsecond `ts`/`dur`, the span kind as `cat`, `pid` 1, the
    /// lane as `tid`, and the span's key-value arguments under
    /// `args` — followed by one counter (`"ph": "C"`) event per
    /// recorded counter sample. Events are ordered by start time (ties
    /// broken by name) so concurrent recording order does not leak into
    /// the file.
    pub fn to_chrome_trace(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.lane.cmp(&b.lane))
        });
        let mut w = JsonWriter::new();
        w.begin_array();
        for span in &spans {
            let ts = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
            let dur = span.duration.as_micros() as u64;
            w.begin_object();
            w.field_str("name", &span.name);
            w.field_str("cat", span.kind.category());
            w.field_str("ph", "X");
            w.field_u64("ts", ts);
            w.field_u64("dur", dur);
            w.field_u64("pid", 1);
            w.field_u64("tid", span.lane);
            w.begin_object_field("args");
            for (key, value) in &span.args {
                match value {
                    ArgValue::U64(v) => w.field_u64(key, *v),
                    ArgValue::Bool(v) => w.field_bool(key, *v),
                    ArgValue::Str(v) => w.field_str(key, v),
                };
            }
            w.end_object();
            w.end_object();
        }
        let mut points = self
            .counter_points
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        points.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (name, at, value) in &points {
            let ts = at.saturating_duration_since(self.epoch).as_micros() as u64;
            w.begin_object();
            w.field_str("name", name);
            w.field_str("ph", "C");
            w.field_u64("ts", ts);
            w.field_u64("pid", 1);
            w.begin_object_field("args");
            w.field_u64("value", *value);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

impl Recorder for TraceCollector {
    fn record_span(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    fn record_counter_point(&self, name: &str, at: Instant, value: u64) {
        self.counter_points
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((name.to_owned(), at, value));
        // The running total also lands in the totals map (cumulative
        // samples are monotone, so the max across points is the total).
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = counters.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::span::SpanKind;
    use std::time::Duration;

    #[test]
    fn chrome_trace_is_valid_json_with_required_fields() {
        let collector = TraceCollector::new();
        let t0 = collector.epoch;
        collector.record_span(
            Span::new(
                "grid partitioning",
                SpanKind::Phase,
                t0,
                Duration::from_millis(5),
            )
            .arg("cells", 16usize),
        );
        collector.record_span(
            Span::new(
                "map_partitions",
                SpanKind::Task,
                t0 + Duration::from_micros(100),
                Duration::from_micros(900),
            )
            .lane(3)
            .arg("partition", 2usize)
            .arg("outcome", "success"),
        );
        let doc = parse(&collector.to_chrome_trace()).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_u64().is_some());
            assert!(ev.get("dur").unwrap().as_u64().is_some());
            assert!(ev.get("name").unwrap().as_str().is_some());
            assert!(matches!(ev.get("args"), Some(Value::Object(_))));
        }
        let phase = &events[0];
        assert_eq!(
            phase.get("name").unwrap().as_str(),
            Some("grid partitioning")
        );
        assert_eq!(phase.get("cat").unwrap().as_str(), Some("phase"));
        assert_eq!(phase.get("ts").unwrap().as_u64(), Some(0));
        let task = &events[1];
        assert_eq!(task.get("tid").unwrap().as_u64(), Some(3));
        assert_eq!(task.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(task.get("dur").unwrap().as_u64(), Some(900));
        assert_eq!(
            task.get("args").unwrap().get("partition").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            task.get("args").unwrap().get("outcome").unwrap().as_str(),
            Some("success")
        );
    }

    #[test]
    fn events_are_sorted_by_start_time() {
        let collector = TraceCollector::new();
        let t0 = collector.epoch;
        collector.record_span(Span::new(
            "later",
            SpanKind::Stage,
            t0 + Duration::from_millis(2),
            Duration::from_millis(1),
        ));
        collector.record_span(Span::new(
            "earlier",
            SpanKind::Stage,
            t0,
            Duration::from_millis(1),
        ));
        let doc = parse(&collector.to_chrome_trace()).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("earlier"));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("later"));
    }

    #[test]
    fn counter_points_render_as_counter_events() {
        let collector = TraceCollector::new();
        let t0 = collector.epoch;
        collector.record_counter_point("distance_evals", t0 + Duration::from_micros(50), 120);
        collector.record_counter_point("distance_evals", t0 + Duration::from_micros(10), 40);
        let doc = parse(&collector.to_chrome_trace()).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Counter events are sorted by timestamp and carry args.value.
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(events[0].get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_u64(),
            Some(40)
        );
        assert_eq!(events[1].get("ts").unwrap().as_u64(), Some(50));
        // The totals map holds the cumulative maximum, not the sum.
        assert_eq!(
            collector.counters(),
            vec![("distance_evals".to_owned(), 120)]
        );
    }
}
