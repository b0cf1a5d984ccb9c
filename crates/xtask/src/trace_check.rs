//! `cargo xtask check-trace` — structural validation for `dbscout detect
//! --trace-out` Chrome Trace documents.
//!
//! The trace writer emits a JSON array of Trace Event Format objects:
//! complete spans (`"ph": "X"`) and cumulative counter samples
//! (`"ph": "C"`). CI runs this checker against fresh native and
//! distributed traces so a writer regression (unsorted lanes, an undeclared counter
//! name, a span without a duration) fails the build instead of shipping
//! an artifact `chrome://tracing` silently misrenders.

use std::collections::HashMap;

use dbscout_telemetry::json::{parse, Value};
use dbscout_telemetry::KERNEL_COUNTER_NAMES;

fn expect_u64(errors: &mut Vec<String>, obj: &Value, section: &str, key: &str) -> Option<u64> {
    match obj.get(key).and_then(Value::as_u64) {
        Some(v) => Some(v),
        None => {
            errors.push(format!(
                "{section}.{key}: missing or not an unsigned integer"
            ));
            None
        }
    }
}

/// Validates one rendered Chrome Trace. Returns the list of violations;
/// an empty list means the document conforms.
pub fn check_trace(source: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let doc = match parse(source) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let Some(events) = doc.as_array() else {
        return vec!["top level: not an array".to_string()];
    };
    if events.is_empty() {
        errors.push("events: empty (a traced run always records spans)".to_string());
    }

    // Per-(pid, tid) lane high-water mark for complete-event timestamps:
    // the writer sorts globally by ts, so within any single lane the
    // spans must begin in non-decreasing order or the viewer's track
    // layout breaks.
    let mut lane_high_water: HashMap<(u64, u64), u64> = HashMap::new();

    for (i, event) in events.iter().enumerate() {
        let section = format!("events[{i}]");
        if event.as_object().is_none() {
            errors.push(format!("{section}: not an object"));
            continue;
        }
        let name = match event.get("name").and_then(Value::as_str) {
            Some(name) => name,
            None => {
                errors.push(format!("{section}.name: missing or not a string"));
                continue;
            }
        };
        let pid = expect_u64(&mut errors, event, &section, "pid");
        let ts = expect_u64(&mut errors, event, &section, "ts");
        match event.get("ph").and_then(Value::as_str) {
            Some("X") => {
                // Counter events are process-wide; only complete spans
                // carry a thread lane.
                let tid = expect_u64(&mut errors, event, &section, "tid");
                expect_u64(&mut errors, event, &section, "dur");
                if let (Some(pid), Some(tid), Some(ts)) = (pid, tid, ts) {
                    let high = lane_high_water.entry((pid, tid)).or_insert(0);
                    if ts < *high {
                        errors.push(format!(
                            "{section} ({name:?}): ts {ts} regresses below {high} \
                             in lane pid={pid} tid={tid}"
                        ));
                    }
                    *high = (*high).max(ts);
                }
            }
            Some("C") => {
                if !KERNEL_COUNTER_NAMES.contains(&name) {
                    errors.push(format!(
                        "{section}: counter {name:?} is not in the declared kernel \
                         counter taxonomy {KERNEL_COUNTER_NAMES:?}"
                    ));
                }
                match event.get("args").and_then(|a| a.get("value")) {
                    Some(v) if v.as_u64().is_some() => {}
                    _ => errors.push(format!(
                        "{section} ({name:?}): args.value missing or not an unsigned integer"
                    )),
                }
            }
            Some(other) => errors.push(format!(
                "{section} ({name:?}): phase {other:?} is neither \"X\" nor \"C\""
            )),
            None => errors.push(format!("{section} ({name:?}): ph missing or not a string")),
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use dbscout_telemetry::{Recorder, Span, SpanKind, TraceCollector};

    fn real_trace() -> String {
        let c = TraceCollector::new();
        let t = Instant::now();
        c.record_span(Span::new(
            "core-point pass",
            SpanKind::Stage,
            t,
            Duration::from_millis(5),
        ));
        c.record_span(
            Span::new(
                "core-point pass: shard",
                SpanKind::Task,
                t + Duration::from_millis(1),
                Duration::from_millis(2),
            )
            .lane(1),
        );
        c.record_counter_point("distance_evals", t + Duration::from_millis(5), 99);
        c.to_chrome_trace()
    }

    #[test]
    fn writer_output_conforms() {
        let errors = check_trace(&real_trace());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn garbage_and_non_arrays_are_rejected() {
        assert!(!check_trace("not json").is_empty());
        assert!(!check_trace("{\"a\": 1}").is_empty());
        assert!(!check_trace("[]").is_empty());
    }

    #[test]
    fn unknown_phase_and_undeclared_counter_are_rejected() {
        let json = "[{\"name\": \"s\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]";
        let errors = check_trace(json);
        assert!(errors.iter().any(|e| e.contains("neither")), "{errors:?}");

        let json = "[{\"name\": \"bogus_counter\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, \
                     \"ts\": 0, \"args\": {\"value\": 3}}]";
        let errors = check_trace(json);
        assert!(errors.iter().any(|e| e.contains("taxonomy")), "{errors:?}");
    }

    #[test]
    fn counter_without_numeric_value_is_rejected() {
        let json = "[{\"name\": \"distance_evals\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, \
                     \"ts\": 0, \"args\": {\"value\": \"lots\"}}]";
        let errors = check_trace(json);
        assert!(
            errors.iter().any(|e| e.contains("args.value")),
            "{errors:?}"
        );
    }

    #[test]
    fn timestamp_regression_within_a_lane_is_rejected() {
        let json = "[\
            {\"name\": \"a\", \"ph\": \"X\", \"pid\": 7, \"tid\": 1, \"ts\": 10, \"dur\": 1},\
            {\"name\": \"b\", \"ph\": \"X\", \"pid\": 7, \"tid\": 1, \"ts\": 5, \"dur\": 1}]";
        let errors = check_trace(json);
        assert!(errors.iter().any(|e| e.contains("regresses")), "{errors:?}");
        // The same timestamps in different lanes are fine.
        let json = "[\
            {\"name\": \"a\", \"ph\": \"X\", \"pid\": 7, \"tid\": 1, \"ts\": 10, \"dur\": 1},\
            {\"name\": \"b\", \"ph\": \"X\", \"pid\": 8, \"tid\": 1, \"ts\": 5, \"dur\": 1}]";
        assert!(check_trace(json).is_empty());
    }

    #[test]
    fn span_without_duration_is_rejected() {
        let json = "[{\"name\": \"a\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]";
        let errors = check_trace(json);
        assert!(errors.iter().any(|e| e.contains("dur")), "{errors:?}");
    }
}
