//! `cargo xtask check-report` — schema validation for `dbscout detect
//! --report-json` documents.
//!
//! The checker is structural: it parses the document with the same
//! hand-rolled JSON parser the report writer round-trips through, then
//! verifies the schema version and that every section carries exactly
//! the fields the writer emits, with the right primitive types. CI runs
//! it against a fresh report so a writer/schema drift fails the build
//! rather than silently shipping malformed artifacts.

use dbscout_telemetry::json::{parse, Value};
use dbscout_telemetry::REPORT_SCHEMA_VERSION;

/// Keys every `stages[]` entry must carry (besides the string `label`).
/// The trailing four are the kernel work counters added in schema v4.
const STAGE_COUNTERS: [&str; 17] = [
    "tasks",
    "records_in",
    "records_out",
    "shuffle_records",
    "shuffle_bytes",
    "join_output_records",
    "task_retries",
    "speculative_launches",
    "speculative_wins",
    "injected_faults",
    "task_duration_p50_us",
    "task_duration_p95_us",
    "task_duration_max_us",
    "cells_visited",
    "bbox_prunes",
    "early_exit_hits",
    "distance_evals",
];

/// Keys the `totals` object must carry. Schema v4 added the four kernel
/// work counters (thread-invariant).
const TOTALS_COUNTERS: [&str; 19] = [
    "stages",
    "tasks",
    "records_in",
    "records_out",
    "shuffle_records",
    "shuffle_bytes",
    "broadcasts",
    "join_output_records",
    "task_retries",
    "speculative_launches",
    "speculative_wins",
    "injected_faults",
    "outliers",
    "peak_rss_bytes",
    "wall_clock_us",
    "cells_visited",
    "bbox_prunes",
    "early_exit_hits",
    "distance_evals",
];

/// Keys the optional `serve` section must carry (schema v6; `dbscout
/// serve` sessions only — batch reports omit the section entirely).
const SERVE_COUNTERS: [&str; 9] = [
    "queries",
    "probes",
    "inserts",
    "removes",
    "outlier_queries",
    "stats_queries",
    "errors",
    "rebuilds",
    "compactions",
];

fn expect_u64(errors: &mut Vec<String>, obj: &Value, section: &str, key: &str) {
    match obj.get(key) {
        Some(v) if v.as_u64().is_some() => {}
        Some(_) => errors.push(format!("{section}.{key}: not an unsigned integer")),
        None => errors.push(format!("{section}.{key}: missing")),
    }
}

fn expect_str(errors: &mut Vec<String>, obj: &Value, section: &str, key: &str) {
    match obj.get(key) {
        Some(v) if v.as_str().is_some() => {}
        Some(_) => errors.push(format!("{section}.{key}: not a string")),
        None => errors.push(format!("{section}.{key}: missing")),
    }
}

/// Validates one rendered run report. Returns the list of schema
/// violations; an empty list means the document conforms.
pub fn check_report(source: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let doc = match parse(source) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if doc.as_object().is_none() {
        return vec!["top level: not an object".to_string()];
    }

    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(v) if v == REPORT_SCHEMA_VERSION => {}
        Some(v) => errors.push(format!(
            "schema_version: got {v}, this checker understands {REPORT_SCHEMA_VERSION}"
        )),
        None => errors.push("schema_version: missing or not an unsigned integer".to_string()),
    }

    match doc.get("dataset") {
        Some(dataset) if dataset.as_object().is_some() => {
            expect_str(&mut errors, dataset, "dataset", "source");
            expect_u64(&mut errors, dataset, "dataset", "points");
            expect_u64(&mut errors, dataset, "dataset", "dimensions");
        }
        _ => errors.push("dataset: missing or not an object".to_string()),
    }

    match doc.get("params") {
        Some(params) if params.as_object().is_some() => {
            expect_str(&mut errors, params, "params", "engine");
            match params.get("eps").and_then(Value::as_f64) {
                Some(eps) if eps.is_finite() && eps > 0.0 => {}
                Some(_) => errors.push("params.eps: not finite-positive".to_string()),
                None => errors.push("params.eps: missing or not a number".to_string()),
            }
            expect_u64(&mut errors, params, "params", "min_pts");
            expect_u64(&mut errors, params, "params", "partitions");
            expect_u64(&mut errors, params, "params", "workers");
            // Schema v5: the resolved thread count (v8 dropped `kernel`).
            expect_u64(&mut errors, params, "params", "threads");
            // Either a seed or the literal string "none".
            match params.get("chaos_seed") {
                Some(v) if v.as_u64().is_some() || v.as_str() == Some("none") => {}
                Some(_) => {
                    errors.push("params.chaos_seed: neither a seed nor \"none\"".to_string())
                }
                None => errors.push("params.chaos_seed: missing".to_string()),
            }
        }
        _ => errors.push("params: missing or not an object".to_string()),
    }

    match doc.get("phases").and_then(Value::as_array) {
        Some(phases) => {
            if phases.is_empty() {
                errors.push("phases: empty (a run always has phases)".to_string());
            }
            for (i, phase) in phases.iter().enumerate() {
                let section = format!("phases[{i}]");
                expect_str(&mut errors, phase, &section, "name");
                expect_u64(&mut errors, phase, &section, "wall_clock_us");
            }
        }
        None => errors.push("phases: missing or not an array".to_string()),
    }

    match doc.get("stages").and_then(Value::as_array) {
        Some(stages) => {
            for (i, stage) in stages.iter().enumerate() {
                let section = format!("stages[{i}]");
                expect_str(&mut errors, stage, &section, "label");
                for key in STAGE_COUNTERS {
                    expect_u64(&mut errors, stage, &section, key);
                }
            }
        }
        None => errors.push("stages: missing or not an array".to_string()),
    }

    // The serve section is optional (present only for `dbscout serve`
    // sessions) but fully validated when present. Internal consistency:
    // `queries` counts every answered request, so it can never be
    // smaller than the sum of the per-op counts it breaks down into.
    if let Some(serve) = doc.get("serve") {
        if serve.as_object().is_some() {
            for key in SERVE_COUNTERS {
                expect_u64(&mut errors, serve, "serve", key);
            }
            let op_sum: u64 = [
                "probes",
                "inserts",
                "removes",
                "outlier_queries",
                "stats_queries",
                "errors",
            ]
            .iter()
            .filter_map(|k| serve.get(k).and_then(Value::as_u64))
            .sum();
            if let Some(queries) = serve.get("queries").and_then(Value::as_u64) {
                if queries < op_sum {
                    errors.push(format!(
                        "serve.queries: {queries} but the per-op counts sum to {op_sum}"
                    ));
                }
            }
        } else {
            errors.push("serve: not an object".to_string());
        }
    }

    match doc.get("totals") {
        Some(totals) if totals.as_object().is_some() => {
            for key in TOTALS_COUNTERS {
                expect_u64(&mut errors, totals, "totals", key);
            }
            // Internal consistency: totals.stages counts the stages array.
            if let (Some(n), Some(stages)) = (
                totals.get("stages").and_then(Value::as_u64),
                doc.get("stages").and_then(Value::as_array),
            ) {
                if n != stages.len() as u64 {
                    errors.push(format!(
                        "totals.stages: {n} but the stages array has {} entries",
                        stages.len()
                    ));
                }
            }
        }
        _ => errors.push("totals: missing or not an object".to_string()),
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscout_telemetry::{
        DatasetEcho, ParamsEcho, PhaseReport, RunReport, StageReport, TotalsReport,
    };

    fn valid_report() -> RunReport {
        RunReport {
            dataset: DatasetEcho {
                source: "blobs.csv".to_owned(),
                points: 100,
                dimensions: 2,
            },
            params: ParamsEcho {
                engine: "distributed".to_owned(),
                eps: 0.5,
                min_pts: 4,
                partitions: 8,
                workers: 4,
                threads: 4,
                chaos_seed: None,
            },
            phases: vec![PhaseReport {
                name: "grid partitioning".to_owned(),
                wall_clock_us: 10,
            }],
            stages: vec![StageReport {
                label: "grid partitioning:map_partitions".to_owned(),
                tasks: 8,
                ..StageReport::default()
            }],
            serve: None,
            totals: TotalsReport {
                stages: 1,
                tasks: 8,
                ..TotalsReport::default()
            },
        }
    }

    #[test]
    fn writer_output_conforms() {
        let errors = check_report(&valid_report().to_json());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn garbage_and_non_objects_are_rejected() {
        assert!(!check_report("not json").is_empty());
        assert!(!check_report("[1, 2]").is_empty());
    }

    #[test]
    fn missing_sections_are_each_reported() {
        let errors = check_report(&format!("{{\"schema_version\": {REPORT_SCHEMA_VERSION}}}"));
        for section in ["dataset", "params", "phases", "stages", "totals"] {
            assert!(
                errors.iter().any(|e| e.starts_with(section)),
                "no error for {section}: {errors:?}"
            );
        }
    }

    #[test]
    fn serve_section_is_validated_when_present() {
        use dbscout_telemetry::ServeReport;

        let mut report = valid_report();
        report.serve = Some(ServeReport {
            queries: 13,
            probes: 5,
            inserts: 3,
            removes: 2,
            outlier_queries: 1,
            stats_queries: 1,
            errors: 0,
            rebuilds: 4,
            compactions: 1,
        });
        let errors = check_report(&report.to_json());
        assert!(errors.is_empty(), "{errors:?}");

        // A query total smaller than its per-op breakdown is a violation.
        if let Some(s) = &mut report.serve {
            s.queries = 3;
        }
        let errors = check_report(&report.to_json());
        assert!(
            errors.iter().any(|e| e.contains("serve.queries")),
            "{errors:?}"
        );

        // A serve entry missing a counter is caught.
        if let Some(s) = &mut report.serve {
            s.queries = 13;
        }
        let json = report
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"compactions\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!check_report(&json).is_empty());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let json = valid_report().to_json().replacen(
            &format!("\"schema_version\": {REPORT_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
            1,
        );
        let errors = check_report(&json);
        assert!(
            errors.iter().any(|e| e.contains("schema_version")),
            "{errors:?}"
        );
    }

    #[test]
    fn totals_stage_count_mismatch_is_rejected() {
        let mut report = valid_report();
        report.totals.stages = 7;
        let errors = check_report(&report.to_json());
        assert!(
            errors.iter().any(|e| e.contains("totals.stages")),
            "{errors:?}"
        );
    }

    #[test]
    fn stage_missing_counter_is_rejected() {
        let json = valid_report()
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"speculative_wins\""))
            .collect::<Vec<_>>()
            .join("\n");
        // Removing a line leaves valid JSON here because the next line
        // continues the object; if it ever doesn't, the parse error is
        // still a non-empty finding.
        let errors = check_report(&json);
        assert!(!errors.is_empty());
    }
}
