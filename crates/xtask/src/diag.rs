//! Lint diagnostics: the finding record plus rustc-style and JSON
//! rendering.

use std::fmt::Write as _;

/// Stable identifiers of the lint rules.
///
/// * `XL000` — malformed `xtask-lint` control comment
/// * `XL001` — panic-freedom (no `unwrap`/`expect`/`panic!`/`todo!`/
///   `unreachable!`/slice indexing in library code)
/// * `XL002` — float-comparison discipline (no `==`/`!=` on floats, no
///   raw distance-vs-threshold comparisons outside the distance helpers)
/// * `XL003` — parameter-validation coverage (public functions taking raw
///   `eps`/`min_pts` must reach a validation call)
/// * `XL004` — error-type hygiene (`Display` + `std::error::Error` +
///   `Send + Sync` assertion for every public error type)
/// * `XL005` — `catch_unwind` confinement (the dataflow executor is the
///   only sanctioned panic boundary)
/// * `XL006` — stdout discipline (no `print!`/`println!`/`eprintln!` in
///   library crates)
/// * `XL007` — determinism (no iteration over hash-ordered maps/sets in
///   result-affecting paths; waived per site with an ordered directive)
/// * `XL008` — lock discipline (all executor locking goes through
///   `lock_unpoisoned`; no guard held across a task boundary)
/// * `XL009` — atomic-ordering discipline (no `Ordering::Relaxed` on
///   atomic loads/stores that gate cross-thread visibility)
/// * `XL010` — kernel-lane confinement (unrolled/SIMD distance loops and
///   architecture intrinsics only in `crates/spatial/src/distance.rs`
///   and `cell_major.rs`)
pub const ALL_RULES: [&str; 11] = [
    "XL000", "XL001", "XL002", "XL003", "XL004", "XL005", "XL006", "XL007", "XL008", "XL009",
    "XL010",
];

/// Rationale and waiver syntax for one rule, shown by
/// `cargo xtask lint --explain XLNNN`. Every rule in [`ALL_RULES`] has an
/// entry — a self-test enforces it.
pub fn explain(rule: &str) -> Option<&'static str> {
    let text = match rule {
        "XL000" => {
            "XL000 — malformed lint control comment\n\
             \n\
             A comment that looks like a lint directive but does not parse is\n\
             reported instead of being silently ignored: a typo in a waiver must\n\
             not re-enable a finding without anyone noticing.\n\
             \n\
             Valid forms:\n\
               // xtask-lint: allow(XL001[, XL002]) -- <non-empty reason>\n\
               // xlint: ordered -- <non-empty reason>\n\
             Both suppress findings on their own line and the line below."
        }
        "XL001" => {
            "XL001 — panic freedom\n\
             \n\
             Library crates on the detection path (core, spatial, dataflow) must\n\
             not panic: `unwrap`/`expect`/`panic!`/`todo!`/`unreachable!` and\n\
             slice indexing are flagged. Panics abort whole detection runs and\n\
             poison executor state.\n\
             \n\
             Waive a proven-safe site with:\n\
               // xtask-lint: allow(XL001) -- <why the operation cannot fail>"
        }
        "XL002" => {
            "XL002 — float-comparison discipline\n\
             \n\
             `==`/`!=` on floats and raw distance-vs-threshold comparisons\n\
             outside the distance helpers are flagged. DBSCOUT's exactness\n\
             guarantee hinges on every eps-comparison going through one audited\n\
             predicate (squared distance vs squared eps).\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL002) -- <why this comparison is exact>"
        }
        "XL003" => {
            "XL003 — parameter-validation coverage\n\
             \n\
             Public core functions taking raw `eps`/`min_pts` must reach a\n\
             validation call before using them; NaN or non-positive eps must be\n\
             rejected at the API boundary, not deep in a kernel.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL003) -- <where validation happens instead>"
        }
        "XL004" => {
            "XL004 — error-type hygiene\n\
             \n\
             Every public error type needs `Display`, `std::error::Error` and a\n\
             `Send + Sync` assertion so errors can cross thread boundaries in\n\
             the executor and compose with `?`.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL004) -- <why the type is exempt>"
        }
        "XL005" => {
            "XL005 — catch_unwind confinement\n\
             \n\
             `std::panic::catch_unwind` is flagged everywhere except the\n\
             dataflow executor, the one sanctioned panic boundary. Scattered\n\
             recovery sites hide bugs and break the fault-injection story.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL005) -- <why another boundary is needed>"
        }
        "XL006" => {
            "XL006 — stdout discipline\n\
             \n\
             `print!`/`println!`/`eprint!`/`eprintln!` are flagged in library\n\
             crates; human-facing output belongs to the CLI, telemetry goes\n\
             through the tracing layer. Stray prints corrupt `--json` output.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL006) -- <why this print is sanctioned>"
        }
        "XL007" => {
            "XL007 — determinism (hash-ordered iteration)\n\
             \n\
             Iterating a `HashMap`/`HashSet`/`DetHashMap` yields entries in\n\
             hash-layout order. Where that order can reach results or shuffle\n\
             payloads it threatens the byte-identical-labels guarantee, so\n\
             iteration sites (`iter`, `keys`, `values`, `into_iter`, `drain`,\n\
             `retain`, `for .. in map`) over hash-typed bindings are flagged in\n\
             core/spatial/dataflow.\n\
             \n\
             Fix by draining through a sorted order (see\n\
             `dbscout_dataflow::shuffle::drain_by_key_hash`) or switching to an\n\
             ordered container. A site proven order-insensitive (pure counts,\n\
             sums, min/max, or immediately sorted) is waived per site with:\n\
               // xlint: ordered -- <why order cannot affect results>\n\
             The reason is mandatory; waivers are audited in review."
        }
        "XL008" => {
            "XL008 — lock discipline\n\
             \n\
             Inside the dataflow crate every `lock()`/`try_lock()` must go\n\
             through `executor::lock_unpoisoned`, which recovers the guard from\n\
             a poisoned mutex so one panicking task cannot wedge the stage.\n\
             A `lock_unpoisoned` guard bound to a local must also be dropped\n\
             before task-boundary calls (`spawn`, `scope`, `join`,\n\
             `catch_unwind`, `sleep`): holding a guard across them invites\n\
             deadlock and serializes the very work the executor parallelizes.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL008) -- <why the guard is safe here>"
        }
        "XL009" => {
            "XL009 — atomic-ordering discipline\n\
             \n\
             `Ordering::Relaxed` on an atomic `load`/`store` is flagged in\n\
             core/spatial/dataflow: Relaxed gives no happens-before edge, so a\n\
             Relaxed flag or counter read can observe stale state across\n\
             threads. Use Acquire for loads and Release for stores that gate\n\
             cross-thread visibility (the executor's `settled` counter is the\n\
             model). Monotonic tallies only folded after a `thread::scope` join\n\
             may keep Relaxed read-modify-writes (`fetch_add` is not flagged).\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL009) -- <the happens-before argument>"
        }
        "XL010" => {
            "XL010 — kernel-lane confinement\n\
             \n\
             Explicit lane-unrolled loops and architecture intrinsics are\n\
             audited against the `sq_dist` oracle in exactly two places:\n\
             `crates/spatial/src/distance.rs` (the lane kernels) and\n\
             `cell_major.rs` (the slot-order block drain that keeps the\n\
             counters a slot-at-a-time loop's). Everywhere else,\n\
             `std::arch`/`core::arch` paths, `target_feature` gates, and\n\
             functions named `*unrolled*` or `*simd*` are flagged: a stray\n\
             hand-vectorized loop bypasses the oracle tests and threatens\n\
             the byte-identical labels guarantee. Call\n\
             `CellMajorStore::count_within` or its siblings instead.\n\
             \n\
             Waive with:\n\
               // xtask-lint: allow(XL010) -- <why this site is pinned>"
        }
        _ => return None,
    };
    Some(text)
}

/// One lint finding, anchored to a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`XL001`, ...).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    /// Renders the finding in the familiar rustc error layout.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "error[{}]: {}", self.rule, self.message);
        let _ = writeln!(out, "  --> {}:{}:{}", self.file, self.line, self.col);
        if !self.help.is_empty() {
            let _ = writeln!(out, "   = help: {}", self.help);
        }
        out
    }

    /// Renders the finding as a JSON object.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"help\":{}}}",
            json_str(self.rule),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.message),
            json_str(&self.help),
        )
    }
}

/// Renders a full report: one JSON document with every finding, suitable
/// for machine consumption in CI.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let rules: Vec<String> = ALL_RULES.iter().map(|r| json_str(r)).collect();
    let items: Vec<String> = diags.iter().map(Diagnostic::render_json).collect();
    format!(
        "{{\"rules\":[{}],\"findings\":[{}],\"count\":{}}}",
        rules.join(","),
        items.join(","),
        diags.len()
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "XL001",
            file: "crates/core/src/native.rs".into(),
            line: 42,
            col: 7,
            message: "`.unwrap()` in library code".into(),
            help: "propagate with `?`".into(),
        }
    }

    #[test]
    fn human_rendering_has_location() {
        let r = sample().render_human();
        assert!(r.contains("error[XL001]"));
        assert!(r.contains("crates/core/src/native.rs:42:7"));
    }

    #[test]
    fn json_rendering_escapes() {
        let mut d = sample();
        d.message = "a \"quoted\" message".into();
        let j = d.render_json();
        assert!(j.contains("\\\"quoted\\\""));
        let report = render_json_report(&[d]);
        assert!(report.ends_with("\"count\":1}"));
    }

    #[test]
    fn report_advertises_the_rule_set() {
        let report = render_json_report(&[]);
        assert!(report.starts_with("{\"rules\":["));
        for rule in ALL_RULES {
            assert!(report.contains(&format!("\"{rule}\"")), "{rule} missing");
        }
    }

    #[test]
    fn every_shipped_rule_has_an_explanation() {
        for rule in ALL_RULES {
            let text = explain(rule).unwrap_or_else(|| panic!("{rule} lacks an explanation"));
            assert!(
                text.starts_with(rule),
                "{rule} explanation must lead with the id"
            );
            assert!(
                text.contains("xtask-lint: allow") || text.contains("xlint: ordered"),
                "{rule} explanation must show the waiver syntax"
            );
        }
    }

    #[test]
    fn unknown_rule_has_no_explanation() {
        assert!(explain("XL999").is_none());
        assert!(explain("").is_none());
    }
}
