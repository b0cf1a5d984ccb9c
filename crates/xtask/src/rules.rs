//! The DBSCOUT lint rules, implemented as token scans over the
//! [`crate::lexer::Cleaned`] text (see module docs there for why this is
//! not AST-based).

use crate::diag::Diagnostic;
use crate::lexer::Cleaned;

/// Which rule families apply to the file being linted. Derived from the
/// file's path by [`crate::scope_for`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// XL001: panic-freedom (core, spatial, dataflow library code).
    pub panic_freedom: bool,
    /// XL002: `==`/`!=` on floats (same crates, minus `distance.rs`).
    pub float_eq: bool,
    /// XL002: raw `dist`/`sq_dist` threshold comparisons (core, dataflow).
    pub distance_predicate: bool,
    /// XL003: parameter-validation coverage (core).
    pub param_validation: bool,
    /// XL004: error-type hygiene (every `error.rs`).
    pub error_hygiene: bool,
    /// XL005: `catch_unwind` confinement (everywhere except the dataflow
    /// executor, where panic recovery is the task boundary).
    pub catch_unwind: bool,
    /// XL006: no `println!`/`eprintln!` in library crates — diagnostics
    /// go through the telemetry recorder or returned values, never
    /// straight to the process streams.
    pub no_stdout: bool,
    /// XL007: no hash-ordered iteration in result-affecting paths
    /// (core, spatial, dataflow library code).
    pub determinism: bool,
    /// XL008: all locking through `lock_unpoisoned`, no guard held
    /// across a task boundary (the dataflow crate).
    pub lock_discipline: bool,
    /// XL009: no `Ordering::Relaxed` on atomic loads/stores (core,
    /// spatial, dataflow library code).
    pub atomic_ordering: bool,
    /// XL010: kernel-lane confinement — unrolled/SIMD distance loops and
    /// architecture intrinsics live only in `crates/spatial/src/
    /// distance.rs` and `cell_major.rs`.
    pub kernel_lane: bool,
}

fn at(b: &[u8], i: usize) -> u8 {
    b.get(i).copied().unwrap_or(0)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn prev_non_ws(b: &[u8], i: usize) -> u8 {
    prev_non_ws_pos(b, i).0
}

/// The previous non-whitespace byte before `i` and its position.
fn prev_non_ws_pos(b: &[u8], mut i: usize) -> (u8, usize) {
    while i > 0 {
        i -= 1;
        let c = at(b, i);
        if !c.is_ascii_whitespace() {
            return (c, i);
        }
    }
    (0, 0)
}

/// The identifier run whose last byte is the previous non-whitespace
/// character before `i` (empty if that character is not an ident byte).
fn ident_ending_before(b: &[u8], mut i: usize) -> &[u8] {
    while i > 0 && at(b, i - 1).is_ascii_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_byte(at(b, i - 1)) {
        i -= 1;
    }
    b.get(i..end).unwrap_or_default()
}

fn next_non_ws(b: &[u8], mut i: usize) -> (u8, usize) {
    while i < b.len() {
        let c = at(b, i);
        if !c.is_ascii_whitespace() {
            return (c, i);
        }
        i += 1;
    }
    (0, b.len())
}

/// Byte offset just past the brace that matches the `{` at `open`.
fn matching_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match at(b, i) {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Spans of `#[cfg(test)]`-gated code: the attribute through the matching
/// close brace of the item it gates (or through the `;` for gated
/// declarations). Code inside is exempt from XL001–XL003.
pub fn test_spans(c: &Cleaned) -> Vec<(usize, usize)> {
    const NEEDLE: &[u8] = b"#[cfg(test)]";
    let b = &c.text;
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find(b, NEEDLE, from) {
        let mut i = pos + NEEDLE.len();
        // Walk to the gated item's opening brace, or a `;` ending it.
        while i < b.len() && at(b, i) != b'{' && at(b, i) != b';' {
            i += 1;
        }
        let end = if at(b, i) == b'{' {
            matching_brace(b, i)
        } else {
            i + 1
        };
        spans.push((pos, end));
        from = end.max(pos + 1);
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], pos: usize) -> bool {
    spans.iter().any(|&(a, z)| a <= pos && pos < z)
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let tail = haystack.get(from..)?;
    tail.windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

/// Identifiers in cleaned text as `(start, end)` byte spans. Runs that
/// start with a digit (numeric literals like `0xE001`) are consumed but
/// not reported.
fn idents(b: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = at(b, i);
        if is_ident_byte(c) {
            let start = i;
            while i < b.len() && is_ident_byte(at(b, i)) {
                i += 1;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                out.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    out
}

fn emit(
    out: &mut Vec<Diagnostic>,
    c: &Cleaned,
    file: &str,
    rule: &'static str,
    pos: usize,
    message: String,
    help: &str,
) {
    let line = c.line_of(pos);
    if c.allowed(rule, line) {
        return;
    }
    out.push(Diagnostic {
        rule,
        file: file.to_string(),
        line,
        col: c.col_of(pos),
        message,
        help: help.to_string(),
    });
}

/// XL001 — panic-freedom: no `.unwrap()`, `.expect(...)`, `panic!`,
/// `todo!`, `unreachable!`, `unimplemented!` or slice indexing `x[i]` in
/// library code.
pub fn panic_freedom(c: &Cleaned, file: &str, spans: &[(usize, usize)], out: &mut Vec<Diagnostic>) {
    const HELP: &str = "propagate errors with `?`, pattern-match the `Option`, or use \
                        `.get()`; a justified exception needs \
                        `// xtask-lint: allow(XL001) -- <reason>`";
    let b = &c.text;
    for &(s, e) in &idents(b) {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        match word {
            b"unwrap" | b"expect" => {
                let is_method = prev_non_ws(b, s) == b'.';
                let (nxt, _) = next_non_ws(b, e);
                if is_method && nxt == b'(' {
                    let name = String::from_utf8_lossy(word).into_owned();
                    emit(
                        out,
                        c,
                        file,
                        "XL001",
                        s,
                        format!("`.{name}()` in library code"),
                        HELP,
                    );
                }
            }
            b"panic" | b"todo" | b"unreachable" | b"unimplemented" => {
                let (nxt, _) = next_non_ws(b, e);
                // `panic` as a path segment (e.g. `clippy::panic`) has no `!`.
                if nxt == b'!' && prev_non_ws(b, s) != b':' {
                    let name = String::from_utf8_lossy(word).into_owned();
                    emit(
                        out,
                        c,
                        file,
                        "XL001",
                        s,
                        format!("`{name}!` in library code"),
                        HELP,
                    );
                }
            }
            _ => {}
        }
    }
    // Slice/array indexing `x[i]`. A `[` after a keyword (`&mut [T]`,
    // `as [u8; 4]`, `return [..]`, `let [a, b @ ..] = ...` slice
    // patterns) opens a type, array literal, or pattern — not an index
    // expression.
    const KEYWORDS_BEFORE_BRACKET: &[&[u8]] = &[
        b"mut", b"dyn", b"as", b"in", b"return", b"break", b"if", b"else", b"match", b"impl",
        b"where", b"move", b"ref", b"const", b"static", b"let",
    ];
    let mut i = 0usize;
    while i < b.len() {
        if at(b, i) == b'[' && !in_spans(spans, i) {
            let p = prev_non_ws(b, i);
            let (is_keyword, is_lifetime) = if is_ident_byte(p) {
                let word = ident_ending_before(b, i);
                // `&'a [T]` — the ident before `[` is a lifetime, so the
                // bracket opens a slice type, not an index expression.
                let mut j = i;
                while j > 0 && at(b, j - 1).is_ascii_whitespace() {
                    j -= 1;
                }
                let start = j.saturating_sub(word.len());
                (
                    KEYWORDS_BEFORE_BRACKET.contains(&word),
                    start > 0 && at(b, start - 1) == b'\'',
                )
            } else {
                (false, false)
            };
            if (is_ident_byte(p) || p == b')' || p == b']' || p == b'?')
                && p != 0
                && !is_keyword
                && !is_lifetime
            {
                emit(
                    out,
                    c,
                    file,
                    "XL001",
                    i,
                    "slice indexing (can panic) in library code".to_string(),
                    HELP,
                );
            }
        }
        i += 1;
    }
}

/// True when a token adjacent to `==`/`!=` looks like an f32/f64 value.
fn floatish(tok: &str) -> bool {
    let t = tok.trim_matches(|ch: char| ",;)}(".contains(ch));
    if t.is_empty() {
        return false;
    }
    if t.starts_with("f64") || t.starts_with("f32") {
        return true; // f64::NAN, f64::INFINITY, bare casts
    }
    let first_digit = t.as_bytes().first().is_some_and(u8::is_ascii_digit);
    if !first_digit || t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    t.ends_with("f64")
        || t.ends_with("f32")
        || t.contains('.')
        || t.contains('e')
        || t.contains('E')
}

/// XL002 — float-comparison discipline: direct `==`/`!=` with a float
/// operand, and raw `dist`/`sq_dist` results compared against thresholds
/// instead of going through `dbscout_spatial::distance::within`.
pub fn float_discipline(
    c: &Cleaned,
    file: &str,
    scope: Scope,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let b = &c.text;
    if scope.float_eq {
        let mut i = 0usize;
        while i + 1 < b.len() {
            let two = (at(b, i), at(b, i + 1));
            let is_cmp = two == (b'=', b'=') || two == (b'!', b'=');
            // Exclude `<=`, `>=`, `=>`, `==` inside `===`-like runs (none
            // in Rust) and compound assignment `+=` etc.
            let prev = at(b, i.wrapping_sub(1));
            let next = at(b, i + 2);
            if is_cmp
                && !in_spans(spans, i)
                && prev != b'<'
                && prev != b'>'
                && prev != b'='
                && prev != b'!'
                && next != b'='
            {
                let left = last_token_before(b, i);
                let right = first_token_after(b, i + 2);
                if floatish(&left) || floatish(&right) {
                    emit(
                        out,
                        c,
                        file,
                        "XL002",
                        i,
                        format!(
                            "direct float comparison `{left} {}{} {right}`",
                            two.0 as char, '='
                        ),
                        "compare against a tolerance, use `f64::total_cmp`, or the \
                         `dbscout_spatial::distance` helpers",
                    );
                }
            }
            i += 1;
        }
    }
    if scope.distance_predicate {
        for &(s, e) in &idents(b) {
            let word = b.get(s..e).unwrap_or_default();
            if (word == b"dist" || word == b"sq_dist")
                && !in_spans(spans, s)
                && prev_non_ws(b, s) != b'.'
            {
                let (open, open_pos) = next_non_ws(b, e);
                if open != b'(' {
                    continue;
                }
                let close = matching_paren(b, open_pos);
                let (after, _) = next_non_ws(b, close);
                if after == b'<' || after == b'>' {
                    emit(
                        out,
                        c,
                        file,
                        "XL002",
                        s,
                        format!(
                            "raw `{}(..)` compared against a threshold",
                            String::from_utf8_lossy(word)
                        ),
                        "distance predicates must go through \
                         `dbscout_spatial::distance::within` so the closed-ball \
                         convention stays in one place",
                    );
                }
            }
        }
    }
}

/// Byte offset just past the paren matching the `(` at `open`.
fn matching_paren(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match at(b, i) {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

fn last_token_before(b: &[u8], pos: usize) -> String {
    let mut end = pos;
    while end > 0 && at(b, end - 1).is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = at(b, start - 1);
        if c.is_ascii_whitespace() || b";,{}&|<>=!+*".contains(&c) {
            break;
        }
        start -= 1;
    }
    String::from_utf8_lossy(b.get(start..end).unwrap_or_default()).into_owned()
}

fn first_token_after(b: &[u8], pos: usize) -> String {
    let (_, start) = next_non_ws(b, pos);
    let mut end = start;
    while end < b.len() {
        let c = at(b, end);
        if c.is_ascii_whitespace() || b";,{}&|<>=!+*".contains(&c) {
            break;
        }
        end += 1;
    }
    String::from_utf8_lossy(b.get(start..end).unwrap_or_default()).into_owned()
}

/// XL003 — parameter-validation coverage: a `pub fn` taking raw
/// `eps: f64` or `min_pts: usize` arguments must reach a validation call
/// in its body.
pub fn param_validation(
    c: &Cleaned,
    file: &str,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    const MARKERS: [&str; 6] = [
        "validate_eps(",
        "validate_min_pts(",
        "DbscoutParams::new(",
        "Self::new(",
        "is_finite(",
        "InvalidMinPts",
    ];
    let b = &c.text;
    let mut from = 0usize;
    while let Some(pos) = find(b, b"pub fn ", from) {
        from = pos + 1;
        if in_spans(spans, pos) {
            continue;
        }
        let Some(open) = find(b, b"(", pos) else {
            continue;
        };
        let close = matching_paren(b, open);
        let args = String::from_utf8_lossy(b.get(open..close).unwrap_or_default()).into_owned();
        let takes_eps = arg_with_type(&args, "eps", "f64");
        let takes_min_pts = arg_with_type(&args, "min_pts", "usize");
        if !takes_eps && !takes_min_pts {
            continue;
        }
        // Find the body (skip `;`-terminated trait signatures).
        let mut i = close;
        while i < b.len() && at(b, i) != b'{' && at(b, i) != b';' {
            i += 1;
        }
        if at(b, i) != b'{' {
            continue;
        }
        let body_end = matching_brace(b, i);
        let body = String::from_utf8_lossy(b.get(i..body_end).unwrap_or_default()).into_owned();
        if !MARKERS.iter().any(|m| body.contains(m)) {
            emit(
                out,
                c,
                file,
                "XL003",
                pos,
                "public function takes raw `eps`/`min_pts` but never validates them".to_string(),
                "call `DbscoutParams::new` (or the `validate_eps`/`validate_min_pts` \
                 helpers) before using the values",
            );
        }
    }
}

/// True when the argument list declares `name: ... type ...` for a raw
/// parameter (e.g. `eps: f64`, `min_pts: usize`).
fn arg_with_type(args: &str, name: &str, ty: &str) -> bool {
    let mut from = 0usize;
    while let Some(p) = args.get(from..).and_then(|s| s.find(name)) {
        let abs = from + p;
        from = abs + 1;
        let before_ok = abs == 0
            || !args
                .as_bytes()
                .get(abs - 1)
                .copied()
                .is_some_and(|ch| ch.is_ascii_alphanumeric() || ch == b'_');
        let rest = args.get(abs + name.len()..).unwrap_or("").trim_start();
        if before_ok && rest.starts_with(':') {
            let ty_part = rest.get(1..).unwrap_or("");
            let ty_tok: String = ty_part
                .chars()
                .take_while(|&ch| ch != ',' && ch != ')')
                .collect();
            if ty_tok.contains(ty) {
                return true;
            }
        }
    }
    false
}

/// XL004 — error-type hygiene: every public type in an `error.rs` must
/// implement `Display`, `std::error::Error`, and carry a compile-time
/// `Send + Sync + 'static` assertion.
pub fn error_hygiene(c: &Cleaned, file: &str, out: &mut Vec<Diagnostic>) {
    let b = &c.text;
    let text = String::from_utf8_lossy(b).into_owned();
    for kw in ["pub enum ", "pub struct "] {
        let mut from = 0usize;
        while let Some(p) = text.get(from..).and_then(|s| s.find(kw)) {
            let abs = from + p;
            from = abs + kw.len();
            let name: String = text
                .get(abs + kw.len()..)
                .unwrap_or("")
                .chars()
                .take_while(|ch| ch.is_ascii_alphanumeric() || *ch == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let mut missing = Vec::new();
            if !text.contains(&format!("Display for {name}")) {
                missing.push("a `fmt::Display` impl");
            }
            if !text.contains(&format!("Error for {name}")) {
                missing.push("a `std::error::Error` impl");
            }
            if !text.contains(&format!("_assert_error_bounds::<{name}>")) {
                missing.push("the `_assert_error_bounds::<T>()` Send+Sync assertion");
            }
            if !missing.is_empty() {
                emit(
                    out,
                    c,
                    file,
                    "XL004",
                    abs,
                    format!("error type `{name}` is missing {}", missing.join(", ")),
                    "public error types must implement Display and std::error::Error, \
                     and assert `Send + Sync + 'static` via \
                     `const _: () = _assert_error_bounds::<T>();`",
                );
            }
        }
    }
}

/// XL005 — `catch_unwind` confinement: panic recovery is the dataflow
/// executor's task boundary and must not leak anywhere else. Swallowing
/// panics elsewhere hides bugs that the retry machinery would otherwise
/// surface (and double-counts recovery attempts).
pub fn catch_unwind_confinement(
    c: &Cleaned,
    file: &str,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let b = &c.text;
    for &(s, e) in &idents(b) {
        if in_spans(spans, s) {
            continue;
        }
        if b.get(s..e).unwrap_or_default() == b"catch_unwind" {
            emit(
                out,
                c,
                file,
                "XL005",
                s,
                "`catch_unwind` outside the dataflow executor".to_string(),
                "panic recovery belongs to `dbscout-dataflow`'s executor (the task \
                 boundary); return a `Result` and let the engine's retry budget \
                 handle the failure",
            );
        }
    }
}

/// XL006 — stream hygiene: library crates must not write to stdout or
/// stderr via `println!`/`eprintln!` (or their non-newline forms). A
/// library that prints cannot be embedded: its chatter corrupts
/// machine-readable output (`--trace-out`, `--report-json`) and cannot
/// be silenced by the caller. Route diagnostics through the telemetry
/// `Recorder` or return them.
pub fn stdout_discipline(
    c: &Cleaned,
    file: &str,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    const HELP: &str = "library crates must stay silent: return the information, or emit \
                        it through a `dbscout_telemetry::Recorder` the caller installs";
    let b = &c.text;
    for &(s, e) in &idents(b) {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        if matches!(word, b"println" | b"eprintln" | b"print" | b"eprint") {
            let (nxt, _) = next_non_ws(b, e);
            // `print` as a path segment (e.g. `clippy::print_stdout`) has
            // no `!`.
            if nxt == b'!' && prev_non_ws(b, s) != b':' {
                let name = String::from_utf8_lossy(word).into_owned();
                emit(
                    out,
                    c,
                    file,
                    "XL006",
                    s,
                    format!("`{name}!` in library code"),
                    HELP,
                );
            }
        }
    }
}

/// The hash-ordered container types whose iteration order depends on
/// hash-bucket layout rather than on anything the algorithm controls.
const HASH_TYPES: [&[u8]; 3] = [b"HashMap", b"HashSet", b"DetHashMap"];

/// Methods that observe a container's iteration order.
const ITER_METHODS: [&[u8]; 10] = [
    b"iter",
    b"iter_mut",
    b"keys",
    b"values",
    b"values_mut",
    b"into_iter",
    b"into_keys",
    b"into_values",
    b"drain",
    b"retain",
];

/// If the hash-type name starting at `s` sits in type position
/// (`name: [&][mut] [path::]HashMap<..>`), returns the binding ident.
fn binding_for_type(b: &[u8], s: usize) -> Option<Vec<u8>> {
    let mut j = s;
    loop {
        let (p, pp) = prev_non_ws_pos(b, j);
        if p == b':' && pp > 0 && at(b, pp - 1) == b':' {
            // `seg::Type` — hop backwards over the path segment.
            let seg = ident_ending_before(b, pp - 1);
            if seg.is_empty() {
                return None;
            }
            j = pp - 1 - seg.len();
        } else if p == b'&' {
            j = pp;
        } else if is_ident_byte(p) {
            let word = ident_ending_before(b, j);
            if word == b"mut" {
                j = pp + 1 - word.len();
            } else {
                return None;
            }
        } else if p == b':' {
            let name = ident_ending_before(b, pp);
            return (!name.is_empty()).then(|| name.to_vec());
        } else {
            return None;
        }
    }
}

/// If the hash-type name ending at `e` heads a constructor call
/// (`let [mut] name = HashMap::new()`), returns the binding ident.
fn binding_for_ctor(b: &[u8], s: usize, e: usize) -> Option<Vec<u8>> {
    let (n, np) = next_non_ws(b, e);
    if n != b':' || at(b, np + 1) != b':' {
        return None;
    }
    let (p, pp) = prev_non_ws_pos(b, s);
    if p != b'=' {
        return None;
    }
    let name = ident_ending_before(b, pp);
    (!name.is_empty() && name != b"mut").then(|| name.to_vec())
}

/// XL007 — determinism: iterating a `HashMap`/`HashSet`/`DetHashMap`
/// yields entries in hash-bucket order. Where that order can reach
/// results or shuffle payloads it threatens the byte-identical-labels
/// guarantee, so iteration over hash-typed bindings is flagged. Sites
/// proven order-insensitive carry a per-site
/// `// xlint: ordered -- reason` waiver.
///
/// Binding tracking is per file and purely lexical: a name counts as
/// hash-typed when it is declared with a hash container as the *head* of
/// its type (`cells: HashMap<..>`, not `partials: Vec<HashMap<..>>`) or
/// assigned from a hash-container constructor path.
pub fn determinism(c: &Cleaned, file: &str, spans: &[(usize, usize)], out: &mut Vec<Diagnostic>) {
    const HELP: &str = "drain through a canonical order (sort, or \
                        `shuffle::drain_by_key_hash`); if the site is provably \
                        order-insensitive, waive it with \
                        `// xlint: ordered -- <reason>`";
    let b = &c.text;
    let ids = idents(b);
    let mut tracked: Vec<Vec<u8>> = Vec::new();
    for &(s, e) in &ids {
        let word = b.get(s..e).unwrap_or_default();
        if !HASH_TYPES.contains(&word) {
            continue;
        }
        let binding = binding_for_type(b, s).or_else(|| binding_for_ctor(b, s, e));
        if let Some(name) = binding {
            if !tracked.contains(&name) {
                tracked.push(name);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    let flag = |pos: usize, name: &[u8], how: &str, out: &mut Vec<Diagnostic>| {
        if c.ordered_at(c.line_of(pos)) {
            return;
        }
        emit(
            out,
            c,
            file,
            "XL007",
            pos,
            format!(
                "hash-ordered iteration over `{}` ({how}) can leak nondeterministic order",
                String::from_utf8_lossy(name)
            ),
            HELP,
        );
    };
    for &(s, e) in &ids {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        // `for .. in <tracked> {` — the loop desugars to `into_iter()`.
        if word == b"in" {
            let (mut n, mut np) = next_non_ws(b, e);
            while n == b'&' {
                (n, np) = next_non_ws(b, np + 1);
            }
            if !is_ident_byte(n) {
                continue;
            }
            let mut k = np;
            while k < b.len() && is_ident_byte(at(b, k)) {
                k += 1;
            }
            let name = b.get(np..k).unwrap_or_default();
            let name = if name == b"mut" {
                let (_, mp) = next_non_ws(b, k);
                let mut m = mp;
                while m < b.len() && is_ident_byte(at(b, m)) {
                    m += 1;
                }
                k = m;
                b.get(mp..m).unwrap_or_default()
            } else {
                name
            };
            let (after, _) = next_non_ws(b, k);
            if after == b'{' && tracked.iter().any(|t| t == name) {
                flag(np, name, "for-loop", out);
            }
            continue;
        }
        // `<tracked>.iter()` and friends.
        if !tracked.iter().any(|t| t == word) {
            continue;
        }
        let (dot, dp) = next_non_ws(b, e);
        if dot != b'.' {
            continue;
        }
        let (m, mp) = next_non_ws(b, dp + 1);
        if !is_ident_byte(m) {
            continue;
        }
        let mut k = mp;
        while k < b.len() && is_ident_byte(at(b, k)) {
            k += 1;
        }
        let method = b.get(mp..k).unwrap_or_default();
        let (open, _) = next_non_ws(b, k);
        if open == b'(' && ITER_METHODS.contains(&method) {
            flag(
                s,
                word,
                &format!(".{}()", String::from_utf8_lossy(method)),
                out,
            );
        }
    }
}

/// XL008 — lock discipline, scoped to the dataflow crate: (a) every
/// `lock()`/`try_lock()` call goes through `executor::lock_unpoisoned`
/// (so a panicking task cannot wedge a stage behind a poisoned mutex);
/// (b) a guard bound from `lock_unpoisoned` must be dropped before any
/// task-boundary call — holding it across `spawn`/`scope`/`join`/
/// `catch_unwind`/`sleep` invites deadlock and serializes the stage.
pub fn lock_discipline(
    c: &Cleaned,
    file: &str,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    const BOUNDARIES: [&[u8]; 5] = [b"spawn", b"scope", b"join", b"catch_unwind", b"sleep"];
    let b = &c.text;
    // The sanctioned wrapper's own body is the one place allowed to call
    // `.lock()` directly.
    let wrapper = find(b, b"fn lock_unpoisoned", 0).map(|p| {
        let mut i = p;
        while i < b.len() && at(b, i) != b'{' {
            i += 1;
        }
        (p, matching_brace(b, i))
    });
    for &(s, e) in &idents(b) {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        if (word == b"lock" || word == b"try_lock") && prev_non_ws(b, s) == b'.' {
            let (open, _) = next_non_ws(b, e);
            if open != b'(' {
                continue;
            }
            if wrapper.is_some_and(|(a, z)| a <= s && s < z) {
                continue;
            }
            emit(
                out,
                c,
                file,
                "XL008",
                s,
                format!("raw `.{}()` call", String::from_utf8_lossy(word)),
                "route all executor locking through `executor::lock_unpoisoned` so \
                 poisoned mutexes are recovered in one audited place",
            );
            continue;
        }
        if word != b"lock_unpoisoned" {
            continue;
        }
        // Guard binding: `let [mut] g = [path::]lock_unpoisoned(..);`
        // (a call used as a temporary dies at the end of its statement
        // and cannot be held across anything).
        let (open, op) = next_non_ws(b, e);
        if open != b'(' {
            continue;
        }
        let close = matching_paren(b, op);
        let (semi, sp) = next_non_ws(b, close);
        if semi != b';' {
            continue;
        }
        let mut j = s;
        let name = loop {
            let (p, pp) = prev_non_ws_pos(b, j);
            if p == b':' && pp > 0 && at(b, pp - 1) == b':' {
                let seg = ident_ending_before(b, pp - 1);
                if seg.is_empty() {
                    break None;
                }
                j = pp - 1 - seg.len();
            } else if p == b'=' {
                let n = ident_ending_before(b, pp);
                break (!n.is_empty() && n != b"mut").then(|| n.to_vec());
            } else {
                break None;
            }
        };
        let Some(name) = name else {
            continue;
        };
        // Scan the guard's live range: from the `;` to `drop(name)` or
        // the end of the enclosing block.
        let mut depth = 0i32;
        let mut i = sp + 1;
        while i < b.len() {
            let cb = at(b, i);
            if cb == b'{' {
                depth += 1;
            } else if cb == b'}' {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            if is_ident_byte(cb) && !is_ident_byte(at(b, i.wrapping_sub(1))) {
                let start = i;
                while i < b.len() && is_ident_byte(at(b, i)) {
                    i += 1;
                }
                let w = b.get(start..i).unwrap_or_default();
                if w == b"drop" {
                    let (o2, op2) = next_non_ws(b, i);
                    if o2 == b'(' {
                        let c2 = matching_paren(b, op2);
                        let inner: Vec<u8> = b
                            .get(op2 + 1..c2.saturating_sub(1))
                            .unwrap_or_default()
                            .iter()
                            .copied()
                            .filter(|bb| !bb.is_ascii_whitespace())
                            .collect();
                        if inner == name {
                            break;
                        }
                    }
                } else if BOUNDARIES.contains(&w) {
                    emit(
                        out,
                        c,
                        file,
                        "XL008",
                        s,
                        format!(
                            "mutex guard `{}` is live across `{}`",
                            String::from_utf8_lossy(&name),
                            String::from_utf8_lossy(w)
                        ),
                        "drop the guard (or scope it in a block) before crossing a \
                         task boundary",
                    );
                    break;
                }
                continue;
            }
            i += 1;
        }
    }
}

/// XL009 — atomic-ordering discipline: `Ordering::Relaxed` on an atomic
/// `load`/`store` gives no happens-before edge, so a Relaxed flag or
/// counter read can observe stale state across threads. Loads that gate
/// cross-thread visibility need Acquire, matching stores need Release
/// (the executor's `settled` counter is the model). Read-modify-write
/// tallies (`fetch_add`) folded after a join are not flagged.
pub fn atomic_ordering(
    c: &Cleaned,
    file: &str,
    spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let b = &c.text;
    for &(s, e) in &idents(b) {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        if (word != b"load" && word != b"store") || prev_non_ws(b, s) != b'.' {
            continue;
        }
        let (open, op) = next_non_ws(b, e);
        if open != b'(' {
            continue;
        }
        let close = matching_paren(b, op);
        let mut from = op;
        while let Some(p) = find(b, b"Relaxed", from) {
            if p >= close {
                break;
            }
            from = p + 1;
            if is_ident_byte(at(b, p.wrapping_sub(1))) || is_ident_byte(at(b, p + 7)) {
                continue;
            }
            emit(
                out,
                c,
                file,
                "XL009",
                p,
                format!(
                    "`Ordering::Relaxed` on an atomic `.{}()`",
                    String::from_utf8_lossy(word)
                ),
                "use Acquire (loads) / Release (stores) when the value gates \
                 cross-thread visibility; a tally folded strictly after a join may \
                 keep Relaxed with `// xtask-lint: allow(XL009) -- <reason>`",
            );
            break;
        }
    }
}

/// XL010 — kernel-lane confinement: explicit lane-unrolled loops and
/// architecture intrinsics are audited against the `sq_dist` oracle in
/// exactly two places — `crates/spatial/src/distance.rs` (the lane
/// kernels) and `cell_major.rs` (the slot-order drain that keeps the
/// counters a slot-at-a-time loop's). Anywhere else, `std::arch`/`core::arch`
/// paths, `target_feature` attributes, and functions named `*unrolled*`
/// or `*simd*` are flagged: a stray hand-vectorized loop bypasses the
/// equivalence suite and threatens byte-identical labels.
pub fn kernel_lane(c: &Cleaned, file: &str, spans: &[(usize, usize)], out: &mut Vec<Diagnostic>) {
    const HELP: &str = "lane-unrolled and intrinsic code belongs in \
                        `crates/spatial/src/distance.rs` (kernels) or `cell_major.rs` \
                        (block drain), where the oracle tests pin it; call \
                        `CellMajorStore::count_within` or its siblings instead, or waive \
                        a proven site with `// xtask-lint: allow(XL010) -- <reason>`";
    let b = &c.text;
    let ids = idents(b);
    for (n, &(s, e)) in ids.iter().enumerate() {
        if in_spans(spans, s) {
            continue;
        }
        let word = b.get(s..e).unwrap_or_default();
        match word {
            // `std::arch` / `core::arch` path segments.
            b"arch" => {
                let (p, pp) = prev_non_ws_pos(b, s);
                if p == b':' && pp > 0 && at(b, pp - 1) == b':' {
                    let seg = ident_ending_before(b, pp - 1);
                    if seg == b"std" || seg == b"core" {
                        emit(
                            out,
                            c,
                            file,
                            "XL010",
                            s,
                            format!(
                                "`{}::arch` intrinsics outside the kernel modules",
                                String::from_utf8_lossy(seg)
                            ),
                            HELP,
                        );
                    }
                }
            }
            // `#[target_feature(..)]` / `cfg(target_feature = ..)`.
            b"target_feature" => {
                emit(
                    out,
                    c,
                    file,
                    "XL010",
                    s,
                    "`target_feature` gate outside the kernel modules".to_string(),
                    HELP,
                );
            }
            // `fn <name>` where the name marks a lane kernel.
            b"fn" => {
                let Some(&(ns, ne)) = ids.get(n + 1) else {
                    continue;
                };
                let (nxt, np) = next_non_ws(b, e);
                if !is_ident_byte(nxt) || np != ns {
                    continue;
                }
                let name = String::from_utf8_lossy(b.get(ns..ne).unwrap_or_default()).into_owned();
                if name.contains("unrolled") || name.contains("simd") {
                    emit(
                        out,
                        c,
                        file,
                        "XL010",
                        ns,
                        format!("lane-kernel function `{name}` outside the kernel modules"),
                        HELP,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean;

    fn run_panic(src: &str) -> Vec<Diagnostic> {
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        panic_freedom(&c, "test.rs", &spans, &mut out);
        out
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        let d = run_panic("fn f() { x.unwrap(); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d.first().map(|d| d.rule), Some("XL001"));
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        assert!(run_panic("fn f() { x.unwrap_or(0); x.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); a[0]; } }";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn indexing_is_flagged_but_not_attributes_or_types() {
        let d = run_panic("fn f(a: &[u8], v: Vec<[f64; 2]>) -> [u8; 4] { a[0] }");
        assert_eq!(d.len(), 1, "{d:?}");
        let src = "#[derive(Debug)]\nstruct S { x: [u8; 4] }";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn lifetime_slice_types_are_not_indexing() {
        assert!(run_panic("struct S<'a, F> { tasks: &'a [F] }").is_empty());
        assert!(run_panic("fn f<'a>(xs: &'a [u8]) -> &'a [u8] { xs }").is_empty());
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        // `let`/`if let` slice patterns destructure; they cannot panic
        // (refutable forms don't compile without an `else`/`if let`).
        let src = "fn f(rest: &mut [u8]) {\n    if let [version, kind, len @ ..] = rest {}\n}";
        assert!(run_panic(src).is_empty());
        let src =
            "fn g(rest: &[u8]) -> u8 {\n    let [a, _b @ ..] = rest else { return 0 };\n    *a\n}";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn macros_flagged_path_segments_not() {
        let d = run_panic("fn f() { panic!(\"boom\"); }");
        assert_eq!(d.len(), 1);
        assert!(run_panic("#![allow(clippy::panic)]\nfn f() {}").is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "fn f(a: &[u8]) -> u8 {\n    // xtask-lint: allow(XL001) -- index proven < len above\n    a[0]\n}";
        assert!(run_panic(src).is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let c = clean("fn f(x: f64) -> bool { x == 0.0 }");
        let mut out = Vec::new();
        let scope = Scope {
            float_eq: true,
            ..Scope::default()
        };
        float_discipline(&c, "t.rs", scope, &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().map(|d| d.rule), Some("XL002"));
    }

    #[test]
    fn int_eq_not_flagged() {
        let c = clean("fn f(x: usize) -> bool { x == 0 && x != 3 }");
        let mut out = Vec::new();
        let scope = Scope {
            float_eq: true,
            ..Scope::default()
        };
        float_discipline(&c, "t.rs", scope, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn raw_distance_compare_flagged() {
        let c = clean("fn f() { if sq_dist(a, b) <= eps_sq { } }");
        let mut out = Vec::new();
        let scope = Scope {
            distance_predicate: true,
            ..Scope::default()
        };
        float_discipline(&c, "t.rs", scope, &[], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn distance_call_without_compare_ok() {
        let c = clean("fn f() { let d = sq_dist(a, b); store(d); }");
        let mut out = Vec::new();
        let scope = Scope {
            distance_predicate: true,
            ..Scope::default()
        };
        float_discipline(&c, "t.rs", scope, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unvalidated_eps_flagged() {
        let src = "pub fn detect(store: &S, eps: f64, min_pts: usize) -> R { run(store, eps) }";
        let c = clean(src);
        let mut out = Vec::new();
        param_validation(&c, "t.rs", &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().map(|d| d.rule), Some("XL003"));
    }

    #[test]
    fn validated_eps_ok() {
        let src = "pub fn new(eps: f64, min_pts: usize) -> Result<Self> {\n\
                   if !eps.is_finite() { return Err(e()); }\nOk(Self{eps,min_pts}) }";
        let c = clean(src);
        let mut out = Vec::new();
        param_validation(&c, "t.rs", &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn error_hygiene_needs_all_three() {
        let src = "pub enum MyError { A }\nimpl fmt::Display for MyError {}\n";
        let c = clean(src);
        let mut out = Vec::new();
        error_hygiene(&c, "error.rs", &mut out);
        assert_eq!(out.len(), 1);
        let d = out.first().map(|d| d.message.clone()).unwrap_or_default();
        assert!(d.contains("std::error::Error"), "{d}");
        assert!(d.contains("Send+Sync"), "{d}");
    }

    #[test]
    fn catch_unwind_flagged_outside_tests() {
        let c = clean("fn f() { let r = std::panic::catch_unwind(|| work()); }");
        let mut out = Vec::new();
        catch_unwind_confinement(&c, "t.rs", &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().map(|d| d.rule), Some("XL005"));
    }

    #[test]
    fn catch_unwind_in_test_code_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let _ = \
                   std::panic::catch_unwind(|| {}); }\n}";
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        catch_unwind_confinement(&c, "t.rs", &spans, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn println_in_lib_code_is_flagged() {
        let c = clean("fn f() { println!(\"x\"); eprintln!(\"y\"); print!(\"z\"); }");
        let spans = test_spans(&c);
        let mut out = Vec::new();
        stdout_discipline(&c, "t.rs", &spans, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "XL006"));
    }

    #[test]
    fn println_in_test_code_and_path_segments_are_exempt() {
        let src = "#![allow(clippy::print_stdout)]\nfn f() {}\n\
                   #[cfg(test)]\nmod tests { fn g() { println!(\"ok\"); } }";
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        stdout_discipline(&c, "t.rs", &spans, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    fn run_determinism(src: &str) -> Vec<Diagnostic> {
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        determinism(&c, "t.rs", &spans, &mut out);
        out
    }

    #[test]
    fn hash_map_iteration_is_flagged() {
        let src = "struct S { cells: HashMap<C, V> }\n\
                   fn f(s: &S) -> usize { s.cells.iter().count() }";
        let d = run_determinism(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d.first().map(|d| (d.rule, d.line)), Some(("XL007", 2)));
    }

    #[test]
    fn det_hash_map_ctor_binding_and_for_loop_flagged() {
        let src = "fn f() {\n    let mut seen = DetHashMap::default();\n\
                   for k in &seen {\n        use_it(k);\n    }\n}";
        let d = run_determinism(src);
        assert_eq!(d.first().map(|d| (d.rule, d.line)), Some(("XL007", 3)));
    }

    #[test]
    fn ordered_waiver_suppresses_determinism() {
        let src = "struct S { cells: HashMap<C, V> }\n\
                   fn f(s: &S) -> usize {\n\
                   // xlint: ordered -- summing lengths is order-free\n\
                   s.cells.values().map(Vec::len).sum() }";
        assert!(run_determinism(src).is_empty());
    }

    #[test]
    fn vec_of_hash_maps_is_not_tracked() {
        // Only bindings whose type *head* is a hash container count:
        // iterating the outer Vec is ordered.
        let src = "fn f(partials: Vec<HashMap<C, V>>) {\n\
                   for partial in partials {\n        merge(partial);\n    }\n}";
        assert!(run_determinism(src).is_empty());
    }

    #[test]
    fn point_lookups_are_not_iteration() {
        let src = "struct S { cells: HashMap<C, V> }\n\
                   fn f(s: &mut S, c: C) { s.cells.entry(c); s.cells.get(&c); \
                   let n = s.cells.len(); }";
        assert!(run_determinism(src).is_empty());
    }

    #[test]
    fn telemetry_merge_over_hash_order_is_flagged() {
        // A span merge over telemetry keyed by pid: emitting spans in
        // hash order would make the merged trace (and anything derived
        // from it) nondeterministic.
        let src = "struct Merge { spans_by_pid: HashMap<u64, Vec<WireSpan>> }\n\
                   fn flush(m: &Merge, rec: &dyn Recorder) {\n\
                   m.spans_by_pid.iter().for_each(|(pid, s)| emit(rec, *pid, s));\n}";
        let d = run_determinism(src);
        assert_eq!(d.first().map(|d| (d.rule, d.line)), Some(("XL007", 3)));
        // Merging counters by saturating addition is order-free and
        // carries the waiver.
        let waived = "struct Merge { counters: HashMap<String, u64> }\n\
                      fn total(m: &Merge) -> u64 {\n\
                      // xlint: ordered -- saturating sums commute\n\
                      m.counters.values().sum() }";
        assert!(run_determinism(waived).is_empty());
    }

    fn run_locks(src: &str) -> Vec<Diagnostic> {
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        lock_discipline(&c, "t.rs", &spans, &mut out);
        out
    }

    #[test]
    fn raw_lock_calls_flagged_outside_the_wrapper() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }";
        let d = run_locks(src);
        assert_eq!(d.first().map(|d| d.rule), Some("XL008"));
        assert_eq!(
            run_locks("fn g(m: &Mutex<u32>) { m.try_lock().ok(); }").len(),
            1
        );
    }

    #[test]
    fn the_wrapper_itself_is_sanctioned() {
        let src = "pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   match m.lock() {\n        Ok(g) => g,\n        Err(p) => p.into_inner(),\n    }\n}";
        assert!(run_locks(src).is_empty());
    }

    #[test]
    fn guard_live_across_boundary_flagged() {
        let src = "fn f() {\n    let mut g = lock_unpoisoned(&m);\n\
                   g.push(1);\n    thread::sleep(D);\n}";
        let d = run_locks(src);
        assert_eq!(d.first().map(|d| (d.rule, d.line)), Some(("XL008", 2)));
        assert!(d
            .first()
            .map(|d| d.message.contains("sleep"))
            .unwrap_or(false));
    }

    #[test]
    fn dropped_guard_is_fine() {
        let src = "fn f() {\n    let g = lock_unpoisoned(&m);\n    let n = g.len();\n\
                   drop(g);\n    thread::sleep(D);\n}";
        assert!(run_locks(src).is_empty());
        // A scoped guard dies at its block's end, before the boundary.
        let scoped = "fn f() {\n    {\n        let g = lock_unpoisoned(&m);\n\
                      g.push(1);\n    }\n    thread::sleep(D);\n}";
        assert!(run_locks(scoped).is_empty());
        // A temporary guard dies at the end of its statement.
        let temp = "fn f() {\n    let item = lock_unpoisoned(&q).pop_front();\n\
                    thread::sleep(D);\n}";
        assert!(run_locks(temp).is_empty());
    }

    #[test]
    fn telemetry_merge_must_drop_stdout_guard_before_joining() {
        // A telemetry drain: the stdout-frame lock must not be held
        // across the reader-thread join, or a blocked writer wedges
        // shutdown.
        let src = "fn drain(pool: &Pool) {\n\
                   let mut out = lock_unpoisoned(&pool.stdout);\n\
                   out.write_frame(f);\n    reader.join();\n}";
        let d = run_locks(src);
        assert_eq!(d.first().map(|d| (d.rule, d.line)), Some(("XL008", 2)));
        // Dropping the guard before the join is the sanctioned shape.
        let fixed = "fn drain(pool: &Pool) {\n\
                     {\n        let mut out = lock_unpoisoned(&pool.stdout);\n\
                     out.write_frame(f);\n    }\n    reader.join();\n}";
        assert!(run_locks(fixed).is_empty());
    }

    fn run_atomics(src: &str) -> Vec<Diagnostic> {
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        atomic_ordering(&c, "t.rs", &spans, &mut out);
        out
    }

    #[test]
    fn relaxed_load_and_store_flagged() {
        let d = run_atomics("fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }");
        assert_eq!(d.first().map(|d| d.rule), Some("XL009"));
        let d = run_atomics("fn f(a: &AtomicUsize) { a.store(0, Ordering::Relaxed); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn acquire_release_and_rmw_tallies_pass() {
        assert!(
            run_atomics("fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Acquire) }").is_empty()
        );
        assert!(run_atomics("fn f(a: &AtomicUsize) { a.store(1, Ordering::Release); }").is_empty());
        // fetch_add is a read-modify-write tally, not a gate.
        assert!(
            run_atomics("fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }").is_empty()
        );
    }

    fn run_kernel_lane(src: &str) -> Vec<Diagnostic> {
        let c = clean(src);
        let spans = test_spans(&c);
        let mut out = Vec::new();
        kernel_lane(&c, "t.rs", &spans, &mut out);
        out
    }

    #[test]
    fn arch_paths_and_lane_fn_names_flagged() {
        let d = run_kernel_lane("fn f() { use std::arch::x86_64::_mm_set1_pd; }");
        assert_eq!(d.first().map(|d| d.rule), Some("XL010"));
        assert_eq!(run_kernel_lane("use core::arch::asm;").len(), 1);
        assert_eq!(
            run_kernel_lane("fn sq_dists_unrolled(a: &[f64]) -> f64 { 0.0 }").len(),
            1
        );
        assert_eq!(
            run_kernel_lane("#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}").len(),
            1
        );
    }

    #[test]
    fn plain_code_and_other_arch_idents_pass() {
        assert!(run_kernel_lane("fn fast_sum(xs: &[f64]) -> f64 { xs.iter().sum() }").is_empty());
        // `arch` not rooted at std/core is someone's module name.
        assert!(run_kernel_lane("use crate::arch::helper;").is_empty());
        // Test code is exempt, like every other structural rule.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn check_unrolled() {} }";
        assert!(run_kernel_lane(src).is_empty());
    }

    #[test]
    fn error_hygiene_complete_type_passes() {
        let src = "pub enum MyError { A }\n\
                   impl fmt::Display for MyError {}\n\
                   impl std::error::Error for MyError {}\n\
                   const _: () = _assert_error_bounds::<MyError>();\n";
        let c = clean(src);
        let mut out = Vec::new();
        error_hygiene(&c, "error.rs", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
