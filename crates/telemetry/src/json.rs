//! Minimal JSON support: a deterministic writer and a small parser.
//!
//! The workspace is std-only, so both the Chrome Trace renderer and the
//! run-report serializer hand-roll their JSON through [`JsonWriter`],
//! which emits one key per line in insertion order — the property the
//! report-determinism tests rely on. The companion [`parse`] function is
//! a strict little recursive-descent parser used by `cargo xtask
//! check-report`, by `dbscout serve` on every request line, and by tests
//! that validate emitted artifacts. Its recursion is bounded by
//! [`MAX_DEPTH`], so hostile input gets an error, never a stack
//! overflow.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A pretty-printing JSON writer: two-space indent, one key or element
/// per line, fields emitted in call order.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    // One entry per open container: whether it already has an element.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pad(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    // Starts a new element: comma after a previous sibling, newline,
    // indentation, and the key (inside objects).
    fn element(&mut self, key: Option<&str>) {
        if let Some(seen) = self.stack.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
        }
        if !self.stack.is_empty() {
            self.out.push('\n');
            self.pad();
        }
        if let Some(k) = key {
            let _ = write!(self.out, "\"{}\": ", escape(k));
        }
    }

    fn close(&mut self, delim: char) {
        let had_elements = self.stack.pop().unwrap_or(false);
        if had_elements {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(delim);
    }

    /// Opens an object (as a value inside an array, or the root).
    pub fn begin_object(&mut self) -> &mut Self {
        self.element(None);
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Opens an object under `key`.
    pub fn begin_object_field(&mut self, key: &str) -> &mut Self {
        self.element(Some(key));
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}');
        self
    }

    /// Opens an array under `key`.
    pub fn begin_array_field(&mut self, key: &str) -> &mut Self {
        self.element(Some(key));
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Opens an array (as a value inside an array, or the root).
    pub fn begin_array(&mut self) -> &mut Self {
        self.element(None);
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']');
        self
    }

    /// Writes a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.element(Some(key));
        let _ = write!(self.out, "\"{}\"", escape(value));
        self
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.element(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.element(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a float field with full round-trip precision.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.element(Some(key));
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a bare string element (inside an array).
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.element(None);
        let _ = write!(self.out, "\"{}\"", escape(value));
        self
    }

    /// Consumes the writer and returns the document with a trailing
    /// newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// A parsed JSON value. Object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; our values fit exactly).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The object's fields in document order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields.as_slice()),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. Run
/// reports and traces nest fewer than 10 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Rejects trailing garbage and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't appear in our own
                            // output; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Decode the one character starting here; the input
                    // is a `str`, so it is valid UTF-8 and `start` is a
                    // character boundary.
                    let start = self.pos - 1;
                    let c = self
                        .src
                        .get(start..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or(&[]);
        let text = std::str::from_utf8(digits).map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_one_key_per_line() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "dbscout");
        w.field_u64("points", 1000);
        w.begin_array_field("phases");
        w.begin_object();
        w.field_str("phase", "core-point pass");
        w.end_object();
        w.end_array();
        w.end_object();
        let text = w.finish();
        let expected = "{\n  \"name\": \"dbscout\",\n  \"points\": 1000,\n  \"phases\": [\n    {\n      \"phase\": \"core-point pass\"\n    }\n  ]\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("quoted", "a \"b\"\nc\\d");
        w.field_u64("n", u64::from(u32::MAX));
        w.field_bool("flag", true);
        w.field_f64("eps", 0.25);
        w.begin_array_field("empty");
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("quoted").unwrap().as_str(), Some("a \"b\"\nc\\d"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::from(u32::MAX)));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(v.get("eps").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("empty").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = parse("[1, 2.5, -3, \"x\", null, true, {\"k\": []}]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 7);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_f64(), Some(-3.0));
        assert_eq!(items[3].as_str(), Some("x"));
        assert_eq!(items[4], Value::Null);
        assert_eq!(items[5], Value::Bool(true));
        assert_eq!(items[6].get("k").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "[1] tail", "\"open"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parser_rejects_nesting_beyond_the_depth_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Objects count too, and a hostile line far past the limit
        // fails at the limit instead of recursing through it.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        assert_eq!(parse(&"[".repeat(200_000)).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn parser_decodes_multibyte_characters() {
        let v = parse("[\"ε-cell ⊂ 𝔼\", \"ä\"]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("ε-cell ⊂ 𝔼"));
        assert_eq!(items[1].as_str(), Some("ä"));
    }

    #[test]
    fn parser_decodes_escapes() {
        let v = parse(r#""aA\n\t\"""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\""));
    }

    #[test]
    fn object_keys_keep_document_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
