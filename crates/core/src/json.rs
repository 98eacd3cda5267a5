//! A minimal, dependency-free JSON document model and pretty printer.
//!
//! The workspace is hermetic (std only), so the `--json` output of the
//! `vpc-bench` binaries is produced by this hand-rolled emitter instead of
//! an external serialization crate. The printer reproduces the layout the
//! checked-in `results/*.json` files were generated with: two-space
//! indent, `"key": value` spacing, shortest-roundtrip floats with a
//! trailing `.0` on integral values, and tuples rendered as arrays.
//!
//! Build documents with the [`JsonValue`] constructors, or implement
//! [`ToJson`] for a result type and call [`to_json`]. Every figure result
//! implements [`ToJson`] itself, so a figure's `--json` output has no
//! second representation to keep in step.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`. Also emitted for non-finite floats, which JSON cannot carry.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a decimal point.
    Int(i64),
    /// A float, printed shortest-roundtrip with `.0` appended when
    /// integral so it round-trips as a float.
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An ordered sequence.
    Array(Vec<JsonValue>),
    /// Key/value pairs, printed in insertion order (reports rely on this
    /// to keep field order stable across runs).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from anything convertible to [`JsonValue`].
    pub fn array<V: Into<JsonValue>>(items: impl IntoIterator<Item = V>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }

    /// Parses a JSON document.
    ///
    /// The inverse of [`JsonValue::pretty`], used to validate exported
    /// traces and read goldens back. Accepts standard JSON (objects,
    /// arrays, strings with escapes, numbers, booleans, null); integers
    /// that fit `i64` become [`JsonValue::Int`], everything else numeric
    /// becomes [`JsonValue::Float`]. Errors carry 1-based line/column
    /// context.
    ///
    /// ```
    /// use vpc::json::JsonValue;
    ///
    /// let doc = JsonValue::parse("{\"a\": [1, 2.5, null]}").unwrap();
    /// assert_eq!(doc.pretty(), "{\n  \"a\": [\n    1,\n    2.5,\n    null\n  ]\n}");
    /// let err = JsonValue::parse("[1,]").unwrap_err();
    /// assert_eq!((err.line, err.column), (1, 4));
    /// ```
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing content after document"));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation (no trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; degrade to null rather than emit an
        // unparseable document.
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    // Rust's shortest-roundtrip Display prints integral floats without a
    // fraction ("1"); keep them self-describing as floats ("1.0").
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A [`JsonValue::parse`] failure, with 1-based line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column (in bytes) of the offending byte.
    pub column: usize,
    message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting depth cap for the recursive-descent parser (the exporter never
/// gets near it; it only guards against stack overflow on hostile input).
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonParseError { line, column, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        b => return Err(self.error(format!("invalid escape '\\{}'", b as char))),
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number bytes");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::Float(x)),
            _ => Err(self.error(format!("invalid number '{text}'"))),
        }
    }
}

/// Conversion into a JSON document node.
///
/// Implemented by every figure result (`FigNResult` in
/// [`crate::experiments`]) next to its `Display`; [`to_json`] renders it as
/// the figure binary's `--json` output.
pub trait ToJson {
    /// Converts `self` into a [`JsonValue`] tree.
    fn to_json_value(&self) -> JsonValue;
}

/// Serializes any [`ToJson`] value to pretty JSON (no trailing newline).
pub fn to_json<T: ToJson>(value: &T) -> String {
    value.to_json_value().pretty()
}

impl ToJson for JsonValue {
    fn to_json_value(&self) -> JsonValue {
        self.clone()
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        JsonValue::Int(i)
    }
}

impl From<u64> for JsonValue {
    fn from(u: u64) -> Self {
        match i64::try_from(u) {
            Ok(i) => JsonValue::Int(i),
            Err(_) => JsonValue::Float(u as f64),
        }
    }
}

impl From<u32> for JsonValue {
    fn from(u: u32) -> Self {
        JsonValue::Int(i64::from(u))
    }
}

impl From<usize> for JsonValue {
    fn from(u: usize) -> Self {
        JsonValue::from(u as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<V: Into<JsonValue>> From<Vec<V>> for JsonValue {
    fn from(items: Vec<V>) -> Self {
        JsonValue::array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_print_like_json() {
        assert_eq!(JsonValue::Null.pretty(), "null");
        assert_eq!(JsonValue::Bool(true).pretty(), "true");
        assert_eq!(JsonValue::Bool(false).pretty(), "false");
        assert_eq!(JsonValue::Int(-42).pretty(), "-42");
        // Values beyond i64 fall back to the float path.
        assert_eq!(
            JsonValue::from(18_446_744_073_709_551_615u64).pretty(),
            "18446744073709552000.0"
        );
    }

    #[test]
    fn floats_keep_a_fraction_and_roundtrip_shortest() {
        assert_eq!(JsonValue::Float(1.0).pretty(), "1.0");
        assert_eq!(JsonValue::Float(-0.0).pretty(), "-0.0");
        assert_eq!(JsonValue::Float(0.5).pretty(), "0.5");
        assert_eq!(JsonValue::Float(0.156).pretty(), "0.156");
        // Shortest roundtrip, exactly as the checked-in results files.
        assert_eq!(JsonValue::Float(0.22222916666666667).pretty(), "0.22222916666666667");
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(JsonValue::Float(f64::NAN).pretty(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).pretty(), "null");
        assert_eq!(JsonValue::Float(f64::NEG_INFINITY).pretty(), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_chars() {
        assert_eq!(JsonValue::from("plain").pretty(), "\"plain\"");
        assert_eq!(JsonValue::from("say \"hi\"").pretty(), r#""say \"hi\"""#);
        assert_eq!(JsonValue::from("a\\b").pretty(), r#""a\\b""#);
        assert_eq!(
            JsonValue::from("line1\nline2\ttabbed\r").pretty(),
            r#""line1\nline2\ttabbed\r""#
        );
        assert_eq!(JsonValue::from("\u{08}\u{0c}\u{01}").pretty(), r#""\b\f\u0001""#);
        // Non-ASCII passes through unescaped (UTF-8 output).
        assert_eq!(JsonValue::from("héllo").pretty(), "\"héllo\"");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(JsonValue::Array(vec![]).pretty(), "[]");
        assert_eq!(JsonValue::Object(vec![]).pretty(), "{}");
    }

    #[test]
    fn nested_arrays_and_objects_indent_two_spaces() {
        let doc = JsonValue::object([
            (
                "rows",
                JsonValue::array(vec![JsonValue::object([
                    ("label", JsonValue::from("Loads 2B")),
                    ("tag_array", JsonValue::from(0.5)),
                ])]),
            ),
            ("mean", JsonValue::from(1.0)),
            (
                "tuple",
                JsonValue::Array(vec![
                    JsonValue::from("gcc"),
                    JsonValue::from(0.25),
                    JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Int(2)]),
                ]),
            ),
        ]);
        let want = "{\n  \"rows\": [\n    {\n      \"label\": \"Loads 2B\",\n      \"tag_array\": 0.5\n    }\n  ],\n  \"mean\": 1.0,\n  \"tuple\": [\n    \"gcc\",\n    0.25,\n    [\n      1,\n      2\n    ]\n  ]\n}";
        assert_eq!(doc.pretty(), want);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let doc = JsonValue::object([("z", JsonValue::Int(1)), ("a", JsonValue::Int(2))]);
        assert_eq!(doc.pretty(), "{\n  \"z\": 1,\n  \"a\": 2\n}");
    }

    #[test]
    fn parse_pretty_roundtrips() {
        let doc = JsonValue::object([
            ("label", JsonValue::from("Loads \"2B\"\n")),
            ("util", JsonValue::from(0.15625)),
            ("count", JsonValue::Int(-7)),
            ("flags", JsonValue::array(vec![JsonValue::Bool(true), JsonValue::Null])),
            ("empty", JsonValue::Object(vec![])),
        ]);
        assert_eq!(JsonValue::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_accepts_compact_and_spaced_json() {
        let doc = JsonValue::parse(" { \"a\" : [ 1 , 2e1 , -0.5 ] , \"b\" : \"x\" } ").unwrap();
        assert_eq!(
            doc,
            JsonValue::object([
                (
                    "a",
                    JsonValue::Array(vec![
                        JsonValue::Int(1),
                        JsonValue::Float(20.0),
                        JsonValue::Float(-0.5),
                    ])
                ),
                ("b", JsonValue::from("x")),
            ])
        );
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        let doc = JsonValue::parse(r#""a\"\\\n\tA😀""#).unwrap();
        assert_eq!(doc, JsonValue::from("a\"\\\n\tA😀"));
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = JsonValue::parse("{\n  \"a\": 1,\n  oops\n}").unwrap_err();
        assert_eq!((err.line, err.column), (3, 3));
        assert!(err.to_string().contains("line 3, column 3"), "got: {err}");

        let err = JsonValue::parse("[1, 2").unwrap_err();
        assert_eq!(err.line, 1);

        let err = JsonValue::parse("{} trailing").unwrap_err();
        assert!(err.to_string().contains("trailing content"), "got: {err}");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "tru", "[1,]", "{\"a\"}", "\"unterminated", "01x", "[\u{1}]", "nan"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nested too deeply"), "got: {err}");
    }
}
