//! The workspace's one JSON reader and string escaper.
//!
//! The workspace carries no JSON crate. Every JSON artefact (metrics
//! dumps, Chrome traces, `BENCH_*.json`) is written by hand with
//! [`escape`] for its strings; [`parse`] reads `qtenon batch --jobs`
//! specs, [`MetricsSnapshot::to_json`] dumps and `BENCH_*.json` back.
//!
//! The reader is strict (`\uXXXX` escapes without surrogates, no raw
//! control characters, nothing after the document) and keeps object
//! member order; lookups take the first duplicate key. Every input ends
//! in a value or an [`Error`] with its byte offset:
//!
//! - non-negative integer literals stay exact up to `u64::MAX`
//!   ([`Value::Uint`]), so a 64-bit seed never rounds through `f64`;
//! - nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::json;
//!
//! let doc = json::parse(r#"{"seed": 18446744073709551614, "name": "a\"b"}"#)?;
//! assert_eq!(doc.get("seed").and_then(json::Value::as_u64), Some(u64::MAX - 1));
//! let name = doc.get("name").and_then(json::Value::as_str).unwrap();
//! assert_eq!(format!("\"{}\"", json::escape(name)), r#""a\"b""#);
//! # Ok::<(), json::Error>(())
//! ```
//!
//! [`MetricsSnapshot::to_json`]: crate::MetricsSnapshot::to_json

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction or exponent)
    /// that fits a `u64`, exact.
    Uint(u64),
    /// Any other number, widened to `f64`.
    Float(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact `u64`: any [`Value::Uint`], or a
    /// [`Value::Float`] that is a whole number below 2⁵³ (such as `1e3`),
    /// where `f64` is still exact.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Uint(n) => Some(n),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < 9_007_199_254_740_992.0 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The number, if this is one (a [`Value::Uint`] rounds to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Uint(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Parses a complete JSON document, rejecting trailing input.
///
/// # Errors
///
/// Returns an [`Error`] for malformed input or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Escapes a string for embedding between the quotes of a JSON string:
/// quotes, backslashes and every control character below U+0020.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> Error {
        Error {
            offset: self.pos,
            message,
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

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// After an element: `,` means another follows, `close` ends the
    /// container.
    fn more(&mut self, close: u8, message: &'static str) -> Result<bool, Error> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than json::MAX_DEPTH"));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => {
                self.pos += 1;
                Ok(Value::String(self.string()?))
            }
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The members after an opening `{`.
    fn object(&mut self) -> Result<Value, Error> {
        let mut members = Vec::new();
        if !self.eat(b'}') {
            loop {
                if !self.eat(b'"') {
                    return Err(self.err("expected a string key"));
                }
                let key = self.string()?;
                if !self.eat(b':') {
                    return Err(self.err("expected ':'"));
                }
                self.skip_ws();
                members.push((key, self.value()?));
                if !self.more(b'}', "expected ',' or '}'")? {
                    break;
                }
            }
        }
        Ok(Value::Object(members))
    }

    /// The elements after an opening `[`.
    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                self.skip_ws();
                items.push(self.value()?);
                if !self.more(b']', "expected ',' or ']'")? {
                    break;
                }
            }
        }
        Ok(Value::Array(items))
    }

    /// The rest of a string after its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        // No dialect read here needs surrogate pairs;
                        // reject them rather than mangle the text.
                        b'u' => char::from_u32(self.hex4()?)
                            .ok_or_else(|| self.err("surrogate \\u escape"))?,
                        _ => return Err(self.err("invalid escape")),
                    });
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(span.expect("a &str cut at ASCII bytes is UTF-8"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.bytes.get(self.pos..self.pos + 4).unwrap_or_default();
        let code = digits
            .iter()
            .try_fold(0, |code, &c| Some(code * 16 + (c as char).to_digit(16)?));
        match code {
            Some(code) if digits.len() == 4 => {
                self.pos += 4;
                Ok(code)
            }
            _ => Err(self.err("expected 4 hex digits")),
        }
    }

    /// A number token, checked by Rust's own number parsers: a plain
    /// digit string that fits a `u64` is exact, anything else an `f64`.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Value::Uint(n));
            }
        }
        text.parse().map(Value::Float).map_err(|_| Error {
            offset: start,
            message: "invalid number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Uint(42));
        assert_eq!(parse("-3").unwrap(), Value::Float(-3.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Float(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::String("a\nb".into()));
    }

    #[test]
    fn integer_literals_are_exact_to_u64_max() {
        for n in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // One past u64::MAX is still a JSON number, but not a u64.
        let wide = parse("18446744073709551616").unwrap();
        assert_eq!(wide, Value::Float(18_446_744_073_709_551_616.0));
        assert_eq!(wide.as_u64(), None);
        // Whole floats are u64s only while f64 is exact.
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("9007199254740993.0").unwrap().as_u64(), None);
        assert_eq!(parse("-0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        // `as_f64` of an integer literal is what parsing it as f64 gives.
        for text in ["9007199254740993", "18446744073709551615", "12"] {
            assert_eq!(
                parse(text).unwrap().as_f64(),
                Some(text.parse::<f64>().unwrap())
            );
        }
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(a[2], Value::Null);
        assert_eq!(doc.get("c").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn preserves_member_order_and_first_duplicate_wins() {
        let doc = parse(r#"{"z": 1, "a": 2, "z": 3}"#).unwrap();
        assert_eq!(doc.as_object().unwrap()[0].0, "z");
        assert_eq!(doc.get("z").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            parse("\"\\u00e9\\u0041\\b\\f\\/\"").unwrap(),
            Value::String("éA\u{8}\u{c}/".into())
        );
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1, 2,]",
            "{\"a\": }",
            "\"open",
            "{\"a\" 1}",
            "1 2",
            "tru",
            "nul!",
            "-",
            "\"tab\there\"",
            "\"\\x\"",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn reports_error_offsets() {
        let err = parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.to_string(), "json error at byte 4: expected a value");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"));
        // Far past any stack: the error comes at the limit, not the end.
        let deep = "{\"a\":".repeat(100_000) + &"[".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().message, err.message);
    }

    #[test]
    fn roundtrips_metrics_snapshot_dialect() {
        let doc = parse(
            r#"{"metrics":{"profile.chip.execute.count":{"type":"counter","value":6},
                "profile.chip.execute.sim_ns":{"type":"histogram","count":6,"sum":600,
                "min":100,"max":100,"p50":100,"p90":100,"p99":100,"buckets":[[38,6]]}}}"#,
        )
        .unwrap();
        let metrics = doc.get("metrics").unwrap();
        let count = metrics.get("profile.chip.execute.count").unwrap();
        assert_eq!(count.get("value").and_then(Value::as_f64), Some(6.0));
        let hist = metrics.get("profile.chip.execute.sim_ns").unwrap();
        assert_eq!(hist.get("type").and_then(Value::as_str), Some("histogram"));
        assert_eq!(hist.get("p50").and_then(Value::as_f64), Some(100.0));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape("\u{1}\u{1f}\u{7f}é"), "\\u0001\\u001f\u{7f}é");
    }
}
