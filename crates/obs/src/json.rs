//! A serde-free JSON parser with a well-formedness check on top.
//!
//! [`parse_json`] reads one RFC 8259 document into a [`JsonValue`] tree
//! so protocol layers (the `tve-serve` daemon wire format) and the bench
//! gates can consume hand-formatted JSON without serde. It accepts
//! exactly one top-level value (plus whitespace) and rejects trailing
//! garbage, unterminated strings, bad escapes, unpaired surrogates and
//! malformed numbers.
//!
//! [`check_json`] is the same grammar with the tree thrown away: the
//! exporters in this crate hand-format JSON, and tests use it to prove
//! the output is structurally valid.

use std::fmt;

/// Why a document failed [`check_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Checks that `text` is exactly one well-formed JSON document.
///
/// ```
/// use tve_obs::check_json;
///
/// assert!(check_json(r#"{"traceEvents": [1, -2.5e3, "a\"b", null]}"#).is_ok());
/// assert!(check_json("{\"unclosed\": [").is_err());
/// assert!(check_json("{} trailing").is_err());
/// ```
pub fn check_json(text: &str) -> Result<(), JsonError> {
    parse_json(text).map(|_| ())
}

/// One parsed JSON value.
///
/// Numbers are kept as `f64` (every number the workspace emits fits);
/// callers that transport 64-bit digests use hex strings instead.
/// Object members keep their document order — duplicates are allowed
/// and [`JsonValue::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on other kinds or a missing key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fraction, no overflow).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements as owned strings, if this is an array of strings.
    pub fn as_str_vec(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("bad escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("unescaped control character in string")),
                _ => {
                    // Re-take the full UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("bad \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            self.pos += 1;
            v = (v << 4) | u16::from(digit);
        }
        Ok(v)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number span is ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("unrepresentable number"))
    }
}

/// Parses exactly one well-formed JSON document into a [`JsonValue`].
///
/// ```
/// use tve_obs::{parse_json, JsonValue};
///
/// let v = parse_json(r#"{"cmd": "stats", "n": 3}"#).unwrap();
/// assert_eq!(v.get("cmd").and_then(JsonValue::as_str), Some("stats"));
/// assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
/// assert!(parse_json("{} trailing").is_err());
/// ```
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

/// Appends `text` to `out` as a JSON string literal (quoted, escaped).
///
/// This is the emit-side companion of [`parse_json`]: the workspace's
/// hand-built JSON writers share one escaping rule instead of each
/// carrying their own.
pub fn append_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `items` to `out` as JSON string literals separated by `sep`
/// (the enclosing brackets are the caller's).
pub fn append_json_strings<'a>(
    out: &mut String,
    items: impl IntoIterator<Item = &'a str>,
    sep: &str,
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        append_json_string(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            " 0 ",
            "-12.5e-3",
            "\"\"",
            r#""\u00e9\n""#,
            "[]",
            "[1, [2, {\"a\": null}]]",
            "{}",
            r#"{"a": {"b": [false, "x,y"]}}"#,
        ] {
            check_json(doc).unwrap_or_else(|e| panic!("rejected {doc:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"bad \\u00g0\"",
            "01",
            "1.",
            "1e",
            "nul",
            "{} {}",
            "[1] x",
            r#""\ud83d""#,
            r#""\udc00""#,
        ] {
            assert!(check_json(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = check_json("[1, 2, oops]").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn parser_builds_values() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null], "b": {"c": "x\n\"y\""}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(4)
        );
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], JsonValue::Null);
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_decodes_escapes_and_utf8() {
        let v = parse_json(r#""café 😀 déjà""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀 déjà"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(parse_json(r#""\ud83d ""#).is_err());
    }

    #[test]
    fn string_round_trips_through_emitter() {
        for text in [
            "plain",
            "with \"quotes\" and \\",
            "ctrl \u{1} tab\t",
            "café",
        ] {
            let mut doc = String::new();
            append_json_string(&mut doc, text);
            check_json(&doc).unwrap();
            assert_eq!(parse_json(&doc).unwrap().as_str(), Some(text));
        }
    }
}
