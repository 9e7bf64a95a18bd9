//! Serde-free JSON: a parser, typed field readers, and an append-only
//! writer.
//!
//! [`parse_json`] reads one RFC 8259 document into a [`JsonValue`] tree.
//! It accepts exactly one top-level value (plus whitespace) and rejects
//! trailing garbage, unterminated strings, bad escapes, unpaired
//! surrogates and malformed numbers. [`check_json`] is the same grammar
//! with the tree thrown away. Decoders read required members with the
//! typed readers ([`JsonValue::str_field`], [`JsonValue::int_field`],
//! [`JsonValue::hex_field`], …), whose errors name the field.
//!
//! [`JsonObject`] and [`JsonArray`] write straight into the caller's
//! `String` — no tree, no allocation per member — and close their
//! bracket when dropped. A [`Layout`] picks the separators: compact
//! (`,` `:`) for wire records and protocol frames, spaced (`, ` `: `)
//! for single-line artifact records, or one member per line for the
//! pretty artifacts. The workspace's JSON encoders all write through
//! them, so one escaping rule and one number format hold everywhere.

use std::fmt::{self, Write as _};

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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    // The required-member readers: each error names the field.

    /// Required member `key`.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn typed<'v, T>(
        &'v self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'v JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or non-{what} field '{key}'"))
    }

    /// Required string member `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "string", JsonValue::as_str)
    }

    /// Required integer member `key` (exact, up to 2^53), converted to `T`.
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.typed(key, "integer", JsonValue::as_u64)?;
        T::try_from(n).map_err(|_| format!("field '{key}' out of range"))
    }

    /// Required boolean member `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "boolean", JsonValue::as_bool)
    }

    /// Required member `key` holding a `u64` as a hex string, the way
    /// digests and values above 2^53 travel.
    pub fn hex_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "hex", |v| u64::from_str_radix(v.as_str()?, 16).ok())
    }

    /// Required array member `key`.
    pub fn arr_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.typed(key, "array", JsonValue::as_arr)
    }

    /// Required string-array member `key`.
    pub fn strs_field(&self, key: &str) -> Result<Vec<String>, String> {
        self.typed(key, "string-array", |v| {
            v.as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })
    }

    fn append_to(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            JsonValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Str(s) => append_json_string(out, s),
            JsonValue::Arr(items) => {
                let mut arr = JsonArray::new(out, Layout::COMPACT);
                for item in items {
                    arr.value(item);
                }
            }
            JsonValue::Obj(members) => {
                let mut obj = JsonObject::new(out, Layout::COMPACT);
                for (key, item) in members {
                    obj.value(key, item);
                }
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// The value as compact JSON. Integral numbers below 9e15 print
    /// without a fraction, other numbers in Rust's shortest round-trip
    /// `f64` form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.append_to(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    text: &'a str,
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
                    // Copy the run up to the next quote, escape or
                    // control byte whole: those bytes are ASCII, so the
                    // run ends on a char boundary of the input `str`.
                    let start = self.pos - 1;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
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
        self.text[start..self.pos]
            .parse::<f64>()
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
        text,
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

/// Appends `text` to `out` as a JSON string literal (quoted, escaped):
/// the one escaping rule of every JSON writer in the workspace.
pub fn append_json_string(out: &mut String, text: &str) {
    out.push('"');
    // Copy the runs between escapes whole; every byte that needs one is
    // ASCII, so the run boundaries are char boundaries.
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&text[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&text[run..]);
    out.push('"');
}

/// The separators a [`JsonObject`] or [`JsonArray`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    comma: &'static str,
    colon: &'static str,
    indent: &'static str,
    end: &'static str,
}

impl Layout {
    /// `{"a":1,"b":[2,3]}`: wire records and protocol frames.
    pub const COMPACT: Layout = Layout {
        comma: ",",
        colon: ":",
        indent: "",
        end: "",
    };

    /// `{"a": 1, "b": [2, 3]}`: single-line artifact records.
    pub const SPACED: Layout = Layout {
        comma: ", ",
        colon: ": ",
        indent: "",
        end: "",
    };

    /// One member per line: `indent` (newline and indentation) before
    /// every member, `end` before the closing bracket even when empty.
    pub const fn lines(indent: &'static str, end: &'static str) -> Layout {
        Layout {
            comma: ",",
            colon: ": ",
            indent,
            end,
        }
    }

    /// A nested container's default: its parent's layout, except that
    /// one-member-per-line containers nest spaced ones.
    fn nested(self) -> Layout {
        if self.indent.is_empty() {
            self
        } else {
            Layout::SPACED
        }
    }
}

/// The shared state of an open object or array.
struct Open<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
    close: char,
}

impl<'a> Open<'a> {
    fn new(out: &'a mut String, layout: Layout, open: char, close: char) -> Self {
        out.push(open);
        Open {
            out,
            layout,
            empty: true,
            close,
        }
    }

    /// Starts the next member: separator, indentation and, in an
    /// object, the key.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        if !self.empty {
            self.out.push_str(self.layout.comma);
        }
        self.empty = false;
        self.out.push_str(self.layout.indent);
        if let Some(key) = key {
            append_json_string(self.out, key);
            self.out.push_str(self.layout.colon);
        }
        self.out
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.out.push_str(self.layout.end);
        self.out.push(self.close);
    }
}

/// An open JSON object writing into a caller's `String`; the closing
/// `}` is written when it is dropped.
///
/// ```
/// use tve_obs::{JsonObject, Layout};
///
/// let mut out = String::new();
/// JsonObject::new(&mut out, Layout::SPACED)
///     .str("name", "T1 \"bist\"")
///     .num("cycles", 1200)
///     .fixed("share", 0.25, 3)
///     .strs("tags", ["a", "b"]);
/// assert_eq!(
///     out,
///     r#"{"name": "T1 \"bist\"", "cycles": 1200, "share": 0.250, "tags": ["a", "b"]}"#
/// );
/// ```
pub struct JsonObject<'a>(Open<'a>);

impl<'a> JsonObject<'a> {
    /// Writes `{` and opens an object in `layout`.
    pub fn new(out: &'a mut String, layout: Layout) -> Self {
        JsonObject(Open::new(out, layout, '{', '}'))
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        append_json_string(self.0.next(Some(key)), value);
        self
    }

    /// A number member in its `Display` form (integers, or a float's
    /// shortest round-trip form).
    pub fn num(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        let _ = write!(self.0.next(Some(key)), "{value}");
        self
    }

    /// A float member with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.0.next(Some(key)), "{value:.decimals$}");
        self
    }

    /// A `u64` member as a 16-digit hex string (digests, fingerprints,
    /// and values a JSON number cannot carry exactly).
    pub fn hex(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.0.next(Some(key)), "\"{value:016x}\"");
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.raw(key, "null")
    }

    /// A member whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.0.next(Some(key)).push_str(json);
        self
    }

    fn value(&mut self, key: &str, value: &JsonValue) {
        value.append_to(self.0.next(Some(key)));
    }

    /// An array-of-strings member, in this object's nested layout.
    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let mut arr = self.arr(key);
        for item in items {
            arr.str(item.as_ref());
        }
        drop(arr);
        self
    }

    /// An array-of-numbers member, in this object's nested layout.
    pub fn nums<T: fmt::Display>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        let mut arr = self.arr(key);
        for item in items {
            arr.num(item);
        }
        drop(arr);
        self
    }

    /// An array member holding one object per item, each filled by
    /// `write`, in this object's nested layout.
    pub fn objs<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        write: impl FnMut(&mut JsonObject, T),
    ) -> &mut Self {
        let layout = self.0.layout.nested();
        self.objs_in(key, layout, items, write)
    }

    /// [`objs`](JsonObject::objs) with the array in `layout`.
    pub fn objs_in<T>(
        &mut self,
        key: &str,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut JsonObject, T),
    ) -> &mut Self {
        let mut arr = self.arr_in(key, layout);
        for item in items {
            write(&mut arr.obj(), item);
        }
        drop(arr);
        self
    }

    /// Opens an object member in this object's nested layout.
    pub fn obj(&mut self, key: &str) -> JsonObject<'_> {
        let layout = self.0.layout.nested();
        self.obj_in(key, layout)
    }

    /// Opens an object member in `layout`.
    pub fn obj_in(&mut self, key: &str, layout: Layout) -> JsonObject<'_> {
        JsonObject::new(self.0.next(Some(key)), layout)
    }

    fn arr(&mut self, key: &str) -> JsonArray<'_> {
        let layout = self.0.layout.nested();
        self.arr_in(key, layout)
    }

    /// Opens an array member in `layout`.
    pub fn arr_in(&mut self, key: &str, layout: Layout) -> JsonArray<'_> {
        JsonArray::new(self.0.next(Some(key)), layout)
    }
}

/// A compact single-line object filled by `write`: a wire record or a
/// protocol frame.
pub fn json_line(write: impl FnOnce(&mut JsonObject)) -> String {
    let mut out = String::with_capacity(128);
    write(&mut JsonObject::new(&mut out, Layout::COMPACT));
    out
}

/// A pretty-printed document: a top-level object filled by `write`,
/// one member per line at a two-space indent, ending with a newline —
/// the layout of the workspace's JSON artifacts.
pub fn json_document(write: impl FnOnce(&mut JsonObject)) -> String {
    let mut out = String::new();
    write(&mut JsonObject::new(&mut out, Layout::lines("\n  ", "\n")));
    out.push('\n');
    out
}

/// An open JSON array writing into a caller's `String` (see
/// [`JsonObject::arr_in`]); the closing `]` is written when it is
/// dropped.
pub struct JsonArray<'a>(Open<'a>);

impl<'a> JsonArray<'a> {
    fn new(out: &'a mut String, layout: Layout) -> Self {
        JsonArray(Open::new(out, layout, '[', ']'))
    }

    fn str(&mut self, value: &str) {
        append_json_string(self.0.next(None), value);
    }

    fn num(&mut self, value: impl fmt::Display) {
        let _ = write!(self.0.next(None), "{value}");
    }

    fn value(&mut self, value: &JsonValue) {
        value.append_to(self.0.next(None));
    }

    fn obj(&mut self) -> JsonObject<'_> {
        let layout = self.0.layout.nested();
        self.obj_in(layout)
    }

    /// Opens an object element in `layout`.
    pub fn obj_in(&mut self, layout: Layout) -> JsonObject<'_> {
        JsonObject::new(self.0.next(None), layout)
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

    #[test]
    fn writer_layouts_nest_and_close_on_drop() {
        let mut out = String::new();
        let mut doc = JsonObject::new(&mut out, Layout::lines("\n  ", "\n"));
        doc.num("n", 3)
            .hex("fp", 0xbeef)
            .bool("ok", true)
            .null("none");
        doc.arr_in("rows", Layout::lines("\n    ", "\n  "))
            .obj()
            .fixed("x", 1.0 / 3.0, 3)
            .nums("v", [1, 2]);
        drop(doc.arr_in("empty", Layout::lines("\n    ", "\n  ")));
        drop(doc);
        assert_eq!(
            out,
            "{\n  \"n\": 3,\n  \"fp\": \"000000000000beef\",\n  \"ok\": true,\n  \
             \"none\": null,\n  \"rows\": [\n    {\"x\": 0.333, \"v\": [1, 2]}\n  ],\n  \
             \"empty\": [\n  ]\n}"
        );
        check_json(&out).unwrap();

        let mut out = String::new();
        JsonObject::new(&mut out, Layout::COMPACT)
            .str("k", "a\"b")
            .raw("r", "{}")
            .obj("o")
            .strs("s", ["x", "y"]);
        assert_eq!(out, r#"{"k":"a\"b","r":{},"o":{"s":["x","y"]}}"#);
    }

    #[test]
    fn values_render_compactly_and_round_trip() {
        let text =
            r#"{"a": 1, "b": -2.5, "c": -0.0, "d": 1e20, "s": "x\n", "v": [true, null, {}]}"#;
        let v = parse_json(text).unwrap();
        let rendered = v.to_string();
        assert_eq!(
            rendered,
            r#"{"a":1,"b":-2.5,"c":0,"d":100000000000000000000,"s":"x\n","v":[true,null,{}]}"#
        );
        assert_eq!(parse_json(&rendered).unwrap(), v);
    }

    #[test]
    fn typed_readers_name_the_field() {
        let v = parse_json(r#"{"s": "x", "n": 300, "h": "ff", "b": false, "a": ["p"], "m": 1.5}"#)
            .unwrap();
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.int_field::<u64>("n"), Ok(300));
        assert_eq!(v.hex_field("h"), Ok(255));
        assert_eq!(v.bool_field("b"), Ok(false));
        assert_eq!(v.strs_field("a"), Ok(vec!["p".to_string()]));
        assert_eq!(v.arr_field("a").map(<[_]>::len), Ok(1));
        assert_eq!(v.field("zz").unwrap_err(), "missing field 'zz'");
        assert_eq!(
            v.str_field("n").unwrap_err(),
            "missing or non-string field 'n'"
        );
        assert_eq!(
            v.int_field::<u64>("m").unwrap_err(),
            "missing or non-integer field 'm'"
        );
        assert_eq!(
            v.int_field::<u8>("n").unwrap_err(),
            "field 'n' out of range"
        );
        assert_eq!(
            v.hex_field("s").unwrap_err(),
            "missing or non-hex field 's'"
        );
    }
}
