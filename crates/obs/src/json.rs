//! The workspace's JSON: one value tree, one parser, one writer and one
//! string escaper.
//!
//! The approved dependency set has no serialisation framework, so every
//! crate that reads or writes JSON — runner archives and journals, the
//! serve wire protocol and cache WAL, fuzz corpus files, `osoffload
//! inspect` — goes through this module.
//!
//! - **Exact integers.** A number without fraction or exponent parses to
//!   [`Value::UInt`] when it fits `u64` and to [`Value::Int`] when it is
//!   negative and fits `i64`; seeds exceed 2^53, where `f64` starts
//!   dropping bits. Every other number is a [`Value::Float`].
//! - **Stable bytes.** Objects keep their source key order, and the
//!   writer renders a float with its point (`2.0`, not `2`), so a value
//!   read from the writer's own output writes back byte for byte.
//! - **Linear parsing.** A string is copied one run at a time up to the
//!   next `"` or `\`. Both are ASCII, so every run ends on a character
//!   boundary of the already-validated `&str`.
//!
//! Where the grammar is in doubt the parser follows RFC 8259:
//!
//! - a number starts with `-` or a digit and has digits after any `.`
//!   or exponent, so `+1`, `.5` and `1.` are errors;
//! - a `\u` surrogate pair decodes to one character, and a lone
//!   surrogate such as `\ud800` is an error (a `String` cannot hold it).
//!
//! It is lenient in two ways the workspace's files never exercise:
//! leading zeros (`01`) and raw control characters inside strings are
//! accepted. Nesting deeper than 128 arrays or objects is an error, so
//! hostile input cannot overflow the stack. Errors name the byte offset
//! of the failure.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (kept exact).
    UInt(u64),
    /// A negative integer that fits `i64` (kept exact).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at `key` of this object read through `get` (such as
    /// [`Value::as_u64`]), or an error naming `what` and `key` when the
    /// key is absent or holds another type.
    pub fn field<'a, T>(
        &'a self,
        what: &str,
        key: &str,
        get: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(get)
            .ok_or_else(|| format!("{what} missing {key}"))
    }

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a `u32`, if it is a non-negative integer that fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The value as an `f64` (integers are converted).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value compactly (no whitespace, source key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialises with two-space indentation and a trailing newline —
    /// the layout of files meant to be read and hand-edited.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the value to `out`: compact when `indent` is `None`,
    /// else pretty-printed at that nesting depth.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) if x.is_finite() => {
                // `{}` renders integral floats without a point; keep the
                // type distinction through a round trip.
                let s = x.to_string();
                out.push_str(&s);
                if !s.contains('.') {
                    out.push_str(".0");
                }
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => push_quoted(out, s),
            Value::Arr(items) => write_seq(out, indent, ['[', ']'], items, |out, v, inner| {
                v.write(out, inner);
            }),
            Value::Obj(fields) => {
                write_seq(out, indent, ['{', '}'], fields, |out, (k, v), inner| {
                    push_quoted(out, k);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                })
            }
        }
    }
}

/// Writes a bracketed, comma-separated sequence, one element a line
/// when pretty-printing; empty sequences stay `[]` / `{}`.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    elems: &[T],
    mut write_elem: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    let inner = indent.map(|d| d + 1);
    out.push(open);
    for (i, elem) in elems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline(out, d);
        }
        write_elem(out, elem, inner);
    }
    if let (Some(d), false) = (indent, elems.is_empty()) {
        newline(out, d);
    }
    out.push(close);
}

/// Escapes `s` for embedding between JSON quotes: `"`, `\`, `\n`, `\r`
/// and `\t` get their short escapes, other control characters `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Renders `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Copies `s` into `out` run by run; every byte that needs an escape is
/// ASCII, so each run ends on a character boundary.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Parses `text` as one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

/// The byte offset one past the JSON value that starts at `pos` in
/// `text`, or `None` if no well-formed value starts there. For slicing
/// a value's verbatim bytes out of a larger document.
pub fn value_end(text: &str, pos: usize) -> Option<usize> {
    let mut p = Parser {
        text,
        pos,
        depth: 0,
    };
    p.value().ok().map(|_| p.pos)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.elements(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses the comma-separated elements of the array or object whose
    /// opening bracket is under the cursor, through `close`.
    fn elements(
        &mut self,
        close: u8,
        mut elem: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                elem(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err(&format!("expected ',' or '{}'", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        self.digits()?;
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(n) = text.parse() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse() {
                return Ok(Value::Int(n));
            }
        }
        text.parse()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            });
        }
    }

    /// Decodes the hex digits of a `\u` escape (the cursor just past the
    /// `u`), joining a surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("lone surrogate in \\u escape"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    /// Every document and what it must parse to (`None`: an error). The
    /// last group holds the inputs the workspace's earlier two readers
    /// disagreed on; the module doc states the behaviour chosen.
    #[test]
    fn parse_table() {
        use Value::{Arr, Bool, Float, Int, Null, Str, UInt};
        let cases: Vec<(&str, Option<Value>)> = vec![
            (
                r#"{"a":1,"b":-2,"c":1.5,"d":"x\ny","e":[true,false,null]}"#,
                Some(obj(&[
                    ("a", UInt(1)),
                    ("b", Int(-2)),
                    ("c", Float(1.5)),
                    ("d", Str("x\ny".into())),
                    ("e", Arr(vec![Bool(true), Bool(false), Null])),
                ])),
            ),
            (
                r#" {"a": 3, "b": "x", "c": [true], "d": false} "#,
                Some(obj(&[
                    ("a", UInt(3)),
                    ("b", Str("x".into())),
                    ("c", Arr(vec![Bool(true)])),
                    ("d", Bool(false)),
                ])),
            ),
            ("[ ]", Some(Arr(vec![]))),
            ("{ }", Some(obj(&[]))),
            ("18446744073709551615", Some(UInt(u64::MAX))),
            ("9223372036854775811", Some(UInt((1 << 63) + 3))),
            ("-9223372036854775808", Some(Int(i64::MIN))),
            ("18446744073709551616", Some(Float(18446744073709551616.0))),
            ("-0", Some(Int(0))),
            ("2.0", Some(Float(2.0))),
            ("-3", Some(Int(-3))),
            ("1e3", Some(Float(1000.0))),
            ("-2.5E-1", Some(Float(-0.25))),
            ("01", Some(UInt(1))),
            (
                r#""\"\\\/\b\f\n\r\t""#,
                Some(Str("\"\\/\u{8}\u{c}\n\r\t".into())),
            ),
            (r#""éé😀""#, Some(Str("éé\u{1f600}".into()))),
            ("", None),
            ("{", None),
            ("[1,", None),
            ("[1,]", None),
            ("\"x", None),
            ("\"x\\", None),
            ("{\"a\"", None),
            ("{\"a\" 1}", None),
            ("{\"a\":1", None),
            ("{\"a\":1}garbage", None),
            ("{} {}", None),
            ("{1:2}", None),
            ("nul", None),
            ("01x", None),
            ("1.", None),
            ("1e", None),
            ("-", None),
            (r#""\x""#, None),
            (r#""\u12g4""#, None),
            (r#""\u12""#, None),
            // Accepted by one earlier reader, rejected here.
            ("+1", None),
            (".5", None),
            (r#""\ud800""#, None),
            (r#""\ud800A""#, None),
            (r#""\ude00""#, None),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).ok(), want, "{text:?}");
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = parse("[1, ?]").unwrap_err();
        assert!(e.contains("byte 4"), "{e}");
        let e = parse("{\"a\":1}x").unwrap_err();
        assert!(e.contains("trailing data at byte 7"), "{e}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting too deep"), "{e}");
        // A megabyte of openers fails cleanly instead of overflowing the
        // stack.
        assert!(parse(&"[{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn documents_round_trip_compact_and_pretty() {
        let doc = obj(&[
            ("name", Value::Str("we\"ird\\s\n\u{1}é".into())),
            ("seed", Value::UInt(u64::MAX)),
            ("neg", Value::Int(-7)),
            ("x", Value::Float(0.25)),
            ("two", Value::Float(2.0)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            ("list", Value::Arr(vec![Value::UInt(1), Value::UInt(2)])),
            ("empty", Value::Arr(vec![])),
            ("nested", obj(&[("in", obj(&[]))])),
        ]);
        for text in [doc.to_json(), doc.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
            assert_eq!(parse(&text).unwrap().to_json(), doc.to_json());
        }
        assert_eq!(
            obj(&[
                ("a", Value::Arr(vec![Value::UInt(1), Value::Arr(vec![])])),
                ("b", obj(&[("c", Value::Float(2.0))])),
            ])
            .to_json_pretty(),
            "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {\n    \"c\": 2.0\n  }\n}\n"
        );
    }

    #[test]
    fn floats_keep_their_point_and_non_finite_is_null() {
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(Value::Float(-0.5).to_json(), "-0.5");
        assert_eq!(Value::Float(1e21).to_json(), "1000000000000000000000.0");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn escaper_matches_the_short_forms() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\t\r\u{1}\u{1f}é"), "\\t\\r\\u0001\\u001fé");
        assert_eq!(quote("x\u{1}"), "\"x\\u0001\"");
        assert_eq!(quote(""), "\"\"");
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": 3, "b": "x", "c": [true], "d": false, "e": -1}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("a").and_then(Value::as_usize), Some(3));
        assert_eq!(doc.get("a").and_then(Value::as_u32), Some(3));
        assert_eq!(doc.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(doc.get("d").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("e").and_then(Value::as_u64), None);
        assert_eq!(doc.get("e").and_then(Value::as_f64), Some(-1.0));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Value::Null.get("a"), None);
    }

    #[test]
    fn value_end_slices_verbatim_values() {
        let text = r#"{"config":{"id":"a}\"b","n":[1,2]},"seed":12}"#;
        let at = text.find('{').unwrap() + "{\"config\":".len();
        let end = value_end(text, at).unwrap();
        assert_eq!(&text[at..end], r#"{"id":"a}\"b","n":[1,2]}"#);
        let seed = text.find("12").unwrap();
        assert_eq!(value_end(text, seed), Some(seed + 2));
        assert_eq!(value_end("{\"a\":", 0), None);
    }

    /// The string scan is linear: a 4 MiB value (with multi-byte
    /// characters and escapes throughout) parses in milliseconds, where
    /// a per-character re-validation of the remaining input takes hours.
    #[test]
    fn a_4_mib_string_parses_quickly() {
        let unit = "0123456789abcdef".repeat(63) + "é\\\"\\n";
        let units = (4 << 20) / unit.len() + 1;
        let text = format!("{{\"s\":\"{}\"}}", unit.repeat(units));
        let start = std::time::Instant::now();
        let doc = parse(&text).unwrap();
        let elapsed = start.elapsed();
        let s = doc.get("s").and_then(Value::as_str).unwrap();
        // Each unit's two escapes lose their backslashes.
        assert_eq!(s.len(), units * (unit.len() - 2));
        assert_eq!(s.matches("é\"\n").count(), units);
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
    }
}
