//! The workspace's one JSON codec and string-literal codec.
//!
//! Hand-rolled on purpose: the telemetry crate is dependency-free, and
//! emission preserves *insertion order* of object fields so two runs of
//! the same binary produce byte-diffable output. Every JSON reader in
//! the workspace goes through [`parse`] — run reports, bench files,
//! serve requests and store entries, and spec JSON (which
//! `hotspots-scenario` maps onto its `Value` tree). The spec TOML
//! scanner shares the string half: [`read_str`] decodes its quoted
//! strings and [`write_str`] writes them, so one escape set covers
//! every wire format and the canonical spec text.
//!
//! The parser is strict RFC 8259 over a byte cursor: no trailing or
//! doubled commas, no `NaN`/`Infinity`, no leading zeros, and nesting
//! bounded by [`MAX_DEPTH`]. Errors are one [`ParseError`] type with a
//! 1-based line number.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Numbers keep their source text so `u64` counts
/// round-trip without `f64` precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; raw text preserved.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object members, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] and the spec TOML
/// scanner accept. The deepest any writer in this workspace emits is
/// the lint SARIF log at 8 levels (`runs[].results[].locations[]
/// .physicalLocation.region`); specs, Chrome traces and bench files
/// reach 4, serve responses 3, run reports 2. Past the bound, parsing
/// stops with a typed [`ParseError`] instead of recursing until the
/// stack overflows.
pub const MAX_DEPTH: usize = 64;

/// A parse error with a 1-based line number (JSON and spec TOML).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Appends `s` to `out` as a string literal, the one escaper for JSON
/// and spec TOML alike.
///
/// Control characters escape as `\u00XX`; scalars above the Basic
/// Multilingual Plane escape as UTF-16 surrogate pairs (U+1F600
/// becomes backslash-uD83D backslash-uDE00), hex in upper case, so
/// the output is ASCII-compatible and [`read_str`] reassembles the
/// original string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04X}", c as u32);
            }
            c if (c as u32) > 0xFFFF => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number (`null` for non-finite).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Decodes the string literal whose opening `"` is at byte `*pos` of
/// `text`, leaving `*pos` just past the closing quote.
///
/// Accepts the JSON escape set; a `\u` lead surrogate must be followed
/// by a `\u`-escaped trail surrogate (RFC 8259 §7), and a lone
/// surrogate of either kind is an error, never a replacement
/// character. A raw line feed ends the literal with an error, so a
/// string never spans lines and `line` tags every error.
///
/// # Errors
///
/// Unterminated literals, unknown escapes, and bad `\u` escapes.
pub fn read_str(text: &str, pos: &mut usize, line: usize) -> Result<String, ParseError> {
    let bytes = text.as_bytes();
    let at_line = |message: String| ParseError { line, message };
    let mut out = String::new();
    let mut i = *pos + 1;
    let mut run = i;
    loop {
        match bytes.get(i) {
            None | Some(b'\n') => return Err(at_line("unterminated string".into())),
            Some(b'"') => {
                out.push_str(&text[run..i]);
                *pos = i + 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(&text[run..i]);
                let escape = bytes.get(i + 1).copied();
                i += 2;
                out.push(match escape {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => unicode_escape(bytes, &mut i).map_err(at_line)?,
                    _ => return Err(at_line("unknown escape".into())),
                });
                run = i;
            }
            Some(_) => i += 1,
        }
    }
}

/// Four hex digits at `bytes[*i..]`, as a UTF-16 code unit.
fn hex4(bytes: &[u8], i: &mut usize) -> Result<u32, String> {
    let mut code = 0;
    for _ in 0..4 {
        let digit = bytes
            .get(*i)
            .and_then(|&b| char::from(b).to_digit(16))
            .ok_or("bad \\u escape (expected 4 hex digits)")?;
        code = code * 16 + digit;
        *i += 1;
    }
    Ok(code)
}

/// Decodes one `\u` escape (the `\u` itself already consumed): a BMP
/// scalar stands alone, a lead surrogate pairs with an escaped trail.
fn unicode_escape(bytes: &[u8], i: &mut usize) -> Result<char, String> {
    let hi = hex4(bytes, i)?;
    if (0xDC00..=0xDFFF).contains(&hi) {
        return Err(format!("lone trail surrogate \\u{hi:04X}"));
    }
    let code = if (0xD800..=0xDBFF).contains(&hi) {
        if bytes.get(*i..*i + 2) != Some(b"\\u".as_slice()) {
            return Err(format!(
                "lone lead surrogate \\u{hi:04X} (expected a \\u-escaped trail surrogate)"
            ));
        }
        *i += 2;
        let lo = hex4(bytes, i)?;
        if !(0xDC00..=0xDFFF).contains(&lo) {
            return Err(format!(
                "bad surrogate pair \\u{hi:04X}\\u{lo:04X} (trail not in DC00-DFFF)"
            ));
        }
        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
    } else {
        hi
    };
    char::from_u32(code).ok_or_else(|| format!("bad codepoint {code:#x}"))
}

/// Parses one JSON document (object, array, or scalar).
///
/// # Errors
///
/// Returns a line-tagged [`ParseError`] on malformed input, nesting
/// past [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        line: 1,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < input.len() {
        return p.fail("trailing input after JSON value");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            message: message.into(),
        })
    }

    /// Fails naming the character at the cursor.
    fn unexpected<T>(&self, wanted: &str) -> Result<T, ParseError> {
        match self.text[self.pos..].chars().next() {
            Some(c) => self.fail(format!("expected {wanted}, found {c:?}")),
            None => self.fail(format!("expected {wanted}, found end of input")),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => return,
            }
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.fail(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => read_str(self.text, &mut self.pos, self.line).map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.unexpected("a value"),
        }
    }

    /// After a member or element: `true` on `,` (another follows),
    /// `false` on `close`.
    fn more(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            self.unexpected(&format!("',' or '{}'", char::from(close)))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.unexpected("a string key");
            }
            let key = read_str(self.text, &mut self.pos, self.line)?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.unexpected("':'");
            }
            members.push((key, self.value(depth)?));
            if !self.more(b'}')? {
                return Ok(Json::Obj(members));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.more(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.unexpected(word)
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_owned()))
    }

    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.unexpected("a digit");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("-0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("2E+2").unwrap().as_f64(), Some(200.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX - 1;
        let parsed = parse(&big.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(big));
    }

    #[test]
    fn nested_structures_parse_in_order() {
        let doc = r#"{"a": 1, "b": {"x": [1, 2, {"deep": null}], "y": "z"}, "c": true}"#;
        let v = parse(doc).unwrap();
        let keys: Vec<_> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(v.get("b").unwrap().get("y").unwrap().as_str(), Some("z"));
        let arr = match v.get("b").unwrap().get("x").unwrap() {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(arr.len(), 3);
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{263a}";
        let mut out = String::new();
        write_str(&mut out, nasty);
        assert_eq!(parse(&out).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn non_bmp_scalars_escape_as_surrogate_pairs() {
        let s = "emoji \u{1F600} and gothic \u{10330}";
        let mut out = String::new();
        write_str(&mut out, s);
        assert!(out.is_ascii(), "non-BMP must escape to ASCII: {out}");
        assert!(out.contains("\\uD83D\\uDE00"), "got: {out}");
        assert_eq!(parse(&out).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // uppercase hex, as other emitters produce
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(parse("\"\\ud834\\udd1e\"").unwrap().as_str(), Some("𝄞"));
    }

    #[test]
    fn lone_surrogates_are_typed_errors() {
        let lead = parse("\"\\uD800\"").unwrap_err();
        assert!(lead.message.contains("lone lead surrogate"), "got: {lead}");
        let trail = parse("\"\\uDC00x\"").unwrap_err();
        assert!(
            trail.message.contains("lone trail surrogate"),
            "got: {trail}"
        );
        let pair = parse("\"\\uD800\\u0041\"").unwrap_err();
        assert!(pair.message.contains("bad surrogate pair"), "got: {pair}");
        // a lead surrogate followed by a raw (unescaped) char
        let raw = parse("\"\\uD800A\"").unwrap_err();
        assert!(raw.message.contains("lone lead surrogate"), "got: {raw}");
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, 1.25);
        assert_eq!(out, "1.25");
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "12x",
            "{} {}",
            // RFC 8259 strictness
            "nan",
            "-inf",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "[1,,2]",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "\"raw\nline feed\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("{\n  \"a\": 1,\n  \"b\": nan\n}").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert_eq!(parse("[\n\n1 2]").unwrap_err().line, 3);
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting deeper than"), "{e}");
        // exactly MAX_DEPTH levels still parse, one more does not
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past = format!(
            "{{\"a\":{}1{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        assert!(parse(&past).is_err());
    }
}
