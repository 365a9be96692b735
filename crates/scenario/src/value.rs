//! The dynamic value tree behind spec (de)serialization.
//!
//! Hand-rolled on purpose: the build environment has no registry
//! access, so there is no serde. [`Value`] is the small common model
//! spec TOML and spec JSON both map onto;
//! [`ScenarioSpec`](crate::ScenarioSpec) converts itself to and from it.
//!
//! There is one codec underneath, `hotspots_telemetry::json`: JSON
//! reads through its strict parser ([`from_json`] only maps the parsed
//! tree onto a `Value`), and both writers and the TOML scanner quote
//! strings with its `write_str`/`read_str`, so the canonical spec text
//! and every wire format share one escape set. This module keeps only
//! the TOML layout: the subset the spec schema needs — `[section]` and
//! `[section.sub]` headers, `key = value` pairs, strings, integers,
//! floats, booleans, and single-line arrays — with `#` comments.
//! Emission is deterministic (insertion order), so spec → TOML → spec
//! round-trips byte-stably.

use std::fmt;

use hotspots_telemetry::json::{self, Json, MAX_DEPTH};

pub use hotspots_telemetry::json::ParseError;

/// A dynamically typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A float. Emitted with a decimal point so it re-parses as a float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (possibly heterogeneous, e.g. `[10, 100, "full"]`).
    Array(Vec<Value>),
    /// A key → value table, in insertion order.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(Vec::new())
    }

    /// Member lookup on tables.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts (or replaces) `key` in a table. No-op on non-tables.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Table(entries) = self {
            if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                entries.push((key.to_owned(), value));
            }
        }
    }

    /// Looks up a dotted path (`"sim.scan_rate"`).
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// Sets a dotted path, creating intermediate tables as needed.
    /// Fails if a non-leaf path component is present but not a table.
    pub fn set_path(&mut self, path: &str, value: Value) -> Result<(), String> {
        let mut cur = self;
        let parts: Vec<&str> = path.split('.').collect();
        for (i, part) in parts.iter().enumerate() {
            if i + 1 == parts.len() {
                match cur {
                    Value::Table(_) => {
                        cur.set(part, value);
                        return Ok(());
                    }
                    _ => return Err(format!("path {path:?}: parent of {part:?} is not a table")),
                }
            }
            let is_table = matches!(cur, Value::Table(_));
            if !is_table {
                return Err(format!("path {path:?}: component {part:?} is not a table"));
            }
            if cur.get(part).is_none() {
                cur.set(part, Value::table());
            }
            let Value::Table(entries) = cur else {
                unreachable!()
            };
            cur = entries
                .iter_mut()
                .find(|(k, _)| k == *part)
                .map(|(_, v)| v)
                .expect("just inserted"); // hotspots-lint: allow(panic-path) reason="entry inserted on the previous line"
        }
        Err(format!("path {path:?} is empty"))
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64`, if an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short name for the value's type, used in validation errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

impl fmt::Display for Value {
    /// Human-oriented display: strings print bare (no quotes), every
    /// other shape as its inline TOML literal.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            other => {
                let mut out = String::new();
                write_inline(&mut out, other);
                f.write_str(&out)
            }
        }
    }
}

/// Formats a float so it re-parses as a float (`7` becomes `7.0`).
fn write_float(out: &mut String, f: f64) {
    if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_inline(out: &mut String, value: &Value) {
    match value {
        Value::Str(s) => json::write_str(out, s),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item);
            }
            out.push(']');
        }
        // never reached from emit_table (which filters tables into
        // [sections]); used by Display for stray table values
        Value::Table(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(key);
                out.push_str(" = ");
                write_inline(out, item);
            }
            out.push('}');
        }
    }
}

fn emit_table(out: &mut String, prefix: &str, entries: &[(String, Value)]) {
    // scalars first (they belong to this section), subtables after
    for (key, value) in entries {
        if !matches!(value, Value::Table(_)) {
            out.push_str(key);
            out.push_str(" = ");
            write_inline(out, value);
            out.push('\n');
        }
    }
    for (key, value) in entries {
        if let Value::Table(sub) = value {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            out.push_str(&format!("\n[{path}]\n"));
            emit_table(out, &path, sub);
        }
    }
}

/// Serializes a table value as TOML.
///
/// # Panics
///
/// Panics if `value` is not a [`Value::Table`] (specs always are).
pub fn to_toml(value: &Value) -> String {
    let Value::Table(entries) = value else {
        panic!("top-level TOML value must be a table"); // hotspots-lint: allow(panic-path) reason="documented API contract: top-level specs are tables"
    };
    let mut out = String::new();
    emit_table(&mut out, "", entries);
    out
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// One value; `depth` counts the arrays already open around it.
    fn parse_scalar(&mut self, depth: usize) -> Result<Value, ParseError> {
        let line = self.line;
        self.skip_ws();
        match self.peek() {
            Some('"') => Ok(Value::Str(json::read_str(
                self.text,
                &mut self.pos,
                self.line,
            )?)),
            Some('[') if depth == MAX_DEPTH => {
                err(line, format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(']') => {
                            self.bump();
                            return Ok(Value::Array(items));
                        }
                        Some(',') => {
                            self.bump();
                        }
                        None | Some('\n') => return err(line, "unterminated array"),
                        _ => items.push(self.parse_scalar(depth + 1)?),
                    }
                }
            }
            Some(c) if c.is_ascii_alphanumeric() || c == '-' || c == '+' || c == '.' => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_alphanumeric() || "+-._".contains(c)
                ) {
                    self.bump();
                }
                let word = &self.text[start..self.pos];
                match word {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    _ => {
                        let plain = word.replace('_', "");
                        if let Some(hex) = plain.strip_prefix("0x") {
                            if let Ok(i) = i64::from_str_radix(hex, 16) {
                                return Ok(Value::Int(i));
                            }
                        }
                        if let Ok(i) = plain.parse::<i64>() {
                            Ok(Value::Int(i))
                        } else if let Ok(f) = plain.parse::<f64>() {
                            Ok(Value::Float(f))
                        } else {
                            err(line, format!("cannot parse value {word:?}"))
                        }
                    }
                }
            }
            other => err(line, format!("unexpected {other:?} in value position")),
        }
    }
}

/// Parses the supported TOML subset into a [`Value::Table`].
pub fn from_toml(text: &str) -> Result<Value, ParseError> {
    let mut root = Value::table();
    let mut section = String::new();
    let mut scanner = Scanner {
        text,
        pos: 0,
        line: 1,
    };
    loop {
        scanner.skip_ws();
        match scanner.peek() {
            None => return Ok(root),
            Some('\n') => {
                scanner.bump();
            }
            Some('#') => {
                while !matches!(scanner.peek(), None | Some('\n')) {
                    scanner.bump();
                }
            }
            Some('[') => {
                let line = scanner.line;
                scanner.bump();
                let start = scanner.pos;
                while !matches!(scanner.peek(), None | Some(']' | '\n')) {
                    scanner.bump();
                }
                if scanner.peek() != Some(']') {
                    return err(line, "unterminated [section] header");
                }
                let name = scanner.text[start..scanner.pos].trim().to_owned();
                scanner.bump();
                if name.is_empty() || name.starts_with("[") {
                    return err(line, "empty or array-of-tables section header");
                }
                // ensure the table exists even if the section is empty
                root.set_path(&name, Value::table())
                    .map_err(|m| ParseError { line, message: m })?;
                section = name;
            }
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let line = scanner.line;
                let start = scanner.pos;
                while matches!(
                    scanner.peek(),
                    Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-'
                ) {
                    scanner.bump();
                }
                let key = scanner.text[start..scanner.pos].to_owned();
                scanner.skip_ws();
                if scanner.peek() != Some('=') {
                    return err(line, format!("expected '=' after key {key:?}"));
                }
                scanner.bump();
                let value = scanner.parse_scalar(0)?;
                scanner.skip_ws();
                if let Some('#') = scanner.peek() {
                    while !matches!(scanner.peek(), None | Some('\n')) {
                        scanner.bump();
                    }
                }
                if !matches!(scanner.peek(), None | Some('\n')) {
                    return err(line, format!("trailing input after value for {key:?}"));
                }
                let path = if section.is_empty() {
                    key
                } else {
                    format!("{section}.{key}")
                };
                root.set_path(&path, value)
                    .map_err(|m| ParseError { line, message: m })?;
            }
            Some(c) => return err(scanner.line, format!("unexpected character {c:?}")),
        }
    }
}

/// Serializes a value as compact JSON (insertion order preserved).
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_json(&mut out, value);
    out
}

fn write_json(out: &mut String, value: &Value) {
    match value {
        Value::Str(s) => json::write_str(out, s),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Value::Table(entries) => {
            out.push('{');
            for (i, (key, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, key);
                out.push(':');
                write_json(out, v);
            }
            out.push('}');
        }
    }
}

/// Parses JSON into a [`Value`]: objects become tables, numbers
/// `Int` when they parse as `i64` and `Float` otherwise. `null` has no
/// `Value` form; it is rejected naming its dotted path, on line 1 (the
/// parsed tree carries no source lines).
pub fn from_json(text: &str) -> Result<Value, ParseError> {
    from_tree(json::parse(text)?).map_err(|path| ParseError {
        line: 1,
        message: format!(
            "null is not a spec value (at {})",
            path.trim_start_matches('.')
        ),
    })
}

/// Maps a parsed JSON tree onto a [`Value`]; `Err` holds the path of
/// the first `null`.
fn from_tree(doc: Json) -> Result<Value, String> {
    Ok(match doc {
        Json::Null => return Err(String::new()),
        Json::Bool(b) => Value::Bool(b),
        // an RFC 8259 number always parses as f64 (huge ones as inf)
        Json::Num(raw) => match raw.parse() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Float(raw.parse().unwrap_or(f64::NAN)),
        },
        Json::Str(s) => Value::Str(s),
        Json::Arr(items) => Value::Array(
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| from_tree(item).map_err(|path| format!("[{i}]{path}")))
                .collect::<Result<_, _>>()?,
        ),
        Json::Obj(members) => Value::Table(
            members
                .into_iter()
                .map(|(key, v)| match from_tree(v) {
                    Ok(v) => Ok((key, v)),
                    Err(path) => Err(format!(".{key}{path}")),
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_like() -> Value {
        let mut v = Value::table();
        v.set("name", Value::Str("fig-x".into()));
        let mut sim = Value::table();
        sim.set("scan_rate", Value::Float(10.0));
        sim.set("seeds", Value::Int(25));
        sim.set("stop", Value::Bool(true));
        sim.set(
            "sizes",
            Value::Array(vec![
                Value::Int(10),
                Value::Int(100),
                Value::Str("full".into()),
            ]),
        );
        v.set("sim", sim);
        v
    }

    #[test]
    fn toml_round_trips() {
        let v = spec_like();
        let text = to_toml(&v);
        let back = from_toml(&text).expect("parse emitted TOML");
        assert_eq!(v, back, "emitted:\n{text}");
        // and emission is stable
        assert_eq!(to_toml(&back), text);
    }

    #[test]
    fn json_round_trips() {
        let v = spec_like();
        let back = from_json(&to_json(&v)).expect("parse emitted JSON");
        assert_eq!(v, back);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut v = Value::table();
        v.set("x", Value::Float(7.0));
        let back = from_toml(&to_toml(&v)).unwrap();
        assert_eq!(back.get("x"), Some(&Value::Float(7.0)));
    }

    #[test]
    fn hex_and_underscored_ints_parse() {
        let v = from_toml("seed = 0x4d53_2006\nbig = 1_000_000\n").unwrap();
        assert_eq!(v.get("seed").unwrap().as_int(), Some(0x4d53_2006));
        assert_eq!(v.get("big").unwrap().as_int(), Some(1_000_000));
    }

    #[test]
    fn sections_nest() {
        let v = from_toml("[a]\nx = 1\n[a.b]\ny = 2\n").unwrap();
        assert_eq!(v.get_path("a.x").unwrap().as_int(), Some(1));
        assert_eq!(v.get_path("a.b.y").unwrap().as_int(), Some(2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_toml("x = 1\ny ==\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = from_toml("x = @\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn set_path_creates_and_rejects() {
        let mut v = Value::table();
        v.set_path("a.b.c", Value::Int(3)).unwrap();
        assert_eq!(v.get_path("a.b.c").unwrap().as_int(), Some(3));
        v.set("leaf", Value::Int(1));
        assert!(v.set_path("leaf.x", Value::Int(2)).is_err());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let v = from_toml("# header\n\nx = 1 # trailing\n").unwrap();
        assert_eq!(v.get("x").unwrap().as_int(), Some(1));
    }

    #[test]
    fn non_bmp_strings_round_trip_as_surrogate_pairs() {
        let mut v = Value::table();
        v.set("s", Value::Str("emoji \u{1F600}, clef \u{1D11E}".into()));
        let toml = to_toml(&v);
        assert!(toml.is_ascii(), "non-BMP must escape to ASCII: {toml}");
        assert!(toml.contains("\\uD83D\\uDE00"), "got: {toml}");
        assert_eq!(from_toml(&toml).unwrap(), v);
        let json = to_json(&v);
        assert!(json.is_ascii(), "got: {json}");
        assert_eq!(from_json(&json).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_are_typed_errors() {
        for bad in [
            "s = \"\\uD800\"",
            "s = \"\\uDC00\"",
            "s = \"\\uD800\\u0041\"",
            "s = \"\\uD800x\"",
        ] {
            let e = from_toml(bad).unwrap_err();
            assert!(e.message.contains("surrogate"), "{bad}: {e}");
        }
        let e = from_json("{\"s\":\"\\uDFFF\"}").unwrap_err();
        assert!(e.message.contains("lone trail surrogate"), "got: {e}");
    }

    #[test]
    fn json_compat_escapes_parse() {
        let v = from_json("{\"s\":\"a\\/b\\u0008\\u000c\\b\\f\"}").unwrap();
        assert_eq!(
            v.get("s").unwrap().as_str(),
            Some("a/b\u{8}\u{c}\u{8}\u{c}")
        );
    }

    #[test]
    fn control_chars_and_quotes_in_meta_strings_round_trip() {
        // the satellite-2 audit case: a description with a newline,
        // tab, quote, backslash, and each C0 control must emit
        // re-parseable TOML and JSON
        let mut nasty = String::from("line1\nline2\ttab \"quoted\" back\\slash ");
        for c in 0u32..0x20 {
            nasty.push(char::from_u32(c).expect("C0 controls are chars"));
        }
        let mut v = Value::table();
        v.set("desc", Value::Str(nasty.clone()));
        let toml = to_toml(&v);
        assert_eq!(
            from_toml(&toml).unwrap().get("desc").unwrap().as_str(),
            Some(nasty.as_str()),
            "emitted TOML: {toml:?}"
        );
        let json = to_json(&v);
        assert_eq!(
            from_json(&json).unwrap().get("desc").unwrap().as_str(),
            Some(nasty.as_str()),
            "emitted JSON: {json:?}"
        );
    }
}
