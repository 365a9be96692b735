//! Field walks: the one key list per spec table, run by a reader, a
//! writer and a checker.
//!
//! Each table of the schema has one [`walk!`] body (in the parent
//! module). It visits the table's keys in canonical order and names,
//! for each, the field it fills and the rule it must meet. `req` marks
//! a key the table must carry; any other key left out keeps the
//! section's `Default`, or the default the walk names with `field_or`.
//! The same body drives the [`Reader`] (`ScenarioSpec::from_value`),
//! the [`Writer`] (`to_value`) and the [`Checker`] (`validate`). A
//! `cross` step holds the checks that span several keys and runs after
//! them.
//!
//! A rule's error names its field relative to where the checker stands:
//! `""` for the key itself, `"[i]"` for a list item, `".key"` for a
//! sibling key in a cross check. The checker prefixes the dotted path.

use std::convert::Infallible;
use std::fmt;

use super::SpecError;
use crate::build::{spec_u32, spec_usize};
use crate::value::Value;

pub(super) type Check = Result<(), SpecError>;

/// `Ok` if `ok`, else `message` as the error of `field`.
pub(super) fn ensure(ok: bool, field: &str, message: fmt::Arguments<'_>) -> Check {
    if ok {
        Ok(())
    } else {
        Err(SpecError::new(field, message.to_string()))
    }
}

/// One field's value type: how it reads from and writes to a [`Value`],
/// and what every value of the type must meet.
pub(super) trait FieldValue: Sized {
    /// Reads the value found at `path`.
    fn read(path: &str, v: &Value) -> Result<Self, SpecError>;
    /// The value to emit; `None` leaves the key out.
    fn write(&self) -> Option<Value>;
    /// The type's own check, `c` standing at the field: integers fit
    /// `Value::Int`, and a sub-table passes its walk.
    fn check(&self, _c: &mut Checker) -> Check {
        Ok(())
    }
}

fn expected(path: &str, what: &str, v: &Value) -> SpecError {
    SpecError::new(path, format!("expected {what}, found {}", v.type_name()))
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).expect("spec integer exceeds i64")) // hotspots-lint: allow(panic-path) reason="validate rejects every spec integer above i64::MAX (fits_i64), and parsed integers are i64s"
}

/// A spec integer must fit the `i64` of `Value::Int`.
fn fits_i64(c: &Checker, n: u64) -> Check {
    let ok = i64::try_from(n).is_ok();
    ensure(ok, "", format_args!("{n} exceeds 2^63 - 1")).map_err(|e| c.name(e))
}

macro_rules! scalar {
    ($($T:ty: $what:literal, $get:ident, $value:expr;)*) => {$(
        impl FieldValue for $T {
            fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
                v.$get().map(Into::into).ok_or_else(|| expected(path, $what, v))
            }
            fn write(&self) -> Option<Value> {
                Some($value(self))
            }
        }
    )*};
}

scalar! {
    String: "a string", as_str, |s: &String| Value::Str(s.clone());
    f64: "a number", as_float, |x: &f64| Value::Float(*x);
    bool: "a bool", as_bool, |b: &bool| Value::Bool(*b);
}

impl FieldValue for u64 {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        let i = v.as_int().ok_or_else(|| expected(path, "an integer", v))?;
        u64::try_from(i).map_err(|_| SpecError::new(path, format!("must be non-negative, got {i}")))
    }
    fn write(&self) -> Option<Value> {
        Some(int(*self))
    }
    fn check(&self, c: &mut Checker) -> Check {
        fits_i64(c, *self)
    }
}

impl FieldValue for usize {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        spec_usize(path, u64::read(path, v)?)
    }
    fn write(&self) -> Option<Value> {
        Some(int(*self as u64))
    }
    fn check(&self, c: &mut Checker) -> Check {
        fits_i64(c, *self as u64)
    }
}

/// An optional key or sub-table: `None` is left out.
impl<T: FieldValue> FieldValue for Option<T> {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        T::read(path, v).map(Some)
    }
    fn write(&self) -> Option<Value> {
        self.as_ref().and_then(T::write)
    }
    fn check(&self, c: &mut Checker) -> Check {
        self.as_ref().map_or(Ok(()), |v| v.check(c))
    }
}

/// Reads an array, each item at `path[i]`.
fn items<T>(
    path: &str,
    v: &Value,
    item: impl Fn(&str, &Value) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let arr = v.as_array().ok_or_else(|| expected(path, "an array", v))?;
    arr.iter()
        .enumerate()
        .map(|(i, x)| item(&format!("{path}[{i}]"), x))
        .collect()
}

/// A string list: left out, it reads empty, and empty is left out.
impl FieldValue for Vec<String> {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        items(path, v, String::read)
    }
    fn write(&self) -> Option<Value> {
        let strs = || Value::Array(self.iter().map(|s| Value::Str(s.clone())).collect());
        (!self.is_empty()).then(strs)
    }
}

/// Hit-list sizes: integers, with `"full"` for the whole population.
impl FieldValue for Vec<Option<u64>> {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        items(path, v, |path, item| match item.as_str() {
            Some("full") => Ok(None),
            Some(s) => Err(SpecError::new(
                path,
                format!("expected an integer or \"full\", got {s:?}"),
            )),
            None => u64::read(path, item).map(Some),
        })
    }
    fn write(&self) -> Option<Value> {
        let size = |s: &Option<u64>| s.map_or_else(|| Value::Str("full".into()), int);
        Some(Value::Array(self.iter().map(size).collect()))
    }
    fn check(&self, c: &mut Checker) -> Check {
        self.iter().flatten().try_for_each(|n| fits_i64(c, *n))
    }
}

/// Sweep values, each of any shape.
impl FieldValue for Vec<Value> {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        let values = v.as_array().map(<[Value]>::to_vec);
        values.ok_or_else(|| SpecError::new(path, "expected an array"))
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Array(self.clone()))
    }
}

/// A sub-table: read into its template, written as a table (an enum's
/// `kind` first), checked by its walk.
impl<S: Section> FieldValue for S {
    fn read(path: &str, v: &Value) -> Result<Self, SpecError> {
        let mut r = Reader::new(path, v)?;
        let mut section = S::template(&mut r)?;
        section.walk_mut(&mut r)?;
        r.finish()?;
        Ok(section)
    }
    fn write(&self) -> Option<Value> {
        let mut w = Writer(Vec::with_capacity(8));
        if let Some(kind) = self.kind() {
            w.0.push(("kind".to_owned(), Value::Str(kind.to_owned())));
        }
        let Ok(()) = self.walk(&mut w);
        Some(w.finish())
    }
    fn check(&self, c: &mut Checker) -> Check {
        self.walk(c)
    }
}

pub(super) type Step<W> = Result<(), <W as Walker>::Error>;

/// A key as the schema spells it: a literal.
type Key = &'static str;

/// What a walk does at each key, seeing the table by shared reference:
/// the writer and the checker. The [`Reader`] has `&mut` twins of
/// these methods.
pub(super) trait Walker: Sized {
    type Error;
    /// A key the table may leave out.
    fn field<T: FieldValue>(&mut self, key: Key, v: &T, rule: impl Fn(&T) -> Check) -> Step<Self>;
    /// A key the table may leave out, reading `default` when it does.
    fn field_or<T: FieldValue>(
        &mut self,
        key: Key,
        v: &T,
        _default: impl Into<T>,
        rule: impl Fn(&T) -> Check,
    ) -> Step<Self> {
        self.field(key, v, rule)
    }
    /// A key the table must carry.
    fn req<T: FieldValue>(&mut self, key: Key, v: &T, rule: impl Fn(&T) -> Check) -> Step<Self> {
        self.field(key, v, rule)
    }
    /// A struct whose keys sit in this same table.
    fn flatten<S: Section>(&mut self, section: &S) -> Step<Self> {
        section.walk(self)
    }
    /// Checks spanning several keys, run after them.
    fn cross(&mut self, check: impl FnOnce() -> Check) -> Step<Self>;
}

/// A spec table: its walk, and the value the reader starts from.
pub(super) trait Section: Sized {
    /// The walk over `&self`, for the writer and the checker.
    fn walk<W: Walker>(&self, w: &mut W) -> Step<W>;
    /// The same walk over `&mut self`, for the reader.
    fn walk_mut(&mut self, r: &mut Reader<'_>) -> Check;
    /// The section's `Default`, or for an enum the variant its `kind`
    /// key names with every field at its type's `Default`.
    fn template(r: &mut Reader<'_>) -> Result<Self, SpecError>;
    /// The kind written as an enum table's first key.
    fn kind(&self) -> Option<&'static str> {
        None
    }
}

/// Implements [`Section`], its two walks from one body: `$this` is
/// `&Self` in `walk` and `&mut Self` in `walk_mut`, so destructured
/// fields are `&T` or `&mut T` for the matching walker `$w`. A struct
/// reads into its `Default`. An enum is its kind table: each kind's
/// name, the variant's fields, and the walk of its keys; the reader
/// starts from the variant with every field at its type's `Default`,
/// and `field_or` names a key's own default. `listed` spells the kinds
/// out in the unknown-kind error.
macro_rules! walk {
    ($T:ty, |$this:ident, $w:ident| $body:expr) => {
        walk!(@impl $T, |$this, $w| $body,
            fn template(_: &mut Reader<'_>) -> Result<Self, SpecError> {
                Ok(Self::default())
            });
    };
    ($T:ident: $noun:literal, listed = $listed:literal, |$w:ident| {
        $($kind:literal => $V:ident { $($f:tt $(: $bind:ident)?),* $(,)? } => $arm:expr,)*
    }) => {
        walk!(@impl $T, |this, $w| match this {
                $($T::$V { $($f $(: $bind)?),* } => $arm,)*
            },
            fn template(r: &mut Reader<'_>) -> Result<Self, SpecError> {
                let mut kind = String::new();
                r.req("kind", &mut kind, any)?;
                match kind.as_str() {
                    $($kind => Ok($T::$V { $($f: Default::default()),* }),)*
                    other => {
                        let kinds = $listed.then_some(&[$($kind),*][..]);
                        Err(SpecError::new(r.sub("kind"), unknown($noun, other, kinds)))
                    }
                }
            }
            fn kind(&self) -> Option<&'static str> {
                Some(match self {
                    $($T::$V { .. } => $kind,)*
                })
            });
    };
    (@impl $T:ty, |$this:ident, $w:ident| $body:expr, $($fns:item)*) => {
        impl Section for $T {
            $($fns)*
            fn walk<W: Walker>(&self, $w: &mut W) -> Step<W> {
                let $this = self;
                $body
            }
            fn walk_mut(&mut self, $w: &mut Reader<'_>) -> Check {
                let $this = self;
                $body
            }
        }
    };
}
pub(super) use walk;

/// Reads one `Value::Table` into a section, tracking which keys were
/// consumed so unknown keys (typos) become errors naming the field.
pub(super) struct Reader<'a> {
    path: String,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Reader<'a> {
    pub(super) fn new(path: &str, v: &'a Value) -> Result<Reader<'a>, SpecError> {
        let Value::Table(entries) = v else {
            return Err(expected(path, "a table", v));
        };
        Ok(Reader {
            path: path.to_owned(),
            used: vec![false; entries.len()],
            entries,
        })
    }

    /// Dotted path of `key` under this table.
    pub(super) fn sub(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Reads `key` into `place` if present; reports whether it was.
    fn read<T: FieldValue>(&mut self, key: &str, place: &mut T) -> Result<bool, SpecError> {
        let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
            return Ok(false);
        };
        self.used[i] = true;
        *place = T::read(&self.sub(key), &self.entries[i].1)?;
        Ok(true)
    }

    pub(super) fn field<T: FieldValue>(
        &mut self,
        key: &str,
        place: &mut T,
        _: impl Fn(&T) -> Check,
    ) -> Check {
        self.read(key, place).map(drop)
    }

    pub(super) fn field_or<T: FieldValue>(
        &mut self,
        key: &str,
        place: &mut T,
        default: impl Into<T>,
        _: impl Fn(&T) -> Check,
    ) -> Check {
        if !self.read(key, place)? {
            *place = default.into();
        }
        Ok(())
    }

    pub(super) fn req<T: FieldValue>(
        &mut self,
        key: &str,
        place: &mut T,
        _: impl Fn(&T) -> Check,
    ) -> Check {
        if self.read(key, place)? {
            return Ok(());
        }
        Err(SpecError::new(self.sub(key), "missing required field"))
    }

    pub(super) fn flatten<S: Section>(&mut self, section: &mut S) -> Check {
        section.walk_mut(self)
    }

    pub(super) fn cross(&mut self, _: impl FnOnce() -> Check) -> Check {
        Ok(())
    }

    /// Errors on any key never consumed — the typo catcher.
    pub(super) fn finish(self) -> Check {
        match self.used.iter().position(|used| !used) {
            Some(i) => Err(SpecError::new(
                self.sub(&self.entries[i].0),
                "unknown field",
            )),
            None => Ok(()),
        }
    }
}

/// Writes a table's keys in walk order.
#[derive(Default)]
pub(super) struct Writer(Vec<(String, Value)>);

impl Writer {
    pub(super) fn finish(self) -> Value {
        Value::Table(self.0)
    }

    pub(super) fn put(&mut self, key: &str, value: &impl FieldValue) {
        if let Some(v) = value.write() {
            self.0.push((key.to_owned(), v));
        }
    }
}

impl Walker for Writer {
    type Error = Infallible;
    fn field<T: FieldValue>(&mut self, key: &str, v: &T, _: impl Fn(&T) -> Check) -> Step<Self> {
        self.put(key, v);
        Ok(())
    }
    fn cross(&mut self, _: impl FnOnce() -> Check) -> Step<Self> {
        Ok(())
    }
}

/// Checks each key's type and rule, then each table's cross checks.
#[derive(Default)]
pub(super) struct Checker {
    /// The keys down to the key or table being checked; joined into its
    /// dotted path only for an error.
    keys: Vec<Key>,
}

impl Checker {
    /// `e` with its relative field put under the current path.
    fn name(&self, e: SpecError) -> SpecError {
        SpecError::new(format!("{}{}", self.keys.join("."), e.field), e.message)
    }

    /// `field`'s body, with the rule behind a reference: compiled once
    /// per value type instead of once per key, which keeps `validate`'s
    /// code small for the cold caches a scenario-server cache hit meets.
    fn check<T: FieldValue>(&mut self, key: Key, v: &T, rule: &dyn Fn(&T) -> Check) -> Check {
        self.keys.push(key);
        let checked = v
            .check(self)
            .and_then(|()| rule(v).map_err(|e| self.name(e)));
        self.keys.pop();
        checked
    }
}

impl Walker for Checker {
    type Error = SpecError;
    fn field<T: FieldValue>(&mut self, key: Key, v: &T, rule: impl Fn(&T) -> Check) -> Check {
        self.check(key, v, &rule)
    }
    fn cross(&mut self, check: impl FnOnce() -> Check) -> Check {
        check().map_err(|e| self.name(e))
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

pub(super) fn any<T>(_: &T) -> Check {
    Ok(())
}

pub(super) fn positive(x: &f64) -> Check {
    let ok = *x > 0.0 && x.is_finite();
    ensure(ok, "", format_args!("must be positive, got {x}"))
}

pub(super) fn non_negative(x: &f64) -> Check {
    let ok = *x >= 0.0 && x.is_finite();
    ensure(ok, "", format_args!("must be non-negative"))
}

pub(super) fn fraction(x: &f64) -> Check {
    let ok = (0.0..=1.0).contains(x);
    ensure(ok, "", format_args!("must be in [0, 1], got {x}"))
}

pub(super) fn nonzero<T: Default + PartialEq>(n: &T) -> Check {
    ensure(*n != T::default(), "", format_args!("must be positive"))
}

/// A count of occupied /8 networks.
pub(super) fn slash8_count<T: Copy + PartialOrd + From<u8> + fmt::Display>(n: &T) -> Check {
    let ok = (T::from(1)..=T::from(200)).contains(n);
    ensure(ok, "", format_args!("must be in [1, 200], got {n}"))
}

/// A positive count that fits `u32`.
pub(super) fn u32_count(n: &u64) -> Check {
    nonzero(n)?;
    spec_u32("", *n).map(drop)
}

pub(super) fn non_empty<T: AsRef<[E]>, E>(v: &T) -> Check {
    let ok = !v.as_ref().is_empty();
    ensure(ok, "", format_args!("must be non-empty"))
}

/// `unknown <what> "<value>" (expected a, b, or c)`.
pub(crate) fn unknown(what: &str, value: &str, choices: Option<&[&str]>) -> String {
    let expected = match choices {
        Some([a, b]) => format!(" (expected {a} or {b})"),
        Some([init @ .., last]) => format!(" (expected {}, or {last})", init.join(", ")),
        _ => String::new(),
    };
    format!("unknown {what} {value:?}{expected}")
}

pub(super) fn one_of(
    what: &'static str,
    choices: &'static [&'static str],
) -> impl Fn(&String) -> Check {
    move |s: &String| match choices.contains(&s.as_str()) {
        true => Ok(()),
        false => Err(SpecError::new("", unknown(what, s, Some(choices)))),
    }
}

pub(super) type Grammar<T> = fn(&str, &str) -> Result<T, SpecError>;

/// A string in one of the embedded mini-grammars.
pub(super) fn grammar<T>(parse: Grammar<T>) -> impl Fn(&String) -> Check {
    move |s: &String| parse("", s).map(drop)
}

/// Each list item in a mini-grammar.
pub(super) fn each<T>(parse: Grammar<T>) -> impl Fn(&Vec<String>) -> Check {
    move |list: &Vec<String>| {
        for (i, s) in list.iter().enumerate() {
            parse(&format!("[{i}]"), s)?;
        }
        Ok(())
    }
}

/// A non-empty list, each item in a mini-grammar.
pub(super) fn nonempty_each<T>(parse: Grammar<T>) -> impl Fn(&Vec<String>) -> Check {
    let each = each(parse);
    move |list: &Vec<String>| non_empty(list).and_then(|()| each(list))
}

/// `rule` on a present optional value.
pub(super) fn some<T>(rule: impl Fn(&T) -> Check) -> impl Fn(&Option<T>) -> Check {
    move |v: &Option<T>| v.as_ref().map_or(Ok(()), &rule)
}
