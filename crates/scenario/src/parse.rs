//! The scenario format's codec: JSON ↔ [`ScenarioFile`], driven by one
//! declaration per record.
//!
//! A record declares its keys once, in [`Record::fields`]:
//! `o.req("router", &mut self.router)` for a required key,
//! `o.opt("med", &mut self.med, 0)` for one with a default. The same
//! method runs in both directions: reading fills the record from a JSON
//! object, writing emits the object back, so the reader and the writer
//! cannot drift apart. Plain records are declared with `record!`,
//! whose field list *is* the key list; keyed enums (a topology, an AP
//! scheme, a fault kind) pick their variant with
//! [`Obj::one_of`].
//!
//! Values are typed as they are read — prefixes become
//! [`Ipv4Prefix`], router ids [`RouterId`], addresses [`NextHop`] or
//! [`Ipv4Addr`] — and every structural error carries the JSON path of
//! the offending value (`$.workload.feeds[2].router`). Only syntax
//! errors, which the vendored `serde` stub reports, carry a byte offset
//! instead. Unknown keys are rejected against the declared list: a
//! typoed `"no_lops"` is an error, not a silently ignored assertion.
//!
//! This module is the only one that touches [`Value`]s.

use crate::schema::{Link, ScenarioFile};
use bgp_types::{ApId, Ipv4Prefix, NextHop, RouterId};
use serde::Value;
use std::net::Ipv4Addr;

/// A parse or validation error, anchored to a JSON path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// JSON path of the offending value (`$` is the document root).
    pub path: String,
    /// What is wrong there.
    pub msg: String,
}

impl ScenarioError {
    /// An error at `path`.
    pub fn at(path: impl Into<String>, msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            path: path.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// The path of `key` in the record at `path`.
pub(crate) fn key_path(path: &str, key: &str) -> String {
    format!("{path}.{key}")
}

/// The path of item `i` in the array at `path`.
pub(crate) fn item_path(path: &str, i: usize) -> String {
    format!("{path}[{i}]")
}

/// Parses scenario JSON text into the model. Syntax errors carry the
/// byte offset; structural errors carry the JSON path.
pub fn parse_str(text: &str) -> Result<ScenarioFile, ScenarioError> {
    let v: Value = serde::json::from_str(text)
        .map_err(|e| ScenarioError::at("$", format!("invalid JSON: {e}")))?;
    ScenarioFile::read(&v, "$")
}

impl ScenarioFile {
    /// Renders the scenario as indented JSON (a valid corpus file).
    pub fn to_json_pretty(&self) -> String {
        let mut text = serde::json::to_string_pretty(&self.clone().write());
        text.push('\n');
        text
    }
}

/// The value a record takes when every key is absent: its declared
/// defaults. Only records whose keys are all optional have one.
pub fn defaults<T: Record>() -> T {
    // Invariant: only all-optional records call it (`SpecKnobs`, `Budget`).
    T::read(&Value::Map(Vec::new()), "$").expect("every key of the record is optional")
}

/// One value of the format: read from the JSON value at a path, and
/// written back.
pub trait Field: Sized {
    /// A placeholder that reading overwrites.
    fn zero() -> Self;
    /// Reads `v`, found at `path`.
    fn read(v: &Value, path: &str) -> Result<Self, ScenarioError>;
    /// Writes the value. Takes `&mut self` because a record's one
    /// declaration ([`Record::fields`]) also serves the reader.
    fn write(&mut self) -> Value;
}

/// A JSON object of the format, declared key by key.
pub trait Record: Sized {
    /// A placeholder that reading overwrites.
    fn zero() -> Self;
    /// Declares every key: reads each from `o`, or writes each to it.
    fn fields(&mut self, o: &mut Obj);
}

impl<T: Record> Field for T {
    fn zero() -> Self {
        <T as Record>::zero()
    }

    fn read(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        let mut record = <T as Record>::zero();
        Obj::visit(v, path, |o| record.fields(o))?;
        Ok(record)
    }

    fn write(&mut self) -> Value {
        Value::Map(Obj::emit(|o| self.fields(o)))
    }
}

/// Declares a record: the struct, and with it the record's keys. Each
/// field's key is its name, and its mode says how the key is declared:
/// `req`, `opt(default)`, `opt_always(default)` and `maybe` are the
/// [`Obj`] methods of the same name, and `flat` fields are records
/// whose keys sit in this record's object.
macro_rules! record {
    ($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$fattr:meta])* pub $field:ident: $ty:ty = $mode:ident $(($default:expr))?,)*
    }) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$fattr])* pub $field: $ty,)*
        }

        impl $crate::parse::Record for $name {
            fn zero() -> Self {
                $name { $($field: $crate::parse::Field::zero(),)* }
            }

            fn fields(&mut self, o: &mut $crate::parse::Obj) {
                $(o.$mode(stringify!($field), &mut self.$field $(, $default)?);)*
            }
        }
    };
}
pub(crate) use record;

/// One JSON object being read or written through its record's
/// declaration.
pub struct Obj<'a> {
    /// The object's JSON path.
    path: String,
    /// The entries being read; `None` when writing.
    src: Option<&'a [(Value, Value)]>,
    /// Every key declared so far (reading).
    declared: Vec<&'static str>,
    /// The first error (reading). Later keys are still declared, so the
    /// unknown-key check stays exact, but no longer read.
    err: Option<ScenarioError>,
    /// The entries written so far (writing).
    out: Vec<(Value, Value)>,
    /// The keys of the last [`Obj::one_of`], and the one that is set.
    cases: Vec<&'static str>,
    tag: Option<&'static str>,
}

/// One variant of a keyed enum: its key, and its placeholder value.
pub type Case<T> = (&'static str, fn() -> T);

/// What a declared key finds.
enum Slot<'a> {
    /// Writing.
    Write,
    /// Reading: the key's value, if present.
    Read(Option<&'a Value>),
    /// Reading after an earlier error.
    Skip,
}

impl<'a> Obj<'a> {
    /// Reads the object `v` at `path` through `fields`. An unknown key
    /// wins over any error inside the object, as it may explain it.
    fn visit(
        v: &'a Value,
        path: &str,
        fields: impl FnOnce(&mut Obj<'a>),
    ) -> Result<(), ScenarioError> {
        let entries = v
            .as_map()
            .ok_or_else(|| ScenarioError::at(path, "expected an object"))?;
        let mut o = Obj::new(path.to_string(), Some(entries));
        fields(&mut o);
        for (k, _) in entries {
            match k.as_str() {
                Some(key) if o.declared.contains(&key) => {}
                Some(key) => {
                    return Err(o.error(format!(
                        "unknown key `{key}` (expected one of: {})",
                        o.declared.join(", ")
                    )))
                }
                None => return Err(o.error("object keys must be strings")),
            }
        }
        o.err.map_or(Ok(()), Err)
    }

    /// Writes an object through `fields`.
    fn emit(fields: impl FnOnce(&mut Obj<'a>)) -> Vec<(Value, Value)> {
        let mut o = Obj::new(String::new(), None);
        fields(&mut o);
        o.out
    }

    fn new(path: String, src: Option<&'a [(Value, Value)]>) -> Obj<'a> {
        Obj {
            path,
            src,
            declared: Vec::new(),
            err: None,
            out: Vec::new(),
            cases: Vec::new(),
            tag: None,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ScenarioError {
        ScenarioError::at(self.path.clone(), msg)
    }

    fn fail(&mut self, msg: impl Into<String>) {
        if self.err.is_none() {
            self.err = Some(self.error(msg));
        }
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        let entries = self.src?;
        entries
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
    }

    /// Declares `key` and looks it up.
    fn slot(&mut self, key: &'static str) -> Slot<'a> {
        if self.src.is_none() {
            return Slot::Write;
        }
        if !self.declared.contains(&key) {
            self.declared.push(key);
        }
        match self.err {
            Some(_) => Slot::Skip,
            None => Slot::Read(self.get(key)),
        }
    }

    fn read_into<T: Field>(&mut self, key: &str, v: &Value, into: &mut T) {
        match T::read(v, &key_path(&self.path, key)) {
            Ok(x) => *into = x,
            Err(e) => self.err = Some(e),
        }
    }

    fn put(&mut self, key: &str, v: Value) {
        self.out.push((Value::Str(key.to_string()), v));
    }

    /// A required key.
    pub fn req<T: Field>(&mut self, key: &'static str, v: &mut T) {
        match self.slot(key) {
            Slot::Write => {
                let w = v.write();
                self.put(key, w);
            }
            Slot::Read(Some(x)) => self.read_into(key, x, v),
            Slot::Read(None) => self.fail(format!("missing required key `{key}`")),
            Slot::Skip => {}
        }
    }

    /// An optional key: `default` when absent, and not written when
    /// the value writes the same JSON as `default`.
    pub fn opt<T: Field>(&mut self, key: &'static str, v: &mut T, default: T) {
        self.optional(key, v, default, false);
    }

    /// An optional key that is written even at its `default`.
    pub fn opt_always<T: Field>(&mut self, key: &'static str, v: &mut T, default: T) {
        self.optional(key, v, default, true);
    }

    fn optional<T: Field>(&mut self, key: &'static str, v: &mut T, mut default: T, always: bool) {
        match self.slot(key) {
            Slot::Write => {
                let w = v.write();
                if always || w != default.write() {
                    self.put(key, w);
                }
            }
            Slot::Read(Some(x)) => self.read_into(key, x, v),
            Slot::Read(None) => *v = default,
            Slot::Skip => {}
        }
    }

    /// An optional key whose absence is `None`.
    pub fn maybe<T: Field>(&mut self, key: &'static str, v: &mut Option<T>) {
        match (self.slot(key), v) {
            (Slot::Write, Some(x)) => {
                let w = x.write();
                self.put(key, w);
            }
            (Slot::Read(Some(x)), v) => {
                let mut read = T::zero();
                self.read_into(key, x, &mut read);
                *v = Some(read);
            }
            (Slot::Read(None), v) => *v = None,
            _ => {}
        }
    }

    /// A record whose keys sit in this object (`_key`, the field's
    /// name, is not one of them).
    pub fn flat<T: Record>(&mut self, _key: &'static str, v: &mut T) {
        v.fields(self);
    }

    /// Declares a keyed enum: the variant is named by which of the
    /// `cases`' keys is present, and [`Obj::case`] then reads or writes
    /// the payload at that key. Reading with no case key present keeps
    /// `v`'s variant, which either has keys of its own or fails at
    /// [`Obj::case`]. Writing picks the case with `v`'s variant.
    pub fn one_of<T>(&mut self, v: &mut T, cases: &[Case<T>]) {
        self.cases = cases.iter().map(|(key, _)| *key).collect();
        self.tag = None;
        if self.src.is_none() {
            let variant = std::mem::discriminant(v);
            self.tag = cases
                .iter()
                .find(|(_, make)| std::mem::discriminant(&make()) == variant)
                .map(|(key, _)| *key);
            return;
        }
        let present: Vec<_> = cases
            .iter()
            .filter(|(key, _)| self.get(key).is_some())
            .collect();
        for (key, _) in cases {
            self.slot(key);
        }
        match present.as_slice() {
            [] => {}
            [(key, make)] => {
                *v = make();
                self.tag = Some(key);
            }
            _ => self.fail(self.cases_msg()),
        }
    }

    fn cases_msg(&self) -> String {
        format!("expected exactly one of `{}`", self.cases.join("`, `"))
    }

    /// The payload of the [`Obj::one_of`] case that is set.
    pub fn case<T: Field>(&mut self, v: &mut T) {
        match self.tag {
            Some(key) => self.req(key, v),
            None => self.fail(self.cases_msg()),
        }
    }

    /// The payload of the [`Obj::one_of`] case that is set, as an
    /// object whose keys `fields` declares.
    pub fn case_with(&mut self, fields: impl FnOnce(&mut Obj)) {
        let Some(key) = self.tag else {
            return self.fail(self.cases_msg());
        };
        match self.slot(key) {
            Slot::Write => {
                let w = Value::Map(Obj::emit(fields));
                self.put(key, w);
            }
            Slot::Read(Some(x)) => {
                if let Err(e) = Obj::visit(x, &key_path(&self.path, key), fields) {
                    self.err = Some(e);
                }
            }
            Slot::Read(None) | Slot::Skip => {}
        }
    }
}

// ---------------------------------------------------------------------
// Leaf values.
// ---------------------------------------------------------------------

fn expected(path: &str, what: &str) -> ScenarioError {
    ScenarioError::at(path, format!("expected {what}"))
}

/// Implements [`Field`] for leaf types: each one's placeholder, how it
/// reads from the JSON value `v` at `path`, and how it writes itself.
macro_rules! leaf {
    ($($t:ty: $zero:expr, |$v:ident, $path:ident| $read:expr, |$s:ident| $write:expr;)*) => {$(
        impl $crate::parse::Field for $t {
            fn zero() -> Self {
                $zero
            }

            fn read($v: &serde::Value, $path: &str) -> Result<Self, $crate::ScenarioError> {
                $read
            }

            fn write(&mut self) -> serde::Value {
                let $s = self;
                $write
            }
        }
    )*};
}
pub(crate) use leaf;

macro_rules! unsigned {
    ($($t:ty),*) => {leaf! {$(
        $t: 0, |v, path| {
            let n = v.as_u64().ok_or_else(|| expected(path, "a non-negative integer"))?;
            <$t>::try_from(n).map_err(|_| {
                ScenarioError::at(path, format!("{n} does not fit in {} bits", <$t>::BITS))
            })
        }, |n| Value::U64(*n as u64);
    )*}};
}
unsigned!(u16, u32, u64, usize);

leaf! {
    bool: false,
        |v, path| v.as_bool().ok_or_else(|| expected(path, "true or false")),
        |b| Value::Bool(*b);
    String: String::new(),
        |v, path| v.as_str().map(str::to_string).ok_or_else(|| expected(path, "a string")),
        |s| Value::Str(s.clone());
    RouterId: RouterId(0), |v, path| u32::read(v, path).map(RouterId), |r| r.0.write();
    ApId: ApId(0), |v, path| u16::read(v, path).map(ApId), |ap| ap.0.write();
    Ipv4Prefix: Ipv4Prefix::DEFAULT,
        |v, path| {
            let text = String::read(v, path)?;
            text.parse()
                .map_err(|e| ScenarioError::at(path, format!("bad prefix `{text}`: {e}")))
        },
        |p| Value::Str(p.to_string());
    // An address written as an integer ...
    NextHop: NextHop(0), |v, path| read_addr(v, path).map(NextHop), |a| a.0.write();
    // ... or as a dotted quad.
    Ipv4Addr: Ipv4Addr::UNSPECIFIED,
        |v, path| read_addr(v, path).map(Ipv4Addr::from),
        |a| Value::Str(a.to_string());
}

/// An IPv4 address: a dotted-quad string or a raw integer.
fn read_addr(v: &Value, path: &str) -> Result<u32, ScenarioError> {
    if let Some(n) = v.as_u64() {
        return u32::try_from(n)
            .map_err(|_| ScenarioError::at(path, format!("{n} is not a 32-bit address")));
    }
    let text = v
        .as_str()
        .ok_or_else(|| expected(path, "a dotted-quad address or integer"))?;
    let bad = || ScenarioError::at(path, format!("`{text}` is not a dotted-quad address"));
    let octets: Vec<&str> = text.split('.').collect();
    if octets.len() != 4 {
        return Err(bad());
    }
    octets.iter().try_fold(0u32, |addr, o| {
        Ok((addr << 8) | u32::from(o.parse::<u8>().map_err(|_| bad())?))
    })
}

impl<T: Field> Field for Vec<T> {
    fn zero() -> Self {
        Vec::new()
    }

    fn read(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        let items = v.as_seq().ok_or_else(|| expected(path, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, &item_path(path, i)))
            .collect()
    }

    fn write(&mut self) -> Value {
        Value::Seq(self.iter_mut().map(Field::write).collect())
    }
}

/// `null` is `None`.
impl<T: Field> Field for Option<T> {
    fn zero() -> Self {
        None
    }

    fn read(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v, path).map(Some),
        }
    }

    fn write(&mut self) -> Value {
        self.as_mut().map_or(Value::Null, Field::write)
    }
}

/// A link is a `[a, b, metric]` triple.
impl Field for Link {
    fn zero() -> Self {
        Link {
            a: RouterId(0),
            b: RouterId(0),
            metric: 0,
        }
    }

    fn read(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        let parts = v.as_seq().ok_or_else(|| expected(path, "an array"))?;
        let [a, b, metric] = parts else {
            return Err(expected(path, "a [a, b, metric] triple"));
        };
        Ok(Link {
            a: RouterId::read(a, &item_path(path, 0))?,
            b: RouterId::read(b, &item_path(path, 1))?,
            metric: u32::read(metric, &item_path(path, 2))?,
        })
    }

    fn write(&mut self) -> Value {
        Value::Seq(vec![self.a.write(), self.b.write(), self.metric.write()])
    }
}

/// Reads a keyword: a string naming one of `table`'s values.
pub fn read_keyword<T: Clone>(
    v: &Value,
    path: &str,
    table: &[(&str, T)],
    what: &str,
) -> Result<T, ScenarioError> {
    let word = String::read(v, path)?;
    table
        .iter()
        .find(|(name, _)| *name == word)
        .map(|(_, value)| value.clone())
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            ScenarioError::at(
                path,
                format!(
                    "unknown {what} `{word}` (expected one of: {})",
                    names.join(", ")
                ),
            )
        })
}

/// Writes `value`'s keyword.
pub fn write_keyword<T: PartialEq>(value: &T, table: &[(&str, T)]) -> Value {
    Value::Str(keyword(value, table).to_string())
}

/// `value`'s keyword in `table`, which names every value.
pub fn keyword<'t, T: PartialEq>(value: &T, table: &[(&'t str, T)]) -> &'t str {
    table
        .iter()
        .find(|(_, v)| v == value)
        .map(|(name, _)| *name)
        // Invariant: `MODES` and `VERDICTS` list every value of their type.
        .expect("the keyword table names every value")
}
