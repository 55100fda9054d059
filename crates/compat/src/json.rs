//! JSON value type, parser, writer, and the `ToJson`/`FromJson` traits
//! that `#[derive(Serialize)]` / `#[derive(Deserialize)]` target.
//!
//! Replaces serde + serde_json for this workspace's needs: persisting
//! bench result series under `target/ecofl-results/` and round-tripping
//! the public config/report types. The JSON shapes match serde's
//! defaults — structs as objects in field order, unit enum variants as
//! strings, data-carrying variants externally tagged — so existing
//! result files and any downstream tooling keep working.
//!
//! Intentional divergences from serde_json (see DESIGN.md): no borrowed
//! deserialization (`&'static str` fields are leaked on parse, a
//! non-issue for the handful of long-lived config values that use
//! them), no non-string map keys, and non-finite floats serialize as
//! `null` instead of erroring.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (serialized without a decimal point).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered so struct fields serialize in
    /// declaration order, like serde's derived `Serialize`.
    Object(Vec<(String, Value)>),
}

/// Error produced by parsing or by `FromJson` conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(msg: String) -> Self {
        Self { msg }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// A new, empty JSON object.
    #[must_use]
    pub fn empty_object() -> Self {
        Value::Object(Vec::new())
    }

    /// Inserts (or replaces) a key in an object value.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: Value) {
        match self {
            Value::Object(pairs) => {
                if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
                    pair.1 = value;
                } else {
                    pairs.push((key.to_string(), value));
                }
            }
            other => panic!("insert on non-object JSON value: {other:?}"),
        }
    }

    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` if this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if any.
    #[must_use]
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (both `Int` and `Float`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer payload (also accepts an integral `Float`).
    #[must_use]
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i64),
            _ => None,
        }
    }

    /// String payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if any.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload as ordered key/value pairs, if any.
    #[must_use]
    pub(crate) fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// For an externally tagged enum encoding `{"Tag": inner}`: the tag
    /// and inner value of a single-key object.
    #[must_use]
    pub fn as_singleton_object(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Object(pairs) if pairs.len() == 1 => Some((pairs[0].0.as_str(), &pairs[0].1)),
            _ => None,
        }
    }
}

/// Objects compare as maps (order-insensitive), mirroring
/// `serde_json::Value` equality; numbers compare by numeric value.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Object(a), Value::Object(b)) => {
                a.len() == b.len()
                    && a.iter().all(|(k, v)| other.get(k).is_some_and(|w| w == v))
                    && b.iter().all(|(k, v)| self.get(k).is_some_and(|w| w == v))
            }
            _ => false,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! impl_value_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            #[allow(clippy::cast_lossless)]
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
    )*};
}
impl_value_eq_num!(i32, i64, u32, u64, usize, f64);

static NULL_VALUE: Value = Value::Null;

/// `value["key"]`, yielding `Null` for missing keys (like serde_json).
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

/// `value[i]`, yielding `Null` out of bounds (like serde_json).
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

// ---------------------------------------------------------------------------
// Serialization (writer)
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        // serde_json refuses NaN/inf; emitting null keeps bench runs alive.
        out.push_str("null");
    } else if f.fract() == 0.0 && f.abs() < 1.0e16 {
        // Match serde_json/ryu: whole floats keep a trailing ".0".
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_f64(*f, out),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Serializes to compact JSON (the `serde_json::to_string` analogue).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    Ok(out)
}

/// Serializes to 2-space-indented JSON (`serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our ASCII
                            // identifiers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Out-of-range integers degrade to floats.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

/// Parses a JSON document (the `serde_json::from_str` analogue).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    T::from_json(&v)
}

// ---------------------------------------------------------------------------
// ToJson / FromJson traits and impls
// ---------------------------------------------------------------------------

/// Conversion into a JSON value — the serialization half the
/// `Serialize` derive targets.
pub trait ToJson {
    /// Converts `self` into a [`Value`].
    fn to_json(&self) -> Value;
}

/// Conversion from a JSON value — the deserialization half the
/// `Deserialize` derive targets.
pub trait FromJson: Sized {
    /// Reconstructs `Self` from a [`Value`].
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Looks up a struct field during derived deserialization. Missing
/// fields read as `null`, which lets `Option` fields default to `None`
/// (matching serde's behavior) while non-optional fields produce a
/// type-mismatch error naming the struct.
///
/// # Errors
/// Propagates the field's `FromJson` error, prefixed with context.
pub fn field<T: FromJson>(v: &Value, name: &str, ty: &str) -> Result<T, JsonError> {
    T::from_json(v.get(name).unwrap_or(&Value::Null))
        .map_err(|e| JsonError::new(format!("{ty}.{name}: {e}")))
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, found {v:?}")))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_lossless)]
            fn to_json(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let i = v
                    .as_i64()
                    .ok_or_else(|| JsonError::new(format!("expected integer, found {v:?}")))?;
                <$t>::try_from(i)
                    .map_err(|_| JsonError::new(format!("integer {i} out of range")))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, found {v:?}")))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, found {v:?}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

/// `&'static str` fields (e.g. `SyntheticSpec::name`) deserialize by
/// leaking the parsed string. The workspace only deserializes a handful
/// of long-lived config values, so the leak is bounded and deliberate;
/// serde would instead require borrowed deserialization, which this
/// layer does not replicate.
impl FromJson for &'static str {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        String::from_json(v).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, found {v:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let a = v
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| JsonError::new(format!("expected 2-element array, found {v:?}")))?;
        Ok((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let a = v
            .as_array()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| JsonError::new(format!("expected 3-element array, found {v:?}")))?;
        Ok((
            A::from_json(&a[0])?,
            B::from_json(&a[1])?,
            C::from_json(&a[2])?,
        ))
    }
}

/// Serde encodes `Range` as `{"start": .., "end": ..}`.
impl<T: ToJson> ToJson for std::ops::Range<T> {
    fn to_json(&self) -> Value {
        let mut obj = Value::empty_object();
        obj.insert("start", self.start.to_json());
        obj.insert("end", self.end.to_json());
        obj
    }
}

impl<T: FromJson> FromJson for std::ops::Range<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(field(v, "start", "Range")?..field(v, "end", "Range")?)
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::new(format!("expected object, found {v:?}")))?
            .iter()
            .map(|(k, x)| Ok((k.clone(), V::from_json(x)?)))
            .collect()
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Value {
        // Deterministic output: sort keys like serde_json's BTreeMap-backed
        // map does.
        let mut pairs: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::new(format!("expected object, found {v:?}")))?
            .iter()
            .map(|(k, x)| Ok((k.clone(), V::from_json(x)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0", "whole floats keep .0");
        assert_eq!(to_string("hi").unwrap(), "\"hi\"");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<String>("\"hi\"").unwrap(), "hi");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));
    }

    #[test]
    fn float_precision_survives_round_trip() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![vec![1u32, 2], vec![3]];
        let back: Vec<Vec<u32>> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        let pairs: Vec<(f64, f64)> = vec![(0.5, 1.5), (2.0, 3.0)];
        let back: Vec<(f64, f64)> = from_str(&to_string(&pairs).unwrap()).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1F980}".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn object_access_and_equality() {
        let v: Value = from_str(r#"{"name":"cifar-like","num_classes":10}"#).unwrap();
        assert_eq!(v["name"], "cifar-like");
        assert_eq!(v["num_classes"], 10);
        assert!(v["missing"].is_null());
        let w: Value = from_str(r#"{"num_classes":10,"name":"cifar-like"}"#).unwrap();
        assert_eq!(v, w, "object equality ignores key order");
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let mut obj = Value::empty_object();
        obj.insert("xs", Value::Array(vec![Value::Int(1), Value::Int(2)]));
        obj.insert("name", Value::String("x".into()));
        let pretty = to_string_pretty(&obj).unwrap();
        assert!(pretty.contains("\n  \"xs\": [\n    1,\n    2\n  ]"));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<u32>("-1").is_err(), "negative into unsigned");
        assert!(from_str::<bool>("1").is_err(), "type mismatch");
    }
}
