//! Offline shim for the `serde_json` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset it uses: the [`Value`] tree, the [`json!`]
//! constructor macro (object/array literals with expression values),
//! [`to_string_pretty`], and [`from_str`] (a recursive-descent parser into
//! [`Value`], so result files can be read back and merged). No serde
//! derive integration — `from_str` always yields the dynamic tree.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: integer or double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Double-precision float.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::PosInt(v) => write!(f, "{v}"),
            Number::NegInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// A JSON document tree. Objects keep keys sorted (`BTreeMap`), matching
/// serde_json's default map representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::PosInt(v as u64))
            }
        }
    )*};
}

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                if v < 0 {
                    Value::Number(Number::NegInt(v as i64))
                } else {
                    Value::Number(Number::PosInt(v as u64))
                }
            }
        }
    )*};
}

from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(v as f64))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<K: Into<String>, V: Into<Value>> From<BTreeMap<K, V>> for Value {
    fn from(map: BTreeMap<K, V>) -> Value {
        Value::Object(map.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

impl<K: Into<String>, V: Into<Value>> From<std::collections::HashMap<K, V>> for Value {
    fn from(map: std::collections::HashMap<K, V>) -> Value {
        Value::Object(map.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

impl<K: Clone + Into<String>, V: Clone + Into<Value>> From<&BTreeMap<K, V>> for Value {
    fn from(map: &BTreeMap<K, V>) -> Value {
        Value::Object(
            map.iter()
                .map(|(k, v)| (k.clone().into(), v.clone().into()))
                .collect(),
        )
    }
}

/// Conversion into [`Value`] by reference, so `json!` can take fields out
/// of borrowed structs without moving them (matching real serde_json,
/// which serializes expression values by reference).
pub trait ToValue {
    /// Builds the JSON representation of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! to_value_unsigned {
    ($($t:ty),*) => {$(
        impl ToValue for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}

macro_rules! to_value_signed {
    ($($t:ty),*) => {$(
        impl ToValue for $t {
            fn to_value(&self) -> Value {
                if *self < 0 {
                    Value::Number(Number::NegInt(*self as i64))
                } else {
                    Value::Number(Number::PosInt(*self as u64))
                }
            }
        }
    )*};
}

to_value_unsigned!(u8, u16, u32, u64, usize);
to_value_signed!(i8, i16, i32, i64, isize);

impl ToValue for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl ToValue for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self as f64))
    }
}

impl ToValue for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToValue for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<K: AsRef<str>, V: ToValue> ToValue for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: AsRef<str>, V: ToValue> ToValue for std::collections::HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: ToValue + ?Sized> ToValue for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Serialization or parse failure. The shim's writer is infallible, so in
/// practice this only ever carries a parse diagnostic with a byte offset.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn parse(offset: usize, what: impl fmt::Display) -> Error {
        Error {
            msg: format!("JSON parse error at byte {offset}: {what}"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_pretty(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(&pad_in);
                escape_into(out, key);
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Renders `value` as human-readable JSON with two-space indentation.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    Ok(out)
}

impl Value {
    /// The object map behind this value, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Mutable access to the object map, if this value is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The elements of this value, if it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string behind this value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a float, if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::PosInt(v)) => Some(*v as f64),
            Value::Number(Number::NegInt(v)) => Some(*v as f64),
            Value::Number(Number::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// This value as an unsigned integer, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// Object member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Recursive-descent JSON parser producing a [`Value`] tree.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::parse(self.pos, format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(Error::parse(
                self.pos,
                format!("unexpected byte {:?}", other as char),
            )),
            None => Err(Error::parse(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::parse(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::parse(start, "invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::parse(self.pos, "unterminated escape"))?;
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
                            let code = self.hex4()?;
                            // Surrogate pairs arrive as two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
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
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::parse(
                                self.pos - 1,
                                format!("bad escape {:?}", other as char),
                            ))
                        }
                    }
                }
                _ => return Err(Error::parse(self.pos, "unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::parse(self.pos, "truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::parse(self.pos, "bad \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse(start, "bad number"))?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::Float(v)))
            .map_err(|_| Error::parse(start, format!("bad number {text:?}")))
    }
}

/// Parses a JSON document into a [`Value`]. Trailing whitespace is
/// allowed; trailing garbage is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(p.pos, "trailing characters"));
    }
    Ok(value)
}

/// Builds a [`Value`] from a JSON-ish literal. Supports object literals
/// with string-literal keys, array literals, `null`, and arbitrary Rust
/// expressions convertible into `Value`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object(::std::collections::BTreeMap::new()) };
    ({ $($body:tt)+ }) => {{
        let mut map = ::std::collections::BTreeMap::<::std::string::String, $crate::Value>::new();
        $crate::json_object_entries!(map, $($body)+);
        $crate::Value::Object(map)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::ToValue::to_value(&$elem)),*])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal muncher for `json!` object bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ($map:ident $(,)?) => {};
    ($map:ident, $key:literal : null , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::Value::Null);
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : null) => {
        $map.insert($key.to_string(), $crate::Value::Null);
    };
    ($map:ident, $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : { $($inner:tt)* } $(,)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] $(,)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
    };
    ($map:ident, $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::ToValue::to_value(&$value));
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : $value:expr) => {
        $map.insert($key.to_string(), $crate::ToValue::to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_macro_builds_sorted_map() {
        let rows = vec![json!({"a": 1, "b": true})];
        let v = json!({
            "zeta": 1u64,
            "alpha": "text",
            "nested": {"x": 1.5, "y": -2},
            "rows": rows,
            "flag": false,
            "nothing": null,
        });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"alpha\": \"text\""));
        assert!(s.contains("\"x\": 1.5"));
        assert!(s.contains("\"y\": -2"));
        assert!(s.contains("\"nothing\": null"));
        // BTreeMap ordering: alpha before zeta.
        assert!(s.find("alpha").unwrap() < s.find("zeta").unwrap());
    }

    #[test]
    fn strings_are_escaped() {
        let v = json!({"k": "a\"b\\c\nd"});
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn expression_values_convert() {
        let n = 41usize;
        let v = json!({ "sum": n + 1, "cmp": n > 2, "len": "abc".len() });
        match &v {
            Value::Object(m) => {
                assert_eq!(m["sum"], Value::Number(Number::PosInt(42)));
                assert_eq!(m["cmp"], Value::Bool(true));
                assert_eq!(m["len"], Value::Number(Number::PosInt(3)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let v = json!({
            "name": "conn_churn",
            "qps": 12345.678,
            "whole": 2.0f64,
            "live": 10000u64,
            "delta": -3,
            "ok": true,
            "none": null,
            "tags": ["a", "b"],
            "nested": {"p99_us": 417.25},
        });
        let text = to_string_pretty(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_accepts_escapes_and_rejects_garbage() {
        let v = from_str(r#"{"k": "a\"b\\c\nd A"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\"b\\c\nd A"));
        assert!(from_str("{\"k\": 1} extra").is_err());
        assert!(from_str("{\"k\": }").is_err());
        assert!(from_str("[1, 2").is_err());
        let err = from_str("nulx").unwrap_err();
        assert!(err.to_string().contains("byte 0"), "{err}");
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let mut v = from_str(r#"{"a": {"b": [1, 2.5]}, "s": "x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_array().unwrap().len(), 2);
        assert_eq!(arr.as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(arr.as_array().unwrap()[1].as_f64(), Some(2.5));
        v.as_object_mut()
            .unwrap()
            .insert("new".into(), json!({"k": 1}));
        assert_eq!(
            v.get("new").and_then(|n| n.get("k")).unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn real_result_files_parse() {
        // The actual results/ corpus must round-trip through the parser.
        for file in [
            "../../results/conn_churn.json",
            "../../results/wal_commit.json",
        ] {
            if let Ok(text) = std::fs::read_to_string(file) {
                let v = from_str(&text).expect(file);
                assert!(v.as_object().is_some());
            }
        }
    }

    #[test]
    fn maps_and_floats_round_trip_display() {
        let mut by_kind = BTreeMap::new();
        by_kind.insert("Retrieve".to_string(), 10u64);
        let v = json!({ "by_kind": by_kind, "f": 2.0f64 });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"Retrieve\": 10"));
        assert!(s.contains("\"f\": 2.0"));
    }
}
