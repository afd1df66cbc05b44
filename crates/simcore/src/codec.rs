//! Hermetic serialization: an in-house JSON codec.
//!
//! The MCS workspace builds with zero external dependencies (reproducibility
//! as an essential service, paper principle P8), so this module provides what
//! `serde`/`serde_json` used to: a JSON document model ([`Json`]), a
//! deterministic encoder, a recursive-descent parser, and the [`ToJson`] /
//! [`FromJson`] trait pair.
//!
//! Derive-style boilerplate is generated by the [`impl_json!`](crate::impl_json)
//! macro for structs, newtypes, unit enums, and struct-variant enums.
//!
//! # Determinism
//! Encoding is fully deterministic: object fields keep their declared order,
//! integers are printed exactly, and floats use Rust's shortest round-trip
//! formatting. Non-finite floats encode as `null` (JSON has no NaN/∞) and
//! decode back to `f64::NAN`.
//!
//! # Examples
//! ```
//! use mcs_simcore::codec::{Json, ToJson, FromJson};
//!
//! let v = Json::parse(r#"{"cpus": 4, "name": "std-8"}"#).unwrap();
//! let cpus: f64 = v.field("cpus").unwrap();
//! assert_eq!(cpus, 4.0);
//! assert_eq!(v.encode(), r#"{"cpus":4,"name":"std-8"}"#);
//! ```

use crate::error::McsError;
use std::borrow::Cow;

/// An object key. Hand-built documents and the `impl_json!` macro use fixed
/// `&'static str` keys (`Cow::Borrowed`, no allocation — the trace payload
/// fast path); only keys that arrive through the parser are owned.
pub type JsonKey = Cow<'static, str>;

/// A parsed JSON document.
///
/// Integers keep their exact 64-bit value (`Int`/`UInt`) instead of being
/// forced through `f64`, so nanosecond timestamps survive round trips.
/// Objects preserve insertion order for deterministic encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer literal.
    Int(i64),
    /// A non-negative integer literal.
    UInt(u64),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; field order is preserved.
    Obj(Vec<(JsonKey, Json)>),
}

impl Json {
    /// A short type-name rendering used in decode errors.
    fn kind(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => format!("bool {b}"),
            Json::Int(i) => format!("int {i}"),
            Json::UInt(u) => format!("int {u}"),
            Json::Float(x) => format!("float {x}"),
            Json::Str(s) => format!("string {s:?}"),
            Json::Arr(a) => format!("array of {}", a.len()),
            Json::Obj(o) => format!("object of {}", o.len()),
        }
    }

    /// Encodes the document compactly (no whitespace), deterministically.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding to `out`.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    /// Returns [`McsError::Json`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, McsError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up an object field; `None` when `self` is not an object or the
    /// key is absent.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k.as_ref() == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes an object field into `T`. A missing key decodes as `null`
    /// (so `Option<T>` fields tolerate absence).
    ///
    /// # Errors
    /// Returns [`McsError::Decode`] when `self` is not an object or the
    /// field does not decode as `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, McsError> {
        match self {
            Json::Obj(_) => T::from_json(self.get(key).unwrap_or(&Json::Null))
                .map_err(|e| match e {
                    McsError::Decode { expected, found } => McsError::Decode {
                        expected: format!("field `{key}`: {expected}"),
                        found,
                    },
                    other => other,
                }),
            other => Err(McsError::decode(format!("object with field `{key}`"), other.kind())),
        }
    }

    /// The value as `f64` when it is any number (`null` decodes as NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(x) => Some(x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer (or an exactly
    /// integral non-negative float).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::Float(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64` when it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            Json::Float(x) if x.fract() == 0.0 && x.abs() <= i64::MAX as f64 => Some(x as i64),
            _ => None,
        }
    }
}

/// Encodes a string with JSON escaping.
pub(crate) fn encode_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> McsError {
        McsError::Json { offset: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), McsError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, McsError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, McsError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, McsError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, McsError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((Cow::Owned(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, McsError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it came from &str) and we only
                // stopped on ASCII boundaries, so this slice is valid too.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(
                                self.err(format!("unknown escape `\\{}`", other as char))
                            )
                        }
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, McsError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, McsError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(u) = rest.parse::<u64>() {
                    if u == 0 {
                        return Ok(Json::UInt(0));
                    }
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| McsError::Json { offset: start, message: format!("bad number `{text}`") })
    }
}

/// Types that can render themselves as a [`Json`] document.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can be decoded from a [`Json`] document.
pub trait FromJson: Sized {
    /// Decodes `value` into `Self`.
    ///
    /// # Errors
    /// Returns [`McsError::Decode`] when the value has the wrong shape.
    fn from_json(value: &Json) -> Result<Self, McsError>;
}

/// Encodes any [`ToJson`] value to its compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().encode()
}

/// Parses JSON text and decodes it into `T`.
///
/// # Errors
/// Returns [`McsError::Json`] for malformed text and [`McsError::Decode`]
/// for shape mismatches.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, McsError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        match value {
            Json::Bool(b) => Ok(*b),
            other => Err(McsError::decode("bool", other.kind())),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        value.as_f64().ok_or_else(|| McsError::decode("number", value.kind()))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        f64::from_json(value).map(|x| x as f32)
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, McsError> {
                let u = value.as_u64().ok_or_else(|| {
                    McsError::decode(stringify!($t), value.kind())
                })?;
                <$t>::try_from(u).map_err(|_| McsError::decode(stringify!($t), value.kind()))
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        let u = value.as_u64().ok_or_else(|| McsError::decode("usize", value.kind()))?;
        usize::try_from(u).map_err(|_| McsError::decode("usize", value.kind()))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = i64::from(*self);
                if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) }
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, McsError> {
                let i = value.as_i64().ok_or_else(|| {
                    McsError::decode(stringify!($t), value.kind())
                })?;
                <$t>::try_from(i).map_err(|_| McsError::decode(stringify!($t), value.kind()))
            }
        }
    )+};
}
impl_json_int!(i8, i16, i32, i64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            other => Err(McsError::decode("string", other.kind())),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        match value {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(McsError::decode("array", other.kind())),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, McsError> {
        match value {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(McsError::decode("2-element array", other.kind())),
        }
    }
}

/// Generates [`ToJson`] + [`FromJson`] for a type, in place of the removed
/// `serde` derives.
///
/// Supported shapes:
/// - `impl_json!(struct Name { field_a, field_b })` — named-field structs,
///   encoded as an object in declaration order;
/// - `impl_json!(newtype Name(Inner))` — one-field tuple structs, encoded
///   transparently as the inner value;
/// - `impl_json!(enum Name { A, B, C })` — unit-variant enums, encoded as
///   the variant name string;
/// - `impl_json!(enum Name { A { x }, B { y, z } })` — struct-variant enums,
///   encoded as `{"Variant":{...fields...}}`.
///
/// # Examples
/// ```
/// use mcs_simcore::codec::{to_string, from_str};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64 }
/// mcs_simcore::impl_json!(struct Point { x, y });
///
/// let p = Point { x: 1.0, y: 2.5 };
/// let text = to_string(&p);
/// assert_eq!(text, r#"{"x":1,"y":2.5}"#);
/// assert_eq!(from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json {
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::ToJson for $name {
            fn to_json(&self) -> $crate::codec::Json {
                $crate::codec::Json::Obj(vec![
                    $((
                        $crate::codec::JsonKey::Borrowed(stringify!($field)),
                        $crate::codec::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::codec::FromJson for $name {
            fn from_json(
                value: &$crate::codec::Json,
            ) -> Result<Self, $crate::error::McsError> {
                Ok($name {
                    $($field: value.field(stringify!($field))?),+
                })
            }
        }
    };
    (newtype $name:ident($inner:ty)) => {
        impl $crate::codec::ToJson for $name {
            fn to_json(&self) -> $crate::codec::Json {
                $crate::codec::ToJson::to_json(&self.0)
            }
        }
        impl $crate::codec::FromJson for $name {
            fn from_json(
                value: &$crate::codec::Json,
            ) -> Result<Self, $crate::error::McsError> {
                <$inner as $crate::codec::FromJson>::from_json(value).map($name)
            }
        }
    };
    (enum $name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::codec::ToJson for $name {
            fn to_json(&self) -> $crate::codec::Json {
                match self {
                    $($name::$variant => {
                        $crate::codec::Json::Str(stringify!($variant).to_owned())
                    }),+
                }
            }
        }
        impl $crate::codec::FromJson for $name {
            fn from_json(
                value: &$crate::codec::Json,
            ) -> Result<Self, $crate::error::McsError> {
                match value {
                    $($crate::codec::Json::Str(s) if s == stringify!($variant) => {
                        Ok($name::$variant)
                    })+
                    other => Err($crate::error::McsError::decode(
                        concat!("a variant of ", stringify!($name)),
                        other.encode(),
                    )),
                }
            }
        }
    };
    (enum $name:ident { $($variant:ident { $($field:ident),+ $(,)? }),+ $(,)? }) => {
        impl $crate::codec::ToJson for $name {
            fn to_json(&self) -> $crate::codec::Json {
                match self {
                    $($name::$variant { $($field),+ } => $crate::codec::Json::Obj(vec![(
                        $crate::codec::JsonKey::Borrowed(stringify!($variant)),
                        $crate::codec::Json::Obj(vec![
                            $((
                                $crate::codec::JsonKey::Borrowed(stringify!($field)),
                                $crate::codec::ToJson::to_json($field),
                            )),+
                        ]),
                    )])),+
                }
            }
        }
        impl $crate::codec::FromJson for $name {
            fn from_json(
                value: &$crate::codec::Json,
            ) -> Result<Self, $crate::error::McsError> {
                $(
                    if let Some(body) = value.get(stringify!($variant)) {
                        return Ok($name::$variant {
                            $($field: body.field(stringify!($field))?),+
                        });
                    }
                )+
                Err($crate::error::McsError::decode(
                    concat!("a variant of ", stringify!($name)),
                    value.encode(),
                ))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\"", "[]", "{}"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.encode(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integers_are_exact() {
        let big = u64::MAX;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v, Json::UInt(big));
        assert_eq!(u64::from_json(&v).unwrap(), big);
        let neg = i64::MIN;
        let v = Json::parse(&neg.to_string()).unwrap();
        assert_eq!(i64::from_json(&v).unwrap(), neg);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1, 1e-9, 123456.789, -2.5, 1e300] {
            let text = Json::Float(x).encode();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "null");
        let back = f64::from_json(&Json::parse("null").unwrap()).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a \"quoted\" \\ backslash\nnewline\ttab \u{1}ctrl émoji 🦀";
        let text = Json::Str(s.into()).encode();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // Surrogate pair for 🦀 U+1F980.
        assert_eq!(Json::parse(r#""🦀""#).unwrap(), Json::Str("🦀".into()));
        assert!(Json::parse(r#""\ud83e""#).is_err());
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x","d":true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.encode(), text);
    }

    #[test]
    fn whitespace_tolerated_on_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn malformed_inputs_error_with_offset() {
        for text in ["{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "{,}", ""] {
            let e = Json::parse(text).unwrap_err();
            assert!(matches!(e, McsError::Json { .. }), "{text} gave {e:?}");
        }
    }

    #[test]
    fn field_lookup_and_missing_keys() {
        let v = Json::parse(r#"{"a":1}"#).unwrap();
        assert_eq!(v.field::<u64>("a").unwrap(), 1);
        assert_eq!(v.field::<Option<u64>>("absent").unwrap(), None);
        assert!(v.field::<u64>("absent").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u64,
        score: f64,
        name: String,
        tags: Vec<String>,
        parent: Option<u32>,
    }
    impl_json!(struct Demo { id, score, name, tags, parent });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            id: 7,
            score: 2.25,
            name: "x".into(),
            tags: vec!["a".into(), "b".into()],
            parent: None,
        };
        let text = to_string(&d);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);
        // A decode-shape error mentions the field.
        let e = from_str::<Demo>(r#"{"id":"oops"}"#).unwrap_err();
        assert!(e.to_string().contains("id"), "{e}");
    }

    #[derive(Debug, PartialEq)]
    struct Wrapper(u64);
    impl_json!(newtype Wrapper(u64));

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    impl_json!(enum Color { Red, Green });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Circle { r: f64 },
        Rect { w: f64, h: f64 },
    }
    impl_json!(enum Shape { Circle { r }, Rect { w, h } });

    #[test]
    fn newtype_and_enum_macros_round_trip() {
        assert_eq!(to_string(&Wrapper(9)), "9");
        assert_eq!(from_str::<Wrapper>("9").unwrap(), Wrapper(9));

        assert_eq!(to_string(&Color::Red), r#""Red""#);
        assert_eq!(from_str::<Color>(r#""Green""#).unwrap(), Color::Green);
        assert!(from_str::<Color>(r#""Blue""#).is_err());

        let s = Shape::Rect { w: 2.0, h: 3.5 };
        let text = to_string(&s);
        assert_eq!(text, r#"{"Rect":{"w":2,"h":3.5}}"#);
        assert_eq!(from_str::<Shape>(&text).unwrap(), s);
        assert!(from_str::<Shape>(r#"{"Tri":{}}"#).is_err());
    }

    #[test]
    fn tuples_and_options_compose() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let text = to_string(&v);
        assert_eq!(from_str::<Vec<(u64, f64)>>(&text).unwrap(), v);
    }

    #[test]
    fn deterministic_encoding_preserves_field_order() {
        let a = Json::Obj(vec![
            ("z".into(), Json::UInt(1)),
            ("a".into(), Json::UInt(2)),
        ]);
        assert_eq!(a.encode(), r#"{"z":1,"a":2}"#);
        assert_eq!(a.encode(), a.clone().encode());
    }
}
