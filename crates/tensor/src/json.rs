//! Minimal, dependency-free JSON tree with an emitter and a parser.
//!
//! The workspace builds hermetically (no registry dependencies), so the
//! serialization needs of the reproduction — experiment artifacts,
//! telemetry exports, golden snapshots — are served by this hand-rolled
//! module instead of `serde`. The surface is deliberately tiny: a [`Json`]
//! value tree, compact and pretty emitters, a strict recursive-descent
//! parser, and the [`ToJson`] conversion trait implemented for the
//! primitives the repo serializes.
//!
//! Numbers are stored as `f64`. `f32` payloads round-trip exactly: the
//! `f32 → f64` widening is lossless and the emitter prints the shortest
//! decimal form that re-parses to the same `f64` (subnormals included).
//! Non-finite numbers have no representation in standard JSON, but the
//! wire plane and the golden snapshots must not lose them: the emitter
//! prints the bare tokens `NaN` / `-NaN` / `Infinity` / `-Infinity`
//! (sign-preserving, canonical quiet-NaN payload) and the parser accepts
//! them back, so every f32 — finite or not — survives emit→parse
//! bit-exactly. Finite values emit standard JSON, so documents without
//! non-finite numbers remain fully interoperable.
//!
//! # Example
//!
//! ```
//! use dinar_tensor::json::{Json, ToJson};
//!
//! let v = Json::obj([("name", "dinar".to_json()), ("rounds", 10.0.to_json())]);
//! let text = v.dump();
//! let back = Json::parse(&text)?;
//! assert_eq!(back.get("rounds").and_then(Json::as_f64), Some(10.0));
//! # Ok::<(), dinar_tensor::json::JsonError>(())
//! ```

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (no hashing, deterministic
    /// emission).
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
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

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl Json {
    // ------------------------------------------------------------------
    // Construction and access
    // ------------------------------------------------------------------

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Emission
    // ------------------------------------------------------------------

    /// Compact single-line JSON text.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed JSON text with two-space indentation.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    // ------------------------------------------------------------------
    // Parsing
    // ------------------------------------------------------------------

    /// Parses JSON text; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first offending
    /// character for any syntactically invalid input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_nan() {
        // Standard JSON has no NaN; emitting `null` (serde_json's choice)
        // destroys the value on round-trip, which the wire plane cannot
        // afford. Emit a sign-preserving bare token the parser accepts.
        out.push_str(if x.is_sign_negative() { "-NaN" } else { "NaN" });
    } else if x.is_infinite() {
        out.push_str(if x < 0.0 { "-Infinity" } else { "Infinity" });
    } else if x == 0.0 && x.is_sign_negative() {
        // The integral fast path would drop the sign bit of -0.0.
        out.push_str("-0.0");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without a fractional part.
        out.push_str(&format!("{}", x as i64));
    } else {
        // Rust's shortest-roundtrip float formatting.
        out.push_str(&format!("{x}"));
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'N') => self.literal("NaN", Json::Num(f64::NAN)),
            Some(b'I') => self.literal("Infinity", Json::Num(f64::INFINITY)),
            Some(b'-') if self.bytes.get(self.pos + 1) == Some(&b'N') => {
                self.literal("-NaN", Json::Num(-f64::NAN))
            }
            Some(b'-') if self.bytes.get(self.pos + 1) == Some(&b'I') => {
                self.literal("-Infinity", Json::Num(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped at ASCII
                // boundaries, so the run is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        at: start,
                        reason: "invalid UTF-8 in string".to_string(),
                    })?,
                );
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a following \uXXXX.
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            at: start,
            reason: "invalid number".to_string(),
        })?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            reason: format!("invalid number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_of_nested_values() {
        let v = Json::obj([
            ("name", "dinar \"quoted\" \\ path\n".to_json()),
            ("pi", 3.25f64.to_json()),
            ("n", 42usize.to_json()),
            ("flag", true.to_json()),
            ("nothing", Json::Null),
            ("list", vec![1.0f32, -2.5, 0.0].to_json()),
            ("pairs", vec![(1usize, 2usize), (3, 4)].to_json()),
        ]);
        for text in [v.dump(), v.dump_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        let values: Vec<f32> = vec![
            0.1,
            -1.0 / 3.0,
            f32::MIN_POSITIVE,
            1.234_567_9e30,
            -9.87e-30,
            0.0,
            -0.0,
        ];
        let text = values.to_json().dump();
        let back = Json::parse(&text).unwrap();
        let parsed: Vec<f32> = back
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect();
        assert_eq!(
            parsed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "{not json",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = Json::parse("\"a\\u00e9\\ud83d\\ude00b\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "aé😀b");
    }

    #[test]
    fn non_finite_numbers_emit_bare_tokens() {
        assert_eq!(Json::Num(f64::NAN).dump(), "NaN");
        assert_eq!(Json::Num(-f64::NAN).dump(), "-NaN");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "Infinity");
        assert_eq!(Json::Num(f64::NEG_INFINITY).dump(), "-Infinity");
    }

    #[test]
    fn non_finite_and_subnormal_f32_roundtrip_bit_exactly() {
        // The wire plane serializes raw parameter bits; every f32 — quiet
        // NaNs of both signs, infinities, subnormals at both ends of the
        // range, signed zeros and the finite extremes — must survive
        // emit→parse with its exact bit pattern.
        let values: Vec<f32> = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0001), // smallest positive subnormal
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::from_bits(0x8000_0001), // smallest negative subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            0.0,
            -0.0,
        ];
        let text = values.to_json().dump();
        let back = Json::parse(&text).unwrap();
        let parsed: Vec<u32> = back
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| (v.as_f64().unwrap() as f32).to_bits())
            .collect();
        let expect: Vec<u32> = values.iter().map(|x| x.to_bits()).collect();
        assert_eq!(parsed, expect);
    }

    #[test]
    fn non_finite_tokens_parse_inside_structures() {
        let v = Json::parse("{\"a\": [NaN, -Infinity], \"b\": Infinity}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert!(arr[0].as_f64().unwrap().is_nan());
        assert_eq!(arr[1].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(f64::INFINITY));
        // Truncated tokens are still rejected.
        for bad in ["Na", "-Inf", "Infinit", "NaNx"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn object_access_helpers() {
        let v = Json::parse("{\"a\": {\"b\": [1, \"x\", false]}}").unwrap();
        let inner = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(inner[0].as_usize(), Some(1));
        assert_eq!(inner[1].as_str(), Some("x"));
        assert_eq!(inner[2].as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
    }

    #[test]
    fn large_integers_keep_integral_form() {
        let v = Json::Num(9_007_199_254_740_992.0); // 2^53, > 1e15 threshold
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
