//! The workspace's JSON codec: a document model, a parser and the writer
//! primitives shared by the report-cache snapshots, the bench-regression
//! differ and the report store's `STATS` payload.
//!
//! Numbers keep their raw text ([`Json::Num`]), so `u64` counters and
//! shortest-form `f64`s decode losslessly, and [`Json::render`] of a compact
//! document written with [`ObjWriter`] reproduces it byte for byte. The
//! snapshot checksum relies on that: it is verified on the re-rendered
//! payload. The parser still checks every number against the JSON number
//! grammar. No external dependencies.
//!
//! ```
//! use virgo_sim::json::{self, ObjWriter};
//!
//! let mut w = ObjWriter::new();
//! w.str("design", "Virgo").u64("cycles", u64::MAX).f64("util", 0.1);
//! let text = w.finish();
//! let doc = json::parse(&text).unwrap();
//! let fields = doc.as_object().unwrap();
//! assert_eq!(json::get(fields, "cycles").unwrap().as_u64().unwrap(), u64::MAX);
//! let mut again = String::new();
//! doc.render(&mut again);
//! assert_eq!(again, text);
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Key/value pairs in document order.
    Object(Vec<(String, Json)>),
    /// Array elements in document order.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A number, as its raw text.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parse or access failure. Parse failures carry the byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    pos: Option<usize>,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            pos: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{} at byte {pos}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Re-renders the value in the same compact form [`ObjWriter`] emits.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Str(s) => write_string(s, out),
            Json::Num(raw) => out.push_str(raw),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The number, if this is a number written as a `u64`.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|e| JsonError::new(format!("bad u64 {raw:?}: {e}"))),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|e| JsonError::new(format!("bad f64 {raw:?}: {e}"))),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }
}

/// Looks up `key` in an object's fields.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            pos: Some(self.pos),
        }
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

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// Consumes `b` if it is the next byte (no whitespace skipping).
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of ASCII digits; true when there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn parse_value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Continue a (possibly multi-byte) UTF-8 sequence; the
                    // input is a &str so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|&n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.err("number has no integer digits"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("number has no fraction digits"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("number has no exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    if p.peek().is_some() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

/// Appends `value` as a quoted JSON string.
pub fn write_string(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` so it round-trips exactly (`{:?}` is Rust's
/// shortest-representation formatting).
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot represent; the
/// simulator never produces one.
pub fn fmt_f64(value: f64) -> String {
    assert!(value.is_finite(), "reports never contain non-finite floats");
    format!("{value:?}")
}

/// Builds one compact JSON object, field by field.
#[derive(Debug, Default)]
pub struct ObjWriter {
    out: String,
}

impl ObjWriter {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        write_string(key, &mut self.out);
        self.out.push(':');
        self.out.push_str(value);
        self
    }

    /// Appends an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    /// Appends a float field (see [`fmt_f64`]).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, &fmt_f64(value))
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::new();
        write_string(value, &mut quoted);
        self.raw(key, &quoted)
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
        get(doc.as_object().unwrap(), key).unwrap()
    }

    #[test]
    fn parses_bench_shaped_documents() {
        let doc = parse(
            r#"{"bench": "dsm_scaling", "points": [
                {"clusters": 2, "dsm": true, "cycles": 123, "util": 45.5},
                {"clusters": 4, "dsm": false, "cycles": 456, "util": 12.25}
            ]}"#,
        )
        .unwrap();
        assert_eq!(field(&doc, "bench").as_str().unwrap(), "dsm_scaling");
        let points = field(&doc, "points").as_array().unwrap();
        assert_eq!(field(&points[1], "cycles").as_u64().unwrap(), 456);
        assert_eq!(field(&points[1], "util").as_f64().unwrap(), 12.25);
        assert_eq!(field(&points[0], "dsm"), &Json::Bool(true));
    }

    #[test]
    fn unicode_escapes_decode_and_render_canonically() {
        let doc = parse(r#"["é€\u0001", "tab\there", "a\/b"]"#).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0].as_str().unwrap(), "é€\u{1}");
        assert_eq!(items[1].as_str().unwrap(), "tab\there");
        assert_eq!(items[2].as_str().unwrap(), "a/b");
        let mut out = String::new();
        doc.render(&mut out);
        assert_eq!(out, "[\"é€\\u0001\",\"tab\\u0009here\",\"a/b\"]");
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(parse(r#""\x41""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{\"a\": }",
            "{} trailing",
            "{\"a\": 1e}",
            "{\"a\": 1.}",
            "{\"a\": .5}",
            "{\"a\": -}",
            "{\"a\": +1}",
            "{\"a\": 01}",
            "{\"a\": 1e+}",
            "{\"a\" 1}",
            "[1,]",
            "[1 2]",
            "\"unterminated",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        for good in ["0", "-0", "-0.5e-7", "1E+3", "12.25"] {
            assert!(parse(good).is_ok(), "{good:?} is a JSON number");
        }
    }

    #[test]
    fn accessors_reject_the_wrong_type() {
        let doc = parse(r#"{"n": 1.5, "s": "x", "neg": -1}"#).unwrap();
        assert!(field(&doc, "n").as_u64().is_err(), "1.5 is not a u64");
        assert!(field(&doc, "neg").as_u64().is_err());
        assert!(field(&doc, "s").as_f64().is_err());
        assert!(field(&doc, "n").as_str().is_err());
        assert!(doc.as_array().is_err());
        let err = get(doc.as_object().unwrap(), "missing").unwrap_err();
        assert_eq!(err.to_string(), "missing field \"missing\"");
        assert_eq!(
            parse("[1 2]").unwrap_err().to_string(),
            "expected ',' or ']' at byte 3"
        );
    }

    #[test]
    fn u64_counters_are_exact() {
        // Past 2^53 an f64 would round; the raw text keeps every bit.
        let doc = parse(&format!(
            "{{\"max\": {}, \"odd\": 9007199254740993}}",
            u64::MAX
        ))
        .unwrap();
        assert_eq!(field(&doc, "max").as_u64().unwrap(), u64::MAX);
        assert_eq!(field(&doc, "odd").as_u64().unwrap(), 9_007_199_254_740_993);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn fmt_f64_rejects_non_finite() {
        fmt_f64(f64::NAN);
    }

    fn finite_f64(rng: &mut SplitMix64) -> f64 {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn gen_string(rng: &mut SplitMix64) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '😀',
        ];
        (0..rng.next_below(6))
            .map(|_| CHARS[rng.next_below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// Appends a random compact value written with the writer primitives.
    fn gen_value(rng: &mut SplitMix64, depth: u32, out: &mut String) {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.next_below(kinds) {
            0 => out.push_str(&rng.next_u64().to_string()),
            1 => out.push_str(&fmt_f64(finite_f64(rng))),
            2 => write_string(&gen_string(rng), out),
            3 => out.push_str(["true", "false", "null"][rng.next_below(3) as usize]),
            4 => out.push_str(&format!("-{}", rng.next_below(1000))),
            5 => out.push_str(&gen_object(rng, depth - 1)),
            _ => {
                out.push('[');
                for i in 0..rng.next_below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    gen_value(rng, depth - 1, out);
                }
                out.push(']');
            }
        }
    }

    fn gen_object(rng: &mut SplitMix64, depth: u32) -> String {
        let mut w = ObjWriter::new();
        for _ in 0..rng.next_below(5) {
            let mut value = String::new();
            gen_value(rng, depth, &mut value);
            w.raw(&gen_string(rng), &value);
        }
        w.finish()
    }

    #[test]
    fn render_of_parse_is_identity_on_generated_documents() {
        let mut rng = SplitMix64::new(0x5EED);
        for case in 0..500 {
            let text = gen_object(&mut rng, 4);
            let mut again = String::new();
            parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: {e}: {text}"))
                .render(&mut again);
            assert_eq!(again, text, "case {case}");
        }
    }

    #[test]
    fn generated_numbers_roundtrip_bit_exactly() {
        let mut rng = SplitMix64::new(42);
        let mut cases: Vec<(u64, f64)> = [0.1, 1.0 / 3.0, 4.9e-324, -0.0, f64::MAX]
            .into_iter()
            .map(|f| (u64::MAX, f))
            .collect();
        cases.extend((0..1000).map(|_| (rng.next_u64(), finite_f64(&mut rng))));
        for (u, f) in cases {
            let mut w = ObjWriter::new();
            w.u64("u", u).f64("f", f);
            let doc = parse(&w.finish()).unwrap();
            assert_eq!(field(&doc, "u").as_u64().unwrap(), u);
            assert_eq!(field(&doc, "f").as_f64().unwrap().to_bits(), f.to_bits());
        }
    }
}
