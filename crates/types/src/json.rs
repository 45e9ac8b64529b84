//! The workspace's one JSON reader and one JSON writer.
//!
//! **Writing.** The writer appends straight into a caller's `String`:
//! [`write_str`] writes a string literal, escaping in place with no
//! temporary; [`write_num`] writes a number (integral values below
//! 2^53 as integers, other finite values in Rust's shortest round-trip
//! `{}` form, NaN and ±inf as `null`); and [`Object`] / [`Array`]
//! open a container and place its commas. fw-serve writes its response
//! bodies with it in one pass, fw-obs's hand-rolled exporters escape
//! their names through [`write_str`], and [`Json::render`] is a walk
//! over the same primitives, so the workspace has one escaper and one
//! rule for JSON numbers.
//!
//! **Reading.** Several consumers also need to *read* JSON back: the
//! trace reporter, the bench regression gate, and the streaming
//! daemon's checkpoint/status format. [`Json::parse`] is a strict
//! recursive-descent parser over the full JSON grammar, small enough
//! to audit, with the handful of accessors the consumers use. No serde
//! in the vendored dependency set. `fw-obs` re-exports [`Json`] for
//! compatibility with its pre-move consumers.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order (duplicates:
/// last one wins on [`Json::get`] lookups — matching serde_json).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as u64 if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 1.8446744073709552e19 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace). Round-trips through
    /// [`Json::parse`] (a non-finite number renders as `null`, as
    /// `JSON.stringify` does); the bench regression gate uses it to
    /// carry history entries from an old report into a rewritten one,
    /// and the streaming daemon uses it for checkpoint/status
    /// documents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let mut arr = Array::new(out);
                for v in items {
                    v.write(arr.item());
                }
                arr.end();
            }
            Json::Obj(fields) => {
                let mut obj = Object::new(out);
                for (k, v) in fields {
                    v.write(obj.field(k));
                }
                obj.end();
            }
        }
    }
}

/// Append `s` as a JSON string literal, surrounding quotes included.
/// Runs of bytes that need no escape are copied whole; `"`, `\` and
/// the control characters are escaped (`\n`, `\r`, `\t`, else
/// `\u00xx`).
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `n` as a JSON number. An integral value below 2^53 in
/// magnitude prints as an integer (so counters and ids survive a
/// parse/render cycle byte-identically), written digit by digit; any
/// other finite value prints in Rust's shortest round-trip `{}` form;
/// NaN and ±inf, which JSON cannot spell, print as `null`.
pub fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        let mut m = (n as i64).unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// An open JSON object being appended to a `String`: each field places
/// the comma before it, [`Object::end`] writes the closing brace.
#[must_use = "close the object with `end`"]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Open an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Object<'a> {
        out.push('{');
        Object { out, empty: true }
    }

    /// Write the next field's key and return the buffer its value goes
    /// into: write exactly one value there (nested containers too).
    pub fn field(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.field(key), v);
        self
    }

    /// A string field, or `null` when `v` is `None`.
    pub fn opt_str(&mut self, key: &str, v: Option<&str>) -> &mut Self {
        match v {
            Some(v) => write_str(self.field(key), v),
            None => self.field(key).push_str("null"),
        }
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        write_num(self.field(key), v);
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        write_bool(self.field(key), v);
        self
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// An open JSON array being appended to a `String`: each item places
/// the comma before it, [`Array::end`] writes the closing bracket.
#[must_use = "close the array with `end`"]
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Array<'a> {
    /// Open an array at the end of `out`.
    pub fn new(out: &'a mut String) -> Array<'a> {
        out.push('[');
        Array { out, empty: true }
    }

    /// Return the buffer the next item goes into: write exactly one
    /// value there (nested containers too).
    pub fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        write_str(self.item(), v);
        self
    }

    pub fn num(&mut self, v: f64) -> &mut Self {
        write_num(self.item(), v);
        self
    }

    /// Close the array.
    pub fn end(self) {
        self.out.push(']');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs: JSON encodes astral chars
                            // as two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or("truncated surrogate")?;
                                    let lo_hex =
                                        std::str::from_utf8(lo_hex).map_err(|_| "bad surrogate")?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| "bad surrogate")?;
                                    self.pos += 6;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                char::from_u32(cp).ok_or("invalid codepoint")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control char in string".to_string()),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf-8")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_and_nesting() {
        let v =
            Json::parse(r#"{"a": [1, 2.5, -3e2, true, false, null, "x\nA😀"], "b": {}}"#).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[5], Json::Null);
        assert_eq!(a[6].as_str(), Some("x\nA😀"));
        assert!(v.get("b").and_then(Json::as_obj).unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "01x",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{"a":[1,2.5,-300,true,false,null,"x\nA😀"],"b":{},"c":"q\"uote"}"#;
        let v = Json::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Integers stay integers across the cycle.
        assert!(rendered.contains("[1,2.5,-300,"), "got {rendered}");
    }

    fn string_literal(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn write_str_escapes_quotes_and_controls() {
        assert_eq!(string_literal("plain"), "\"plain\"");
        assert_eq!(string_literal("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string_literal("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(string_literal("\u{1}x\u{1f}"), "\"\\u0001x\\u001f\"");
        // Escaped output parses back to the original string.
        let tricky = "q\"uote\\slash\nline\u{7}bell😀";
        assert_eq!(
            Json::parse(&string_literal(tricky)).unwrap(),
            Json::Str(tricky.to_string())
        );
    }

    #[test]
    fn non_finite_numbers_render_as_parseable_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Num(x).render();
            assert_eq!(Json::parse(&text), Ok(Json::Null), "{x} rendered as {text}");
        }
        let doc = Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)]);
        assert_eq!(doc.render(), "[1.5,null]");
    }

    #[test]
    fn write_num_keeps_the_integer_and_shortest_forms() {
        for (x, want) in [
            (0.0, "0"),
            (-0.0, "0"),
            (7.0, "7"),
            (-300.0, "-300"),
            (9_007_199_254_740_991.0, "9007199254740991"),
            (-9_007_199_254_740_991.0, "-9007199254740991"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (1.8446744073709552e19, "18446744073709552000"),
            (0.185185, "0.185185"),
            (2.5e-7, "0.00000025"),
        ] {
            let mut out = String::new();
            write_num(&mut out, x);
            assert_eq!(out, want, "{x}");
        }
    }

    #[test]
    fn containers_place_commas() {
        let mut out = String::new();
        let mut obj = Object::new(&mut out);
        obj.str("s", "x")
            .num("n", 2.0)
            .bool("b", false)
            .opt_str("o", None);
        let mut arr = Array::new(obj.field("a"));
        arr.num(1.0).str("y");
        Object::new(arr.item()).end();
        Array::new(arr.item()).end();
        arr.end();
        obj.end();
        assert_eq!(
            out,
            r#"{"s":"x","n":2,"b":false,"o":null,"a":[1,"y",{},[]]}"#
        );
    }

    proptest! {
        #[test]
        fn finite_numbers_round_trip(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            prop_assert_eq!(Json::parse(&Json::Num(x).render()), Ok(Json::Num(x)));
        }

        #[test]
        fn finite_integers_round_trip(v in -(1i64 << 60)..(1i64 << 60)) {
            let x = v as f64;
            prop_assert_eq!(Json::parse(&Json::Num(x).render()), Ok(Json::Num(x)));
        }

        /// ASCII-heavy code points (controls, quotes and backslashes
        /// included) mixed with the rest of the BMP and beyond.
        #[test]
        fn strings_round_trip(
            cps in proptest::collection::vec(prop_oneof![0u32..0x80, 0u32..0x3_0000], 0..24)
        ) {
            let s: String = cps.into_iter().filter_map(char::from_u32).collect();
            prop_assert_eq!(Json::parse(&string_literal(&s)), Ok(Json::Str(s.clone())));
        }
    }
}
