//! A minimal JSON reader for validating trace streams.
//!
//! The workspace is dependency-free, so the JSONL sink's counterpart — the
//! `vtrace-check` schema validator and the integration tests that parse
//! trace files back — needs its own parser. This is a straightforward
//! recursive-descent reader of the full JSON grammar (strings with
//! `\uXXXX` escapes including surrogate pairs, numbers via `f64`,
//! arrays, objects) with a depth limit instead of unbounded recursion.
//! It is a *reader*: numbers all come back as `f64`, which is exact for
//! the integer ranges the trace schema uses (ids, microseconds, counts
//! up to 2^53).
//!
//! The matching scalar *writers* — [`string`] and [`number`] — live
//! here too: every hand-rolled JSON document in the workspace (trace
//! stream, journal, status, SAT/PARETO/CHAOS reports) formats its
//! strings and floats through them, so what is written always parses
//! back.

/// Maximum nesting depth accepted (the trace schema uses 2).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as key/value pairs in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Why parsing failed, with a byte offset into the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Static description.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => Err(self.err("invalid number")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|c| (c as char).to_digit(16));
            match d {
                Some(d) => {
                    code = code * 16 + d;
                    self.pos += 1;
                }
                None => return Err(self.err("invalid \\u escape")),
            }
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "lone high surrogate")?;
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
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next byte that needs
                    // decoding. That byte is ASCII (or the run reaches the
                    // end of input), so both ends of the run are char
                    // boundaries of `text`.
                    let start = self.pos;
                    let run = plain_run(&self.bytes[start..]);
                    self.pos += run;
                    // Grow through powers of two: a journal payload's hex
                    // string is the largest transient allocation of a
                    // resume, and exact-size ones fragment the heap among
                    // the decoded payloads it keeps.
                    out.reserve((out.len() + run).next_power_of_two() - out.len());
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Whether string byte `b` must be escaped in JSON: `"`, `\\` and the
/// control bytes. All are ASCII, so no byte of a multibyte UTF-8
/// sequence is one.
fn needs_escape(b: u8) -> bool {
    (b == b'"') | (b == b'\\') | (b < 0x20)
}

/// Length of the run at the start of `bytes` with no byte that needs
/// escaping. Whole 16-byte blocks are tested without an early exit
/// inside the block, which the compiler turns into a few vector
/// compares: about 0.1 ns per byte, against 0.35–0.7 ns for a
/// byte-at-a-time loop (whose speed also moved with code alignment).
fn plain_run(bytes: &[u8]) -> usize {
    let blocks = bytes
        .chunks_exact(16)
        .take_while(|block| !block.iter().fold(false, |any, &b| any | needs_escape(b)))
        .count();
    let start = blocks * 16;
    start + bytes[start..].iter().position(|&b| needs_escape(b)).unwrap_or(bytes.len() - start)
}

/// JSON string literal (quoted, escaped).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut rest = s;
    // Runs that need no escaping are copied whole; each stops on an
    // ASCII byte or at the end, so every slice below is on a char
    // boundary.
    loop {
        let run = plain_run(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&b) = rest.as_bytes().get(run) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                use std::fmt::Write;
                write!(out, "\\u{c:04x}").expect("writing to a String cannot fail");
            }
        }
        rest = &rest[run + 1..];
    }
    out.push('"');
    out
}

/// JSON number literal; non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

    impl Parser<'_> {
        /// The scalar-at-a-time string reader `string` replaced: the
        /// oracle the run-copying reader is held to.
        fn string_per_scalar(&mut self) -> Result<String, JsonError> {
            self.expect(b'"', "expected string")?;
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
                        let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match escape {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&hi) {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    self.expect(b'u', "lone high surrogate")?;
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
                                        .ok_or_else(|| self.err("invalid code point"))?,
                                );
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                    }
                    Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                    Some(_) => {
                        let start = self.pos;
                        self.pos += 1;
                        while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.err("invalid utf-8"))?,
                        );
                    }
                }
            }
        }
    }

    /// The `char`-at-a-time escaper [`string`] replaced: its oracle.
    fn string_per_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    /// Fragments of string-literal text: plain runs, every escape (valid
    /// and not), raw `"` and `\`, raw control bytes, multibyte scalars.
    #[rustfmt::skip]
    const PIECES: &[&str] = &[
        "a", "0123456789abcdef", "é", "世界", "😀", "\u{10FFFF}", " ", "/", "\u{7f}",
        "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9",
        "\\uD83D\\uDE00", "\\ud83d\\ude00", "\\u", "\\u12", "\\uzzzz", "\\ud83d", "\\ud83dx",
        "\\ud83d\\u0041", "\\udc00", "\\q", "\\", "\"", "\u{0}", "\u{1}", "\n", "\t", "\u{1f}",
    ];

    /// One arbitrary scalar, biased towards the ones an escaper treats
    /// specially.
    fn random_char(rng: &mut SmallRng) -> char {
        match rng.gen_range(0..4u32) {
            0 => char::from_u32(rng.gen_range(0..0x20u32)).expect("ASCII"),
            1 => ['"', '\\', '/', '\u{7f}'][rng.gen_range(0..4usize)],
            2 => char::from_u32(rng.gen_range(0x20..0x7fu32)).expect("ASCII"),
            _ => char::from_u32(rng.gen_range(0x80..0x11_0000u32)).unwrap_or('\u{fffd}'),
        }
    }

    /// On arbitrary string text and on every prefix of it, the reader
    /// returns what the per-scalar oracle returns — the same string, or
    /// the same error at the same offset — and stops at the same byte.
    /// Every strict prefix of a complete literal fails to parse.
    #[test]
    fn string_reader_matches_the_per_scalar_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x0005_7a1e);
        for _ in 0..1000 * SCALE {
            let body: String = (0..rng.gen_range(0..12usize))
                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                .collect();
            let doc = format!("\"{body}\"");
            for cut in (0..=doc.len()).filter(|&c| doc.is_char_boundary(c)) {
                let text = &doc[..cut];
                let mut fast = Parser { text, bytes: text.as_bytes(), pos: 0 };
                let mut oracle = Parser { text, bytes: text.as_bytes(), pos: 0 };
                assert_eq!(fast.string(), oracle.string_per_scalar(), "{text:?}");
                assert_eq!(fast.pos, oracle.pos, "{text:?}");
            }
            if parse(&doc).is_ok() {
                for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
                    assert!(parse(&doc[..cut]).is_err(), "prefix {:?} parsed", &doc[..cut]);
                }
            }
        }
    }

    /// The escaper writes what the per-`char` oracle writes, and what
    /// it writes parses back to its input.
    #[test]
    fn string_writer_matches_the_per_char_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x0005_7a1f);
        for _ in 0..5000 * SCALE {
            let s: String = (0..rng.gen_range(0..16usize)).map(|_| random_char(&mut rng)).collect();
            assert_eq!(string(&s), string_per_char(&s), "{s:?}");
            assert_eq!(parse(&string(&s)).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        match v.get("a").unwrap() {
            Value::Array(items) => {
                assert_eq!(items[0].as_u64(), Some(1));
                assert!(items[1].get("b").unwrap().is_null());
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\"}", "01x", "nul", "1 2", "\"\\q\"", "NaN"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83d\u0041""#).is_err());
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_truncated_input_at_every_cut() {
        // Every strict prefix of a valid document must fail, not panic
        // and not parse — the shape a reader hits when it races an
        // in-progress append.
        let doc = r#"{"kind":"span","name":"aA😀","vals":[1,-2.5e1,null]}"#;
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            assert!(parse(&doc[..cut]).is_err(), "prefix {:?} should fail", &doc[..cut]);
        }
        assert!(parse(doc).is_ok());
    }

    #[test]
    fn depth_limit_bounds_recursion() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&too_deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn surrogate_pair_boundaries_round_trip() {
        // The extremes of the astral range and both lone-half failures.
        assert_eq!(parse(r#""𐀀""#).unwrap().as_str(), Some("\u{10000}"));
        assert_eq!(parse(r#""􏿿""#).unwrap().as_str(), Some("\u{10FFFF}"));
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud800\ud800""#).is_err(), "high followed by high");
    }

    #[test]
    fn control_characters_must_be_escaped() {
        assert!(parse("\"a\nb\"").is_err(), "raw newline in string");
        assert!(parse("\"a\u{0001}b\"").is_err(), "raw control byte");
        assert_eq!(parse(r#""a\u0001b""#).unwrap().as_str(), Some("a\u{0001}b"));
    }

    #[test]
    fn multi_byte_utf8_passes_through_unescaped() {
        let v = parse("\"héllo — 世界 😀\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — 世界 😀"));
    }

    #[test]
    fn get_returns_the_first_duplicate_key() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn written_scalars_parse_back() {
        for s in ["", "plain", "q\"b\\s", "a\nb\r\tc\u{0001}", "héllo — 世界 😀"] {
            assert_eq!(parse(&string(s)).unwrap().as_str(), Some(s), "{s:?}");
        }
        for v in [0.0, -1.5, 2.0, 1e-9, 123456.789e12, f64::MIN_POSITIVE] {
            assert_eq!(parse(&number(v)).unwrap().as_f64(), Some(v));
        }
        assert_eq!((number(1.5), number(2.0)), ("1.5".to_string(), "2.0".to_string()));
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
