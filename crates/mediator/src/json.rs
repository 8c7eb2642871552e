//! A minimal JSON value type with a writer and a parser — just enough for
//! machine-readable run reports ([`crate::obs`]) without external
//! dependencies. Objects keep insertion order so that serialized reports are
//! byte-stable across runs (required by the golden-file tests).

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (integers below 2^53 round-trip
/// exactly); objects are ordered key/value lists.
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
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
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
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// JSON has no NaN/Infinity literals; non-finite numbers become `null`.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's Display for f64 is the shortest round-tripping form.
        let _ = write!(out, "{n}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts (a run report nests 5
/// deep); the parser recurses per level, so hostile input must not choose
/// the stack depth.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
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
                            match code {
                                // High surrogate: combine with a following
                                // `\uDC00..\uDFFF` escape into one scalar;
                                // without one it is lone and becomes U+FFFD.
                                0xD800..=0xDBFF => {
                                    let paired = self
                                        .bytes
                                        .get(self.pos..self.pos + 2)
                                        .map(|b| b == br"\u")
                                        .unwrap_or(false);
                                    let low = if paired {
                                        self.pos += 2;
                                        Some(self.hex4()?)
                                    } else {
                                        None
                                    };
                                    match low {
                                        Some(lo @ 0xDC00..=0xDFFF) => {
                                            let scalar =
                                                0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                            out.push(
                                                char::from_u32(scalar)
                                                    .expect("valid supplementary"),
                                            );
                                        }
                                        Some(other) => {
                                            // Lone high surrogate followed by a
                                            // non-surrogate escape: keep both.
                                            out.push('\u{fffd}');
                                            out.push(char::from_u32(other).unwrap_or('\u{fffd}'));
                                        }
                                        None => out.push('\u{fffd}'),
                                    }
                                }
                                // Lone low surrogate.
                                0xDC00..=0xDFFF => out.push('\u{fffd}'),
                                _ => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary; that it
                    // starts on one is the parser's invariant (the input
                    // was a `&str`), re-checked on the run alone.
                    let len = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| "invalid UTF-8")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads four hex digits of a `\u` escape and advances past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or("bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_every_value_kind() {
        let value = Json::obj(vec![
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("int", Json::num(42.0)),
            ("float", Json::num(0.125)),
            ("neg", Json::num(-17.5)),
            ("text", Json::str("a \"quoted\"\nline\t\\")),
            (
                "arr",
                Json::Arr(vec![Json::num(1.0), Json::str("x"), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [value.to_compact(), value.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn float_formatting_round_trips() {
        for n in [0.1, 1e-9, 123456.789, 2.0f64.powi(52), 1.0 / 3.0] {
            let text = Json::num(n).to_compact();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), n, "{text}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // The limit is on depth, not on how many containers a document has.
        assert!(parse(&format!("[{}[]]", "[[]],".repeat(1_000))).is_ok());
    }

    /// Parsing is linear in document size: the string scanner used to
    /// re-validate the whole remaining input per character, so a document
    /// of this size (the shape of a report's `tasks`, > 1 MB) took minutes
    /// in a debug build.
    #[test]
    fn megabyte_documents_parse_in_linear_time() {
        let items = vec![Json::str("gen[patient.3#0->item] é😀"); 40_000];
        let doc = Json::Arr(vec![Json::Arr(items), Json::str("x".repeat(400_000))]);
        let text = doc.to_compact();
        assert!(text.len() > 1_000_000);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // U+1F600 😀 as the UTF-16 surrogate pair D83D DE00.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::str("\u{1F600}"));
        // U+1D11E 𝄞 mixed with surrounding text and a BMP escape.
        assert_eq!(
            parse("\"a\\u00e9 \\ud834\\udd1e z\"").unwrap(),
            Json::str("a\u{e9} \u{1D11E} z")
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // Lone high, lone low, and high followed by a non-surrogate escape.
        assert_eq!(parse(r#""\ud83d""#).unwrap(), Json::str("\u{fffd}"));
        assert_eq!(parse(r#""\ude00""#).unwrap(), Json::str("\u{fffd}"));
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), Json::str("\u{fffd}x"));
        assert_eq!(
            parse(r#""\ud83dA""#).unwrap(),
            Json::str("\u{fffd}A"),
            "non-surrogate escape after a lone high surrogate survives"
        );
        // Two high surrogates in a row: both are lone.
        assert_eq!(
            parse(r#""\ud83d\ud83d""#).unwrap(),
            Json::str("\u{fffd}\u{fffd}")
        );
    }

    #[test]
    fn astral_text_round_trips() {
        // The writer emits astral chars as raw UTF-8; parse(write(s)) == s.
        let value = Json::str("emoji 😀 and 𝄞 clef");
        for text in [value.to_compact(), value.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let Json::Obj(fields) = parse(text).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }
}
