//! Minimal JSON value, parser and writer: the workspace's one JSON
//! codec.
//!
//! The service's wire format, the reactor's error bodies, the run
//! tracer's string fields and the audit's SARIF and `--json` output all
//! go through this module, without `serde` — consistent with the repo's
//! from-scratch ethos and its offline, dependency-free build. Only what
//! those formats need: UTF-8 strings with standard escapes (surrogate
//! pairs included), `f64` numbers, arrays, objects with preserved
//! insertion order.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as an unsigned integer, when exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl From<BTreeMap<String, Json>> for Json {
    fn from(map: BTreeMap<String, Json>) -> Json {
        Json::Obj(map.into_iter().collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{}", *n as i64));
            } else if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\\` are escaped,
/// `\n`/`\r`/`\t` use their short forms, other control characters
/// `\u00xx`, and everything else (non-ASCII included) is copied as is.
pub fn write_string(s: &str, out: &mut String) {
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

/// JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document (must consume all non-whitespace input).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", what as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-') | Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(err(*pos, format!("unexpected character '{}'", c as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad utf-8"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number '{text}'")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos)?;
                        *pos += 4;
                        // A high surrogate followed by a `\u` low one
                        // is one non-BMP scalar (how `json.dumps` writes
                        // an emoji); a lone surrogate becomes U+FFFD.
                        if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            let low = parse_hex4(bytes, *pos + 2)?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a char boundary and
                // each input byte is validated once: linear, where
                // validating the rest of the input per character was
                // quadratic in the string's length.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid utf-8"))?;
                out.push_str(run);
            }
        }
    }
}

/// Reads the four hex digits after the `u` of a `\u` escape at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at + 1..at + 5)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err(at, "bad \\u escape"))?;
    u32::from_str_radix(hex, 16).map_err(|_| err(at, "bad \\u escape"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::from("web-1")),
            ("epoch", Json::from(3u64)),
            ("tags", Json::from(vec!["a", "b"])),
            (
                "nested",
                Json::obj([("pi", Json::from(3.25)), ("ok", Json::from(true))]),
            ),
            ("nothing", Json::Null),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = parse(" { \"a\\n\\\"b\" : [ 1 , -2.5e1 , null , true ] } ").unwrap();
        assert_eq!(parsed.get("a\n\"b").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            parsed.get("a\n\"b").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("'single'").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn as_u64_guards_integrality() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escape_roundtrip() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        let control = Json::Str("\u{0001}".to_string());
        assert_eq!(parse(&control.to_string()).unwrap(), control);
    }

    /// Regression test: a surrogate pair, which Python's `json.dumps`
    /// writes for every non-BMP character, used to decode to two U+FFFD.
    #[test]
    fn surrogate_pair_decodes_to_one_scalar() {
        let parsed = parse(r#"{"name":"\ud83d\ude00 ok"}"#).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("😀 ok"));
        // Raw UTF-8 and the escaped pair parse to the same value, which
        // renders back as raw UTF-8.
        assert_eq!(
            parse("\"😀\"").unwrap(),
            parse(r#""\uD83D\uDE00""#).unwrap()
        );
        assert_eq!(Json::from("😀").render(), "\"😀\"");
    }

    /// A surrogate without its partner is still U+FFFD, and whatever
    /// follows it is parsed normally.
    #[test]
    fn lone_surrogates_become_replacement_characters() {
        let lone = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(lone(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(lone(r#""\ud83dx""#), "\u{FFFD}x");
        assert_eq!(lone(r#""\ude00\ud83d""#), "\u{FFFD}\u{FFFD}");
        assert_eq!(lone(r#""\ud83d\u0041""#), "\u{FFFD}A");
        assert!(parse(r#""\ud83d\u00""#).is_err(), "truncated low half");
    }

    /// Regression test: every character of a string used to re-validate
    /// the whole rest of the input as UTF-8, so parsing was quadratic in
    /// the string's length and a 2 MiB value took minutes. It now takes
    /// milliseconds; the bound leaves a wide margin for slow machines
    /// and debug builds, and the parse runs on its own thread so a
    /// regression fails at the bound instead of hanging the suite.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let mut doc = String::from("{\"name\":\"");
        while doc.len() < (2 << 20) {
            doc.push_str("abcdefghijklmnopqrstuvwxyz λ→é 😀 ");
        }
        doc.push_str("\"}");
        let expected_len = doc.len() - "{\"name\":\"\"}".len();
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || tx.send(parse(&doc)).unwrap());
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .expect("a 2 MiB string must parse in well under 3 s")
            .unwrap();
        parser.join().unwrap();
        let name = parsed.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(name.len(), expected_len);
        assert!(name.ends_with("😀 "));
    }

    /// Regression test: error bodies used to be built with
    /// `format!("{:?}")`, whose Rust `Debug` escapes (`\u{1f}`) are not
    /// valid JSON. A rendered message must round-trip through the
    /// parser with control and non-ASCII characters intact.
    #[test]
    fn error_bodies_are_valid_json_for_control_and_non_ascii() {
        let message = "ctrl \u{1f} bell \u{7} tab \t quote \" path λ→é";
        let body = Json::obj([("error", Json::from(message))]).render();
        let parsed = parse(&body).expect("error body must be valid JSON");
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some(message));
    }
}
