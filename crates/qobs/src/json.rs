//! Flat JSON-object lines: the writer behind every emitted trace line
//! and the matching parser used by [`crate::schema`] / [`crate::report`].
//!
//! The trace format is deliberately restricted to *flat* objects — no
//! nested objects or arrays — so both sides stay small, dependency-free,
//! and trivially greppable. The parser therefore rejects nesting; this
//! is a feature of the schema, not a shortcut.

use crate::AttrValue;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builder for one flat JSON object line. The `"type"` field is always
/// first so line kinds can be classified without full parsing.
///
/// ```
/// let mut o = qobs::json::Obj::new("counter");
/// o.field_str("name", "qsim.kernel.diag1");
/// o.field_u64("value", 42);
/// assert_eq!(
///     o.finish(),
///     r#"{"type":"counter","name":"qsim.kernel.diag1","value":42}"#
/// );
/// ```
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Start an object with the given `"type"` field value.
    pub fn new(type_name: &str) -> Obj {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"type\":");
        push_json_string(&mut buf, type_name);
        Obj { buf }
    }

    /// Append a string field.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_string(&mut self.buf, value);
    }

    /// Append an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    /// Append a float field. Non-finite values are emitted as `0` (JSON
    /// has no NaN/Inf).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push('0');
        }
    }

    /// Append a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Append an [`AttrValue`] field with the JSON type matching its
    /// variant.
    pub fn field_attr(&mut self, key: &str, value: &AttrValue) {
        match value {
            AttrValue::Str(s) => self.field_str(key, s),
            AttrValue::UInt(n) => self.field_u64(key, *n),
            AttrValue::Float(f) => self.field_f64(key, *f),
            AttrValue::Bool(b) => self.field_bool(key, *b),
        }
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    fn key(&mut self, key: &str) {
        self.buf.push(',');
        push_json_string(&mut self.buf, key);
        self.buf.push(':');
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// One parsed JSON value. The trace format is flat, so there are no
/// object or array variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A JSON string, unescaped.
    Str(String),
}

/// One parsed flat JSON object, preserving field order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedObj {
    fields: Vec<(String, Value)>,
}

impl ParsedObj {
    /// Look up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as a string, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Field as a non-negative integer, if present and integral.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Field as a bool, if present and boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// All fields in source order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }
}

/// Parse one flat JSON object line. Returns a descriptive error for
/// malformed input, duplicate keys, or nested objects/arrays (which the
/// trace format forbids).
pub fn parse_line(line: &str) -> Result<ParsedObj, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut obj = ParsedObj::default();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            if obj.get(&key).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            obj.fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        p.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after object at {}", p.pos));
    }
    Ok(obj)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b'{' | b'[') => Err(format!(
                "nested object/array at byte {} (trace lines are flat)",
                self.pos
            )),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!(
                "unexpected value start at byte {}: {:?}",
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "bad escape {:?} at byte {}",
                            other.map(|b| b as char),
                            self.pos
                        ))
                    }
                },
                Some(byte) => {
                    // Collect the full UTF-8 sequence starting here.
                    let char_start = self.pos - 1;
                    let width = utf8_width(byte);
                    if width == 0 || char_start + width > self.bytes.len() {
                        return Err(format!("invalid utf-8 at byte {char_start}"));
                    }
                    let s = std::str::from_utf8(&self.bytes[char_start..char_start + width])
                        .map_err(|_| format!("invalid utf-8 at byte {char_start}"))?;
                    out.push_str(s);
                    self.pos = char_start + width;
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut o = Obj::new("event");
        o.field_str("name", "weird \"quotes\"\nand\ttabs");
        o.field_u64("count", 18_446_744_073_709_551_615);
        o.field_f64("ratio", 0.125);
        o.field_bool("ok", true);
        let line = o.finish();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.get_str("type"), Some("event"));
        assert_eq!(parsed.get_str("name"), Some("weird \"quotes\"\nand\ttabs"));
        // u64::MAX loses precision through f64; the schema only relies
        // on exactness for realistic counter magnitudes.
        assert!(matches!(parsed.get("count"), Some(Value::Num(_))));
        assert_eq!(parsed.get("ratio"), Some(&Value::Num(0.125)));
        assert_eq!(parsed.get_bool("ok"), Some(true));
    }

    #[test]
    fn round_trip_unicode() {
        let mut o = Obj::new("meta");
        o.field_str("name", "qubit-φ π≈3.14159 — ok");
        let parsed = parse_line(&o.finish()).unwrap();
        assert_eq!(parsed.get_str("name"), Some("qubit-φ π≈3.14159 — ok"));
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        assert!(parse_line(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_line(r#"{"a": [1, 2]}"#).is_err());
        assert!(parse_line(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_line(r#"{"a": 1"#).is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn parses_empty_object_and_null() {
        let empty = parse_line("{}").unwrap();
        assert!(empty.fields().is_empty());
        let with_null = parse_line(r#"{"x": null, "y": -2.5e1}"#).unwrap();
        assert_eq!(with_null.get(&"x".to_string()[..]), Some(&Value::Null));
        assert_eq!(with_null.get("y"), Some(&Value::Num(-25.0)));
    }

    #[test]
    fn u64_helper_rejects_non_integers() {
        let o = parse_line(r#"{"a": 1.5, "b": -3, "c": 7}"#).unwrap();
        assert_eq!(o.get_u64("a"), None);
        assert_eq!(o.get_u64("b"), None);
        assert_eq!(o.get_u64("c"), Some(7));
    }
}
