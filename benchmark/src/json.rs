//! A small JSON value, writer and parser (the container has no serde).
//!
//! Objects keep insertion order, so a document reads in the order the
//! benchmark declares its metrics. Numbers are `f64` and print with Rust's
//! shortest round-trip formatting — every digit that was measured, none that
//! was not.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Number(value)
    }
}

/// Exact up to 2^53; larger identifiers (digests) travel as hex strings.
impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::Number(value as f64)
    }
}

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::String(value.to_string())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::String(value)
    }
}

impl Value {
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(key, value)| (key.into(), value)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(number) => Some(*number),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(string) => Some(string),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// One line, no spaces: the form of the result line the driver reads.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, for files people read and diff.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            // JSON has no NaN or infinity; a non-finite measurement is a bug
            // upstream and must not produce a document that parses as fine.
            Value::Number(number) if !number.is_finite() => out.push_str("null"),
            Value::Number(number) => {
                let _ = write!(out, "{number}");
            }
            Value::String(string) => write_string(out, string),
            Value::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (index, (key, value)) in entries.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !entries.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, string: &str) {
    out.push('"');
    for c in string.chars() {
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

/// Nesting the parser accepts; the documents it reads are four levels deep.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.at != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.skip_whitespace();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_whitespace();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_whitespace();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .filter(|number| number.is_finite())
            .map(Value::Number)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at).ok_or_else(|| self.error("unterminated string"))?;
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    match escape {
                        b'"' | b'\\' | b'/' => out.push(escape),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs do not occur in the documents
                            // the benchmark reads; a lone one is replaced.
                            let c = char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER);
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_round_trip() {
        // Every character a metric name may hold: letters, digits, `_`, `.`, `-`.
        let names = [
            "queries.exec_ns_per_pkt.pattern-search",
            "bin_p95_us",
            "A-Z.a-z_0-9",
            "monitor.scale_2t",
        ];
        let document = Value::object(names.iter().map(|name| {
            (*name, Value::object([("value", Value::from(1.25)), ("unit", Value::from("ns"))]))
        }));
        for text in [document.to_compact(), document.to_pretty()] {
            let parsed = parse(&text).expect("own output parses");
            assert_eq!(parsed, document);
            let keys: Vec<&str> =
                parsed.as_object().unwrap().iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(keys, names, "insertion order survives");
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        for number in [1.2034e-7, 2_847_113.562_901_3, 0.1 + 0.2, 1e300, 73.0] {
            let text = Value::from(number).to_compact();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(number), "{text}");
        }
        assert_eq!(Value::from(3u64).to_compact(), "3");
        assert_eq!(Value::from(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "why: \"a\\b\"\n\ttab \u{1} µs";
        let text = Value::from(tricky).to_compact();
        assert_eq!(parse(&text).unwrap().as_str(), Some(tricky));
        assert_eq!(parse(r#""\u00b5s \/""#).unwrap().as_str(), Some("µs /"));
    }

    #[test]
    fn compact_form_is_one_line() {
        let document = Value::object([
            ("correct", Value::from(true)),
            ("list", Value::Array(vec![Value::from(1u64), Value::Null])),
            ("empty", Value::Object(Vec::new())),
        ]);
        assert_eq!(document.to_compact(), r#"{"correct":true,"list":[1,null],"empty":{}}"#);
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"open", "1 2", "[1e999]", "\"\\q\""] {
            assert!(parse(text).is_err(), "{text:?} should not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("nested too deeply"));
    }
}
