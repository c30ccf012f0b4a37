//! A minimal JSON value: the writer for the result line and the trace dump,
//! and the reader the `--all` parent parses its children's result lines with
//! (the workspace has no JSON crate and none may be added).

use std::fmt::Write as _;

/// One JSON value. Objects keep insertion order so output is reproducible.
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
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// Serialises on one line. Numbers print with every digit `f64` needs to
    /// round-trip; a non-finite number has no JSON form and prints as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    self.pos += 1;
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(escaped.encode_utf8(&mut buf).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back_to_the_same_value() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms_p50",
                    Json::obj([
                        ("value", Json::Num(1.203_456_789_012_3)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
            (
                "note",
                Json::str("quote \" backslash \\ newline \n tab \t bell \u{7}"),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-2.5e-7)])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_whole() {
        assert_eq!(Json::Num(1000.0).render(), "1000");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        let x = 12.345_678_901_234_567_f64;
        assert_eq!(Json::parse(&Json::Num(x).render()).unwrap(), Json::Num(x));
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in ["", "{", "{\"a\" 1}", "[1,", "\"open", "tru", "{} x", "1e+"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": 2.5}, "ok": false}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.get("b")).and_then(Json::as_f64),
            Some(2.5)
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.entries().len(), 2);
        assert!(doc.get("missing").is_none());
    }
}
