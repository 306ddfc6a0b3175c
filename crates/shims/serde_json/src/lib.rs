//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`to_value`],
//! [`from_value`] and the re-exported [`Value`] tree.
//!
//! Works with the sibling `serde` shim: serialization lowers through
//! `serde::Serialize` to a [`Value`] and renders it; parsing produces a
//! [`Value`] and rebuilds the target via `serde::Deserialize`. Object keys
//! are emitted in sorted order, so output is deterministic and stable across
//! runs — a property the explore cache relies on.

#![forbid(unsafe_code)]

pub use serde::{Error, Map, Value};

use std::fmt::Write as _;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&value.serialize(), None, 0))
}

/// Serializes `value` to a human-readable, two-space-indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&value.serialize(), Some(2), 0))
}

/// Lowers `value` to the [`Value`] tree without rendering it.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(value)
}

/// Parses JSON text and rebuilds a `T` from it.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::deserialize(&value)
}

/// Parses JSON text into a [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

// ---- rendering -------------------------------------------------------------

fn render(value: &Value, indent: Option<usize>, depth: usize) -> String {
    let mut out = String::new();
    write_value(&mut out, value, indent, depth);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; serde_json emits null.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a trailing .0 so the value parses back as a float.
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

// ---- parsing ---------------------------------------------------------------

/// Cursor over JSON text. `pos` only ever advances past ASCII bytes or
/// whole string runs, so it always sits on a `char` boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::custom(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            let c = if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: a low surrogate escape must
                                // follow (JSON encodes non-BMP characters as
                                // \uD8xx\uDCxx pairs).
                                if self.bytes().get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err(Error::custom("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.unicode_escape()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(Error::custom("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::custom("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(Error::custom("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one go;
                    // both are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
                None => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`),
    /// leaving the cursor on the last digit.
    fn unicode_escape(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::custom("invalid \\u escape"))?,
            16,
        )
        .map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let mut obj = Map::new();
        obj.insert("name".into(), Value::String("atax_u2".into()));
        obj.insert("cycles".into(), Value::Int(1234));
        obj.insert("energy".into(), Value::Float(5.5));
        obj.insert(
            "tags".into(),
            Value::Array(vec![Value::Bool(true), Value::Null]),
        );
        let v = Value::Object(obj);
        let compact = to_string(&v).unwrap();
        let parsed = parse_value(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash ünïcode";
        let v = Value::String(s.to_string());
        let text = to_string(&v).unwrap();
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn numbers_parse_with_correct_types() {
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-7").unwrap(), Value::Int(-7));
        assert_eq!(
            parse_value("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(parse_value("1.5e3").unwrap(), Value::Float(1500.0));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let text = to_string(&3.0f64).unwrap();
        assert_eq!(text, "3.0");
        assert_eq!(parse_value(&text).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Python's json.dumps escapes non-BMP characters as surrogate pairs.
        let v = parse_value(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v, Value::String("\u{1F600} ok".to_string()));
        assert!(
            parse_value(r#""\ud83d""#).is_err(),
            "unpaired high surrogate"
        );
        assert!(
            parse_value(r#""\ud83d\u0041""#).is_err(),
            "low surrogate out of range"
        );
        // BMP escapes still decode directly, as does raw UTF-8.
        assert_eq!(
            parse_value(r#""\u00e9""#).unwrap(),
            Value::String("é".to_string())
        );
        assert_eq!(
            parse_value("\"é 😀\"").unwrap(),
            Value::String("é 😀".to_string())
        );
    }

    #[test]
    fn multi_byte_strings_round_trip_and_parse_in_linear_time() {
        for s in ["é", "😀", "a😀b\\é\"", "\u{10FFFF}\u{7F}\u{80}\u{800}"] {
            let v = Value::String(s.to_string());
            assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v, "{s:?}");
        }
        // ~6 MB of mixed-width text with escapes: a parser that rescans the
        // rest of the input per character never finishes this.
        let big: String = "plain ascii, é ü, 𝄞 😀 \"q\" \\ \n".repeat(150_000);
        let v = Value::String(big);
        let text = to_string(&v).unwrap();
        assert!(text.len() > 6_000_000);
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("tru").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn typed_round_trip_via_from_str() {
        let v: Vec<u64> = vec![1, 2, 3];
        let text = to_string(&v).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
