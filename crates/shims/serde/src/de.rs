//! The pull parser every [`Deserialize`](crate::Deserialize) impl reads from.

use std::borrow::Cow;

use crate::Error;

/// A JSON number as written: integers that fit `i64`, larger ones that fit
/// `u64`, and everything else as `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    Int(i64),
    UInt(u64),
    Float(f64),
}

impl Number {
    pub(crate) fn kind(self) -> &'static str {
        match self {
            Number::Int(_) | Number::UInt(_) => "integer",
            Number::Float(_) => "float",
        }
    }
}

/// Reads JSON text one token at a time, with no intermediate tree.
///
/// Arrays are read as `begin_array` followed by `next_element` until it
/// returns `false`; objects as `begin_object` followed by `next_key` until
/// it returns `None`, reading (or [`skip`](Self::skip)ping) each key's value
/// in between. Every method validates what it consumes, so a document that
/// reads without error is well-formed JSON up to the point read;
/// [`end`](Self::end) checks that nothing but whitespace follows.
#[derive(Debug)]
pub struct Deserializer<'a> {
    text: &'a str,
    /// Byte offset of the cursor. It only ever advances past ASCII bytes
    /// or whole string runs, so it always sits on a `char` boundary.
    pos: usize,
    /// Whether the innermost open array or object has yielded nothing yet.
    first: bool,
}

impl<'a> Deserializer<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Deserializer {
            text,
            pos: 0,
            first: false,
        }
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Returns an error naming the offset of the first trailing character.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::custom(format!(
                "trailing characters at byte {}",
                self.pos
            ))),
        }
    }

    /// Skips whitespace and returns the first byte of the next token.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// The error for a value that is not the `what` the caller expects,
    /// naming the kind of token found instead.
    pub fn expected(&mut self, what: &str) -> Error {
        let got = match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(c) => {
                return Error::custom(format!("unexpected `{}` at byte {}", c as char, self.pos))
            }
            None => return Error::custom("unexpected end of input"),
        };
        Error::custom(format!("expected {what}, got {got} at byte {}", self.pos))
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Returns an error if the next token is not `null`.
    pub fn null(&mut self) -> Result<(), Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")
        } else {
            Err(self.expected("null"))
        }
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns an error if the next token is not a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.expected("bool")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Reads a number; `what` names the expected type in the error for
    /// any other token.
    pub(crate) fn number(&mut self, what: &str) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected(what));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes[start] == b'-' {
            self.pos += 1;
        }
        let negative = self.pos > start;
        let mut is_float = false;
        // The digits' value, while it fits: the common case reads without
        // a second pass over the text.
        let mut value = Some(0u64);
        while let Some(&c) = bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => {
                    value = value
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(u64::from(c - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let has_digits = self.pos > start + usize::from(negative);
        match value {
            Some(v) if !is_float && has_digits && !negative => {
                return Ok(i64::try_from(v).map_or(Number::UInt(v), Number::Int));
            }
            Some(v) if !is_float && has_digits && v <= i64::MAX as u64 => {
                return Ok(Number::Int(-(v as i64)));
            }
            _ => {}
        }
        let text = &self.text[start..self.pos];
        let invalid = || Error::custom(format!("invalid number `{text}`"));
        if is_float {
            return text.parse().map(Number::Float).map_err(|_| invalid());
        }
        if let Ok(i) = text.parse() {
            Ok(Number::Int(i))
        } else if let Ok(u) = text.parse() {
            Ok(Number::UInt(u))
        } else {
            text.parse().map(Number::Float).map_err(|_| invalid())
        }
    }

    /// Reads a string, borrowing it from the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Returns an error if the next token is not a well-formed string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let text = self.text;
        let run = self.run();
        if text.as_bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match text.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => out.push_str(self.run()),
                None => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// Advances past the run of characters up to the next quote, backslash
    /// or the end of input, returning it. Both stops are ASCII, so the run
    /// ends on a char boundary.
    fn run(&mut self) -> &'a str {
        let text = self.text;
        let rest = &text.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let start = self.pos;
        self.pos += len;
        &text[start..self.pos]
    }

    /// Decodes one escape (cursor just past the backslash) into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.text.as_bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.unicode_escape()?;
                if (0xD800..=0xDBFF).contains(&code) {
                    // High surrogate: a low surrogate escape must follow
                    // (JSON encodes non-BMP characters as \uD8xx\uDCxx).
                    if self.text.as_bytes().get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
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
                    char::from_u32(code).ok_or_else(|| Error::custom("invalid \\u code point"))?
                }
            }
            _ => return Err(Error::custom("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`),
    /// leaving the cursor on the last digit.
    fn unicode_escape(&mut self) -> Result<u32, Error> {
        let hex = self
            .text
            .as_bytes()
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

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// Returns an error if the next token is not `[`.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "array")
    }

    /// Moves to the next element of the open array: `true` with the cursor
    /// before it, or `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// Returns an error if neither `,` nor `]` follows the last element.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next(b']')
    }

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// Returns an error if the next token is not `{`.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "object")
    }

    /// Reads the next key of the open object and its `:`, leaving the
    /// cursor before the value; `None` once the object is closed.
    ///
    /// # Errors
    ///
    /// Returns an error if the object is malformed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(Error::custom(format!("expected `:` at byte {}", self.pos)));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.expected(what));
        }
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes the separator before the next member of the innermost open
    /// container, or its `close` bracket.
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(Error::custom(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// Reads past the next value, checking that it is well-formed.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is malformed.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.null(),
            _ => self.number("value").map(drop),
        }
    }
}
