//! The JSON writer every [`Serialize`] impl drives.

use std::fmt::Write as _;

use crate::Serialize;

/// Enough spaces for any indent a line of pretty output takes in one push.
const SPACES: &str = "                                                                ";

/// Writes JSON text as a value is walked, with no intermediate tree.
///
/// Objects and arrays are written between `begin_*` and `end_*` calls; the
/// caller supplies object keys in the order they should appear, which for
/// every impl in this workspace is sorted order, so the output is
/// deterministic. Compact output has no whitespace; pretty output puts each
/// element on its own line, indented two spaces per level, and writes empty
/// containers as `[]` and `{}`.
#[derive(Debug)]
pub struct Serializer {
    out: String,
    /// Spaces per nesting level, or `None` for compact output.
    indent: Option<usize>,
    depth: usize,
    /// Whether the innermost open array or object has no element yet.
    empty: bool,
}

impl Serializer {
    /// A writer of compact JSON.
    pub fn compact() -> Self {
        Self::with_indent(None)
    }

    /// A writer of two-space-indented JSON.
    pub fn pretty() -> Self {
        Self::with_indent(Some(2))
    }

    fn with_indent(indent: Option<usize>) -> Self {
        Serializer {
            out: String::new(),
            indent,
            depth: 0,
            empty: false,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, i: i64) {
        self.decimal(i.unsigned_abs(), i < 0);
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, u: u64) {
        self.decimal(u, false);
    }

    /// Writes `n` in decimal, after a minus sign if `negative`, from a
    /// stack buffer: the same text as `write!`, without the formatting
    /// machinery per number, and cache files are mostly numbers.
    fn decimal(&mut self, mut n: u64, negative: bool) {
        // `-` and the 20 digits of `u64::MAX`.
        let mut buf = [0u8; 21];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if negative {
            at -= 1;
            buf[at] = b'-';
        }
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).expect("digits and `-` are ASCII"));
    }

    /// Writes a float. Integral values keep a `.0` so they read back as
    /// floats; NaN and infinities, which JSON cannot express, are `null`.
    pub fn f64(&mut self, f: f64) {
        if f.is_nan() || f.is_infinite() {
            self.out.push_str("null");
        } else if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(self.out, "{f:.1}");
        } else {
            let _ = write!(self.out, "{f}");
        }
    }

    /// Writes a string literal, escaping quotes, backslashes and control
    /// characters.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte that needs escaping is ASCII, so `i` is a char
            // boundary.
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Writes the next element of the open array.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Writes the next `key: value` member of the open object.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.separate();
        self.str(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        value.serialize(self);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn separate(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        // The enclosing container, if any, holds this one as an element.
        self.empty = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            let mut pad = width * self.depth;
            while pad > 0 {
                let n = pad.min(SPACES.len());
                self.out.push_str(&SPACES[..n]);
                pad -= n;
            }
        }
    }
}
