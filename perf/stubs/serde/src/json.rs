//! The JSON text writer and parser behind the `Serialize`/`Deserialize`
//! stand-ins, and the helpers the derive macros call.

use std::fmt;

/// A (de)serialization failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Appends JSON text to a byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn raw(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    pub fn display(&mut self, v: &dyn fmt::Display) {
        use std::io::Write;
        write!(self.buf, "{v}").expect("writing to a Vec cannot fail");
    }

    /// Decimal digits without the formatting machinery: byte arrays are
    /// written one integer at a time, so this is a hot loop for bulk state.
    pub fn int(&mut self, v: i128) {
        let mut digits = [0u8; 40];
        let mut at = digits.len();
        let mut n = v.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    pub fn string(&mut self, s: &str) {
        self.buf.push(b'"');
        for &b in s.as_bytes() {
            match b {
                b'"' => self.raw("\\\""),
                b'\\' => self.raw("\\\\"),
                b'\n' => self.raw("\\n"),
                b'\r' => self.raw("\\r"),
                b'\t' => self.raw("\\t"),
                0..=0x1f => self.raw(&format!("\\u{b:04x}")),
                _ => self.buf.push(b),
            }
        }
        self.buf.push(b'"');
    }

    /// Whether the text written from `start` on begins a JSON string.
    pub fn starts_string_at(&self, start: usize) -> bool {
        self.buf.get(start) == Some(&b'"')
    }

    /// `"name":` preceded by a comma unless `first`.
    pub fn field(&mut self, name: &str, first: bool) {
        if !first {
            self.raw(",");
        }
        self.string(name);
        self.raw(":");
    }
}

/// Reads JSON text from a byte slice.
pub struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a [u8]) -> Self {
        Parser { src, pos: 0 }
    }

    pub fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// The next byte after white space, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    #[inline]
    pub fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    pub fn eat_literal(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Steps to the next element of an array or object whose opening bracket
    /// was consumed: `false` once `close` is reached (and consumed).
    #[inline]
    pub fn next_element(&mut self, close: u8, first: &mut bool) -> Result<bool, Error> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if !*first {
            self.expect(b',')?;
        }
        *first = false;
        Ok(true)
    }

    /// After the last input was consumed: nothing but white space may follow.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The text of the number at the cursor (any JSON number form).
    pub fn number_text(&mut self) -> Result<&'a str, Error> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.src.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos]).expect("number bytes are ASCII"))
    }

    pub fn int(&mut self) -> Result<i128, Error> {
        self.skip_ws();
        let negative = self.src.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let start = self.pos;
        let mut v: i128 = 0;
        while let Some(d @ b'0'..=b'9') = self.src.get(self.pos) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((d - b'0') as i128))
                .ok_or_else(|| self.error("integer overflow"))?;
            self.pos += 1;
        }
        if start == self.pos || matches!(self.src.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("expected an integer"));
        }
        Ok(if negative { -v } else { v })
    }

    pub fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.extend_from_slice(&self.src[start..self.pos]);
            match self.src.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid UTF-8 in string"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut Vec<u8>) -> Result<(), Error> {
        let c = *self
            .src
            .get(self.pos)
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        let ch = match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.src[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("lone surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid surrogate pair"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
            }
            _ => return Err(self.error("invalid escape")),
        };
        out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(digits)
    }

    /// Skips one value of any kind (a field the target type does not have).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                let close = if open == b'[' { b']' } else { b'}' };
                let mut first = true;
                while self.next_element(close, &mut first)? {
                    if open == b'{' {
                        self.string()?;
                        self.expect(b':')?;
                    }
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't') if self.eat_literal("true") => Ok(()),
            Some(b'f') if self.eat_literal("false") => Ok(()),
            Some(b'n') if self.eat_literal("null") => Ok(()),
            _ => self.number_text().map(drop),
        }
    }
}
