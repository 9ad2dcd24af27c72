//! The workspace's one JSON writer and one strict JSON reader.
//!
//! Every body the engine puts on the wire or in a log line as JSON —
//! traces, the recent-trace ring, STATS, HEALTH, the cluster client's
//! stats — is rendered by [`Writer`] and, where it is read back, parsed
//! by [`Reader`]. Deliberately tiny: these are formats *we* define
//! (objects, arrays, strings, unsigned integers, six-decimal floats),
//! not a general JSON library.

use std::fmt::{self, Write as _};

/// Maximum node nesting the trace reader accepts; see [`Error::TooDeep`].
pub const MAX_DEPTH: usize = 200;

/// Builds one line of JSON with a stable key order: the caller emits
/// tokens in order and the writer places the commas. Start one with
/// [`object`] or [`array`]; brackets are closed by construction.
///
/// ```
/// let json = fj_trace::json::object(|w| {
///     w.key("op").string("scan \"Emp\"");
///     w.key("rows").uint(3);
///     w.key("children").array(|_| {});
/// });
/// assert_eq!(json, r#"{"op":"scan \"Emp\"","rows":3,"children":[]}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next key or value must be preceded by a comma (true
    /// after any value, false after an opener or a key).
    comma: bool,
}

/// One JSON object as a string; `fill` writes its keys and values.
pub fn object(fill: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.object(fill);
    w.out
}

/// One JSON array as a string; `fill` writes its elements.
pub fn array(fill: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.array(fill);
    w.out
}

impl Writer {
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn nested(&mut self, open: char, close: char, fill: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.sep();
        self.out.push(open);
        self.comma = false;
        fill(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes an object value; `fill` writes its keys and values.
    pub fn object(&mut self, fill: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('{', '}', fill)
    }

    /// Writes an array value; `fill` writes its elements.
    pub fn array(&mut self, fill: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('[', ']', fill)
    }

    /// Writes `"key":`; the next call supplies the value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value, escaping `"` and `\` — the two escapes
    /// [`Reader::string`] accepts. Everything else passes through: the
    /// texts written here are single-line display forms.
    pub fn string(&mut self, s: &str) -> &mut Writer {
        self.sep();
        self.out.push('"');
        for ch in s.chars() {
            if matches!(ch, '"' | '\\') {
                self.out.push('\\');
            }
            self.out.push(ch);
        }
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float fixed to six decimals. Callers pass finite
    /// values only, so the output stays valid JSON.
    pub fn float6(&mut self, v: f64) -> &mut Writer {
        self.sep();
        let _ = write!(self.out, "{v:.6}");
        self
    }

    /// Writes `json` — one complete value already rendered by another
    /// `to_json` — as the next value.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.sep();
        self.out.push_str(json);
        self
    }
}

/// Typed failures of the strict reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Input ended mid-value.
    UnexpectedEof,
    /// A specific token was required and absent.
    Expected(&'static str),
    /// The same key appeared twice in one object.
    DuplicateKey(String),
    /// A key this schema does not define.
    UnknownKey(String),
    /// A required key was absent.
    MissingKey(&'static str),
    /// A counter was not an unsigned integer (or overflowed u64).
    BadNumber,
    /// A string escape other than `\"` or `\\`.
    BadEscape,
    /// Nesting beyond [`MAX_DEPTH`].
    TooDeep,
    /// Bytes after the closing brace.
    TrailingBytes(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => f.write_str("unexpected end of input"),
            Error::Expected(what) => write!(f, "expected {what}"),
            Error::DuplicateKey(k) => write!(f, "duplicate key '{k}'"),
            Error::UnknownKey(k) => write!(f, "unknown key '{k}'"),
            Error::MissingKey(k) => write!(f, "missing key '{k}'"),
            Error::BadNumber => f.write_str("counter is not a u64"),
            Error::BadEscape => f.write_str("unsupported string escape"),
            Error::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for Error {}

/// A strict, total tokenizer over one JSON text: every method returns a
/// typed [`Error`] on input it does not accept and never panics, so it
/// can face adversarial bytes off the wire. ASCII whitespace is allowed
/// between tokens.
#[derive(Debug)]
pub struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `s`.
    pub fn new(s: &'a str) -> Reader<'a> {
        Reader { s, i: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let c = self.peek().ok_or(Error::UnexpectedEof)?;
        self.i += 1;
        Ok(c)
    }

    /// Skips whitespace, then consumes `want` (described as `name` in
    /// the error).
    fn expect(&mut self, want: u8, name: &'static str) -> Result<(), Error> {
        self.ws();
        match self.bump()? {
            c if c == want => Ok(()),
            _ => Err(Error::Expected(name)),
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skips whitespace and, if the next byte is `c`, consumes it.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(c);
        if hit {
            self.i += 1;
        }
        hit
    }

    /// After one element: `,` (true: another follows) or `close`
    /// (false), anything else is `Expected(name)`.
    fn more(&mut self, close: u8, name: &'static str) -> Result<bool, Error> {
        if self.eat(b',') {
            return Ok(true);
        }
        self.expect(close, name).map(|()| false)
    }

    /// A quoted string with `\"` and `\\` as the only escapes.
    pub fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            // Runs between quotes and backslashes are copied whole;
            // both delimiters are ASCII, so the slice ends on char
            // boundaries and multi-byte sequences survive intact.
            let start = self.i;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            out.push_str(&self.s[start..self.i]);
            if self.bump()? == b'"' {
                return Ok(out);
            }
            match self.bump()? {
                c @ (b'"' | b'\\') => out.push(char::from(c)),
                _ => return Err(Error::BadEscape),
            }
        }
    }

    /// An unsigned integer: digits only, no leading zeros (except "0"),
    /// overflow is a typed error.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.ws();
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        let digits = &self.s.as_bytes()[start..self.i];
        if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
            return Err(Error::BadNumber);
        }
        digits.iter().try_fold(0u64, |v, d| {
            v.checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or(Error::BadNumber)
        })
    }

    /// One object with exactly the keys in `keys`: each once, in any
    /// order. `value(self, slot)` reads the value of `keys[slot]`.
    /// Duplicate, unknown and missing keys are typed errors.
    pub fn object(
        &mut self,
        keys: &[&'static str],
        mut value: impl FnMut(&mut Reader<'a>, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{', "'{'")?;
        let mut seen = vec![false; keys.len()];
        let mut more = !self.eat(b'}');
        while more {
            let key = self.string()?;
            self.expect(b':', "':'")?;
            let Some(slot) = keys.iter().position(|k| *k == key) else {
                return Err(Error::UnknownKey(key));
            };
            if std::mem::replace(&mut seen[slot], true) {
                return Err(Error::DuplicateKey(key));
            }
            value(self, slot)?;
            more = self.more(b'}', "',' or '}'")?;
        }
        match seen.iter().position(|s| !s) {
            Some(slot) => Err(Error::MissingKey(keys[slot])),
            None => Ok(()),
        }
    }

    /// One array; `item(self)` reads each element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'[', "'['")?;
        let mut more = !self.eat(b']');
        while more {
            item(self)?;
            more = self.more(b']', "',' or ']'")?;
        }
        Ok(())
    }

    /// Requires that only whitespace remains.
    pub fn end(mut self) -> Result<(), Error> {
        self.ws();
        match self.s.len() - self.i {
            0 => Ok(()),
            n => Err(Error::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_across_nesting() {
        let json = object(|w| {
            w.key("a").uint(1);
            w.key("b").array(|w| {
                w.object(|w| {
                    w.key("x").float6(0.5);
                });
                w.object(|_| {});
            });
            w.key("c").raw("{\"pre\":1}");
            w.key("d").string("q\"\\é");
        });
        assert_eq!(
            json,
            "{\"a\":1,\"b\":[{\"x\":0.500000},{}],\"c\":{\"pre\":1},\"d\":\"q\\\"\\\\é\"}"
        );
        let pair = array(|w| {
            w.uint(1).uint(2);
        });
        assert_eq!(pair, "[1,2]");
    }

    #[test]
    fn reader_round_trips_what_the_writer_escapes() {
        let text = "say \"hi\" \\ bye — ünïcode";
        let json = array(|w| {
            w.string(text);
        });
        let mut got = Vec::new();
        let mut r = Reader::new(&json);
        r.array(|r| {
            got.push(r.string()?);
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(got, [text]);
    }

    #[test]
    fn object_reader_is_strict_about_its_key_set() {
        let read = |json: &str| {
            let mut got = [0u64; 2];
            let mut r = Reader::new(json);
            r.object(&["a", "b"], |r, slot| {
                got[slot] = r.u64()?;
                Ok(())
            })?;
            r.end()?;
            Ok(got)
        };
        assert_eq!(read(" { \"b\" : 2 , \"a\" : 1 } "), Ok([1, 2]));
        assert_eq!(read("{\"a\":1}"), Err(Error::MissingKey("b")));
        assert_eq!(read("{}"), Err(Error::MissingKey("a")));
        assert_eq!(
            read("{\"a\":1,\"a\":1,\"b\":2}"),
            Err(Error::DuplicateKey("a".into()))
        );
        assert_eq!(
            read("{\"a\":1,\"c\":1}"),
            Err(Error::UnknownKey("c".into()))
        );
        assert_eq!(read("{\"a\":1,\"b\":2}x"), Err(Error::TrailingBytes(1)));
        assert_eq!(read("{\"a\":1,}"), Err(Error::Expected("'\"'")));
        assert_eq!(read("{\"a\":1"), Err(Error::UnexpectedEof));
        for bad in ["-1", "01", "007", "1.5", "true", "99999999999999999999"] {
            let json = format!("{{\"a\":{bad},\"b\":2}}");
            assert!(read(&json).is_err(), "accepted {bad}");
        }
        assert_eq!(read("{\"a\":007,\"b\":2}"), Err(Error::BadNumber));
    }

    #[test]
    fn array_reader_reads_each_element() {
        let mut got = Vec::new();
        let mut r = Reader::new("[1, 2,3]");
        r.array(|r| {
            got.push(r.u64()?);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, [1, 2, 3]);
        assert_eq!(
            Reader::new("[1 2]").array(|r| r.u64().map(drop)),
            Err(Error::Expected("',' or ']'"))
        );
        Reader::new("[]").array(|r| r.u64().map(drop)).unwrap();
    }
}
