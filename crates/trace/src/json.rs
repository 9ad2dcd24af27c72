//! The workspace's one JSON writer.
//!
//! Every body the engine renders as JSON — traces, the recent-trace
//! ring, STATS, the cluster client's stats — is written by [`Writer`],
//! for operators and their tooling to read; nothing in the workspace
//! parses it back (wire payloads go through `fj_storage::codec`).
//! Deliberately tiny: these are formats *we* define (objects, arrays,
//! strings, unsigned integers, six-decimal floats), not a general JSON
//! library.

use std::fmt::Write as _;

/// Builds one line of JSON with a stable key order: the caller emits
/// tokens in order and the writer places the commas. Start one with
/// [`object()`] or [`array()`]; brackets are closed by construction.
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

    /// Writes a string value, escaping `"` and `\`. Everything else
    /// passes through: the texts written here are single-line display
    /// forms.
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
}
