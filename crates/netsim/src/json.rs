//! The workspace's one JSON writer and its one string reader.
//!
//! Every JSON document or line the simulator emits — the telemetry
//! exports, both chrome traces, the channel heatmap, the sweep-progress
//! events, the campaign journal and its timing sidecar — is built by a
//! [`JsonWriter`], so all of them share one output style:
//!
//! * compact separators (`,` and `:`, never a space or a newline);
//! * one escaping rule: `"`, `\` and newline by name, every other
//!   control character as `\u00xx`, everything else verbatim (non-ASCII
//!   included);
//! * `f64` in Rust's shortest round-trip form, with NaN and the
//!   infinities (which JSON cannot spell) written as `null`.
//!
//! [`scan_json_string`] is the inverse of the escaping rule; the
//! campaign journal reads its lines back with it.

use std::fmt::Write as _;

/// A push-style JSON builder: open a container, push keys and values in
/// document order, close it, then [`finish`](JsonWriter::finish). Commas
/// are placed automatically.
///
/// ```
/// use dfly_netsim::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object().key("hits").u64(8u64).key("eta").f64(None);
/// w.key("ticks").u64s([16u64, 32]).end_object();
/// assert_eq!(w.finish(), r#"{"hits":8,"eta":null,"ticks":[16,32]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling and needs a comma.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a value: the separating comma if it follows a sibling.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next push is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: impl Into<u64>) -> &mut Self {
        let _ = write!(self.value(), "{}", v.into());
        self
    }

    /// Writes a number in shortest round-trip form; `None` and
    /// non-finite values are written as `null`.
    pub fn f64(&mut self, v: impl Into<Option<f64>>) -> &mut Self {
        match v.into().filter(|v| v.is_finite()) {
            Some(v) => {
                let _ = write!(self.value(), "{v}");
            }
            None => self.value().push_str("null"),
        }
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value().push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes an array of unsigned integers.
    pub fn u64s<T: Into<u64>>(&mut self, values: impl IntoIterator<Item = T>) -> &mut Self {
        self.begin_array();
        for v in values {
            self.u64(v);
        }
        self.end_array()
    }
}

/// Reads back one string the writer escaped: `s` starts right after the
/// opening quote. Returns the unescaped content and the remainder after
/// the closing quote, or `None` on an escape the writer never emits or
/// a missing closing quote.
pub fn scan_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                'n' => out.push('\n'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut w = JsonWriter::new();
        w.str(s);
        w.finish()
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("\t\u{1f}"), "\"\\u0009\\u001f\"");
    }

    #[test]
    fn scanning_inverts_escaping() {
        let mut cases: Vec<String> = [
            "",
            "plain",
            "\"quoted\"",
            "back\\slash\\\\",
            "\\\"",
            "tail\\",
            "héllo wörld — ✓ 🐉",
            "line\u{2028}separator\u{2029}",
            "\u{7f}\u{80}\u{ffff}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Every control character, alone and embedded.
        for c in (0u32..0x20).filter_map(char::from_u32) {
            cases.push(c.to_string());
            cases.push(format!("a{c}\"{c}\\b"));
        }
        for s in &cases {
            let json = escaped(s);
            assert!(!json[1..json.len() - 1].contains(|c: char| (c as u32) < 0x20));
            let (back, rest) = scan_json_string(&json[1..]).expect("writer output scans");
            assert_eq!(&back, s, "{json}");
            assert_eq!(rest, "");
        }
        // A missing closing quote or an unknown escape is not a string.
        assert_eq!(scan_json_string("open"), None);
        assert_eq!(scan_json_string("\\q\""), None);
    }

    #[test]
    fn separators_are_compact_and_numbers_round_trip() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("a")
            .begin_array()
            .begin_object()
            .end_object()
            .begin_array()
            .end_array()
            .bool(true)
            .end_array();
        w.key("n").u64(7u8).key("x").f64(0.1).key("i").f64(2.0);
        w.key("nan").f64(f64::NAN).key("inf").f64(f64::NEG_INFINITY);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[{},[],true],"n":7,"x":0.1,"i":2,"nan":null,"inf":null}"#
        );
        for v in [0.1, 1.0 / 3.0, 123_456.789, f64::MIN_POSITIVE, f64::MAX] {
            let mut w = JsonWriter::new();
            w.f64(v);
            assert_eq!(w.finish().parse::<f64>(), Ok(v));
        }
    }
}
