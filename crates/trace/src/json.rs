//! The workspace's one JSON writer.
//!
//! Every JSON document the repo emits — Chrome traces, flight dumps,
//! phase-report JSONL, lint and serve reports, the `BENCH_*.json`
//! files — is appended into one `String` through this builder, so
//! string escaping (RFC 8259), comma placement and the treatment of
//! non-finite floats are decided in exactly one place. There is no
//! reader and no value tree: callers write members in document order.
//!
//! ```
//! use rips_trace::Json;
//! let mut j = Json::new();
//! j.obj().key("name").str("a\"b").key("xs").arr().u64(1).f64(f64::NAN, 2).end().end();
//! assert_eq!(j.finish(), r#"{"name":"a\"b","xs":[1,null]}"#);
//! ```

use std::fmt::Write as _;

/// Append-only JSON builder (see the module docs).
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    /// Closing bracket of every open container, innermost last.
    open: Vec<char>,
    /// Containers opened at depth ≤ `pretty` put one member per line.
    pretty: usize,
    /// A value was written since the innermost container opened.
    comma: bool,
    /// The last thing written was a key: the next value follows it.
    after_key: bool,
}

impl Json {
    /// A compact writer: no whitespace anywhere.
    pub fn new() -> Self {
        Json::default()
    }

    /// A writer that lays the outer `depth` container levels out one
    /// member per line (two-space indent) and everything nested deeper
    /// compactly — the shape of the checked-in `BENCH_*.json` files,
    /// where each measured cell reads as one line.
    pub fn pretty(depth: usize) -> Self {
        Json {
            pretty: depth,
            ..Json::default()
        }
    }

    /// Separator before a key or an array element.
    fn sep(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.comma {
            self.out.push(',');
        }
        self.line(self.open.len());
    }

    /// Starts a new line at `depth` when that level is pretty-printed.
    fn line(&mut self, depth: usize) {
        if (1..=self.pretty).contains(&self.open.len()) {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", depth));
        }
    }

    fn begin(&mut self, opener: char, closer: char) -> &mut Self {
        self.sep();
        self.out.push(opener);
        self.open.push(closer);
        self.comma = false;
        self
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    /// Closes the innermost open object or array.
    ///
    /// # Panics
    /// If nothing is open (a bug in the caller's nesting).
    pub fn end(&mut self) -> &mut Self {
        if self.comma {
            self.line(self.open.len() - 1);
        }
        let closer = self.open.pop().expect("Json::end with nothing open");
        self.out.push(closer);
        self.comma = true;
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.quote(k);
        self.out.push(':');
        if self.open.len() <= self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    fn value(&mut self, text: std::fmt::Arguments<'_>) -> &mut Self {
        self.sep();
        self.out.write_fmt(text).expect("write to String");
        self.comma = true;
        self
    }

    /// Writes a string value, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.quote(v);
        self.comma = true;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.value(format_args!("{v}"))
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.value(format_args!("{v}"))
    }

    /// Writes a float with `decimals` fractional digits; NaN and ±∞
    /// have no JSON spelling and are written as `null`.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.value(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value(format_args!("{v}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value(format_args!("null"))
    }

    /// Splices `fragment` in as one value, unchecked: it must be a
    /// complete JSON value this writer produced (a subprocess's cell).
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.value(format_args!("{fragment}"))
    }

    /// The document so far. Call with every container closed.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "Json::finish with open containers");
        self.out
    }

    /// RFC 8259 §7: `"` and `\` are backslash-escaped, every control
    /// character below 0x20 is `\n`/`\t`/`\r` or `\u00XX`, and
    /// everything else (all other Unicode) passes through as UTF-8.
    fn quote(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    write!(self.out, "\\u{:04x}", c as u32).expect("write to String")
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_every_control_char() {
        let mut j = Json::new();
        j.str("a\u{7}\"\\\n");
        assert_eq!(j.finish(), r#""a\u0007\"\\\n""#);
        let mut j = Json::new();
        j.str("\t\r\u{0}\u{1f} é✓");
        assert_eq!(j.finish(), "\"\\t\\r\\u0000\\u001f é✓\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut j = Json::new();
        j.arr()
            .f64(f64::NAN, 1)
            .f64(f64::INFINITY, 1)
            .f64(f64::NEG_INFINITY, 1)
            .f64(1.25, 1)
            .end();
        assert_eq!(j.finish(), "[null,null,null,1.2]");
    }

    #[test]
    fn nested_empty_containers() {
        let mut j = Json::new();
        j.obj().key("o").obj().end().key("a").arr().end().end();
        assert_eq!(j.finish(), r#"{"o":{},"a":[]}"#);
    }

    #[test]
    fn commas_go_between_members_only() {
        let mut j = Json::new();
        j.obj().key("a").u64(1).key("b").arr();
        j.obj().key("x").i64(-2).end().obj().end().bool(true).null();
        j.end().key("c").str("d").end();
        assert_eq!(j.finish(), r#"{"a":1,"b":[{"x":-2},{},true,null],"c":"d"}"#);
    }

    #[test]
    fn raw_splices_one_value() {
        let mut j = Json::new();
        j.arr().raw(r#"{"n":1}"#).raw("2").end();
        assert_eq!(j.finish(), r#"[{"n":1},2]"#);
    }

    #[test]
    fn pretty_indents_outer_levels_and_keeps_inner_ones_on_a_line() {
        let mut j = Json::pretty(2);
        j.obj().key("bench").str("x").key("cells").arr();
        j.obj()
            .key("n")
            .u64(1)
            .key("v")
            .arr()
            .u64(2)
            .u64(3)
            .end()
            .end();
        j.obj().end();
        j.end().key("none").arr().end().end();
        assert_eq!(
            j.finish(),
            "{\n  \"bench\": \"x\",\n  \"cells\": [\n    {\"n\":1,\"v\":[2,3]},\n    {}\n  ],\n  \"none\": []\n}"
        );
    }
}
