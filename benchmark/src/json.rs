//! A streaming JSON writer: the result line, `results.json` and the trace
//! files are written with it, so the package needs no serializer crate.

use std::fmt::Write;

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Writes one JSON document into a string, commas placed by a container
/// stack. Misuse (a value without a key inside an object) produces invalid
/// JSON rather than a panic; the unit tests pin the shapes the benchmark
/// writes.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// One entry per open container: whether it already holds an element.
    filled: Vec<bool>,
    after_key: bool,
    pending_newline: bool,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if let Some(filled) = self.filled.last_mut() {
            if *filled {
                self.out.push(',');
            }
            *filled = true;
        }
        self.flush_newline();
    }

    fn flush_newline(&mut self) {
        if std::mem::take(&mut self.pending_newline) {
            self.out.push('\n');
        }
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.filled.push(false);
        self
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.flush_newline();
        self.filled.pop();
        self.out.push('}');
        self
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.filled.push(false);
        self
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.flush_newline();
        self.filled.pop();
        self.out.push(']');
        self
    }

    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.out, k);
        self.out.push(':');
        self.after_key = true;
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.out, s);
        self
    }

    /// A number with every digit `f64` carries; NaN and infinities, which
    /// JSON cannot hold, become `null`.
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// A line break before the next element or closing bracket (after the
    /// comma, if one is due), so large files stay greppable.
    pub fn newline(&mut self) -> &mut Self {
        self.pending_newline = true;
        self
    }

    pub fn finish(mut self) -> String {
        self.flush_newline();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("plain"), r#""plain""#);
        assert_eq!(esc(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(esc("line\nbreak\ttab\r"), r#""line\nbreak\ttab\r""#);
        assert_eq!(esc("\u{1}\u{1f}"), format!("\"{0}u0001{0}u001f\"", '\\'));
        assert_eq!(esc("µs → ok"), "\"µs → ok\"");
    }

    #[test]
    fn commas_and_nesting() {
        let mut w = Writer::new();
        w.begin_obj();
        w.key("a").uint(1);
        w.key("b")
            .begin_arr()
            .num(1.5)
            .str("x")
            .bool(true)
            .end_arr();
        w.key("c").begin_obj().key("d").num(f64::NAN).end_obj();
        w.key("e").begin_arr().end_arr();
        w.key("f").begin_arr();
        w.newline().uint(1).newline().null().newline().end_arr();
        w.end_obj().newline();
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"b\":[1.5,\"x\",true],\"c\":{\"d\":null},\"e\":[],\"f\":[\n1,\nnull\n]}\n"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        let mut w = Writer::new();
        w.begin_arr().num(0.1 + 0.2).num(314.0).num(1e-7).end_arr();
        assert_eq!(w.finish(), "[0.30000000000000004,314,0.0000001]");
    }
}
