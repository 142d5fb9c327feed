//! The one text codec for bit-exact store records: a version header
//! line, then `name token…` lines. An `f64` token is the 16 hex digits of
//! its bit pattern, so it decodes bit-identically; integers are decimal
//! and names verbatim (no spaces or newlines). A decoder names each line
//! in the order the encoder wrote it, and any mismatch — wrong header or
//! line name, a missing, extra or malformed token, a wrong count of
//! repeated lines, a trailing line — decodes to `None`, which
//! [`cached`](crate::cached) treats as a miss.

use std::fmt::{Display, Write as _};
use std::str::{FromStr, Split};

/// Builds a record line by line; [`RecordWriter::finish`] returns its text.
#[derive(Debug)]
pub struct RecordWriter {
    out: String,
}

impl RecordWriter {
    /// Starts a record with its version header.
    pub fn new(header: &str) -> Self {
        Self { out: header.into() }
    }

    /// Starts the line `name`; the token calls that follow append to it.
    pub fn line(&mut self, name: &str) -> &mut Self {
        self.out.push('\n');
        self.out.push_str(name);
        self
    }

    /// Appends a name token, verbatim.
    pub fn name(&mut self, name: &str) -> &mut Self {
        debug_assert!(!name.contains([' ', '\n']), "record name {name:?}");
        self.out.push(' ');
        self.out.push_str(name);
        self
    }

    /// Appends an integer token in decimal.
    pub fn int(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.out, " {v}");
        self
    }

    /// Appends an `f64` token as the hex of its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        let _ = write!(self.out, " {:016x}", v.to_bits());
        self
    }

    /// Appends one `f64` token per value.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// The record text, ending in a newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Reads a record's lines in order; every method returns `None` on the
/// first mismatch.
#[derive(Debug)]
pub struct RecordReader<'a> {
    lines: Split<'a, char>,
    tokens: Split<'a, char>,
}

impl<'a> RecordReader<'a> {
    /// Checks the version header and the final newline.
    pub fn new(text: &'a str, header: &str) -> Option<Self> {
        let mut lines = text.strip_suffix('\n')?.split('\n');
        let mut tokens = lines.next()?.split(' ');
        // Matching the header token by token leaves `tokens` used up, as
        // after any fully read line.
        let header_ok = tokens.by_ref().eq(header.split(' '));
        header_ok.then_some(Self { lines, tokens })
    }

    /// Moves to the next line, which must be named `name`, after checking
    /// that the current line has no tokens left.
    pub fn line(&mut self, name: &str) -> Option<&mut Self> {
        self.tokens.next().is_none().then_some(())?;
        self.tokens = self.lines.next()?.split(' ');
        (self.tokens.next()? == name).then_some(self)
    }

    /// The next token, verbatim.
    pub fn name(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }

    /// The next token as a decimal integer.
    pub fn int<T: FromStr>(&mut self) -> Option<T> {
        self.tokens.next()?.parse().ok()
    }

    /// The next token as an `f64` bit pattern (exactly 16 hex digits).
    pub fn f64(&mut self) -> Option<f64> {
        let t = self.tokens.next()?;
        if t.len() != 16 || !t.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(t, 16).ok().map(f64::from_bits)
    }

    /// The next `n` tokens as `f64` bit patterns.
    pub fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        (0..n).map(|_| self.f64()).collect()
    }

    /// Checks that the current line has no tokens left and no line follows.
    pub fn finish(mut self) -> Option<()> {
        (self.tokens.next().is_none() && self.lines.next().is_none()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut w = RecordWriter::new("sample v1");
        w.line("count").int(2u64);
        w.line("kind").name("nand2");
        for row in [[1.0, f64::NAN], [-0.0, f64::MIN_POSITIVE / 2.0]] {
            w.line("row").f64s(&row);
        }
        w.finish()
    }

    fn decode(text: &str) -> Option<(String, Vec<Vec<f64>>)> {
        let mut r = RecordReader::new(text, "sample v1")?;
        let n: usize = r.line("count")?.int()?;
        let kind = r.line("kind")?.name()?.to_string();
        let rows = (0..n)
            .map(|_| r.line("row")?.f64s(2))
            .collect::<Option<Vec<_>>>()?;
        r.finish()?;
        Some((kind, rows))
    }

    #[test]
    fn writes_the_documented_bytes() {
        assert_eq!(
            sample(),
            "sample v1\ncount 2\nkind nand2\n\
             row 3ff0000000000000 7ff8000000000000\n\
             row 8000000000000000 0008000000000000\n"
        );
    }

    #[test]
    fn round_trips_every_bit_pattern() {
        let (kind, rows) = decode(&sample()).expect("decodes");
        assert_eq!(kind, "nand2");
        let bits: Vec<u64> = rows.concat().iter().map(|v| v.to_bits()).collect();
        let want = [1.0, f64::NAN, -0.0, f64::MIN_POSITIVE / 2.0].map(f64::to_bits);
        assert_eq!(bits, want);
    }

    #[test]
    fn any_mismatch_decodes_to_none() {
        let good = sample();
        assert!(decode(&good).is_some());
        let bad = [
            String::new(),
            "garbage".to_string(),
            good.replace("sample v1", "sample v2"),
            good.replace("sample v1", "sample v1 x"),
            good.replace("count 2", "count 3"),
            good.replace("count 2", "count 1"),
            good.replace("count 2", "count x"),
            good.replace("count 2", "count 2 2"),
            good.replace("count 2", "count  2"),
            good.replace("kind nand2", "kind"),
            good.replace("kind nand2", "kind nand2 nor2"),
            good.replace("kind", "knid"),
            good.replace("3ff0000000000000", "3ff000000000000"),
            good.replace("3ff0000000000000", "3ff000000000000z"),
            good.replace("3ff0000000000000", "+ff0000000000000"),
            good.replace(" 7ff8000000000000", ""),
            good.replace('\n', "\r\n"),
            good.trim_end().to_string(),
            format!("{good}extra\n"),
            format!("{good}\n"),
            good[..good.len() - 5].to_string(),
        ];
        for text in &bad {
            assert_eq!(decode(text), None, "{text:?}");
        }
    }
}
