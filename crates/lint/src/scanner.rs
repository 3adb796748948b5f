//! Token scanner for Rust source — the lexing approach of
//! `svq-query`'s SQL lexer applied to Rust itself.
//!
//! The linter does not parse Rust; it scans it. A token stream with line
//! numbers is enough to recognise every pattern the rules care about
//! (`.unwrap()`, `panic!`, `== 0.0`, `map.iter()`, `#[cfg(test)]` …)
//! while staying robust to formatting. The scanner handles the lexical
//! constructs that would otherwise produce false tokens: nested block
//! comments, line/doc comments, raw strings (`r#"…"#`), byte strings,
//! char-vs-lifetime disambiguation (`'a'` vs `'a`), and numeric literals
//! with exponents and suffixes.
//!
//! Line comments are also where inline suppressions live:
//! `// svq-lint: allow(rule-a, rule-b)` silences those rules on the
//! comment's own line and the line immediately after it.

use std::collections::{BTreeMap, BTreeSet};

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, …).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Integer literal.
    Int,
    /// Float literal (has a fractional part, exponent, or `f32`/`f64`
    /// suffix).
    Float,
    /// String literal (plain, raw, or byte); `text` is the *content*.
    Str,
    /// Char or byte-char literal; `text` is the raw inside of the quotes.
    Char,
    /// Operator / punctuation. Multi-char operators that the rules need to
    /// see atomically (`::`, `==`, `!=`, `->`, `=>`, `&&`, `||`, `..=`,
    /// `..`, `<=`, `>=`) are merged; everything else is one char.
    Op,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// Is this an `Op` token with exactly this text?
    pub fn is_op(&self, op: &str) -> bool {
        self.kind == TokenKind::Op && self.text == op
    }

    /// Is this an `Ident` token with exactly this text?
    pub fn is_ident(&self, ident: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == ident
    }
}

/// A fully scanned file: tokens plus the inline suppressions found in its
/// comments.
#[derive(Debug, Default)]
pub struct ScannedFile {
    pub tokens: Vec<Token>,
    /// Rule names suppressed per line (`"all"` suppresses every rule). A
    /// suppression on line `l` covers findings on `l` and `l + 1`.
    pub suppressions: BTreeMap<u32, BTreeSet<String>>,
}

impl ScannedFile {
    /// Whether `rule` is suppressed for a finding on `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.suppressions
                .get(l)
                .is_some_and(|rules| rules.contains(rule) || rules.contains("all"))
        })
    }
}

/// Scan `source` into tokens and suppressions.
pub fn scan(source: &str) -> ScannedFile {
    Scanner::new(source).run()
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: ScannedFile,
}

impl<'a> Scanner<'a> {
    fn new(source: &'a str) -> Self {
        Self {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            out: ScannedFile::default(),
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> ScannedFile {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'r' if self.peek(1) == b'"' || self.peek(1) == b'#' => {
                    if !self.raw_string(0) {
                        self.ident();
                    }
                }
                b'b' if self.peek(1) == b'"' => {
                    self.bump();
                    self.string();
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.bump();
                    self.char_literal();
                }
                b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                    if !self.raw_string(1) {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                _ => self.operator(),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        record_suppression(text, line, &mut self.out.suppressions);
    }

    fn block_comment(&mut self) {
        // Nested, as in Rust.
        let mut depth = 0usize;
        while self.pos < self.src.len() {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.push(TokenKind::Str, text, line);
    }

    /// Raw (byte) string starting at `pos + prefix` (`prefix` skips a `b`).
    /// Returns false if this is not actually a raw string (e.g. the ident
    /// `r#for`), leaving the position untouched.
    fn raw_string(&mut self, prefix: usize) -> bool {
        let mut hashes = 0usize;
        let mut i = self.pos + prefix + 1; // past the `r`
        while self.src.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        if self.src.get(i) != Some(&b'"') {
            return false; // raw identifier like r#match
        }
        let line = self.line;
        for _ in 0..(prefix + 1 + hashes + 1) {
            self.bump();
        }
        let start = self.pos;
        let mut closer = vec![b'"'];
        closer.resize(hashes + 1, b'#');
        while self.pos < self.src.len() && !self.src[self.pos..].starts_with(&closer) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        for _ in 0..closer.len().min(self.src.len() - self.pos) {
            self.bump();
        }
        self.push(TokenKind::Str, text, line);
        true
    }

    fn char_or_lifetime(&mut self) {
        // `'a` (lifetime) vs `'a'` (char): a lifetime is `'` + ident chars
        // NOT followed by a closing `'`.
        let mut i = self.pos + 1;
        let mut ident_len = 0usize;
        while self
            .src
            .get(i)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            ident_len += 1;
            i += 1;
        }
        if ident_len > 0 && self.src.get(i) != Some(&b'\'') {
            let line = self.line;
            self.bump();
            let start = self.pos;
            for _ in 0..ident_len {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokenKind::Lifetime, text, line);
        } else {
            self.char_literal();
        }
    }

    fn char_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.push(TokenKind::Char, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut is_float = false;
        while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
            self.bump();
        }
        if self.peek(0) == b'x' || self.peek(0) == b'o' || self.peek(0) == b'b' {
            // Hex/octal/binary: consume the prefixed digits.
            self.bump();
            while self.peek(0).is_ascii_alphanumeric() || self.peek(0) == b'_' {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokenKind::Int, text, line);
            return;
        }
        // Fraction — but `1..2` is a range and `1.method()` a call.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
        } else if self.peek(0) == b'.' && self.peek(1) != b'.' && !is_ident_byte(self.peek(1)) {
            // Trailing-dot float like `2.`.
            is_float = true;
            self.bump();
        }
        // Exponent.
        if (self.peek(0) == b'e' || self.peek(0) == b'E')
            && (self.peek(1).is_ascii_digit()
                || ((self.peek(1) == b'+' || self.peek(1) == b'-')
                    && self.peek(2).is_ascii_digit()))
        {
            is_float = true;
            self.bump();
            self.bump();
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
        }
        // Suffix (`u64`, `f64`, …).
        let suffix_start = self.pos;
        while is_ident_byte(self.peek(0)) {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix == b"f32" || suffix == b"f64" {
            is_float = true;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while is_ident_byte(self.peek(0)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text, line);
    }

    fn operator(&mut self) {
        let line = self.line;
        const MERGED: [&str; 10] = ["..=", "::", "==", "!=", "->", "=>", "&&", "||", "..", "<="];
        const MERGED2: [&str; 1] = [">="];
        for op in MERGED.iter().chain(MERGED2.iter()) {
            if self.src[self.pos..].starts_with(op.as_bytes()) {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(TokenKind::Op, (*op).to_string(), line);
                return;
            }
        }
        let b = self.bump();
        self.push(TokenKind::Op, (b as char).to_string(), line);
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parse `svq-lint: allow(rule-a, rule-b)` out of a line comment.
fn record_suppression(comment: &str, line: u32, out: &mut BTreeMap<u32, BTreeSet<String>>) {
    const MARKER: &str = "svq-lint: allow(";
    let Some(at) = comment.find(MARKER) else {
        return;
    };
    let rest = &comment[at + MARKER.len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty());
    out.entry(line).or_default().extend(rules);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        scan(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn lexes_idents_numbers_and_merged_ops() {
        let toks = kinds("let x: f64 = 1.5e-3; x != 2.0 && y == 3");
        assert!(toks.contains(&(TokenKind::Float, "1.5e-3".into())));
        assert!(toks.contains(&(TokenKind::Op, "!=".into())));
        assert!(toks.contains(&(TokenKind::Op, "&&".into())));
        assert!(toks.contains(&(TokenKind::Op, "==".into())));
        assert!(toks.contains(&(TokenKind::Int, "3".into())));
    }

    #[test]
    fn distinguishes_char_from_lifetime() {
        let toks = kinds("fn f<'a>(c: char) { if c == 'x' {} }");
        assert!(toks.contains(&(TokenKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokenKind::Char, "x".into())));
    }

    #[test]
    fn ranges_are_not_floats() {
        let toks = kinds("for i in 0..10 {} for j in 0..=3 {}");
        assert!(toks.contains(&(TokenKind::Int, "0".into())));
        assert!(toks.contains(&(TokenKind::Op, "..".into())));
        assert!(toks.contains(&(TokenKind::Op, "..=".into())));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Float));
    }

    #[test]
    fn float_suffix_and_trailing_dot() {
        let toks = kinds("let a = 1f64; let b = 2.;");
        assert!(toks.contains(&(TokenKind::Float, "1f64".into())));
        assert!(toks.contains(&(TokenKind::Float, "2.".into())));
    }

    #[test]
    fn comments_and_strings_produce_no_false_tokens() {
        let src = r##"
            // panic! in a comment
            /* unwrap() /* nested */ still comment */
            let s = "panic!(\"no\")";
            let r = r#"unwrap()"#;
        "##;
        let toks = kinds(src);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && (t == "panic" || t == "unwrap")));
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = kinds("let r#match = 1;");
        assert!(
            toks.contains(&(TokenKind::Ident, "r".into()))
                || toks.contains(&(TokenKind::Ident, "match".into()))
        );
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::Str));
    }

    #[test]
    fn suppressions_cover_their_line_and_the_next() {
        let src = "let a = 1; // svq-lint: allow(panic)\nlet b = 2;\nlet c = 3;";
        let f = scan(src);
        assert!(f.suppressed("panic", 1));
        assert!(f.suppressed("panic", 2));
        assert!(!f.suppressed("panic", 3));
        assert!(!f.suppressed("float-eq", 1));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let f = scan("a\nb\n\nc");
        let lines: Vec<u32> = f.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
