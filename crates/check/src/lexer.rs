//! A minimal hand-rolled Rust lexer.
//!
//! Produces a flat token stream with 1-based line numbers, skipping the
//! three things that made the old line-regex rules lie: comments (line,
//! nested block, and doc), string literals (normal, byte, raw with any
//! `#` count), and char literals. What remains — identifiers, numbers,
//! lifetimes, and single-character punctuation — is exactly the surface
//! the KD rules reason about, so a `HashMap` in a comment or an
//! `unwrap()` inside `r#"..."#` can never produce a diagnostic again.
//!
//! Tokens borrow their text straight from the source (`&str` slices, no
//! per-token allocation), which keeps the full pipeline — lex, block
//! tree, per-function walks — within the same order of wall-time as the
//! regex pass it replaced.
//!
//! This is deliberately not a full Rust lexer: multi-character operators
//! come out as adjacent single-char [`TokenKind::Punct`] tokens (`::` is
//! `:`,`:`), which keeps the lexer tiny and lets rules match sequences
//! with simple sliding windows. Shebang lines and `#!`/`#` attributes
//! lex as ordinary punctuation + identifiers.

/// What a token is; rules mostly switch on this plus [`Token::text`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`, stored unprefixed).
    Ident,
    /// Integer or float literal, suffix included (`0xffu64`, `1.5e3`).
    Num,
    /// String literal of any flavor; [`Token::text`] holds the raw
    /// contents between the quotes (escape sequences left as written).
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`); text is empty.
    Char,
    /// Lifetime (`'a`, `'static`); text holds the name without the quote.
    Lifetime,
    /// One punctuation character (`?`, `;`, `{`, `.` ...).
    Punct,
}

/// One lexed token, borrowing its text from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    /// Classification.
    pub kind: TokenKind,
    /// Identifier/number/lifetime text, string contents, or the single
    /// punctuation character.
    pub text: &'a str,
    /// 1-based source line the token *starts* on.
    pub line: usize,
}

impl Token<'_> {
    /// True for an identifier token spelled exactly `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True for a punctuation token of character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == ch as u8
    }
}

/// Byte-level identifier classes. Any non-ASCII byte is treated as part
/// of an identifier: real Rust allows XID idents, and sweeping a whole
/// multi-byte character into an ident keeps every slice boundary on a
/// UTF-8 boundary (the catch-all punct arm therefore only ever sees
/// ASCII).
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0);
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn push(&mut self, kind: TokenKind, text: &'a str, line: usize) {
        self.out.push(Token { kind, text, line });
    }

    /// Consumes `//...` to end of line (the newline itself is left for the
    /// whitespace loop so line accounting stays in one place).
    fn line_comment(&mut self) {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
    }

    /// Consumes a (nested) `/* ... */` block comment.
    fn block_comment(&mut self) {
        let mut depth = 1usize;
        self.bump();
        self.bump();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Consumes a normal (escaped) string body after the opening quote;
    /// returns the contents slice, escapes left as written.
    fn string_body(&mut self) -> &'a str {
        let start = self.pos;
        let mut end = self.pos;
        while let Some(b) = self.bump() {
            match b {
                b'"' => break,
                b'\\' => {
                    self.bump();
                    end = self.pos;
                }
                _ => end = self.pos,
            }
        }
        &self.src[start..end]
    }

    /// Consumes a raw string after `r`/`br`: `#`*n `"` ... `"` `#`*n.
    fn raw_string_body(&mut self) -> &'a str {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let start = self.pos;
        let mut end = self.pos;
        'outer: while let Some(b) = self.bump() {
            if b == b'"' {
                // A close candidate: need `hashes` consecutive `#`s.
                for k in 0..hashes {
                    if self.peek(k) != Some(b'#') {
                        end = self.pos;
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                return &self.src[start..self.pos - 1 - hashes];
            }
            end = self.pos;
        }
        &self.src[start..end]
    }

    /// Consumes a char/byte literal after the opening `'`.
    fn char_body(&mut self) {
        match self.bump() {
            Some(b'\\') => {
                self.bump();
                // Escapes like \u{1F600} contain braces; eat to the quote.
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
            }
            Some(_) => {
                self.bump(); // closing quote
            }
            None => {}
        }
    }

    /// Consumes an identifier starting at the current position.
    fn ident(&mut self, line: usize) {
        let start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        self.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self, line: usize) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if is_ident_continue(b) {
                self.bump();
            } else if b == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Float like 1.5 — but not the range `1..4`.
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        self.push(TokenKind::Num, text, line);
    }

    fn run(mut self) -> Vec<Token<'a>> {
        while let Some(b) = self.peek(0) {
            let line = self.line;
            match b {
                b if b.is_ascii_whitespace() => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    self.bump();
                    let s = self.string_body();
                    self.push(TokenKind::Str, s, line);
                }
                b'\'' => {
                    self.bump();
                    let one = self.peek(0);
                    let two = self.peek(1);
                    let is_lifetime =
                        one.is_some_and(is_ident_start) && two != Some(b'\'') && one != Some(b'\\');
                    if is_lifetime {
                        self.ident(line);
                        if let Some(t) = self.out.last_mut() {
                            t.kind = TokenKind::Lifetime;
                        }
                    } else {
                        self.char_body();
                        self.push(TokenKind::Char, "", line);
                    }
                }
                b'r' if self.peek(1) == Some(b'"')
                    || (self.peek(1) == Some(b'#') && self.raw_prefix_is_string(2)) =>
                {
                    self.bump();
                    let s = self.raw_string_body();
                    self.push(TokenKind::Str, s, line);
                }
                b'r' if self.peek(1) == Some(b'#') => {
                    // Raw identifier r#ident.
                    self.bump();
                    self.bump();
                    self.ident(line);
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.bump();
                    self.bump();
                    let s = self.string_body();
                    self.push(TokenKind::Str, s, line);
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.bump();
                    self.bump();
                    self.char_body();
                    self.push(TokenKind::Char, "", line);
                }
                b'b' if self.peek(1) == Some(b'r')
                    && (self.peek(2) == Some(b'"')
                        || (self.peek(2) == Some(b'#') && self.raw_prefix_is_string(3))) =>
                {
                    self.bump();
                    self.bump();
                    let s = self.raw_string_body();
                    self.push(TokenKind::Str, s, line);
                }
                b if is_ident_start(b) => self.ident(line),
                b if b.is_ascii_digit() => self.number(line),
                _ => {
                    let start = self.pos;
                    self.bump();
                    let text = &self.src[start..self.pos];
                    self.push(TokenKind::Punct, text, line);
                }
            }
        }
        self.out
    }

    /// After an `r#`/`br#` prefix, distinguishes `r#"raw"#` (string) from
    /// `r#ident` (raw identifier): skip the `#` run starting at `from` and
    /// look for the quote.
    fn raw_prefix_is_string(&self, from: usize) -> bool {
        let mut k = from;
        while self.peek(k) == Some(b'#') {
            k += 1;
        }
        self.peek(k) == Some(b'"')
    }
}

/// Lexes `source` into tokens. Never fails: unterminated literals simply
/// consume to end of input (the compiler rejects such files anyway; the
/// linter just needs to not misattribute what follows).
pub fn lex(source: &str) -> Vec<Token<'_>> {
    // ~6 bytes per token is a good fit for this workspace's density.
    let cap = source.len() / 6 + 16;
    Lexer { src: source, pos: 0, line: 1, out: Vec::with_capacity(cap) }.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text.to_string())).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn comments_are_invisible() {
        assert!(idents("// HashMap here\n/* and HashMap there */").is_empty());
        assert_eq!(idents("let x; // HashMap"), ["let", "x"]);
        // Nested block comments.
        assert!(idents("/* a /* HashMap */ b */").is_empty());
        // Doc comments are line comments.
        assert!(idents("/// call .unwrap() freely\n//! or here").is_empty());
    }

    #[test]
    fn strings_are_single_tokens() {
        let t = kinds("\"std::thread\"");
        assert_eq!(t, [(TokenKind::Str, "std::thread".to_string())]);
        // Escaped quotes stay inside.
        let t = kinds(r#""a\"b""#);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].1, "a\\\"b");
        // Byte strings.
        let t = kinds("b\"unwrap()\"");
        assert_eq!(t, [(TokenKind::Str, "unwrap()".to_string())]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let t = kinds(r###"r#"contains "quotes" and unwrap()"#"###);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].0, TokenKind::Str);
        assert!(t[0].1.contains("unwrap()"));
        // Two-hash raw string containing a one-hash close candidate.
        let t = kinds("r##\"inner \"# still inside\"##");
        assert_eq!(t.len(), 1);
        assert!(t[0].1.contains("still inside"));
        // Raw byte string.
        let t = kinds("br#\"HashMap\"#");
        assert_eq!(t, [(TokenKind::Str, "HashMap".to_string())]);
    }

    #[test]
    fn raw_ident_is_ident() {
        assert_eq!(idents("r#fn"), ["fn"]);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let t = kinds("'a'");
        assert_eq!(t[0].0, TokenKind::Char);
        let t = kinds("&'a str");
        assert_eq!(t[0], (TokenKind::Punct, "&".to_string()));
        assert_eq!(t[1], (TokenKind::Lifetime, "a".to_string()));
        let t = kinds("'static");
        assert_eq!(t[0], (TokenKind::Lifetime, "static".to_string()));
        // Escaped char literal containing a quote.
        let t = kinds(r"'\''");
        assert_eq!(t[0].0, TokenKind::Char);
        // A char literal must not swallow following code.
        assert_eq!(idents("let c = 'x'; let y = 1;"), ["let", "c", "let", "y"]);
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        let t = kinds("0xff_u64 1.5e3 7u32");
        assert_eq!(t[0], (TokenKind::Num, "0xff_u64".to_string()));
        assert_eq!(t[1], (TokenKind::Num, "1.5e3".to_string()));
        assert_eq!(t[2], (TokenKind::Num, "7u32".to_string()));
        // Ranges do not glue into floats.
        let t = kinds("1..4");
        assert_eq!(t[0], (TokenKind::Num, "1".to_string()));
        assert_eq!(t[1], (TokenKind::Punct, ".".to_string()));
        assert_eq!(t[2], (TokenKind::Punct, ".".to_string()));
        assert_eq!(t[3], (TokenKind::Num, "4".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb\nr#\"raw\nstring\"#\nc";
        let toks = lex(src);
        let a = toks.iter().find(|t| t.is_ident("a")).unwrap();
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        let c = toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
        assert_eq!(c.line, 7);
    }

    #[test]
    fn multichar_operators_come_out_as_singles() {
        let t = kinds("a::b");
        assert_eq!(
            t,
            [
                (TokenKind::Ident, "a".to_string()),
                (TokenKind::Punct, ":".to_string()),
                (TokenKind::Punct, ":".to_string()),
                (TokenKind::Ident, "b".to_string()),
            ]
        );
    }

    #[test]
    fn non_ascii_text_stays_on_utf8_boundaries() {
        // Em-dashes and accents outside comments lex as ident bytes and
        // must never split a multi-byte character (which would panic on
        // slicing).
        let toks = lex("let género = 1; — \"δ\" 'é'");
        assert!(toks.iter().any(|t| t.is_ident("género")));
        let _ = lex("→→→");
    }
}
