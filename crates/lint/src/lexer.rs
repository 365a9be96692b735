//! A small hand-rolled Rust lexer.
//!
//! The rule engine needs exactly four things from a source file: the
//! identifier/punctuation stream with line numbers, string literals
//! kept distinct from code (so `"Instant::now"` in a message never
//! trips a rule), comments captured separately (pragmas live there),
//! and a guarantee that arbitrary bytes never cause a panic (pinned by
//! a proptest). It is *not* a full Rust lexer: it understands exactly
//! enough — nested block comments, raw strings, char-vs-lifetime
//! disambiguation — to make token-level rules trustworthy.

/// What a token is. Literal payloads keep their full source text so
/// rules can inspect e.g. `cfg(feature = "…")` predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// `'static`, `'a` — lifetimes and loop labels.
    Lifetime,
    /// Integer or float literal (suffix included).
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation byte (`.`, `:`, `#`, `{`, …).
    Punct,
}

/// One lexed token: kind, 1-based source line, and its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub text: String,
}

impl Token {
    /// True if this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True if this is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct
            && self.text.len() == 1
            && self.text.as_bytes()[0] as char == c
    }
}

/// One comment (line or block) with the line it starts on. Doc
/// comments are comments too — pragmas may live in either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// The result of lexing one file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn text(&self, from: usize) -> String {
        String::from_utf8_lossy(&self.src[from.min(self.src.len())..self.pos]).into_owned()
    }
}

/// Lexes `src` into tokens and comments. Never panics, whatever the
/// input — unterminated literals and comments simply end at EOF.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek(0) {
        let start = cur.pos;
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                out.comments.push(Comment {
                    line,
                    text: cur.text(start),
                });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    text: cur.text(start),
                });
            }
            b'"' => {
                lex_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                    text: cur.text(start),
                });
            }
            b'\'' => {
                let kind = lex_quote(&mut cur);
                out.tokens.push(Token {
                    kind,
                    line,
                    text: cur.text(start),
                });
            }
            b'0'..=b'9' => {
                lex_number(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                    text: cur.text(start),
                });
            }
            b if is_ident_start(b) => {
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                let ident = cur.text(start);
                // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`: the "identifier"
                // was a literal prefix.
                let prefix_ok = matches!(ident.as_str(), "r" | "b" | "br" | "rb");
                if prefix_ok && lex_raw_or_string_after_prefix(&mut cur, &ident) {
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        line,
                        text: cur.text(start),
                    });
                } else if ident == "b" && cur.peek(0) == Some(b'\'') {
                    let kind = lex_quote(&mut cur);
                    out.tokens.push(Token {
                        kind,
                        line,
                        text: cur.text(start),
                    });
                } else {
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        line,
                        text: ident,
                    });
                }
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    line,
                    text: cur.text(start),
                });
            }
        }
    }
    out
}

/// Consumes a regular `"…"` string starting at the opening quote.
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => {
                cur.bump();
            }
        }
    }
}

/// After an `r`/`b`/`br`/`rb` prefix, consumes a raw or plain string if
/// one follows. Returns false (consuming nothing) otherwise.
fn lex_raw_or_string_after_prefix(cur: &mut Cursor<'_>, prefix: &str) -> bool {
    let raw = prefix.contains('r');
    if raw {
        // r"…" or r#…#"…"#…#
        let mut hashes = 0usize;
        while cur.peek(hashes) == Some(b'#') {
            hashes += 1;
        }
        if cur.peek(hashes) != Some(b'"') {
            return false;
        }
        for _ in 0..=hashes {
            cur.bump();
        }
        // scan for `"` followed by `hashes` hashes
        'outer: while let Some(c) = cur.bump() {
            if c == b'"' {
                for i in 0..hashes {
                    if cur.peek(i) != Some(b'#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
        true
    } else if cur.peek(0) == Some(b'"') {
        lex_string(cur);
        true
    } else {
        false
    }
}

/// Consumes a `'…` construct: a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // opening quote
    match cur.peek(0) {
        Some(b'\\') => {
            // escaped char literal: consume escape then scan to close
            cur.bump();
            cur.bump();
            while let Some(c) = cur.peek(0) {
                cur.bump();
                if c == b'\'' {
                    break;
                }
            }
            TokenKind::Char
        }
        Some(c) if is_ident_start(c) && cur.peek(1) != Some(b'\'') => {
            // lifetime or label: 'a, 'static, 'outer
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            TokenKind::Lifetime
        }
        Some(_) => {
            // char literal: one (possibly multi-byte) char then close
            cur.bump();
            while cur.peek(0).is_some_and(|c| c >= 0x80) {
                cur.bump();
            }
            if cur.peek(0) == Some(b'\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        None => TokenKind::Char,
    }
}

/// Consumes a numeric literal (integers, floats, hex/oct/bin, suffixes)
/// without eating range operators (`0..10`) or method calls (`1.max(x)`).
fn lex_number(cur: &mut Cursor<'_>) {
    while cur
        .peek(0)
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
    {
        cur.bump();
    }
    // fractional part only if `.` is followed by a digit (so `0..10`
    // and `1.max()` stay three tokens)
    if cur.peek(0) == Some(b'.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        while cur
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_do_not_leak_identifiers() {
        let src = r#"let x = "Instant::now inside a string"; call();"#;
        assert_eq!(idents(src), vec!["let", "x", "call"]);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let src = r###"let s = r#"HashMap " quote"#; next();"###;
        assert_eq!(idents(src), vec!["let", "s", "next"]);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let src = "// thread_rng in a comment\nfn f() {} /* block\nSystemTime */";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("thread_rng"));
        assert_eq!(lexed.comments[1].line, 2);
        let names: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(names, vec!["fn", "f"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let q = '\''; let n = '\n'; done()";
        assert_eq!(idents(src), vec!["let", "q", "let", "n", "done"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { x = 1.5; y = 2.max(z); }";
        let lexed = lex(src);
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5", "2"]);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let s = b\"bytes\"; let c = b'x'; end()";
        assert_eq!(idents(src), vec!["let", "s", "let", "c", "end"]);
    }

    #[test]
    fn unterminated_constructs_hit_eof_quietly() {
        for src in ["\"never closed", "/* open", "r#\"raw", "'", "b'"] {
            let _ = lex(src);
        }
    }
}
