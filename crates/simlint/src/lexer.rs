//! A minimal Rust lexer: just enough structure for the item parser and the
//! rules on top of it.
//!
//! The lexer strips comments and string/char literals (their contents can
//! never be a hazard, and leaving them in would produce false positives on
//! doc prose like "calls `Vec::new`"), keeps identifiers and
//! punctuation with their line numbers, and collects `simlint: allow(...)`
//! directives out of the stripped comments. It is deliberately not a parser:
//! every rule downstream works on token patterns, which keeps the whole
//! crate dependency-free and fast enough to run on the full workspace in a
//! few milliseconds.

use std::collections::BTreeMap;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first byte in the source.
    pub start: u32,
    /// Byte offset one past the token's last byte.
    pub end: u32,
    /// The token's kind and payload.
    pub kind: TokenKind,
}

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`for`, `HashMap`, `sum`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `:`, `<`, `{`, ...).
    Punct(char),
    /// A numeric literal (value irrelevant to every rule).
    Num,
    /// A lifetime (`'a`); kept distinct so it is never confused with
    /// punctuation.
    Lifetime,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// `true` when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }

    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A lexed file: the token stream plus the allow directives found in its
/// comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and literals stripped.
    pub tokens: Vec<Token>,
    /// Lines carrying a `simlint: allow(rule, ...)` comment, mapped to the
    /// rule ids they allow. A directive suppresses matching diagnostics on
    /// its own line and on the following line (so it can trail the flagged
    /// expression or sit on its own line above it).
    pub allows: BTreeMap<u32, Vec<String>>,
}

impl Lexed {
    /// `true` when a diagnostic of `rule` at `line` is suppressed by an
    /// allow directive on the same line or the line above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }
}

/// Lexes `src`, stripping comments and literals.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($s:expr) => {
            line += $s.bytes().filter(|&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        // Decode the real char: a raw `bytes[i] as char` cast would read a
        // multibyte lead byte as its Latin-1 look-alike and mis-dispatch
        // (e.g. U+2028's lead byte casts to the alphabetic 'â').
        let Some(c) = src[i..].chars().next() else {
            break;
        };
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += c.len_utf8(),
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |o| i + o);
                scan_allow_directive(&src[i..end], line, &mut out.allows);
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, nesting respected.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                scan_allow_directive(&src[start..i], line, &mut out.allows);
                bump_lines!(&src[start..i]);
            }
            '"' => {
                let end = skip_string(bytes, i);
                bump_lines!(&src[i..end]);
                i = end;
            }
            'r' | 'b' if starts_raw_string(bytes, i) => {
                let end = skip_raw_string(bytes, i);
                bump_lines!(&src[i..end]);
                i = end;
            }
            'b' if bytes.get(i + 1) == Some(&b'"') => {
                let end = skip_string(bytes, i + 1);
                bump_lines!(&src[i..end]);
                i = end;
            }
            '\'' => {
                // Char literal or lifetime. `'\x'`-style escapes and `'a'`
                // are literals; `'a` followed by anything but `'` is a
                // lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: skip to the closing quote.
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    let end = (j + 1).min(bytes.len());
                    bump_lines!(&src[i..end]);
                    i = end;
                } else {
                    // Find the extent of the would-be char/lifetime.
                    let rest = &src[i + 1..];
                    let ident_len = rest
                        .char_indices()
                        .take_while(|(_, ch)| ch.is_alphanumeric() || *ch == '_')
                        .last()
                        .map_or(0, |(o, ch)| o + ch.len_utf8());
                    if ident_len > 0 && rest[ident_len..].starts_with('\'') {
                        // 'a' — a char literal.
                        i += 1 + ident_len + 1;
                    } else if ident_len > 0 {
                        out.tokens.push(Token {
                            line,
                            start: i as u32,
                            end: (i + 1 + ident_len) as u32,
                            kind: TokenKind::Lifetime,
                        });
                        i += 1 + ident_len;
                    } else {
                        // A bare quote (e.g. `'('`): treat as a char literal.
                        let mut j = i + 1;
                        let mut seen = false;
                        while j < bytes.len() && (!seen || bytes[j] != b'\'') {
                            seen = true;
                            j += 1;
                        }
                        let end = (j + 1).min(bytes.len());
                        bump_lines!(&src[i..end]);
                        i = end;
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &src[i..];
                let len = rest
                    .char_indices()
                    .take_while(|(_, ch)| ch.is_alphanumeric() || *ch == '_')
                    .last()
                    .map_or(1, |(o, ch)| o + ch.len_utf8());
                out.tokens.push(Token {
                    line,
                    start: i as u32,
                    end: (i + len) as u32,
                    kind: TokenKind::Ident(rest[..len].to_string()),
                });
                i += len;
            }
            c if c.is_ascii_digit() => {
                // Numeric literal incl. type suffix, underscores, hex. A `.`
                // is part of the literal only when followed by a digit, so
                // `1..10` and `1.method()` are not swallowed.
                let mut end = i + 1;
                while end < bytes.len() {
                    let b = bytes[end] as char;
                    let continues = b.is_ascii_alphanumeric()
                        || b == '_'
                        || (b == '.' && bytes.get(end + 1).is_some_and(u8::is_ascii_digit));
                    if !continues {
                        break;
                    }
                    end += 1;
                }
                out.tokens.push(Token {
                    line,
                    start: i as u32,
                    end: end as u32,
                    kind: TokenKind::Num,
                });
                i = end;
            }
            c => {
                out.tokens.push(Token {
                    line,
                    start: i as u32,
                    end: (i + c.len_utf8()) as u32,
                    kind: TokenKind::Punct(c),
                });
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Records the rules named by a `simlint: allow(a, b)` directive in
/// `comment` (which may span lines; the directive applies at its own line).
fn scan_allow_directive(comment: &str, first_line: u32, allows: &mut BTreeMap<u32, Vec<String>>) {
    for (off, text) in comment.lines().enumerate() {
        let Some(pos) = text.find("simlint:") else {
            continue;
        };
        let rest = text[pos + "simlint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args.strip_prefix('(').and_then(|a| a.split(')').next()) else {
            continue;
        };
        let line = first_line + off as u32;
        let entry = allows.entry(line).or_default();
        for rule in inner.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                entry.push(rule.to_string());
            }
        }
    }
}

/// `true` when `bytes[i..]` starts a raw (byte) string: `r"`, `r#`, `br"`,
/// `br#`.
fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    matches!(bytes.get(j + 1), Some(&b'"') | Some(&b'#'))
}

/// Skips a `"..."` string starting at the opening quote index; returns the
/// index one past the closing quote.
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string `r##"..."##` starting at `r`/`b`; returns the index
/// one past the closing delimiter.
fn skip_raw_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // past 'r'
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0usize;
            while h < hashes && bytes.get(j) == Some(&b'#') {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r#"
// Instant in a comment
/* HashMap in /* a nested */ block */
let x = "std::time::Instant";
let y = foo; // trailing
"#;
        assert_eq!(idents(src), ["let", "x", "let", "y", "foo"]);
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let s = r#\"thread_rng\"#; let c = 'x'; fn f<'a>(v: &'a str) {}";
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "impl<'a> Foo<'a> { fn g(&'a self) -> &'a T { x } }";
        let ids = idents(src);
        assert!(ids.contains(&"self".to_string()));
        assert!(ids.contains(&"x".to_string()));
    }

    #[test]
    fn allow_directives_are_collected() {
        let src = "\nlet a = 1; // simlint: allow(hot-path-alloc)\n// simlint: allow(naive-twin, unused-allow)\nlet b = 2;\n";
        let lexed = lex(src);
        assert!(lexed.is_allowed("hot-path-alloc", 2));
        assert!(lexed.is_allowed("naive-twin", 4)); // line above
        assert!(lexed.is_allowed("unused-allow", 3));
        assert!(!lexed.is_allowed("hot-path-alloc", 4));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nlet t = 1;";
        let lexed = lex(src);
        let t = lexed
            .tokens
            .iter()
            .find(|tok| tok.is_ident("t"))
            .expect("t");
        assert_eq!(t.line, 4);
    }
}
