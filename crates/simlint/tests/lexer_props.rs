//! Property tests for the hand-rolled lexer: arbitrary input never panics,
//! and the line numbers it reports are ordered, in bounds and consistent
//! with the token payloads.

use proptest::prelude::*;
use simlint::lexer::{lex, TokenKind};

/// Fragments of Rust-like source, joined at random by the line property:
/// byte soup almost never forms a comment, string or raw string that spans
/// lines, and these do.
const PIECES: [&str; 16] = [
    "fn", "x_1", " ", "\n", "/*", "*/", "//", "\"", "\\", "'", "'a", "r#\"", "\"#", "0.5", ".", "é",
];

proptest! {
    /// The lexer (and the full lint pipeline on top of it, over a one-file
    /// workspace) total-functions over arbitrary byte soup: truncated block
    /// comments, unterminated strings, stray quotes, non-UTF-8 bytes
    /// smoothed by `from_utf8_lossy` — nothing panics.
    #[test]
    fn lexing_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        prop_assert!(tokens.len() <= src.len() + 1);
        let model = simlint::Model::from_sources(&[("fuzz.rs".to_string(), src)], &[]);
        let _ = simlint::lint_model(&model);
    }

    /// Token lines are non-decreasing and within the source's line count,
    /// and every identifier and punctuation token occurs on the line it
    /// reports.
    #[test]
    fn token_lines_are_ordered_and_in_bounds(
        pieces in proptest::collection::vec(0..PIECES.len(), 0..200),
    ) {
        let src: String = pieces.into_iter().map(|p| PIECES[p]).collect();
        let lines: Vec<&str> = src.split('\n').collect();
        let mut prev_line = 1u32;
        for tok in lex(&src) {
            prop_assert!(tok.line >= prev_line, "lines must be non-decreasing");
            prop_assert!(tok.line as usize <= lines.len(), "line past EOF: {:?}", tok);
            let text = match &tok.kind {
                TokenKind::Ident(name) => name.clone(),
                TokenKind::Punct(c) => c.to_string(),
                TokenKind::Num | TokenKind::Lifetime => String::new(),
            };
            prop_assert!(
                lines[tok.line as usize - 1].contains(&text),
                "{:?} is not on its line", tok
            );
            prev_line = tok.line;
        }
    }
}
