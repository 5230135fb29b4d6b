//! Property tests for the hand-rolled lexer: arbitrary input never panics,
//! and the byte spans it reports are well-formed — in bounds, in order,
//! non-overlapping, and consistent with the reported line numbers.

use proptest::prelude::*;
use simlint::lexer::{lex, TokenKind};

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
        let lexed = lex(&src);
        prop_assert!(lexed.tokens.len() <= src.len() + 1);
        let model = simlint::Model::from_sources(&[("fuzz.rs".to_string(), src)], &[]);
        let _ = simlint::lint_model(&model);
    }

    /// Spans are strictly ordered and non-overlapping, stay inside the
    /// source, land on valid UTF-8 boundaries, and agree with both the
    /// token payload and the reported 1-based line number.
    #[test]
    fn spans_are_ordered_in_bounds_and_line_consistent(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lex(&src);
        let mut prev_end = 0u32;
        let mut prev_line = 1u32;
        for tok in &lexed.tokens {
            prop_assert!(tok.start < tok.end, "empty span {}..{}", tok.start, tok.end);
            prop_assert!(tok.start >= prev_end, "overlap: {} < {}", tok.start, prev_end);
            prop_assert!((tok.end as usize) <= src.len(), "span past EOF");
            prop_assert!(src.is_char_boundary(tok.start as usize));
            prop_assert!(src.is_char_boundary(tok.end as usize));
            let text = &src[tok.start as usize..tok.end as usize];
            match &tok.kind {
                TokenKind::Ident(name) => prop_assert_eq!(text, name.as_str()),
                TokenKind::Punct(c) => {
                    let s = c.to_string();
                    prop_assert_eq!(text, s.as_str());
                }
                TokenKind::Num | TokenKind::Lifetime => prop_assert!(!text.is_empty()),
            }
            let line = 1 + src[..tok.start as usize]
                .bytes()
                .filter(|&b| b == b'\n')
                .count() as u32;
            prop_assert_eq!(tok.line, line, "line mismatch for {:?}", tok);
            prop_assert!(tok.line >= prev_line, "lines must be non-decreasing");
            prev_end = tok.end;
            prev_line = tok.line;
        }
    }
}
