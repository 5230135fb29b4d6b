//! A lightweight item scan on top of the lexer: finds every `fn` item with
//! its enclosing `impl` (or `trait`) type, its visibility and its line.
//!
//! This is what `naive-twin` reads to answer "does `Type::name` exist, and
//! is it `pub`?". It is not a parser — generics, paths and bodies are walked
//! by token-balancing — and it skips every function body whole, so an `fn`
//! nested inside a body is not an item of its own.

use crate::lexer::{Token, TokenKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` type the function lives on (`None` for free functions).
    /// A trait's default body lives on the trait's own name.
    pub impl_type: Option<String>,
    /// `true` when the function has any `pub` visibility.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// Parses all `fn` items from a token stream (typically one file with
/// `#[cfg(test)]` regions already stripped).
pub fn parse_items(toks: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // Enclosing impl/trait blocks, innermost last: (brace depth at which
    // the block's body opened, its self type).
    let mut ctx: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            while ctx.last().is_some_and(|c| c.0 > depth) {
                ctx.pop();
            }
        } else if let Some((ty, open)) = impl_header(toks, i).or_else(|| trait_header(toks, i)) {
            // Register the block as of its opening brace; the `{` arm bumps
            // depth when the loop reaches `open`.
            ctx.push((depth + 1, ty));
            i = open;
            continue;
        } else if t.is_ident("fn") {
            if let Some((item, next)) = parse_fn(toks, i, ctx.last().map(|c| c.1.clone())) {
                fns.extend(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Parses a `trait` header at index `i` (`trait Name [<..>] [: bounds]
/// [where ..] {`); returns the trait's name and the index of the body's
/// opening brace.
fn trait_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    if !toks[i].is_ident("trait") {
        return None;
    }
    let name = toks.get(i + 1).and_then(Token::ident)?.to_string();
    let open = find_body_open(toks, skip_angles(toks, i + 2))?;
    Some((name, open))
}

/// Parses an `impl` header at index `i` (`impl [<..>] [Trait for] Type
/// [where ..] {`); returns the impl type and the index of the body's
/// opening brace. A trait impl for a non-path type (`()`, a tuple, a
/// slice, an array) is recorded under a synthetic type name.
fn impl_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    if !toks[i].is_ident("impl") {
        return None;
    }
    let mut j = skip_angles(toks, i + 1);
    let first = read_path_base(toks, &mut j)?;
    if !toks.get(j).is_some_and(|t| t.is_ident("for")) {
        return Some((first, find_body_open(toks, j)?));
    }
    j += 1;
    // Step over `&`, `mut`, and lifetime sugar on the self type.
    while toks
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    let ty = match toks.get(j) {
        // A non-path self type gets a synthetic name: `()` for the unit
        // type, `(..)` for tuples, `[..]` for slices and arrays.
        Some(t) if t.is_punct('(') => {
            let end = skip_balanced(toks, j, '(', ')');
            let name = if end == j + 2 { "()" } else { "(..)" };
            j = end;
            name.to_string()
        }
        Some(t) if t.is_punct('[') => {
            j = skip_balanced(toks, j, '[', ']');
            "[..]".to_string()
        }
        _ => read_path_base(toks, &mut j)?,
    };
    Some((ty, find_body_open(toks, j)?))
}

/// Reads a type path at `*j` (`a::b::Name<G>`), returning the final path
/// segment's base identifier and leaving `*j` one past the path (generics
/// included).
fn read_path_base(toks: &[Token], j: &mut usize) -> Option<String> {
    let mut name: Option<String> = None;
    while let Some(id) = toks.get(*j).and_then(Token::ident) {
        if id == "for" || id == "where" {
            break;
        }
        name = Some(id.to_string());
        *j += 1;
        *j = skip_angles(toks, *j);
        if toks.get(*j).is_some_and(|t| t.is_punct(':'))
            && toks.get(*j + 1).is_some_and(|t| t.is_punct(':'))
        {
            *j += 2;
            continue;
        }
        break;
    }
    name
}

/// Skips a balanced `<...>` group starting at `j`, if one is there.
fn skip_angles(toks: &[Token], j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut k = j;
    let mut angle = 0i32;
    while k < toks.len() {
        if toks[k].is_punct('<') {
            angle += 1;
        } else if toks[k].is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
            angle -= 1;
            if angle == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Finds the `{` opening an item body, scanning from `j` (over a where
/// clause etc.); `None` if a `;` ends the item first.
fn find_body_open(toks: &[Token], j: usize) -> Option<usize> {
    let k = j + toks
        .get(j..)?
        .iter()
        .position(|t| t.is_punct('{') || t.is_punct(';'))?;
    toks[k].is_punct('{').then_some(k)
}

/// Parses one `fn` item whose `fn` keyword is at index `i`; returns the item
/// and the index one past its body. A body-less declaration (a trait method
/// without a default, an `extern` fn) yields no item and the index one past
/// its `;`; `None` means nothing parses.
fn parse_fn(
    toks: &[Token],
    i: usize,
    impl_type: Option<String>,
) -> Option<(Option<FnItem>, usize)> {
    let name = toks.get(i + 1).and_then(Token::ident)?.to_string();
    // Find the parameter list, skipping generics on the name.
    let j = skip_angles(toks, i + 2);
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let j = skip_balanced(toks, j, '(', ')');
    // Return type / where clause, up to the body or a `;`.
    let Some(open) = find_body_open(toks, j) else {
        return Some((None, j + 1));
    };
    let item = FnItem {
        name,
        impl_type,
        is_pub: fn_is_pub(toks, i),
        line: toks[i].line,
    };
    Some((Some(item), skip_balanced(toks, open, '{', '}')))
}

/// `true` when the `fn` at `i` carries a `pub` (stepping back over `const`,
/// `unsafe`, `async`, `extern`, and visibility parens).
fn fn_is_pub(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let prev = &toks[j - 1];
        if prev
            .ident()
            .is_some_and(|id| matches!(id, "const" | "unsafe" | "async" | "extern"))
        {
            j -= 1;
            continue;
        }
        if prev.is_punct(')') {
            // Possibly `pub(crate)`: step back over the paren group.
            let mut p = 0i32;
            while j > 0 {
                if toks[j - 1].is_punct(')') {
                    p += 1;
                } else if toks[j - 1].is_punct('(') {
                    p -= 1;
                }
                j -= 1;
                if p == 0 {
                    break;
                }
            }
            continue;
        }
        return prev.is_ident("pub");
    }
    false
}

/// Skips a balanced `open ... close` group starting at index `j` (which must
/// hold `open`); returns the index one past the closing token.
fn skip_balanced(toks: &[Token], j: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct(open) {
            depth += 1;
        } else if toks[k].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<(String, Option<String>)> {
        parse_items(&lex(src))
            .into_iter()
            .map(|f| (f.name, f.impl_type))
            .collect()
    }

    fn item(name: &str, ty: Option<&str>) -> (String, Option<String>) {
        (name.to_string(), ty.map(str::to_string))
    }

    #[test]
    fn free_and_impl_fns_are_resolved() {
        let src = r"
pub fn free_one(x: u32) -> u32 { helper(x) }
fn helper(x: u32) -> u32 { x }
struct Foo { a: u32 }
impl Foo {
    pub fn method(&self) -> u32 { self.a }
}
impl Clone for Foo {
    fn clone(&self) -> Self { Foo { a: self.a } }
}
";
        assert_eq!(
            items(src),
            [
                item("free_one", None),
                item("helper", None),
                item("method", Some("Foo")),
                item("clone", Some("Foo")),
            ]
        );
        let fns = parse_items(&lex(src));
        assert!(fns[0].is_pub && !fns[1].is_pub && fns[2].is_pub && !fns[3].is_pub);
    }

    #[test]
    fn generic_and_pathed_impls_resolve_the_base_type() {
        let src = r"
impl<T: Ord> crate::store::SegLog<T> {
    fn push(&mut self, v: T) { seal(v) }
}
impl<'a> core::fmt::Display for Wrapper<'a> {
    fn fmt(&self, f: &mut Formatter<'_>) -> Result { write!(f, []) }
}
";
        assert_eq!(
            items(src),
            [item("push", Some("SegLog")), item("fmt", Some("Wrapper"))]
        );
    }

    #[test]
    fn trait_impls_for_non_path_self_types_get_synthetic_types() {
        let src = r"
impl<T> SegIndex<T> for () {
    fn build(_items: &[T]) -> Self {}
}
impl Tally for (u32, u64) {
    fn total(&self) -> u64 { 0 }
}
impl<T> Tally for [T] {
    fn total(&self) -> u64 { 0 }
}
impl Tally for [u8; 4] {
    fn total(&self) -> u64 { 0 }
}
";
        assert_eq!(
            items(src),
            [
                item("build", Some("()")),
                item("total", Some("(..)")),
                item("total", Some("[..]")),
                item("total", Some("[..]")),
            ]
        );
    }

    #[test]
    fn trait_decls_without_bodies_parse() {
        let src = "trait T { fn a(&self); fn b(&self) { fn inner() {} self.a() } }";
        assert_eq!(items(src), [item("b", Some("T"))]);
    }

    #[test]
    fn trait_default_bodies_carry_their_trait_and_declarations_are_skipped() {
        let src = r"
pub trait SegIndex<T>: Clone + Send where T: Copy {
    fn build(items: &[T]) -> Self;
    fn rebuild(items: &[T]) -> Self { Self::build(items) }
}
extern { fn ext(x: u32); }
fn after() {}
";
        assert_eq!(
            items(src),
            [item("rebuild", Some("SegIndex")), item("after", None)]
        );
    }
}
