//! A lightweight item parser on top of the lexer: resolves `fn` items (with
//! their enclosing `impl` context) and the call sites inside each body.
//!
//! This is the symbol layer the graph rules build on. It is still not a real
//! parser — generics, paths, and bodies are walked by token-balancing — but
//! it is precise enough to answer the two questions the rules ask: "which
//! functions does this workspace define?" and "which of them does this body
//! call?". Nested `fn` items inside a body are attributed to the outer
//! function (their calls count as the outer function's calls), which is the
//! conservative direction for hot-path propagation.

use crate::lexer::Token;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` type the function lives on (`None` for free functions).
    pub impl_type: Option<String>,
    /// The trait being implemented, when the enclosing block is
    /// `impl Trait for Type`.
    pub impl_trait: Option<String>,
    /// Type parameters in scope: the enclosing impl's, then the function's
    /// own (`impl<T, I: Index<T>>` and `fn f<U>` give `T`, `I`, `U`).
    pub generics: Vec<String>,
    /// `true` when the function has any `pub` visibility.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body contents (exclusive of the braces),
    /// into the token stream `parse_items` was given.
    pub body: (usize, usize),
    /// Call sites found in the body.
    pub calls: Vec<Call>,
}

/// How a call site is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `receiver.name(...)` — resolves to any workspace method of that name.
    Method,
    /// `Qualifier::name(...)` — resolves within the qualifier type (or to a
    /// free function when the qualifier is a lowercase module segment, or
    /// to every trait impl of `name` when it is a type parameter).
    Qualified,
    /// `name(...)` — resolves to free functions.
    Plain,
    /// `name!(...)` — a macro invocation.
    Macro,
}

/// One call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// The called name (method, function, or macro name).
    pub name: String,
    /// The `Qualifier` in `Qualifier::name(...)`, when present.
    pub qualifier: Option<String>,
    /// The call's syntactic shape.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: u32,
}

/// Keywords that look like calls when followed by `(`.
fn is_stmt_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "in"
            | "move"
            | "fn"
            | "let"
            | "else"
            | "as"
            | "break"
            | "continue"
            | "where"
    )
}

/// Parses all `fn` items from a token stream (typically one file with
/// `#[cfg(test)]` regions already stripped).
pub fn parse_items(toks: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // Stack of enclosing impl contexts, innermost last.
    let mut ctx: Vec<ImplCtx> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while ctx.last().is_some_and(|c| c.depth > depth) {
                ctx.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, tr, open)) = parse_impl_header(toks, i) {
                // Register the context as of the body's opening brace; the
                // main loop's `{` arm bumps depth when it reaches `open`.
                ctx.push(ImplCtx {
                    depth: depth + 1,
                    ty,
                    tr,
                    generics: type_params(toks, i + 1),
                });
                i = open;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("trait") {
            if let Some((name, open)) = parse_trait_header(toks, i) {
                let mut generics = type_params(toks, i + 2);
                // In a default body `Self` is the implementing type, i.e. a
                // type parameter: `Self::f(..)` may run any impl of `f`.
                generics.push("Self".to_string());
                ctx.push(ImplCtx {
                    depth: depth + 1,
                    ty: name.clone(),
                    tr: Some(name),
                    generics,
                });
                i = open;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            if let Some((item, next)) = parse_fn(toks, i, ctx.last()) {
                fns.extend(item);
                i = next;
                continue;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// One enclosing `impl` or `trait` block. A trait's default bodies are
/// recorded with the trait as both impl type and trait, so method-syntax
/// and `T::method(..)` calls reach them and plain `method(..)` calls do not.
struct ImplCtx {
    /// Brace depth at which the block's body opened.
    depth: i32,
    /// The impl's self type (the trait's own name for a trait block).
    ty: String,
    /// The implemented (or declared) trait, if any.
    tr: Option<String>,
    /// The block's type parameters (plus `Self` for a trait block).
    generics: Vec<String>,
}

/// Parses a `trait` header at index `i` (`trait Name [<..>] [: bounds]
/// [where ..] {`); returns the trait's name and the index of the body's
/// opening brace.
fn parse_trait_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let name = toks.get(i + 1).and_then(Token::ident)?.to_string();
    let open = find_body_open(toks, skip_angles(toks, i + 2))?;
    Some((name, open))
}

/// Parses an `impl` header at index `i` (`impl [<..>] [Trait for] Type
/// [where ..] {`); returns the impl type, the trait (if any), and the index
/// of the body's opening brace. A trait impl for a non-path type (`()`, a
/// tuple, a slice, an array) is recorded under a synthetic type name.
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(String, Option<String>, usize)> {
    let mut j = i + 1;
    j = skip_angles(toks, j);
    let first = read_path_base(toks, &mut j)?;
    if toks.get(j).is_some_and(|t| t.is_ident("for")) {
        j += 1;
        // Step over `&`, `mut`, and lifetime sugar on the self type.
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            || matches!(
                toks.get(j).map(|t| &t.kind),
                Some(crate::lexer::TokenKind::Lifetime)
            )
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
        let open = find_body_open(toks, j)?;
        return Some((ty, Some(first), open));
    }
    let open = find_body_open(toks, j)?;
    Some((first, None, open))
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

/// The names of the type parameters declared by the `<...>` group at `j`
/// (empty when there is none): the first identifier of each top-level
/// parameter, skipping lifetimes (const parameters count).
fn type_params(toks: &[Token], j: usize) -> Vec<String> {
    let mut params = Vec::new();
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return params;
    }
    let end = skip_angles(toks, j).saturating_sub(1);
    let mut nest = 0i32;
    let mut expecting = true;
    for k in j + 1..end {
        let t = &toks[k];
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if (t.is_punct('>') && !toks[k - 1].is_punct('-'))
            || t.is_punct(')')
            || t.is_punct(']')
        {
            nest -= 1;
        } else if nest == 0 && t.is_punct(',') {
            expecting = true;
        } else if nest == 0 && expecting {
            match t.ident() {
                Some("const") => continue, // `const N: usize`: N is next
                Some(id) => params.push(id.to_string()),
                None => {}
            }
            expecting = false;
        }
    }
    params
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
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            return Some(k);
        }
        if toks[k].is_punct(';') {
            return None;
        }
        k += 1;
    }
    None
}

/// Parses one `fn` item whose `fn` keyword is at index `i`; returns the item
/// and the index one past its body. A body-less declaration (a trait method
/// without a default, an `extern` fn) yields no item and the index one past
/// its `;`; `None` means nothing parses.
fn parse_fn(toks: &[Token], i: usize, ctx: Option<&ImplCtx>) -> Option<(Option<FnItem>, usize)> {
    let name = toks.get(i + 1).and_then(Token::ident)?.to_string();
    let line = toks[i].line;
    let is_pub = fn_is_pub(toks, i);
    let impl_type = ctx.map(|c| c.ty.clone());
    let impl_trait = ctx.and_then(|c| c.tr.clone());
    let mut generics = ctx.map_or_else(Vec::new, |c| c.generics.clone());
    generics.extend(type_params(toks, i + 2));
    // Find the parameter list, skipping generics on the name.
    let mut j = skip_angles(toks, i + 2);
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    j = skip_balanced(toks, j, '(', ')');
    // Return type / where clause, up to the body or a `;`.
    let Some(open) = find_body_open(toks, j) else {
        return Some((None, j + 1));
    };
    let close = matching_brace(toks, open);
    let body = (open + 1, close);
    let calls = extract_calls(&toks[body.0..body.1]);
    Some((
        Some(FnItem {
            name,
            impl_type,
            impl_trait,
            generics,
            is_pub,
            line,
            body,
            calls,
        }),
        close + 1,
    ))
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

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    skip_balanced(toks, open, '{', '}').saturating_sub(1)
}

/// Extracts call sites from a body token slice.
pub fn extract_calls(body: &[Token]) -> Vec<Call> {
    let mut calls = Vec::new();
    for j in 0..body.len() {
        let Some(name) = body[j].ident() else {
            continue;
        };
        if is_stmt_keyword(name) {
            continue;
        }
        // `name!(...)` / `name![...]` / `name! {...}` — a macro.
        if body.get(j + 1).is_some_and(|t| t.is_punct('!'))
            && body
                .get(j + 2)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
        {
            calls.push(Call {
                name: name.to_string(),
                qualifier: None,
                kind: CallKind::Macro,
                line: body[j].line,
            });
            continue;
        }
        // `name(` or `name::<T>(` — a call; classify by what precedes it.
        let after = after_turbofish(body, j + 1);
        if !body.get(after).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if j > 0 && body[j - 1].is_punct('.') {
            calls.push(Call {
                name: name.to_string(),
                qualifier: None,
                kind: CallKind::Method,
                line: body[j].line,
            });
            continue;
        }
        if j >= 2 && body[j - 1].is_punct(':') && body[j - 2].is_punct(':') {
            let qualifier = (j >= 3)
                .then(|| body[j - 3].ident().map(str::to_string))
                .flatten();
            calls.push(Call {
                name: name.to_string(),
                qualifier,
                kind: CallKind::Qualified,
                line: body[j].line,
            });
            continue;
        }
        // Skip definitions (`fn name(`) — `fn` is filtered above, but the
        // name token itself follows it.
        if j > 0 && body[j - 1].is_ident("fn") {
            continue;
        }
        calls.push(Call {
            name: name.to_string(),
            qualifier: None,
            kind: CallKind::Plain,
            line: body[j].line,
        });
    }
    calls
}

/// If `j` sits on `::<...>` (a turbofish), returns the index one past it;
/// otherwise returns `j`.
fn after_turbofish(toks: &[Token], j: usize) -> usize {
    if toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        return skip_angles(toks, j + 2);
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src).tokens)
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
        let fns = items(src);
        let names: Vec<(&str, Option<&str>, Option<&str>)> = fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.impl_type.as_deref(),
                    f.impl_trait.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                ("free_one", None, None),
                ("helper", None, None),
                ("method", Some("Foo"), None),
                ("clone", Some("Foo"), Some("Clone")),
            ]
        );
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
        let fns = items(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("SegLog"));
        assert_eq!(fns[0].impl_trait, None);
        assert_eq!(fns[1].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(fns[1].impl_trait.as_deref(), Some("Display"));
    }

    #[test]
    fn trait_impls_for_non_path_self_types_keep_their_trait() {
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
        let fns = items(src);
        let got: Vec<(&str, Option<&str>, Option<&str>)> = fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.impl_type.as_deref(),
                    f.impl_trait.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                ("build", Some("()"), Some("SegIndex")),
                ("total", Some("(..)"), Some("Tally")),
                ("total", Some("[..]"), Some("Tally")),
                ("total", Some("[..]"), Some("Tally")),
            ]
        );
    }

    #[test]
    fn type_parameters_of_impl_and_fn_are_in_scope() {
        let src = r"
impl<'a, T: Ord + Into<u64>, I: Index<T> = (), const N: usize> Log<'a, T, I> {
    fn seal<U, F: Fn(&T) -> U>(&mut self, f: F) { I::build(&self.tail) }
}
fn free(x: u32) {}
";
        let fns = items(src);
        assert_eq!(fns[0].generics, ["T", "I", "N", "U", "F"]);
        assert!(fns[1].generics.is_empty());
        let call = &fns[0].calls[0];
        assert_eq!(
            (call.name.as_str(), call.kind),
            ("build", CallKind::Qualified)
        );
        assert_eq!(call.qualifier.as_deref(), Some("I"));
    }

    #[test]
    fn call_sites_are_classified() {
        let src = r"
fn body() {
    helper(1);
    self.log.push(2);
    Arc::make_mut(&mut x);
    let v = parts.collect::<Vec<_>>();
    vec![1, 2];
}
";
        let fns = items(src);
        let calls: Vec<(&str, CallKind, Option<&str>)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.qualifier.as_deref()))
            .collect();
        assert!(calls.contains(&("helper", CallKind::Plain, None)));
        assert!(calls.contains(&("push", CallKind::Method, None)));
        assert!(calls.contains(&("make_mut", CallKind::Qualified, Some("Arc"))));
        assert!(calls.contains(&("collect", CallKind::Method, None)));
        assert!(calls.contains(&("vec", CallKind::Macro, None)));
    }

    #[test]
    fn trait_decls_without_bodies_parse() {
        let src = "trait T { fn a(&self); fn b(&self) { self.a() } }";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "b");
        assert_eq!(fns[0].calls[0].name, "a");
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
        let fns = items(src);
        let got: Vec<_> = fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.impl_type.as_deref(),
                    f.impl_trait.as_deref(),
                    f.generics.clone(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (
                    "rebuild",
                    Some("SegIndex"),
                    Some("SegIndex"),
                    vec!["T".to_string(), "Self".to_string()]
                ),
                ("after", None, None, vec![]),
            ]
        );
    }
}
