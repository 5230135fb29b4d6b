//! Per-file determinism rules, implemented as token-pattern scans.
//!
//! | rule id            | hazard                                             |
//! |--------------------|----------------------------------------------------|
//! | `nondet-source`    | wall clock, OS entropy, env vars, raw threads      |
//! | `unordered-iter`   | iterating a `HashMap`/`HashSet`                    |
//! | `float-order`      | float reduction over an unordered iteration        |
//!
//! Every diagnostic can be suppressed with a `// simlint: allow(<rule>)`
//! comment on the same line or the line above — the escape hatch for code
//! that is demonstrably harness-side (CLI arg parsing, debug output) rather
//! than simulation state.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::Diagnostic;

/// Rule id: nondeterminism sources (wall clock, entropy, env, raw threads).
pub const NONDET_SOURCE: &str = "nondet-source";
/// Rule id: unordered `HashMap`/`HashSet` iteration.
pub const UNORDERED_ITER: &str = "unordered-iter";
/// Rule id: float reduction over an unordered iteration.
pub const FLOAT_ORDER: &str = "float-order";

/// Methods whose iteration order is the hash order of the collection.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Runs the per-file rules over a lexed file whose `#[cfg(test)]` modules
/// have already been masked out.
pub fn lint_tokens(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    let map_vars = collect_map_vars(toks);
    nondet_sources(path, lexed, out);
    unordered_iteration(path, lexed, &map_vars, out);
    float_order(path, lexed, &map_vars, out);
}

/// Names bound (via `let`, struct field, or fn param annotation) to a
/// `HashMap`/`HashSet` type anywhere in the file.
///
/// This is deliberately file-scoped and flow-insensitive: a false positive
/// (another local reusing the name with a `Vec` type) is rare in practice
/// and has the `allow` escape hatch; a false negative would silently admit
/// a reproducibility hazard.
pub fn collect_map_vars(toks: &[Token]) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : ... HashMap/HashSet ...` — a type annotation (let binding,
        // struct field, or fn parameter).
        if let Some(name) = toks[i].ident().filter(|n| !is_keyword(n)) {
            let annotated = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && !(i > 0 && toks[i - 1].is_punct(':'));
            if annotated && annotation_mentions_map(&toks[i + 2..]) {
                vars.insert(name.to_string());
            }
        }
        // `let [mut] name = [path ::] HashMap :: new(...)` (also
        // `with_capacity`, `default`, `from`).
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).and_then(Token::ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            // Scan the initializer up to the terminating `;` for a
            // constructor call on HashMap/HashSet.
            let mut k = j + 2;
            while k < toks.len() && !toks[k].is_punct(';') {
                if is_map_type(&toks[k])
                    && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(k + 3).is_some_and(|t| {
                        ["new", "with_capacity", "default", "from"]
                            .iter()
                            .any(|m| t.is_ident(m))
                    })
                {
                    vars.insert(name.to_string());
                    break;
                }
                // Stop at a nested statement boundary.
                if toks[k].is_punct('{') {
                    break;
                }
                k += 1;
            }
        }
    }
    vars
}

/// `true` when the type tokens starting right after a `:` mention
/// `HashMap`/`HashSet` before the annotation ends.
fn annotation_mentions_map(toks: &[Token]) -> bool {
    let mut angle = 0i32;
    let mut paren = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => {
                // `->` introduces a return type, not a closing angle.
                if i > 0 && toks[i - 1].is_punct('-') {
                    continue;
                }
                angle -= 1;
                if angle < 0 {
                    return false;
                }
            }
            TokenKind::Punct('(' | '[') => paren += 1,
            TokenKind::Punct(')' | ']') => {
                paren -= 1;
                if paren < 0 {
                    return false;
                }
            }
            TokenKind::Punct(',' | ';' | '=' | '{' | '}') if angle == 0 && paren == 0 => {
                return false;
            }
            TokenKind::Ident(_) if is_map_type(t) => return true,
            _ => {}
        }
        if i > 48 {
            // Annotations this long do not occur; bail before scanning the
            // rest of the file.
            return false;
        }
    }
    false
}

fn is_map_type(t: &Token) -> bool {
    t.is_ident("HashMap") || t.is_ident("HashSet")
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "mut"
            | "pub"
            | "fn"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "return"
            | "in"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "use"
            | "where"
            | "ref"
            | "move"
            | "const"
            | "static"
            | "type"
            | "crate"
            | "self"
            | "Self"
            | "super"
    )
}

/// Rule `nondet-source`: wall clock, OS entropy, environment reads, raw
/// thread spawns.
fn nondet_sources(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    let mut push = |line: u32, what: &str| {
        out.push(Diagnostic::new(
            NONDET_SOURCE,
            path,
            line,
            format!("{what} is nondeterministic across runs; simulation code must derive all state from the seed and simulated time"),
        ));
    };
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokenKind::Ident(id) if id == "Instant" || id == "SystemTime" => {
                push(t.line, &format!("the wall clock (`std::time::{id}`)"));
            }
            TokenKind::Ident(id) if id == "thread_rng" || id == "from_entropy" => {
                push(t.line, &format!("OS entropy (`{id}`)"));
            }
            TokenKind::Ident(id)
                if id == "std"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("env")) =>
            {
                push(t.line, "the process environment (`std::env`)");
            }
            TokenKind::Ident(id)
                if id == "thread"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("spawn")) =>
            {
                push(
                    t.line,
                    "a raw thread spawn (`thread::spawn`; use `lab::sweep::map_cells`, which preserves cell order)",
                );
            }
            _ => {}
        }
    }
    dedupe(out);
}

/// Rule `unordered-iter`: iterating a `HashMap`/`HashSet`, whose order
/// varies across runs (and across `RandomState` seeds).
fn unordered_iteration(
    path: &str,
    lexed: &Lexed,
    map_vars: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    let mut push = |line: u32, name: &str, how: &str| {
        out.push(Diagnostic::new(
            UNORDERED_ITER,
            path,
            line,
            format!("{how} `{name}`, which is a HashMap/HashSet: iteration order is unspecified; use a BTreeMap/BTreeSet or sort before iterating"),
        ));
    };
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if !map_vars.contains(name) {
            continue;
        }
        // `name.iter()` / `name.values()` / ...
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = toks.get(i + 2).and_then(Token::ident) {
                if ITER_METHODS.contains(&m) {
                    push(toks[i + 2].line, name, &format!("calling `.{m}()` on"));
                }
            }
        }
        // `for x in [&[mut]] [self.]name { ... }` — the loop iterates the
        // collection directly.
        if i >= 1 {
            let mut j = i;
            // Step over `self .` / `& mut` prefixes back to the `in`.
            while j > 0
                && (toks[j - 1].is_punct('.')
                    || toks[j - 1].is_punct('&')
                    || toks[j - 1].is_ident("mut")
                    || toks[j - 1].is_ident("self"))
            {
                j -= 1;
            }
            let direct_loop = j > 0
                && toks[j - 1].is_ident("in")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('{'));
            if direct_loop {
                push(toks[i].line, name, "iterating");
            }
        }
    }
    dedupe(out);
}

/// Rule `float-order`: a float reduction (`.sum::<f64>()`, `.product::<..>`)
/// in a statement that draws from an unordered collection — float addition
/// is not associative, so hash order changes the low bits of the result.
fn float_order(path: &str, lexed: &Lexed, map_vars: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let is_reduce = toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("sum") || t.is_ident("product"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('<'))
            && toks
                .get(i + 5)
                .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
        if !is_reduce {
            continue;
        }
        let line = toks[i + 1].line;
        // Look back to the start of the statement for an unordered source
        // feeding this chain.
        let start = toks[..i]
            .iter()
            .rposition(|t| t.is_punct(';') || t.is_punct('{'))
            .map_or(0, |p| p + 1);
        let feeds_from_map = (start..i).any(|k| {
            toks[k].ident().is_some_and(|name| map_vars.contains(name))
                && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(k + 2)
                    .and_then(Token::ident)
                    .is_some_and(|m| ITER_METHODS.contains(&m))
        });
        if feeds_from_map {
            out.push(Diagnostic::new(
                FLOAT_ORDER,
                path,
                line,
                "float reduction over a HashMap/HashSet iteration: float addition is order-sensitive, so the result depends on hash order; reduce over a sorted sequence instead".to_string(),
            ));
        }
    }
    dedupe(out);
}

/// Drops duplicate (rule, file, line) diagnostics, keeping the first.
fn dedupe(out: &mut Vec<Diagnostic>) {
    let mut seen = BTreeSet::new();
    out.retain(|d| seen.insert((d.rule, d.file.clone(), d.line)));
}

/// Splits a token stream into (non-test tokens, `#[cfg(test)]` tokens).
///
/// The rules lint only the first half: test modules assert over simulation
/// output and routinely use hash collections for membership checks —
/// harmless, because nothing simulated depends on their iteration order.
/// The test half feeds the `naive-twin` rule's reference scan: an indexed
/// query's ground-truth twin counts as exercised when its name appears in
/// any test code, including in-file `#[cfg(test)]` modules.
pub fn split_cfg_test(toks: Vec<Token>) -> (Vec<Token>, Vec<Token>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut test = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(&toks, i) {
            // Skip this attribute, any further attributes, the `mod name`,
            // and the brace-balanced body.
            let mut j = i;
            loop {
                j = skip_attr(&toks, j);
                if !toks.get(j).is_some_and(|t| t.is_punct('#')) {
                    break;
                }
            }
            if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
                // Find the opening brace, then its match.
                while j < toks.len() && !toks[j].is_punct('{') {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        depth += 1;
                    } else if toks[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                test.extend_from_slice(&toks[i..j]);
                i = j;
                continue;
            }
            // `#[cfg(test)]` on something other than a module (a lone fn,
            // an import): skip just the attribute and the next item-ish
            // token run up to `;` or a brace-balanced block.
            let mut k = skip_attr(&toks, i);
            let mut depth = 0i32;
            while k < toks.len() {
                if toks[k].is_punct('{') {
                    depth += 1;
                } else if toks[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                } else if toks[k].is_punct(';') && depth == 0 {
                    k += 1;
                    break;
                }
                k += 1;
            }
            test.extend_from_slice(&toks[i..k]);
            i = k;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    (out, test)
}

/// `true` when `toks[i..]` starts with exactly `#[cfg(test)]`.
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

/// Returns the index one past an attribute starting at `i` (`#` `[` ... `]`
/// with bracket balancing); returns `i` unchanged if not at an attribute.
pub fn skip_attr(toks: &[Token], i: usize) -> usize {
    if !toks.get(i).is_some_and(|t| t.is_punct('#')) {
        return i;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
        return i;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}
