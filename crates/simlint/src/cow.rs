//! Rule `cow-discipline`: shared copy-on-write spines may only be mutated
//! through `Arc::make_mut`.
//!
//! The fork machinery (PR 2/5) relies on every segmented store sharing its
//! sealed segments between a simulation and its forks via
//! `Arc<Vec<Arc<Seg>>>` spines. The single invariant that keeps forks
//! byte-identical to cold runs is that *every* in-place mutation of such a
//! spine goes through `Arc::make_mut`, which copies the spine exactly when
//! it is shared. A direct `.push(...)`, an index-assign, or an
//! `Arc::get_mut(...)` sidesteps the copy: `get_mut` silently returns `None`
//! for shared spines, and a direct mutation would not compile today but one
//! `Arc` wrapper dropped during a refactor makes it compile tomorrow — with
//! forks silently observing each other's writes. This rule makes every such
//! site a CI failure.
//!
//! Registered spine types are the explicit [`COW_TYPES`] list plus any
//! snapshot-complete TARGET whose struct carries an `Arc`-typed field.
//! Spine fields are the `Arc`-typed fields of a registered struct. Within
//! every `impl` block of a registered type, a statement that touches
//! `self.<spine>` may not contain a mutating method call on that spine's
//! chain, an index-assign, a raw `&mut self.<spine>` borrow, or
//! `Arc::get_mut` — unless the statement flows through `Arc::make_mut`.
//! Whole-field replacement (`self.spine = Arc::new(...)`) is COW-safe and
//! stays legal.

use std::collections::BTreeMap;

use crate::lexer::Token;
use crate::parse::FnItem;
use crate::snapshot;
use crate::{Diagnostic, SrcFile};

/// Rule id.
pub const COW_DISCIPLINE: &str = "cow-discipline";

/// An explicitly registered COW spine type and the file expected to define
/// it (the anchor for config-drift diagnostics).
#[derive(Debug, Clone, Copy)]
pub struct CowType {
    /// The struct's name.
    pub name: &'static str,
    /// Workspace-relative path of the defining file.
    pub file: &'static str,
}

/// The workspace's registered COW spine types. Every segmented store is
/// built on `simnet::SegLog`, so it owns the only `Arc<Vec<Arc<_>>>`
/// spine; the stores wrapping it have no `Arc` field of their own.
pub const COW_TYPES: [CowType; 1] = [CowType {
    name: "SegLog",
    file: "crates/simnet/src/seglog.rs",
}];

/// Methods that mutate a collection in place.
const MUT_METHODS: [&str; 24] = [
    "append",
    "clear",
    "dedup",
    "drain",
    "extend",
    "extend_from_slice",
    "fill",
    "insert",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "remove",
    "resize",
    "retain",
    "rotate_left",
    "rotate_right",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
];

/// Builds the spine map over a set of files: registered type name → names of
/// its `Arc`-typed fields. Explicit [`COW_TYPES`] are always registered
/// (even with no `Arc` field — [`check_registry`] flags that); snapshot
/// TARGETS are registered exactly when their struct carries an `Arc` field.
pub fn spine_map(files: &[SrcFile]) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let explicit: Vec<&str> = COW_TYPES.iter().map(|t| t.name).collect();
    let targets: Vec<&str> = snapshot::TARGETS.iter().map(|t| t.struct_name).collect();
    for file in files {
        for name in explicit.iter().chain(&targets) {
            if map.contains_key(*name) {
                continue;
            }
            let Some(fields) = snapshot::struct_fields_ex(&file.lexed.tokens, name) else {
                continue;
            };
            let spines: Vec<String> = fields
                .iter()
                .filter(|f| f.arc)
                .map(|f| f.name.clone())
                .collect();
            if explicit.contains(name) || !spines.is_empty() {
                map.insert((*name).to_string(), spines);
            }
        }
    }
    map
}

/// Workspace-level config-drift checks: every explicitly registered type
/// must exist somewhere in the model and keep at least one `Arc` spine
/// field.
pub fn check_registry(files: &[SrcFile], out: &mut Vec<Diagnostic>) {
    for ty in &COW_TYPES {
        let mut struct_line = None;
        for file in files {
            if let Some(fields) = snapshot::struct_fields_ex(&file.lexed.tokens, ty.name) {
                struct_line = Some((
                    file.path.clone(),
                    fields.first().map_or(1, |f| f.line),
                    fields.iter().any(|f| f.arc),
                ));
                break;
            }
        }
        match struct_line {
            None => out.push(Diagnostic::new(
                COW_DISCIPLINE,
                ty.file,
                1,
                format!(
                    "registered COW spine type `{}` not found in the workspace; update simlint's COW_TYPES if it moved or was renamed",
                    ty.name
                ),
            )),
            Some((path, line, true)) => {
                let _ = (path, line); // present with an Arc spine — fine
            }
            Some((path, line, false)) => out.push(Diagnostic::new(
                COW_DISCIPLINE,
                &path,
                line,
                format!(
                    "registered COW spine type `{}` has no Arc-typed field; the spine lost its copy-on-write sharing (or COW_TYPES needs updating)",
                    ty.name
                ),
            )),
        }
    }
}

/// Scans one file's `impl` blocks of registered types for spine mutations
/// that do not flow through `Arc::make_mut`.
pub fn check_file(
    file: &SrcFile,
    spines: &BTreeMap<String, Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    for f in &file.fns {
        let Some(ty) = f.impl_type.as_deref() else {
            continue;
        };
        let Some(fields) = spines.get(ty) else {
            continue;
        };
        if fields.is_empty() {
            continue;
        }
        check_body(&file.path, ty, f, &file.lexed.tokens, fields, out);
    }
}

/// Scans one fn body, statement by statement.
fn check_body(
    path: &str,
    ty: &str,
    f: &FnItem,
    toks: &[Token],
    spines: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let body = &toks[f.body.0..f.body.1];
    let mut start = 0usize;
    for i in 0..=body.len() {
        let boundary = i == body.len()
            || body[i].is_punct(';')
            || body[i].is_punct('{')
            || body[i].is_punct('}');
        if !boundary {
            continue;
        }
        check_statement(path, ty, &body[start..i], spines, out);
        start = i + 1;
    }
}

/// Checks one statement-ish token run for undisciplined spine mutations.
fn check_statement(
    path: &str,
    ty: &str,
    stmt: &[Token],
    spines: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let has_make_mut = stmt.iter().any(|t| t.is_ident("make_mut"));
    let has_get_mut = stmt.iter().any(|t| t.is_ident("get_mut"));
    // Find `self . <spine>` references.
    for p in 0..stmt.len() {
        if !stmt[p].is_ident("self") || !stmt.get(p + 1).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let Some(field) = stmt.get(p + 2).and_then(Token::ident) else {
            continue;
        };
        if !spines.iter().any(|s| s == field) {
            continue;
        }
        let line = stmt[p + 2].line;
        if has_get_mut {
            out.push(Diagnostic::new(
                COW_DISCIPLINE,
                path,
                line,
                format!(
                    "`Arc::get_mut` on COW spine `{ty}.{field}` silently returns None whenever the spine is shared with a fork; use `Arc::make_mut`, which copies exactly when shared"
                ),
            ));
            continue;
        }
        if has_make_mut {
            continue; // disciplined mutation
        }
        // `&mut self.<spine>` outside make_mut: a raw mutable borrow.
        if p >= 2 && stmt[p - 1].is_ident("mut") && stmt[p - 2].is_punct('&') {
            out.push(Diagnostic::new(
                COW_DISCIPLINE,
                path,
                line,
                format!(
                    "raw `&mut` borrow of COW spine `{ty}.{field}` outside `Arc::make_mut`; mutations of a shared spine must copy-on-write through `Arc::make_mut`"
                ),
            ));
            continue;
        }
        // Walk the method/index chain hanging off the field reference.
        if let Some(kind) = chain_mutation(stmt, p + 3) {
            let how = match kind {
                ChainMutation::Method(m) => format!("`.{m}()` mutates it in place"),
                ChainMutation::IndexAssign => "an index-assign writes into it".to_string(),
            };
            out.push(Diagnostic::new(
                COW_DISCIPLINE,
                path,
                line,
                format!(
                    "`{ty}.{field}` is a shared COW spine and {how} without `Arc::make_mut`; sealed segments are shared with forks, so route the mutation through `Arc::make_mut`"
                ),
            ));
        }
    }
}

enum ChainMutation {
    Method(String),
    IndexAssign,
}

/// Follows a `.method(...)` / `[index]` chain starting right after a spine
/// field reference; reports the first mutating link, if any.
fn chain_mutation(stmt: &[Token], mut k: usize) -> Option<ChainMutation> {
    loop {
        match stmt.get(k) {
            Some(t) if t.is_punct('.') => {
                let m = stmt.get(k + 1).and_then(Token::ident)?;
                let mut after = k + 2;
                // `::<T>` turbofish between name and call parens.
                if stmt.get(after).is_some_and(|t| t.is_punct(':'))
                    && stmt.get(after + 1).is_some_and(|t| t.is_punct(':'))
                    && stmt.get(after + 2).is_some_and(|t| t.is_punct('<'))
                {
                    after = skip_group(stmt, after + 2, '<', '>');
                }
                if stmt.get(after).is_some_and(|t| t.is_punct('(')) {
                    if MUT_METHODS.contains(&m) {
                        return Some(ChainMutation::Method(m.to_string()));
                    }
                    k = skip_group(stmt, after, '(', ')');
                } else {
                    k += 2; // plain field access
                }
            }
            Some(t) if t.is_punct('[') => {
                let after = skip_group(stmt, k, '[', ']');
                if stmt.get(after).is_some_and(|t| t.is_punct('='))
                    && !stmt.get(after + 1).is_some_and(|t| t.is_punct('='))
                {
                    return Some(ChainMutation::IndexAssign);
                }
                k = after;
            }
            _ => return None,
        }
    }
}

/// Skips a balanced group starting at `k` (which holds `open`); returns the
/// index one past the matching `close`.
fn skip_group(stmt: &[Token], k: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut i = k;
    while i < stmt.len() {
        if stmt[i].is_punct(open) {
            depth += 1;
        } else if stmt[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}
