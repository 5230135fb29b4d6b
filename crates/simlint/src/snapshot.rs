//! Rule `snapshot-complete`: the warm-state fork must copy *every* field.
//!
//! PR 2's snapshot/fork machinery deep-clones the live simulation state
//! (`microsim::Kernel`, `simnet::EventQueue`) through hand-written `Clone`
//! impls with one line per field, and captures agents by cloning them. A
//! field added to any of those structs without extending the clone path
//! would silently produce stale forks — runs that diverge from cold
//! re-simulation in ways no targeted test anticipates. This rule makes the
//! omission a CI failure:
//!
//! * for each tracked struct (`Kernel`, `EventQueue`), parse its field list
//!   and require every field name to be referenced inside the corresponding
//!   `impl Clone for ...` block (in `microsim/src/snapshot.rs` for the
//!   kernel, next to the struct for the queue);
//! * every `impl Agent for X` in simulation code must come with a `Clone`
//!   for `X` — either `#[derive(Clone)]` (complete by construction: the
//!   compiler forces every field) or a manual impl referencing every field —
//!   because `Agent::snapshot` captures agents by cloning and a non-`Clone`
//!   agent silently makes a whole simulation un-checkpointable.

use crate::lexer::Token;
use crate::rules::{skip_attr, SNAPSHOT_COMPLETE};
use crate::Diagnostic;

/// A struct whose `Clone` impl is the snapshot path and must stay
/// field-complete.
#[derive(Debug)]
pub struct SnapshotTarget<'a> {
    /// Struct name, e.g. `"Kernel"`.
    pub struct_name: &'a str,
    /// Workspace-relative path of the file holding the struct definition.
    pub struct_file: &'a str,
    /// Workspace-relative path of the file holding `impl Clone for <name>`.
    pub clone_file: &'a str,
}

/// The workspace's tracked snapshot structs.
pub const TARGETS: [SnapshotTarget<'static>; 9] = [
    SnapshotTarget {
        struct_name: "Kernel",
        struct_file: "crates/microsim/src/kernel.rs",
        clone_file: "crates/microsim/src/snapshot.rs",
    },
    SnapshotTarget {
        struct_name: "EventQueue",
        struct_file: "crates/simnet/src/event.rs",
        clone_file: "crates/simnet/src/event.rs",
    },
    // The metrics store is cloned per fork through the copy-on-write
    // segmented logs; a field added to `Metrics` but not to its manual
    // `Clone` would silently vanish from every fork.
    SnapshotTarget {
        struct_name: "Metrics",
        struct_file: "crates/microsim/src/metrics.rs",
        clone_file: "crates/microsim/src/snapshot.rs",
    },
    // The copy-on-write segmented log is every fork's payload (metrics
    // logs, agent sample journals) and the sample store built on it: a fork
    // shares sealed segments and copies only the mutable tail. A field
    // added to either but missed by its manual `Clone` would silently reset
    // on every fork.
    SnapshotTarget {
        struct_name: "SegLog",
        struct_file: "crates/simnet/src/seglog.rs",
        clone_file: "crates/simnet/src/seglog.rs",
    },
    SnapshotTarget {
        struct_name: "SegSamples",
        struct_file: "crates/simnet/src/stats.rs",
        clone_file: "crates/simnet/src/stats.rs",
    },
    // The flat-arena population's live state: the think-timer arena and
    // the population itself fork through manual per-field clones (the
    // population shares its browsing model by Arc and its sample store by
    // COW). A field missed by either impl would silently reset — or worse,
    // alias — on every fork of a 100k-user cell.
    SnapshotTarget {
        struct_name: "ThinkArena",
        struct_file: "crates/workload/src/arena.rs",
        clone_file: "crates/workload/src/arena.rs",
    },
    SnapshotTarget {
        struct_name: "ClosedLoopUsers",
        struct_file: "crates/workload/src/users.rs",
        clone_file: "crates/workload/src/users.rs",
    },
    // The resilience layer's kernel state: in-flight deadline timers and
    // circuit-breaker banks must survive checkpoint/fork bit-identically —
    // a dropped field would mean timers silently vanishing (requests that
    // never time out) or breakers resetting to closed on every fork.
    SnapshotTarget {
        struct_name: "DeadlineQueues",
        struct_file: "crates/microsim/src/resilience.rs",
        clone_file: "crates/microsim/src/resilience.rs",
    },
    SnapshotTarget {
        struct_name: "BreakerBank",
        struct_file: "crates/microsim/src/resilience.rs",
        clone_file: "crates/microsim/src/resilience.rs",
    },
];

/// Checks one tracked struct: every field of `struct_name` (parsed from
/// `struct_toks`) must be referenced inside the `impl Clone for
/// <struct_name>` block in `clone_toks`.
pub fn check_target(
    target: &SnapshotTarget<'_>,
    struct_toks: &[Token],
    clone_toks: &[Token],
    out: &mut Vec<Diagnostic>,
) {
    let Some(fields) = struct_fields(struct_toks, target.struct_name) else {
        out.push(Diagnostic::new(
            SNAPSHOT_COMPLETE,
            target.struct_file,
            1,
            format!(
                "tracked snapshot struct `{}` not found in this file; update simlint's TARGETS if it moved",
                target.struct_name
            ),
        ));
        return;
    };
    let Some((body_start, body_end, impl_line)) =
        impl_block(clone_toks, "Clone", target.struct_name)
    else {
        out.push(Diagnostic::new(
            SNAPSHOT_COMPLETE,
            target.clone_file,
            1,
            format!(
                "no `impl Clone for {}` found; the snapshot path must clone every field explicitly",
                target.struct_name
            ),
        ));
        return;
    };
    let body = &clone_toks[body_start..body_end];
    for (field, _line) in &fields {
        let referenced = body.iter().any(|t| t.is_ident(field));
        if !referenced {
            out.push(Diagnostic::new(
                SNAPSHOT_COMPLETE,
                target.clone_file,
                impl_line,
                format!(
                    "`impl Clone for {}` does not reference field `{}` (declared in {}); a fork would silently drop it — clone it explicitly",
                    target.struct_name, field, target.struct_file
                ),
            ));
        }
    }
}

/// Per-file agent check: every `impl Agent for X` needs a complete `Clone`
/// for `X` so `Agent::snapshot` can capture it.
pub fn check_agents(path: &str, lexed: &crate::lexer::Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (name, impl_line) in agent_impls(toks) {
        let Some(fields) = struct_fields(toks, &name) else {
            // Struct defined in another file (or a unit/tuple struct):
            // out of reach for a per-file scan; the derive on the struct's
            // own file still gets checked when that file is linted.
            continue;
        };
        if derives_of(toks, &name).iter().any(|d| d == "Clone") {
            continue; // derived Clone is complete by construction
        }
        if let Some((body_start, body_end, clone_line)) = impl_block(toks, "Clone", &name) {
            let body = &toks[body_start..body_end];
            for (field, _) in &fields {
                if !body.iter().any(|t| t.is_ident(field)) {
                    out.push(Diagnostic::new(
                        SNAPSHOT_COMPLETE,
                        path,
                        clone_line,
                        format!(
                            "agent `{name}`'s manual `impl Clone` does not reference field `{field}`; `Agent::snapshot` captures agents by cloning, so the fork would drop it"
                        ),
                    ));
                }
            }
        } else {
            out.push(Diagnostic::new(
                SNAPSHOT_COMPLETE,
                path,
                impl_line,
                format!(
                    "`{name}` implements `Agent` but has no `Clone`; without it the agent cannot be captured by `Agent::snapshot` and any simulation containing it cannot be checkpointed"
                ),
            ));
        }
    }
}

/// Finds `impl [path::]Agent for X` headers; returns `(X, line)` pairs.
fn agent_impls(toks: &[Token]) -> Vec<(String, u32)> {
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("Agent") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_ident("for")) {
            continue;
        }
        let Some(name) = toks.get(i + 2).and_then(Token::ident) else {
            continue;
        };
        // Require an `impl` keyword shortly before, with only path segments
        // or generics between (`impl Agent for X`, `impl microsim::Agent
        // for X`, `impl<T> Agent for X<T>`).
        let lo = i.saturating_sub(12);
        if toks[lo..i].iter().any(|t| t.is_ident("impl")) {
            found.push((name.to_string(), toks[i].line));
        }
    }
    found
}

/// One parsed struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// The field's name.
    pub name: String,
    /// 1-based line of the field's name.
    pub line: u32,
    /// `true` when the field's type mentions `Arc` — i.e. the field is (or
    /// contains) a shared copy-on-write spine.
    pub arc: bool,
}

/// Parses the named struct's fields: `(name, line)` per field. Returns
/// `None` when the struct is absent or has no brace-delimited field list.
pub fn struct_fields(toks: &[Token], name: &str) -> Option<Vec<(String, u32)>> {
    struct_fields_ex(toks, name)
        .map(|fields| fields.into_iter().map(|f| (f.name, f.line)).collect())
}

/// Parses the named struct's fields with type information (see [`Field`]).
pub fn struct_fields_ex(toks: &[Token], name: &str) -> Option<Vec<Field>> {
    let mut i = 0usize;
    {
        // Find `struct <name>`.
        while i < toks.len() {
            if toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
                break;
            }
            i += 1;
        }
        if i >= toks.len() {
            return None;
        }
        i += 2;
        // Skip generics.
        if toks.get(i).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            while i < toks.len() {
                if toks[i].is_punct('<') {
                    angle += 1;
                } else if toks[i].is_punct('>') && !toks[i - 1].is_punct('-') {
                    angle -= 1;
                    if angle == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        // Skip a where-clause up to `{` or `;`.
        while i < toks.len() && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
            i += 1;
        }
        if !toks.get(i).is_some_and(|t| t.is_punct('{')) {
            return None; // unit or tuple struct
        }
        Some(parse_field_list(toks, i))
    }
}

/// Parses a brace-delimited field list starting at the `{` index.
fn parse_field_list(toks: &[Token], open: usize) -> Vec<Field> {
    let mut fields: Vec<Field> = Vec::new();
    let mut i = open + 1;
    let mut depth = 1i32; // brace depth relative to the struct body
    let mut expecting_field = true;
    let mut nest = 0i32; // (), [], <> nesting inside a field's type
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match &t.kind {
            crate::lexer::TokenKind::Punct('{') => depth += 1,
            crate::lexer::TokenKind::Punct('}') => depth -= 1,
            crate::lexer::TokenKind::Punct('#') if depth == 1 && expecting_field => {
                i = skip_attr(toks, i);
                continue;
            }
            crate::lexer::TokenKind::Punct('(' | '[') => nest += 1,
            crate::lexer::TokenKind::Punct(')' | ']') => nest -= 1,
            crate::lexer::TokenKind::Punct('<') if depth == 1 => nest += 1,
            crate::lexer::TokenKind::Punct('>') if depth == 1 && !toks[i - 1].is_punct('-') => {
                nest -= 1;
            }
            crate::lexer::TokenKind::Punct(',') if depth == 1 && nest == 0 => {
                expecting_field = true;
                i += 1;
                continue;
            }
            crate::lexer::TokenKind::Ident(id) if depth == 1 && nest == 0 && expecting_field => {
                if id == "pub" {
                    // `pub` or `pub(crate)`: the visibility parens are
                    // consumed via `nest` below, so just move on.
                    i += 1;
                    if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                        let mut p = 0i32;
                        while i < toks.len() {
                            if toks[i].is_punct('(') {
                                p += 1;
                            } else if toks[i].is_punct(')') {
                                p -= 1;
                                if p == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                    continue;
                }
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                {
                    fields.push(Field {
                        name: id.clone(),
                        line: t.line,
                        arc: false,
                    });
                    expecting_field = false;
                }
            }
            crate::lexer::TokenKind::Ident(id) if depth == 1 && !expecting_field && id == "Arc" => {
                if let Some(last) = fields.last_mut() {
                    last.arc = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    fields
}

/// Finds `impl [<generics>] <trait_name> for <type_name>` and returns the
/// token range of its `{ ... }` body plus the header's line.
pub fn impl_block(
    toks: &[Token],
    trait_name: &str,
    type_name: &str,
) -> Option<(usize, usize, u32)> {
    for i in 0..toks.len() {
        if !toks[i].is_ident(trait_name) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_ident("for")) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|t| t.is_ident(type_name)) {
            continue;
        }
        let lo = i.saturating_sub(16);
        if !toks[lo..i].iter().any(|t| t.is_ident("impl")) {
            continue;
        }
        let line = toks[i].line;
        // Find the body's opening brace (past generics/where on the type).
        let mut j = i + 3;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let start = j + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some((start, j, line));
                }
            }
            j += 1;
        }
        return Some((start, toks.len(), line));
    }
    None
}

/// Derive idents attached to the named struct (empty when underived).
pub fn derives_of(toks: &[Token], name: &str) -> Vec<String> {
    let mut derives = Vec::new();
    // Locate `struct <name>` and walk backwards over attribute groups.
    let Some(pos) = (0..toks.len())
        .find(|&i| toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)))
    else {
        return derives;
    };
    let mut j = pos;
    // Step back over `pub` and visibility parens.
    while j > 0 && (toks[j - 1].is_ident("pub") || toks[j - 1].is_punct(')')) {
        if toks[j - 1].is_ident("pub") {
            j -= 1;
        } else {
            // `pub(crate)` — step back over the paren group then the `pub`.
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
        }
    }
    // Now step back over `#[...]` groups, collecting derive contents.
    while j >= 1 && toks[j - 1].is_punct(']') {
        let close = j - 1;
        let mut depth = 0i32;
        let mut open = close;
        loop {
            if toks[open].is_punct(']') {
                depth += 1;
            } else if toks[open].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if open == 0 {
                return derives;
            }
            open -= 1;
        }
        if open >= 1 && toks[open - 1].is_punct('#') {
            let group = &toks[open + 1..close];
            if group.first().is_some_and(|t| t.is_ident("derive")) {
                for t in group {
                    if let Some(id) = t.ident() {
                        if id != "derive" {
                            derives.push(id.to_string());
                        }
                    }
                }
            }
            j = open - 1;
        } else {
            break;
        }
    }
    derives
}
