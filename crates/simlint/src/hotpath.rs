//! Rule `hot-path-alloc`: no heap allocation reachable from the kernel's
//! hot entry points.
//!
//! The BENCH budget (`allocs_per_request` 0.65) holds because the event
//! loop's steady state — event dispatch, queue push/pop, segmented-log
//! appends — runs allocation-free except for the amortized segment-seal
//! paths, which carry reviewed `allow`s. This rule keeps it that way
//! statically: seed the function graph with the hot entry points, propagate
//! hotness through workspace-local calls, and flag every allocation
//! constructor in a hot body.
//!
//! A seed that no longer resolves (the entry point was renamed) is itself a
//! diagnostic, so a refactor can never silently disable the rule.
//!
//! `.clone()` is reported at `warning` severity only: the lexer is
//! type-blind and most hot-path clones are `Arc` handle bumps, not heap
//! copies. Everything else (`vec!`, `Vec::new`, `collect`, `to_string`,
//! stable sorts, ...) is an error.

use crate::graph::FnGraph;
use crate::lexer::Token;
use crate::registry::Severity;
use crate::{Diagnostic, SrcFile};

/// Rule id.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";

/// One hot entry point: `type_name::fn_name`, with the file diagnostics
/// anchor to when the seed fails to resolve.
#[derive(Debug, Clone, Copy)]
pub struct Seed {
    /// The impl type of the entry point.
    pub type_name: &'static str,
    /// The method name.
    pub fn_name: &'static str,
    /// Workspace-relative path expected to define it.
    pub anchor_file: &'static str,
}

/// The kernel's hot entry points. `Kernel::pump` is the event-dispatch loop
/// (the paper's per-request steady state) and `Kernel::submit` the client
/// admission path; the queue and the segmented stores are the data
/// structures they hammer per event.
pub const HOT_SEEDS: [Seed; 12] = [
    Seed {
        type_name: "Kernel",
        fn_name: "pump",
        anchor_file: "crates/microsim/src/kernel.rs",
    },
    Seed {
        type_name: "Kernel",
        fn_name: "submit",
        anchor_file: "crates/microsim/src/kernel.rs",
    },
    Seed {
        type_name: "EventQueue",
        fn_name: "push",
        anchor_file: "crates/simnet/src/event.rs",
    },
    Seed {
        type_name: "EventQueue",
        fn_name: "pop",
        anchor_file: "crates/simnet/src/event.rs",
    },
    Seed {
        type_name: "SegLog",
        fn_name: "push",
        anchor_file: "crates/simnet/src/seglog.rs",
    },
    Seed {
        type_name: "SegSamples",
        fn_name: "push",
        anchor_file: "crates/simnet/src/stats.rs",
    },
    // The flat-arena population's per-event entry points: every response
    // and every think-bucket wakeup of a 100k-user cell runs through
    // these, so a stray allocation here is paid O(requests) per run.
    Seed {
        type_name: "ThinkArena",
        fn_name: "schedule",
        anchor_file: "crates/workload/src/arena.rs",
    },
    Seed {
        type_name: "ThinkArena",
        fn_name: "drain_into",
        anchor_file: "crates/workload/src/arena.rs",
    },
    Seed {
        type_name: "ClosedLoopUsers",
        fn_name: "on_response",
        anchor_file: "crates/workload/src/users.rs",
    },
    Seed {
        type_name: "ClosedLoopUsers",
        fn_name: "on_wake",
        anchor_file: "crates/workload/src/users.rs",
    },
    // The resilience layer's per-event paths: every submission with a
    // deadline arms a timer, and every expiry/shed/rejection runs the
    // failure path — both are paid O(requests) on a shedding topology, so
    // they must stay allocation-free like the rest of the kernel loop.
    Seed {
        type_name: "DeadlineQueues",
        fn_name: "arm",
        anchor_file: "crates/microsim/src/resilience.rs",
    },
    Seed {
        type_name: "Kernel",
        fn_name: "fail_attempt",
        anchor_file: "crates/microsim/src/kernel.rs",
    },
];

/// Types whose `::new`/`::with_capacity`/`::from` constructors allocate.
/// (`HashMap`/`HashSet` are absent: `crates/clippy.toml` bans them.)
const ALLOC_TYPES: [&str; 9] = [
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "Rc",
    "String",
    "Vec",
    "VecDeque",
];

/// Allocating constructor method names on [`ALLOC_TYPES`].
const ALLOC_CTORS: [&str; 3] = ["from", "new", "with_capacity"];

/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Allocating methods (on any receiver). The stable sorts allocate a merge
/// buffer (and `sort_by_cached_key` a key vector); hot paths use the
/// in-place `sort_unstable*` family instead.
const ALLOC_METHODS: [&str; 8] = [
    "collect",
    "sort",
    "sort_by",
    "sort_by_cached_key",
    "sort_by_key",
    "to_owned",
    "to_string",
    "to_vec",
];

/// Runs the rule over a model's files.
pub fn check(files: &[SrcFile], seeds: &[Seed], out: &mut Vec<Diagnostic>) {
    let graph = FnGraph::build(files);
    let pairs: Vec<(&str, &str)> = seeds.iter().map(|s| (s.type_name, s.fn_name)).collect();
    let (hot, missing) = graph.hot_set(&pairs);
    for (ty, name) in missing {
        let seed = seeds
            .iter()
            .find(|s| s.type_name == ty && s.fn_name == name)
            .expect("missing seed came from the seed list");
        out.push(Diagnostic::new(
            HOT_PATH_ALLOC,
            seed.anchor_file,
            1,
            format!(
                "hot-path seed `{ty}::{name}` not found in the workspace; update simlint's HOT_SEEDS if the entry point was renamed"
            ),
        ));
    }
    for &id in hot.keys() {
        let f = graph.item(id);
        if f.body.0 == f.body.1 {
            continue;
        }
        let file = &files[id.file];
        let body = &file.lexed.tokens[f.body.0..f.body.1];
        let chain = graph.hot_chain(&hot, id);
        scan_body(&file.path, body, &chain, out);
    }
}

/// Flags allocation sites in one hot body.
fn scan_body(path: &str, body: &[Token], chain: &str, out: &mut Vec<Diagnostic>) {
    for j in 0..body.len() {
        let Some(id) = body[j].ident() else {
            continue;
        };
        // `vec![...]` / `format!(...)`.
        if ALLOC_MACROS.contains(&id) && body.get(j + 1).is_some_and(|t| t.is_punct('!')) {
            push_alloc(
                path,
                body[j].line,
                &format!("`{id}!`"),
                chain,
                Severity::Error,
                out,
            );
            continue;
        }
        // `Vec::new(...)`, `Box::new(...)`, `String::from(...)`, ...
        if ALLOC_TYPES.contains(&id)
            && body.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && body.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(m) = body.get(j + 3).and_then(Token::ident) {
                if ALLOC_CTORS.contains(&m) {
                    push_alloc(
                        path,
                        body[j].line,
                        &format!("`{id}::{m}`"),
                        chain,
                        Severity::Error,
                        out,
                    );
                }
            }
            continue;
        }
        // `.collect(...)` / `.collect::<T>(...)` / `.to_string()` / ...
        if j > 0 && body[j - 1].is_punct('.') {
            let calls = body.get(j + 1).is_some_and(|t| t.is_punct('('))
                || (body.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && body.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    && body.get(j + 3).is_some_and(|t| t.is_punct('<')));
            if !calls {
                continue;
            }
            if ALLOC_METHODS.contains(&id) {
                push_alloc(
                    path,
                    body[j].line,
                    &format!("`.{id}()`"),
                    chain,
                    Severity::Error,
                    out,
                );
            } else if id == "clone" {
                push_alloc(
                    path,
                    body[j].line,
                    "`.clone()`",
                    chain,
                    Severity::Warning,
                    out,
                );
            }
        }
    }
}

fn push_alloc(
    path: &str,
    line: u32,
    what: &str,
    chain: &str,
    severity: Severity,
    out: &mut Vec<Diagnostic>,
) {
    let note = if severity == Severity::Warning {
        "; if this is an Arc handle bump, suppress with an allow"
    } else {
        "; hoist the allocation out of the hot path or carry a reviewed allow (e.g. amortized segment seals)"
    };
    out.push(
        Diagnostic::new(
            HOT_PATH_ALLOC,
            path,
            line,
            format!("{what} allocates on the kernel hot path ({chain}){note}"),
        )
        .with_severity(severity),
    );
}
