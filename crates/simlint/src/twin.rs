//! Rule `naive-twin`: every indexed query entry point must keep a `*_naive`
//! full-scan twin that at least one test exercises.
//!
//! The CSR posting-list indexes make windowed telemetry and
//! defense queries fast, but their correctness story is the differential
//! against a naive full scan with bit-identical float accumulation order.
//! Delete the naive twin — or stop testing against it — and the indexed
//! path loses its ground truth while every caller keeps compiling. This
//! rule pins the convention:
//!
//! * the explicit [`TWIN_ENTRIES`] (the workspace's known indexed query
//!   entry points) must exist — a renamed entry point is a diagnostic, so
//!   the registry cannot rot silently;
//! * additionally, every `pub fn *_window`/`*_in` on an indexed log type
//!   ([`INDEXED_LOGS`]) is discovered as an entry point automatically;
//! * each entry point needs a twin on the same type, named by stripping the
//!   `_window`/`_in` suffix and appending `_naive` (`compute` →
//!   `compute_naive`, `analyze_window` → `analyze_naive`, `count_in` →
//!   `count_naive`);
//! * the twin's name must appear in test code (a `tests/` tree or a
//!   `#[cfg(test)]` module) — an untested ground truth is no ground truth.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Diagnostic, SrcFile};

/// One explicitly registered indexed query entry point.
#[derive(Debug, Clone, Copy)]
pub struct TwinEntry {
    /// The impl type of the entry point.
    pub type_name: &'static str,
    /// The query method's name.
    pub fn_name: &'static str,
    /// Workspace-relative path expected to define it (diagnostic anchor
    /// when the entry point disappears).
    pub anchor_file: &'static str,
}

/// The workspace's known indexed query entry points.
pub const TWIN_ENTRIES: [TwinEntry; 4] = [
    TwinEntry {
        type_name: "LatencySummary",
        fn_name: "compute",
        anchor_file: "crates/telemetry/src/latency.rs",
    },
    TwinEntry {
        type_name: "LatencySeries",
        fn_name: "compute",
        anchor_file: "crates/telemetry/src/latency.rs",
    },
    TwinEntry {
        type_name: "Ids",
        fn_name: "analyze_window",
        anchor_file: "crates/defense/src/ids.rs",
    },
    TwinEntry {
        type_name: "RateShield",
        fn_name: "analyze_window",
        anchor_file: "crates/defense/src/shield.rs",
    },
];

/// Indexed log types whose public `*_window`/`*_in` methods are discovered
/// as entry points automatically.
pub const INDEXED_LOGS: [&str; 3] = ["AccessLog", "RequestLog", "WindowLog"];

/// Derives the twin's name: strip a `_window`/`_in` suffix, append
/// `_naive`.
fn twin_name(entry: &str) -> String {
    let base = entry
        .strip_suffix("_window")
        .or_else(|| entry.strip_suffix("_in"))
        .unwrap_or(entry);
    format!("{base}_naive")
}

/// The file and line of the first item defining `type_name::fn_name`, in
/// source order.
fn find<'a>(files: &'a [SrcFile], type_name: &str, fn_name: &str) -> Option<(&'a str, u32)> {
    files.iter().find_map(|file| {
        file.fns
            .iter()
            .find(|f| f.name == fn_name && f.impl_type.as_deref() == Some(type_name))
            .map(|f| (file.path.as_str(), f.line))
    })
}

/// Runs the rule over a model's files.
pub fn check(
    files: &[SrcFile],
    test_idents: &BTreeSet<String>,
    entries: &[TwinEntry],
    indexed_logs: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    // (type, fn) of every entry point to check, deduped, with the place
    // that defines it.
    let mut points: BTreeMap<(&str, &str), (&str, u32)> = BTreeMap::new();

    for e in entries {
        match find(files, e.type_name, e.fn_name) {
            Some(at) => {
                points.entry((e.type_name, e.fn_name)).or_insert(at);
            }
            None => out.push(Diagnostic::new(
                e.anchor_file,
                1,
                format!(
                    "registered indexed query `{}::{}` not found in the workspace; update simlint's TWIN_ENTRIES if it was renamed",
                    e.type_name, e.fn_name
                ),
            )),
        }
    }

    // Discover `pub fn *_window` / `*_in` on the indexed log types.
    for file in files {
        for f in &file.fns {
            let Some(ty) = f.impl_type.as_deref() else {
                continue;
            };
            let windowed = f.name.ends_with("_window") || f.name.ends_with("_in");
            if indexed_logs.contains(&ty) && f.is_pub && windowed {
                points.entry((ty, &f.name)).or_insert((&file.path, f.line));
            }
        }
    }

    for ((ty, name), (path, line)) in points {
        let twin = twin_name(name);
        let Some((twin_path, twin_line)) = find(files, ty, &twin) else {
            out.push(Diagnostic::new(
                path,
                line,
                format!(
                    "indexed query `{ty}::{name}` has no `{ty}::{twin}` full-scan twin; the indexed path needs a naive ground truth with identical accumulation order"
                ),
            ));
            continue;
        };
        if !test_idents.contains(&twin) {
            out.push(Diagnostic::new(
                twin_path,
                twin_line,
                format!(
                    "`{ty}::{twin}` exists but no test references it; the naive/indexed differential for `{ty}::{name}` is not exercised"
                ),
            ));
        }
    }
}
