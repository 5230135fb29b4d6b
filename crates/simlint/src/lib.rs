//! `simlint` — the workspace's naive-twin auditor.
//!
//! Every indexed telemetry and defense query keeps a `*_naive` full-scan
//! twin that a test compares it against; delete the twin, or stop testing
//! it, and the indexed path loses its ground truth while every caller keeps
//! compiling. `simlint` checks that convention at the source level, in CI:
//!
//! ```text
//! cargo run -p simlint -- --check [--root <dir>]
//! ```
//!
//! It has one rule, `naive-twin` (see [`twin`]). The other invariants the
//! workspace relies on are checked where they can be measured or typed:
//! clippy bans the wall clock, environment reads, raw threads,
//! `Arc::get_mut` and hash collections in every package under `crates/`
//! (`crates/clippy.toml`), and the `alloc_budget` test counts the kernel's
//! allocations per request at run time.
//!
//! The implementation is a hand-rolled lexer ([`lexer`]) and an item scan
//! ([`parse`]) that finds every `fn` with its impl type — no external
//! parser dependencies, consistent with the workspace's offline `vendor/`
//! policy.
//!
//! ## Exit codes (stable)
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | clean: no findings                                       |
//! | 1    | at least one finding                                     |
//! | 2    | internal error: bad usage, unreadable file, no workspace |

pub mod lexer;
pub mod parse;
pub mod twin;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Token;

/// One `naive-twin` finding.
///
/// The derived ordering sorts by (file, line, message), the order the
/// findings are printed in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: file.replace('\\', "/"),
            line,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[naive-twin] {}",
            self.file, self.line, self.message
        )
    }
}

/// Crates whose `src/` trees are scanned for indexed queries and twins.
///
/// `bench` and `simlint` hold none. `examples/` and `tests/` directories
/// are harness code: they feed only the test-identifier set.
pub const SIM_CRATES: [&str; 11] = [
    "apps",
    "baselines",
    "callgraph",
    "core",
    "defense",
    "lab",
    "microsim",
    "queueing",
    "simnet",
    "telemetry",
    "workload",
];

/// One scanned source file: its `fn` items outside `#[cfg(test)]` regions.
#[derive(Debug)]
pub struct SrcFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Parsed `fn` items (name, impl type, visibility, line).
    pub fns: Vec<parse::FnItem>,
}

/// The whole workspace as the rule sees it: scanned source files plus the
/// set of identifiers appearing in test code (used to verify twins are
/// exercised).
#[derive(Debug)]
pub struct Model {
    /// Scanned simulation source files, in deterministic path order.
    pub files: Vec<SrcFile>,
    /// Identifiers referenced anywhere in test code: `tests/` trees and
    /// `#[cfg(test)]` modules.
    pub test_idents: BTreeSet<String>,
}

impl Model {
    /// Builds a model from in-memory sources — the workhorse behind
    /// [`Model::load`], synthetic workspaces, and mutation tests that patch one
    /// real file's text and re-lint.
    pub fn from_sources(sources: &[(String, String)], test_sources: &[(String, String)]) -> Model {
        let mut files = Vec::with_capacity(sources.len());
        let mut test_idents = BTreeSet::new();
        for (path, src) in sources {
            let (kept, test) = split_cfg_test(lexer::lex(src));
            for t in &test {
                if let Some(id) = t.ident() {
                    test_idents.insert(id.to_string());
                }
            }
            files.push(SrcFile {
                path: path.replace('\\', "/"),
                fns: parse::parse_items(&kept),
            });
        }
        for (_path, src) in test_sources {
            for t in &lexer::lex(src) {
                if let Some(id) = t.ident() {
                    test_idents.insert(id.to_string());
                }
            }
        }
        Model { files, test_idents }
    }

    /// Loads the model for the workspace rooted at `root`: every sim
    /// crate's `src/` tree is scanned; `tests/` trees (workspace-level and
    /// per-crate) feed the test-identifier set.
    pub fn load(root: &Path) -> io::Result<Model> {
        let (sources, test_sources) = Model::load_sources(root)?;
        Ok(Model::from_sources(&sources, &test_sources))
    }

    /// Reads the raw `(path, text)` pairs [`Model::load`] scans, without
    /// building the model — mutation tests patch one file's text and feed
    /// the result back through [`Model::from_sources`].
    #[expect(
        clippy::type_complexity,
        reason = "two lists of (path, text) pairs; a named type would hide that"
    )]
    pub fn load_sources(root: &Path) -> io::Result<(Vec<(String, String)>, Vec<(String, String)>)> {
        let mut sources = Vec::new();
        for krate in SIM_CRATES {
            let src_dir = root.join("crates").join(krate).join("src");
            for file in rust_files(&src_dir)? {
                let rel = rel_path(root, &file);
                sources.push((rel, fs::read_to_string(&file)?));
            }
        }
        let mut test_sources = Vec::new();
        for file in rust_files(&root.join("tests"))? {
            test_sources.push((rel_path(root, &file), fs::read_to_string(&file)?));
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .map(|e| e.map(|e| e.path()))
                .collect::<io::Result<_>>()?;
            krates.sort();
            for krate in krates {
                for file in rust_files(&krate.join("tests"))? {
                    test_sources.push((rel_path(root, &file), fs::read_to_string(&file)?));
                }
            }
        }
        Ok((sources, test_sources))
    }
}

/// Splits a token stream into (non-test tokens, `#[cfg(test)]` tokens).
///
/// Items are scanned only in the first half: a test module's helpers are
/// not queries. The test half feeds the reference scan: an indexed query's
/// ground-truth twin counts as exercised when its name appears in any test
/// code, including in-file `#[cfg(test)]` modules.
fn split_cfg_test(toks: Vec<Token>) -> (Vec<Token>, Vec<Token>) {
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
fn skip_attr(toks: &[Token], i: usize) -> usize {
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

/// Runs `naive-twin` over a model. Diagnostics come back sorted by (path,
/// line, message).
pub fn lint_model(model: &Model) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    twin::check(
        &model.files,
        &model.test_idents,
        &twin::TWIN_ENTRIES,
        &twin::INDEXED_LOGS,
        &mut out,
    );
    out.sort();
    out.dedup();
    out
}

/// Lints the whole workspace rooted at `root` (see [`lint_model`]).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_model(&Model::load(root)?))
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order. A missing directory yields no files.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if !dir.is_dir() {
        return Ok(files);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Finds the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
