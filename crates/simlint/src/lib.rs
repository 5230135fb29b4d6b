//! `simlint` — the workspace's invariant auditor for what a type checker
//! cannot see.
//!
//! Clippy enforces the type-level half of determinism: `crates/clippy.toml`
//! bans the wall clock, environment reads, raw threads, `Arc::get_mut` and
//! hash collections in every package under `crates/`. `simlint` checks the
//! structural invariants that need a whole-workspace call graph — the
//! kernel's steady state does not allocate, and every indexed query keeps a
//! naive ground truth — at the source level, in CI:
//!
//! ```text
//! cargo run -p simlint -- --check [--format text|json|sarif] [--root <dir>]
//! cargo run -p simlint -- --list-rules
//! ```
//!
//! Rules (see [`registry::RULES`]; each suppressible per line with
//! `// simlint: allow(<rule>)` on the flagged line or the line above):
//!
//! * `hot-path-alloc` — no allocation constructors reachable from the
//!   kernel's hot entry points (see [`hotpath`]);
//! * `naive-twin` — every indexed query keeps a test-exercised `*_naive`
//!   ground-truth twin (see [`twin`]);
//! * `bad-allow` / `unused-allow` — the allow escape hatch itself is
//!   audited (see [`allow`]).
//!
//! The implementation is a hand-rolled lexer, a lightweight item parser
//! ([`parse`]) resolving `fn`/`impl` items and call sites into a function
//! graph ([`graph`]), and the rule passes over that graph — no external
//! parser dependencies, consistent with the workspace's offline `vendor/`
//! policy. It is heuristic by design: type-blind, tuned so that everything
//! it flags in this workspace is a real hazard or carries an explicit,
//! reviewable `allow`.
//!
//! ## Exit codes (stable)
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | clean: no `error`-severity findings (warnings permitted) |
//! | 1    | at least one unsuppressed `error`-severity finding       |
//! | 2    | internal error: bad usage, unreadable file, no workspace |

pub mod allow;
pub mod graph;
pub mod hotpath;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod registry;
pub mod twin;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Token;
use registry::Severity;

/// One finding.
///
/// The derived ordering sorts by (file, line, rule, message) — the stable
/// emission order every output format uses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule id (see [`registry::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The finding's severity (defaults to the rule's registry severity).
    pub severity: Severity,
}

impl Diagnostic {
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: file.replace('\\', "/"),
            line,
            rule,
            message,
            severity: registry::default_severity(rule),
        }
    }

    /// Overrides the severity (used for per-site downgrades like
    /// `.clone()` on the hot path).
    pub(crate) fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// The finding as a JSON object (hand-rolled; see [`output`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            self.severity.as_str(),
            output::json_escape(&self.file),
            self.line,
            output::json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Crates whose `src/` trees are simulation code and get the full rule set.
///
/// `bench` is exempt (it measures wall time by design) and so is `simlint`
/// itself. `examples/` and `tests/` directories are harness code: they
/// drive simulations but their own statements never execute inside one.
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

/// One scanned source file: lexed (with `#[cfg(test)]` regions stripped
/// from the token stream, allow directives retained) and item-parsed.
#[derive(Debug)]
pub struct SrcFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The lexed file; `tokens` holds only non-test code.
    pub lexed: lexer::Lexed,
    /// Parsed `fn` items (with impl context and call sites).
    pub fns: Vec<parse::FnItem>,
}

/// The whole workspace as the rules see it: scanned source files plus the
/// set of identifiers appearing in test code (used by `naive-twin` to
/// verify twins are exercised).
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
            let mut lexed = lexer::lex(src);
            let (kept, test) = split_cfg_test(std::mem::take(&mut lexed.tokens));
            lexed.tokens = kept;
            for t in &test {
                if let Some(id) = t.ident() {
                    test_idents.insert(id.to_string());
                }
            }
            let fns = parse::parse_items(&lexed.tokens);
            files.push(SrcFile {
                path: path.replace('\\', "/"),
                lexed,
                fns,
            });
        }
        for (_path, src) in test_sources {
            for t in &lexer::lex(src).tokens {
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
/// The rules lint only the first half: test modules assert over simulation
/// output, and nothing in them runs on the kernel's hot path. The test half
/// feeds the `naive-twin` rule's reference scan: an indexed query's
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

/// Runs the full rule set over a model: the hot-path and naive-twin graph
/// rules, then allow-directive accounting. Diagnostics come back sorted by
/// (path, line, rule).
pub fn lint_model(model: &Model) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hotpath::check(&model.files, &hotpath::HOT_SEEDS, &mut out);
    twin::check(
        &model.files,
        &model.test_idents,
        &twin::TWIN_ENTRIES,
        &twin::INDEXED_LOGS,
        &mut out,
    );
    allow::apply(&model.files, &mut out);
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
