//! `simlint` — the workspace determinism and invariant auditor.
//!
//! The whole reproduction rests on one invariant: simulations are
//! deterministic. `lab --jobs N` reports are byte-identical at any job
//! count, and warm-state forks are byte-identical to cold runs. That
//! invariant is easy to break silently — one `HashMap` iteration feeding a
//! report, one `Instant::now()` in an agent, one COW spine mutated around
//! `Arc::make_mut` — and dynamic tests only catch the breakage when a test
//! happens to exercise the affected path. `simlint` enforces the invariants
//! statically, at the source level, in CI:
//!
//! ```text
//! cargo run -p simlint -- --check [--format text|json|sarif] [--baseline <file>]
//! cargo run -p simlint -- --list-rules
//! ```
//!
//! Rules (see [`registry::RULES`]; each suppressible per line with
//! `// simlint: allow(<rule>)` on the flagged line or the line above):
//!
//! * `nondet-source`, `unordered-iter`, `float-order` — per-file
//!   determinism scans (see [`rules`]);
//! * `cow-discipline` — registered copy-on-write spines are mutated only
//!   through `Arc::make_mut` (see [`cow`]);
//! * `hot-path-alloc` — no allocation constructors reachable from the
//!   kernel's hot entry points (see [`hotpath`]);
//! * `naive-twin` — every indexed query keeps a test-exercised `*_naive`
//!   ground-truth twin (see [`twin`]);
//! * `bad-allow` / `unused-allow` — the allow escape hatch itself is
//!   audited (see [`allow`]).
//!
//! The implementation is a hand-rolled lexer, a lightweight item parser
//! ([`parse`]) resolving `fn`/`impl` items and call sites into a function
//! graph ([`graph`]), and token-pattern rule passes — no external parser
//! dependencies, consistent with the workspace's offline `vendor/` policy.
//! It is heuristic by design: type-blind, tuned so that everything it flags
//! in this workspace is a real hazard or carries an explicit, reviewable
//! `allow`.
//!
//! ## Exit codes (stable)
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | clean: no `error`-severity findings (warnings permitted) |
//! | 1    | at least one unsuppressed `error`-severity finding       |
//! | 2    | internal error: bad usage, unreadable file, no workspace |

pub mod allow;
pub mod cow;
pub mod graph;
pub mod hotpath;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod registry;
pub mod rules;
pub mod twin;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
/// itself. `examples/`, `tests/`, and `benches/` directories are harness
/// code: they drive simulations but their own statements never execute
/// inside one.
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
    /// [`Model::load`], fixture corpora, and mutation tests that patch one
    /// real file's text and re-lint.
    pub fn from_sources(sources: &[(String, String)], test_sources: &[(String, String)]) -> Model {
        let mut files = Vec::with_capacity(sources.len());
        let mut test_idents = BTreeSet::new();
        for (path, src) in sources {
            let mut lexed = lexer::lex(src);
            let (kept, test) = rules::split_cfg_test(std::mem::take(&mut lexed.tokens));
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
    #[allow(clippy::type_complexity)]
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

/// Lints one source file (per-file rules only — the graph rules need a
/// whole [`Model`]). `path` is the label used in diagnostics.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let model = Model::from_sources(&[(path.to_string(), src.to_string())], &[]);
    let spines = cow::spine_map(&model.files);
    let mut out = Vec::new();
    for file in &model.files {
        rules::lint_tokens(&file.path, &file.lexed, &mut out);
        cow::check_file(file, &spines, &mut out);
    }
    allow::apply(&model.files, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Runs the full rule set over a model: per-file rules, the COW/hot-path/
/// naive-twin graph rules, and allow-directive accounting. Diagnostics come
/// back sorted by (path, line, rule).
pub fn lint_model(model: &Model) -> Vec<Diagnostic> {
    let spines = cow::spine_map(&model.files);
    let mut out = Vec::new();
    for file in &model.files {
        rules::lint_tokens(&file.path, &file.lexed, &mut out);
        cow::check_file(file, &spines, &mut out);
    }
    cow::check_registry(&model.files, &mut out);
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
