//! CLI for the workspace determinism & invariant auditor.
//!
//! ```text
//! cargo run -p simlint -- --check [--format text|json|sarif] [--baseline <file>] [--root <dir>]
//! cargo run -p simlint -- --list-rules
//! ```
//!
//! Exit codes are stable (scripts and CI rely on them):
//!
//! * `0` — clean: no `error`-severity findings (warnings are advisory);
//! * `1` — at least one unsuppressed `error`-severity finding;
//! * `2` — internal error: bad usage, unreadable input, or no workspace.

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    // Harness code, not simulation code: reading argv/cwd here cannot
    // affect simulated histories.
    let args: Vec<String> = std::env::args().skip(1).collect(); // simlint: allow(nondet-source)
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {} // the default mode; kept for CI clarity
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "--format expects text|json|sarif, got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--baseline" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--baseline expects a file path");
                    return ExitCode::from(2);
                };
                baseline_path = Some(PathBuf::from(p));
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--root expects a directory");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: simlint [--check] [--format text|json|sarif] [--baseline <file>] [--root <dir>]\n       simlint --list-rules\n\nexit codes: 0 clean (no error-severity findings), 1 violations, 2 internal error"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if list_rules {
        for rule in &simlint::registry::RULES {
            println!("{:<18} {:<8} {}", rule.id, rule.severity, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?; // simlint: allow(nondet-source)
        simlint::find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!("could not find a workspace root (no Cargo.toml with [workspace]); use --root");
        return ExitCode::from(2);
    };
    if !root.is_dir() {
        eprintln!("workspace root {} is not a directory", root.display());
        return ExitCode::from(2);
    }

    let diagnostics = match simlint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simlint: i/o error: {e}");
            return ExitCode::from(2);
        }
    };

    let (diagnostics, baselined) = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                let entries = simlint::output::parse_baseline(&text);
                simlint::output::apply_baseline(diagnostics, &entries)
            }
            Err(e) => {
                eprintln!("simlint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => (diagnostics, 0),
    };

    match format {
        Format::Json => println!("{}", simlint::output::json_array(&diagnostics)),
        Format::Sarif => println!("{}", simlint::output::sarif(&diagnostics)),
        Format::Text => {
            for d in &diagnostics {
                println!("{d}");
            }
            let errors = diagnostics
                .iter()
                .filter(|d| d.severity == simlint::registry::Severity::Error)
                .count();
            let warnings = diagnostics.len() - errors;
            if diagnostics.is_empty() {
                eprintln!("simlint: workspace clean");
            } else {
                eprintln!(
                    "simlint: {errors} error(s), {warnings} warning(s); suppress a reviewed line with `// simlint: allow(<rule>)`"
                );
            }
            if baselined > 0 {
                eprintln!("simlint: {baselined} baselined finding(s) suppressed");
            }
        }
    }

    if simlint::output::has_errors(&diagnostics) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
