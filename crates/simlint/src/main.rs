//! CLI for the naive-twin auditor.
//!
//! ```text
//! cargo run -p simlint -- --check [--root <dir>]
//! ```
//!
//! Exit codes are stable (scripts and CI rely on them):
//!
//! * `0` — clean: no findings;
//! * `1` — at least one finding;
//! * `2` — internal error: bad usage, unreadable input, or no workspace.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "a lint CLI, not simulation code: argv cannot affect simulated histories"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {} // the default mode; kept for CI clarity
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--root expects a directory");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: simlint [--check] [--root <dir>]\n\nexit codes: 0 clean, 1 findings, 2 internal error"
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

    let root = root.or_else(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "a lint CLI, not simulation code: the default root is found from the cwd"
        )]
        let cwd = std::env::current_dir().ok()?;
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
    for d in &diagnostics {
        println!("{d}");
    }
    if diagnostics.is_empty() {
        eprintln!("simlint: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} finding(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}
