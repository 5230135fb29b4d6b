//! Golden-file tests: every fixture workspace under `tests/fixtures/` is
//! linted whole and its rendered diagnostics compared line-for-line — file,
//! line, severity, rule and message — against the checked-in
//! `<name>.expected` file. Regenerate goldens with
//! `SIMLINT_BLESS=1 cargo test -p simlint`.

use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn render(diags: &[simlint::Diagnostic]) -> String {
    diags.iter().map(|d| format!("{d}\n")).collect()
}

fn check_golden(name: &str, actual: &str) {
    let golden = fixtures_dir().join(name);
    #[expect(
        clippy::disallowed_methods,
        reason = "test harness: the bless switch rewrites goldens, it never changes a lint result"
    )]
    let bless = std::env::var_os("SIMLINT_BLESS").is_some();
    if bless {
        fs::write(&golden, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|_| panic!("missing golden {name}; run with SIMLINT_BLESS=1"));
    assert_eq!(
        actual, expected,
        "diagnostics for {name} diverged from the golden (SIMLINT_BLESS=1 regenerates)"
    );
}

#[test]
fn fixtures_match_goldens() {
    let mut roots: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    roots.sort();
    assert!(!roots.is_empty(), "fixture corpus is empty");
    for root in roots {
        let name = root.file_name().unwrap().to_string_lossy().into_owned();
        let diags = simlint::lint_workspace(&root).unwrap();
        check_golden(&format!("{name}.expected"), &render(&diags));
    }
}
