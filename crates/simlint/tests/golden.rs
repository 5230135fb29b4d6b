//! Golden-file tests: every fixture under `tests/fixtures/` is linted and
//! its rendered diagnostics compared line-for-line — rule id, file, line —
//! against the checked-in `.expected` file. Regenerate goldens with
//! `SIMLINT_BLESS=1 cargo test -p simlint`.

use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn render(diags: &[simlint::Diagnostic]) -> String {
    let mut s = diags
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    if !s.is_empty() {
        s.push('\n');
    }
    s
}

fn check_golden(name: &str, actual: &str) {
    let golden = fixtures_dir().join(name);
    if std::env::var_os("SIMLINT_BLESS").is_some() {
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
    let mut paths: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "fixture corpus is empty");
    for path in paths {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&path).unwrap();
        let diags = simlint::lint_source(&format!("fixtures/{stem}.rs"), &src);
        check_golden(&format!("{stem}.expected"), &render(&diags));
    }
}
