//! End-to-end CLI tests: exit codes and text output against the `miniws`
//! fixture workspace, whose near-empty tree defines none of the registered
//! indexed queries and so produces one registry-drift finding per entry.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn miniws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

fn simlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .output()
        .expect("spawn simlint")
}

fn root_arg() -> String {
    miniws().to_string_lossy().into_owned()
}

#[test]
fn violations_exit_1_with_sorted_text_findings() {
    let out = simlint(&["--check", "--root", &root_arg()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(
        stdout.contains("crates/defense/src/ids.rs:1: error[naive-twin]"),
        "expected the fixture's registry-drift finding, got:\n{stdout}"
    );
    // Deterministic ordering: the rendered findings must already be
    // sorted by (path, line, message).
    let keys: Vec<&str> = stdout.lines().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "text output must be sorted");
    // Byte-for-byte determinism across runs.
    let again = simlint(&["--check", "--root", &root_arg()]);
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(simlint(&["--format", "yaml"]).status.code(), Some(2));
    assert_eq!(simlint(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(simlint(&["--baseline", "f"]).status.code(), Some(2));
    let missing = miniws().join("no-such-dir").to_string_lossy().into_owned();
    assert_eq!(simlint(&["--root", &missing]).status.code(), Some(2));
}
