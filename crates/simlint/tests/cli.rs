//! End-to-end CLI tests: exit codes, `--format` and `--list-rules`, all
//! against the `miniws` fixture workspace (which carries one deliberate
//! `bad-allow` violation plus the registry-drift findings a near-empty
//! workspace produces).

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
        stdout.contains("core/src/lib.rs:10: error[bad-allow]"),
        "expected the fixture violation, got:\n{stdout}"
    );
    // Deterministic ordering: the rendered (path, line, rule) triples of
    // the findings must already be sorted.
    let keys: Vec<&str> = stdout.lines().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "text output must be sorted");
    // Byte-for-byte determinism across runs.
    let again = simlint(&["--check", "--root", &root_arg()]);
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn list_rules_names_every_registered_rule() {
    let out = simlint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), simlint::registry::RULES.len());
    for rule in &simlint::registry::RULES {
        assert!(
            stdout.contains(rule.id) && stdout.contains(rule.severity.as_str()),
            "missing {} in:\n{stdout}",
            rule.id
        );
    }
}

#[test]
fn json_and_sarif_formats_are_machine_readable() {
    let json = simlint(&["--root", &root_arg(), "--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    let text = String::from_utf8(json.stdout).unwrap();
    assert!(text.trim_end().starts_with('[') && text.trim_end().ends_with(']'));
    assert!(text.contains("\"rule\":\"bad-allow\""));
    assert!(text.contains("\"severity\":\"error\""));

    let sarif = simlint(&["--root", &root_arg(), "--format", "sarif"]);
    assert_eq!(sarif.status.code(), Some(1));
    let text = String::from_utf8(sarif.stdout).unwrap();
    assert!(text.contains("\"version\":\"2.1.0\""));
    assert!(text.contains("\"ruleId\":\"bad-allow\""));
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(simlint(&["--format", "yaml"]).status.code(), Some(2));
    assert_eq!(simlint(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(simlint(&["--baseline", "f"]).status.code(), Some(2));
}
