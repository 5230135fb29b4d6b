//! The workspace self-check — the tree this crate lives in must lint clean —
//! plus mutation tests proving `naive-twin` bites on the *real* tree: rename
//! a `_naive` twin away, or a registered entry point, and it fails.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    simlint::find_workspace_root(&manifest).expect("workspace root above simlint")
}

#[test]
fn workspace_is_clean() {
    let diags = simlint::lint_workspace(&workspace_root()).unwrap();
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Lints the real workspace with one file's text rewritten by `patch`,
/// returning the rendered diagnostics. The patch must change the text —
/// a no-op means the mutation site moved and the test is stale.
fn lint_with_patched_file(path: &str, patch: impl Fn(&str) -> String) -> Vec<String> {
    let (mut sources, test_sources) = simlint::Model::load_sources(&workspace_root()).unwrap();
    let entry = sources
        .iter_mut()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("{path} not in the scanned workspace"));
    let patched = patch(&entry.1);
    assert_ne!(patched, entry.1, "patch for {path} matched nothing");
    entry.1 = patched;
    let model = simlint::Model::from_sources(&sources, &test_sources);
    simlint::lint_model(&model)
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn renaming_a_naive_twin_away_is_caught() {
    let diags = lint_with_patched_file("crates/telemetry/src/latency.rs", |src| {
        src.replace("pub fn compute_naive(", "pub fn compute_reference(")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[naive-twin]") && d.contains("compute_naive")),
        "expected a naive-twin finding for the missing twin, got: {diags:?}"
    );
}

#[test]
fn renaming_a_registered_entry_point_is_a_finding() {
    // Registry drift must not silently hollow the rule out: when a
    // registered indexed query no longer resolves, simlint says so instead
    // of passing.
    let diags = lint_with_patched_file("crates/defense/src/ids.rs", |src| {
        src.replace("pub fn analyze_window(", "pub fn analyze_span(")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[naive-twin]") && d.contains("`Ids::analyze_window` not found")),
        "expected a registry-drift finding for Ids::analyze_window, got: {diags:?}"
    );
}
