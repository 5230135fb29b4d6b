//! Unit tests for the `naive-twin` rule over synthetic mini-workspaces,
//! with custom entries and indexed-log lists so the tests are independent
//! of the real workspace's registry.

use simlint::twin::{self, TwinEntry};
use simlint::{Diagnostic, Model};

fn model(files: &[(&str, &str)], tests: &[(&str, &str)]) -> Model {
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect()
    };
    Model::from_sources(&own(files), &own(tests))
}

fn run_twin(m: &Model, entries: &[TwinEntry], logs: &[&str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    twin::check(&m.files, &m.test_idents, entries, logs, &mut out);
    out.sort();
    out
}

const QUERY_ENTRY: TwinEntry = TwinEntry {
    type_name: "Series",
    fn_name: "compute",
    anchor_file: "crates/demo/src/series.rs",
};

const SERIES_OK: &str = r"
    struct Series;
    impl Series {
        pub fn compute(&self) -> f64 { 1.0 }
        pub fn compute_naive(&self) -> f64 { 1.0 }
    }
";

#[test]
fn twin_present_and_tested_is_clean() {
    let m = model(
        &[("crates/demo/src/series.rs", SERIES_OK)],
        &[(
            "crates/demo/tests/diff.rs",
            "fn t() { assert_eq!(Series.compute(), Series.compute_naive()); }",
        )],
    );
    assert_eq!(run_twin(&m, &[QUERY_ENTRY], &[]), Vec::new());
}

#[test]
fn missing_twin_is_an_error() {
    let m = model(
        &[(
            "crates/demo/src/series.rs",
            "struct Series; impl Series { pub fn compute(&self) -> f64 { 1.0 } }",
        )],
        &[],
    );
    let diags = run_twin(&m, &[QUERY_ENTRY], &[]);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("no `Series::compute_naive`"),
        "got: {}",
        diags[0].message
    );
}

#[test]
fn untested_twin_is_an_error() {
    let m = model(&[("crates/demo/src/series.rs", SERIES_OK)], &[]);
    let diags = run_twin(&m, &[QUERY_ENTRY], &[]);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("test"),
        "the finding must demand a test reference, got: {}",
        diags[0].message
    );
}

#[test]
fn windowed_queries_on_indexed_logs_are_discovered() {
    // No explicit entry: `WindowLog` is in the indexed-log list, so its
    // public `*_in` query needs a `*_naive` twin by discovery alone.
    let m = model(
        &[(
            "crates/demo/src/windowlog.rs",
            r"
            struct WindowLog;
            impl WindowLog {
                pub fn count_in(&self, from: u64, to: u64) -> usize { 0 }
            }
            ",
        )],
        &[],
    );
    let diags = run_twin(&m, &[], &["WindowLog"]);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("`WindowLog::count_naive`"),
        "got: {}",
        diags[0].message
    );
}
