//! Unit tests for the symbol-aware graph rules over synthetic
//! mini-workspaces: hotness propagation (including the cold-trait stop
//! list), hot-chain rendering, seed-drift diagnostics, severity split, and
//! naive-twin resolution — all with custom seeds/entries so the tests are
//! independent of the real workspace's registry.

use simlint::graph::FnGraph;
use simlint::hotpath::{self, Seed};
use simlint::registry::Severity;
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

fn run_hotpath(m: &Model, seeds: &[Seed]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hotpath::check(&m.files, seeds, &mut out);
    out.sort();
    out
}

const ENGINE_SEED: Seed = Seed {
    type_name: "Engine",
    fn_name: "tick",
    anchor_file: "crates/demo/src/engine.rs",
};

#[test]
fn hotness_propagates_through_calls_and_renders_the_chain() {
    let m = model(
        &[(
            "crates/demo/src/engine.rs",
            r"
            struct Engine;
            impl Engine {
                pub fn tick(&mut self) { dispatch(self); }
            }
            fn dispatch(e: &mut Engine) { grow_buffer(); }
            fn grow_buffer() { let v: Vec<u8> = Vec::with_capacity(8); }
            fn cold_helper() { let v: Vec<u8> = Vec::with_capacity(8); }
            ",
        )],
        &[],
    );
    let diags = run_hotpath(&m, &[ENGINE_SEED]);
    assert_eq!(diags.len(), 1, "only the hot allocation fires: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, "hot-path-alloc");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("Engine::tick → dispatch → grow_buffer"),
        "chain missing from: {}",
        d.message
    );
}

#[test]
fn hotness_stops_at_cold_trait_impls_and_fn_names() {
    let m = model(
        &[(
            "crates/demo/src/engine.rs",
            r#"
            struct Engine { buf: Vec<u8> }
            impl Engine {
                pub fn tick(&mut self) { let copy = self.buf.clone(); snapshot(self); }
            }
            fn snapshot(e: &Engine) { let _s = e.serialize(); }
            impl Clone for Engine {
                fn clone(&self) -> Engine { Engine { buf: self.buf.to_vec() } }
            }
            impl Engine {
                fn serialize(&self) -> String { format!("{}", self.buf.len()) }
            }
            "#,
        )],
        &[],
    );
    let diags = run_hotpath(&m, &[ENGINE_SEED]);
    // `.clone()` in the hot body itself is a warning; the Clone impl's
    // `.to_vec()` and serialize's `format!` are cold and never fire.
    assert_eq!(diags.len(), 1, "cold bodies must not fire: {diags:?}");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("`.clone()`"));
}

#[test]
fn stable_sorts_are_hot_allocations_and_unstable_sorts_are_not() {
    let m = model(
        &[(
            "crates/demo/src/engine.rs",
            r"
            struct Engine { a: Vec<u64>, b: Vec<(u64, u64)> }
            impl Engine {
                pub fn tick(&mut self) {
                    self.a.sort();
                    self.b.sort_by(|x, y| x.cmp(y));
                    self.b.sort_by_key(|e| e.0);
                    self.b.sort_by_cached_key(|e| e.1);
                    self.a.sort_unstable();
                    self.b.sort_unstable_by(|x, y| x.cmp(y));
                    self.b.sort_unstable_by_key(|e| (e.0, e.1));
                    let sort = 3;
                }
            }
            ",
        )],
        &[],
    );
    let diags = run_hotpath(&m, &[ENGINE_SEED]);
    let flagged: Vec<&str> = ["sort", "sort_by", "sort_by_key", "sort_by_cached_key"]
        .into_iter()
        .filter(|name| {
            diags
                .iter()
                .any(|d| d.message.contains(&format!("`.{name}()`")))
        })
        .collect();
    assert_eq!(
        flagged,
        ["sort", "sort_by", "sort_by_key", "sort_by_cached_key"],
        "every stable sort fires: {diags:?}"
    );
    assert_eq!(
        diags.len(),
        4,
        "unstable sorts and a `sort` binding stay quiet: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn unresolved_seed_is_a_config_drift_finding() {
    let m = model(&[("crates/demo/src/engine.rs", "fn unrelated() {}")], &[]);
    let diags = run_hotpath(&m, &[ENGINE_SEED]);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/demo/src/engine.rs");
    assert!(
        diags[0].message.contains("`Engine::tick` not found"),
        "got: {}",
        diags[0].message
    );
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

#[test]
fn fn_graph_resolves_qualified_and_method_calls() {
    let m = model(
        &[(
            "crates/demo/src/lib.rs",
            r"
            struct A;
            impl A {
                pub fn go(&self) { A::helper(); free(); self.finish(); }
                fn helper() {}
                fn finish(&self) {}
            }
            fn free() {}
            ",
        )],
        &[],
    );
    let g = FnGraph::build(&m.files);
    let (hot, missing) = g.hot_set(&[("A", "go")]);
    assert!(missing.is_empty());
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert_eq!(names, ["A::go", "A::helper", "A::finish", "free"]);
}

#[test]
fn a_call_on_a_type_parameter_reaches_every_trait_impl_of_that_name() {
    // `SegLog::push` seals through `I::build(...)`: the lexer cannot know
    // which index type `I` is, so the call must reach every trait impl of
    // `build` (and no inherent `build`), or seal-time allocations would
    // drop out of the hot set.
    let m = model(
        &[(
            "crates/demo/src/lib.rs",
            r"
            trait Index<T> { fn build(items: &[T]) -> Self; }
            struct Log<T, I> { tail: Vec<T>, index: I }
            impl<T, I: Index<T>> Log<T, I> {
                pub fn push(&mut self) { self.index = I::build(&self.tail); }
            }
            struct Sorted(Vec<u64>);
            impl Index<u64> for Sorted {
                fn build(items: &[u64]) -> Self { Sorted(items.to_vec()) }
            }
            struct Graph;
            impl Graph {
                fn build() -> Graph { let v: Vec<u8> = Vec::new(); Graph }
            }
            ",
        )],
        &[],
    );
    let g = FnGraph::build(&m.files);
    let (hot, missing) = g.hot_set(&[("Log", "push")]);
    assert!(missing.is_empty());
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert_eq!(names, ["Log::push", "Sorted::build"]);
    let diags = run_hotpath(
        &m,
        &[Seed {
            type_name: "Log",
            fn_name: "push",
            anchor_file: "crates/demo/src/lib.rs",
        }],
    );
    assert_eq!(
        diags.len(),
        1,
        "only the trait impl's copy fires: {diags:?}"
    );
    assert!(
        diags[0].message.contains("`.to_vec()`") && diags[0].message.contains("Log::push"),
        "got: {}",
        diags[0].message
    );
}

#[test]
fn a_call_on_a_type_parameter_reaches_a_trait_impl_for_the_unit_type() {
    // `SegLog<T, I = ()>` seals through `I::build(...)`, and `()` is the
    // index of every plain log: its `build` is a trait method, reachable
    // from `I::build` and not from a plain call to a free `build`.
    let m = model(
        &[(
            "crates/demo/src/lib.rs",
            r"
            trait SegIndex<T> { fn build(items: &[T]) -> Self; }
            impl<T> SegIndex<T> for () {
                fn build(_items: &[T]) -> Self {}
            }
            struct Log<T, I> { tail: Vec<T>, index: I }
            impl<T, I: SegIndex<T>> Log<T, I> {
                pub fn push(&mut self) { self.index = I::build(&self.tail); }
            }
            struct Other;
            impl Other {
                pub fn go(&self) { build(); }
            }
            ",
        )],
        &[],
    );
    let g = FnGraph::build(&m.files);
    let (hot, missing) = g.hot_set(&[("Log", "push")]);
    assert!(missing.is_empty());
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert_eq!(names, ["()::build", "Log::push"]);
    let (hot, _) = g.hot_set(&[("Other", "go")]);
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert!(!names.contains(&"()::build".to_string()), "got: {names:?}");
}

#[test]
fn trait_default_bodies_are_reached_through_the_trait_not_by_plain_calls() {
    // A trait's body-less declarations are not functions, and its default
    // bodies are methods of the trait: `I::rebuild(..)` reaches the default
    // body (and its `Self::build(..)` every impl of `build`), while plain
    // `build()`/`rebuild()` calls name free functions and reach neither.
    let m = model(
        &[(
            "crates/demo/src/lib.rs",
            r"
            trait SegIndex<T> {
                fn build(items: &[T]) -> Self;
                fn rebuild(items: &[T]) -> Self { Self::build(items) }
            }
            impl<T> SegIndex<T> for () {
                fn build(_items: &[T]) -> Self {}
            }
            struct Log<T, I> { tail: Vec<T>, index: I }
            impl<T, I: SegIndex<T>> Log<T, I> {
                pub fn push(&mut self) { self.index = I::rebuild(&self.tail); }
            }
            struct Other;
            impl Other {
                pub fn go(&self) { build(); rebuild(); }
            }
            ",
        )],
        &[],
    );
    let g = FnGraph::build(&m.files);
    let (hot, missing) = g.hot_set(&[("Log", "push")]);
    assert!(missing.is_empty());
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert_eq!(names, ["SegIndex::rebuild", "()::build", "Log::push"]);
    let (hot, _) = g.hot_set(&[("Other", "go")]);
    let names: Vec<String> = hot.keys().map(|&id| g.qualified_name(id)).collect();
    assert_eq!(names, ["Other::go"]);
}
