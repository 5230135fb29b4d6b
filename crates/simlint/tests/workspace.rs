//! The workspace self-check — the tree this crate lives in must lint clean —
//! plus mutation tests proving every workspace-level rule bites on the
//! *real* tree: strip an `Arc::make_mut` and `cow-discipline` fails; inject an
//! allocation into a hot function and `hot-path-alloc` fails; rename a
//! `_naive` twin away and `naive-twin` fails.

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
fn stripping_make_mut_from_a_spine_mutation_is_caught() {
    let diags = lint_with_patched_file("crates/simnet/src/seglog.rs", |src| {
        src.replace("Arc::make_mut(&mut self.sealed).push(", "self.sealed.push(")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[cow-discipline]") && d.contains("sealed")),
        "expected a cow-discipline finding for the undisciplined push, got: {diags:?}"
    );
}

#[test]
fn get_mut_on_a_spine_is_caught() {
    let diags = lint_with_patched_file("crates/simnet/src/seglog.rs", |src| {
        src.replace(
            "Arc::make_mut(&mut self.sealed).push(",
            "Arc::get_mut(&mut self.sealed).unwrap().push(",
        )
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[cow-discipline]") && d.contains("get_mut")),
        "expected a cow-discipline finding for the get_mut sidestep, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_a_hot_function_is_caught() {
    let diags = lint_with_patched_file("crates/microsim/src/kernel.rs", |src| {
        src.replace(
            "fn reroute_drained_waiters(&mut self, sidx: usize) -> usize {",
            "fn reroute_drained_waiters(&mut self, sidx: usize) -> usize {\n        let scratch: Vec<u8> = Vec::with_capacity(64);\n        drop(scratch);",
        )
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[hot-path-alloc]") && d.contains("Vec::with_capacity")),
        "expected a hot-path-alloc finding for the injected allocation, got: {diags:?}"
    );
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
fn renaming_a_hot_entry_point_is_itself_a_finding() {
    // Config drift must not silently hollow the rule out: when a seeded
    // entry point no longer resolves, simlint says so instead of passing.
    let diags = lint_with_patched_file("crates/microsim/src/kernel.rs", |src| {
        src.replace("pub(crate) fn pump(", "pub(crate) fn pump_events(")
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[hot-path-alloc]") && d.contains("Kernel::pump")),
        "expected a seed-drift finding for Kernel::pump, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_a_seal_time_index_build_is_caught() {
    // The request index is built only through `SegLog::push`'s generic
    // `I::build(...)` call; this proves that call keeps it in the hot set.
    let diags = lint_with_patched_file("crates/microsim/src/seglog.rs", |src| {
        src.replace(
            "    fn build(records: &[RequestRecord]) -> RequestIndex {",
            "    fn build(records: &[RequestRecord]) -> RequestIndex {\n        let label = format!(\"{}\", records.len());\n        drop(label);",
        )
    });
    assert!(
        diags.iter().any(|d| d.contains("[hot-path-alloc]")
            && d.contains("`format!`")
            && d.contains("SegLog::push")
            && d.contains("seglog.rs")),
        "expected a hot-path-alloc finding in the seal-time index build, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_the_deadline_arm_path_is_caught() {
    // DeadlineQueues::arm is a HOT_SEEDS entry of its own: every deadlined
    // submission runs it, so it must stay allocation-free.
    let diags = lint_with_patched_file("crates/microsim/src/resilience.rs", |src| {
        src.replace(
            ") -> Option<(SimTime, u32)> {",
            ") -> Option<(SimTime, u32)> {\n        let scratch: Vec<u8> = Vec::with_capacity(64);\n        drop(scratch);",
        )
    });
    assert!(
        diags.iter().any(|d| d.contains("[hot-path-alloc]")
            && d.contains("Vec::with_capacity")
            && d.contains("resilience.rs")),
        "expected a hot-path-alloc finding in the deadline arm path, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_the_failure_path_is_caught() {
    // Kernel::fail_attempt runs per timeout/shed/rejection — O(requests)
    // on a shedding topology.
    let diags = lint_with_patched_file("crates/microsim/src/kernel.rs", |src| {
        src.replace(
            "        reap_now: bool,\n    ) {",
            "        reap_now: bool,\n    ) {\n        let label = format!(\"job {job}\");\n        drop(label);",
        )
    });
    assert!(
        diags.iter().any(|d| d.contains("[hot-path-alloc]")
            && d.contains("`format!`")
            && d.contains("kernel.rs")),
        "expected a hot-path-alloc finding in the failure path, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_the_timer_arena_is_caught() {
    // ThinkArena::schedule is reachable only through the population seeds;
    // this proves the new HOT_SEEDS entries actually extend the hot set.
    let diags = lint_with_patched_file("crates/workload/src/arena.rs", |src| {
        src.replace(
            "pub fn schedule(&mut self, now: SimTime, slot: u32, tick: u64) -> bool {",
            "pub fn schedule(&mut self, now: SimTime, slot: u32, tick: u64) -> bool {\n        let scratch: Vec<u8> = Vec::with_capacity(64);\n        drop(scratch);",
        )
    });
    assert!(
        diags.iter().any(|d| d.contains("[hot-path-alloc]")
            && d.contains("Vec::with_capacity")
            && d.contains("arena.rs")),
        "expected a hot-path-alloc finding in the timer arena, got: {diags:?}"
    );
}

#[test]
fn injecting_an_allocation_into_the_population_wake_path_is_caught() {
    let diags = lint_with_patched_file("crates/workload/src/users.rs", |src| {
        src.replace(
            "fn fire_slot(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {",
            "fn fire_slot(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {\n        let label = format!(\"slot {slot}\");\n        drop(label);",
        )
    });
    assert!(
        diags.iter().any(|d| d.contains("[hot-path-alloc]")
            && d.contains("`format!`")
            && d.contains("users.rs")),
        "expected a hot-path-alloc finding on the wake path, got: {diags:?}"
    );
}

#[test]
fn get_mut_on_the_population_model_spine_is_caught() {
    // ClosedLoopUsers is a registered COW type through its Arc-typed
    // `model` field.
    let diags = lint_with_patched_file("crates/workload/src/users.rs", |src| {
        src.replace(
            "fn fire_slot(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {",
            "fn fire_slot(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {\n        let _ = std::sync::Arc::get_mut(&mut self.model);",
        )
    });
    assert!(
        diags
            .iter()
            .any(|d| d.contains("[cow-discipline]") && d.contains("model")),
        "expected a cow-discipline finding for the model spine, got: {diags:?}"
    );
}
