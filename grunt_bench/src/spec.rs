//! The benchmark's declaration, read from `BENCHMARK.json` at the root of
//! the repository: workloads, metric names, units, directions and bounds.
//! The binary reports exactly the metrics declared there, so the file and
//! the program cannot drift apart.

use serde::Deserialize;

/// `BENCHMARK.json`, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parsed declaration. Keys the benchmark does not use are ignored.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Spec {
    /// Host seconds one run measures.
    pub run_seconds: u64,
    /// The workloads, in the order `--all` runs them.
    pub workloads: Vec<WorkloadSpec>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<EndToEndSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<LayerSpec>,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as `--workload` takes it.
    pub name: String,
    /// Why the benchmark has it.
    pub why: String,
}

/// One declared end-to-end metric.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

impl EndToEndSpec {
    /// `true` when a lower value is better.
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }
}

/// One declared per-layer metric.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct LayerSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: String,
}

impl Spec {
    /// The compiled-in declaration.
    ///
    /// # Panics
    ///
    /// Panics if `BENCHMARK.json` does not parse; the smoke test parses it,
    /// so a malformed file fails there first.
    pub fn load() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// The end-to-end metric `name`.
    pub fn end_to_end(&self, name: &str) -> Option<&EndToEndSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The per-layer metric `name`.
    pub fn per_layer(&self, name: &str) -> Option<&LayerSpec> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}
