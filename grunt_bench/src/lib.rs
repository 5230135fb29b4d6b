//! `grunt_bench`: the repository's end-to-end benchmark.
//!
//! Five workloads drive the paper's profile → attack → analyse loop
//! through the public API of the simulator crates, each timed from
//! outside. A run reports the end-to-end metrics declared in
//! `BENCHMARK.json`, or, traced, the per-module ones; it checks the
//! simulated results and prints their digest. See `README.md`.

pub mod compare;
pub mod layers;
pub mod results;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use results::{Measured, Metrics, ResultLine};
use runner::{Budget, RunReport};
use workloads::campaign::Campaign;
use workloads::forensics::Forensics;
use workloads::megacell::Megacell;
use workloads::profiling::Profiling;
use workloads::retry_storm::RetryStorm;

/// The seed whose digests are recorded in [`EXPECTED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// Digest of each workload's first pass at full size with
/// [`DEFAULT_SEED`]. A change that only makes the program faster must
/// reproduce these exactly.
pub const EXPECTED_DIGESTS: &[(&str, &str)] = &[
    ("campaign", "8a0b3e82dc2b1f56"),
    ("profiling", "da5df3ed13fe087d"),
    ("megacell", "599a5a8e01854c2d"),
    ("forensics", "c5164019220e9bba"),
    ("retry_storm", "ffb0e0255fd8e324"),
];

/// Which size of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// The smoke test's reduced size.
    Smoke,
}

/// Runs workload `name`. Fails only for an unknown name.
pub fn run(
    name: &str,
    size: Size,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<RunReport, String> {
    let expected = EXPECTED_DIGESTS
        .iter()
        .find(|(w, _)| *w == name && size == Size::Full && seed == DEFAULT_SEED)
        .map(|(_, d)| *d);
    macro_rules! go {
        ($w:ty) => {
            runner::run(
                match size {
                    Size::Full => &<$w>::FULL,
                    Size::Smoke => &<$w>::SMOKE,
                },
                name,
                seed,
                budget,
                trace,
                expected,
            )
        };
    }
    Ok(match name {
        "campaign" => go!(Campaign),
        "profiling" => go!(Profiling),
        "megacell" => go!(Megacell),
        "forensics" => go!(Forensics),
        "retry_storm" => go!(RetryStorm),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// The result line a run prints last: whether every check held, how many
/// ran and failed, and each metric with its unit.
pub fn result_line(report: &RunReport, metrics: &[(&str, f64, &str)]) -> ResultLine {
    ResultLine {
        correct: report.failed() == 0,
        attempted: report.checks.len() as u64,
        failed: report.failed() as u64,
        metrics: Metrics(
            metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let unit = unit.to_string();
                    (name.to_string(), Measured { value, unit })
                })
                .collect(),
        ),
    }
}
