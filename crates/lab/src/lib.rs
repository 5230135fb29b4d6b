//! The experiment laboratory: one runner per table and figure of the paper.
//!
//! Each experiment in [`experiments`] reproduces one artifact of the
//! evaluation section (see DESIGN.md for the full index):
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`experiments::fig1`] | Fig 1 — bottleneck utilisation + RT timeline |
//! | [`experiments::table1`] | Tables I & III — damage across cloud settings |
//! | [`experiments::fig11`] | Fig 11 — pairwise interference profiling curves |
//! | [`experiments::fig12`] | Fig 12 — dependency graph, profiling, groups |
//! | [`experiments::fig13`] | Fig 13 — 100 ms zoom-in under attack |
//! | [`experiments::fig14`] | Fig 14 — 1 s CloudWatch view, no scaling |
//! | [`experiments::fig15`] | Fig 15 — bursty trace with auto-scaling |
//! | [`experiments::fig16`] | Fig 16 — profiler accuracy vs baseline load |
//! | [`experiments::table4`] | Table IV — live attacks on µBench apps |
//! | [`experiments::ablations`] | §VII — Tail attack / brute force comparison |
//! | [`experiments::model_check`] | §III — analytic model vs simulator |
//! | [`experiments::megacell`] | 100k-user closed-loop population cell |
//! | [`experiments::mitigation`] | §VI — reduce hotspot sharing |
//! | [`experiments::resilience`] | Grunt vs deadlines, retries, breakers, shedding |
//!
//! Run them through the `lab` binary:
//!
//! ```text
//! cargo run --release -p lab --bin lab -- all --fast
//! cargo run --release -p lab --bin lab -- table1
//! ```
//!
//! Every runner has the one signature `fn run(&RunOpts) -> Report` and is
//! listed in [`experiments::ALL`]; the `lab` binary writes the returned
//! markdown [`report::Report`] under `results/`. Multi-cell experiments
//! sweep their cells through [`sweep::map_cells`], so `--jobs` applies to
//! every one of them.

pub mod experiments;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use report::Report;
pub use scenario::{AttackRun, Scenario, WarmBase, WarmProfiled};

/// How to execute experiments: duration scaling and sweep parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Duration scaling.
    pub fidelity: Fidelity,
    /// Max sweep cells in flight (see [`sweep::map_cells`]).
    pub jobs: usize,
}

impl RunOpts {
    /// Serial run at the given fidelity.
    pub fn new(fidelity: Fidelity) -> Self {
        RunOpts { fidelity, jobs: 1 }
    }

    /// Sets the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Controls experiment duration: `Full` uses paper-scale windows (20-minute
/// attacks), `Fast` shrinks everything for smoke tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Paper-scale durations.
    Full,
    /// Shortened durations for CI / benches.
    Fast,
}

impl Fidelity {
    /// Scales a duration in seconds.
    pub fn secs(self, full: u64, fast: u64) -> simnet::SimDuration {
        match self {
            Fidelity::Full => simnet::SimDuration::from_secs(full),
            Fidelity::Fast => simnet::SimDuration::from_secs(fast),
        }
    }

    /// Picks between two values.
    pub fn pick<T>(self, full: T, fast: T) -> T {
        match self {
            Fidelity::Full => full,
            Fidelity::Fast => fast,
        }
    }
}
