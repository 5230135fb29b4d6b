//! The five workloads. Each is a fixed sequence of calls into the public
//! API of `apps`, `workload`, `microsim`, `grunt`, `telemetry` and
//! `defense`, copied from the `lab` experiment it stands for, with every
//! call wrapped in a [`Recorder`] span.

use microsim::Simulation;
use simnet::{SimDuration, SimTime};
use telemetry::LatencySummary;

use crate::stats::Digest;
use crate::trace::Recorder;

pub mod campaign;
pub mod forensics;
pub mod megacell;
pub mod profiling;
pub mod retry_storm;

/// The warm-up every scenario runs before measuring anything (the `lab`
/// scenarios' `WARMUP`).
pub const WARMUP: SimDuration = SimDuration::from_secs(10);

/// Attack windows exclude the commander's ramp-up, as `lab` does.
pub fn ramp(attack: SimDuration) -> SimDuration {
    SimDuration::from_secs(20).min(attack / 4)
}

/// One named correctness check and whether it held.
pub type Check = (String, bool);

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Digest of the pass's simulated results.
    pub digest: Digest,
    /// Simulated requests the pass worked on: those it simulated, or for
    /// `forensics`, those in the history it queried.
    pub sim_requests: u64,
    /// Per-layer counts and simulated outcomes, by metric name. Every pass
    /// of a run must give the same values.
    pub counts: Vec<(&'static str, f64)>,
}

/// A workload: set-up, one timed pass, and the checks run after it.
pub trait Workload {
    /// What set-up builds and a pass works on.
    type Setup;
    /// What a pass hands to its checks.
    type Artifact;
    /// `true` when a pass consumes its set-up (it advances the simulation
    /// set-up built), so every pass needs a set-up of its own.
    const CONSUMES_SETUP: bool;

    /// Builds the inputs for `seed`; timed as `setup_s`.
    fn setup(&self, seed: u64, rec: &mut Recorder) -> Self::Setup;
    /// One pass; timed as `wall_s`.
    fn pass(&self, setup: &mut Self::Setup, rec: &mut Recorder) -> (Pass, Self::Artifact);
    /// Correctness checks on a finished pass, outside the timed region.
    fn verify(&self, setup: &Self::Setup, artifact: Self::Artifact) -> Vec<Check>;
}

/// Seed of the closed-loop population, derived from the run seed.
pub fn population_seed(seed: u64) -> u64 {
    simnet::derive_seed(seed, "grunt_bench/users")
}

/// Seed of the Grunt profiler, derived from the run seed.
pub fn profiler_seed(seed: u64) -> u64 {
    simnet::derive_seed(seed, "grunt_bench/profiler")
}

/// Seed of the Grunt commander, derived from the run seed.
pub fn commander_seed(seed: u64) -> u64 {
    simnet::derive_seed(seed, "grunt_bench/commander")
}

/// Folds a simulation's end state into `d`: completed requests, RNG
/// stream positions and pending events.
pub fn digest_sim(d: &mut Digest, sim: &Simulation) {
    let (demand, trace) = sim.rng_fingerprint();
    d.word(sim.metrics().request_log().len() as u64)
        .word(demand)
        .word(trace)
        .word(sim.pending_events() as u64)
        .word(sim.now().as_micros());
}

/// Folds every field of a latency summary into `d`, bit for bit.
pub fn digest_summary(d: &mut Digest, s: &LatencySummary) {
    d.word(s.count as u64)
        .float(s.avg_ms)
        .float(s.p95_ms)
        .float(s.p99_ms)
        .float(s.max_ms);
}

/// Folds a profiler outcome into `d`: its dependency groups, probe
/// volume and finishing time.
pub fn digest_profile(d: &mut Digest, profile: &grunt::ProfilerOutcome) {
    for group in profile.groups.groups() {
        d.word(group.len() as u64);
        for id in group {
            d.word(id.index() as u64);
        }
    }
    d.word(profile.requests_sent)
        .word(profile.finished_at.as_micros());
}

/// Folds a campaign's attack-side outcome into `d`: bots, bursts and
/// their volumes.
pub fn digest_campaign(d: &mut Digest, campaign: &grunt::GruntCampaign) {
    d.word(campaign.bots_used as u64)
        .word(campaign.report.bursts.len() as u64)
        .word(campaign.report.total_volume())
        .word(campaign.report.requests_sent);
}

/// The legit-traffic latency summary of `[from, to)`, as a `telemetry`
/// span.
pub fn legit_summary(
    rec: &mut Recorder,
    sim: &Simulation,
    from: SimTime,
    to: SimTime,
) -> LatencySummary {
    rec.query(
        "telemetry",
        "summary",
        || LatencySummary::compute(sim.metrics(), telemetry::Traffic::Legit, None, from, to),
        |s| s.count as u64,
    )
}
