//! `retry_storm`: `lab resilience`'s retry-storm cell. SocialNetwork under
//! 800 ms deadlines, up to 4 attempts with 50 ms jittered backoff, and users
//! who re-issue half of their failed requests, attacked by a full Grunt
//! campaign. The only workload on the resilience paths: deadline queues,
//! retries and backoff draws.
//!
//! Everything that needs the resilience layer lives in this file, so the
//! benchmark can be built against a tree that predates it by leaving this
//! workload out.

use apps::SocialNetwork;
use grunt::{CommanderConfig, GruntCampaign, ProfilerConfig};
use microsim::{
    BreakerPolicy, Outcome, RequestFilter, ResilienceConfig, ResiliencePolicy, RetryPolicy,
    SimConfig, Simulation,
};
use simnet::{SimDuration, SimTime};
use workload::ClosedLoopUsers;

use super::{Check, Pass, Workload, WARMUP};
use crate::stats::Digest;
use crate::trace::Recorder;

/// Sizes of the `retry_storm` workload.
#[derive(Debug, Clone, Copy)]
pub struct RetryStorm {
    /// Users, and the population the deployment is provisioned for.
    pub users: usize,
    /// Baseline window after warm-up.
    pub baseline: SimDuration,
    /// Attack window.
    pub attack: SimDuration,
}

impl RetryStorm {
    /// The benchmark's size: `lab resilience`'s full-fidelity cell.
    pub const FULL: RetryStorm = RetryStorm {
        users: 5_000,
        baseline: SimDuration::from_secs(60),
        attack: SimDuration::from_secs(300),
    };

    /// The smoke test's size.
    pub const SMOKE: RetryStorm = RetryStorm {
        users: 600,
        baseline: SimDuration::from_secs(5),
        attack: SimDuration::from_secs(40),
    };
}

/// `lab resilience`'s user retry probability.
const USER_RETRY: f64 = 0.5;
/// Pending wheel events must stay under this bound.
const PENDING_LIMIT: usize = 10_000;

/// `lab resilience`'s retry-storm policy.
fn storm_policy() -> ResilienceConfig {
    ResilienceConfig::uniform(ResiliencePolicy {
        deadline: Some(SimDuration::from_millis(800)),
        retry: RetryPolicy {
            max_attempts: 4,
            backoff_base: SimDuration::from_millis(50),
            jitter: 0.1,
        },
        breaker: BreakerPolicy::disabled(),
        queue_bound: None,
    })
}

/// A fresh deployment with the storm policy and its population.
#[derive(Debug)]
pub struct Setup {
    sim: Simulation,
    seed: u64,
}

/// The resilience outcome of a pass.
#[derive(Debug)]
pub struct Artifact {
    amplification: f64,
    timed_out: u64,
    pending_max: usize,
}

impl Workload for RetryStorm {
    type Setup = Setup;
    type Artifact = Artifact;
    const CONSUMES_SETUP: bool = true;

    fn setup(&self, seed: u64, rec: &mut Recorder) -> Setup {
        let app = rec.call("apps", "generate", |_| SocialNetwork::new(self.users));
        let cfg = SimConfig::default().seed(seed).resilience(storm_policy());
        let mut sim = rec.call("microsim", "new", |_| {
            Simulation::new(app.topology().clone(), cfg)
        });
        let users = rec.call("workload", "build", |_| {
            ClosedLoopUsers::new(
                self.users,
                app.browsing_model(),
                super::population_seed(seed),
            )
            .with_retry(USER_RETRY)
        });
        sim.add_agent(Box::new(users));
        Setup { sim, seed }
    }

    fn pass(&self, setup: &mut Setup, rec: &mut Recorder) -> (Pass, Artifact) {
        let seed = setup.seed;
        let sim = &mut setup.sim;
        rec.simulate(sim, "microsim", "run_until", |s| {
            s.run_until(SimTime::ZERO + WARMUP);
        });
        let base_from = sim.now();
        rec.simulate(sim, "microsim", "run_until", |s| {
            s.run_until(base_from + self.baseline);
        });
        let base_to = sim.now();
        // `GruntCampaign::run` is `profile` followed by `attack_with`; the
        // two calls are made separately so each gets its own span.
        let before = sim.metrics().request_log().len();
        let profile_from = sim.now();
        let profile = rec.simulate(sim, "grunt", "profile", |s| {
            GruntCampaign::profile(
                s,
                ProfilerConfig {
                    seed: super::profiler_seed(seed),
                    ..ProfilerConfig::default()
                },
            )
        });
        let profiled = sim.metrics().request_log().len() - before;
        let commander = CommanderConfig {
            seed: super::commander_seed(seed),
            ..CommanderConfig::default()
        };
        let campaign = rec.simulate(sim, "grunt", "attack_with", |s| {
            GruntCampaign::attack_with(s, profile, commander, self.attack)
        });
        let (att_from, att_to) = (
            campaign.attack_started + super::ramp(self.attack),
            campaign.attack_started + self.attack,
        );
        let ok = RequestFilter {
            is_attack: Some(false),
            request_type: None,
            outcome: Some(Outcome::Ok),
        };
        let m = sim.metrics();
        let goodput = |from: SimTime, to: SimTime| m.request_log().count_matching(from, to, ok);
        let base_ok = rec.call("microsim", "count_matching", |_| {
            goodput(base_from, base_to)
        });
        let att_ok = rec.call("microsim", "count_matching", |_| goodput(att_from, att_to));
        let base = super::legit_summary(rec, sim, base_from, base_to);
        let att = super::legit_summary(rec, sim, att_from, att_to);

        let counters = *m.resilience();
        let resolved = m.request_log().len() as u64;
        let first_attempts = resolved.saturating_sub(counters.retries);
        let amplification = counters.retry_amplification(first_attempts);
        let mut d = Digest::default();
        super::digest_sim(&mut d, sim);
        super::digest_profile(&mut d, &campaign.profile);
        super::digest_campaign(&mut d, &campaign);
        super::digest_summary(&mut d, &base);
        super::digest_summary(&mut d, &att);
        d.word(base_ok as u64)
            .word(att_ok as u64)
            .word(counters.retries)
            .word(counters.timed_out)
            .word(counters.shed)
            .word(counters.rejected)
            .word(sim.pending_deadlines() as u64);
        let probes = campaign.profile.requests_sent as f64;
        let pass = Pass {
            digest: d,
            sim_requests: rec.sim_requests(),
            counts: vec![
                ("microsim.requests", resolved as f64),
                ("microsim.access_log_entries", m.access_log().len() as f64),
                ("microsim.pending_events_max", rec.pending_max() as f64),
                ("microsim.retries", counters.retries as f64),
                ("microsim.timed_out", counters.timed_out as f64),
                ("microsim.shed", counters.shed as f64),
                ("microsim.retry_amplification", amplification),
                ("workload.users", self.users as f64),
                ("apps.services", sim.topology().num_services() as f64),
                (
                    "apps.request_types",
                    sim.topology().num_request_types() as f64,
                ),
                (
                    "grunt.profile_sim_s",
                    campaign
                        .profile
                        .finished_at
                        .saturating_since(profile_from)
                        .as_secs_f64(),
                ),
                ("grunt.probe_requests", probes),
                ("grunt.probe_share", probes / profiled.max(1) as f64),
                ("grunt.bursts", campaign.report.bursts.len() as f64),
                ("grunt.bots", campaign.bots_used as f64),
                (
                    "grunt.attack_requests",
                    campaign.report.requests_sent as f64,
                ),
                ("grunt.damage_factor", att.avg_ms / base.avg_ms.max(1.0)),
            ],
        };
        let artifact = Artifact {
            amplification,
            timed_out: counters.timed_out,
            pending_max: rec.pending_max(),
        };
        (pass, artifact)
    }

    fn verify(&self, setup: &Setup, a: Artifact) -> Vec<Check> {
        let deadlines = setup.sim.pending_deadlines();
        vec![
            (
                format!("retry amplification {:.3} > 1", a.amplification),
                a.amplification > 1.0,
            ),
            (
                format!("{} attempts timed out (> 0)", a.timed_out),
                a.timed_out > 0,
            ),
            (
                format!("pending deadlines {deadlines} <= users {}", self.users),
                deadlines <= self.users,
            ),
            (
                format!(
                    "pending wheel events stayed under {PENDING_LIMIT} after every call (max {})",
                    a.pending_max
                ),
                a.pending_max < PENDING_LIMIT,
            ),
        ]
    }
}
