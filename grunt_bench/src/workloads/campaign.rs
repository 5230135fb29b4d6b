//! `campaign`: the paper's end-to-end pipeline in the shape of `lab
//! table1`'s damage-goal sweep. SocialNetwork on EC2 with the access log
//! on; warm-up and baseline, one Grunt profiling run, a checkpoint, then
//! one forked attack per damage goal, each followed by the legit-latency
//! analysis. The only workload with forks.

use apps::SocialNetwork;
use grunt::{CommanderConfig, GruntCampaign, ProfilerConfig};
use microsim::{PlatformProfile, SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::LatencySummary;
use workload::ClosedLoopUsers;

use super::{Check, Pass, Workload, WARMUP};
use crate::stats::Digest;
use crate::trace::Recorder;

/// Sizes of the `campaign` workload.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Closed-loop users driving the deployment.
    pub users: usize,
    /// Users the deployment is provisioned for.
    pub provision: usize,
    /// Baseline window after warm-up.
    pub baseline: SimDuration,
    /// Attack window of each fork.
    pub attack: SimDuration,
    /// One fork per damage goal (ms), as in `lab table1`'s sweep.
    pub goals: &'static [f64],
}

impl Campaign {
    /// The benchmark's size: `lab table1`'s EC2-7K cell (7 000 users on a
    /// deployment provisioned for 12 000) and its four damage goals, with
    /// the 40 s baseline of its fast fidelity and 300 s of attack per goal,
    /// between its fast (180 s) and full (1 200 s) windows.
    pub const FULL: Campaign = Campaign {
        users: 7_000,
        provision: 12_000,
        baseline: SimDuration::from_secs(40),
        attack: SimDuration::from_secs(300),
        goals: &[600.0, 800.0, 1_000.0, 1_200.0],
    };

    /// The smoke test's size.
    pub const SMOKE: Campaign = Campaign {
        users: 300,
        provision: 600,
        baseline: SimDuration::from_secs(20),
        attack: SimDuration::from_secs(60),
        goals: &[600.0, 1_200.0],
    };
}

/// A fresh simulation with its population, ready for warm-up.
#[derive(Debug)]
pub struct Setup {
    sim: Simulation,
    seed: u64,
}

/// What the checks need from a pass.
#[derive(Debug)]
pub struct Artifact {
    fork0: Simulation,
    baseline: (SimTime, SimTime),
    attack: (SimTime, SimTime),
    damage: Vec<f64>,
    multi_member_groups: usize,
}

impl Workload for Campaign {
    type Setup = Setup;
    type Artifact = Artifact;
    const CONSUMES_SETUP: bool = true;

    fn setup(&self, seed: u64, rec: &mut Recorder) -> Setup {
        let app = rec.call("apps", "generate", |_| SocialNetwork::new(self.provision));
        let cfg = SimConfig::default()
            .seed(seed)
            .platform(PlatformProfile::ec2());
        let mut sim = rec.call("microsim", "new", |_| {
            Simulation::new(app.topology().clone(), cfg)
        });
        let users = rec.call("workload", "build", |_| {
            ClosedLoopUsers::new(
                self.users,
                app.browsing_model(),
                super::population_seed(seed),
            )
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
        let profile_from = sim.now();
        let profiler = ProfilerConfig {
            seed: super::profiler_seed(seed),
            ..ProfilerConfig::default()
        };
        let before = sim.metrics().request_log().len();
        let profile = rec.simulate(sim, "grunt", "profile", |s| {
            GruntCampaign::profile(s, profiler)
        });
        let profiled_requests = sim.metrics().request_log().len() - before;
        let snapshot = rec
            .call("microsim", "checkpoint", |_| sim.checkpoint())
            .expect("population and profiler support snapshotting");

        let mut d = Digest::default();
        super::digest_sim(&mut d, sim);
        super::digest_profile(&mut d, &profile);
        let mut fork0 = None;
        let (mut bursts, mut bots, mut attack_requests) = (0u64, 0u64, 0u64);
        let mut damage = Vec::with_capacity(self.goals.len());
        let mut attack_window = (SimTime::ZERO, SimTime::ZERO);
        for &goal in self.goals {
            let mut fork = rec.call("microsim", "fork", |_| Simulation::from_snapshot(&snapshot));
            let commander = CommanderConfig {
                seed: super::commander_seed(seed),
                damage_goal_ms: goal,
                ..CommanderConfig::default()
            };
            let campaign = rec.simulate(&mut fork, "grunt", "attack_with", |s| {
                GruntCampaign::attack_with(s, profile.clone(), commander, self.attack)
            });
            attack_window = (
                campaign.attack_started + super::ramp(self.attack),
                campaign.attack_started + self.attack,
            );
            let base = super::legit_summary(rec, &fork, base_from, base_to);
            let att = super::legit_summary(rec, &fork, attack_window.0, attack_window.1);
            damage.push(att.avg_ms / base.avg_ms.max(1.0));
            super::digest_sim(&mut d, &fork);
            super::digest_campaign(&mut d, &campaign);
            super::digest_summary(&mut d, &base);
            super::digest_summary(&mut d, &att);
            bursts += campaign.report.bursts.len() as u64;
            bots += campaign.bots_used as u64;
            attack_requests += campaign.report.requests_sent;
            // Like `lab`, analyse each fork and let it go; fork 0 stays for
            // the checks.
            fork0.get_or_insert(fork);
        }

        let sim_requests = rec.sim_requests();
        let fork0 = fork0.expect("at least one damage goal");
        let probe_requests = profile.requests_sent as f64;
        let pass = Pass {
            digest: d,
            sim_requests,
            counts: vec![
                ("microsim.requests", sim_requests as f64),
                (
                    "microsim.access_log_entries",
                    fork0.metrics().access_log().len() as f64,
                ),
                ("microsim.pending_events_max", rec.pending_max() as f64),
                ("microsim.forks", self.goals.len() as f64),
                ("workload.users", self.users as f64),
                ("apps.services", fork0.topology().num_services() as f64),
                (
                    "apps.request_types",
                    fork0.topology().num_request_types() as f64,
                ),
                (
                    "grunt.profile_sim_s",
                    profile
                        .finished_at
                        .saturating_since(profile_from)
                        .as_secs_f64(),
                ),
                ("grunt.probe_requests", probe_requests),
                (
                    "grunt.probe_share",
                    probe_requests / profiled_requests.max(1) as f64,
                ),
                ("grunt.bursts", bursts as f64),
                ("grunt.bots", bots as f64),
                ("grunt.attack_requests", attack_requests as f64),
                (
                    "grunt.damage_factor",
                    damage.iter().sum::<f64>() / damage.len() as f64,
                ),
            ],
        };
        let artifact = Artifact {
            fork0,
            baseline: (base_from, base_to),
            attack: attack_window,
            damage,
            multi_member_groups: profile.groups.multi_member_groups().count(),
        };
        (pass, artifact)
    }

    fn verify(&self, _setup: &Setup, a: Artifact) -> Vec<Check> {
        let mut checks = vec![
            summary_matches_naive(&a.fork0, a.baseline.0, a.baseline.1, "fork 0 baseline"),
            summary_matches_naive(&a.fork0, a.attack.0, a.attack.1, "fork 0 attack"),
        ];
        checks.extend(defense_matches_naive(
            &a.fork0,
            a.baseline.0,
            a.attack.1,
            "fork 0",
        ));
        for (i, factor) in a.damage.iter().enumerate() {
            checks.push((
                format!("fork {i}: damage factor {factor:.2} > 1"),
                *factor > 1.0,
            ));
        }
        checks.push((
            "profile found a dependency group with more than one member".to_string(),
            a.multi_member_groups > 0,
        ));
        checks
    }
}

/// Check that the indexed latency summary of `[from, to)` matches the
/// naive full scan, for every traffic class.
fn summary_matches_naive(sim: &Simulation, from: SimTime, to: SimTime, label: &str) -> Check {
    use telemetry::Traffic;
    let m = sim.metrics();
    let ok = [Traffic::Legit, Traffic::Attack, Traffic::All]
        .into_iter()
        .all(|t| {
            LatencySummary::compute(m, t, None, from, to)
                == LatencySummary::compute_naive(m, t, None, from, to)
        });
    (
        format!("{label}: indexed latency summary equals naive scan"),
        ok,
    )
}

/// Check that the indexed IDS and rate-shield analyses of `[from, to)`
/// match their naive full scans.
fn defense_matches_naive(sim: &Simulation, from: SimTime, to: SimTime, label: &str) -> [Check; 2] {
    let m = sim.metrics();
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let shield = defense::RateShield::paper_default();
    [
        (
            format!("{label}: indexed IDS report equals naive scan"),
            ids.analyze_window(m, from, to) == ids.analyze_naive(m, from, to),
        ),
        (
            format!("{label}: indexed shield verdicts equal naive scan"),
            shield.analyze_window(m, from, to) == shield.analyze_naive(m, from, to),
        ),
    ]
}
