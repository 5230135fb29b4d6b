//! `forensics`: the read side of the segmented-log indexes. Set-up
//! simulates one `campaign`-shaped history with the access log on; each
//! pass runs the same battery of window queries over it, the way the
//! paper's analysis reads a recorded attack. The kernel does no work in the
//! timed part.
//!
//! The history is simulated from a fixed seed, and `--seed` draws the
//! battery: the sub-second phase of its windows and the order it visits the
//! attack seconds in. The cost of reading a history tracks how hard the
//! attack in it hit (records matched differ by up to a tenth between
//! seeds), which would hide the index speed this workload measures.

use std::collections::BTreeMap;

use apps::SocialNetwork;
use defense::{Ids, IdsConfig, IdsReport, RateShield, ShieldVerdict};
use grunt::{CommanderConfig, GruntCampaign, ProfilerConfig};
use microsim::{PlatformProfile, SimConfig, Simulation};
use simnet::{RngStream, SimDuration, SimTime};
use telemetry::{LatencySeries, LatencySummary, Traffic};
use workload::ClosedLoopUsers;

use super::{Check, Pass, Workload, WARMUP};
use crate::stats::Digest;
use crate::trace::Recorder;

/// Sizes of the `forensics` workload.
#[derive(Debug, Clone, Copy)]
pub struct Forensics {
    /// Closed-loop users of the recorded history.
    pub users: usize,
    /// Users the deployment is provisioned for.
    pub provision: usize,
    /// Baseline window after warm-up.
    pub baseline: SimDuration,
    /// Attack window the battery walks, one second at a time.
    pub attack: SimDuration,
}

impl Forensics {
    /// The benchmark's size: `campaign`'s deployment and baseline, with one
    /// 600 s attack to read back.
    pub const FULL: Forensics = Forensics {
        users: 7_000,
        provision: 12_000,
        baseline: SimDuration::from_secs(40),
        attack: SimDuration::from_secs(600),
    };

    /// The smoke test's size.
    pub const SMOKE: Forensics = Forensics {
        users: 300,
        provision: 600,
        baseline: SimDuration::from_secs(20),
        attack: SimDuration::from_secs(60),
    };
}

/// Latency-summary window widths queried at every attack second.
const WIDTHS: [u64; 3] = [1, 5, 20];
/// Traffic classes, rotated across the widths from one second to the next.
const TRAFFIC: [Traffic; 3] = [Traffic::Legit, Traffic::Attack, Traffic::All];
/// The IDS and the shield audit every this many attack seconds.
const AUDIT_EVERY: u64 = 20;
/// Every this many-th query of each kind is compared with its naive twin.
const CHECK_EVERY: usize = 50;
/// Bucket width of the latency series.
const SERIES_WINDOW: SimDuration = SimDuration::from_millis(100);
/// Utilisation above which a window counts as a millibottleneck.
const SATURATED: f64 = 0.95;
/// Seed of the recorded history, whatever the run's seed.
const HISTORY_SEED: u64 = 1;

/// The recorded history, and the battery drawn for it.
#[derive(Debug)]
pub struct Setup {
    sim: Simulation,
    attack_from: SimTime,
    /// Added to every window end, below one second.
    phase: SimDuration,
    /// Attack seconds in the order the battery visits them.
    order: Vec<u64>,
    counts: Vec<(&'static str, f64)>,
}

/// Sampled query results, to compare with the naive scans.
#[derive(Debug, Default)]
pub struct Artifact {
    summaries: Vec<(SimTime, SimTime, Traffic, LatencySummary)>,
    ids: Vec<(SimTime, SimTime, IdsReport)>,
    shield: Vec<(SimTime, SimTime, BTreeMap<u32, ShieldVerdict>)>,
    series: Option<(SimTime, LatencySeries)>,
}

impl Workload for Forensics {
    type Setup = Setup;
    type Artifact = Artifact;
    const CONSUMES_SETUP: bool = false;

    fn setup(&self, seed: u64, rec: &mut Recorder) -> Setup {
        let mut draw = RngStream::from_label(seed, "grunt_bench/forensics");
        let phase = SimDuration::from_micros(draw.below(1_000_000) as u64);
        // The last second is left out so that `phase` keeps every window
        // inside the history.
        let mut order: Vec<u64> = (0..self.attack.as_micros() / 1_000_000 - 1).collect();
        draw.shuffle(&mut order);
        let seed = HISTORY_SEED;
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
        rec.simulate(&mut sim, "microsim", "run_until", |s| {
            s.run_until(SimTime::ZERO + WARMUP + self.baseline);
        });
        let before = sim.metrics().request_log().len();
        let profile_from = sim.now();
        let profile = rec.simulate(&mut sim, "grunt", "profile", |s| {
            GruntCampaign::profile(
                s,
                ProfilerConfig {
                    seed: super::profiler_seed(seed),
                    ..ProfilerConfig::default()
                },
            )
        });
        let profiled = sim.metrics().request_log().len() - before;
        let profile_sim_s = profile
            .finished_at
            .saturating_since(profile_from)
            .as_secs_f64();
        let commander = CommanderConfig {
            seed: super::commander_seed(seed),
            ..CommanderConfig::default()
        };
        let campaign = rec.simulate(&mut sim, "grunt", "attack_with", |s| {
            GruntCampaign::attack_with(s, profile, commander, self.attack)
        });
        let m = sim.metrics();
        let probes = campaign.profile.requests_sent as f64;
        let counts = vec![
            ("microsim.requests", m.request_log().len() as f64),
            ("microsim.access_log_entries", m.access_log().len() as f64),
            ("microsim.pending_events_max", rec.pending_max() as f64),
            ("workload.users", self.users as f64),
            ("apps.services", sim.topology().num_services() as f64),
            (
                "apps.request_types",
                sim.topology().num_request_types() as f64,
            ),
            ("grunt.profile_sim_s", profile_sim_s),
            ("grunt.probe_requests", probes),
            ("grunt.probe_share", probes / profiled.max(1) as f64),
            ("grunt.bursts", campaign.report.bursts.len() as f64),
            ("grunt.bots", campaign.bots_used as f64),
            (
                "grunt.attack_requests",
                campaign.report.requests_sent as f64,
            ),
        ];
        Setup {
            attack_from: campaign.attack_started,
            phase,
            order,
            sim,
            counts,
        }
    }

    fn pass(&self, setup: &mut Setup, rec: &mut Recorder) -> (Pass, Artifact) {
        let m = setup.sim.metrics();
        let ids = Ids::new(IdsConfig::default());
        let shield = RateShield::paper_default();
        let mut d = Digest::default();
        super::digest_sim(&mut d, &setup.sim);
        let mut artifact = Artifact::default();
        let (mut n_summary, mut n_audit) = (0usize, 0usize);
        for &k in &setup.order {
            let to = setup.attack_from + setup.phase + SimDuration::from_secs(k + 1);
            for (i, width) in WIDTHS.into_iter().enumerate() {
                let from = SimTime::from_micros(to.as_micros().saturating_sub(width * 1_000_000));
                let traffic = TRAFFIC[(k as usize + i) % TRAFFIC.len()];
                let s = rec.query(
                    "telemetry",
                    "summary",
                    || LatencySummary::compute(m, traffic, None, from, to),
                    |s| s.count as u64,
                );
                super::digest_summary(&mut d, &s);
                if n_summary % CHECK_EVERY == 0 {
                    artifact.summaries.push((from, to, traffic, s));
                }
                n_summary += 1;
            }
            if (k + 1) % AUDIT_EVERY == 0 {
                let from = SimTime::from_micros(to.as_micros() - AUDIT_EVERY * 1_000_000);
                let entries = m.access_log().count_in(from, to) as u64;
                let report = rec.query(
                    "defense",
                    "ids",
                    || ids.analyze_window(m, from, to),
                    |_| entries,
                );
                let verdicts = rec.query(
                    "defense",
                    "shield",
                    || shield.analyze_window(m, from, to),
                    |_| entries,
                );
                d.word(report.alerts().len() as u64)
                    .word(report.attacker_hits() as u64)
                    .word(verdicts.len() as u64);
                for v in verdicts.values() {
                    d.word(match v {
                        ShieldVerdict::Allowed => u64::MAX,
                        ShieldVerdict::Blocked(at) => at.as_micros(),
                    });
                }
                if n_audit % CHECK_EVERY == 0 {
                    artifact.ids.push((from, to, report));
                    artifact.shield.push((from, to, verdicts));
                }
                n_audit += 1;
            }
        }
        let horizon = setup.sim.now();
        let series = rec.query(
            "telemetry",
            "series",
            || LatencySeries::compute(m, Traffic::Legit, SERIES_WINDOW, horizon),
            |s| s.points().iter().map(|p| p.2 as u64).sum(),
        );
        for &(_, mean, count) in series.points() {
            d.float(mean).word(count as u64);
        }
        let bottlenecks = rec.call("telemetry", "millibottlenecks", |_| {
            telemetry::find_millibottlenecks(m, SATURATED)
        });
        d.word(bottlenecks.len() as u64);
        for b in &bottlenecks {
            d.word(b.service.index() as u64)
                .word(b.start.as_micros())
                .word(b.end.as_micros());
        }
        artifact.series = Some((horizon, series));
        let pass = Pass {
            digest: d,
            sim_requests: m.request_log().len() as u64,
            counts: setup.counts.clone(),
        };
        (pass, artifact)
    }

    fn verify(&self, setup: &Setup, a: Artifact) -> Vec<Check> {
        let m = setup.sim.metrics();
        let ids = Ids::new(IdsConfig::default());
        let shield = RateShield::paper_default();
        let mut checks = Vec::new();
        for (from, to, traffic, got) in a.summaries {
            checks.push((
                format!("summary {traffic:?} [{from}, {to}) equals naive scan"),
                got == LatencySummary::compute_naive(m, traffic, None, from, to),
            ));
        }
        for (from, to, got) in a.ids {
            checks.push((
                format!("IDS [{from}, {to}) equals naive scan"),
                got == ids.analyze_naive(m, from, to),
            ));
        }
        for (from, to, got) in a.shield {
            checks.push((
                format!("shield [{from}, {to}) equals naive scan"),
                got == shield.analyze_naive(m, from, to),
            ));
        }
        if let Some((horizon, got)) = a.series {
            let naive = LatencySeries::compute_naive(m, Traffic::Legit, SERIES_WINDOW, horizon);
            let same = got.points().len() == naive.points().len()
                && got
                    .points()
                    .iter()
                    .zip(naive.points())
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits() && x.2 == y.2);
            checks.push(("latency series equals naive scan".to_string(), same));
        }
        checks
    }
}
