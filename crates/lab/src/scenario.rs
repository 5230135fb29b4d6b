//! Shared scenario plumbing: deploy an application, run baseline + attack,
//! collect the measurements every experiment needs.

use apps::SocialNetwork;
use callgraph::Topology;
use grunt::{CampaignConfig, CommanderConfig, GruntCampaign, ProfilerConfig, ProfilerOutcome};
use microsim::{Metrics, PlatformProfile, SimConfig, SimSnapshot, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::{LatencySummary, Traffic};
use workload::{BrowsingModel, ClosedLoopUsers};

/// A deployable scenario: an application plus the user population driving
/// it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label (e.g. `"EC2-7K"`).
    pub label: String,
    /// The application topology.
    pub topology: Topology,
    /// The browsing model of the legitimate population.
    pub browsing: BrowsingModel,
    /// Number of closed-loop users actually driving the system.
    pub users: usize,
    /// Platform profile.
    pub platform: PlatformProfile,
    /// Simulation seed.
    pub seed: u64,
}

impl Scenario {
    /// A SocialNetwork scenario on the given platform, provisioned for
    /// `provision_users` but driven by `users` (the paper runs two
    /// workload levels against one deployment per cloud).
    pub fn social_network(
        label: &str,
        platform: PlatformProfile,
        users: usize,
        provision_users: usize,
        seed: u64,
    ) -> Self {
        let app = SocialNetwork::new(provision_users);
        Scenario {
            label: label.to_string(),
            topology: app.topology().clone(),
            browsing: app.browsing_model(),
            users,
            platform,
            seed,
        }
    }

    /// Builds the simulation with the user population registered.
    pub fn build(&self) -> Simulation {
        let cfg = SimConfig::default()
            .seed(self.seed)
            .platform(self.platform.clone());
        self.build_with(cfg)
    }

    /// Builds with a custom [`SimConfig`] (platform/seed fields are
    /// overridden by the scenario's).
    pub fn build_with(&self, cfg: SimConfig) -> Simulation {
        let cfg = cfg.seed(self.seed).platform(self.platform.clone());
        let mut sim = Simulation::new(self.topology.clone(), cfg);
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            self.users,
            self.browsing.clone(),
            simnet::derive_seed(self.seed, "scenario/users"),
        )));
        sim
    }

    /// Builds, warms up and measures the baseline window once, returning a
    /// forkable [`WarmBase`]. See [`WarmBase::new`].
    pub fn warm_base(&self, baseline: SimDuration) -> WarmBase {
        WarmBase::new(self, baseline)
    }
}

/// The standard warm-up every scenario runs before measuring anything.
pub const WARMUP: SimDuration = SimDuration::from_secs(10);

/// A scenario advanced through warm-up and its baseline window, frozen as
/// a forkable snapshot.
///
/// Every cell of a sweep that shares the scenario and baseline length can
/// fork from the same `WarmBase` instead of re-simulating the prefix. A
/// forked run is bit-identical to a cold run that executed the same prefix
/// inline, so sharing never changes results (asserted in
/// `tests/determinism.rs`).
#[derive(Debug, Clone)]
pub struct WarmBase {
    /// Scenario label.
    pub label: String,
    /// The frozen state at the end of the baseline window.
    pub snapshot: SimSnapshot,
    /// `[base_from, base_to)` interval for baseline measurements.
    pub baseline_window: (SimTime, SimTime),
}

impl WarmBase {
    /// Builds the scenario, runs the standard warm-up plus `baseline`, and
    /// checkpoints. This is exactly the prefix [`AttackRun::execute`] runs
    /// cold.
    pub fn new(scenario: &Scenario, baseline: SimDuration) -> WarmBase {
        let mut sim = scenario.build();
        sim.run_until(SimTime::ZERO + WARMUP);
        let base_from = sim.now();
        sim.run_until(base_from + baseline);
        let base_to = sim.now();
        let snapshot = sim
            .checkpoint()
            .expect("scenario agents support snapshotting");
        WarmBase {
            label: scenario.label.clone(),
            snapshot,
            baseline_window: (base_from, base_to),
        }
    }

    /// Forks a live simulation resuming at the end of the baseline window.
    pub fn fork(&self) -> Simulation {
        Simulation::from_snapshot(&self.snapshot)
    }

    /// Runs the Grunt profiling phase once on a fork of this base and
    /// freezes the profiled state, ready to fork per attack variant.
    pub fn profiled(&self, profiler: ProfilerConfig) -> WarmProfiled {
        let mut sim = self.fork();
        let profile = GruntCampaign::profile(&mut sim, profiler);
        let snapshot = sim
            .checkpoint()
            .expect("profiled agents support snapshotting");
        WarmProfiled {
            label: self.label.clone(),
            snapshot,
            baseline_window: self.baseline_window,
            profile,
        }
    }
}

/// A scenario profiled by Grunt: warm-up, baseline *and* the whole
/// profiling phase are simulated once; each attack variant forks from
/// here. This is the dominant saving for attack-parameter sweeps, where
/// cells differ only in [`CommanderConfig`].
#[derive(Debug, Clone)]
pub struct WarmProfiled {
    /// Scenario label.
    pub label: String,
    /// The frozen state at the instant profiling finished.
    pub snapshot: SimSnapshot,
    /// `[base_from, base_to)` interval for baseline measurements.
    pub baseline_window: (SimTime, SimTime),
    /// What the profiler learned.
    pub profile: ProfilerOutcome,
}

impl WarmProfiled {
    /// Warm-up + baseline + profiling in one go. Equivalent to
    /// `scenario.warm_base(baseline).profiled(profiler)`.
    pub fn new(scenario: &Scenario, profiler: ProfilerConfig, baseline: SimDuration) -> Self {
        WarmBase::new(scenario, baseline).profiled(profiler)
    }

    /// Forks a live simulation resuming at the instant profiling finished.
    pub fn fork(&self) -> Simulation {
        Simulation::from_snapshot(&self.snapshot)
    }
}

/// Results of one baseline+attack run.
#[derive(Debug)]
pub struct AttackRun {
    /// Scenario label.
    pub label: String,
    /// The simulation (holds the metrics).
    pub sim: Simulation,
    /// The campaign (profile + report).
    pub campaign: GruntCampaign,
    /// `[base_from, base_to)` interval used for baseline measurements.
    pub baseline_window: (SimTime, SimTime),
    /// `[attack_from, attack_to)` interval used for attack measurements
    /// (excludes ramp-up).
    pub attack_window: (SimTime, SimTime),
    /// Burst pacing length used by the commander (for P_MB correction).
    pub pacing: SimDuration,
}

impl AttackRun {
    /// Runs warm-up, baseline measurement, Grunt profiling and the attack
    /// window straight through on one simulation.
    ///
    /// This is the reference oracle for [`AttackRun::forked`]: a run forked
    /// from a [`WarmProfiled`] built with the same scenario, profiler and
    /// baseline is byte-identical to it (asserted in `tests/determinism.rs`).
    pub fn execute(
        scenario: &Scenario,
        config: CampaignConfig,
        baseline: SimDuration,
        attack: SimDuration,
    ) -> AttackRun {
        let pacing = config.commander.burst_length;
        let mut sim = scenario.build();
        sim.run_until(SimTime::ZERO + WARMUP);
        let base_from = sim.now();
        sim.run_until(base_from + baseline);
        let base_to = sim.now();
        let campaign = GruntCampaign::run(&mut sim, config, attack);
        Self::measured(
            scenario.label.clone(),
            sim,
            campaign,
            (base_from, base_to),
            attack,
            pacing,
        )
    }

    /// Forks the profiled warm state and runs just the attack window with
    /// the given commander variant — the per-cell step of an
    /// attack-parameter sweep.
    pub fn forked(warm: &WarmProfiled, commander: CommanderConfig, attack: SimDuration) -> Self {
        let pacing = commander.burst_length;
        let mut sim = warm.fork();
        let campaign =
            GruntCampaign::attack_with(&mut sim, warm.profile.clone(), commander, attack);
        Self::measured(
            warm.label.clone(),
            sim,
            campaign,
            warm.baseline_window,
            attack,
            pacing,
        )
    }

    /// Wraps a finished campaign; the attack window skips a ramp of 20 s
    /// (at most a quarter of the attack).
    fn measured(
        label: String,
        sim: Simulation,
        campaign: GruntCampaign,
        baseline_window: (SimTime, SimTime),
        attack: SimDuration,
        pacing: SimDuration,
    ) -> Self {
        let ramp = SimDuration::from_secs(20).min(attack / 4);
        let attack_window = (
            campaign.attack_started + ramp,
            campaign.attack_started + attack,
        );
        AttackRun {
            label,
            sim,
            campaign,
            baseline_window,
            attack_window,
            pacing,
        }
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Baseline latency summary (legit traffic).
    pub fn baseline_latency(&self) -> LatencySummary {
        LatencySummary::compute(
            self.metrics(),
            Traffic::Legit,
            None,
            self.baseline_window.0,
            self.baseline_window.1,
        )
    }

    /// Attack-window latency summary (legit traffic).
    pub fn attack_latency(&self) -> LatencySummary {
        LatencySummary::compute(
            self.metrics(),
            Traffic::Legit,
            None,
            self.attack_window.0,
            self.attack_window.1,
        )
    }

    /// Mean gateway traffic (MB/s) over a window.
    pub fn network_mbps(&self, from: SimTime, to: SimTime) -> f64 {
        let w = self.metrics().window();
        let per_sec = 1.0 / w.as_secs_f64();
        let lo = (from.as_micros() / w.as_micros()) as usize;
        let hi = ((to.as_micros() / w.as_micros()) as usize).min(self.metrics().num_windows());
        if hi <= lo {
            return 0.0;
        }
        // Indexed sum over exactly the windows `[lo, hi)`, in time order —
        // bit-identical to the slice sum this replaced.
        let total: f64 = self.metrics().network_total_mb(lo, hi);
        total * per_sec / (hi - lo) as f64
    }

    /// Mean CPU utilisation of a representative bottleneck service over a
    /// window: the most-utilised service during the attack window,
    /// excluding the frontend.
    pub fn bottleneck_cpu(&self, from: SimTime, to: SimTime) -> f64 {
        let m = self.metrics();
        let topo = self.sim.topology();
        let mut best = 0.0f64;
        for s in 0..m.num_services() {
            let svc = callgraph::ServiceId::new(s as u32);
            if !topo.service(svc).blockable {
                continue;
            }
            let u = m.mean_utilization(svc, from, to);
            best = best.max(u);
        }
        best
    }

    /// Mean of the attacker's millibottleneck-length estimates, with the
    /// burst pacing removed (ms) — the `P_MB` column of Table III.
    pub fn mean_pmb_ms(&self) -> f64 {
        self.campaign.report.mean_pmb().map_or(0.0, |d| {
            (d.as_millis_f64() - self.pacing.as_millis_f64()).max(0.0)
        })
    }
}
