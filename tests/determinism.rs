//! Workspace-level determinism: identical seeds reproduce an entire
//! campaign — platform events, profiling decisions, attack schedule and
//! every recorded metric — bit for bit.

use apps::social_network;
use grunt::{CampaignConfig, GruntCampaign};
use microsim::{SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use workload::ClosedLoopUsers;

fn run_once(seed: u64) -> (Vec<(u64, u64)>, usize, u64, Vec<u32>) {
    let users = 1_500;
    let app = social_network(users);
    let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(seed));
    sim.add_agent(Box::new(ClosedLoopUsers::new(
        users,
        app.browsing_model(),
        seed ^ 0xABCD,
    )));
    sim.run_until(SimTime::from_secs(15));
    let campaign = GruntCampaign::run(
        &mut sim,
        CampaignConfig::default(),
        SimDuration::from_secs(60),
    );
    let log: Vec<(u64, u64)> = sim
        .metrics()
        .request_log()
        .iter()
        .map(|r| (r.submitted_at.as_micros(), r.completed_at.as_micros()))
        .collect();
    let volumes: Vec<u32> = campaign.report.bursts.iter().map(|b| b.volume).collect();
    (
        log,
        campaign.profile.groups.groups().len(),
        campaign.report.requests_sent,
        volumes,
    )
}

#[test]
fn identical_seed_reproduces_the_entire_campaign() {
    let a = run_once(99);
    let b = run_once(99);
    assert_eq!(a.0.len(), b.0.len(), "request counts differ");
    assert_eq!(a.0, b.0, "request timelines differ");
    assert_eq!(a.1, b.1, "profiled groups differ");
    assert_eq!(a.2, b.2, "attack volume differs");
    assert_eq!(a.3, b.3, "burst schedule differs");
}

#[test]
fn different_seed_changes_the_run() {
    let a = run_once(99);
    let b = run_once(100);
    assert_ne!(a.0, b.0, "different seeds should produce different runs");
}

/// A config that names the resilience layer but disables every policy is
/// byte-identical to one that never mentions it: same campaign, same
/// metrics, same pending events, same final RNG stream positions (the
/// `"kernel/retry"` stream must stay at its seed position). This is the
/// invariant that lets every pre-resilience experiment keep its exact
/// numbers.
#[test]
fn disabled_resilience_is_byte_identical_to_no_resilience() {
    use microsim::{ResilienceConfig, ResiliencePolicy};

    let run = |with_config: bool| {
        let users = 1_000;
        let app = social_network(users);
        let mut config = SimConfig::default().seed(0xD15A);
        if with_config {
            config = config.resilience(ResilienceConfig::uniform(ResiliencePolicy::disabled()));
        }
        let mut sim = Simulation::new(app.topology().clone(), config);
        // The user-level retry knob is active but inert: with no failing
        // responses it must draw nothing.
        sim.add_agent(Box::new(
            ClosedLoopUsers::new(users, app.browsing_model(), 0xD15A ^ 0xABCD).with_retry(0.5),
        ));
        sim.run_until(SimTime::from_secs(10));
        GruntCampaign::run(
            &mut sim,
            CampaignConfig::default(),
            SimDuration::from_secs(30),
        );
        sim
    };
    let plain = run(false);
    let disabled = run(true);
    assert_eq!(
        plain.metrics(),
        disabled.metrics(),
        "disabled resilience config changed recorded metrics"
    );
    assert_eq!(
        plain.pending_events(),
        disabled.pending_events(),
        "disabled resilience config changed the pending event population"
    );
    assert_eq!(
        plain.rng_fingerprint(),
        disabled.rng_fingerprint(),
        "disabled resilience config moved an RNG stream"
    );
}

/// A warm-snapshot forked run is byte-identical to a cold run: a campaign
/// forked from a `WarmProfiled` and the straight-through oracle
/// `AttackRun::execute` must agree on the full request timeline, every
/// recorded metric, the attack schedule and the final RNG stream positions.
#[test]
fn warm_fork_is_byte_identical_to_cold() {
    use lab::{AttackRun, Scenario, WarmProfiled};

    let scenario = Scenario::social_network(
        "fork-test",
        microsim::PlatformProfile::ec2(),
        1_500,
        1_500,
        0xF04C,
    );
    let baseline = SimDuration::from_secs(20);
    let attack = SimDuration::from_secs(60);
    let config = CampaignConfig::default;

    let warm = WarmProfiled::new(&scenario, config().profiler, baseline);
    let forked = AttackRun::forked(&warm, config().commander, attack);
    let cold = AttackRun::execute(&scenario, config(), baseline, attack);

    assert_eq!(
        forked.sim.metrics(),
        cold.sim.metrics(),
        "metrics differ between forked and cold runs"
    );
    assert_eq!(
        forked.sim.pending_events(),
        cold.sim.pending_events(),
        "pending event counts differ"
    );
    assert_eq!(
        forked.sim.rng_fingerprint(),
        cold.sim.rng_fingerprint(),
        "final RNG stream positions differ"
    );
    assert_eq!(
        forked.campaign.report, cold.campaign.report,
        "attack reports differ"
    );
    assert_eq!(forked.campaign.bots_used, cold.campaign.bots_used);
    assert_eq!(forked.baseline_window, cold.baseline_window);
    assert_eq!(forked.attack_window, cold.attack_window);
}

/// Defense analytics are fork-invariant: a forked run shares the warm
/// prefix's sealed access-log segments and their per-segment indexes,
/// while a cold run builds everything inline — yet the IDS and rate-limit
/// shield must report identically over both, and the indexed window
/// queries must keep matching their naive full-scan ground truths on the
/// forked store.
#[test]
fn indexed_defense_analytics_are_fork_invariant() {
    use defense::{Ids, IdsConfig, RateShield};
    use lab::{AttackRun, Scenario, WarmProfiled};

    let scenario = Scenario::social_network(
        "defense-fork-test",
        microsim::PlatformProfile::ec2(),
        1_500,
        1_500,
        0xDEF5,
    );
    let baseline = SimDuration::from_secs(20);
    let attack = SimDuration::from_secs(60);
    let config = CampaignConfig::default;
    let warm = WarmProfiled::new(&scenario, config().profiler, baseline);
    let forked = AttackRun::forked(&warm, config().commander, attack);
    let cold = AttackRun::execute(&scenario, config(), baseline, attack);

    let ids = Ids::new(IdsConfig::default());
    let shield = RateShield::paper_default();
    // One window inside the attack, one spanning the fork point.
    let windows = [
        (SimTime::from_secs(30), SimTime::from_secs(60)),
        (SimTime::from_secs(10), SimTime::from_secs(25)),
    ];
    for (from, to) in windows {
        let report = ids.analyze_window(forked.sim.metrics(), from, to);
        assert_eq!(
            report,
            ids.analyze_window(cold.sim.metrics(), from, to),
            "IDS reports differ between forked and cold runs over [{from:?}, {to:?})"
        );
        assert_eq!(
            report,
            ids.analyze_naive(forked.sim.metrics(), from, to),
            "indexed IDS diverges from the naive scan on the forked store"
        );
        let verdicts = shield.analyze_window(forked.sim.metrics(), from, to);
        assert_eq!(
            verdicts,
            shield.analyze_window(cold.sim.metrics(), from, to),
            "shield verdicts differ between forked and cold runs over [{from:?}, {to:?})"
        );
        assert_eq!(
            verdicts,
            shield.analyze_naive(forked.sim.metrics(), from, to),
            "indexed shield diverges from the naive scan on the forked store"
        );
    }
    assert_eq!(
        ids.analyze(forked.sim.metrics()),
        ids.analyze(cold.sim.metrics()),
        "full-run IDS reports differ between forked and cold runs"
    );
}

/// Several attack variants forked from one shared `WarmProfiled` each match
/// a dedicated cold run that re-simulated the whole prefix inline — the
/// property that makes attack-parameter sweeps safe to share prefixes.
#[test]
fn shared_profiled_fork_matches_dedicated_cold_runs() {
    use grunt::{CommanderConfig, ProfilerConfig};
    use lab::{AttackRun, Scenario, WarmProfiled};

    let scenario = Scenario::social_network(
        "sweep-test",
        microsim::PlatformProfile::ec2(),
        1_500,
        1_500,
        0x54A2,
    );
    let baseline = SimDuration::from_secs(20);
    let attack = SimDuration::from_secs(60);
    let warm = WarmProfiled::new(&scenario, ProfilerConfig::default(), baseline);

    for goal in [600.0, 1_200.0] {
        let commander = CommanderConfig {
            damage_goal_ms: goal,
            ..CommanderConfig::default()
        };
        let forked = AttackRun::forked(&warm, commander.clone(), attack);
        let config = CampaignConfig {
            commander,
            ..CampaignConfig::default()
        };
        let cold = AttackRun::execute(&scenario, config, baseline, attack);
        assert_eq!(
            forked.sim.metrics(),
            cold.sim.metrics(),
            "metrics differ at damage goal {goal}"
        );
        assert_eq!(
            forked.sim.rng_fingerprint(),
            cold.sim.rng_fingerprint(),
            "RNG positions differ at damage goal {goal}"
        );
        assert_eq!(
            forked.campaign.report, cold.campaign.report,
            "attack reports differ at damage goal {goal}"
        );
    }
}

/// The parallel sweep executor reproduces the serial path byte for byte:
/// a two-cell Table I slice and the whole `model_check` experiment, each
/// rendered with `jobs = 1`, `2` and `4`, must yield identical markdown and
/// CSV artifacts, because every cell is a self-seeded single-threaded
/// simulation and rows are collected in cell order.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    use lab::experiments::{model_check, table1};
    use lab::{Fidelity, Report, RunOpts};

    // `run` at jobs 2 and 4 must render exactly what it renders serially,
    // and the serial rendering must contain every marker.
    fn check(name: &str, run: &dyn Fn(&RunOpts) -> Report, markers: &[&str]) {
        let serial = run(&RunOpts::new(Fidelity::Fast));
        let serial_md = serial.to_markdown();
        let serial_csv = serial.csv_exports();
        for marker in markers {
            assert!(serial_md.contains(marker), "{name}: {marker:?} missing");
        }
        for jobs in [2, 4] {
            let parallel = run(&RunOpts::new(Fidelity::Fast).jobs(jobs));
            assert_eq!(
                parallel.to_markdown(),
                serial_md,
                "{name}: markdown differs at jobs={jobs}"
            );
            assert_eq!(
                parallel.csv_exports(),
                serial_csv,
                "{name}: CSV differs at jobs={jobs}"
            );
        }
    }

    let settings: Vec<table1::Setting> = table1::settings().into_iter().take(2).collect();
    assert_eq!(settings.len(), 2, "need a two-cell slice");
    check(
        "table1 slice",
        &|opts| table1::report_for(&settings, opts),
        &[&settings[0].0, &settings[1].0],
    );
    check("model_check", &model_check::run, &["P_MB meas", "slope"]);
}

/// The flat-arena population engine is byte-identical to its retained
/// naive twin on paper-scale cells: same RNG stream consumption, same
/// alias-table transitions, same quantised think ticks and same
/// slot-ordered bucket stepping — over completely different bookkeeping
/// (slab + intrusive timer ring vs token `HashMap` + `BTreeMap` buckets
/// and per-call draws).
mod population_twin {
    use super::*;
    use proptest::prelude::*;
    use workload::ClosedLoopUsersNaive;

    /// One population cell; `think_s: None` keeps the default think time.
    struct Cell {
        users: usize,
        config: SimConfig,
        pop_seed: u64,
        think_s: Option<f64>,
        horizon: SimTime,
    }

    fn run_cell(cell: &Cell, naive: bool) -> Simulation {
        let app = social_network(cell.users);
        let mut sim = Simulation::new(app.topology().clone(), cell.config.clone());
        if naive {
            let mut users =
                ClosedLoopUsersNaive::new(cell.users, app.browsing_model(), cell.pop_seed);
            if let Some(think_s) = cell.think_s {
                users = users.with_think_time(think_s);
            }
            sim.add_agent(Box::new(users));
        } else {
            let mut users = ClosedLoopUsers::new(cell.users, app.browsing_model(), cell.pop_seed);
            if let Some(think_s) = cell.think_s {
                users = users.with_think_time(think_s);
            }
            sim.add_agent(Box::new(users));
        }
        sim.run_until(cell.horizon);
        sim
    }

    #[test]
    fn flat_arena_engine_matches_naive_twin() {
        // Fixed input: a 100k-user mega-cell under the `megacell` seed
        // derivation, at the debug-feasible horizon of `lab`'s megacell
        // test, with the default think time.
        let mega = Cell {
            users: 100_000,
            config: SimConfig::default().seed(0xCE11).access_log(false),
            pop_seed: simnet::derive_seed(0xCE11, "bench/megacell"),
            think_s: None,
            horizon: SimTime::from_secs(4),
        };
        let (fast, naive) = (run_cell(&mega, false), run_cell(&mega, true));
        assert_eq!(
            fast.metrics(),
            naive.metrics(),
            "flat-arena engine must be byte-identical to the naive twin at 100k users"
        );
        assert_eq!(fast.rng_fingerprint(), naive.rng_fingerprint());

        // Random inputs: paper-scale cells at three think times.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]

            fn random_cells(
                users in 600usize..1800,
                seed in any::<u64>(),
                think_idx in 0usize..3,
            ) {
                let think_s = [0.5, 2.0, 7.0][think_idx];
                let cell = Cell {
                    users,
                    config: SimConfig::default().seed(seed),
                    pop_seed: seed ^ 0xABCD,
                    think_s: Some(think_s),
                    horizon: SimTime::from_secs(10),
                };
                let fast = run_cell(&cell, false);
                let naive = run_cell(&cell, true);
                prop_assert_eq!(
                    fast.metrics(),
                    naive.metrics(),
                    "recorded metrics diverged (users={}, seed={seed}, think={think_s})",
                    users
                );
                prop_assert_eq!(fast.rng_fingerprint(), naive.rng_fingerprint());
            }
        }
        random_cells();
    }
}

/// Snapshot/fork correctness of the think-timer arena *mid-bucket*: the
/// checkpoint lands at an arbitrary microsecond — between a bucket filling
/// up and its wakeup firing — and the forked run must stay in lockstep
/// with the uninterrupted original.
mod arena_fork {
    use super::*;
    use proptest::prelude::*;

    fn observe(sim: &Simulation) -> (usize, (u64, u64), Vec<(u64, u64)>) {
        (
            sim.pending_events(),
            sim.rng_fingerprint(),
            sim.metrics()
                .request_log()
                .iter()
                .map(|r| (r.submitted_at.as_micros(), r.completed_at.as_micros()))
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn mid_bucket_fork_matches_uninterrupted_run(
            users in 50usize..600,
            seed in any::<u64>(),
            think_idx in 0usize..3,
            t1_micros in 1_000_000u64..6_000_000,
        ) {
            let think_s = [0.2, 1.0, 7.0][think_idx];
            let app = social_network(users);
            let build = || {
                let mut sim =
                    Simulation::new(app.topology().clone(), SimConfig::default().seed(seed));
                let id = sim.add_agent(Box::new(
                    ClosedLoopUsers::new(users, app.browsing_model(), seed ^ 0x51AB)
                        .with_think_time(think_s),
                ));
                (sim, id)
            };
            let t2 = SimTime::from_secs(12);

            let (mut cold, cold_id) = build();
            cold.run_until(t2);

            let (mut warm, warm_id) = build();
            // Checkpoint mid-run at an arbitrary microsecond: think buckets
            // are partially filled and their wakeups are still pending.
            warm.run_until(SimTime::from_micros(t1_micros));
            let users_mid: &ClosedLoopUsers = warm.agent_as(warm_id).expect("typed access");
            prop_assume!(users_mid.pending_think_buckets() > 0);
            let snap = warm.checkpoint().expect("snapshot");
            let mut fork = Simulation::from_snapshot(&snap);
            warm.run_until(t2);
            fork.run_until(t2);

            prop_assert_eq!(observe(&warm), observe(&fork), "fork diverged from original");
            prop_assert_eq!(observe(&warm), observe(&cold), "warm run diverged from cold");
            let a: &ClosedLoopUsers = warm.agent_as(warm_id).expect("typed access");
            let b: &ClosedLoopUsers = fork.agent_as(warm_id).expect("typed access");
            let c: &ClosedLoopUsers = cold.agent_as(cold_id).expect("typed access");
            prop_assert_eq!(a.latency_stats().count(), b.latency_stats().count());
            prop_assert_eq!(
                a.latency_stats().mean().to_bits(),
                b.latency_stats().mean().to_bits()
            );
            prop_assert_eq!(a.latency_stats().count(), c.latency_stats().count());
            prop_assert_eq!(a.pending_think_buckets(), b.pending_think_buckets());
            let sa: Vec<_> = a.samples().iter().collect();
            let sb: Vec<_> = b.samples().iter().collect();
            prop_assert_eq!(sa, sb);
        }
    }
}
