//! Fig 16: profiler accuracy (precision / recall / F-score) across
//! baseline workload levels for the three µBench applications.

use apps::{UBench, UBenchConfig};
use grunt::{Profiler, ProfilerConfig};
use simnet::{SimDuration, SimTime};
use telemetry::{GroundTruth, ProfilerScore};
use workload::ClosedLoopUsers;

use crate::report::fmt;
use crate::{sweep, Report, RunOpts};

/// Profiles one app at one workload and scores against ground truth.
fn profile_at(label: &str, app: &UBench, users: usize, seed: u64) -> ProfilerScore {
    let mut sim = microsim::Simulation::new(
        app.topology().clone(),
        microsim::SimConfig::default().seed(seed).access_log(false),
    );
    if users > 0 {
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            users,
            app.browsing_model(),
            simnet::derive_seed(seed, "fig16/users"),
        )));
    }
    sim.run_until(SimTime::from_secs(10));
    let id = sim.add_agent(Box::new(Profiler::new(ProfilerConfig {
        seed,
        ..ProfilerConfig::default()
    })));
    loop {
        let next = sim.now() + SimDuration::from_secs(30);
        sim.run_until(next);
        if sim.agent_as::<Profiler>(id).expect("registered").is_done() {
            break;
        }
        assert!(
            sim.now() < SimTime::from_secs(4 * 3_600),
            "profiler stuck on {label} at {users} baseline users (seed {seed:#x})"
        );
    }
    let outcome = sim
        .agent_as::<Profiler>(id)
        .expect("registered")
        .outcome()
        .expect("done")
        .clone();
    let gt = GroundTruth::from_topology(app.topology());
    let members: Vec<_> = outcome.catalog.iter().map(|(id, _)| *id).collect();
    ProfilerScore::compute(&members, &gt, &outcome.groups)
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let mut report = Report::new(
        "fig16_accuracy",
        "Fig 16 — profiler accuracy vs baseline workload (three µBench apps)",
    );
    report.paragraph(
        "Each application is provisioned for its nominal population; the baseline \
         workload is then swept from far below to well above nominal. Expected \
         shape: recall dips at low load (stealth-capped bursts cannot fill \
         queues without background traffic helping), precision dips at high \
         load (background congestion masquerades as interference); F > 0.9 in \
         the moderate middle.",
    );

    // (label, app, nominal users)
    let apps: Vec<(&str, UBench, usize)> = fidelity
        .pick(
            vec![
                ("App.1 (62 svcs)", UBenchConfig::app1(4_000), 4_000),
                ("App.2 (118 svcs)", UBenchConfig::app2(8_000), 8_000),
                ("App.3 (196 svcs)", UBenchConfig::app3(16_000), 16_000),
            ],
            vec![("App.1 (62 svcs)", UBenchConfig::app1(4_000), 4_000)],
        )
        .into_iter()
        .map(|(label, cfg, nominal)| (label, UBench::generate(cfg), nominal))
        .collect();

    let fractions: Vec<f64> = fidelity.pick(
        vec![0.125, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.8],
        vec![0.25, 1.0, 1.8],
    );

    // One cell per (app, baseline load); every cell is self-seeded.
    let cells: Vec<(&str, &UBench, usize)> = apps
        .iter()
        .flat_map(|(label, app, nominal)| {
            fractions
                .iter()
                .map(move |f| (*label, app, ((*nominal as f64) * f) as usize))
        })
        .collect();
    let rows = sweep::map_cells(opts.jobs, &cells, |_, (label, app, users)| {
        let score = profile_at(label, app, *users, 0xF16 ^ *users as u64);
        vec![
            users.to_string(),
            fmt(score.precision(), 2),
            fmt(score.recall(), 2),
            fmt(score.f_score(), 2),
        ]
    });
    let mut rows = rows.into_iter();
    for (label, _, _) in &apps {
        report.heading(*label);
        report.table(
            &["baseline users", "precision", "recall", "F-score"],
            rows.by_ref().take(fractions.len()).collect(),
        );
    }
    report
}
