//! Fig 12: the administrator's view vs the attacker's view of
//! SocialNetwork's dependency structure.
//!
//! (a) the service dependency graph, (b) representative pairwise profiling
//! outcomes, (c) the dependency groups the blackbox profiler constructs —
//! scored against ground truth.

use grunt::{Profiler, ProfilerConfig};
use simnet::{SimDuration, SimTime};
use telemetry::{GroundTruth, ProfilerScore};

use crate::report::fmt;
use crate::{Report, RunOpts, Scenario};

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let users = fidelity.pick(7_000, 3_000);
    let scenario =
        Scenario::social_network("EC2", microsim::PlatformProfile::ec2(), users, 7_000, 0xF12);
    let topo = scenario.topology.clone();

    let mut report = Report::new(
        "fig12_groups",
        "Fig 12 — dependency graph, pairwise profiling and dependency groups",
    );

    // (a) administrator's view: the service dependency graph.
    report.heading("(a) Administrator's view: service dependency graph");
    let dg = topo.dependency_graph();
    let rows: Vec<Vec<String>> = dg
        .edges()
        .map(|(u, d)| vec![topo.service(u).name.clone(), topo.service(d).name.clone()])
        .collect();
    report.paragraph(format!(
        "{} services, {} request types, {} call edges; shared (hotspot) services: {}.",
        topo.num_services(),
        topo.num_request_types(),
        dg.num_edges(),
        dg.shared_services()
            .iter()
            .map(|s| topo.service(*s).name.clone())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    report.table(&["upstream", "downstream"], rows);

    // Run the blackbox profiler.
    let mut sim = scenario.build();
    sim.run_until(SimTime::from_secs(10));
    let id = sim.add_agent(Box::new(Profiler::new(ProfilerConfig::default())));
    loop {
        let next = sim.now() + SimDuration::from_secs(10);
        sim.run_until(next);
        if sim.agent_as::<Profiler>(id).expect("registered").is_done() {
            break;
        }
        assert!(sim.now() < SimTime::from_secs(7_200), "profiler stuck");
    }
    let outcome = sim
        .agent_as::<Profiler>(id)
        .expect("registered")
        .outcome()
        .expect("done")
        .clone();

    // (b) pairwise profiling outcomes.
    report.heading("(b) Attacker's view: pairwise profiling outcomes");
    let name = |rt: callgraph::RequestTypeId| topo.request_type(rt).name.clone();
    let rows: Vec<Vec<String>> = outcome
        .groups
        .pairs()
        .filter(|(_, _, d)| d.is_dependent())
        .map(|(a, b, d)| vec![name(a), name(b), format!("{d:?}")])
        .collect();
    report.table(&["path A", "path B", "classification"], rows);

    // (c) groups vs ground truth.
    report.heading("(c) Dependency groups: attacker vs ground truth");
    let gt = GroundTruth::from_topology(&topo);
    let render = |groups: &callgraph::DependencyGroups| {
        groups
            .groups()
            .iter()
            .map(|g| {
                format!(
                    "{{{}}}",
                    g.iter().map(|rt| name(*rt)).collect::<Vec<_>>().join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    report.paragraph(format!("Attacker-estimated: {}", render(&outcome.groups)));
    report.paragraph(format!("Ground truth:       {}", render(gt.groups())));
    let members: Vec<_> = outcome.catalog.iter().map(|(id, _)| *id).collect();
    let score = ProfilerScore::compute(&members, &gt, &outcome.groups);
    report.paragraph(format!(
        "Profiler precision {} / recall {} / F-score {} over {} request pairs \
         ({} profiling requests sent).",
        fmt(score.precision(), 2),
        fmt(score.recall(), 2),
        fmt(score.f_score(), 2),
        members.len() * (members.len() - 1) / 2,
        outcome.requests_sent,
    ));
    report
}
