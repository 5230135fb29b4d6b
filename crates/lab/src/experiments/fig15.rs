//! Fig 15: Grunt under a real-world-style bursty baseline ("Large
//! Variation" trace) with auto-scaling enabled — the Commander must track
//! workload swings and scaling actions while holding the damage goal.

use callgraph::ServiceId;
use grunt::CampaignConfig;
use microsim::{AutoScalePolicy, SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::{CoarseMonitor, LatencySeries, Traffic};
use workload::{PoissonSource, RateTrace};

use crate::report::fmt;
use crate::{Report, RunOpts, Scenario};

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    // Open-loop bursty workload between 1k and 6k req/s; the deployment is
    // provisioned for the mid-range and auto-scaling covers the peaks.
    let duration = fidelity.secs(1_200, 240);
    let scenario = Scenario::social_network(
        "EC2-bursty",
        microsim::PlatformProfile::ec2(),
        1, // the closed-loop population is unused here
        24_000,
        0xF15,
    );
    let trace =
        RateTrace::large_variation(7, duration + SimDuration::from_secs(600), 1_000.0, 6_000.0);

    let mut sim = Simulation::new(
        scenario.topology.clone(),
        SimConfig::default()
            .seed(scenario.seed)
            .autoscale(AutoScalePolicy::paper_default()),
    );
    let app = apps::social_network(24_000);
    sim.add_agent(Box::new(PoissonSource::new(
        app.request_mix(),
        trace.clone(),
        SimTime::FAR_FUTURE,
        99,
    )));
    sim.run_until(SimTime::from_secs(40));
    let campaign = grunt::GruntCampaign::run(&mut sim, CampaignConfig::default(), duration);

    let mut report = Report::new(
        "fig15_bursty",
        "Fig 15 — attack under the Large Variation bursty workload with auto-scaling",
    );
    let m = sim.metrics();
    let topo = sim.topology();
    let a0 = campaign.attack_started;
    let a1 = a0 + duration;

    // (a) the workload trace.
    let trace_rows: Vec<Vec<String>> = trace
        .rates()
        .iter()
        .enumerate()
        .take((duration.as_secs_f64() / trace.step().as_secs_f64()) as usize + 1)
        .map(|(i, r)| vec![fmt(i as f64 * trace.step().as_secs_f64(), 0), fmt(*r, 0)])
        .collect();
    report.series(
        "(a) baseline workload trace (req/s, 30 s segments):",
        &["t_s", "req_per_s"],
        trace_rows,
    );

    // (b) scaling actions + CPU of a representative service.
    let hub = topo.service_by_name("compose-post").expect("hub");
    let coarse = CoarseMonitor::new(m, SimDuration::from_secs(1));
    let cpu_rows: Vec<Vec<String>> = coarse
        .series(hub)
        .iter()
        .filter(|s| s.start >= a0 && s.start < a1)
        .step_by(5)
        .map(|s| {
            vec![
                fmt(s.start.as_secs_f64(), 0),
                fmt(s.utilization * 100.0, 1),
                s.replicas.to_string(),
            ]
        })
        .collect();
    report.series(
        "(b) compose-post CPU (1 s samples, 5 s stride) and replica count:",
        &["t_s", "cpu_pct", "replicas"],
        cpu_rows,
    );
    let actions: Vec<_> = m.scaling_actions().iter().filter(|a| a.at >= a0).collect();
    report.paragraph(format!(
        "{} scaling actions during the attack window (the system scales with the \
         workload, not with the attack).",
        actions.len()
    ));

    // (c) attack volume adjusted by the Commander (write group).
    let vol_rows: Vec<Vec<String>> = campaign
        .report
        .volume_series
        .iter()
        .filter(|(t, g, _)| *g == 0 && *t >= a0 && *t < a1)
        .step_by(4)
        .map(|(t, _, v)| vec![fmt(t.as_secs_f64(), 0), v.to_string()])
        .collect();
    report.series(
        "(c) per-burst attack volume for the write group, Commander-adapted:",
        &["t_s", "volume_req"],
        vol_rows,
    );

    // (d) legitimate latency.
    let rt = LatencySeries::compute(m, Traffic::Legit, SimDuration::from_secs(5), a1);
    let rt_rows: Vec<Vec<String>> = rt
        .points()
        .iter()
        .filter(|(t, _, n)| *t >= a0 && *n > 0)
        .map(|(t, ms, _)| vec![fmt(t.as_secs_f64(), 0), fmt(*ms, 0)])
        .collect();
    report.series(
        "(d) mean legitimate response time (5 s windows):",
        &["t_s", "avg_rt_ms"],
        rt_rows,
    );
    report.paragraph(format!(
        "Attack-window mean legitimate RT: {} ms (goal: persistently above 1 s \
         where the adapted volume can sustain it across workload swings).",
        fmt(rt.mean_over(a0, a1), 0)
    ));
    let _ = ServiceId::new(0);
    report
}
