//! Fig 14: the CloudWatch view of the same attack — 1 s CPU metrics of the
//! attacked services, with auto-scaling enabled. No scaling action may
//! fire: sub-second millibottlenecks average out below every threshold.

use callgraph::ServiceId;
use grunt::CampaignConfig;
use microsim::{AutoScalePolicy, SimConfig};
use simnet::{SimDuration, SimTime};
use telemetry::CoarseMonitor;

use crate::report::fmt;
use crate::{Report, RunOpts, Scenario};

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let attack = fidelity.secs(300, 120);
    let scenario = Scenario::social_network(
        "EC2-12K",
        microsim::PlatformProfile::ec2(),
        12_000,
        12_000,
        0xF14,
    );
    // Auto-scaling on — the paper's policy.
    let mut sim =
        scenario.build_with(SimConfig::default().autoscale(AutoScalePolicy::paper_default()));
    sim.run_until(SimTime::from_secs(30));
    let campaign = grunt::GruntCampaign::run(&mut sim, CampaignConfig::default(), attack);

    let mut report = Report::new(
        "fig14_stealth",
        "Fig 14 — 1 s CloudWatch CPU during the attack; auto-scaling stays silent",
    );
    let m = sim.metrics();
    let topo = sim.topology();
    let coarse = CoarseMonitor::new(m, SimDuration::from_secs(1));

    let a0 = campaign.attack_started;
    let a1 = a0 + attack;
    let watch = [
        "compose-post",
        "post-storage",
        "media-service",
        "home-timeline",
        "social-graph",
        "memcached-post",
    ];
    let mut rows = Vec::new();
    for name in watch {
        let svc = topo.service_by_name(name).expect("known service");
        let mean = coarse.mean_utilization(svc, a0, a1) * 100.0;
        let peak = coarse
            .series(svc)
            .iter()
            .filter(|s| s.start >= a0 && s.start < a1)
            .map(|s| s.utilization)
            .fold(0.0, f64::max)
            * 100.0;
        rows.push(vec![name.to_string(), fmt(mean, 0), fmt(peak, 0)]);
    }
    report.table(&["service", "mean 1 s CPU (%)", "peak 1 s CPU (%)"], rows);

    // Scaling actions during the attack.
    let actions: Vec<_> = m.scaling_actions().iter().filter(|a| a.at >= a0).collect();
    report.paragraph(format!(
        "Auto-scaling actions during the attack window: {} (the paper's claim: \
         the 70%-for-30 s policy never fires because millibottlenecks average \
         out at 1 s granularity).",
        actions.len()
    ));
    if !actions.is_empty() {
        let rows: Vec<Vec<String>> = actions
            .iter()
            .map(|a| {
                vec![
                    a.at.to_string(),
                    topo.service(a.service).name.clone(),
                    format!("{:?}", a.direction),
                    a.replicas_after.to_string(),
                ]
            })
            .collect();
        report.table(&["time", "service", "direction", "replicas after"], rows);
    }

    // Sample 1 s utilisation series of the hottest service for plotting.
    let hottest = watch
        .iter()
        .map(|n| topo.service_by_name(n).expect("known service"))
        .max_by(|a, b| {
            coarse
                .mean_utilization(*a, a0, a1)
                .partial_cmp(&coarse.mean_utilization(*b, a0, a1))
                .expect("not NaN")
        })
        .expect("non-empty");
    let series_rows: Vec<Vec<String>> = coarse
        .series(hottest)
        .iter()
        .filter(|s| s.start >= a0 && s.start < a1)
        .map(|s| {
            vec![
                fmt(s.start.as_secs_f64(), 0),
                fmt(s.utilization * 100.0, 1),
                s.replicas.to_string(),
            ]
        })
        .collect();
    report.series(
        format!(
            "1 s CPU of the hottest service (`{}`) during the attack:",
            topo.service(hottest).name
        )
        .as_str(),
        &["t_s", "cpu_pct", "replicas"],
        series_rows,
    );
    let _ = ServiceId::new(0);
    report
}
