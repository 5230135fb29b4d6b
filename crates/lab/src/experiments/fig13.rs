//! Fig 13: fine-grained (100 ms) zoom-in on one dependency group under
//! attack — request rates, alternating millibottlenecks, the persistent
//! queue at the shared upstream microservice, and the resulting response
//! times.

use callgraph::ServiceId;
use grunt::CampaignConfig;
use simnet::SimDuration;
use telemetry::{millibottleneck_stats, FineMonitor, LatencySeries, Traffic};

use crate::report::fmt;
use crate::{AttackRun, Report, RunOpts, Scenario};

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let baseline = fidelity.secs(60, 30);
    let attack = fidelity.secs(240, 120);
    let scenario = Scenario::social_network(
        "EC2-12K",
        microsim::PlatformProfile::ec2(),
        12_000,
        12_000,
        0xF13,
    );
    let run = AttackRun::execute(&scenario, CampaignConfig::default(), baseline, attack);
    let m = run.metrics();
    let topo = run.sim.topology();
    let fine = FineMonitor::new(m);

    let mut report = Report::new(
        "fig13_zoom",
        "Fig 13 — 100 ms zoom-in on the write dependency group under attack",
    );

    // Zoom window: 20 s of steady attack.
    let z0 = run.attack_window.0;
    let z1 = z0 + fidelity.secs(20, 10);
    let in_zoom = |t: simnet::SimTime| t >= z0 && t < z1;

    // (a) attacker vs normal request rate at the gateway.
    let window_s = m.window().as_secs_f64();
    let mut rate_rows = Vec::new();
    {
        // Bucket the access log by window.
        let w_us = m.window().as_micros();
        let lo = (z0.as_micros() / w_us) as usize;
        let hi = (z1.as_micros() / w_us) as usize;
        let mut attack = vec![0u32; hi - lo];
        let mut legit = vec![0u32; hi - lo];
        for e in m.access_log() {
            if in_zoom(e.at) {
                let idx = (e.at.as_micros() / w_us) as usize - lo;
                if e.origin.is_attack {
                    attack[idx] += 1;
                } else {
                    legit[idx] += 1;
                }
            }
        }
        for i in 0..attack.len() {
            rate_rows.push(vec![
                fmt((lo + i) as f64 * window_s, 1),
                fmt(f64::from(legit[i]) / window_s, 0),
                fmt(f64::from(attack[i]) / window_s, 0),
            ]);
        }
    }
    report.series(
        "(a) request rates at the gateway (100 ms windows):",
        &["t_s", "legit_rps", "attack_rps"],
        rate_rows,
    );

    // (b) alternating millibottlenecks among the write group's services.
    let watch = [
        "post-storage",
        "media-service",
        "url-shorten-service",
        "compose-post",
    ];
    let ids: Vec<ServiceId> = watch
        .iter()
        .map(|n| topo.service_by_name(n).expect("known service"))
        .collect();
    let mut util_rows = Vec::new();
    let series: Vec<Vec<(simnet::SimTime, f64)>> = ids
        .iter()
        .map(|s| {
            fine.utilization_series(*s)
                .into_iter()
                .filter(|(t, _)| in_zoom(*t))
                .collect()
        })
        .collect();
    for i in 0..series[0].len() {
        let mut row = vec![fmt(series[0][i].0.as_secs_f64(), 1)];
        for s in &series {
            row.push(fmt(s[i].1 * 100.0, 0));
        }
        util_rows.push(row);
    }
    report.series(
        "(b) per-service CPU utilisation, 100 ms windows (millibottlenecks \
         alternate among the group's bottleneck services):",
        &["t_s", watch[0], watch[1], watch[2], watch[3]],
        util_rows,
    );
    let mbs = telemetry::find_millibottlenecks(m, 0.95);
    let in_window: Vec<_> = mbs
        .iter()
        .filter(|mb| mb.start >= run.attack_window.0 && ids.contains(&mb.service))
        .copied()
        .collect();
    let stats = millibottleneck_stats(&in_window, None);
    report.paragraph(format!(
        "{} millibottlenecks on the group's services during the attack, mean \
         length {}, max {} — individually sub-second, only visible at 100 ms \
         granularity.",
        stats.count, stats.mean_length, stats.max_length,
    ));

    // (c) queue at the shared upstream microservice (compose-post).
    let hub = topo.service_by_name("compose-post").expect("hub");
    let queue_rows: Vec<Vec<String>> = fine
        .queue_series(hub)
        .into_iter()
        .filter(|(t, _)| in_zoom(*t))
        .map(|(t, q)| vec![fmt(t.as_secs_f64(), 1), q.to_string()])
        .collect();
    report.series(
        "(c) queued requests at the shared upstream microservice (compose-post):",
        &["t_s", "queued"],
        queue_rows,
    );

    // (d) legitimate response times.
    let rt = LatencySeries::compute(m, Traffic::Legit, SimDuration::from_millis(500), z1);
    let rt_rows: Vec<Vec<String>> = rt
        .points()
        .iter()
        .filter(|(t, _, _)| in_zoom(*t))
        .map(|(t, ms, n)| vec![fmt(t.as_secs_f64(), 1), fmt(*ms, 0), n.to_string()])
        .collect();
    report.series(
        "(d) mean legitimate response time (500 ms windows):",
        &["t_s", "avg_rt_ms", "n"],
        rt_rows,
    );

    let att = run.attack_latency();
    report.paragraph(format!(
        "Attack-window damage: avg RT {} ms, p95 {} ms.",
        fmt(att.avg_ms, 0),
        fmt(att.p95_ms, 0)
    ));
    report
}
