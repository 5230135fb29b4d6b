//! Campaign diagnostics: a verbose end-to-end run against SocialNetwork
//! that prints every intermediate quantity — profiling details, per-group
//! feedback state, per-type damage, the full detection stack's verdicts,
//! and white-box millibottleneck statistics. The first stop when tuning
//! the Commander's feedback or investigating a regression.
use apps::social_network;
use grunt::{CampaignConfig, GruntCampaign};
use microsim::{SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::{LatencySummary, Traffic};
use workload::ClosedLoopUsers;

fn main() {
    let users = 7000;
    let app = social_network(users);
    let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(3));
    sim.add_agent(Box::new(ClosedLoopUsers::new(
        users,
        app.browsing_model(),
        42,
    )));
    // Warm up baseline.
    sim.run_until(SimTime::from_secs(30));
    let t0 = std::time::Instant::now();
    let window: u64 = std::env::var("GRUNT_ATTACK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let campaign = GruntCampaign::run(
        &mut sim,
        CampaignConfig::default(),
        SimDuration::from_secs(window),
    );
    eprintln!("wall: {:?}", t0.elapsed());

    println!(
        "profiling finished at {} with {} requests",
        campaign.profile.finished_at, campaign.profile.requests_sent
    );
    println!("v_sat: {:?}", campaign.profile.v_sat);
    println!(
        "baselines: {:?}",
        campaign
            .profile
            .baseline_ms
            .iter()
            .map(|(k, v)| (k.index(), (*v * 10.0).round() / 10.0))
            .collect::<Vec<_>>()
    );
    println!("estimated groups: {:?}", campaign.profile.groups.groups());
    let gt = telemetry::GroundTruth::from_topology(app.topology());
    println!("true groups:      {:?}", gt.groups().groups());
    let members: Vec<_> = campaign.profile.catalog.iter().map(|(id, _)| *id).collect();
    let score = telemetry::ProfilerScore::compute(&members, &gt, &campaign.profile.groups);
    println!(
        "profiler P={:.2} R={:.2} F={:.2}",
        score.precision(),
        score.recall(),
        score.f_score()
    );

    // Every ordered pair's sweep: (volume multiplier, interference seen).
    for p in &campaign.profile.pairs {
        let (a, b) = (p.attacker.index(), p.victim.index());
        println!("  sweep {a}->{b}: {:?}", p.sweep);
    }
    for (a, b, d) in campaign.profile.groups.pairs() {
        if d.is_dependent() {
            println!("  pair {}-{}: {:?}", a.index(), b.index(), d);
        }
    }
    let a0 = campaign.attack_started;
    let a1 = a0 + SimDuration::from_secs(window);
    let m = sim.metrics();
    let base = LatencySummary::compute(
        m,
        Traffic::Legit,
        None,
        SimTime::from_secs(10),
        campaign
            .profile
            .finished_at
            .min(SimTime::from_secs(30 + 10 * 60)),
    );
    let att = LatencySummary::compute(m, Traffic::Legit, None, a0 + SimDuration::from_secs(20), a1);
    println!(
        "baseline: avg={:.0}ms p95={:.0}ms  attack: avg={:.0}ms p95={:.0}ms",
        base.avg_ms, base.p95_ms, att.avg_ms, att.p95_ms
    );
    println!(
        "bursts={} total_volume={} bots={} mean_pmb={:?} stealth={:.2} active={:?}",
        campaign.report.bursts.len(),
        campaign.report.total_volume(),
        campaign.bots_used,
        campaign.report.mean_pmb(),
        campaign
            .report
            .stealth_compliance(SimDuration::from_millis(750)),
        campaign.active_paths
    );
    // per-type damage + per-group burst cadence
    for rt in 0..10u32 {
        let t = callgraph::RequestTypeId::new(rt);
        let s2 = LatencySummary::compute(
            m,
            Traffic::Legit,
            Some(t),
            a0 + SimDuration::from_secs(20),
            a1,
        );
        print!(" rt{rt}={:.0}ms", s2.avg_ms);
    }
    println!();
    for gi in 0..3usize {
        let n = campaign.report.bursts_for_group(gi).count();
        let tmins: Vec<f64> = campaign
            .report
            .tmin_series
            .iter()
            .filter(|(_, g, _)| *g == gi)
            .map(|(_, _, v)| *v)
            .collect();
        let last = tmins.last().copied().unwrap_or(0.0);
        let paths: std::collections::HashSet<_> = campaign
            .report
            .bursts_for_group(gi)
            .map(|b| b.path.index())
            .collect();
        println!(" group{gi}: bursts={n} tmin_last={last:.0}ms paths={paths:?}");
    }
    // stealth: IDS, shield, autoscaler-style coarse view
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let rep = ids.analyze(m);
    let by_kind = |k| rep.of_kind(k).count();
    println!(
        "IDS alerts: content={} proto={} interval={} (attacker hits {}) resource={}",
        by_kind(defense::AlertKind::Content),
        by_kind(defense::AlertKind::Protocol),
        by_kind(defense::AlertKind::IntervalViolation),
        rep.attacker_hits(),
        by_kind(defense::AlertKind::ResourceSaturation)
    );
    let shield = defense::RateShield::paper_default();
    println!("shield blocked IPs: {}", shield.blocked_count(m));
    let cw = telemetry::CoarseMonitor::new(m, SimDuration::from_secs(1));
    for name in [
        "memcached-post",
        "home-timeline",
        "compose-post",
        "post-storage",
        "social-graph",
        "media-service",
    ] {
        let svc = app.topology().service_by_name(name).unwrap();
        let base_u = cw.mean_utilization(svc, SimTime::from_secs(5), SimTime::from_secs(30));
        let att_u = cw.mean_utilization(svc, a0, a1);
        let peak = cw
            .series(svc)
            .iter()
            .filter(|s| s.start >= a0 && s.start < a1)
            .map(|s| s.utilization)
            .fold(0.0, f64::max);
        println!("  {name:18} base={base_u:.2} attack={att_u:.2} peak1s={peak:.2}");
    }
    let net_base: f64 = m.network_total_mb(0, 300) / 30.0;
    let a0i = (a0.as_millis() / 100) as usize;
    let a1i = ((a1.as_millis() / 100) as usize).min(m.num_windows());
    let net_att: f64 = m.network_total_mb(a0i, a1i) / ((a1i - a0i) as f64 / 10.0);
    println!("net MB/s: base={net_base:.2} attack={net_att:.2}");
    // white-box millibottlenecks during attack
    let mbs = telemetry::find_millibottlenecks(m, 0.95);
    let during: Vec<_> = mbs.iter().filter(|mb| mb.start >= a0).collect();
    let stats =
        telemetry::millibottleneck_stats(&during.iter().map(|m| **m).collect::<Vec<_>>(), None);
    println!(
        "white-box MBs during attack: {} mean={} max={}",
        stats.count, stats.mean_length, stats.max_length
    );
}
