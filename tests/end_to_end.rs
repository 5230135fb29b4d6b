//! Workspace-level end-to-end test: the full pipeline on a µBench target
//! that no other test exercises — generation, workload, profiling, attack,
//! white-box analysis and defenses, spanning every crate.

use apps::{UBench, UBenchConfig};
use defense::{AlertKind, Ids, IdsConfig, RateShield};
use grunt::{CampaignConfig, GruntCampaign};
use microsim::{SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::{GroundTruth, LatencySummary, ProfilerScore, Traffic};
use workload::ClosedLoopUsers;

#[test]
fn grunt_campaign_on_unknown_ubench_app() {
    let users = 3_000;
    let app = UBench::generate(UBenchConfig::app1(users));
    let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(1234));
    sim.add_agent(Box::new(ClosedLoopUsers::new(
        users,
        app.browsing_model(),
        55,
    )));
    sim.run_until(SimTime::from_secs(20));

    let attack = SimDuration::from_secs(120);
    let campaign = GruntCampaign::run(&mut sim, CampaignConfig::default(), attack);

    // Profiling quality against ground truth.
    let gt = GroundTruth::from_topology(app.topology());
    let members: Vec<_> = campaign.profile.catalog.iter().map(|(id, _)| *id).collect();
    let score = ProfilerScore::compute(&members, &gt, &campaign.profile.groups);
    assert!(
        score.f_score() > 0.8,
        "profiler F {:.2} (P {:.2} R {:.2})",
        score.f_score(),
        score.precision(),
        score.recall()
    );

    // Damage on legitimate users.
    let m = sim.metrics();
    let base = LatencySummary::compute(
        m,
        Traffic::Legit,
        None,
        SimTime::from_secs(5),
        SimTime::from_secs(20),
    );
    let a0 = campaign.attack_started + SimDuration::from_secs(20);
    let a1 = campaign.attack_started + attack;
    let att = LatencySummary::compute(m, Traffic::Legit, None, a0, a1);
    assert!(
        att.avg_ms > 4.0 * base.avg_ms,
        "damage {:.0} -> {:.0} ms",
        base.avg_ms,
        att.avg_ms
    );

    // Stealth against identity-keyed detectors.
    let ids = Ids::new(IdsConfig::default()).analyze(m);
    assert_eq!(
        ids.of_kind(AlertKind::IntervalViolation)
            .filter(|a| a.hit_attacker)
            .count(),
        0
    );
    assert_eq!(RateShield::paper_default().blocked_count(m), 0);

    // White-box: the attack manifests as sub-second alternating
    // millibottlenecks, not sustained saturation.
    let mbs = telemetry::find_millibottlenecks(m, 0.95);
    let during: Vec<_> = mbs
        .iter()
        .filter(|mb| mb.start >= campaign.attack_started)
        .copied()
        .collect();
    let stats = telemetry::millibottleneck_stats(&during, None);
    assert!(stats.count > 5, "millibottlenecks: {}", stats.count);
    assert!(
        stats.mean_length < SimDuration::from_millis(700),
        "mean MB {}",
        stats.mean_length
    );
    // Bottlenecks hit more than one distinct service (alternation).
    let services: std::collections::BTreeSet<_> = during.iter().map(|mb| mb.service).collect();
    assert!(services.len() >= 2, "alternating services: {services:?}");
}
