//! Property-based tests of the detection stack's invariants.

use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
use defense::{RateShield, ShieldVerdict};
use microsim::{Origin, SimConfig, Simulation};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};

/// Brute-force reference implementation of the sliding-window budget
/// check: an IP is blocked iff some window of `window` length contains
/// more than `budget` of its requests.
fn reference_blocked(times: &[u64], window_us: u64, budget: u32) -> bool {
    for (i, &start) in times.iter().enumerate() {
        let in_window = times[i..]
            .iter()
            .take_while(|&&t| t - start < window_us)
            .count();
        if in_window as u32 > budget {
            return true;
        }
    }
    false
}

fn simulate_schedule(schedule: &[u64]) -> microsim::Metrics {
    let mut b = TopologyBuilder::new();
    let gw = b.add_service(ServiceSpec::new("gw").threads(512).cores(8).demand_cv(0.0));
    b.add_request_type("r", vec![(gw, SimDuration::from_micros(50))]);
    let mut sim = Simulation::new(b.build(), SimConfig::default());
    // One agent per request at its scheduled time, all the same IP.
    struct At(u64);
    impl microsim::Agent for At {
        fn start(&mut self, ctx: &mut microsim::SimCtx<'_>) {
            ctx.schedule_wake(SimDuration::from_millis(self.0), 0);
        }
        fn on_wake(&mut self, ctx: &mut microsim::SimCtx<'_>, _t: u64) {
            ctx.submit(RequestTypeId::new(0), Origin::attack(0xFEED, 1));
        }
    }
    for &t in schedule {
        sim.add_agent(Box::new(At(t)));
    }
    let horizon = schedule.iter().max().copied().unwrap_or(0) + 5_000;
    sim.run_until(SimTime::from_millis(horizon));
    sim.into_metrics()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shield's sliding-window analysis agrees with a brute-force
    /// reference on arbitrary request schedules.
    #[test]
    fn shield_matches_reference(
        mut offsets in prop::collection::vec(0u64..30_000, 1..60),
        window_ms in 500u64..10_000,
        budget in 1u32..20,
    ) {
        offsets.sort_unstable();
        let metrics = simulate_schedule(&offsets);
        let shield = RateShield::new(SimDuration::from_millis(window_ms), budget);
        let verdicts = shield.analyze(&metrics);
        let got_blocked = matches!(verdicts.get(&0xFEED), Some(ShieldVerdict::Blocked(_)));
        let times_us: Vec<u64> = metrics
            .access_log()
            .iter()
            .map(|e| e.at.as_micros())
            .collect();
        let expected = reference_blocked(&times_us, window_ms * 1_000, budget);
        prop_assert_eq!(got_blocked, expected);
    }

    /// Bot sizing: the computed farm always keeps each IP within budget.
    #[test]
    fn min_bots_keeps_each_ip_within_budget(
        total in 1u64..1_000_000,
        duration_s in 1u64..7_200,
    ) {
        let shield = RateShield::paper_default();
        let bots = shield.min_bots(total, SimDuration::from_secs(duration_s));
        prop_assert!(bots >= 1);
        let windows = (duration_s as f64 / 300.0).ceil().max(1.0);
        let per_ip = total as f64 / bots as f64;
        prop_assert!(
            per_ip <= 100.0 * windows + 1.0,
            "per-ip {per_ip} over budget with {bots} bots"
        );
    }
}
