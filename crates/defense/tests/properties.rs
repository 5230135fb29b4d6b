//! Property-based tests of the detection stack's invariants.

use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
use defense::{Ids, IdsConfig, RateShield, ShieldVerdict};
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

/// The clients of [`simulate_script`]: sessions share IPs, and two pairs of
/// sessions share their low 32 bits.
const CLIENTS: [(u32, u64, bool); 6] = [
    (1, 1, false),
    (1, 2, false),
    (2, 1 | 1 << 32, true),
    (2, 3, false),
    (3, 2 | 7 << 32, true),
    (3, 4, false),
];

/// Replays a script of `(millisecond, client, oversized)` submissions,
/// sorted by time; several submissions may share one millisecond. An
/// oversized request carries a 2 MiB payload, over the IDS content limit.
fn simulate_script(script: Vec<(u64, usize, bool)>) -> microsim::Metrics {
    let mut b = TopologyBuilder::new();
    let gw = b.add_service(ServiceSpec::new("gw").threads(512).cores(8).demand_cv(0.0));
    let step = vec![(gw, SimDuration::from_micros(50))];
    b.add_request_type("small", step.clone());
    b.add_request_type_sized("oversized", step, 2 << 20, 1024);
    let mut sim = Simulation::new(b.build(), SimConfig::default());
    #[derive(Clone)]
    struct Script(Vec<(u64, usize, bool)>);
    impl microsim::Agent for Script {
        fn start(&mut self, ctx: &mut microsim::SimCtx<'_>) {
            if let Some(&(first, ..)) = self.0.first() {
                ctx.schedule_wake(SimDuration::from_millis(first), first);
            }
        }
        fn on_wake(&mut self, ctx: &mut microsim::SimCtx<'_>, ms: u64) {
            let lo = self.0.partition_point(|&(t, ..)| t < ms);
            let hi = self.0.partition_point(|&(t, ..)| t <= ms);
            for &(_, client, oversized) in &self.0[lo..hi] {
                let (ip, session, is_attack) = CLIENTS[client];
                let origin = if is_attack {
                    Origin::attack(ip, session)
                } else {
                    Origin::legit(ip, session)
                };
                ctx.submit(RequestTypeId::new(u32::from(oversized)), origin);
            }
            if let Some(&(next, ..)) = self.0.get(hi) {
                ctx.schedule_wake(SimDuration::from_millis(next - ms), next);
            }
        }
    }
    let horizon = script.last().map_or(0, |&(t, ..)| t) + 100;
    sim.add_agent(Box::new(Script(script)));
    sim.run_until(SimTime::from_millis(horizon));
    sim.into_metrics()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sort-based window audits agree with their full-scan oracles on
    /// random scripts of over 1,024 submissions (so windows span sealed
    /// access-log segments plus the tail), over random windows, including
    /// empty and inverted ones. The interval threshold and the shield's
    /// window are short enough that interval alerts and `Blocked` verdicts
    /// both occur, and some gaps equal the threshold exactly.
    #[test]
    fn window_audits_match_naive_scan(
        // One submission in 50 is oversized.
        steps in prop::collection::vec((0u64..3, 0..CLIENTS.len(), 0u8..50), 1_100..1_500),
        windows in prop::collection::vec((0u64..2_400, 0u64..2_400), 1..8),
        interval_ms in 1u64..8,
        shield_ms in 5u64..40,
        budget in 2u32..30,
    ) {
        let mut t = 0;
        let script: Vec<(u64, usize, bool)> = steps
            .into_iter()
            .map(|(dt, client, size)| {
                t += dt;
                (t, client, size == 0)
            })
            .collect();
        let metrics = simulate_script(script);
        prop_assert!(!metrics.access_log().sealed().is_empty());
        let ids = Ids::new(IdsConfig {
            min_session_interval: SimDuration::from_millis(interval_ms),
            ..IdsConfig::default()
        });
        let shield = RateShield::new(SimDuration::from_millis(shield_ms), budget);
        let all = (SimTime::ZERO, SimTime::FAR_FUTURE);
        let empty = (SimTime::from_millis(windows[0].0), SimTime::from_millis(windows[0].0));
        for (from, to) in windows
            .iter()
            .map(|&(a, b)| (SimTime::from_millis(a), SimTime::from_millis(b)))
            .chain([all, empty])
        {
            prop_assert_eq!(
                ids.analyze_window(&metrics, from, to),
                ids.analyze_naive(&metrics, from, to),
                "IDS window [{:?}, {:?})", from, to
            );
            prop_assert_eq!(
                shield.analyze_window(&metrics, from, to),
                shield.analyze_naive(&metrics, from, to),
                "shield window [{:?}, {:?})", from, to
            );
        }
    }

    /// The shield's sliding-window analysis agrees with a brute-force
    /// reference on arbitrary request schedules.
    #[test]
    fn shield_matches_reference(
        mut offsets in prop::collection::vec(0u64..30_000, 1..60),
        window_ms in 500u64..10_000,
        budget in 1u32..20,
    ) {
        offsets.sort_unstable();
        // One client, so every submission comes from one IP.
        let metrics = simulate_script(offsets.iter().map(|&t| (t, 0, false)).collect());
        let shield = RateShield::new(SimDuration::from_millis(window_ms), budget);
        let verdicts = shield.analyze(&metrics);
        let got_blocked = matches!(verdicts.get(&CLIENTS[0].0), Some(ShieldVerdict::Blocked(_)));
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
