//! AWS-Shield-style per-IP rate limiting.

use std::collections::BTreeMap;

use microsim::Metrics;
use simnet::{SimDuration, SimTime};

use crate::window;

/// Verdict of the shield for one source IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShieldVerdict {
    /// The IP never exceeded the budget.
    Allowed,
    /// The IP would have been blocked starting at the given time.
    Blocked(SimTime),
}

/// Per-IP request budget per rolling window (the paper cites AWS Shield's
/// requests-per-IP-per-5-minutes limit as the rate-based bot defence the
/// attacker sizes the bot farm against).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateShield {
    /// Window length (5 minutes by default).
    pub window: SimDuration,
    /// Maximum requests per IP per window.
    pub max_per_window: u32,
}

impl RateShield {
    /// Creates a shield.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or the budget is zero.
    pub fn new(window: SimDuration, max_per_window: u32) -> Self {
        assert!(!window.is_zero(), "shield window must be positive");
        assert!(max_per_window > 0, "shield budget must be positive");
        RateShield {
            window,
            max_per_window,
        }
    }

    /// A representative production configuration: 100 requests per IP per
    /// 5 minutes.
    pub fn paper_default() -> Self {
        Self::new(SimDuration::from_secs(300), 100)
    }

    /// Replays the access log and returns the verdict per IP (sliding
    /// window, exact).
    ///
    /// Routes through [`RateShield::analyze_window`] with an all-covering
    /// window; [`RateShield::analyze_naive`] is the full-scan ground truth
    /// and returns an identical map.
    pub fn analyze(&self, metrics: &Metrics) -> BTreeMap<u32, ShieldVerdict> {
        self.analyze_window(metrics, SimTime::ZERO, SimTime::FAR_FUTURE)
    }

    /// Verdict per IP over the submissions in `[from, to)` only, grouped
    /// by IP with one sort of the window: O(m log m) for the m in-window
    /// entries, not O(run). Each IP's run of sorted keys is in log order,
    /// so its times are chronological.
    pub fn analyze_window(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
    ) -> BTreeMap<u32, ShieldVerdict> {
        let log = metrics.access_log();
        let mut times: Vec<SimTime> = Vec::with_capacity(log.count_in(from, to));
        let keys = window::sorted_keys(log, from, to, |e| {
            times.push(e.at);
            e.origin.ip
        });
        let mut run: Vec<SimTime> = Vec::new();
        keys.chunk_by(|&a, &b| window::group(a) == window::group(b))
            .map(|ip_keys| {
                run.clear();
                run.extend(ip_keys.iter().map(|&k| times[window::ordinal(k)]));
                (window::group(ip_keys[0]), self.verdict(&run))
            })
            .collect()
    }

    /// Full-scan ground truth for [`RateShield::analyze_window`]: same
    /// window semantics via a predicate filter over the whole log. Kept as
    /// the differential-testing oracle.
    pub fn analyze_naive(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
    ) -> BTreeMap<u32, ShieldVerdict> {
        let mut per_ip: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
        for e in metrics.access_log() {
            if e.at >= from && e.at < to {
                per_ip.entry(e.origin.ip).or_default().push(e.at);
            }
        }
        per_ip
            .into_iter()
            .map(|(ip, times)| (ip, self.verdict(&times)))
            .collect()
    }

    /// Exact sliding-window check over one IP's chronological submission
    /// times (the access log is appended in time order, so no sort).
    fn verdict(&self, times: &[SimTime]) -> ShieldVerdict {
        let w = self.window;
        let mut lo = 0usize;
        for hi in 0..times.len() {
            while times[hi].saturating_since(times[lo]) >= w {
                lo += 1;
            }
            if (hi - lo + 1) as u32 > self.max_per_window {
                return ShieldVerdict::Blocked(times[hi]);
            }
        }
        ShieldVerdict::Allowed
    }

    /// Number of IPs that would have been blocked.
    pub fn blocked_count(&self, metrics: &Metrics) -> usize {
        self.analyze(metrics)
            .values()
            .filter(|v| matches!(v, ShieldVerdict::Blocked(_)))
            .count()
    }

    /// The smallest bot-farm size that keeps a campaign of `total_requests`
    /// requests over `duration` under the per-IP budget — the sizing rule
    /// the attacker applies (Table III's "Bot" column).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn min_bots(&self, total_requests: u64, duration: SimDuration) -> u64 {
        assert!(!duration.is_zero(), "campaign duration must be positive");
        let windows = (duration.as_micros() as f64 / self.window.as_micros() as f64).ceil();
        let budget_per_ip = u64::from(self.max_per_window) * windows as u64;
        total_requests.div_ceil(budget_per_ip.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
    use microsim::agents::FixedRate;
    use microsim::{Origin, SimConfig, Simulation};

    fn run(interval_ms: u64, count: u64) -> Metrics {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(64).demand_cv(0.0));
        b.add_request_type("r", vec![(gw, SimDuration::from_millis(1))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default());
        sim.add_agent(Box::new(
            FixedRate::new(
                RequestTypeId::new(0),
                SimDuration::from_millis(interval_ms),
                count,
            )
            .with_origin(Origin::attack(0xDEAD, 1)),
        ));
        sim.run_until(SimTime::from_secs(600));
        sim.into_metrics()
    }

    #[test]
    fn under_budget_ip_allowed() {
        // 50 requests over 500 s — well under 100 per 5 min.
        let m = run(10_000, 50);
        let shield = RateShield::paper_default();
        assert_eq!(shield.blocked_count(&m), 0);
        assert_eq!(shield.analyze(&m)[&0xDEAD], ShieldVerdict::Allowed);
    }

    #[test]
    fn over_budget_ip_blocked() {
        // 150 requests in 15 s — way over budget.
        let m = run(100, 150);
        let shield = RateShield::paper_default();
        assert_eq!(shield.blocked_count(&m), 1);
        match shield.analyze(&m)[&0xDEAD] {
            ShieldVerdict::Blocked(at) => {
                assert!(at <= SimTime::from_secs(15));
            }
            ShieldVerdict::Allowed => panic!("expected a block"),
        }
    }

    #[test]
    fn sliding_window_is_exact() {
        // Exactly the budget within a window stays allowed; one more in
        // the same window blocks.
        let shield = RateShield::new(SimDuration::from_secs(10), 3);
        let m = run(5_000, 3); // 3 requests over 10 s; boundary excluded
        assert_eq!(shield.blocked_count(&m), 0);
        let m = run(1_000, 4); // 4 requests in 3 s
        assert_eq!(shield.blocked_count(&m), 1);
    }

    #[test]
    fn indexed_analysis_matches_naive_scan() {
        let m = run(100, 150);
        let shield = RateShield::new(SimDuration::from_secs(10), 40);
        assert_eq!(
            shield.analyze(&m),
            shield.analyze_naive(&m, SimTime::ZERO, SimTime::FAR_FUTURE)
        );
        for (a, b) in [(0u64, 15u64), (2, 9), (9, 2), (14, 60), (5, 5)] {
            let (from, to) = (SimTime::from_secs(a), SimTime::from_secs(b));
            assert_eq!(
                shield.analyze_window(&m, from, to),
                shield.analyze_naive(&m, from, to),
                "window [{a}s, {b}s)"
            );
        }
        // A short window sees fewer requests: the IP that is blocked over
        // the full run can stay allowed inside a narrow window.
        let narrow = shield.analyze_window(&m, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(narrow[&0xDEAD], ShieldVerdict::Allowed);
    }

    #[test]
    fn min_bots_sizing() {
        let shield = RateShield::paper_default();
        // 20-minute campaign = 4 windows; per-IP budget 400.
        assert_eq!(shield.min_bots(400, SimDuration::from_secs(1200)), 1);
        assert_eq!(shield.min_bots(401, SimDuration::from_secs(1200)), 2);
        assert_eq!(shield.min_bots(100_000, SimDuration::from_secs(1200)), 250);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        RateShield::new(SimDuration::from_secs(1), 0);
    }
}
