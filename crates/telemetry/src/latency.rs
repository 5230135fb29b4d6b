//! Client-perceived latency analysis.

use callgraph::RequestTypeId;
use microsim::{Metrics, RequestFilter, RequestRecord};
use simnet::{nearest_rank, select_percentiles, SimDuration, SimTime};

/// Which traffic class to include when analysing latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Only ground-truth legitimate requests (what the paper's tables
    /// report: the damage perceived by normal users).
    Legit,
    /// Only attack requests (the attacker's own Monitor input).
    Attack,
    /// Everything.
    All,
}

impl Traffic {
    fn matches(self, rec: &RequestRecord) -> bool {
        match self {
            Traffic::Legit => !rec.origin.is_attack,
            Traffic::Attack => rec.origin.is_attack,
            Traffic::All => true,
        }
    }

    /// The equivalent indexed-query origin filter.
    fn attack_filter(self) -> Option<bool> {
        match self {
            Traffic::Legit => Some(false),
            Traffic::Attack => Some(true),
            Traffic::All => None,
        }
    }
}

/// Summary statistics of response times over a time range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of requests.
    pub count: usize,
    /// Mean RT in milliseconds.
    pub avg_ms: f64,
    /// 95th-percentile RT in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile RT in milliseconds.
    pub p99_ms: f64,
    /// Maximum RT in milliseconds.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Computes a summary over the requests of `metrics` completed in
    /// `[from, to)`, restricted to `traffic` and optionally to one request
    /// type. Returns an all-zero summary when nothing matches.
    ///
    /// Runs on the request log's per-segment indexes, so cost is
    /// O(matching records) — including the `Traffic::All` + no-type shape,
    /// which resolves the time range by binary search instead of testing
    /// every record. Samples are gathered in completion order (exactly the
    /// order the naive scan pushes them) and the mean is summed before the
    /// percentiles are selected, so every statistic — means and exact
    /// nearest-rank percentiles alike — is **bit-identical** to
    /// [`LatencySummary::compute_naive`], which sorts instead of selecting;
    /// a differential proptest asserts this.
    pub fn compute(
        metrics: &Metrics,
        traffic: Traffic,
        request_type: Option<RequestTypeId>,
        from: SimTime,
        to: SimTime,
    ) -> Self {
        let filter = RequestFilter {
            is_attack: traffic.attack_filter(),
            request_type,
            outcome: None,
        };
        let log = metrics.request_log();
        let n = log.count_matching(from, to, filter);
        if n == 0 {
            return LatencySummary {
                count: 0,
                avg_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let mut samples = Vec::with_capacity(n);
        log.for_each_matching(from, to, filter, |rec| {
            samples.push(rec.latency().as_millis_f64());
        });
        // Sum and fold in completion order, before the selection below
        // permutes the samples.
        let avg_ms = samples.iter().sum::<f64>() / n as f64;
        let max_ms = samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let [p95_ms, p99_ms] = select_percentiles(&mut samples, [0.95, 0.99]);
        LatencySummary {
            count: n,
            avg_ms,
            p95_ms,
            p99_ms,
            max_ms,
        }
    }

    /// Reference implementation of [`LatencySummary::compute`]: a full
    /// scan of the request log with predicate filtering, and percentiles
    /// read from a stable sort of the matches rather than selected. Kept
    /// public as the ground truth for differential tests and benches.
    pub fn compute_naive(
        metrics: &Metrics,
        traffic: Traffic,
        request_type: Option<RequestTypeId>,
        from: SimTime,
        to: SimTime,
    ) -> Self {
        let mut samples = Vec::new();
        for rec in metrics.request_log() {
            if rec.completed_at < from || rec.completed_at >= to {
                continue;
            }
            if !traffic.matches(rec) {
                continue;
            }
            if let Some(rt) = request_type {
                if rec.request_type != rt {
                    continue;
                }
            }
            samples.push(rec.latency().as_millis_f64());
        }
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                avg_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let n = samples.len();
        let avg_ms = samples.iter().sum::<f64>() / n as f64;
        let max_ms = samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        LatencySummary {
            count: n,
            avg_ms,
            p95_ms: samples[nearest_rank(n, 0.95)],
            p99_ms: samples[nearest_rank(n, 0.99)],
            max_ms,
        }
    }
}

/// A windowed average-latency series — the timeline plots of Figs 1, 13d
/// and 15d.
#[derive(Debug, Clone)]
pub struct LatencySeries {
    window: SimDuration,
    /// `(window start, mean RT ms, count)` per window; windows with no
    /// completions carry a zero mean.
    points: Vec<(SimTime, f64, usize)>,
}

impl LatencySeries {
    /// Builds the series over `[0, horizon)` with the given window.
    ///
    /// Buckets via the request log's indexes: the origin posting lists
    /// slice away the non-matching traffic class and the time range is
    /// resolved by binary search. Records are visited in completion order,
    /// so each bucket's float accumulation order — and hence every mean —
    /// is bit-identical to a naive full scan.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn compute(
        metrics: &Metrics,
        traffic: Traffic,
        window: SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let n = (horizon.as_micros() / window.as_micros()) as usize + 1;
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        let filter = RequestFilter {
            is_attack: traffic.attack_filter(),
            request_type: None,
            outcome: None,
        };
        metrics
            .request_log()
            .for_each_matching(SimTime::ZERO, horizon, filter, |rec| {
                let idx = (rec.completed_at.as_micros() / window.as_micros()) as usize;
                sums[idx] += rec.latency().as_millis_f64();
                counts[idx] += 1;
            });
        let points = (0..n)
            .map(|i| {
                let start = SimTime::from_micros(i as u64 * window.as_micros());
                let mean = if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else {
                    0.0
                };
                (start, mean, counts[i])
            })
            .collect();
        LatencySeries { window, points }
    }

    /// Reference implementation of [`LatencySeries::compute`]: a full scan
    /// of the request log with predicate filtering. Kept public as the
    /// ground truth for differential tests; bucket accumulation order is
    /// identical (completion order), so every mean is bit-identical.
    pub fn compute_naive(
        metrics: &Metrics,
        traffic: Traffic,
        window: SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let n = (horizon.as_micros() / window.as_micros()) as usize + 1;
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for rec in metrics.request_log() {
            if rec.completed_at >= horizon || !traffic.matches(rec) {
                continue;
            }
            let idx = (rec.completed_at.as_micros() / window.as_micros()) as usize;
            sums[idx] += rec.latency().as_millis_f64();
            counts[idx] += 1;
        }
        let points = (0..n)
            .map(|i| {
                let start = SimTime::from_micros(i as u64 * window.as_micros());
                let mean = if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else {
                    0.0
                };
                (start, mean, counts[i])
            })
            .collect();
        LatencySeries { window, points }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// `(window start, mean RT ms, count)` points.
    pub fn points(&self) -> &[(SimTime, f64, usize)] {
        &self.points
    }

    /// Largest windowed mean RT.
    pub fn peak_ms(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// Mean of the non-empty windows in `[from, to)`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let pts: Vec<&(SimTime, f64, usize)> = self
            .points
            .iter()
            .filter(|(t, _, c)| *t >= from && *t < to && *c > 0)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{ServiceSpec, TopologyBuilder};
    use microsim::agents::FixedRate;
    use microsim::{Origin, SimConfig, Simulation};

    fn run() -> Metrics {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(64).demand_cv(0.0));
        b.add_request_type("r", vec![(gw, SimDuration::from_millis(5))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(20),
            100,
        )));
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), SimDuration::from_millis(40), 25)
                .with_origin(Origin::attack(99, 99)),
        ));
        sim.run_until(SimTime::from_secs(5));
        sim.into_metrics()
    }

    #[test]
    fn summary_splits_traffic_classes() {
        let m = run();
        let all = LatencySummary::compute(
            &m,
            Traffic::All,
            None,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let legit = LatencySummary::compute(
            &m,
            Traffic::Legit,
            None,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let attack = LatencySummary::compute(
            &m,
            Traffic::Attack,
            None,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(all.count, 125);
        assert_eq!(legit.count, 100);
        assert_eq!(attack.count, 25);
        // Mostly idle: RT = 5 ms demand + 2 hops * 0.25 = 5.5 ms, except
        // when the two sources collide and one queues 5 ms more.
        assert!((5.4..8.0).contains(&legit.avg_ms), "avg {}", legit.avg_ms);
        assert!(legit.p95_ms >= legit.avg_ms * 0.9);
        assert!(all.max_ms >= all.p99_ms);
    }

    #[test]
    fn summary_empty_range_is_zero() {
        let m = run();
        let s = LatencySummary::compute(
            &m,
            Traffic::All,
            None,
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        );
        assert_eq!(s.count, 0);
        assert_eq!(s.avg_ms, 0.0);
    }

    #[test]
    fn series_buckets_by_completion_time() {
        let m = run();
        let series = LatencySeries::compute(
            &m,
            Traffic::All,
            SimDuration::from_secs(1),
            SimTime::from_secs(5),
        );
        assert_eq!(series.points().len(), 6);
        let first_sec = series.points()[0];
        assert!(first_sec.2 > 0, "first second should have completions");
        assert!(
            (5.4..11.0).contains(&series.peak_ms()),
            "peak {}",
            series.peak_ms()
        );
        assert!(series.mean_over(SimTime::ZERO, SimTime::from_secs(5)) > 0.0);
    }

    #[test]
    fn series_filter_by_request_type() {
        let m = run();
        let s = LatencySummary::compute(
            &m,
            Traffic::All,
            Some(RequestTypeId::new(0)),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(s.count, 125);
        let none = LatencySummary::compute(
            &m,
            Traffic::All,
            Some(RequestTypeId::new(5)),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(none.count, 0);
    }
}
