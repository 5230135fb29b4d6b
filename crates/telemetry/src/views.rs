//! Monitor views at different sampling granularities.

use callgraph::ServiceId;
use microsim::Metrics;
use simnet::{SimDuration, SimTime};

/// One coarse (aggregated) monitor sample for a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseSample {
    /// Sample interval start.
    pub start: SimTime,
    /// Mean CPU utilisation over the interval, `[0, 1]`.
    pub utilization: f64,
    /// Mean queue length (admitted + waiting) over the interval.
    pub queue_len: f64,
    /// Active replicas at interval end.
    pub replicas: u32,
    /// Arrivals during the interval.
    pub arrivals: u32,
}

/// The CloudWatch / Azure Monitor view: per-service metrics aggregated to a
/// coarse interval (1 s in the paper — their finest supported granularity).
///
/// # Example
///
/// ```no_run
/// # let metrics: microsim::Metrics = unimplemented!();
/// use telemetry::CoarseMonitor;
/// use simnet::SimDuration;
///
/// let cw = CoarseMonitor::new(&metrics, SimDuration::from_secs(1));
/// let series = cw.series(callgraph::ServiceId::new(3));
/// let peak = series.iter().map(|s| s.utilization).fold(0.0, f64::max);
/// assert!(peak <= 1.0);
/// ```
#[derive(Debug)]
pub struct CoarseMonitor {
    interval: SimDuration,
    /// `samples[s]` = coarse series of service `s`.
    samples: Vec<Vec<CoarseSample>>,
}

impl CoarseMonitor {
    /// Aggregates the fine windows of `metrics` into `interval` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is smaller than the metrics window.
    pub fn new(metrics: &Metrics, interval: SimDuration) -> Self {
        let fine = metrics.window();
        assert!(
            interval >= fine,
            "coarse interval must not be finer than the metrics window"
        );
        let per = (interval.as_micros() / fine.as_micros()).max(1) as usize;
        let nsvc = metrics.num_services();
        let mut samples: Vec<Vec<CoarseSample>> = vec![Vec::new(); nsvc];
        let windows: Vec<&[microsim::ServiceWindow]> = metrics.windows().collect();
        for chunk in windows.chunks(per) {
            if chunk.is_empty() {
                continue;
            }
            for s in 0..nsvc {
                let n = chunk.len() as f64;
                let util = chunk.iter().map(|w| w[s].utilization(fine)).sum::<f64>() / n;
                let queue = chunk
                    .iter()
                    .map(|w| f64::from(w[s].queue_len()))
                    .sum::<f64>()
                    / n;
                let arrivals = chunk.iter().map(|w| w[s].arrivals).sum();
                samples[s].push(CoarseSample {
                    start: chunk[0][s].start,
                    utilization: util,
                    queue_len: queue,
                    replicas: chunk.last().expect("non-empty")[s].replicas,
                    arrivals,
                });
            }
        }
        CoarseMonitor { interval, samples }
    }

    /// Aggregates only the coarse buckets whose start lies in `[from, to)`.
    ///
    /// Bucket boundaries stay aligned to the run start exactly as in
    /// [`CoarseMonitor::new`] (bucket `k` covers fine rows
    /// `[k·per, (k+1)·per)`), and each in-window bucket accumulates its
    /// rows in the same order, so the produced samples are bit-identical
    /// to the corresponding samples of a full aggregation. Window row `w`
    /// starts at exactly `w · window`, so locating the bucket range is
    /// O(1) and the cost is O(in-window rows), not O(run).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is smaller than the metrics window.
    pub fn over(metrics: &Metrics, interval: SimDuration, from: SimTime, to: SimTime) -> Self {
        let fine = metrics.window();
        assert!(
            interval >= fine,
            "coarse interval must not be finer than the metrics window"
        );
        let per = (interval.as_micros() / fine.as_micros()).max(1) as usize;
        let span = per as u64 * fine.as_micros();
        let rows = metrics.num_windows();
        let buckets = rows.div_ceil(per);
        let lo = (from.as_micros().div_ceil(span) as usize).min(buckets);
        let hi = (to.as_micros().div_ceil(span) as usize).min(buckets);
        let nsvc = metrics.num_services();
        let mut samples: Vec<Vec<CoarseSample>> = vec![Vec::new(); nsvc];
        for k in lo..hi {
            let (a, b) = (k * per, ((k + 1) * per).min(rows));
            let n = (b - a) as f64;
            for (s, series) in samples.iter_mut().enumerate() {
                let service = ServiceId::new(s as u32);
                let mut start = SimTime::ZERO;
                let mut util = 0.0;
                let mut queue = 0.0;
                let mut arrivals = 0u32;
                let mut replicas = 0u32;
                for (i, w) in metrics.service_window_range(service, a, b).enumerate() {
                    if i == 0 {
                        start = w.start;
                    }
                    util += w.utilization(fine);
                    queue += f64::from(w.queue_len());
                    arrivals += w.arrivals;
                    replicas = w.replicas;
                }
                series.push(CoarseSample {
                    start,
                    utilization: util / n,
                    queue_len: queue / n,
                    replicas,
                    arrivals,
                });
            }
        }
        CoarseMonitor { interval, samples }
    }

    /// The aggregation interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The coarse series of one service.
    pub fn series(&self, service: ServiceId) -> &[CoarseSample] {
        &self.samples[service.index()]
    }

    /// Peak coarse utilisation of a service over the whole run.
    pub fn peak_utilization(&self, service: ServiceId) -> f64 {
        self.series(service)
            .iter()
            .map(|s| s.utilization)
            .fold(0.0, f64::max)
    }

    /// Mean coarse utilisation of a service over `[from, to)`.
    pub fn mean_utilization(&self, service: ServiceId, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .series(service)
            .iter()
            .filter(|s| s.start >= from && s.start < to)
            .map(|s| s.utilization)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// The fine-grained (100 ms) view — a thin typed wrapper over the raw
/// metrics windows, as used for the paper's zoom-in plots.
#[derive(Debug)]
pub struct FineMonitor<'a> {
    metrics: &'a Metrics,
}

impl<'a> FineMonitor<'a> {
    /// Wraps the metrics of a run.
    pub fn new(metrics: &'a Metrics) -> Self {
        FineMonitor { metrics }
    }

    /// The sampling window.
    pub fn window(&self) -> SimDuration {
        self.metrics.window()
    }

    /// `(window start, utilization)` series of one service.
    pub fn utilization_series(&self, service: ServiceId) -> Vec<(SimTime, f64)> {
        let w = self.metrics.window();
        self.metrics
            .service_series(service)
            .map(|s| (s.start, s.utilization(w)))
            .collect()
    }

    /// `(window start, queue length)` series of one service — the paper's
    /// "queued requests" plot (Fig 13c).
    pub fn queue_series(&self, service: ServiceId) -> Vec<(SimTime, u32)> {
        self.metrics
            .service_series(service)
            .map(|s| (s.start, s.queue_len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
    use microsim::agents::FixedRate;
    use microsim::{SimConfig, Simulation};

    fn run() -> Metrics {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(64).demand_cv(0.0));
        b.add_request_type("r", vec![(gw, SimDuration::from_millis(5))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default());
        // 100 req/s of 5 ms demand = 50% utilisation.
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(10),
            500,
        )));
        sim.run_until(SimTime::from_secs(5));
        sim.into_metrics()
    }

    #[test]
    fn coarse_aggregates_to_one_second() {
        let m = run();
        let cw = CoarseMonitor::new(&m, SimDuration::from_secs(1));
        let series = cw.series(ServiceId::new(0));
        assert!(series.len() >= 4, "got {} samples", series.len());
        // Steady 50% load.
        let mid = series[2].utilization;
        assert!((mid - 0.5).abs() < 0.1, "utilization {mid}");
        assert_eq!(cw.interval(), SimDuration::from_secs(1));
    }

    #[test]
    fn windowed_aggregation_matches_full() {
        let m = run();
        let svc = ServiceId::new(0);
        let full = CoarseMonitor::new(&m, SimDuration::from_secs(1));
        let (from, to) = (SimTime::from_secs(1), SimTime::from_secs(4));
        let windowed = CoarseMonitor::over(&m, SimDuration::from_secs(1), from, to);
        let expect: Vec<CoarseSample> = full
            .series(svc)
            .iter()
            .filter(|s| s.start >= from && s.start < to)
            .copied()
            .collect();
        assert_eq!(windowed.series(svc), &expect[..]);
        let all = CoarseMonitor::over(
            &m,
            SimDuration::from_secs(1),
            SimTime::ZERO,
            SimTime::FAR_FUTURE,
        );
        assert_eq!(all.series(svc), full.series(svc));
        let empty = CoarseMonitor::over(&m, SimDuration::from_secs(1), to, to);
        assert!(empty.series(svc).is_empty());
    }

    #[test]
    fn coarse_mean_and_peak_consistent() {
        let m = run();
        let cw = CoarseMonitor::new(&m, SimDuration::from_secs(1));
        let svc = ServiceId::new(0);
        let mean = cw.mean_utilization(svc, SimTime::ZERO, SimTime::from_secs(5));
        let peak = cw.peak_utilization(svc);
        assert!(peak >= mean);
        assert!(mean > 0.3);
    }

    #[test]
    fn fine_series_have_window_resolution() {
        let m = run();
        let fine = FineMonitor::new(&m);
        let series = fine.utilization_series(ServiceId::new(0));
        assert!(series.len() >= 45, "got {}", series.len());
        assert_eq!(fine.window(), SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "must not be finer")]
    fn coarse_finer_than_fine_rejected() {
        let m = run();
        CoarseMonitor::new(&m, SimDuration::from_millis(10));
    }
}
