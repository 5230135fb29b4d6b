//! White-box metric collection: what the administrator (and the
//! experiment harness) can see.
//!
//! The kernel samples every service at a fixed fine-grained window
//! (100 ms by default, matching the paper's Collectl-based zoom-in
//! analysis). Coarser views — the 1 s CloudWatch granularity that the
//! auto-scaler and the resource-based IDS rules see — are aggregations of
//! these windows provided by the `telemetry` crate.
//!
//! All append-only logs are stored as copy-on-write segmented logs (see
//! [`crate::seglog`]): warm-state forks share the sealed prefix behind
//! `Arc` instead of deep-copying it, and the request log carries
//! per-segment indexes so telemetry queries touch only matching records.

use callgraph::{RequestTypeId, ServiceId};
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

use crate::autoscale::ScalingAction;
use crate::job::{Origin, Outcome};
use crate::seglog::{AccessLog, RequestLog, WindowLog};

/// Per-service measurements for one sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceWindow {
    /// Window start time.
    pub start: SimTime,
    /// Core-busy time accumulated in the window, summed over replicas.
    pub busy: SimDuration,
    /// Active cores at window end (normalisation denominator).
    pub active_cores: u32,
    /// Thread slots in use at window end.
    pub admitted: u32,
    /// Requests waiting for a thread slot at window end (queued at the
    /// service, i.e. the paper's "queued requests").
    pub waiting: u32,
    /// RPC/request arrivals during the window.
    pub arrivals: u32,
    /// Step completions during the window.
    pub completions: u32,
    /// Active replicas at window end.
    pub replicas: u32,
}

impl ServiceWindow {
    /// CPU utilisation in `[0, 1]` for the window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        let denom = window.as_secs_f64() * f64::from(self.active_cores.max(1));
        (self.busy.as_secs_f64() / denom).min(1.0)
    }

    /// Total requests in the service (admitted + waiting) at window end.
    pub fn queue_len(&self) -> u32 {
        self.admitted + self.waiting
    }
}

/// One completed end-to-end request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The request type that was served.
    pub request_type: RequestTypeId,
    /// Client identity and ground-truth attack label.
    pub origin: Origin,
    /// Client-side send time.
    pub submitted_at: SimTime,
    /// Client-side receive time.
    pub completed_at: SimTime,
    /// How the request (or failed attempt) ended. Failed attempts are
    /// recorded at failure time with their failure outcome; the
    /// pre-resilience platform records `Ok` only.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.submitted_at)
    }
}

/// One externally submitted request as seen at the gateway — the IDS input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessLogEntry {
    /// Submission time at the gateway.
    pub at: SimTime,
    /// Client identity and ground-truth attack label.
    pub origin: Origin,
    /// The submitted request type.
    pub request_type: RequestTypeId,
    /// Request payload bytes including per-message overhead.
    pub bytes: u64,
}

/// Network traffic counted at the gateway per sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetworkWindow {
    /// Inbound bytes (requests).
    pub bytes_in: u64,
    /// Outbound bytes (responses).
    pub bytes_out: u64,
}

impl NetworkWindow {
    /// Total traffic in megabytes.
    pub fn total_mb(&self) -> f64 {
        (self.bytes_in + self.bytes_out) as f64 / 1e6
    }
}

/// Running totals of the resilience layer's interventions. All zero when
/// every [`ResiliencePolicy`](crate::ResiliencePolicy) is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Platform-level retry attempts scheduled (beyond first attempts).
    pub retries: u64,
    /// Attempts failed by deadline expiry.
    pub timed_out: u64,
    /// Attempts failed fast by an open circuit breaker.
    pub rejected: u64,
    /// Attempts shed at a full bounded wait queue.
    pub shed: u64,
    /// Circuit-breaker open (and half-open re-open) transitions.
    pub breaker_opens: u64,
}

impl ResilienceCounters {
    /// Retry amplification factor: total attempts divided by original
    /// submissions. `1.0` when no retries happened; requires the caller's
    /// completed-request count since the counters only see failures.
    pub fn retry_amplification(&self, first_attempts: u64) -> f64 {
        if first_attempts == 0 {
            return 1.0;
        }
        (first_attempts + self.retries) as f64 / first_attempts as f64
    }
}

/// Everything recorded during a simulation run.
///
/// A clone (one per fork) shares the sealed segments of the segmented logs
/// (`windows`, `request_log`, `access_log`) behind `Arc` and
/// copies only their bounded tails, so fork cost is independent of how
/// much history the warm run accumulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    pub(crate) window: SimDuration,
    pub(crate) num_services: usize,
    /// Sampled monitoring windows: per-service rows (row `w` starts at
    /// exactly `w * window`) plus the parallel gateway network series.
    pub(crate) windows: WindowLog,
    /// Every completed request, ordered by completion time, with
    /// per-segment indexes by request type and origin class.
    pub(crate) request_log: RequestLog,
    /// Every external submission, ordered by submission time, with
    /// per-segment indexes by source IP and session.
    pub(crate) access_log: AccessLog,
    pub(crate) scaling_actions: Vec<ScalingAction>,
    /// Resilience-layer intervention totals (all zero when disabled).
    pub(crate) resilience: ResilienceCounters,
}

impl Metrics {
    pub(crate) fn new(window: SimDuration, num_services: usize) -> Self {
        Metrics {
            window,
            num_services,
            windows: WindowLog::new(num_services),
            request_log: RequestLog::default(),
            access_log: AccessLog::default(),
            scaling_actions: Vec::new(),
            resilience: ResilienceCounters::default(),
        }
    }

    /// The sampling window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of services sampled per window.
    pub fn num_services(&self) -> usize {
        self.num_services
    }

    /// Number of sampled windows so far.
    pub fn num_windows(&self) -> usize {
        self.windows.rows()
    }

    /// All sampled windows in time order, one row (slice of `num_services`
    /// samples) per window.
    pub fn windows(&self) -> impl Iterator<Item = &[ServiceWindow]> + '_ {
        self.windows.rows_iter()
    }

    /// The per-window gateway traffic series (same indexing as
    /// [`Metrics::windows`]).
    pub fn network_windows(&self) -> impl Iterator<Item = &NetworkWindow> + '_ {
        self.windows.network_range(0, self.windows.rows())
    }

    /// Sum of [`NetworkWindow::total_mb`] over the window-index range
    /// `[lo, hi)` (clamped to the sampled windows), accumulated in time
    /// order.
    pub fn network_total_mb(&self, lo: usize, hi: usize) -> f64 {
        self.windows
            .network_range(lo, hi)
            .map(NetworkWindow::total_mb)
            .sum()
    }

    /// The time series of one service across all windows.
    pub fn service_series(&self, service: ServiceId) -> impl Iterator<Item = &ServiceWindow> + '_ {
        self.windows
            .service_range(service.index(), 0, self.windows.rows())
    }

    /// The time series of one service over the window-index range
    /// `[lo, hi)`, clamped to the sampled windows. Locating the range is
    /// O(1) per storage segment and iteration touches only the matching
    /// rows, so windowed consumers (e.g. the coarse monitor) avoid a full
    /// scan.
    pub fn service_window_range(
        &self,
        service: ServiceId,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &ServiceWindow> + '_ {
        self.windows.service_range(service.index(), lo, hi)
    }

    /// Every completed request, with indexed time/type/origin queries.
    pub fn request_log(&self) -> &RequestLog {
        &self.request_log
    }

    /// Every external submission (empty when the access log is disabled).
    pub fn access_log(&self) -> &AccessLog {
        &self.access_log
    }

    /// Completed scaling actions in time order.
    pub fn scaling_actions(&self) -> &[ScalingAction] {
        &self.scaling_actions
    }

    /// Resilience-layer intervention totals.
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// Mean CPU utilisation of a service over `[from, to)`.
    ///
    /// Window `w` starts at exactly `w * window`, so the windows whose
    /// start lies in `[from, to)` are the index range
    /// `[⌈from/window⌉, ⌈to/window⌉)`: locating them is O(1) and only the
    /// matching windows are touched. The accumulation order (time order)
    /// matches a filtering scan, so results are bit-identical to one.
    pub fn mean_utilization(&self, service: ServiceId, from: SimTime, to: SimTime) -> f64 {
        let w = self.window.as_micros();
        let lo = from.as_micros().div_ceil(w) as usize;
        let hi = (to.as_micros().div_ceil(w) as usize).min(self.windows.rows());
        if hi <= lo {
            return 0.0;
        }
        let mut total = 0.0;
        for s in self.windows.service_range(service.index(), lo, hi) {
            total += s.utilization(self.window);
        }
        total / (hi - lo) as f64
    }

    // Internal recording API (used by the kernel).

    pub(crate) fn push_window(&mut self, services: &[ServiceWindow], network: NetworkWindow) {
        debug_assert_eq!(services.len(), self.num_services);
        self.windows.push_row(services, network);
    }

    pub(crate) fn record_request(&mut self, rec: RequestRecord) {
        self.request_log.push(rec);
    }

    pub(crate) fn record_access(&mut self, entry: AccessLogEntry) {
        self.access_log.push(entry);
    }

    pub(crate) fn record_scaling(&mut self, action: ScalingAction) {
        self.scaling_actions.push(action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_normalises_by_cores() {
        let w = ServiceWindow {
            start: SimTime::ZERO,
            busy: SimDuration::from_millis(100),
            active_cores: 2,
            admitted: 0,
            waiting: 0,
            arrivals: 0,
            completions: 0,
            replicas: 2,
        };
        assert_eq!(w.utilization(SimDuration::from_millis(100)), 0.5);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let w = ServiceWindow {
            start: SimTime::ZERO,
            busy: SimDuration::from_millis(500),
            active_cores: 1,
            admitted: 0,
            waiting: 0,
            arrivals: 0,
            completions: 0,
            replicas: 1,
        };
        assert_eq!(w.utilization(SimDuration::from_millis(100)), 1.0);
    }

    #[test]
    fn request_record_latency() {
        let rec = RequestRecord {
            request_type: RequestTypeId::new(0),
            origin: Origin::legit(0, 0),
            submitted_at: SimTime::from_millis(50),
            completed_at: SimTime::from_millis(180),
            outcome: Outcome::Ok,
        };
        assert_eq!(rec.latency(), SimDuration::from_millis(130));
    }

    #[test]
    fn retry_amplification_is_attempts_per_submission() {
        let c = ResilienceCounters {
            retries: 50,
            ..ResilienceCounters::default()
        };
        assert_eq!(c.retry_amplification(100), 1.5);
        assert_eq!(c.retry_amplification(0), 1.0);
        assert_eq!(ResilienceCounters::default().retry_amplification(10), 1.0);
    }

    #[test]
    fn mean_utilization_windows_filter() {
        let mut m = Metrics::new(SimDuration::from_millis(100), 1);
        for i in 0..10u64 {
            m.push_window(
                &[ServiceWindow {
                    start: SimTime::from_millis(i * 100),
                    busy: SimDuration::from_millis(if i < 5 { 100 } else { 0 }),
                    active_cores: 1,
                    admitted: 0,
                    waiting: 0,
                    arrivals: 0,
                    completions: 0,
                    replicas: 1,
                }],
                NetworkWindow::default(),
            );
        }
        let svc = ServiceId::new(0);
        assert_eq!(
            m.mean_utilization(svc, SimTime::ZERO, SimTime::from_millis(500)),
            1.0
        );
        assert_eq!(
            m.mean_utilization(svc, SimTime::from_millis(500), SimTime::from_secs(1)),
            0.0
        );
        assert_eq!(
            m.mean_utilization(svc, SimTime::ZERO, SimTime::from_secs(1)),
            0.5
        );
        assert_eq!(m.service_series(svc).count(), 10);
    }

    #[test]
    fn mean_utilization_unaligned_bounds_match_scan() {
        // Bounds that are not multiples of the window: the index range
        // must select exactly the windows a `start >= from && start < to`
        // scan selects.
        let mut m = Metrics::new(SimDuration::from_millis(100), 1);
        for i in 0..10u64 {
            m.push_window(
                &[ServiceWindow {
                    start: SimTime::from_millis(i * 100),
                    busy: SimDuration::from_millis(if i % 2 == 0 { 100 } else { 0 }),
                    active_cores: 1,
                    admitted: 0,
                    waiting: 0,
                    arrivals: 0,
                    completions: 0,
                    replicas: 1,
                }],
                NetworkWindow::default(),
            );
        }
        let svc = ServiceId::new(0);
        for (from_ms, to_ms) in [(0, 1000), (50, 1000), (150, 850), (149, 851), (900, 5000)] {
            let from = SimTime::from_millis(from_ms);
            let to = SimTime::from_millis(to_ms);
            let mut total = 0.0;
            let mut n = 0u32;
            for s in m.service_series(svc) {
                if s.start >= from && s.start < to {
                    total += s.utilization(m.window());
                    n += 1;
                }
            }
            let expect = if n == 0 { 0.0 } else { total / f64::from(n) };
            assert_eq!(
                m.mean_utilization(svc, from, to),
                expect,
                "[{from_ms}, {to_ms})"
            );
        }
    }

    #[test]
    fn network_window_total() {
        let n = NetworkWindow {
            bytes_in: 400_000,
            bytes_out: 600_000,
        };
        assert_eq!(n.total_mb(), 1.0);
    }

    #[test]
    fn network_total_mb_sums_clamped_range() {
        let mut m = Metrics::new(SimDuration::from_millis(100), 1);
        for i in 0..5u64 {
            m.push_window(
                &[ServiceWindow {
                    start: SimTime::from_millis(i * 100),
                    busy: SimDuration::ZERO,
                    active_cores: 1,
                    admitted: 0,
                    waiting: 0,
                    arrivals: 0,
                    completions: 0,
                    replicas: 1,
                }],
                NetworkWindow {
                    bytes_in: 1_000_000,
                    bytes_out: 0,
                },
            );
        }
        assert_eq!(m.num_windows(), 5);
        assert_eq!(m.network_total_mb(0, 5), 5.0);
        assert_eq!(m.network_total_mb(3, 100), 2.0);
        assert_eq!(m.network_total_mb(4, 2), 0.0);
        assert_eq!(m.network_windows().count(), 5);
    }
}
