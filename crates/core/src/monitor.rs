//! The Monitor module: client-side burst impact estimation (Section IV-B).

use callgraph::RequestTypeId;
use microsim::Response;
use simnet::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Bookkeeping for one attacking (or probing) burst.
///
/// The attacker records the send and completion times of every request in
/// the burst and derives two estimates:
///
/// * **Millibottleneck length** `P_MB` — end time of the *last* request
///   minus end time of the *first* (Fig 8): the burst keeps the bottleneck
///   resource busy until its last request finishes, so this difference is
///   a conservative estimate of the saturation interval.
/// * **Damage latency** — the average end-to-end response time of the
///   burst's requests, which approximates the `t_min` experienced by any
///   request traversing the blocked dependency group.
#[derive(Debug, Clone)]
pub struct BurstObservation {
    /// The attacked critical path.
    pub path: RequestTypeId,
    /// When the first request of the burst was sent.
    pub started: SimTime,
    /// Number of requests sent.
    pub sent: u32,
    tokens: BTreeSet<u64>,
    responses: u32,
    first_end: Option<SimTime>,
    last_end: Option<SimTime>,
    sum_rt_ms: f64,
    max_rt_ms: f64,
}

impl BurstObservation {
    /// Starts tracking a burst of `sent` requests on `path`.
    pub fn new(path: RequestTypeId, started: SimTime, sent: u32) -> Self {
        BurstObservation {
            path,
            started,
            sent,
            tokens: BTreeSet::new(),
            responses: 0,
            first_end: None,
            last_end: None,
            sum_rt_ms: 0.0,
            max_rt_ms: 0.0,
        }
    }

    /// Registers a submitted request token as belonging to this burst.
    pub fn track(&mut self, token: u64) {
        self.tokens.insert(token);
    }

    /// Feeds a response; returns `true` when it belonged to this burst.
    pub fn record(&mut self, response: &Response) -> bool {
        if !self.tokens.remove(&response.token) {
            return false;
        }
        self.responses += 1;
        let end = response.completed_at;
        self.first_end = Some(self.first_end.map_or(end, |f| f.min(end)));
        self.last_end = Some(self.last_end.map_or(end, |l| l.max(end)));
        let rt = response.latency_ms();
        self.sum_rt_ms += rt;
        self.max_rt_ms = self.max_rt_ms.max(rt);
        true
    }

    /// `true` once every tracked request has responded.
    pub fn is_complete(&self) -> bool {
        self.responses >= self.sent && self.sent > 0
    }

    /// Responses received so far.
    pub fn responses(&self) -> u32 {
        self.responses
    }

    /// The millibottleneck-length estimate (Fig 8): last completion minus
    /// first completion. `None` with fewer than two responses.
    pub fn pmb_estimate(&self) -> Option<SimDuration> {
        match (self.first_end, self.last_end) {
            (Some(f), Some(l)) if self.responses >= 2 => Some(l.saturating_since(f)),
            _ => None,
        }
    }

    /// The damage-latency estimate: mean end-to-end RT of the burst (ms).
    /// `None` without responses.
    pub fn avg_rt_ms(&self) -> Option<f64> {
        if self.responses == 0 {
            None
        } else {
            Some(self.sum_rt_ms / f64::from(self.responses))
        }
    }

    /// Largest observed RT in the burst (ms); `0.0` without responses.
    pub fn max_rt_ms(&self) -> f64 {
        self.max_rt_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(token: u64, sent_ms: u64, done_ms: u64) -> Response {
        Response {
            tag: 0,
            token,
            request_type: RequestTypeId::new(0),
            submitted_at: SimTime::from_millis(sent_ms),
            completed_at: SimTime::from_millis(done_ms),
            outcome: microsim::Outcome::Ok,
        }
    }

    #[test]
    fn pmb_is_last_minus_first_completion() {
        let mut obs = BurstObservation::new(RequestTypeId::new(0), SimTime::ZERO, 3);
        for t in [1, 2, 3] {
            obs.track(t);
        }
        obs.record(&resp(1, 0, 100));
        obs.record(&resp(2, 10, 350));
        obs.record(&resp(3, 20, 480));
        assert!(obs.is_complete());
        assert_eq!(obs.pmb_estimate(), Some(SimDuration::from_millis(380)));
        let avg = obs.avg_rt_ms().unwrap();
        assert!((avg - (100.0 + 340.0 + 460.0) / 3.0).abs() < 1e-9);
        assert_eq!(obs.max_rt_ms(), 460.0);
    }

    #[test]
    fn foreign_tokens_are_rejected() {
        let mut obs = BurstObservation::new(RequestTypeId::new(0), SimTime::ZERO, 1);
        obs.track(7);
        assert!(!obs.record(&resp(99, 0, 10)));
        assert!(obs.record(&resp(7, 0, 10)));
        // Duplicate delivery is also rejected.
        assert!(!obs.record(&resp(7, 0, 10)));
    }

    #[test]
    fn estimates_unavailable_early() {
        let mut obs = BurstObservation::new(RequestTypeId::new(0), SimTime::ZERO, 2);
        obs.track(1);
        obs.track(2);
        assert_eq!(obs.pmb_estimate(), None);
        assert_eq!(obs.avg_rt_ms(), None);
        obs.record(&resp(1, 0, 50));
        assert_eq!(obs.pmb_estimate(), None, "one response is not enough");
        assert!(obs.avg_rt_ms().is_some());
        assert!(!obs.is_complete());
    }
}
