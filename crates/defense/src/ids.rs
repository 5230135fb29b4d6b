//! A Snort-style rule-based IDS over the gateway access log.

use std::collections::BTreeMap;

use callgraph::ServiceId;
use microsim::{Metrics, Origin};
use simnet::{SimDuration, SimTime};
use telemetry::CoarseMonitor;

use crate::window;

/// Which rule class produced an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Malformed request content (header manipulation etc.). Grunt sends
    /// legitimate HTTP, so this never fires against it.
    Content,
    /// Transaction-protocol violation (e.g. TCP split handshake). Never
    /// fires against Grunt either.
    Protocol,
    /// Two consecutive requests of one session closer than the
    /// user-behaviour threshold (3 s in the paper's configuration).
    IntervalViolation,
    /// A service's 1 s CPU utilisation exceeded the resource threshold.
    ResourceSaturation,
}

/// One alert raised by the IDS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// When the offending event happened.
    pub at: SimTime,
    /// Rule class.
    pub kind: AlertKind,
    /// Offending session (interval rule), if applicable.
    pub session: Option<u64>,
    /// Offending service (resource rule), if applicable.
    pub service: Option<ServiceId>,
    /// Whether the flagged traffic was ground-truth attack traffic —
    /// evaluation-only field, not available to a real IDS.
    pub hit_attacker: bool,
}

/// IDS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdsConfig {
    /// Minimum allowed interval between two consecutive requests of one
    /// session. The paper derives 3 s from the 95% confidence interval of
    /// a production user-behaviour model.
    pub min_session_interval: SimDuration,
    /// 1 s-utilisation threshold for resource alerts.
    pub resource_threshold: f64,
    /// Largest plausible request payload; anything bigger is "malformed".
    pub max_request_bytes: u64,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            min_session_interval: SimDuration::from_secs(3),
            resource_threshold: 0.95,
            max_request_bytes: 1 << 20,
        }
    }
}

/// Outcome of an IDS analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IdsReport {
    alerts: Vec<Alert>,
}

impl IdsReport {
    /// All alerts in time order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts of one kind.
    pub fn of_kind(&self, kind: AlertKind) -> impl Iterator<Item = &Alert> + '_ {
        self.alerts.iter().filter(move |a| a.kind == kind)
    }

    /// Number of alerts whose subject was ground-truth attack traffic.
    pub fn attacker_hits(&self) -> usize {
        self.alerts.iter().filter(|a| a.hit_attacker).count()
    }

    /// `true` when no rule fired at all — the attacker stayed fully under
    /// the radar.
    pub fn is_clean(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// The rule engine.
///
/// # Example
///
/// ```no_run
/// # let metrics: microsim::Metrics = unimplemented!();
/// use defense::{Ids, IdsConfig};
///
/// let ids = Ids::new(IdsConfig::default());
/// let report = ids.analyze(&metrics);
/// println!("{} alerts", report.alerts().len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ids {
    config: IdsConfig,
}

impl Ids {
    /// Creates an IDS with the given configuration.
    pub fn new(config: IdsConfig) -> Self {
        Ids { config }
    }

    /// Runs every rule class over the recorded run.
    ///
    /// Routes through [`Ids::analyze_window`] with an all-covering window;
    /// [`Ids::analyze_naive`] is the full-scan ground truth and returns an
    /// identical report.
    pub fn analyze(&self, metrics: &Metrics) -> IdsReport {
        self.analyze_window(metrics, SimTime::ZERO, SimTime::FAR_FUTURE)
    }

    /// Runs every rule class over the entries submitted in `[from, to)`
    /// (and, for the resource rule, the 1 s samples starting in the
    /// window). The content and interval rules share one pass over the
    /// window and one sort: O(m log m) for the m in-window entries, not
    /// O(run).
    ///
    /// Window semantics: a rule sees exactly the in-window entries; an
    /// interval pair straddling `from` is not flagged because its first
    /// half is outside the window.
    pub fn analyze_window(&self, metrics: &Metrics, from: SimTime, to: SimTime) -> IdsReport {
        let mut alerts = Vec::new();
        self.entry_rules(metrics, from, to, &mut alerts);
        self.resource_rule_indexed(metrics, from, to, &mut alerts);
        alerts.sort_by_key(|a| a.at);
        IdsReport { alerts }
    }

    /// Full-scan ground truth for [`Ids::analyze_window`]: same window
    /// semantics, same report, but walks the entire access log with a
    /// predicate filter. Kept as the differential-testing oracle.
    pub fn analyze_naive(&self, metrics: &Metrics, from: SimTime, to: SimTime) -> IdsReport {
        let mut alerts = Vec::new();
        self.content_rules_naive(metrics, from, to, &mut alerts);
        self.interval_rule_naive(metrics, from, to, &mut alerts);
        self.resource_rule_naive(metrics, from, to, &mut alerts);
        alerts.sort_by_key(|a| a.at);
        IdsReport { alerts }
    }

    /// The content and interval rules over one window, in one pass and one
    /// sort.
    ///
    /// Content / protocol sanity: in the simulator every submission is a
    /// well-formed request of a known type, so these fire only on
    /// structurally absurd payload sizes — the hook exists to demonstrate
    /// that Grunt's traffic cannot trip this rule class.
    ///
    /// The user-behaviour interval rule: consecutive in-window requests of
    /// one session closer than the threshold are flagged. The window is
    /// sorted by session, grouping on the session's low 32 bits; sessions
    /// that share those bits share a group, which a stable sort by the full
    /// session splits, each still in log order. The flagged entries are
    /// then emitted by ordinal, which is log order, so the alerts are
    /// identical to the naive scan's.
    fn entry_rules(&self, metrics: &Metrics, from: SimTime, to: SimTime, alerts: &mut Vec<Alert>) {
        let log = metrics.access_log();
        let mut entries: Vec<(SimTime, Origin)> = Vec::with_capacity(log.count_in(from, to));
        let mut keys = window::sorted_keys(log, from, to, |e| {
            if e.bytes > self.config.max_request_bytes {
                alerts.push(Alert {
                    at: e.at,
                    kind: AlertKind::Content,
                    session: Some(e.origin.session),
                    service: None,
                    hit_attacker: e.origin.is_attack,
                });
            }
            entries.push((e.at, e.origin));
            e.origin.session as u32
        });
        for run in keys.chunk_by_mut(|&a, &b| window::group(a) == window::group(b)) {
            run.sort_by_key(|&k| entries[window::ordinal(k)].1.session);
        }
        let mut flagged = vec![false; entries.len()];
        for pair in keys.windows(2) {
            let (prev_at, prev) = entries[window::ordinal(pair[0])];
            let (at, next) = entries[window::ordinal(pair[1])];
            if prev.session == next.session
                && at.saturating_since(prev_at) < self.config.min_session_interval
            {
                flagged[window::ordinal(pair[1])] = true;
            }
        }
        alerts.extend(
            entries
                .iter()
                .zip(flagged)
                .filter(|&(_, flagged)| flagged)
                .map(|(&(at, origin), _)| Alert {
                    at,
                    kind: AlertKind::IntervalViolation,
                    session: Some(origin.session),
                    service: None,
                    hit_attacker: origin.is_attack,
                }),
        );
    }

    /// Full-scan twin of the content rule in [`Ids::entry_rules`].
    fn content_rules_naive(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
        alerts: &mut Vec<Alert>,
    ) {
        for e in metrics.access_log() {
            if e.at >= from && e.at < to && e.bytes > self.config.max_request_bytes {
                alerts.push(Alert {
                    at: e.at,
                    kind: AlertKind::Content,
                    session: Some(e.origin.session),
                    service: None,
                    hit_attacker: e.origin.is_attack,
                });
            }
        }
    }

    /// Full-scan twin of the interval rule in [`Ids::entry_rules`].
    fn interval_rule_naive(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
        alerts: &mut Vec<Alert>,
    ) {
        let mut last_by_session: BTreeMap<u64, SimTime> = BTreeMap::new();
        for e in metrics.access_log() {
            if e.at < from || e.at >= to {
                continue;
            }
            if let Some(prev) = last_by_session.insert(e.origin.session, e.at) {
                if e.at.saturating_since(prev) < self.config.min_session_interval {
                    alerts.push(Alert {
                        at: e.at,
                        kind: AlertKind::IntervalViolation,
                        session: Some(e.origin.session),
                        service: None,
                        hit_attacker: e.origin.is_attack,
                    });
                }
            }
        }
    }

    /// Resource-based alerts at 1 s granularity: the finest the deployed
    /// cloud monitors support. Sub-second millibottlenecks average out and
    /// stay invisible here. Samples whose window starts in `[from, to)`
    /// are considered. Indexed: aggregates only the in-window coarse
    /// buckets ([`CoarseMonitor::over`] locates them arithmetically), so
    /// the cost is O(in-window samples), not O(run).
    fn resource_rule_indexed(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
        alerts: &mut Vec<Alert>,
    ) {
        let coarse = CoarseMonitor::over(metrics, SimDuration::from_secs(1), from, to);
        self.resource_alerts(metrics, &coarse, from, to, alerts);
    }

    /// Full-scan twin of [`Ids::resource_rule_indexed`]: aggregates the
    /// whole run, then filters by the window predicate.
    fn resource_rule_naive(
        &self,
        metrics: &Metrics,
        from: SimTime,
        to: SimTime,
        alerts: &mut Vec<Alert>,
    ) {
        let coarse = CoarseMonitor::new(metrics, SimDuration::from_secs(1));
        self.resource_alerts(metrics, &coarse, from, to, alerts);
    }

    /// Emits the threshold alerts of every in-window coarse sample (shared
    /// by the indexed and naive paths; for the indexed path the window
    /// predicate is already vacuously true).
    fn resource_alerts(
        &self,
        metrics: &Metrics,
        coarse: &CoarseMonitor,
        from: SimTime,
        to: SimTime,
        alerts: &mut Vec<Alert>,
    ) {
        for s in 0..metrics.num_services() {
            let service = ServiceId::new(s as u32);
            for sample in coarse.series(service) {
                if sample.start >= from
                    && sample.start < to
                    && sample.utilization >= self.config.resource_threshold
                {
                    alerts.push(Alert {
                        at: sample.start,
                        kind: AlertKind::ResourceSaturation,
                        session: None,
                        service: Some(service),
                        hit_attacker: false,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
    use microsim::agents::FixedRate;
    use microsim::{Origin, SimConfig, Simulation};

    fn topo(demand_ms: u64) -> callgraph::Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(64).demand_cv(0.0));
        b.add_request_type("r", vec![(gw, SimDuration::from_millis(demand_ms))]);
        b.build()
    }

    #[test]
    fn fast_session_trips_interval_rule() {
        let mut sim = Simulation::new(topo(1), SimConfig::default());
        // One session firing every second: 2 s under the 3 s threshold.
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), SimDuration::from_secs(1), 5)
                .with_origin(Origin::attack(1, 42)),
        ));
        sim.run_until(SimTime::from_secs(10));
        let report = Ids::new(IdsConfig::default()).analyze(&sim.into_metrics());
        let hits: Vec<&Alert> = report.of_kind(AlertKind::IntervalViolation).collect();
        assert_eq!(hits.len(), 4, "every follow-up request is too fast");
        assert!(hits.iter().all(|a| a.session == Some(42)));
        assert_eq!(report.attacker_hits(), 4);
    }

    #[test]
    fn slow_sessions_stay_clean() {
        let mut sim = Simulation::new(topo(1), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_secs(5),
            4,
        )));
        sim.run_until(SimTime::from_secs(30));
        let report = Ids::new(IdsConfig::default()).analyze(&sim.into_metrics());
        assert!(report.is_clean(), "alerts: {:?}", report.alerts());
    }

    #[test]
    fn sustained_saturation_trips_resource_rule() {
        // 10 ms demand at 200 req/s = 200% load: sustained saturation.
        let mut sim = Simulation::new(topo(10), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_micros(5_000),
            1000,
        )));
        sim.run_until(SimTime::from_secs(6));
        let report = Ids::new(IdsConfig::default()).analyze(&sim.into_metrics());
        assert!(report.of_kind(AlertKind::ResourceSaturation).count() > 0);
    }

    #[test]
    fn sub_second_burst_evades_resource_rule() {
        // 40 requests of 10 ms back-to-back: ~400 ms bottleneck, then idle.
        let mut sim = Simulation::new(topo(10), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(1),
            40,
        )));
        sim.run_until(SimTime::from_secs(3));
        let report = Ids::new(IdsConfig::default()).analyze(&sim.into_metrics());
        assert_eq!(
            report.of_kind(AlertKind::ResourceSaturation).count(),
            0,
            "sub-second millibottleneck must be invisible at 1 s granularity"
        );
    }

    #[test]
    fn indexed_analysis_matches_naive_scan() {
        // Mixed traffic: a fast attack session plus two slower sessions,
        // long enough to seal several access-log segments when combined
        // with the interval-rule window sweep below.
        let mut sim = Simulation::new(topo(1), SimConfig::default());
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), SimDuration::from_millis(500), 40)
                .with_origin(Origin::attack(0xBAD, 7)),
        ));
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), SimDuration::from_secs(1), 15)
                .with_origin(Origin::legit(0x0A01, 1)),
        ));
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), SimDuration::from_secs(4), 5)
                .with_origin(Origin::legit(0x0A02, 2)),
        ));
        sim.run_until(SimTime::from_secs(30));
        let metrics = sim.into_metrics();
        let ids = Ids::new(IdsConfig::default());
        // Full-run equivalence: analyze() routes through the index.
        assert_eq!(
            ids.analyze(&metrics),
            ids.analyze_naive(&metrics, SimTime::ZERO, SimTime::FAR_FUTURE)
        );
        // Windowed equivalence, including empty and partial windows.
        for (a, b) in [(0u64, 30u64), (5, 12), (12, 5), (29, 40), (3, 3)] {
            let (from, to) = (SimTime::from_secs(a), SimTime::from_secs(b));
            assert_eq!(
                ids.analyze_window(&metrics, from, to),
                ids.analyze_naive(&metrics, from, to),
                "window [{a}s, {b}s)"
            );
        }
        // The windowed report only sees in-window violations.
        let windowed = ids.analyze_window(&metrics, SimTime::from_secs(5), SimTime::from_secs(12));
        assert!(windowed
            .alerts()
            .iter()
            .all(|al| al.at >= SimTime::from_secs(5) && al.at < SimTime::from_secs(12)));
        assert!(!windowed.is_clean());
    }

    #[test]
    fn content_rules_never_fire_on_wellformed_traffic() {
        let mut sim = Simulation::new(topo(1), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_secs(4),
            5,
        )));
        sim.run_until(SimTime::from_secs(30));
        let report = Ids::new(IdsConfig::default()).analyze(&sim.into_metrics());
        assert_eq!(report.of_kind(AlertKind::Content).count(), 0);
        assert_eq!(report.of_kind(AlertKind::Protocol).count(), 0);
    }
}
