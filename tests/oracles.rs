//! Every indexed window query against its naive twin, on one recorded
//! history.
//!
//! The telemetry and defense answers come from indexed queries over the
//! segmented logs; they are trusted because each one has a full-scan twin
//! that must return the same result bit for bit. This file calls every
//! pair by name, so renaming or deleting either side fails to compile, and
//! [`every_windowed_query_is_paired`] scans the defining files so a new
//! `pub fn *_in`/`*_window`/`*_matching` cannot ship without joining the
//! list below. The `RequestLog` queries have no `pub` twin: their oracle is
//! a plain iteration of the log, filtered by `RequestFilter::matches`,
//! written here.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use apps::SocialNetwork;
use defense::{Ids, IdsConfig, RateShield};
use grunt::{CampaignConfig, GruntCampaign};
use microsim::{
    BreakerPolicy, Metrics, Outcome, RequestFilter, RequestRecord, ResilienceConfig,
    ResiliencePolicy, RetryPolicy, SimConfig, Simulation,
};
use simnet::{SimDuration, SimTime};
use telemetry::{LatencySeries, LatencySummary, Traffic};
use workload::ClosedLoopUsers;

/// The windowed query entry points, by defining file: exactly the
/// `pub fn` names the completeness scan finds there. `LatencySummary` and
/// `LatencySeries` name theirs `compute`, which the scan does not match;
/// they are paired in [`latency_queries_match_naive_scans`].
const ENTRY_POINTS: [(&str, &str); 6] = [
    ("microsim/src/seglog.rs", "count_matching"),
    ("microsim/src/seglog.rs", "for_each_matching"),
    ("microsim/src/seglog.rs", "for_each_in"),
    ("microsim/src/seglog.rs", "count_in"),
    ("defense/src/ids.rs", "analyze_window"),
    ("defense/src/shield.rs", "analyze_window"),
];

/// The files that define indexed queries.
const SOURCES: [(&str, &str); 4] = [
    (
        "microsim/src/seglog.rs",
        include_str!("../crates/microsim/src/seglog.rs"),
    ),
    (
        "telemetry/src/latency.rs",
        include_str!("../crates/telemetry/src/latency.rs"),
    ),
    (
        "defense/src/ids.rs",
        include_str!("../crates/defense/src/ids.rs"),
    ),
    (
        "defense/src/shield.rs",
        include_str!("../crates/defense/src/shield.rs"),
    ),
];

/// One attacked SocialNetwork run, forked after the baseline so the
/// attack's logs continue segments sealed (and shared) before the fork.
/// Deadlines, bounded queues and breakers give the request log every
/// outcome.
struct History {
    metrics: Metrics,
    fork_at: SimTime,
    attack: (SimTime, SimTime),
}

fn history() -> &'static History {
    static HISTORY: OnceLock<History> = OnceLock::new();
    HISTORY.get_or_init(|| {
        let users = 600;
        let app = SocialNetwork::new(users);
        let resilience = ResilienceConfig::uniform(ResiliencePolicy {
            deadline: Some(SimDuration::from_millis(900)),
            retry: RetryPolicy::disabled(),
            breaker: BreakerPolicy {
                failure_threshold: 20,
                probe_interval: SimDuration::from_secs(1),
            },
            queue_bound: Some(40),
        });
        let cfg = SimConfig::default().seed(0x0AC1E).resilience(resilience);
        let mut parent = Simulation::new(app.topology().clone(), cfg);
        parent.add_agent(Box::new(ClosedLoopUsers::new(
            users,
            app.browsing_model(),
            0x0AC1E,
        )));
        parent.run_until(SimTime::from_secs(15));
        let Ok(snapshot) = parent.checkpoint();
        let mut sim = Simulation::from_snapshot(&snapshot);
        let attack = SimDuration::from_secs(20);
        let campaign = GruntCampaign::run(&mut sim, CampaignConfig::default(), attack);
        History {
            metrics: sim.metrics().clone(),
            fork_at: parent.now(),
            attack: (campaign.attack_started, campaign.attack_started + attack),
        }
    })
}

/// The query windows: inside the attack, spanning the fork, from the
/// middle of a sealed segment of each log, the whole run, an empty and an
/// inverted one.
fn windows(h: &History) -> Vec<(SimTime, SimTime)> {
    let access = h.metrics.access_log().sealed();
    let requests = h.metrics.request_log().sealed();
    assert!(
        access.len() >= 3 && requests.len() >= 3,
        "the history must seal several segments per log ({} access, {} request)",
        access.len(),
        requests.len()
    );
    let seg = access[access.len() / 2].items();
    let mid_access = seg[seg.len() / 2].at;
    assert!(seg[0].at < mid_access, "window must start mid-segment");
    let seg = requests[requests.len() / 2].items();
    let mid_request = seg[seg.len() / 2].completed_at;
    assert!(
        seg[0].completed_at < mid_request,
        "window must start mid-segment"
    );
    let (attack_from, attack_to) = h.attack;
    let second = SimDuration::from_secs(1);
    vec![
        (attack_from + SimDuration::from_secs(5), attack_to),
        (h.fork_at - second * 3, h.fork_at + second * 3),
        (mid_access, mid_access + SimDuration::from_secs(4)),
        (mid_request, mid_request + SimDuration::from_secs(4)),
        (SimTime::ZERO, attack_to + second),
        (h.fork_at, h.fork_at),
        (h.fork_at + second, h.fork_at),
    ]
}

#[test]
fn latency_queries_match_naive_scans() {
    let h = history();
    let m = &h.metrics;
    let attacked = m
        .request_log()
        .into_iter()
        .find(|r| r.origin.is_attack)
        .expect("the history holds attack traffic")
        .request_type;
    for (from, to) in windows(h) {
        for traffic in [Traffic::Legit, Traffic::Attack, Traffic::All] {
            for request_type in [None, Some(attacked)] {
                assert_eq!(
                    LatencySummary::compute(m, traffic, request_type, from, to),
                    LatencySummary::compute_naive(m, traffic, request_type, from, to),
                    "summary of {traffic:?} {request_type:?} over [{from:?}, {to:?})"
                );
            }
            for window in [SimDuration::from_secs(1), SimDuration::from_millis(700)] {
                let indexed = LatencySeries::compute(m, traffic, window, to);
                let naive = LatencySeries::compute_naive(m, traffic, window, to);
                assert_eq!(indexed.window(), naive.window());
                assert_eq!(
                    indexed.points(),
                    naive.points(),
                    "{traffic:?} series by {window:?} up to {to:?}"
                );
            }
        }
    }
}

#[test]
fn defense_audits_match_naive_scans() {
    let h = history();
    let m = &h.metrics;
    let ids = Ids::new(IdsConfig::default());
    // The paper's shield, and one tight enough to block some IPs.
    let shields = [
        RateShield::paper_default(),
        RateShield::new(SimDuration::from_secs(1), 3),
    ];
    for (from, to) in windows(h) {
        assert_eq!(
            ids.analyze_window(m, from, to),
            ids.analyze_naive(m, from, to),
            "IDS over [{from:?}, {to:?})"
        );
        for shield in &shields {
            assert_eq!(
                shield.analyze_window(m, from, to),
                shield.analyze_naive(m, from, to),
                "shield over [{from:?}, {to:?})"
            );
        }
    }
}

#[test]
fn access_log_windows_match_naive_scans() {
    let h = history();
    let log = h.metrics.access_log();
    for (from, to) in windows(h) {
        let (mut indexed, mut naive) = (Vec::new(), Vec::new());
        log.for_each_in(from, to, |e| indexed.push(*e));
        log.for_each_naive(from, to, |e| naive.push(*e));
        assert_eq!(indexed, naive, "entries in [{from:?}, {to:?})");
        assert_eq!(log.count_in(from, to), log.count_naive(from, to));
        assert_eq!(log.count_in(from, to), naive.len());
    }
}

#[test]
fn request_log_filters_match_a_plain_scan() {
    let h = history();
    let log = h.metrics.request_log();
    let types: BTreeSet<_> = log.into_iter().map(|r| r.request_type).collect();
    let outcomes: BTreeSet<_> = log.into_iter().map(|r| r.outcome.index()).collect();
    assert!(
        outcomes.len() >= 3,
        "the history must record failed outcomes too (saw {outcomes:?})"
    );
    let mut filters = Vec::new();
    for is_attack in [None, Some(false), Some(true)] {
        for request_type in std::iter::once(None).chain(types.iter().copied().map(Some)) {
            for outcome in [
                None,
                Some(Outcome::Ok),
                Some(Outcome::TimedOut),
                Some(Outcome::Rejected),
                Some(Outcome::Shed),
            ] {
                filters.push(RequestFilter {
                    is_attack,
                    request_type,
                    outcome,
                });
            }
        }
    }
    for (from, to) in windows(h) {
        let in_window: Vec<&RequestRecord> = log
            .into_iter()
            .filter(|r| r.completed_at >= from && r.completed_at < to)
            .collect();
        for &filter in &filters {
            let naive: Vec<RequestRecord> = in_window
                .iter()
                .filter(|r| filter.matches(r))
                .map(|&&r| r)
                .collect();
            let mut indexed = Vec::new();
            log.for_each_matching(from, to, filter, |r| indexed.push(*r));
            assert_eq!(indexed, naive, "{filter:?} over [{from:?}, {to:?})");
            assert_eq!(log.count_matching(from, to, filter), naive.len());
        }
    }
}

/// The `pub fn` names in `src` ending in `_in`, `_window` or `_matching`,
/// read up to the unit-test module (the first unindented `#[cfg(test)]`;
/// indented ones gate single items and are read through).
fn windowed_queries(src: &str) -> Vec<&str> {
    let library = src.split("\n#[cfg(test)]").next().unwrap_or(src);
    library
        .split("pub fn ")
        .skip(1)
        .filter_map(|rest| {
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
            let opens = rest[end..].starts_with(['(', '<']);
            let name = &rest[..end];
            let windowed = ["_in", "_window", "_matching"]
                .iter()
                .any(|suffix| name.ends_with(suffix));
            (opens && windowed).then_some(name)
        })
        .collect()
}

#[test]
fn every_windowed_query_is_paired() {
    let found: BTreeSet<(&str, &str)> = SOURCES
        .iter()
        .flat_map(|&(file, src)| windowed_queries(src).into_iter().map(move |n| (file, n)))
        .collect();
    let listed: BTreeSet<(&str, &str)> = ENTRY_POINTS.into_iter().collect();
    assert_eq!(
        found, listed,
        "every `pub fn *_in`/`*_window`/`*_matching` needs a naive twin tested in this file, \
         and every listed entry point must still exist"
    );
}
