//! Per-module metrics of a traced run, computed from its spans and from
//! the counts its passes report.
//!
//! Times are inclusive span durations: `grunt.profile` and
//! `grunt.attack_with` contain the simulation they drive. Only calls every
//! workload makes are reported as times. What a module costs on the
//! workloads that use it is its share of the pass, next to how many calls
//! it served and how many records they matched; a workload that does not
//! use a module reports 0 for it, which no time metric could then show as
//! measured. Counts repeat exactly from pass to pass and between traced and
//! untraced runs.

use std::collections::BTreeMap;

use crate::stats;
use crate::trace::Span;

/// Calls a metric covers, as `(module, name)`; a name of `"*"` takes every
/// call into the module.
type Calls = &'static [(&'static str, &'static str)];

const RUN_UNTIL: Calls = &[("microsim", "run_until")];
const SIMULATION: Calls = &[
    ("microsim", "run_until"),
    ("grunt", "profile"),
    ("grunt", "attack_with"),
];
const FORK: Calls = &[("microsim", "checkpoint"), ("microsim", "fork")];
const TELEMETRY: Calls = &[("telemetry", "*")];
const DEFENSE: Calls = &[("defense", "*")];

/// How one per-module metric is derived.
#[derive(Debug, Clone, Copy)]
enum Def {
    /// The smallest, over rounds, summed duration of the calls (the
    /// fastest round, as `wall_s` is the fastest pass).
    RoundSum(Calls),
    /// The smallest, over rounds, host nanoseconds per simulated request
    /// in the calls.
    PerRequest(Calls),
    /// Quantile `q` of the durations of every such call, pooled over the
    /// run, times `scale`.
    Pooled(Calls, f64, f64),
    /// Median, over traced passes, of the calls' summed duration over the
    /// pass's.
    Share(Calls),
    /// Median, over traced passes, of how many such calls a pass made.
    Made(Calls),
    /// Median, over traced passes, of the records the calls matched.
    Matched(Calls),
    /// The value the passes report under the metric's own name (`0` when
    /// the workload does not exercise it).
    Count,
    /// Fastest traced pass over fastest untraced pass, minus one: the
    /// traced `wall_s` over the untraced one.
    Overhead,
}

/// Every per-module metric, in the order `BENCHMARK.json` lists them.
const DEFS: &[(&str, Def)] = &[
    ("microsim.run_s", Def::RoundSum(RUN_UNTIL)),
    ("microsim.ns_per_request", Def::PerRequest(SIMULATION)),
    ("microsim.slice_ms_p50", Def::Pooled(RUN_UNTIL, 0.50, 1e3)),
    ("microsim.slice_ms_p95", Def::Pooled(RUN_UNTIL, 0.95, 1e3)),
    (
        "microsim.new_ms",
        Def::Pooled(&[("microsim", "new")], 0.50, 1e3),
    ),
    ("microsim.fork_share", Def::Share(FORK)),
    ("microsim.requests", Def::Count),
    ("microsim.pending_events_max", Def::Count),
    ("microsim.access_log_entries", Def::Count),
    ("microsim.forks", Def::Count),
    ("microsim.retries", Def::Count),
    ("microsim.timed_out", Def::Count),
    ("microsim.shed", Def::Count),
    ("microsim.retry_amplification", Def::Count),
    (
        "workload.build_ms",
        Def::Pooled(&[("workload", "build")], 0.50, 1e3),
    ),
    ("workload.users", Def::Count),
    (
        "apps.generate_ms",
        Def::Pooled(&[("apps", "generate")], 0.50, 1e3),
    ),
    ("apps.services", Def::Count),
    ("apps.request_types", Def::Count),
    ("grunt.profile_share", Def::Share(&[("grunt", "profile")])),
    (
        "grunt.attack_share",
        Def::Share(&[("grunt", "attack_with")]),
    ),
    ("grunt.profile_sim_s", Def::Count),
    ("grunt.probe_requests", Def::Count),
    ("grunt.probe_share", Def::Count),
    ("grunt.bursts", Def::Count),
    ("grunt.bots", Def::Count),
    ("grunt.attack_requests", Def::Count),
    ("grunt.f_score", Def::Count),
    ("grunt.damage_factor", Def::Count),
    ("telemetry.share", Def::Share(TELEMETRY)),
    ("telemetry.queries", Def::Made(TELEMETRY)),
    ("telemetry.records_matched", Def::Matched(TELEMETRY)),
    ("defense.share", Def::Share(DEFENSE)),
    ("defense.queries", Def::Made(DEFENSE)),
    (
        "defense.entries_matched",
        Def::Matched(&[("defense", "ids")]),
    ),
    ("trace.overhead", Def::Overhead),
];

/// Names of every per-module metric this program computes.
pub fn names() -> impl Iterator<Item = &'static str> {
    DEFS.iter().map(|(name, _)| *name)
}

/// Inputs to the per-module metrics of one run.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// Spans kept by traced set-ups and passes.
    pub spans: &'a [Span],
    /// Counts reported by the first pass.
    pub counts: &'a [(&'static str, f64)],
    /// `wall_s` samples of traced passes.
    pub traced_walls: &'a [f64],
    /// `wall_s` samples of untraced passes.
    pub untraced_walls: &'a [f64],
}

/// Every per-module metric, by name.
pub fn compute(inputs: &Inputs<'_>) -> Vec<(&'static str, f64)> {
    DEFS.iter()
        .map(|&(name, def)| (name, value(name, def, inputs)))
        .collect()
}

/// Latency of every kind of call the run made, for the readable report:
/// `(module.name, calls, p50 µs, p99 µs)`, in name order.
pub fn call_latencies(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let mut by_call: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.module != "bench") {
        by_call
            .entry((s.module, s.name))
            .or_default()
            .push(s.secs() * 1e6);
    }
    by_call
        .into_iter()
        .map(|((module, name), us)| {
            let (p50, p99) = (stats::percentile(&us, 0.50), stats::percentile(&us, 0.99));
            (format!("{module}.{name}"), us.len(), p50, p99)
        })
        .collect()
}

fn covers(calls: Calls, s: &Span) -> bool {
    calls
        .iter()
        .any(|&(module, name)| s.module == module && (name == "*" || s.name == name))
}

/// `(summed seconds, summed counts)` of the covered spans, per round that
/// has any.
fn per_round(spans: &[Span], calls: Calls) -> Vec<(f64, u64)> {
    let mut rounds: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| covers(calls, s)) {
        let r = rounds.entry(s.round).or_default();
        r.0 += s.secs();
        r.1 += s.count;
    }
    rounds.into_values().collect()
}

/// `(summed seconds, calls, summed counts)` of the covered spans in each
/// traced pass, zeros included, with the pass's own duration.
fn per_pass(spans: &[Span], calls: Calls) -> Vec<((f64, usize, u64), f64)> {
    let mut passes: BTreeMap<u32, ((f64, usize, u64), f64)> = spans
        .iter()
        .filter(|s| s.module == "bench" && s.name == "pass")
        .map(|s| (s.round, ((0.0, 0, 0), s.secs())))
        .collect();
    for s in spans.iter().filter(|s| covers(calls, s)) {
        if let Some((r, _)) = passes.get_mut(&s.round) {
            r.0 += s.secs();
            r.1 += 1;
            r.2 += s.count;
        }
    }
    passes.into_values().collect()
}

fn value(name: &str, def: Def, inputs: &Inputs<'_>) -> f64 {
    let spans = inputs.spans;
    match def {
        Def::RoundSum(calls) => {
            let secs: Vec<f64> = per_round(spans, calls).iter().map(|r| r.0).collect();
            stats::min(&secs)
        }
        Def::PerRequest(calls) => {
            let ns: Vec<f64> = per_round(spans, calls)
                .iter()
                .filter(|r| r.1 > 0)
                .map(|r| r.0 * 1e9 / r.1 as f64)
                .collect();
            stats::min(&ns)
        }
        Def::Pooled(calls, q, scale) => {
            let secs: Vec<f64> = spans
                .iter()
                .filter(|s| covers(calls, s))
                .map(Span::secs)
                .collect();
            stats::percentile(&secs, q) * scale
        }
        Def::Share(calls) => {
            let shares: Vec<f64> = per_pass(spans, calls)
                .iter()
                .filter(|(_, pass)| *pass > 0.0)
                .map(|(r, pass)| r.0 / pass)
                .collect();
            stats::median(&shares)
        }
        Def::Made(calls) => {
            let n: Vec<f64> = per_pass(spans, calls)
                .iter()
                .map(|(r, _)| r.1 as f64)
                .collect();
            stats::median(&n)
        }
        Def::Matched(calls) => {
            let n: Vec<f64> = per_pass(spans, calls)
                .iter()
                .map(|(r, _)| r.2 as f64)
                .collect();
            stats::median(&n)
        }
        Def::Count => inputs
            .counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v),
        Def::Overhead => {
            let untraced = stats::min(inputs.untraced_walls);
            if untraced > 0.0 {
                stats::min(inputs.traced_walls) / untraced - 1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(module: &'static str, name: &'static str, round: u32, ms: u64, count: u64) -> Span {
        Span {
            module,
            name,
            start_ns: 0,
            end_ns: ms * 1_000_000,
            parent: None,
            round,
            count,
        }
    }

    #[test]
    fn derives_round_sums_rates_pools_shares_and_counts() {
        let spans = [
            span("bench", "pass", 0, 1_000, 0),
            span("microsim", "run_until", 0, 100, 1_000),
            span("microsim", "run_until", 0, 300, 1_000),
            span("telemetry", "summary", 0, 100, 30),
            span("telemetry", "series", 0, 100, 10),
            span("bench", "pass", 1, 500, 0),
            span("microsim", "run_until", 1, 200, 1_000),
            span("grunt", "profile", 1, 200, 1_000),
        ];
        let counts = [("microsim.requests", 3_000.0)];
        let got = compute(&Inputs {
            spans: &spans,
            counts: &counts,
            traced_walls: &[1.1],
            untraced_walls: &[1.0],
        });
        let get = |n: &str| got.iter().find(|(k, _)| *k == n).expect("defined").1;
        // `run_until` sums to 0.4 s and 0.2 s per round: the fastest is 0.2 s.
        assert!((get("microsim.run_s") - 0.2).abs() < 1e-12);
        // Simulation: 0.4 s / 2000 and 0.4 s / 2000 requests.
        assert!((get("microsim.ns_per_request") - 200_000.0).abs() < 1e-6);
        assert!((get("microsim.slice_ms_p50") - 200.0).abs() < 1e-9);
        // Telemetry took 0.2 of pass 0 and nothing of pass 1.
        assert!((get("telemetry.share") - 0.1).abs() < 1e-12);
        assert_eq!(get("telemetry.queries"), 1.0);
        assert_eq!(get("telemetry.records_matched"), 20.0);
        assert!((get("grunt.profile_share") - 0.2).abs() < 1e-12);
        assert_eq!(get("defense.share"), 0.0);
        assert_eq!(get("microsim.requests"), 3_000.0);
        assert_eq!(get("microsim.retries"), 0.0);
        assert!((get("trace.overhead") - 0.1).abs() < 1e-12);
    }
}
