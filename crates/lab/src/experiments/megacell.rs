//! Mega-cell: a 100k+ user closed-loop population on the paper topology.
//!
//! The deep-population regime the flat-arena engine was built for: one
//! SocialNetwork cell provisioned for and driven by 100 000 emulated users
//! at the paper's 7 s mean think time (~14 000 req/s nominal demand; the
//! saturated cell settles lower as latency joins the closed loop). The
//! report pins the engine's scaling claims with measured numbers: the run
//! completes, and the kernel wheel carries O(occupied think buckets)
//! pending events — thousands — instead of one timer per sleeping user.

use apps::social_network;
use microsim::{SimConfig, Simulation};
use simnet::SimTime;
use workload::ClosedLoopUsers;

use crate::report::fmt;
use crate::{Report, RunOpts};

/// Everything one mega-cell run is judged on.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    /// Population size.
    pub users: usize,
    /// Simulated horizon in seconds.
    pub sim_secs: f64,
    /// Completed requests.
    pub requests: usize,
    /// Closed-loop throughput over the horizon.
    pub req_per_s: f64,
    /// Mean client-side latency in ms.
    pub mean_ms: f64,
    /// Pending kernel wheel events at the end of the run.
    pub pending_events: usize,
    /// Occupied think buckets at the end of the run.
    pub think_buckets: usize,
    /// The arena's bucket granularity in microseconds.
    pub tick_micros: u64,
}

/// Runs one closed-loop mega-cell to `horizon` and measures it.
pub fn run_cell(users: usize, horizon: SimTime, seed: u64) -> CellStats {
    let app = social_network(users);
    let mut sim = Simulation::new(
        app.topology().clone(),
        SimConfig::default().seed(seed).access_log(false),
    );
    let id = sim.add_agent(Box::new(ClosedLoopUsers::new(
        users,
        app.browsing_model(),
        simnet::derive_seed(seed, "megacell/users"),
    )));
    sim.run_until(horizon);
    let pop: &ClosedLoopUsers = sim.agent_as(id).expect("population registered");
    let sim_secs = horizon.as_micros() as f64 / 1e6;
    let requests = sim.metrics().request_log().len();
    CellStats {
        users,
        sim_secs,
        requests,
        req_per_s: requests as f64 / sim_secs,
        mean_ms: pop.latency_stats().mean(),
        pending_events: sim.pending_events(),
        think_buckets: pop.pending_think_buckets(),
        tick_micros: pop.think_tick_micros(),
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let mut report = Report::new(
        "megacell_population",
        "Mega-cell — 100k-user closed-loop population on the paper topology",
    );
    report.paragraph(
        "One SocialNetwork cell provisioned for and driven by a 100k-user \
         closed-loop population (7 s mean think time — ~14k req/s nominal \
         demand; measured closed-loop throughput is lower because latency \
         joins the think-request loop). The user slab tags requests with \
         the slot index for O(1) response dispatch, and sleeping users \
         share bucketed think timers: the kernel wheel carries one event \
         per occupied bucket, so pending events stay in the low thousands \
         where a per-user timer design would hold 100k.",
    );

    let users = 100_000;
    let horizon = fidelity.secs(60, 4);
    let stats = run_cell(users, SimTime::ZERO + horizon, 0xCE11);
    assert!(
        stats.pending_events < 10_000,
        "mega-cell must keep pending wheel events under 10k, got {}",
        stats.pending_events
    );

    report.table(
        &[
            "users",
            "sim s",
            "requests",
            "req/s",
            "mean ms",
            "pending wheel events",
            "think buckets",
            "arena tick µs",
        ],
        vec![vec![
            stats.users.to_string(),
            fmt(stats.sim_secs, 0),
            stats.requests.to_string(),
            fmt(stats.req_per_s, 0),
            fmt(stats.mean_ms, 2),
            stats.pending_events.to_string(),
            stats.think_buckets.to_string(),
            stats.tick_micros.to_string(),
        ]],
    );
    report.paragraph(format!(
        "The cell ran to completion with {} pending wheel events for {} \
         sleeping-or-active users ({} occupied think buckets at a {} µs \
         tick) — the acceptance bound is < 10 000.",
        stats.pending_events, stats.users, stats.think_buckets, stats.tick_micros
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check at full population, debug-feasible horizon:
    /// a 100k-user cell runs to completion and the wheel carries O(think
    /// buckets) events — under 10k — not O(users).
    #[test]
    fn hundred_k_users_keep_pending_events_bounded() {
        // 4 sim-seconds: the 3 s think floor has elapsed, so the first
        // request wave (and its re-parks) has gone through the arena.
        let stats = run_cell(100_000, SimTime::from_secs(4), 0xCE11);
        assert_eq!(stats.users, 100_000);
        assert!(
            stats.requests > 1_000,
            "population must be actively requesting, got {}",
            stats.requests
        );
        assert!(
            stats.pending_events < 10_000,
            "pending wheel events must stay under 10k, got {}",
            stats.pending_events
        );
        assert!(
            stats.think_buckets <= stats.pending_events,
            "every occupied bucket holds exactly one pending wakeup"
        );
    }
}
