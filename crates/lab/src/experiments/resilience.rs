//! Resilience ablation: identical Grunt campaigns against an unprotected
//! deployment, a defensively configured one, and a retry-amplifying one.
//!
//! The resilience layer is a double-edged sword the paper's §VI mitigation
//! discussion hints at: deadlines plus bounded queues and circuit breakers
//! convert millibottleneck queueing into fast, bounded failures (goodput
//! under attack recovers), while aggressive platform retries *feed* the
//! attack — every timed-out request is resubmitted up to `max_attempts`
//! times, multiplying the very load spikes the Grunts manufacture. The
//! experiment pins both configurations with measured numbers.

use apps::SocialNetwork;
use grunt::{CampaignConfig, GruntCampaign};
use microsim::{
    BreakerPolicy, Outcome, RequestFilter, ResilienceConfig, ResiliencePolicy, RetryPolicy,
    SimConfig, Simulation,
};
use simnet::{SimDuration, SimTime, Welford};
use workload::ClosedLoopUsers;

use crate::report::fmt;
use crate::scenario::WARMUP;
use crate::{sweep, Report, RunOpts};

/// Probability an emulated user re-issues a failed request after a fresh
/// think time (identical across cells, so goodput differences come from
/// the platform policies alone).
const USER_RETRY: f64 = 0.5;

/// One resilience configuration under test.
struct Cell {
    label: &'static str,
    config: ResilienceConfig,
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            label: "unprotected",
            config: ResilienceConfig::disabled(),
        },
        Cell {
            label: "mitigating (deadline+shed+breaker)",
            config: ResilienceConfig::uniform(ResiliencePolicy {
                deadline: Some(SimDuration::from_secs(2)),
                retry: RetryPolicy::disabled(),
                breaker: BreakerPolicy {
                    failure_threshold: 50,
                    probe_interval: SimDuration::from_secs(2),
                },
                queue_bound: Some(200),
            }),
        },
        Cell {
            label: "retry storm (deadline+4 attempts)",
            config: ResilienceConfig::uniform(ResiliencePolicy {
                deadline: Some(SimDuration::from_millis(800)),
                retry: RetryPolicy {
                    max_attempts: 4,
                    backoff_base: SimDuration::from_millis(50),
                    jitter: 0.1,
                },
                breaker: BreakerPolicy::disabled(),
                queue_bound: None,
            }),
        },
    ]
}

/// Everything one resilience cell is judged on.
#[derive(Debug, Clone, Copy)]
pub struct CellStats {
    /// Successful legit completions per second over the baseline window.
    pub base_goodput: f64,
    /// Successful legit completions per second over the attack window.
    pub attack_goodput: f64,
    /// Mean RT of successful legit requests in the attack window (ms).
    pub ok_avg_ms: f64,
    /// Platform resilience counters over the whole run.
    pub counters: microsim::ResilienceCounters,
    /// Total attempts divided by original submissions.
    pub amplification: f64,
    /// Failed responses users re-issued.
    pub user_retries: u64,
    /// Failed responses users gave up on.
    pub abandoned: u64,
    /// Pending kernel wheel events at the end of the run.
    pub pending_events: usize,
}

/// Successful (`Outcome::Ok`) legit completions per second in `[from, to)`.
fn goodput(sim: &Simulation, from: SimTime, to: SimTime) -> f64 {
    let filter = RequestFilter {
        is_attack: Some(false),
        request_type: None,
        outcome: Some(Outcome::Ok),
    };
    let n = sim.metrics().request_log().count_matching(from, to, filter);
    n as f64 / to.saturating_since(from).as_secs_f64().max(1e-9)
}

/// Runs one baseline + Grunt campaign under `config` and measures it.
pub fn run_cell(
    users: usize,
    config: ResilienceConfig,
    baseline: SimDuration,
    attack: SimDuration,
    seed: u64,
) -> CellStats {
    let app = SocialNetwork::new(users);
    let cfg = SimConfig::default().seed(seed).resilience(config);
    let mut sim = Simulation::new(app.topology().clone(), cfg);
    let users_id = sim.add_agent(Box::new(
        ClosedLoopUsers::new(
            users,
            app.browsing_model(),
            simnet::derive_seed(seed, "scenario/users"),
        )
        .with_retry(USER_RETRY),
    ));
    sim.run_until(SimTime::ZERO + WARMUP);
    let base_from = sim.now();
    sim.run_until(base_from + baseline);
    let base_to = sim.now();
    let campaign = GruntCampaign::run(&mut sim, CampaignConfig::default(), attack);
    let ramp = SimDuration::from_secs(20).min(attack / 4);
    let (att_from, att_to) = (
        campaign.attack_started + ramp,
        campaign.attack_started + attack,
    );

    let ok_filter = RequestFilter {
        is_attack: Some(false),
        request_type: None,
        outcome: Some(Outcome::Ok),
    };
    let mut ok_lat = Welford::new();
    sim.metrics()
        .request_log()
        .for_each_matching(att_from, att_to, ok_filter, |rec| {
            ok_lat.push(rec.latency().as_millis_f64());
        });
    let counters = *sim.metrics().resilience();
    // Every resolved attempt — success or failure — leaves one request-log
    // record, so original submissions = records minus retry attempts.
    let resolved = sim.metrics().request_log().len() as u64;
    let first_attempts = resolved.saturating_sub(counters.retries);
    let pop: &ClosedLoopUsers = sim.agent_as(users_id).expect("population registered");
    CellStats {
        base_goodput: goodput(&sim, base_from, base_to),
        attack_goodput: goodput(&sim, att_from, att_to),
        ok_avg_ms: ok_lat.mean(),
        counters,
        amplification: counters.retry_amplification(first_attempts),
        user_retries: pop.user_retries(),
        abandoned: pop.abandoned(),
        pending_events: sim.pending_events(),
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let users = fidelity.pick(5_000, 2_000);
    let baseline = fidelity.secs(60, 30);
    let attack = fidelity.secs(300, 90);

    let mut report = Report::new(
        "resilience_policies",
        "Resilience layer — grunt attacks vs. deadlines, breakers, shedding and retries",
    );
    report.paragraph(format!(
        "Identical Grunt campaigns ({attack} attack window, {users} closed-loop users, \
         {USER_RETRY} user retry probability) against three resilience configurations of \
         the same SocialNetwork deployment: no policies, a defensive set (2 s deadlines, \
         200-deep bounded queues, 50-failure circuit breakers, no platform retries), and \
         an aggressive one (800 ms deadlines with up to 4 attempts at 50 ms exponential \
         backoff, 10% jitter). Goodput counts only successful legitimate completions."
    ));

    let rows = sweep::map_cells(opts.jobs, &cells(), |i, cell| {
        let s = run_cell(
            users,
            cell.config.clone(),
            baseline,
            attack,
            0x5E51 + i as u64,
        );
        vec![
            cell.label.to_string(),
            fmt(s.base_goodput, 0),
            fmt(s.attack_goodput, 0),
            fmt(s.ok_avg_ms, 0),
            s.counters.timed_out.to_string(),
            s.counters.shed.to_string(),
            s.counters.rejected.to_string(),
            s.counters.breaker_opens.to_string(),
            fmt(s.amplification, 2),
            s.user_retries.to_string(),
            s.abandoned.to_string(),
        ]
    });
    report.table(
        &[
            "Config",
            "Base goodput (req/s)",
            "Attack goodput (req/s)",
            "Ok avg RT (ms)",
            "Timed out",
            "Shed",
            "Rejected",
            "Breaker opens",
            "Retry amp.",
            "User retries",
            "Abandoned",
        ],
        rows,
    );
    report.paragraph(
        "Expected shape: the unprotected deployment rides out the attack with \
         inflated latencies but no failures (amplification 1.0). The mitigating \
         configuration fails attack-inflated requests fast — timeouts, sheds and \
         breaker rejections replace multi-second queueing, and successful-request \
         RT stays near baseline. The retry-storm configuration also bounds \
         latency, but every timed-out request (legitimate or attack) is \
         resubmitted up to 4 times: the amplification factor rises above 1 and \
         the extra attempts feed the very bottleneck the Grunts target — the \
         classic retry-storm failure mode resilience tuning must avoid.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite guard: a 100k-user population against a *shedding*
    /// topology must keep pending wheel events bounded — deadline timers
    /// are per-class (one `DeadlineCheck` event per distinct duration, not
    /// per in-flight request) and expired entries are compacted, never
    /// leaked.
    #[test]
    fn hundred_k_users_shedding_keeps_pending_events_bounded() {
        let users = 100_000;
        let app = SocialNetwork::new(users);
        let config = ResilienceConfig::uniform(ResiliencePolicy {
            deadline: Some(SimDuration::from_millis(500)),
            retry: RetryPolicy::disabled(),
            breaker: BreakerPolicy::disabled(),
            queue_bound: Some(50),
        });
        let cfg = SimConfig::default()
            .seed(0xCE11)
            .access_log(false)
            .resilience(config);
        let mut sim = Simulation::new(app.topology().clone(), cfg);
        sim.add_agent(Box::new(
            ClosedLoopUsers::new(
                users,
                app.browsing_model(),
                simnet::derive_seed(0xCE11, "megacell/users"),
            )
            .with_retry(1.0),
        ));
        // 4 sim-seconds: past the 3 s think floor, so the first request
        // wave has hit the bounded queues and its deadline entries have
        // been armed, resolved and compacted.
        sim.run_until(SimTime::from_secs(4));
        let requests = sim.metrics().request_log().len();
        assert!(
            requests > 1_000,
            "population must be actively requesting, got {requests}"
        );
        assert!(
            sim.pending_events() < 10_000,
            "pending wheel events must stay under 10k with deadlines armed, got {}",
            sim.pending_events()
        );
        // The off-wheel deadline FIFOs track only live in-flight attempts.
        assert!(
            sim.pending_deadlines() <= users,
            "deadline entries must not leak past the in-flight population, got {}",
            sim.pending_deadlines()
        );
    }

    /// The three configurations behave as the report claims: disabled
    /// policies never fail anything, the defensive set sheds or times out
    /// under attack without platform retries, and the retry-storm set
    /// amplifies attempts.
    #[test]
    fn cells_produce_their_signature_outcomes() {
        let baseline = SimDuration::from_secs(5);
        let attack = SimDuration::from_secs(20);
        let all = cells();
        let unprotected = run_cell(600, all[0].config.clone(), baseline, attack, 0x5E51);
        assert_eq!(unprotected.counters.timed_out, 0);
        assert_eq!(unprotected.counters.shed, 0);
        assert_eq!(unprotected.amplification, 1.0);
        assert_eq!(unprotected.user_retries + unprotected.abandoned, 0);

        let storm = run_cell(600, all[2].config.clone(), baseline, attack, 0x5E51 + 2);
        assert!(
            storm.counters.timed_out > 0,
            "800 ms deadlines under attack must expire some requests"
        );
        assert!(
            storm.amplification > 1.0,
            "platform retries must amplify attempts, got {}",
            storm.amplification
        );
    }
}
