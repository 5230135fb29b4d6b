//! Run-time allocation budget: once a cell is warm, the kernel's steady
//! state allocates almost nothing per request.
//!
//! This is the workspace's allocation guard. It installs a counting global
//! allocator, warms each cell up, then counts the allocations made while it
//! simulates a measured window and divides by the requests resolved in that
//! window. Four cells cover the paths a request can take: plain
//! closed-loop traffic with an open-loop `FixedRate` probe (whose latency
//! journal is a `SegSamples`), the resilience layer (deadlines, retries,
//! backoff, circuit breakers), a Grunt attack's bursts, and the same attack
//! against bounded wait queues (load shedding). An allocation injected into
//! any of the kernel's per-event entry points (event dispatch and
//! admission, the event queue, the segmented logs and sample journals, the
//! think-timer arena, the closed-loop population, deadline arming, the
//! failure path and shedding) fails one of these budgets.
//!
//! What the budget does not see:
//!
//! * seal-time allocations: a segmented log or sample journal allocates a
//!   fresh segment and builds its index once per `seg_cap` pushes, by
//!   design, which amortizes to a few hundredths of an allocation per
//!   request;
//! * scale-up and drain rerouting: no cell runs them, so an allocation on
//!   those paths goes uncounted.
//!
//! It is its own test binary so the allocator counts nothing but this
//! file's tests; the counter is per thread, so tests running side by side
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::social_network;
use callgraph::RequestTypeId;
use grunt::{CommanderConfig, GruntCampaign, ProfilerConfig};
use microsim::agents::FixedRate;
use microsim::{
    BreakerPolicy, ResilienceConfig, ResiliencePolicy, RetryPolicy, SimConfig, Simulation,
};
use simnet::{SimDuration, SimTime};
use workload::ClosedLoopUsers;

/// The system allocator, counting every allocation and reallocation made
/// by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const USERS: usize = 1_500;
const SEED: u64 = 0xA110C;
/// Warm-up before any counting: populations, queues and the first log
/// segments reach their working size.
const WARMUP: SimTime = SimTime::from_secs(10);
/// The measured window.
const WINDOW: SimDuration = SimDuration::from_secs(40);
/// The resilience cell's per-attempt deadline.
const DEADLINE_MS: u64 = 60;
/// The shedding cell's bound on each replica's wait queue.
const QUEUE_BOUND: u32 = 4;

/// A SocialNetwork cell of [`USERS`] closed-loop users, not yet warm.
fn cell(config: SimConfig, user_retry: f64) -> Simulation {
    let app = social_network(USERS);
    let mut sim = Simulation::new(app.topology().clone(), config.seed(SEED));
    sim.add_agent(Box::new(
        ClosedLoopUsers::new(USERS, app.browsing_model(), SEED ^ 0xABCD).with_retry(user_retry),
    ));
    sim
}

/// A warm cell (see [`cell`]).
fn warm_cell(config: SimConfig, user_retry: f64) -> Simulation {
    let mut sim = cell(config, user_retry);
    sim.run_until(WARMUP);
    sim
}

/// Allocations per resolved request while `f` runs, and the number of
/// requests it resolved.
fn allocs_per_request(sim: &mut Simulation, f: impl FnOnce(&mut Simulation)) -> (f64, usize) {
    let requests_before = sim.metrics().request_log().len();
    let before = ALLOCATIONS.with(Cell::get);
    f(sim);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let requests = sim.metrics().request_log().len() - requests_before;
    assert!(
        requests > 1_000,
        "the window resolved only {requests} requests"
    );
    (allocations as f64 / requests as f64, requests)
}

/// Budgets sit at about 2–3× the measured rate, so a new per-request or
/// per-burst allocation fails while a changed segment size does not.
/// Measured on these cells: 0.036 allocations per request plain, 0.035 with
/// resilience on, 0.17 under attack (the Commander's per-burst bookkeeping:
/// bot origins and each burst's token list) and 0.071 under attack with
/// bounded queues (the same bookkeeping over more requests, since shed
/// attempts resolve at once).
fn assert_within(cell: &str, (per_request, requests): (f64, usize), budget: f64) {
    assert!(
        per_request <= budget,
        "{cell}: {per_request:.4} allocations per request over {requests} requests, budget {budget}"
    );
}

#[test]
fn plain_traffic_stays_within_budget() {
    // An open-loop probe beside the users, sending from t = 0 through the
    // warm-up and the whole window: 4,000 latency-journal pushes in the
    // window.
    let interval = SimDuration::from_millis(10);
    let count = (WARMUP + WINDOW).as_micros() / interval.as_micros();
    let mut sim = cell(SimConfig::default(), 0.0);
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        interval,
        count,
    )));
    sim.run_until(WARMUP);
    let measured = allocs_per_request(&mut sim, |s| s.run_until(WARMUP + WINDOW));
    assert_within("plain", measured, 0.1);
}

#[test]
fn resilience_paths_stay_within_budget() {
    // A deadline tight enough that about half the attempts time out, up to
    // 4 attempts with jittered backoff, users who retry half their failures,
    // and breakers that trip after 5 consecutive failures: the window runs
    // the timeout, retry, backoff and fail-fast paths, not just deadline
    // arming.
    let policy = ResilienceConfig::uniform(ResiliencePolicy {
        deadline: Some(SimDuration::from_millis(DEADLINE_MS)),
        retry: RetryPolicy {
            max_attempts: 4,
            backoff_base: SimDuration::from_millis(50),
            jitter: 0.1,
        },
        breaker: BreakerPolicy {
            failure_threshold: 5,
            probe_interval: SimDuration::from_millis(200),
        },
        queue_bound: None,
    });
    let mut sim = warm_cell(SimConfig::default().resilience(policy), 0.5);
    let before = *sim.metrics().resilience();
    let measured = allocs_per_request(&mut sim, |s| s.run_until(WARMUP + WINDOW));
    let after = *sim.metrics().resilience();
    assert!(
        after.timed_out > before.timed_out
            && after.retries > before.retries
            && after.rejected > before.rejected
            && after.breaker_opens > before.breaker_opens,
        "the window must time out, retry and reject requests: {before:?} -> {after:?}"
    );
    assert_within("resilience", measured, 0.1);
}

/// Profiles the warm cell and returns a [`WINDOW`] of Grunt attack on it.
fn profiled(sim: &mut Simulation) -> impl FnOnce(&mut Simulation) {
    let profile = GruntCampaign::profile(
        sim,
        ProfilerConfig {
            seed: SEED,
            ..ProfilerConfig::default()
        },
    );
    let commander = CommanderConfig {
        seed: SEED,
        ..CommanderConfig::default()
    };
    move |s| {
        GruntCampaign::attack_with(s, profile, commander, WINDOW);
    }
}

#[test]
fn a_grunt_attack_stays_within_budget() {
    let mut sim = warm_cell(SimConfig::default(), 0.0);
    let attack = profiled(&mut sim);
    assert_within("attack", allocs_per_request(&mut sim, attack), 0.5);
}

#[test]
fn shedding_under_a_grunt_attack_stays_within_budget() {
    // Bounded wait queues and no other resilience setting: the attack's
    // bursts overflow them, so the window runs the shed path, which no
    // other cell reaches.
    let policy = ResilienceConfig::uniform(ResiliencePolicy {
        queue_bound: Some(QUEUE_BOUND),
        ..ResiliencePolicy::disabled()
    });
    let mut sim = warm_cell(SimConfig::default().resilience(policy), 0.0);
    let attack = profiled(&mut sim);
    let before = sim.metrics().resilience().shed;
    let measured = allocs_per_request(&mut sim, attack);
    let shed = sim.metrics().resilience().shed - before;
    assert!(shed > 0, "the window must shed requests");
    assert_within("shedding", measured, 0.2);
}
