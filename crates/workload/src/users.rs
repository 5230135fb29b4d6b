//! Closed-loop emulated user populations.
//!
//! Two implementations live here:
//!
//! * [`ClosedLoopUsers`] — the flat-arena engine sized for 100k+ users per
//!   cell: a flat user slab addressed by the request tag (O(1) response
//!   dispatch, zero hashing), a bucketed [`ThinkArena`] (one kernel wakeup
//!   per occupied bucket instead of one wheel event per sleeping user),
//!   precomputed alias tables for the Markov transitions, and prefetched
//!   uniform draws.
//! * [`ClosedLoopUsersNaive`] — the retained naive twin with identical
//!   observable semantics over `BTreeMap` bookkeeping and
//!   per-call RNG. It is the differential ground truth
//!   (`tests/determinism.rs` pins the two byte-for-byte) and the bench
//!   baseline the flat-arena speedups are measured against.
//!
//! # RNG stream layout
//!
//! Both populations consume one `unit()` stream (label `workload/users`)
//! in the same order, which the determinism tests pin:
//!
//! 1. construction: one uniform per user (initial Markov state, mapped
//!    through the initial alias table);
//! 2. `start`: one uniform per user in slot order (first think time),
//!    skipped entirely when the mean think time is zero;
//! 3. per successful response: one uniform for the Markov transition
//!    (alias table), then one uniform for the next think time (again
//!    skipped at zero mean);
//! 4. per failed response (`Outcome != Ok`): one uniform for the
//!    retry-or-abandon decision **iff** `0 < retry_prob < 1` (the
//!    deterministic extremes draw nothing), then — on abandon only — the
//!    transition uniform, then the think uniform either way. A retrying
//!    user keeps its Markov state and re-fires the same request after the
//!    think; an abandoning user browses on as if the request had
//!    succeeded, but records no latency sample.
//!
//! The engine prefetches this stream in `UNIT_BATCH`-draw blocks via
//! [`RngStream::fill_unit`], which is documented to be bit-identical to
//! per-call draws — so batching changes no outcome, only the per-draw
//! cost. Relative to the pre-arena implementation, the *mapping* of
//! transition uniforms changed from `weighted_choice`'s inverse-CDF scan
//! to alias-table lookups (same distribution, different outcomes for a
//! given uniform), and think expiries are quantised up to the arena tick
//! (≤ ~0.05 % of the mean; see [`think_tick_micros`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use callgraph::RequestTypeId;
use microsim::{Agent, Origin, Outcome, Response, SimCtx};
use simnet::{exp_from_unit, AliasTable, RngStream, SegLog, SimDuration, SimTime, Welford};

use crate::arena::{think_tick_micros, ThinkArena};

/// Prefetch block size for the engine's uniform draws (mirrors the
/// kernel's demand-z batching).
const UNIT_BATCH: usize = 32;

/// Base IPv4 address of emulated users; user `i` gets `base + i`.
const USER_IP_BASE: u32 = 0x0A10_0000;

/// One weighted transition row with its precomputed alias table.
#[derive(Debug, Clone, PartialEq)]
struct TransitionRow {
    weights: Vec<f64>,
    alias: AliasTable,
}

impl TransitionRow {
    fn new(weights: Vec<f64>) -> Self {
        let alias = AliasTable::new(&weights);
        TransitionRow { weights, alias }
    }
}

/// Transition-row storage: a full matrix keeps one row per state; a
/// memoryless model stores its single shared row **once** (the old
/// `vec![weights.clone(); n]` representation was O(n²) memory for an
/// n-state memoryless model).
#[derive(Debug, Clone, PartialEq)]
enum TransitionRows {
    /// `rows[i]`: outgoing weights of state `i`.
    PerState(Vec<TransitionRow>),
    /// Every state draws from the same row.
    Shared(TransitionRow),
}

/// A Markov model of how a user navigates the application's pages.
///
/// State `i` corresponds to request type `i` of the owning model's
/// `types` list; after completing a request of state `i`, the next request
/// type is drawn from row `i` of the transition matrix. Rows are sampled
/// through precomputed [`AliasTable`]s: O(1) per transition regardless of
/// the catalogue size.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowsingModel {
    types: Vec<RequestTypeId>,
    rows: TransitionRows,
    /// Initial-state weights.
    initial: TransitionRow,
}

impl BrowsingModel {
    /// Builds a model from explicit transition weights.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or any row cannot be sampled.
    pub fn new(types: Vec<RequestTypeId>, transitions: Vec<Vec<f64>>, initial: Vec<f64>) -> Self {
        let n = types.len();
        assert!(n > 0, "browsing model needs at least one state");
        assert_eq!(transitions.len(), n, "transition rows must match states");
        assert!(
            transitions.iter().all(|row| row.len() == n),
            "transition rows must be square"
        );
        assert_eq!(initial.len(), n, "initial weights must match states");
        assert!(
            initial.iter().sum::<f64>() > 0.0,
            "initial weights must be sampleable"
        );
        assert!(
            transitions.iter().all(|row| row.iter().sum::<f64>() > 0.0),
            "every transition row must be sampleable"
        );
        BrowsingModel {
            types,
            rows: TransitionRows::PerState(
                transitions.into_iter().map(TransitionRow::new).collect(),
            ),
            initial: TransitionRow::new(initial),
        }
    }

    /// A memoryless model: every step draws independently from `weights`.
    ///
    /// The shared row (and its alias table) is stored once, not cloned per
    /// state.
    pub fn memoryless(entries: Vec<(RequestTypeId, f64)>) -> Self {
        let types: Vec<RequestTypeId> = entries.iter().map(|(t, _)| *t).collect();
        let weights: Vec<f64> = entries.iter().map(|(_, w)| *w).collect();
        assert!(!types.is_empty(), "browsing model needs at least one state");
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "initial weights must be sampleable"
        );
        BrowsingModel {
            types,
            rows: TransitionRows::Shared(TransitionRow::new(weights.clone())),
            initial: TransitionRow::new(weights),
        }
    }

    /// A uniform memoryless model over the given types.
    pub fn uniform(types: impl IntoIterator<Item = RequestTypeId>) -> Self {
        Self::memoryless(types.into_iter().map(|t| (t, 1.0)).collect())
    }

    /// Maps one uniform draw onto an initial state (pure; see the module
    /// docs on batching).
    fn initial_state(&self, u: f64) -> usize {
        self.initial.alias.sample(u)
    }

    /// Maps one uniform draw onto the successor of `from` (pure).
    fn next_state(&self, from: usize, u: f64) -> usize {
        self.row(from).alias.sample(u)
    }

    fn row(&self, from: usize) -> &TransitionRow {
        match &self.rows {
            TransitionRows::PerState(rows) => &rows[from],
            TransitionRows::Shared(row) => {
                debug_assert!(from < self.types.len());
                row
            }
        }
    }

    /// The raw outgoing weights of a state (the bench harness runs
    /// `weighted_choice` over this slice as the alias tables' naive twin).
    pub fn transition_weights(&self, from: usize) -> &[f64] {
        &self.row(from).weights
    }

    /// The request type of a state.
    pub fn request_type(&self, state: usize) -> RequestTypeId {
        self.types[state]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.types.len()
    }
}

/// A closed-loop population of `n` emulated users (Section V-B), built for
/// the deep-population regime (100k+ users per cell).
///
/// Each user cycles: think → issue the request of the current Markov state
/// → wait for the response → transition → think again. Think times follow
/// a *shifted* exponential: a floor of 3/7 of the mean plus an exponential
/// remainder. This matches the paper's production user-behaviour model,
/// whose inter-request intervals have a 95 % confidence interval of
/// [2.8 s, 14.4 s] — i.e. real users essentially never fire two requests
/// within 3 s, which is exactly why the IDS interval rule can use that
/// threshold without drowning in false positives.
///
/// Engine shape (the deep-population rebuild):
///
/// * users live in a flat slab — the per-slot Markov state is the only
///   per-user byte; session and IP derive from the slot index. Requests
///   carry the slot in their tag ([`SimCtx::submit_tagged`]), so response
///   dispatch is one array index.
/// * sleeping users are parked in a [`ThinkArena`]: one kernel wakeup per
///   occupied think bucket, users stepped in slot order when it fires —
///   pending wheel events are O(occupied buckets), not O(users).
/// * RNG work is batched: uniforms are prefetched in `UNIT_BATCH` blocks
///   and mapped through precomputed alias tables / the pure exponential
///   tail (see the module docs for the pinned stream layout).
///
/// The population records client-side latency statistics, which is what
/// the paper's tables report as user-perceived response time.
#[derive(Debug, Clone)]
pub struct ClosedLoopUsers {
    /// Immutable model shared by reference across forks (alias tables for
    /// a large catalogue are not worth copying into every 100k-user snapshot).
    model: Arc<BrowsingModel>,
    think_mean_s: f64,
    /// Flat user slab: current Markov state per slot.
    states: Vec<u32>,
    rng: RngStream,
    /// Prefetched uniforms ([`RngStream::fill_unit`] blocks).
    unit_buf: [f64; UNIT_BATCH],
    /// Next unconsumed index into `unit_buf` (`UNIT_BATCH` = empty).
    unit_next: usize,
    /// Bucketed think timers.
    arena: ThinkArena,
    /// Reused wake-batch buffer (drained slots of the firing bucket);
    /// empty between wakes, so a fork copies nothing.
    wake_scratch: Vec<u32>,
    /// Client-side latency stats (ms) over the whole run.
    latency: Welford,
    /// Raw (completion time, latency ms) samples for windowed series.
    /// Copy-on-write so snapshotting the population is O(tail), not
    /// O(completed requests).
    samples: SegLog<(SimTime, f64)>,
    /// Collect raw samples only after this time (lets experiments exclude
    /// warm-up).
    record_after: SimTime,
    /// Probability a user re-issues a failed request after a fresh think
    /// time (see the module docs for the exact draw discipline).
    retry_prob: f64,
    /// Failed responses users re-issued.
    user_retries: u64,
    /// Failed responses users gave up on.
    abandoned: u64,
}

impl ClosedLoopUsers {
    /// Creates a population of `n` users with the paper's 7 s mean think
    /// time.
    pub fn new(n: usize, model: BrowsingModel, seed: u64) -> Self {
        assert!(n > 0, "population needs at least one user");
        let model = Arc::new(model);
        let mut rng = RngStream::from_label(seed, "workload/users");
        let mut unit_buf = [0.0f64; UNIT_BATCH];
        let mut unit_next = UNIT_BATCH;
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            if unit_next == UNIT_BATCH {
                rng.fill_unit(&mut unit_buf);
                unit_next = 0;
            }
            states.push(model.initial_state(unit_buf[unit_next]) as u32);
            unit_next += 1;
        }
        let think_mean_s = 7.0;
        ClosedLoopUsers {
            model,
            think_mean_s,
            states,
            rng,
            unit_buf,
            unit_next,
            arena: ThinkArena::new(think_tick_micros(think_mean_s), n),
            wake_scratch: Vec::new(),
            latency: Welford::new(),
            samples: SegLog::new(),
            record_after: SimTime::ZERO,
            retry_prob: 0.0,
            user_retries: 0,
            abandoned: 0,
        }
    }

    /// Overrides the mean think time in seconds (before the simulation
    /// starts: the arena's bucket granularity is derived from the mean).
    pub fn with_think_time(mut self, mean_s: f64) -> Self {
        assert!(mean_s >= 0.0, "think time cannot be negative");
        assert!(
            self.arena.is_empty(),
            "think time must be set before the population starts"
        );
        self.think_mean_s = mean_s;
        self.arena = ThinkArena::new(think_tick_micros(mean_s), self.states.len());
        self
    }

    /// Starts raw-sample recording only after `t` (statistics in
    /// [`ClosedLoopUsers::latency_stats`] are unaffected).
    pub fn record_after(mut self, t: SimTime) -> Self {
        self.record_after = t;
        self
    }

    /// Sets the probability that a user re-issues a failed request
    /// (outcome other than `Ok`) after a fresh think time. Default `0.0`:
    /// failures are abandoned and the user browses on.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_retry(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "retry probability must be in [0, 1]"
        );
        self.retry_prob = p;
        self
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// Failed responses users re-issued.
    pub fn user_retries(&self) -> u64 {
        self.user_retries
    }

    /// Failed responses users gave up on.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Aggregate latency statistics in milliseconds.
    pub fn latency_stats(&self) -> Welford {
        self.latency
    }

    /// Raw `(completed_at, latency_ms)` samples recorded after the
    /// configured threshold.
    pub fn samples(&self) -> &SegLog<(SimTime, f64)> {
        &self.samples
    }

    /// Occupied think buckets — the population's pending-wakeup footprint
    /// on the kernel wheel (O(buckets), not O(users)).
    pub fn pending_think_buckets(&self) -> usize {
        self.arena.occupied_buckets()
    }

    /// The arena's bucket granularity in microseconds.
    pub fn think_tick_micros(&self) -> u64 {
        self.arena.tick_micros()
    }

    /// The next prefetched uniform (bit-identical to `rng.unit()`).
    fn next_unit(&mut self) -> f64 {
        if self.unit_next == UNIT_BATCH {
            self.rng.fill_unit(&mut self.unit_buf);
            self.unit_next = 0;
        }
        let u = self.unit_buf[self.unit_next];
        self.unit_next += 1;
        u
    }

    /// One shifted-exponential think draw (consumes a uniform only when
    /// the exponential remainder is non-degenerate, like `RngStream::exp`).
    fn think_seconds(&mut self) -> f64 {
        let floor = self.think_mean_s * 3.0 / 7.0;
        let remainder = self.think_mean_s - floor;
        if remainder > 0.0 {
            floor + exp_from_unit(remainder, self.next_unit())
        } else {
            floor
        }
    }

    /// Parks `slot` for one think time; schedules the bucket's kernel
    /// wakeup if it is the first occupant.
    fn park(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {
        let think = self.think_seconds();
        let expiry = ctx.now() + SimDuration::from_secs_f64(think);
        let tick = self.arena.tick_of(expiry);
        if self.arena.schedule(ctx.now(), slot, tick) {
            let delay = self.arena.wake_time(tick).saturating_since(ctx.now());
            ctx.schedule_wake(delay, tick);
        }
    }

    /// Issues the request of `slot`'s current state, tagged with the slot
    /// for O(1) response dispatch.
    fn fire_slot(&mut self, ctx: &mut SimCtx<'_>, slot: u32) {
        let rt = self.model.request_type(self.states[slot as usize] as usize);
        let origin = Origin::legit(USER_IP_BASE + slot, u64::from(slot));
        ctx.submit_tagged(rt, origin, u64::from(slot));
    }
}

impl Agent for ClosedLoopUsers {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        for slot in 0..self.states.len() as u32 {
            self.park(ctx, slot);
        }
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        // `token` is the firing bucket's tick; step its users in slot
        // order. The batch buffer is swapped out so the arena and the
        // submission path never hold overlapping borrows.
        let mut batch = std::mem::take(&mut self.wake_scratch);
        self.arena.drain_into(token, &mut batch);
        for &slot in &batch {
            self.fire_slot(ctx, slot);
        }
        batch.clear();
        self.wake_scratch = batch;
    }

    fn on_response(&mut self, ctx: &mut SimCtx<'_>, response: &Response) {
        // The tag is the submitting slot: O(1) dispatch, no token map.
        let slot = response.tag as usize;
        debug_assert!(slot < self.states.len(), "response tag outside the slab");
        if response.outcome != Outcome::Ok {
            // Failed request: no latency sample. Decide retry-or-abandon
            // (one uniform, skipped at the deterministic extremes); a
            // retrying user keeps its state, an abandoning one browses on.
            let retry = self.retry_prob >= 1.0
                || (self.retry_prob > 0.0 && self.next_unit() < self.retry_prob);
            if retry {
                self.user_retries += 1;
            } else {
                self.abandoned += 1;
                let u = self.next_unit();
                self.states[slot] = self.model.next_state(self.states[slot] as usize, u) as u32;
            }
            self.park(ctx, slot as u32);
            return;
        }
        let lat = response.latency_ms();
        self.latency.push(lat);
        if response.completed_at >= self.record_after {
            self.samples.push((response.completed_at, lat));
        }
        let u = self.next_unit();
        self.states[slot] = self.model.next_state(self.states[slot] as usize, u) as u32;
        self.park(ctx, slot as u32);
    }
}

#[derive(Debug, Clone, Copy)]
struct NaiveUser {
    state: usize,
    session: u64,
    ip: u32,
}

/// The retained naive twin of [`ClosedLoopUsers`].
///
/// Identical observable semantics — same RNG stream consumption, same
/// alias-table transition mapping, same quantised think ticks, same
/// slot-ordered bucket stepping — over the bookkeeping the flat-arena
/// engine replaced: a token→user `BTreeMap` for outstanding requests, a
/// `BTreeMap` of think buckets (allocating a `Vec` per bucket), and
/// per-call RNG draws. `tests/determinism.rs` pins the two populations
/// byte-for-byte on paper-scale cells and on one 100k-user cell.
#[derive(Debug, Clone)]
pub struct ClosedLoopUsersNaive {
    model: BrowsingModel,
    think_mean_s: f64,
    tick_micros: u64,
    users: Vec<NaiveUser>,
    rng: RngStream,
    outstanding: BTreeMap<u64, usize>,
    timers: BTreeMap<u64, Vec<u32>>,
    latency: Welford,
    samples: SegLog<(SimTime, f64)>,
    record_after: SimTime,
    retry_prob: f64,
    user_retries: u64,
    abandoned: u64,
}

impl ClosedLoopUsersNaive {
    /// Creates a population of `n` users with the paper's 7 s mean think
    /// time (same seed/label/stream as [`ClosedLoopUsers::new`]).
    pub fn new(n: usize, model: BrowsingModel, seed: u64) -> Self {
        assert!(n > 0, "population needs at least one user");
        let mut rng = RngStream::from_label(seed, "workload/users");
        let users = (0..n)
            .map(|i| NaiveUser {
                state: model.initial_state(rng.unit()),
                session: i as u64,
                ip: USER_IP_BASE + i as u32,
            })
            .collect();
        ClosedLoopUsersNaive {
            model,
            think_mean_s: 7.0,
            tick_micros: think_tick_micros(7.0),
            users,
            rng,
            outstanding: BTreeMap::new(),
            timers: BTreeMap::new(),
            latency: Welford::new(),
            samples: SegLog::new(),
            record_after: SimTime::ZERO,
            retry_prob: 0.0,
            user_retries: 0,
            abandoned: 0,
        }
    }

    /// Overrides the mean think time in seconds.
    pub fn with_think_time(mut self, mean_s: f64) -> Self {
        assert!(mean_s >= 0.0, "think time cannot be negative");
        self.think_mean_s = mean_s;
        self.tick_micros = think_tick_micros(mean_s);
        self
    }

    /// Starts raw-sample recording only after `t`.
    pub fn record_after(mut self, t: SimTime) -> Self {
        self.record_after = t;
        self
    }

    /// Sets the retry probability for failed requests (same semantics and
    /// draw discipline as [`ClosedLoopUsers::with_retry`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_retry(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "retry probability must be in [0, 1]"
        );
        self.retry_prob = p;
        self
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.users.len()
    }

    /// Failed responses users re-issued.
    pub fn user_retries(&self) -> u64 {
        self.user_retries
    }

    /// Failed responses users gave up on.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Aggregate latency statistics in milliseconds.
    pub fn latency_stats(&self) -> Welford {
        self.latency
    }

    /// Raw `(completed_at, latency_ms)` samples recorded after the
    /// configured threshold.
    pub fn samples(&self) -> &SegLog<(SimTime, f64)> {
        &self.samples
    }

    fn think_then_park(&mut self, ctx: &mut SimCtx<'_>, user: usize) {
        // Shifted exponential: floor + exp remainder, preserving the mean.
        let floor = self.think_mean_s * 3.0 / 7.0;
        let think = floor + self.rng.exp(self.think_mean_s - floor);
        let expiry = ctx.now() + SimDuration::from_secs_f64(think);
        let tick = expiry.as_micros().div_ceil(self.tick_micros);
        let bucket = self.timers.entry(tick).or_default();
        bucket.push(user as u32);
        if bucket.len() == 1 {
            let at = SimTime::from_micros(tick * self.tick_micros);
            ctx.schedule_wake(at.saturating_since(ctx.now()), tick);
        }
    }
}

impl Agent for ClosedLoopUsersNaive {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        for user in 0..self.users.len() {
            self.think_then_park(ctx, user);
        }
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        let mut batch = self.timers.remove(&token).unwrap_or_default();
        batch.sort_unstable();
        for &slot in &batch {
            let u = self.users[slot as usize];
            let rt = self.model.request_type(u.state);
            let req = ctx.submit(rt, Origin::legit(u.ip, u.session));
            self.outstanding.insert(req, slot as usize);
        }
    }

    fn on_response(&mut self, ctx: &mut SimCtx<'_>, response: &Response) {
        let user = self
            .outstanding
            .remove(&response.token)
            .expect("response for unknown token");
        if response.outcome != Outcome::Ok {
            let retry = self.retry_prob >= 1.0
                || (self.retry_prob > 0.0 && self.rng.unit() < self.retry_prob);
            if retry {
                self.user_retries += 1;
            } else {
                self.abandoned += 1;
                let state = self.users[user].state;
                self.users[user].state = self.model.next_state(state, self.rng.unit());
            }
            self.think_then_park(ctx, user);
            return;
        }
        let lat = response.latency_ms();
        self.latency.push(lat);
        if response.completed_at >= self.record_after {
            self.samples.push((response.completed_at, lat));
        }
        let state = self.users[user].state;
        self.users[user].state = self.model.next_state(state, self.rng.unit());
        self.think_then_park(ctx, user);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{ServiceSpec, TopologyBuilder};
    use microsim::{SimConfig, Simulation};

    fn topo() -> callgraph::Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(512).demand_cv(0.0));
        let x = b.add_service(ServiceSpec::new("x").threads(256).demand_cv(0.0));
        b.add_request_type(
            "r0",
            vec![
                (gw, SimDuration::from_millis(1)),
                (x, SimDuration::from_millis(3)),
            ],
        );
        b.add_request_type("r1", vec![(gw, SimDuration::from_millis(1))]);
        b.build()
    }

    #[test]
    fn population_produces_expected_throughput() {
        // 100 users, 1 s think, ~4 ms service: throughput ~ 100 req/s.
        let model = BrowsingModel::uniform([RequestTypeId::new(0), RequestTypeId::new(1)]);
        let users = ClosedLoopUsers::new(100, model, 11).with_think_time(1.0);
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(users));
        sim.run_until(SimTime::from_secs(30));
        let n = sim.metrics().request_log().len() as f64;
        let rate = n / 30.0;
        assert!((rate - 100.0).abs() < 15.0, "rate {rate} req/s");
    }

    #[test]
    fn closed_loop_has_one_outstanding_request_per_user() {
        let model = BrowsingModel::uniform([RequestTypeId::new(0)]);
        let users = ClosedLoopUsers::new(5, model, 3).with_think_time(0.01);
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(users));
        sim.run_until(SimTime::from_secs(5));
        // With think time 10 ms and RT ~5 ms, each user alternates
        // think/request; sessions in the access log must be exactly 5.
        let sessions: std::collections::BTreeSet<u64> = sim
            .metrics()
            .access_log()
            .iter()
            .map(|e| e.origin.session)
            .collect();
        assert_eq!(sessions.len(), 5);
        // No session may ever have two overlapping requests: check by
        // scanning the log per session against completions.
        let mut last_submit: BTreeMap<u64, SimTime> = BTreeMap::new();
        for e in sim.metrics().access_log() {
            if let Some(prev) = last_submit.insert(e.origin.session, e.at) {
                assert!(e.at > prev, "submissions must be ordered per user");
            }
        }
    }

    #[test]
    fn markov_transitions_follow_matrix() {
        // Deterministic cycle: r0 -> r1 -> r0 -> ...
        let model = BrowsingModel::new(
            vec![RequestTypeId::new(0), RequestTypeId::new(1)],
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            vec![1.0, 0.0],
        );
        let users = ClosedLoopUsers::new(1, model, 3).with_think_time(0.001);
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(users));
        sim.run_until(SimTime::from_secs(2));
        let types: Vec<u32> = sim
            .metrics()
            .access_log()
            .iter()
            .map(|e| e.request_type.index() as u32)
            .collect();
        assert!(types.len() > 10);
        for (i, ty) in types.iter().enumerate() {
            assert_eq!(*ty, (i % 2) as u32, "strict alternation expected");
        }
    }

    #[test]
    fn record_after_skips_warmup() {
        let model = BrowsingModel::uniform([RequestTypeId::new(1)]);
        let users = ClosedLoopUsers::new(10, model, 5)
            .with_think_time(0.05)
            .record_after(SimTime::from_secs(1));
        let mut sim = Simulation::new(topo(), SimConfig::default());
        let id = sim.add_agent(Box::new(users));
        sim.run_until(SimTime::from_secs(2));
        let users: &ClosedLoopUsers = sim.agent_as(id).expect("typed access");
        assert!(!users.samples().is_empty());
        assert!(users
            .samples()
            .iter()
            .all(|(t, _)| *t >= SimTime::from_secs(1)));
        // Aggregate stats still cover the whole run (more samples than the
        // post-warm-up raw series).
        assert!(users.latency_stats().count() > users.samples().len() as u64);
    }

    #[test]
    fn pending_wakeups_stay_bucketed() {
        // At the paper's 7 s mean, a 4096 µs tick bounds the occupied
        // buckets by the think horizon (~6k ticks): 20k sleeping users
        // share far fewer buckets than users, and the kernel wheel carries
        // O(buckets) events, not O(users).
        let model = BrowsingModel::uniform([RequestTypeId::new(1)]);
        let users = ClosedLoopUsers::new(20_000, model, 7).with_think_time(7.0);
        let mut sim = Simulation::new(topo(), SimConfig::default());
        let id = sim.add_agent(Box::new(users));
        sim.run_until(SimTime::from_secs(20));
        let users: &ClosedLoopUsers = sim.agent_as(id).expect("typed access");
        let buckets = users.pending_think_buckets();
        assert!(buckets > 0, "population must be parked between requests");
        assert!(
            buckets < 7_000,
            "20k sleeping users must share < 7000 buckets, got {buckets}"
        );
        assert!(
            sim.pending_events() < 8_000,
            "wheel must carry O(buckets) events, got {}",
            sim.pending_events()
        );
    }

    #[test]
    fn naive_twin_is_byte_identical() {
        // The full-sim differential on a paper-like cell lives in
        // tests/determinism.rs; this is the crate-level smoke version.
        let model = BrowsingModel::uniform([RequestTypeId::new(0), RequestTypeId::new(1)]);
        let mut fast = Simulation::new(topo(), SimConfig::default());
        let fast_id = fast.add_agent(Box::new(
            ClosedLoopUsers::new(200, model.clone(), 11).with_think_time(0.2),
        ));
        let mut naive = Simulation::new(topo(), SimConfig::default());
        let naive_id = naive.add_agent(Box::new(
            ClosedLoopUsersNaive::new(200, model, 11).with_think_time(0.2),
        ));
        fast.run_until(SimTime::from_secs(10));
        naive.run_until(SimTime::from_secs(10));
        let f: &ClosedLoopUsers = fast.agent_as(fast_id).expect("typed");
        let n: &ClosedLoopUsersNaive = naive.agent_as(naive_id).expect("typed");
        assert_eq!(f.latency_stats().count(), n.latency_stats().count());
        assert_eq!(
            f.latency_stats().mean().to_bits(),
            n.latency_stats().mean().to_bits()
        );
        let fs: Vec<_> = f.samples().iter().collect();
        let ns: Vec<_> = n.samples().iter().collect();
        assert_eq!(fs, ns);
        assert_eq!(
            fast.metrics().request_log().len(),
            naive.metrics().request_log().len()
        );
    }

    fn resilient_cfg(deadline_us: u64) -> SimConfig {
        use microsim::{ResilienceConfig, ResiliencePolicy};
        SimConfig::default().resilience(ResilienceConfig::uniform(ResiliencePolicy {
            deadline: Some(SimDuration::from_micros(deadline_us)),
            ..ResiliencePolicy::disabled()
        }))
    }

    #[test]
    fn failed_requests_retry_or_abandon() {
        // 500 µs deadline against ≥ 1 ms demands: every request times out,
        // so the population sees only failed responses.
        let model = BrowsingModel::uniform([RequestTypeId::new(0), RequestTypeId::new(1)]);
        let retriers = ClosedLoopUsers::new(20, model.clone(), 9)
            .with_think_time(0.05)
            .with_retry(1.0);
        let mut sim = Simulation::new(topo(), resilient_cfg(500));
        let id = sim.add_agent(Box::new(retriers));
        sim.run_until(SimTime::from_secs(5));
        let u: &ClosedLoopUsers = sim.agent_as(id).expect("typed");
        assert_eq!(u.latency_stats().count(), 0, "no successful responses");
        assert!(u.user_retries() > 0, "p = 1 must retry every failure");
        assert_eq!(u.abandoned(), 0);

        let abandoners = ClosedLoopUsers::new(20, model, 9).with_think_time(0.05);
        let mut sim = Simulation::new(topo(), resilient_cfg(500));
        let id = sim.add_agent(Box::new(abandoners));
        sim.run_until(SimTime::from_secs(5));
        let u: &ClosedLoopUsers = sim.agent_as(id).expect("typed");
        assert_eq!(u.latency_stats().count(), 0);
        assert!(u.abandoned() > 0, "p = 0 must abandon every failure");
        assert_eq!(u.user_retries(), 0);
    }

    #[test]
    fn naive_twin_matches_under_failures() {
        // 2 ms deadline on the test topology: r1 (1 ms demand) completes,
        // r0 (1 + 3 ms chain) times out — a success/failure mix that
        // exercises the probabilistic retry draw in both twins.
        let model = BrowsingModel::uniform([RequestTypeId::new(0), RequestTypeId::new(1)]);
        let mut fast = Simulation::new(topo(), resilient_cfg(2_000));
        let fast_id = fast.add_agent(Box::new(
            ClosedLoopUsers::new(150, model.clone(), 13)
                .with_think_time(0.2)
                .with_retry(0.3),
        ));
        let mut naive = Simulation::new(topo(), resilient_cfg(2_000));
        let naive_id = naive.add_agent(Box::new(
            ClosedLoopUsersNaive::new(150, model, 13)
                .with_think_time(0.2)
                .with_retry(0.3),
        ));
        fast.run_until(SimTime::from_secs(10));
        naive.run_until(SimTime::from_secs(10));
        let f: &ClosedLoopUsers = fast.agent_as(fast_id).expect("typed");
        let n: &ClosedLoopUsersNaive = naive.agent_as(naive_id).expect("typed");
        assert!(f.user_retries() > 0, "mixed run must retry some failures");
        assert!(f.abandoned() > 0, "mixed run must abandon some failures");
        assert!(f.latency_stats().count() > 0, "r1 must keep succeeding");
        assert_eq!(f.user_retries(), n.user_retries());
        assert_eq!(f.abandoned(), n.abandoned());
        assert_eq!(f.latency_stats().count(), n.latency_stats().count());
        assert_eq!(
            f.latency_stats().mean().to_bits(),
            n.latency_stats().mean().to_bits()
        );
        let fs: Vec<_> = f.samples().iter().collect();
        let ns: Vec<_> = n.samples().iter().collect();
        assert_eq!(fs, ns);
    }

    #[test]
    fn memoryless_shares_one_row() {
        // The shared-row representation must not materialise n² weights.
        let n = 512;
        let entries: Vec<(RequestTypeId, f64)> = (0..n)
            .map(|i| (RequestTypeId::new(i), 1.0 + i as f64))
            .collect();
        let m = BrowsingModel::memoryless(entries);
        assert_eq!(m.num_states(), n as usize);
        // All states alias the same shared row.
        let p0 = m.transition_weights(0).as_ptr();
        let p1 = m.transition_weights((n - 1) as usize).as_ptr();
        assert_eq!(p0, p1, "memoryless rows must share storage");
    }

    #[test]
    #[should_panic(expected = "transition rows must be square")]
    fn ragged_matrix_rejected() {
        BrowsingModel::new(
            vec![RequestTypeId::new(0), RequestTypeId::new(1)],
            vec![vec![1.0, 0.0], vec![1.0]],
            vec![1.0, 0.0],
        );
    }

    #[test]
    #[should_panic(expected = "needs at least one user")]
    fn empty_population_rejected() {
        ClosedLoopUsers::new(0, BrowsingModel::uniform([RequestTypeId::new(0)]), 1);
    }

    #[test]
    #[should_panic(expected = "needs at least one user")]
    fn empty_naive_population_rejected() {
        ClosedLoopUsersNaive::new(0, BrowsingModel::uniform([RequestTypeId::new(0)]), 1);
    }
}
