//! The simulation kernel: platform state and event handlers.
//!
//! The kernel executes jobs against the replicated services, enforcing the
//! two blocking mechanisms described in the crate docs (thread-slot holding
//! across synchronous RPC, FIFO CPU queues per replica), samples metrics on
//! a fixed window, and runs the auto-scaler on 1 s boundaries.
//!
//! A request on an idle path of length L costs 4L − 1 events: L
//! `Deliver`, L − 1 `Reply`, 2L − 1 `ComputeDone` (one segment per leaf,
//! two per intermediate step) and one `Complete`. The per-event path is
//! kept small accordingly: an `Event` is 16 bytes, every handler reads
//! its step's service, leaf flag and demand from one flat `Plan` entry,
//! and a jittered compute segment costs a single `exp` over precomputed
//! lognormal parameters. [`Counters`] count the events
//! popped per kind and the pending-event high-water mark.

use std::sync::Arc;

use callgraph::{RequestTypeId, ServiceId, Topology};
use simnet::{EventQueue, RngStream, SimDuration, SimTime};

use crate::agent::AgentId;
use crate::autoscale::{decide, ScaleDecision, ScalingAction, ScalingDirection};
use crate::config::SimConfig;
use crate::counters::Counters;
use crate::job::{Frame, Job, Origin, Outcome, Phase, Response};
use crate::metrics::{AccessLogEntry, Metrics, NetworkWindow, RequestRecord, ServiceWindow};
use crate::plan::{Plan, Step};
use crate::replica::Segment;
use crate::resilience::{BreakerBank, DeadlineQueues};
use crate::service::Service;

/// Events interpreted by the kernel's dispatch loop.
///
/// Every variant fits in 16 bytes (asserted below), so a wheel entry with
/// its `(time, seq)` key is 32. Job, step and service indices are `u32`;
/// a `ComputeDone` carries no service or replica, because the service is
/// the path step's and the replica is the one recorded in the job's frame
/// for that step (a cancelled tombstone keeps its frames too).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A request/RPC arrives at step `step` of `job`'s path.
    Deliver { job: u32, step: u32 },
    /// The downstream reply for step `step` of `job` arrives back.
    Reply { job: u32, step: u32 },
    /// A compute segment of step `step` of `job` finished on a core.
    ComputeDone { job: u32, step: u32, phase: Phase },
    /// The response reaches the submitting client.
    Complete { job: u32 },
    /// An agent timer fires.
    Wake { agent: AgentId, token: u64 },
    /// Metrics sampling boundary.
    Sample,
    /// A provisioned replica comes online.
    ScaleUpReady { service: u32 },
    /// The front entry of deadline class `class` may have expired. Each
    /// class keeps at most one of these on the wheel (see
    /// [`DeadlineQueues`]), so pending events stay O(classes) even with
    /// 100k in-flight deadlines.
    DeadlineCheck { class: u32 },
    /// A platform-level retry's backoff elapsed: re-deliver the attempt.
    Retry { job: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

// An in-flight job is one slot of the kernel's job arena, its activation
// frames stored inline; a field added here grows every slot.
const _: () = assert!(std::mem::size_of::<Job>() == 224);

/// Why [`Kernel::pump`] returned control to the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PumpResult {
    /// An agent timer fired: dispatch `on_wake`.
    Wake(AgentId, u64),
    /// Responses are waiting in the outbox: dispatch `on_response`.
    Responses,
    /// Reached the time horizon.
    Idle,
}

/// Standard-normal draws buffered per refill for service-demand sampling.
///
/// Small enough to live in one cache line pair; large enough that the
/// per-refill overhead is amortised over many job stages.
const DEMAND_Z_BATCH: usize = 32;

/// The platform state. Owned by [`Simulation`](crate::Simulation); agents
/// reach it through [`SimCtx`](crate::SimCtx).
///
/// The derived `Clone` deep-copies all mutable state (event queue, replicas,
/// in-flight jobs, metric windows, RNG streams) while the immutable parts —
/// topology, demand plan, config — are shared via `Arc`. A clone is
/// therefore an exact fork: running the original and the clone with the same
/// inputs produces bit-identical histories.
#[derive(Clone)]
pub struct Kernel {
    topology: Arc<Topology>,
    /// Every request type's path, flattened with precomputed demands.
    plan: Plan,
    cfg: Arc<SimConfig>,
    now: SimTime,
    queue: EventQueue<Event>,
    services: Vec<Service>,
    jobs: Vec<Option<Job>>,
    free_jobs: Vec<usize>,
    metrics: Metrics,
    demand_rng: RngStream,
    /// Buffered standard-normal draws for demand sampling, consumed in draw
    /// order; see [`Kernel::next_demand_z`].
    demand_z: [f64; DEMAND_Z_BATCH],
    demand_z_next: usize,
    next_token: u64,
    /// Responses produced during event handling, drained by the run loop
    /// and dispatched to agents.
    pub(crate) outbox: Vec<(AgentId, Response)>,
    /// Reused per-sample window buffer.
    win_scratch: Vec<ServiceWindow>,
    // Per-window counters (reset at each sample).
    win_arrivals: Vec<u32>,
    win_completions: Vec<u32>,
    win_net: NetworkWindow,
    // Per-second utilisation accumulation for the auto-scaler.
    sec_busy: Vec<SimDuration>,
    sec_started: SimTime,
    windows_per_sec: u64,
    windows_seen: u64,
    /// Backoff-jitter draws for platform retries; see the sequence-layout
    /// contract in [`crate::resilience`].
    retry_rng: RngStream,
    /// Pending per-attempt deadlines, bucketed by duration class.
    deadlines: DeadlineQueues,
    /// Per-service circuit breakers (disabled when `failure_threshold` is
    /// zero).
    breakers: BreakerBank,
    /// Fast gate: `false` when every resilience policy is disabled, in
    /// which case the kernel takes exactly the pre-resilience code paths —
    /// no extra events, draws, or records.
    resilience_active: bool,
    /// Events popped per kind and the pending-event high-water mark.
    counters: Counters,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("services", &self.services.len())
            .field("in_flight_jobs", &(self.jobs.len() - self.free_jobs.len()))
            .finish_non_exhaustive()
    }
}

impl Kernel {
    pub(crate) fn new(topology: Topology, cfg: SimConfig) -> Self {
        let now = SimTime::ZERO;
        let services: Vec<Service> = topology
            .services()
            .iter()
            .cloned()
            .map(|spec| Service::new(spec, now))
            .collect();
        let n = services.len();
        let plan = Plan::new(&topology, cfg.platform.demand_scale);
        let mut queue = EventQueue::with_capacity(1024);
        queue.push(now + cfg.window, Event::Sample);
        let windows_per_sec = (1_000_000 / cfg.window.as_micros()).max(1);
        let type_deadlines: Vec<Option<SimDuration>> = (0..plan.num_types())
            .map(|rt| cfg.resilience.policy_for(rt as u32).deadline)
            .collect();
        Kernel {
            retry_rng: RngStream::from_label(cfg.seed, "kernel/retry"),
            deadlines: DeadlineQueues::new(&type_deadlines),
            breakers: BreakerBank::new(
                n,
                cfg.resilience.default.breaker.failure_threshold,
                cfg.resilience.default.breaker.probe_interval,
            ),
            resilience_active: !cfg.resilience.is_disabled(),
            metrics: Metrics::new(cfg.window, n),
            demand_rng: RngStream::from_label(cfg.seed, "kernel/demand"),
            demand_z: [0.0; DEMAND_Z_BATCH],
            demand_z_next: DEMAND_Z_BATCH,
            topology: Arc::new(topology),
            plan,
            cfg: Arc::new(cfg),
            now,
            queue,
            services,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            next_token: 0,
            outbox: Vec::new(),
            win_scratch: Vec::with_capacity(n),
            win_arrivals: vec![0; n],
            win_completions: vec![0; n],
            win_net: NetworkWindow::default(),
            sec_busy: vec![SimDuration::ZERO; n],
            sec_started: now,
            windows_per_sec,
            windows_seen: 0,
            counters: Counters::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application topology (admin view).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Deterministic counters of the kernel's work so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Active replica count of a service (admin view; Fig 15b).
    pub fn active_replicas(&self, service: ServiceId) -> usize {
        self.services[service.index()].active_replicas()
    }

    /// Public request-type catalogue (what crawling the public URLs
    /// yields).
    pub fn request_type_catalog(&self) -> Vec<(RequestTypeId, String)> {
        self.topology
            .request_types()
            .iter()
            .map(|rt| (rt.id, rt.name.clone()))
            .collect()
    }

    // ---- client API (via SimCtx) ----

    pub(crate) fn submit(
        &mut self,
        agent: AgentId,
        request_type: RequestTypeId,
        origin: Origin,
        tag: u64,
    ) -> u64 {
        assert!(
            request_type.index() < self.plan.num_types(),
            "unknown request type {request_type}"
        );
        let token = self.next_token;
        self.next_token += 1;

        let spec = self.topology.request_type(request_type);
        let bytes = spec.request_bytes + self.cfg.platform.per_message_overhead;
        self.win_net.bytes_in += bytes;
        if self.cfg.access_log {
            self.metrics.record_access(AccessLogEntry {
                at: self.now,
                origin,
                request_type,
                bytes,
            });
        }

        let job = Job {
            agent,
            token,
            tag,
            request_type,
            origin,
            submitted_at: self.now,
            orig_token: token,
            attempt: 1,
            cancelled: false,
            frames: crate::inline_vec::InlineVec::new(),
        };
        let id = match self.free_jobs.pop() {
            Some(i) => {
                self.jobs[i] = Some(job);
                i
            }
            None => {
                self.jobs.push(Some(job));
                self.jobs.len() - 1
            }
        };
        self.queue.push(
            self.now + self.cfg.platform.net_latency,
            Event::Deliver {
                job: id as u32,
                step: 0,
            },
        );
        if self.resilience_active {
            if let Some((expiry, class)) =
                self.deadlines
                    .arm(self.now, request_type.index() as u32, id, token)
            {
                self.queue.push(expiry, Event::DeadlineCheck { class });
            }
        }
        token
    }

    pub(crate) fn schedule_wake(&mut self, agent: AgentId, delay: SimDuration, token: u64) {
        self.queue
            .push(self.now + delay, Event::Wake { agent, token });
    }

    // ---- event loop ----

    /// Pops and handles events up to and including `until`, yielding back
    /// to the run loop whenever an agent must be re-entered: on an agent
    /// timer, or as soon as completed responses are waiting in the outbox
    /// (so agents observe their responses at the timestamp they completed,
    /// before any later event is processed).
    pub(crate) fn pump(&mut self, until: SimTime) -> PumpResult {
        while let Some(t) = self.queue.peek_time() {
            // Every push is followed by a pass through here (handlers
            // push inside this loop; agent callbacks before the next
            // pump), so checking before each pop sees the true peak.
            let pending = self.queue.len() as u64;
            if pending > self.counters.pending_max {
                self.counters.pending_max = pending;
            }
            if t > until {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            let c = &mut self.counters;
            match ev {
                Event::Wake { agent, token } => {
                    c.wake += 1;
                    return PumpResult::Wake(agent, token);
                }
                Event::Deliver { job, step } => {
                    c.deliver += 1;
                    self.handle_deliver(job as usize, step as usize);
                }
                Event::Reply { job, step } => {
                    c.reply += 1;
                    self.handle_reply(job as usize, step as usize);
                }
                Event::ComputeDone { job, step, phase } => {
                    c.compute_done += 1;
                    self.handle_compute_done(job as usize, step as usize, phase);
                }
                Event::Complete { job } => {
                    c.complete += 1;
                    self.handle_complete(job as usize);
                }
                Event::Sample => {
                    c.sample += 1;
                    self.handle_sample();
                }
                Event::ScaleUpReady { service } => {
                    c.scale_up_ready += 1;
                    self.handle_scale_up(service as usize);
                }
                Event::DeadlineCheck { class } => {
                    c.deadline_check += 1;
                    self.handle_deadline_check(class);
                }
                Event::Retry { job } => {
                    c.retry += 1;
                    self.handle_retry(job as usize);
                }
            }
            if !self.outbox.is_empty() {
                return PumpResult::Responses;
            }
        }
        self.now = until.max(self.now);
        PumpResult::Idle
    }

    /// The plan step `step` of `job`'s path.
    #[inline]
    fn step_of(&self, job: usize, step: usize) -> &Step {
        let rt = self.jobs[job].as_ref().expect("live job").request_type;
        self.plan.step(rt, step)
    }

    fn handle_deliver(&mut self, job: usize, step: usize) {
        if self.resilience_active && self.reap_if_cancelled(job) {
            return;
        }
        let demand = *self.step_of(job, step);
        let sidx = demand.sidx();
        if self.resilience_active && !self.breakers.admit(sidx, self.now) {
            // Open breaker: fail fast before the request touches the
            // service (no arrival is counted, no frame pushed). Breaker
            // rejections do not themselves feed the failure counter.
            self.fail_attempt(job, Outcome::Rejected, sidx, false, true);
            return;
        }
        self.win_arrivals[sidx] += 1;
        let ridx = self.services[sidx].pick_replica();
        {
            let j = self.jobs[job].as_mut().expect("live job");
            debug_assert_eq!(j.frames.len(), step, "frames grow with descent");
            j.frames.push(Frame {
                replica: ridx as u32,
                admitted: false,
            });
        }
        let queue_bound = self.cfg.resilience.default.queue_bound;
        let replica = &mut self.services[sidx].replicas[ridx];
        if replica.try_admit() {
            self.jobs[job].as_mut().expect("live job").frames[step].admitted = true;
            self.start_segment(demand, ridx, job, step, Phase::Pre);
        } else if self.resilience_active
            && queue_bound.is_some_and(|b| replica.wait_queue.len() >= b as usize)
        {
            // Full bounded queue: shed on arrival. The frame just pushed
            // was never admitted; drop it before failing the attempt.
            self.jobs[job].as_mut().expect("live job").frames.pop();
            self.fail_attempt(job, Outcome::Shed, sidx, true, true);
        } else {
            self.services[sidx].replicas[ridx]
                .wait_queue
                .push_back((job, step));
        }
    }

    /// Samples the jittered duration of a compute segment of `job` at path
    /// step `step` (whose plan entry is `demand`) and offers it to replica
    /// `ridx` of the step's service.
    fn start_segment(&mut self, demand: Step, ridx: usize, job: usize, step: usize, phase: Phase) {
        let sidx = demand.sidx();
        // Same draw discipline as `RngStream::lognormal_mean_cv`: a normal
        // draw is consumed only when the distribution is non-degenerate, so
        // the batched buffer reproduces per-call sampling bit-for-bit.
        let z = if demand.draws() {
            self.next_demand_z()
        } else {
            0.0
        };
        let duration = SimDuration::from_secs_f64(demand.secs(z));
        let seg = Segment {
            job,
            step,
            phase,
            duration,
        };
        let now = self.now;
        if self.services[sidx].replicas[ridx].offer_segment(seg, now) {
            self.queue.push(
                now + duration,
                Event::ComputeDone {
                    job: job as u32,
                    step: step as u32,
                    phase,
                },
            );
        }
    }

    /// Next buffered standard-normal draw for demand jitter, refilling the
    /// batch from `demand_rng` when exhausted.
    ///
    /// Nothing else draws from `demand_rng`, so prefetching a batch yields
    /// exactly the sequence per-call sampling would have seen.
    #[inline]
    fn next_demand_z(&mut self) -> f64 {
        if self.demand_z_next == DEMAND_Z_BATCH {
            self.demand_rng.fill_standard_normal(&mut self.demand_z);
            self.demand_z_next = 0;
        }
        let z = self.demand_z[self.demand_z_next];
        self.demand_z_next += 1;
        z
    }

    fn handle_compute_done(&mut self, job: usize, step: usize, phase: Phase) {
        // The segment ran on the replica recorded in the step's frame, at
        // the step's service. A cancelled job is still a tombstone here
        // (this event is its last reference), frames intact.
        let j = self.jobs[job].as_ref().expect("live job");
        let ridx = j.frames[step].replica as usize;
        let demand = *self.plan.step(j.request_type, step);
        let sidx = demand.sidx();
        // Hand the core to the next queued segment, if any. A queued
        // segment of a cancelled job is skipped: popping it consumes that
        // job's last reference, so the tombstone is reaped and the core
        // takes the next segment (repeated `finish_segment` calls at the
        // same instant are safe: busy-time accounting is idempotent).
        let now = self.now;
        loop {
            match self.services[sidx].replicas[ridx].finish_segment(now) {
                Some(next)
                    if self.resilience_active
                        && self.jobs[next.job].as_ref().is_some_and(|j| j.cancelled) =>
                {
                    self.reap(next.job);
                }
                Some(next) => {
                    self.queue.push(
                        now + next.duration,
                        Event::ComputeDone {
                            job: next.job as u32,
                            step: next.step as u32,
                            phase: next.phase,
                        },
                    );
                    break;
                }
                None => break,
            }
        }
        // A cancelled job's running segment finishes its core time (work
        // is not preempted) but the job advances no further.
        if self.resilience_active && self.reap_if_cancelled(job) {
            return;
        }
        // Advance the finished job.
        match phase {
            Phase::Pre if !demand.leaf => {
                // Descend: the thread slot at this step stays held.
                self.queue.push(
                    now + self.cfg.platform.net_latency,
                    Event::Deliver {
                        job: job as u32,
                        step: step as u32 + 1,
                    },
                );
            }
            _ => self.finish_step(sidx, ridx, job, step),
        }
    }

    /// The job is done at `step`: release the slot, wake a waiter, and
    /// propagate the reply upstream (or complete the request).
    fn finish_step(&mut self, sidx: usize, ridx: usize, job: usize, step: usize) {
        self.win_completions[sidx] += 1;
        if self.resilience_active {
            // A completed step at this service is the breaker's success
            // signal (it also ends a half-open probe, closing the breaker).
            self.breakers.on_success(sidx);
        }
        {
            let j = self.jobs[job].as_mut().expect("live job");
            debug_assert_eq!(j.frames.len(), step + 1, "finishing the deepest frame");
            j.frames.pop();
        }
        self.release_slot_and_admit_waiter(sidx, ridx);
        let net = self.cfg.platform.net_latency;
        let job = job as u32;
        if step == 0 {
            self.queue.push(self.now + net, Event::Complete { job });
        } else {
            self.queue.push(
                self.now + net,
                Event::Reply {
                    job,
                    step: step as u32 - 1,
                },
            );
        }
    }

    fn handle_reply(&mut self, job: usize, step: usize) {
        if self.resilience_active && self.reap_if_cancelled(job) {
            return;
        }
        let frame = self.jobs[job].as_ref().expect("live job").frames[step];
        let demand = *self.step_of(job, step);
        self.start_segment(demand, frame.replica as usize, job, step, Phase::Post);
    }

    fn handle_complete(&mut self, job: usize) {
        if self.resilience_active && self.reap_if_cancelled(job) {
            return;
        }
        let j = self.jobs[job].take().expect("live job");
        self.free_jobs.push(job);
        let spec = self.topology.request_type(j.request_type);
        self.win_net.bytes_out += spec.response_bytes + self.cfg.platform.per_message_overhead;
        self.metrics.record_request(RequestRecord {
            request_type: j.request_type,
            origin: j.origin,
            submitted_at: j.submitted_at,
            completed_at: self.now,
            outcome: Outcome::Ok,
        });
        self.outbox.push((
            j.agent,
            Response {
                token: j.orig_token,
                tag: j.tag,
                request_type: j.request_type,
                submitted_at: j.submitted_at,
                completed_at: self.now,
                outcome: Outcome::Ok,
            },
        ));
    }

    // ---- resilience: deadlines, retries, breakers, shedding ----

    /// Frees a job slot whose last outstanding reference was just
    /// consumed.
    fn reap(&mut self, job: usize) {
        self.jobs[job].take().expect("reaping a live slot");
        self.free_jobs.push(job);
    }

    /// Reaps `job` if it is a cancelled tombstone. Returns `true` when the
    /// caller's reference was the tombstone's last and has been consumed.
    fn reap_if_cancelled(&mut self, job: usize) -> bool {
        if self.jobs[job].as_ref().is_some_and(|j| j.cancelled) {
            self.reap(job);
            true
        } else {
            false
        }
    }

    /// Releases one admitted thread slot on `(sidx, ridx)` and admits the
    /// next live waiter, if any. Cancelled waiters' queue entries are
    /// their last reference: they are reaped and the next entry is tried.
    /// With resilience disabled no job is ever cancelled and this is
    /// exactly the pre-resilience release path.
    fn release_slot_and_admit_waiter(&mut self, sidx: usize, ridx: usize) {
        self.services[sidx].replicas[ridx].release();
        while let Some((wjob, wstep)) = self.services[sidx].replicas[ridx].wait_queue.pop_front() {
            if self.jobs[wjob].as_ref().is_some_and(|j| j.cancelled) {
                self.reap(wjob);
                continue;
            }
            if self.services[sidx].replicas[ridx].try_admit() {
                self.jobs[wjob].as_mut().expect("live waiter").frames[wstep].admitted = true;
                let demand = *self.step_of(wjob, wstep);
                self.start_segment(demand, ridx, wjob, wstep, Phase::Pre);
            } else {
                // Draining replica: reroute the waiter to another replica.
                self.jobs[wjob].as_mut().expect("live waiter").frames.pop();
                self.win_arrivals[sidx] = self.win_arrivals[sidx].saturating_sub(1);
                self.queue.push(
                    self.now,
                    Event::Deliver {
                        job: wjob as u32,
                        step: wstep as u32,
                    },
                );
            }
            break;
        }
    }

    /// Fails the current attempt of `job` with `outcome`: tombstones it,
    /// releases every thread slot it holds (admitting waiters), records
    /// the failed attempt in the request log, feeds the failing service's
    /// breaker, and either schedules a platform retry or delivers the
    /// failure [`Response`].
    ///
    /// `reap_now` is set when the caller just consumed the job's only
    /// outstanding progress reference (its `Deliver` event): the slot is
    /// freed here and may be reused immediately by the retry. Otherwise
    /// (deadline expiry) the job stays a cancelled tombstone until its
    /// outstanding reference — an in-flight event or queue entry — is next
    /// touched.
    fn fail_attempt(
        &mut self,
        job: usize,
        outcome: Outcome,
        fail_sidx: usize,
        count_failure: bool,
        reap_now: bool,
    ) {
        let now = self.now;
        let j = self.jobs[job].as_mut().expect("live job");
        j.cancelled = true;
        let agent = j.agent;
        let orig_token = j.orig_token;
        let tag = j.tag;
        let rt = j.request_type;
        let origin = j.origin;
        let submitted_at = j.submitted_at;
        let attempt = j.attempt;
        let held = j.frames.len();
        // Release admitted slots deepest-first, admitting waiters as slots
        // free up. Frames are re-read through `self.jobs` each iteration
        // because waiter admission can (on a path that revisits a service)
        // pop this very tombstone's own wait entry and reap it.
        for step in (0..held).rev() {
            let Some(j) = self.jobs[job].as_ref() else {
                break;
            };
            let frame = j.frames[step];
            if !frame.admitted {
                continue;
            }
            let sidx = self.plan.step(rt, step).sidx();
            self.release_slot_and_admit_waiter(sidx, frame.replica as usize);
        }
        match outcome {
            Outcome::TimedOut => self.metrics.resilience.timed_out += 1,
            Outcome::Rejected => self.metrics.resilience.rejected += 1,
            Outcome::Shed => self.metrics.resilience.shed += 1,
            Outcome::Ok => unreachable!("Ok is not a failure"),
        }
        if count_failure && self.breakers.on_failure(fail_sidx, now) {
            self.metrics.resilience.breaker_opens += 1;
        }
        // Failed attempts enter the request log at failure time (the log
        // is ordered by completion, which here is the failure instant).
        self.metrics.record_request(RequestRecord {
            request_type: rt,
            origin,
            submitted_at,
            completed_at: now,
            outcome,
        });
        if reap_now && self.jobs[job].is_some() {
            self.reap(job);
        }
        let policy = self.cfg.resilience.policy_for(rt.index() as u32);
        if attempt < policy.retry.max_attempts {
            self.metrics.resilience.retries += 1;
            let token = self.next_token;
            self.next_token += 1;
            // The retry takes a fresh slot and per-attempt token (deadline
            // staleness keys on it) but keeps the original token and
            // submission time the client knows.
            let retry = Job {
                agent,
                token,
                tag,
                request_type: rt,
                origin,
                submitted_at,
                orig_token,
                attempt: attempt + 1,
                cancelled: false,
                frames: crate::inline_vec::InlineVec::new(),
            };
            let id = match self.free_jobs.pop() {
                Some(i) => {
                    self.jobs[i] = Some(retry);
                    i
                }
                None => {
                    self.jobs.push(Some(retry));
                    self.jobs.len() - 1
                }
            };
            // Exponential backoff with optional multiplicative jitter; the
            // jitter draw is the sole consumer of the `kernel/retry`
            // stream and is skipped entirely when `jitter == 0`.
            let shift = (attempt - 1).min(20);
            let mut backoff = policy.retry.backoff_base.as_secs_f64() * (1u64 << shift) as f64;
            if policy.retry.jitter > 0.0 {
                backoff *= 1.0 + policy.retry.jitter * self.retry_rng.unit();
            }
            self.queue.push(
                now + SimDuration::from_secs_f64(backoff),
                Event::Retry { job: id as u32 },
            );
        } else {
            self.outbox.push((
                agent,
                Response {
                    token: orig_token,
                    tag,
                    request_type: rt,
                    submitted_at,
                    completed_at: now,
                    outcome,
                },
            ));
        }
    }

    /// Drains the due entries of deadline `class`, timing out the live
    /// ones, then re-schedules the class's single wheel event at the next
    /// pending expiry (or disarms the class).
    fn handle_deadline_check(&mut self, class: u32) {
        let now = self.now;
        while let Some((job, token)) = self.deadlines.pop_due(class, now) {
            // Stale entries — the attempt completed, already failed, or
            // the slot was reused — fail the token comparison and are
            // dropped without effect.
            let live = self.jobs[job]
                .as_ref()
                .is_some_and(|j| j.token == token && !j.cancelled);
            if !live {
                continue;
            }
            let j = self.jobs[job].as_ref().expect("checked live");
            // Attribute the timeout to the deepest service reached (the
            // one the request was stuck at); a request timing out before
            // first delivery charges its entry service.
            let fail_step = j.frames.len().saturating_sub(1);
            let fail_sidx = self.plan.step(j.request_type, fail_step).sidx();
            self.fail_attempt(job, Outcome::TimedOut, fail_sidx, true, false);
        }
        if let Some(next) = self.deadlines.re_arm(class) {
            self.queue.push(next, Event::DeadlineCheck { class });
        }
    }

    /// A scheduled retry's backoff elapsed: the attempt re-enters the
    /// platform like a fresh submission — network-ingress accounting and
    /// an access-log entry (retry storms stay IDS-visible) — and arms its
    /// own per-attempt deadline.
    fn handle_retry(&mut self, job: usize) {
        let j = self.jobs[job].as_ref().expect("live retry");
        let rt = j.request_type;
        let origin = j.origin;
        let token = j.token;
        let spec = self.topology.request_type(rt);
        let bytes = spec.request_bytes + self.cfg.platform.per_message_overhead;
        self.win_net.bytes_in += bytes;
        if self.cfg.access_log {
            self.metrics.record_access(AccessLogEntry {
                at: self.now,
                origin,
                request_type: rt,
                bytes,
            });
        }
        self.queue.push(
            self.now + self.cfg.platform.net_latency,
            Event::Deliver {
                job: job as u32,
                step: 0,
            },
        );
        if let Some((expiry, class)) = self.deadlines.arm(self.now, rt.index() as u32, job, token) {
            self.queue.push(expiry, Event::DeadlineCheck { class });
        }
    }

    fn handle_sample(&mut self) {
        let now = self.now;
        let mut windows = std::mem::take(&mut self.win_scratch);
        windows.clear();
        for (i, svc) in self.services.iter_mut().enumerate() {
            let mut busy = SimDuration::ZERO;
            for r in &mut svc.replicas {
                busy += r.take_busy(now);
            }
            self.sec_busy[i] += busy;
            windows.push(ServiceWindow {
                start: now - self.cfg.window,
                busy,
                active_cores: svc.active_cores(),
                admitted: svc.total_admitted(),
                waiting: svc.total_waiting() as u32,
                arrivals: self.win_arrivals[i],
                completions: self.win_completions[i],
                replicas: svc.active_replicas() as u32,
            });
            self.win_arrivals[i] = 0;
            self.win_completions[i] = 0;
        }
        let net = std::mem::take(&mut self.win_net);
        self.metrics.push_window(&windows, net);
        self.win_scratch = windows;
        self.windows_seen += 1;

        // Auto-scaler runs on 1 s boundaries over the accumulated busy time.
        if self.windows_seen.is_multiple_of(self.windows_per_sec) {
            if let Some(policy) = self.cfg.autoscale {
                let elapsed = now.saturating_since(self.sec_started).as_secs_f64();
                for i in 0..self.services.len() {
                    let svc = &mut self.services[i];
                    let cores = f64::from(svc.active_cores().max(1));
                    let util = if elapsed > 0.0 {
                        (self.sec_busy[i].as_secs_f64() / (elapsed * cores)).min(1.0)
                    } else {
                        0.0
                    };
                    let mut hot = svc.hot_seconds;
                    let mut cold = svc.cold_seconds;
                    let decision = decide(&policy, util, &mut hot, &mut cold);
                    svc.hot_seconds = hot;
                    svc.cold_seconds = cold;
                    match decision {
                        ScaleDecision::Up => {
                            if !svc.scaling_in_flight
                                && (svc.active_replicas() as u32) < policy.max_replicas
                            {
                                svc.scaling_in_flight = true;
                                self.queue.push(
                                    now + policy.provision_delay,
                                    Event::ScaleUpReady { service: i as u32 },
                                );
                            }
                        }
                        ScaleDecision::Down => {
                            if svc.drain_one() {
                                let _rerouted = self.reroute_drained_waiters(i);
                                let after = self.services[i].active_replicas() as u32;
                                self.metrics.record_scaling(ScalingAction {
                                    at: now,
                                    service: ServiceId::new(i as u32),
                                    direction: ScalingDirection::Down,
                                    replicas_after: after,
                                });
                            }
                        }
                        ScaleDecision::Hold => {}
                    }
                    self.sec_busy[i] = SimDuration::ZERO;
                }
            } else {
                for b in &mut self.sec_busy {
                    *b = SimDuration::ZERO;
                }
            }
            self.sec_started = now;
        }

        self.queue.push(now + self.cfg.window, Event::Sample);
    }

    /// Moves waiters off draining replicas of service `i` back through the
    /// load balancer. Returns how many were rerouted.
    fn reroute_drained_waiters(&mut self, sidx: usize) -> usize {
        let mut moved = 0;
        let mut rerouted: Vec<(usize, usize)> = Vec::new();
        for r in &mut self.services[sidx].replicas {
            if r.draining {
                while let Some(w) = r.wait_queue.pop_front() {
                    rerouted.push(w);
                }
            }
        }
        for (job, step) in rerouted {
            if self.jobs[job].as_ref().is_some_and(|j| j.cancelled) {
                // The drained queue entry was the tombstone's last
                // reference.
                self.reap(job);
                continue;
            }
            self.jobs[job].as_mut().expect("live waiter").frames.pop();
            self.win_arrivals[sidx] = self.win_arrivals[sidx].saturating_sub(1);
            self.queue.push(
                self.now,
                Event::Deliver {
                    job: job as u32,
                    step: step as u32,
                },
            );
            moved += 1;
        }
        moved
    }

    fn handle_scale_up(&mut self, sidx: usize) {
        let svc = &mut self.services[sidx];
        svc.add_replica(self.now);
        svc.scaling_in_flight = false;
        let after = svc.active_replicas() as u32;
        self.metrics.record_scaling(ScalingAction {
            at: self.now,
            service: ServiceId::new(sidx as u32),
            direction: ScalingDirection::Up,
            replicas_after: after,
        });
    }

    /// Consumes the kernel, returning the recorded metrics.
    pub(crate) fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Number of events pending in the calendar (snapshot-equivalence
    /// checks).
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Pending deadline entries across all classes (off-wheel bookkeeping).
    pub(crate) fn pending_deadlines(&self) -> usize {
        self.deadlines.pending()
    }

    /// The demand stream's fingerprint without advancing it, plus the
    /// retired trace word; see [`crate::Simulation::rng_fingerprint`].
    pub(crate) fn rng_fingerprint(&self) -> (u64, u64) {
        let trace = RngStream::from_label(self.cfg.seed, "kernel/trace");
        (self.demand_rng.fingerprint(), trace.fingerprint())
    }
}
