//! Platform resilience state: deadline timer queues and circuit breakers.
//!
//! Both structures live in the [`Kernel`](crate::kernel::Kernel) and are
//! part of every snapshot, so their `Clone` impls are written manually
//! per-field and registered in simlint's `snapshot-complete` TARGETS:
//! adding a field without cloning it becomes a CI failure, not a silently
//! diverging fork.
//!
//! # Deadline queues
//!
//! Deadlines come from a *static* set of durations (the distinct
//! deadlines of the default and per-type policies), so expiry times are
//! monotone within each duration class: requests are armed in submission
//! order and all entries of a class share one duration. Each class is a
//! FIFO of `(expiry, job, attempt token)` entries and holds **at most one**
//! `DeadlineCheck` event on the kernel wheel — armed when the class is
//! non-empty, scheduled at the front entry's expiry. Pending wheel events
//! therefore stay O(deadline classes), never O(in-flight requests), which
//! is what keeps 100k-user shedding runs bounded (asserted in the
//! `lab resilience` experiment's guard test). Entries whose job completed
//! or retried before expiry are stale; staleness is detected by comparing
//! the stored per-attempt token against the live job's, so slot reuse can
//! never cancel the wrong request.
//!
//! # The `"kernel/retry"` RNG stream
//!
//! Retry backoff jitter draws come from a dedicated stream labelled
//! `"kernel/retry"`. Sequence layout: exactly **one uniform draw per
//! scheduled retry whose policy has `jitter > 0`**, in retry-scheduling
//! order. Jitter-free retries, failed requests that exhausted their
//! attempts, and everything on the disabled path consume nothing — so a
//! fully disabled config leaves the stream at its seed position and the
//! kernel's behaviour is bit-identical to the pre-resilience platform.

use std::collections::VecDeque;

use simnet::{SimDuration, SimTime};

/// One deadline-duration class: a FIFO of pending expiries.
#[derive(Debug, Clone)]
pub(crate) struct DeadlineClass {
    /// The deadline duration every entry of this class shares.
    pub duration: SimDuration,
    /// Pending `(expiry, job index, per-attempt token)` entries, expiry-
    /// monotone because arming happens in submission order.
    pub entries: VecDeque<(SimTime, usize, u64)>,
    /// Whether a `DeadlineCheck` event for this class is on the wheel.
    /// Invariant: `armed ⟺ !entries.is_empty()` between kernel events.
    pub armed: bool,
}

/// All deadline classes plus the request-type → class mapping.
///
/// Built once at kernel construction from the static deadline set; the
/// hot-path methods never allocate.
#[derive(Debug)]
pub struct DeadlineQueues {
    /// One class per distinct configured deadline duration.
    pub(crate) classes: Vec<DeadlineClass>,
    /// Class index per request type; `u32::MAX` when the type has no
    /// deadline.
    pub(crate) by_type: Vec<u32>,
}

/// Sentinel for "this request type has no deadline".
const NO_CLASS: u32 = u32::MAX;

impl Clone for DeadlineQueues {
    fn clone(&self) -> Self {
        DeadlineQueues {
            classes: self.classes.clone(),
            by_type: self.by_type.clone(),
        }
    }
}

impl DeadlineQueues {
    /// Builds the classes for `deadlines[rt]` (one slot per request type,
    /// `None` = no deadline), deduplicating durations into classes.
    pub(crate) fn new(deadlines: &[Option<SimDuration>]) -> Self {
        let mut classes: Vec<DeadlineClass> = Vec::new();
        let by_type = deadlines
            .iter()
            .map(|d| match d {
                None => NO_CLASS,
                Some(d) => match classes.iter().position(|c| c.duration == *d) {
                    Some(i) => i as u32,
                    None => {
                        classes.push(DeadlineClass {
                            duration: *d,
                            entries: VecDeque::new(),
                            armed: false,
                        });
                        (classes.len() - 1) as u32
                    }
                },
            })
            .collect();
        DeadlineQueues { classes, by_type }
    }

    /// Arms a deadline for `(job, token)` of `request_type` submitted at
    /// `now`. Returns `Some((expiry, class))` when the class was idle and
    /// the caller must schedule its `DeadlineCheck` event; `None` when the
    /// class already has one on the wheel or the type has no deadline.
    pub(crate) fn arm(
        &mut self,
        now: SimTime,
        request_type: u32,
        job: usize,
        token: u64,
    ) -> Option<(SimTime, u32)> {
        let class = *self.by_type.get(request_type as usize)?;
        if class == NO_CLASS {
            return None;
        }
        let c = &mut self.classes[class as usize];
        let expiry = now + c.duration;
        debug_assert!(
            c.entries.back().is_none_or(|(e, _, _)| *e <= expiry),
            "deadline entries must stay expiry-monotone"
        );
        c.entries.push_back((expiry, job, token));
        if c.armed {
            None
        } else {
            c.armed = true;
            Some((expiry, class))
        }
    }

    /// Pops the next entry of `class` due at or before `now`, if any.
    pub(crate) fn pop_due(&mut self, class: u32, now: SimTime) -> Option<(usize, u64)> {
        let c = &mut self.classes[class as usize];
        match c.entries.front() {
            Some((expiry, _, _)) if *expiry <= now => {
                let (_, job, token) = c.entries.pop_front().expect("front exists");
                Some((job, token))
            }
            _ => None,
        }
    }

    /// After draining due entries: returns the next expiry to schedule a
    /// fresh `DeadlineCheck` at (class stays armed), or disarms the class.
    pub(crate) fn re_arm(&mut self, class: u32) -> Option<SimTime> {
        let c = &mut self.classes[class as usize];
        match c.entries.front() {
            Some((expiry, _, _)) => Some(*expiry),
            None => {
                c.armed = false;
                None
            }
        }
    }

    /// Total pending deadline entries (memory-side, not wheel events).
    pub(crate) fn pending(&self) -> usize {
        self.classes.iter().map(|c| c.entries.len()).sum()
    }
}

/// One service's circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BreakerState {
    /// Consecutive failures observed since the last success.
    pub consecutive_failures: u32,
    /// When an open breaker next admits a half-open probe.
    pub open_until: SimTime,
    /// Whether the breaker is open (failing requests fast).
    pub open: bool,
    /// Whether a half-open probe is currently in flight.
    pub probing: bool,
}

impl BreakerState {
    const CLOSED: BreakerState = BreakerState {
        consecutive_failures: 0,
        open_until: SimTime::ZERO,
        open: false,
        probing: false,
    };
}

/// Per-service circuit breakers with shared policy knobs.
#[derive(Debug)]
pub struct BreakerBank {
    /// One breaker per service.
    pub(crate) states: Vec<BreakerState>,
    /// Consecutive failures that trip a breaker; `0` disables the bank.
    pub(crate) threshold: u32,
    /// Open duration before a half-open probe is admitted.
    pub(crate) probe_interval: SimDuration,
}

impl Clone for BreakerBank {
    fn clone(&self) -> Self {
        BreakerBank {
            states: self.states.clone(),
            threshold: self.threshold,
            probe_interval: self.probe_interval,
        }
    }
}

impl BreakerBank {
    /// A bank of closed breakers, one per service.
    pub(crate) fn new(num_services: usize, threshold: u32, probe_interval: SimDuration) -> Self {
        BreakerBank {
            states: vec![BreakerState::CLOSED; num_services],
            threshold,
            probe_interval,
        }
    }

    /// Whether breakers are active at all.
    pub(crate) fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// Admission check at `service`: `true` lets the request through
    /// (closed breaker, or the one half-open probe an open breaker admits
    /// after its probe interval); `false` fails it fast.
    pub(crate) fn admit(&mut self, service: usize, now: SimTime) -> bool {
        if !self.enabled() {
            return true;
        }
        let s = &mut self.states[service];
        if !s.open {
            return true;
        }
        if now >= s.open_until && !s.probing {
            s.probing = true;
            return true;
        }
        false
    }

    /// A request succeeded at `service`: the breaker closes fully.
    pub(crate) fn on_success(&mut self, service: usize) {
        if !self.enabled() {
            return;
        }
        self.states[service] = BreakerState::CLOSED;
    }

    /// A request failed at `service` (timeout attributed to it, or shed at
    /// its queue). Returns `true` when this failure opened (or re-opened)
    /// the breaker.
    pub(crate) fn on_failure(&mut self, service: usize, now: SimTime) -> bool {
        if !self.enabled() {
            return false;
        }
        let s = &mut self.states[service];
        if s.open {
            // Only the half-open probe's failure re-opens; other failures
            // (straggling timeouts) leave the open state untouched.
            if s.probing {
                s.probing = false;
                s.open_until = now + self.probe_interval;
                return true;
            }
            return false;
        }
        s.consecutive_failures += 1;
        if s.consecutive_failures >= self.threshold {
            s.open = true;
            s.probing = false;
            s.open_until = now + self.probe_interval;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_deduplicate_durations() {
        let d = |ms| Some(SimDuration::from_millis(ms));
        let q = DeadlineQueues::new(&[d(500), None, d(200), d(500)]);
        assert_eq!(q.classes.len(), 2);
        assert_eq!(q.by_type, vec![0, NO_CLASS, 1, 0]);
        assert!(DeadlineQueues::new(&[None, None]).classes.is_empty());
    }

    #[test]
    fn arm_schedules_once_per_class() {
        let q = &mut DeadlineQueues::new(&[Some(SimDuration::from_millis(100))]);
        let t0 = SimTime::from_millis(10);
        let first = q.arm(t0, 0, 7, 70);
        assert_eq!(first, Some((SimTime::from_millis(110), 0)));
        // Second arm while the class is armed: no new wheel event.
        assert_eq!(q.arm(SimTime::from_millis(20), 0, 8, 80), None);
        assert_eq!(q.pending(), 2);
        // Nothing due before the front expiry.
        assert_eq!(q.pop_due(0, SimTime::from_millis(109)), None);
        assert_eq!(q.pop_due(0, SimTime::from_millis(110)), Some((7, 70)));
        // Re-arm returns the next front expiry...
        assert_eq!(q.re_arm(0), Some(SimTime::from_millis(120)));
        assert_eq!(q.pop_due(0, SimTime::from_millis(120)), Some((8, 80)));
        // ...and disarms once the class drains.
        assert_eq!(q.re_arm(0), None);
        assert!(!q.classes[0].armed);
        assert!(q.arm(SimTime::from_millis(200), 0, 9, 90).is_some());
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let bank = &mut BreakerBank::new(2, 3, SimDuration::from_secs(1));
        let t = SimTime::from_secs(10);
        assert!(bank.admit(0, t));
        assert!(!bank.on_failure(0, t));
        assert!(!bank.on_failure(0, t));
        // Third consecutive failure trips it.
        assert!(bank.on_failure(0, t));
        assert!(!bank.admit(0, t), "open breaker fails fast");
        // Sibling service is independent.
        assert!(bank.admit(1, t));
        // After the probe interval exactly one probe is admitted.
        let later = t + SimDuration::from_secs(1);
        assert!(bank.admit(0, later));
        assert!(!bank.admit(0, later), "only one half-open probe");
        // Probe failure re-opens; probe success closes.
        assert!(bank.on_failure(0, later));
        assert!(!bank.admit(0, later));
        let again = later + SimDuration::from_secs(1);
        assert!(bank.admit(0, again));
        bank.on_success(0);
        assert!(bank.admit(0, again));
        assert_eq!(bank.states[0], BreakerState::CLOSED);
    }

    #[test]
    fn disabled_bank_admits_everything() {
        let bank = &mut BreakerBank::new(1, 0, SimDuration::ZERO);
        assert!(!bank.enabled());
        for _ in 0..10 {
            assert!(!bank.on_failure(0, SimTime::ZERO));
        }
        assert!(bank.admit(0, SimTime::ZERO));
    }
}
