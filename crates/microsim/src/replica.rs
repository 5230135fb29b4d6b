//! One container replica: a worker-thread pool in front of a small CPU.

use std::collections::VecDeque;

use simnet::{SimDuration, SimTime};

use crate::job::Phase;

/// Key identifying a pending compute segment: which job and which phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub job: usize,
    pub step: usize,
    pub phase: Phase,
    pub duration: SimDuration,
}

/// A single container replica of a microservice.
///
/// Two nested queues model the paper's service stack:
///
/// * the **thread pool** (`threads` slots): a request must hold a slot from
///   admission until it replies, *including* while its downstream RPC is
///   outstanding — this produces cross-tier queue overflow;
/// * the **CPU** (`cores` cores): admitted requests' compute segments run
///   FIFO on the cores; saturation here is a millibottleneck.
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    /// Worker-thread slots.
    pub threads: u32,
    /// CPU cores.
    pub cores: u32,
    /// Currently admitted requests (each holds one thread slot).
    pub admitted: u32,
    /// Requests waiting for a thread slot: (job index, step index).
    pub wait_queue: VecDeque<(usize, usize)>,
    /// Compute segments waiting for a core.
    pub cpu_queue: VecDeque<Segment>,
    /// Cores currently executing a segment.
    pub busy_cores: u32,
    /// Accumulated core-busy time since the accumulator was last drained.
    pub busy_acc: SimDuration,
    /// Last time `busy_acc` was brought up to date.
    pub last_update: SimTime,
    /// A draining replica admits no new work and is removed once idle
    /// (graceful scale-down).
    pub draining: bool,
}

impl Replica {
    pub(crate) fn new(threads: u32, cores: u32, now: SimTime) -> Self {
        Replica {
            threads,
            cores,
            admitted: 0,
            // Scale-up is a rare control-plane event, off the per-request path.
            wait_queue: VecDeque::new(),
            cpu_queue: VecDeque::new(),
            busy_cores: 0,
            busy_acc: SimDuration::ZERO,
            last_update: now,
            draining: false,
        }
    }

    /// Brings the busy-time accumulator up to `now`.
    pub(crate) fn update_busy(&mut self, now: SimTime) {
        let delta = now.saturating_since(self.last_update);
        if !delta.is_zero() {
            self.busy_acc += delta * u64::from(self.busy_cores);
            self.last_update = now;
        }
    }

    /// Drains and returns the busy-time accumulated since the last drain.
    pub(crate) fn take_busy(&mut self, now: SimTime) -> SimDuration {
        self.update_busy(now);
        std::mem::replace(&mut self.busy_acc, SimDuration::ZERO)
    }

    /// Tries to claim a thread slot. Returns `true` on success.
    pub(crate) fn try_admit(&mut self) -> bool {
        if self.draining || self.admitted >= self.threads {
            return false;
        }
        self.admitted += 1;
        true
    }

    /// Releases a thread slot (caller must have been admitted).
    pub(crate) fn release(&mut self) {
        debug_assert!(self.admitted > 0, "release without admission");
        self.admitted = self.admitted.saturating_sub(1);
    }

    /// Offers a compute segment to the CPU. Returns `true` when a core was
    /// free and the caller must schedule the segment's completion; `false`
    /// when the segment was queued behind busy cores.
    pub(crate) fn offer_segment(&mut self, seg: Segment, now: SimTime) -> bool {
        if self.busy_cores < self.cores {
            self.update_busy(now);
            self.busy_cores += 1;
            true
        } else {
            self.cpu_queue.push_back(seg);
            false
        }
    }

    /// Marks a running segment as finished. Returns the next queued
    /// segment to start, if any (the core is handed over directly).
    pub(crate) fn finish_segment(&mut self, now: SimTime) -> Option<Segment> {
        self.update_busy(now);
        match self.cpu_queue.pop_front() {
            Some(next) => Some(next), // core stays busy
            None => {
                debug_assert!(self.busy_cores > 0, "finish with no busy core");
                self.busy_cores = self.busy_cores.saturating_sub(1);
                None
            }
        }
    }

    /// Total work admitted or waiting — the load-balancer's load signal.
    pub(crate) fn load(&self) -> usize {
        self.admitted as usize + self.wait_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(job: usize) -> Segment {
        Segment {
            job,
            step: 0,
            phase: Phase::Pre,
            duration: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn admission_respects_thread_pool() {
        let mut r = Replica::new(2, 1, SimTime::ZERO);
        assert!(r.try_admit());
        assert!(r.try_admit());
        assert!(!r.try_admit());
        r.release();
        assert!(r.try_admit());
    }

    #[test]
    fn draining_blocks_admission() {
        let mut r = Replica::new(2, 1, SimTime::ZERO);
        r.draining = true;
        assert!(!r.try_admit());
    }

    #[test]
    fn cpu_queues_when_cores_busy() {
        let mut r = Replica::new(8, 1, SimTime::ZERO);
        assert!(r.offer_segment(seg(0), SimTime::ZERO));
        assert!(!r.offer_segment(seg(1), SimTime::ZERO));
        assert_eq!(r.cpu_queue.len(), 1);
        // Finishing the first hands the core to the queued one.
        let next = r.finish_segment(SimTime::from_millis(1));
        assert_eq!(next.unwrap().job, 1);
        assert_eq!(r.busy_cores, 1);
        assert!(r.finish_segment(SimTime::from_millis(2)).is_none());
        assert_eq!(r.busy_cores, 0);
    }

    #[test]
    fn busy_accounting_tracks_core_time() {
        let mut r = Replica::new(8, 2, SimTime::ZERO);
        assert!(r.offer_segment(seg(0), SimTime::ZERO));
        assert!(r.offer_segment(seg(1), SimTime::ZERO));
        // Two cores busy for 5 ms -> 10 ms of core time.
        let busy = r.take_busy(SimTime::from_millis(5));
        assert_eq!(busy, SimDuration::from_millis(10));
        // Accumulator was drained.
        let busy2 = r.take_busy(SimTime::from_millis(5));
        assert_eq!(busy2, SimDuration::ZERO);
    }

    #[test]
    fn load_counts_waiting_and_admitted() {
        let mut r = Replica::new(1, 1, SimTime::ZERO);
        r.try_admit();
        r.wait_queue.push_back((1, 0));
        assert_eq!(r.load(), 2);
    }
}
