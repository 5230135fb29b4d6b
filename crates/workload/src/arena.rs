//! The think-timer arena: one kernel wakeup per occupied bucket.
//!
//! A closed-loop population of `n` users used to park one `EventQueue`
//! entry per sleeping user — O(users) pending wheel events, which is
//! exactly the deep-population regime the timing wheel was never meant to
//! carry (100k users at a 7 s mean think time is 100k simultaneous
//! timers). The [`ThinkArena`] collapses that to O(occupied buckets):
//!
//! * think expiries are quantised **up** to a tick (the bucket
//!   granularity, chosen from the mean think time so the relative
//!   quantisation error stays below ~0.1 %);
//! * all users expiring on the same tick share one bucket, and the bucket
//!   schedules exactly **one** kernel wakeup — when it fires, the
//!   population steps every user in the bucket in slot order;
//! * buckets live in a fixed power-of-two ring indexed by `tick % RING_LEN`
//!   as flat intrusive lists (`head[bucket]` → `next[slot]` chains), so
//!   scheduling a timer is two array writes and draining is a list walk —
//!   no per-timer allocation, and cloning the arena for a snapshot is
//!   three `memcpy`s.
//!
//! Ticks more than [`RING_LEN`] ahead of *now* (a think draw out in the
//! exponential tail, ≥ 32× the mean — astronomically rare but possible)
//! spill to a small overflow list that is consulted only when non-empty.
//!
//! Determinism: whether [`ThinkArena::schedule`] asks the caller for a
//! kernel wakeup depends only on the sequence of prior schedule/drain
//! calls — "is this tick already pending?" — and draining returns slots in
//! sorted order. The naive twin (`BTreeMap<tick, Vec<slot>>`,
//! one entry per distinct tick) makes the identical decisions, which is
//! what lets `tests/determinism.rs` pin the two populations byte-for-byte
//! against each other.

use simnet::SimTime;

/// Sentinel for "no entry" in the intrusive bucket lists.
const NONE: u32 = u32::MAX;

/// Ring length in ticks. With the tick chosen at ~mean/2048 (see
/// [`think_tick_micros`]) the ring spans ≥ 32× the mean think time, so the
/// overflow list is cold in every realistic configuration.
pub const RING_LEN: usize = 1 << 16;

/// Picks the bucket granularity (µs, power of two) for a mean think time.
///
/// Roughly `mean / 2048`, clamped to `[1 µs, 8192 µs]`: relative
/// quantisation error ≤ ~0.05 % of the mean, absolute error ≤ 8.2 ms, and
/// a 7 s paper-mean population lands on 4096 µs ticks — a few thousand
/// occupied buckets for 100k users instead of 100k wheel events.
pub fn think_tick_micros(mean_s: f64) -> u64 {
    ((mean_s * 1e6 / 2048.0) as u64)
        .next_power_of_two()
        .clamp(1, 8192)
}

/// A bucketed timer arena over user slab slots.
///
/// Timers are identified by `(tick, slot)`; a tick is an absolute multiple
/// of the arena's bucket granularity. The arena never talks to the kernel
/// itself: [`ThinkArena::schedule`] returns whether the caller must place
/// a kernel wakeup for the tick, keeping the arena a pure, deterministic
/// data structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ThinkArena {
    /// Bucket granularity in microseconds (power of two).
    tick_micros: u64,
    /// Ring of intrusive list heads, indexed by `tick % RING_LEN`;
    /// [`NONE`] marks an empty bucket. A bucket holds slots for exactly
    /// one live tick (the ring spans more ticks than any timer horizon).
    head: Vec<u32>,
    /// Per-slot forward links of the intrusive bucket lists.
    next: Vec<u32>,
    /// `(tick, slot)` timers too far ahead for the ring; consulted only
    /// when non-empty.
    overflow: Vec<(u64, u32)>,
    /// Live timers (for reporting; one per sleeping user).
    len: usize,
}

impl ThinkArena {
    /// Creates an arena for `slots` users with the given bucket
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `tick_micros` is zero or not a power of two.
    pub fn new(tick_micros: u64, slots: usize) -> Self {
        assert!(
            tick_micros.is_power_of_two(),
            "bucket granularity must be a power of two"
        );
        ThinkArena {
            tick_micros,
            head: vec![NONE; RING_LEN],
            next: vec![NONE; slots],
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Bucket granularity in microseconds.
    pub fn tick_micros(&self) -> u64 {
        self.tick_micros
    }

    /// The tick a timer expiring at `t` is quantised (up) to.
    pub fn tick_of(&self, t: SimTime) -> u64 {
        t.as_micros().div_ceil(self.tick_micros)
    }

    /// The absolute firing time of a tick.
    pub fn wake_time(&self, tick: u64) -> SimTime {
        SimTime::from_micros(tick * self.tick_micros)
    }

    /// Live timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied buckets (ring buckets plus distinct overflow ticks) — the
    /// arena's pending-kernel-wakeup count.
    pub fn occupied_buckets(&self) -> usize {
        let ring = self.head.iter().filter(|&&h| h != NONE).count();
        let mut ticks: Vec<u64> = self.overflow.iter().map(|&(t, _)| t).collect();
        ticks.sort_unstable();
        ticks.dedup();
        ring + ticks.len()
    }

    /// Whether `tick` already has a kernel wakeup pending.
    fn is_pending(&self, now: SimTime, tick: u64) -> bool {
        if !self.overflow.is_empty() && self.overflow.iter().any(|&(t, _)| t == tick) {
            return true;
        }
        let now_tick = now.as_micros() / self.tick_micros;
        tick < now_tick + RING_LEN as u64 && self.head[(tick % RING_LEN as u64) as usize] != NONE
    }

    /// Parks `slot` until `tick`. Returns `true` when the caller must
    /// schedule a kernel wakeup at [`ThinkArena::wake_time`]`(tick)` — i.e.
    /// exactly when the tick was not already pending.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the slot is already parked.
    pub fn schedule(&mut self, now: SimTime, slot: u32, tick: u64) -> bool {
        debug_assert_eq!(self.next[slot as usize], NONE, "slot parked twice");
        let need_wake = !self.is_pending(now, tick);
        let now_tick = now.as_micros() / self.tick_micros;
        if tick < now_tick + RING_LEN as u64 {
            let b = (tick % RING_LEN as u64) as usize;
            self.next[slot as usize] = self.head[b];
            self.head[b] = slot;
        } else {
            self.overflow.push((tick, slot));
        }
        self.len += 1;
        need_wake
    }

    /// Drains every slot parked on `tick` into `out` (cleared first), in
    /// ascending slot order. Called when the tick's kernel wakeup fires;
    /// the caller owns the batch buffer so it can keep iterating it while
    /// re-parking slots into the arena.
    pub fn drain_into(&mut self, tick: u64, out: &mut Vec<u32>) {
        out.clear();
        let b = (tick % RING_LEN as u64) as usize;
        let mut cur = self.head[b];
        self.head[b] = NONE;
        while cur != NONE {
            out.push(cur);
            let nx = self.next[cur as usize];
            self.next[cur as usize] = NONE;
            cur = nx;
        }
        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].0 == tick {
                    out.push(self.overflow.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        self.len -= out.len();
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    fn drain(a: &mut ThinkArena, tick: u64) -> Vec<u32> {
        let mut out = Vec::new();
        a.drain_into(tick, &mut out);
        out
    }

    #[test]
    fn tick_granularity_tracks_mean_think_time() {
        assert_eq!(think_tick_micros(7.0), 4096); // paper mean
        assert_eq!(think_tick_micros(1.0), 512);
        assert_eq!(think_tick_micros(0.0), 1);
        assert_eq!(think_tick_micros(1000.0), 8192); // clamped
    }

    #[test]
    fn one_wake_per_bucket() {
        let mut a = ThinkArena::new(1024, 8);
        // Three users on the same tick: only the first asks for a wakeup.
        assert!(a.schedule(t(0), 3, 5));
        assert!(!a.schedule(t(0), 1, 5));
        assert!(!a.schedule(t(0), 7, 5));
        // A different tick needs its own wakeup.
        assert!(a.schedule(t(0), 2, 6));
        assert_eq!(a.occupied_buckets(), 2);
        assert_eq!(a.len(), 4);
        // Drain returns slot order, not insertion order.
        assert_eq!(drain(&mut a, 5), vec![1, 3, 7]);
        assert_eq!(drain(&mut a, 6), vec![2]);
        assert!(a.is_empty());
        // The tick is free again after the drain.
        assert!(a.schedule(a.wake_time(6), 0, 6));
    }

    #[test]
    fn quantisation_rounds_up() {
        let a = ThinkArena::new(4096, 1);
        assert_eq!(a.tick_of(t(0)), 0);
        assert_eq!(a.tick_of(t(1)), 1);
        assert_eq!(a.tick_of(t(4096)), 1);
        assert_eq!(a.tick_of(t(4097)), 2);
        assert_eq!(a.wake_time(2), t(8192));
    }

    #[test]
    fn far_future_ticks_spill_to_overflow_and_fire() {
        let mut a = ThinkArena::new(1, 4);
        let far = RING_LEN as u64 + 17;
        assert!(a.schedule(t(0), 2, far));
        assert!(!a.schedule(t(0), 0, far)); // same far tick: already pending
                                            // A near tick aliasing the same ring bucket is independent.
        assert!(a.schedule(t(0), 1, 17));
        assert_eq!(drain(&mut a, 17), vec![1]);
        assert_eq!(a.occupied_buckets(), 1);
        assert_eq!(drain(&mut a, far), vec![0, 2]);
        assert!(a.is_empty());
    }

    #[test]
    fn near_insert_after_overflow_insert_does_not_double_schedule() {
        let mut a = ThinkArena::new(1, 4);
        let tick = RING_LEN as u64 + 3;
        assert!(a.schedule(t(0), 0, tick)); // out of span: overflow
                                            // Time advances; the same tick is now in span for a ring insert.
        let later = t(8);
        assert!(!a.schedule(later, 1, tick)); // already pending via overflow
        assert_eq!(drain(&mut a, tick), vec![0, 1]);
    }

    #[test]
    fn clone_preserves_timers() {
        let mut a = ThinkArena::new(256, 4);
        a.schedule(t(0), 1, 9);
        a.schedule(t(0), 3, 9);
        let mut b = a.clone();
        assert_eq!(b.len(), 2);
        assert_eq!(drain(&mut b, 9), vec![1, 3]);
        assert_eq!(drain(&mut a, 9), vec![1, 3]); // original unaffected
    }

    /// Differential ground truth: a `BTreeMap<tick, Vec<slot>>` with one
    /// key per distinct tick (the naive population twin's timer store).
    #[derive(Default)]
    struct NaiveTimers {
        map: BTreeMap<u64, Vec<u32>>,
    }

    impl NaiveTimers {
        fn schedule(&mut self, slot: u32, tick: u64) -> bool {
            let entry = self.map.entry(tick).or_default();
            entry.push(slot);
            entry.len() == 1
        }

        fn drain(&mut self, tick: u64) -> Vec<u32> {
            let mut v = self.map.remove(&tick).unwrap_or_default();
            v.sort_unstable();
            v
        }
    }

    proptest! {
        /// The arena and the naive map make identical wake-scheduling
        /// decisions and drain identical slot sets, including ticks far
        /// enough out to exercise the overflow list.
        #[test]
        fn arena_matches_naive_map(
            ops in proptest::collection::vec(
                (0u32..64, 0u64..(3 * RING_LEN as u64)), 1..200),
        ) {
            let mut arena = ThinkArena::new(1, 64);
            let mut naive = NaiveTimers::default();
            let mut parked: Vec<(u64, u32)> = Vec::new();
            let now = t(0);
            for (slot, tick) in ops {
                if parked.iter().any(|&(_, s)| s == slot) {
                    continue; // closed loop: one timer per user
                }
                prop_assert_eq!(
                    arena.schedule(now, slot, tick),
                    naive.schedule(slot, tick),
                    "wake decision diverged at slot {} tick {}", slot, tick
                );
                parked.push((tick, slot));
            }
            // Fire every distinct tick in time order, comparing drains.
            let mut ticks: Vec<u64> = parked.iter().map(|&(t, _)| t).collect();
            ticks.sort_unstable();
            ticks.dedup();
            prop_assert_eq!(arena.occupied_buckets(), ticks.len());
            for tick in ticks {
                prop_assert_eq!(drain(&mut arena, tick), naive.drain(tick));
            }
            prop_assert!(arena.is_empty());
        }
    }
}
