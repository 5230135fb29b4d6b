//! The event calendar.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! scheduled event. [`EventQueue`] is a hierarchical hashed timing wheel
//! keyed on ([`SimTime`], insertion sequence): push and pop are O(1)
//! amortized instead of the O(log n) of a binary heap, and events scheduled
//! for the same instant are still delivered in the order they were pushed.
//! That FIFO tie-break is what makes whole-system runs reproducible.
//!
//! Pops are served from a sorted `ready` run. When it empties, the wheel
//! refills it from the earliest occupied bucket: a level-0 window is
//! drained slot by slot (each slot is one tick, already in push order); a
//! level-1 bucket — one 64 µs block — is sorted by `(time, seq)` straight
//! into `ready`; higher levels cascade into lower ones. The kernel's
//! pending population is sparse (about a thousand events spread over
//! milliseconds to seconds), so a level-0 window rarely holds more than
//! one event and most refills come from level 1: sorting that bucket in
//! place skips re-filing every entry into level 0 and draining it again.
//!
//! [`HeapEventQueue`] keeps the original `BinaryHeap` implementation as a
//! differential-test oracle and benchmark baseline; both queues produce
//! bit-identical pop sequences for any program of pushes and pops.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use crate::time::SimTime;

/// Bits per wheel level; each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `L` buckets events by bits `[6L, 6L+6)` of their
/// microsecond timestamp, so the wheel directly addresses `2^36` µs
/// (~19 hours) ahead of the cursor; anything further waits in an overflow
/// list.
const LEVELS: usize = 6;

/// A deterministic future-event list.
///
/// The payload type `E` is opaque to the kernel; the simulation driver (see
/// the `microsim` crate) defines its own event enum and interprets popped
/// events.
///
/// # Example
///
/// ```
/// use simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "later");
/// q.push(SimTime::from_millis(1), "sooner");
/// q.push(SimTime::from_millis(1), "sooner-second");
///
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner-second");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
///
/// A clone is an exact fork: it keeps the `(time, seq)` FIFO counter and
/// the wheel cursor, so the original and the copy pop identical sequences.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; bucket `level * SLOTS + slot`
    /// holds events whose level-`level` time digit is `slot`.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmask: bit `s` set iff bucket `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Events at or before the cursor, sorted by (time, seq); popped from
    /// the front.
    ready: VecDeque<Entry<E>>,
    /// Events more than the wheel span (~19 h) ahead of the cursor.
    overflow: Vec<Entry<E>>,
    /// Microsecond timestamp the wheel is positioned at: the time of the
    /// most recently drained bucket. All buckets hold events strictly after
    /// it (relative placement is re-derived as the cursor advances).
    cursor: u64,
    /// Reused buffer for redistributing a drained bucket.
    scratch: Vec<Entry<E>>,
    next_seq: u64,
    len: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` soon-to-fire events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            ready: VecDeque::with_capacity(capacity),
            overflow: Vec::new(),
            cursor: 0,
            scratch: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Events pushed for the same instant pop in push order.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() && !self.refill_ready() {
            return None;
        }
        self.len -= 1;
        self.ready.pop_front().map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because peeking may advance the wheel cursor to the
    /// next occupied bucket; the set of pending events is unchanged.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.refill_ready() {
            return None;
        }
        self.ready.front().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `entry` into the ready list, a wheel bucket, or the overflow
    /// list, according to its distance from the cursor.
    #[inline]
    fn insert(&mut self, entry: Entry<E>) {
        let t = entry.time.as_micros();
        let diff = t ^ self.cursor;
        if t <= self.cursor {
            // At or before the cursor (same-instant push, or an event
            // scheduled in the cursor's past): ordered insert keyed on
            // (time, seq). Same-time events always arrive here in ascending
            // seq order, so the partition point lands after them.
            let pos = self
                .ready
                .partition_point(|e| (e.time, e.seq) < (entry.time, entry.seq));
            self.ready.insert(pos, entry);
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Ensures `ready` holds the earliest pending events, advancing the
    /// cursor and cascading buckets as needed. Returns `false` when the
    /// queue is empty.
    fn refill_ready(&mut self) -> bool {
        'scan: loop {
            if !self.ready.is_empty() {
                return true;
            }
            for level in 0..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let cursor_slot = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                // Buckets at or above the cursor's digit. Lower levels are
                // scanned first, so a non-empty bucket here holds the
                // globally earliest pending events.
                let mask = self.occupied[level] & (u64::MAX << cursor_slot);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                if level == 0 {
                    // Drain the whole remaining level-0 window in one pass:
                    // slot order is time order, each bucket is one tick wide
                    // with entries already in push order. Batching amortises
                    // the level scan over every event left in the window.
                    let mut rest = mask;
                    while rest != 0 {
                        let s = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        self.ready.extend(self.slots[s].drain(..));
                    }
                    self.occupied[0] &= !mask;
                    // Advance to the window's last tick; later pushes into
                    // the drained range take the ordered `ready` path.
                    self.cursor |= (SLOTS as u64) - 1;
                    return true;
                }
                self.occupied[level] &= !(1u64 << slot);
                let above = shift + SLOT_BITS;
                if level == 1 {
                    // A level-1 bucket is one 64-tick block and level 0 is
                    // empty, so the bucket holds exactly the earliest
                    // pending events. Sort it straight into `ready` instead
                    // of re-filing it into level 0 and draining that, and
                    // park the cursor at the block's last tick.
                    let bucket = &mut self.slots[SLOTS + slot];
                    bucket.sort_unstable_by_key(|e| (e.time, e.seq));
                    self.ready.extend(bucket.drain(..));
                    self.cursor = ((self.cursor >> above) << above)
                        | ((slot as u64) << shift)
                        | (SLOTS as u64 - 1);
                    return true;
                }
                // Cascade: advance to the bucket's start (nothing pends
                // before it) and re-file its entries, which now land at
                // lower levels or directly in `ready`.
                self.cursor = ((self.cursor >> above) << above) | ((slot as u64) << shift);
                let mut scratch = mem::take(&mut self.scratch);
                scratch.append(&mut self.slots[level * SLOTS + slot]);
                for entry in scratch.drain(..) {
                    self.insert(entry);
                }
                self.scratch = scratch;
                continue 'scan;
            }
            // Wheel empty: re-seed from the overflow list, if any.
            if self.overflow.is_empty() {
                return false;
            }
            let min_t = self
                .overflow
                .iter()
                .map(|e| e.time.as_micros())
                .min()
                .expect("overflow non-empty");
            self.cursor = min_t;
            let overflow = mem::take(&mut self.overflow);
            for entry in overflow {
                self.insert(entry);
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original `BinaryHeap`-backed event queue.
///
/// Kept as the reference implementation: the property tests in
/// `tests/properties.rs` drive it and [`EventQueue`] with identical
/// push/pop programs and assert bit-identical pop sequences, and the
/// benches in `crates/bench` use it as the before/after baseline.
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn far_future_events_survive_overflow() {
        let mut q = EventQueue::new();
        // Beyond the wheel span (~19 h) and at the FAR_FUTURE sentinel.
        q.push(SimTime::FAR_FUTURE, "sentinel");
        q.push(SimTime::from_secs(100_000), "distant");
        q.push(SimTime::from_millis(1), "soon");
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(1), "soon"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(100_000), "distant"));
        assert_eq!(q.pop().unwrap(), (SimTime::FAR_FUTURE, "sentinel"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_before_the_cursor_pop_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(50), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        // The cursor now sits at 50 ms; schedule into its past.
        q.push(SimTime::from_millis(10), "past");
        q.push(SimTime::from_millis(60), "future");
        q.push(SimTime::from_millis(10), "past-second");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "past-second");
        assert_eq!(q.pop().unwrap().1, "future");
    }

    #[test]
    fn cloned_queue_replays_identically() {
        let mut q = EventQueue::new();
        let mut t = 3u64;
        for i in 0..500u64 {
            t = t.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(i) % 90_000_000;
            q.push(SimTime::from_micros(t), i);
        }
        for _ in 0..120 {
            q.pop();
        }
        // A clone taken mid-stream must drain identically to the original,
        // including the seq counter for subsequent same-time pushes.
        let mut fork = q.clone();
        q.push(SimTime::from_micros(50), 9_999);
        fork.push(SimTime::from_micros(50), 9_999);
        loop {
            let (a, b) = (q.pop(), fork.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_reference_on_dense_interleaving() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic scatter of pushes across all wheel levels, with
        // interleaved pops.
        let mut t = 1u64;
        for i in 0..2_000u64 {
            t = t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) % 300_000_000;
            wheel.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
            if i % 3 == 0 {
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }
}
