//! The workspace's one copy-on-write segmented log.
//!
//! Long runs grow append-only logs (request and access logs, sample
//! journals, latency samples), and warm-state forking clones all of them
//! once per sweep cell. Storing each as a plain `Vec` makes that clone —
//! and therefore every fork — O(run length). [`SegLog`] stores a log as
//! **sealed immutable segments** behind [`Arc`] plus one bounded mutable
//! tail:
//!
//! ```text
//!   SegLog<T, I>:  Arc──▶ [Arc seg0][Arc seg1]...[Arc segN] | tail (< seg_cap items)
//!                         each seg = items + index I         | copied on clone
//!                         shared on clone (one refcount bump)
//! ```
//!
//! Cloning shares the sealed prefix by reference, so a fork costs O(tail)
//! instead of O(items). Sealing happens at a fixed append count
//! (`seg_cap`), making segment boundaries a pure function of how many items
//! were pushed — a forked run and a cold run that record the same history
//! produce structurally identical logs.
//!
//! Each sealed segment carries an index `I` built once, at seal time, from
//! the segment's items ([`SegIndex::build`]): posting lists for the request
//! and access logs, a sorted copy for exact percentiles. The index is a
//! pure function of the items and is shared with the segment it describes;
//! `()` builds nothing.
//!
//! **COW invariants.** A sealed segment is never mutated: appends go to the
//! tail only, and sealing moves the tail into a *new* `Arc`. Two clones can
//! therefore never observe each other's writes; writers never copy shared
//! items because the tail is always uniquely owned.

use std::fmt;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

/// Items per sealed segment unless a log asks for another capacity.
///
/// Fixed (rather than adaptive) so that segmentation is deterministic in
/// the item count; large enough that per-segment overhead (`Arc`, index
/// headers) is negligible, small enough that the mutable tail copied on
/// fork stays small (8 KiB of `f64` samples).
pub const SEG_CAP: usize = 1024;

/// Derived per-segment data, built once when a segment seals and shared
/// with it on every clone.
pub trait SegIndex<T> {
    /// Builds the index over one sealed segment's items.
    fn build(items: &[T]) -> Self;
}

/// No index: a plain segmented log.
impl<T> SegIndex<T> for () {
    fn build(_items: &[T]) -> Self {}
}

/// One sealed, immutable segment: exactly `seg_cap` items plus the index
/// built over them at seal time.
#[derive(Debug)]
pub struct Segment<T, I> {
    items: Vec<T>,
    index: I,
}

impl<T, I> Segment<T, I> {
    /// The segment's items in append order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The index built over [`Segment::items`] when the segment sealed.
    pub fn index(&self) -> &I {
        &self.index
    }
}

/// An append-only copy-on-write log: `Arc`-shared sealed segments, each
/// with its seal-time index `I`, plus a bounded mutable tail. See the
/// module docs for the layout and COW invariants.
///
/// The sealed-segment spine is itself behind an `Arc`, so a clone bumps
/// **one** refcount no matter how many segments the log has accumulated.
/// The spine is copied only when a seal happens while forks share it
/// ([`Arc::make_mut`]), amortized over the `seg_cap` pushes per seal.
///
/// Equality and `Debug` are *logical*: two logs with the same items compare
/// equal regardless of how clones share their segments, and indexes (a
/// pure function of the items) are not printed.
///
/// # Example
///
/// ```
/// let mut log: simnet::SegLog<u32> = simnet::SegLog::with_seg_cap(4);
/// log.extend(0..10);
/// assert_eq!(log.sealed().len(), 2);
/// let fork = log.clone(); // O(tail): sealed segments are Arc-shared
/// log.push(10);
/// assert_eq!(fork.len(), 10);
/// assert_eq!(log.last(), Some(&10));
/// ```
pub struct SegLog<T, I = ()> {
    /// Sealed segments, each exactly `seg_cap` items. The spine is shared
    /// whole on clone; segments are additionally shared individually so a
    /// seal after a fork copies only the spine, never the items.
    sealed: Arc<Vec<Arc<Segment<T, I>>>>,
    /// Uniquely-owned mutable tail, always shorter than `seg_cap`.
    tail: Vec<T>,
    /// Seal threshold (constant per log).
    seg_cap: usize,
}

// Manual per-field impl (not derived) so simlint's snapshot-complete rule
// can verify every field is carried across a fork.
impl<T: Clone, I> Clone for SegLog<T, I> {
    fn clone(&self) -> Self {
        SegLog {
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            seg_cap: self.seg_cap,
        }
    }
}

impl<T, I> Default for SegLog<T, I> {
    fn default() -> Self {
        SegLog::new()
    }
}

impl<T, I> SegLog<T, I> {
    /// Creates an empty log sealing every [`SEG_CAP`] items.
    pub fn new() -> Self {
        SegLog::with_seg_cap(SEG_CAP)
    }

    /// Creates an empty log sealing every `seg_cap` items (small caps let
    /// tests exercise many segments cheaply).
    ///
    /// # Panics
    ///
    /// Panics if `seg_cap` is zero.
    pub fn with_seg_cap(seg_cap: usize) -> Self {
        assert!(seg_cap > 0, "segment capacity must be positive");
        SegLog {
            sealed: Arc::new(Vec::new()),
            tail: Vec::new(),
            seg_cap,
        }
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.sealed.len() * self.seg_cap + self.tail.len()
    }

    /// `true` when nothing was appended yet.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The seal threshold.
    pub fn seg_cap(&self) -> usize {
        self.seg_cap
    }

    /// The item at `index`, if any. O(1): sealed segments all have exactly
    /// `seg_cap` items.
    pub fn get(&self, index: usize) -> Option<&T> {
        let sealed_len = self.sealed.len() * self.seg_cap;
        if index < sealed_len {
            Some(&self.sealed[index / self.seg_cap].items[index % self.seg_cap])
        } else {
            self.tail.get(index - sealed_len)
        }
    }

    /// The most recently appended item.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.sealed.last().and_then(|s| s.items.last()))
    }

    /// Iterates all items in append order.
    pub fn iter(&self) -> SegLogIter<'_, T, I> {
        SegLogIter {
            remaining: self.len(),
            segs: self.sealed.iter(),
            cur: [].iter(),
            tail: Some(&self.tail),
        }
    }

    /// The sealed segments in append order (shared on clone).
    pub fn sealed(&self) -> &[Arc<Segment<T, I>>] {
        &self.sealed
    }

    /// The mutable tail: the items after the last sealed segment.
    pub fn tail(&self) -> &[T] {
        &self.tail
    }

    /// The contiguous storage slabs in order: each sealed segment's items,
    /// then the tail. Concatenated they are the whole log.
    pub fn slabs(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.sealed
            .iter()
            .map(|s| s.items.as_slice())
            .chain(std::iter::once(self.tail.as_slice()))
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        // Fresh spine rather than `make_mut` + clear: forks sharing the old
        // spine keep it untouched.
        self.sealed = Arc::new(Vec::new()); // simlint: allow(hot-path-alloc) — reset path, not the per-item path
        self.tail.clear();
    }
}

impl<T, I: SegIndex<T>> SegLog<T, I> {
    /// Appends one item, sealing the tail into an immutable segment (and
    /// building its index) when it reaches the threshold.
    pub fn push(&mut self, item: T) {
        self.tail.push(item);
        if self.tail.len() == self.seg_cap {
            let items = std::mem::replace(&mut self.tail, Vec::with_capacity(self.seg_cap)); // simlint: allow(hot-path-alloc) — amortized: one seal per seg_cap pushes
            let index = I::build(&items);
            let seg = Arc::new(Segment { items, index }); // simlint: allow(hot-path-alloc) — amortized: one seal per seg_cap pushes
            Arc::make_mut(&mut self.sealed).push(seg);
        }
    }
}

impl<T: fmt::Debug, I> fmt::Debug for SegLog<T, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, I> PartialEq for SegLog<T, I> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T, I> std::ops::Index<usize> for SegLog<T, I> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index).expect("SegLog index out of bounds")
    }
}

impl<'a, T, I> IntoIterator for &'a SegLog<T, I> {
    type Item = &'a T;
    type IntoIter = SegLogIter<'a, T, I>;

    fn into_iter(self) -> SegLogIter<'a, T, I> {
        self.iter()
    }
}

impl<T, I: SegIndex<T>> Extend<T> for SegLog<T, I> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, I: SegIndex<T>> FromIterator<T> for SegLog<T, I> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        let mut log = SegLog::new();
        log.extend(iter);
        log
    }
}

impl<T: Serialize, I> Serialize for SegLog<T, I> {
    fn to_value(&self) -> Value {
        // Flat logical sequence: segmentation and indexes are in-memory
        // layout, rebuilt deterministically on deserialization.
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, I: SegIndex<T>> Deserialize<'de> for SegLog<T, I> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Vec::<T>::from_value(value)?.into_iter().collect())
    }
}

/// Iterator over a [`SegLog`] in append order.
#[derive(Debug)]
pub struct SegLogIter<'a, T, I = ()> {
    remaining: usize,
    segs: std::slice::Iter<'a, Arc<Segment<T, I>>>,
    cur: std::slice::Iter<'a, T>,
    tail: Option<&'a [T]>,
}

impl<'a, T, I> Iterator for SegLogIter<'a, T, I> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.cur.next() {
                self.remaining -= 1;
                return Some(item);
            }
            if let Some(seg) = self.segs.next() {
                self.cur = seg.items.iter();
            } else if let Some(tail) = self.tail.take() {
                self.cur = tail.iter();
            } else {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T, I> ExactSizeIterator for SegLogIter<'_, T, I> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seglog_seals_and_preserves_order() {
        let mut log: SegLog<i32> = SegLog::with_seg_cap(4);
        for i in 0..11 {
            log.push(i);
        }
        assert_eq!(log.len(), 11);
        assert_eq!(log.sealed().len(), 2);
        assert_eq!(log.tail().len(), 3);
        let all: Vec<i32> = log.iter().copied().collect();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
        assert_eq!(log[4], 4);
        assert_eq!(log.get(10), Some(&10));
        assert_eq!(log.get(11), None);
        assert_eq!(log.last(), Some(&10));
        assert_eq!(log.iter().len(), 11);
    }

    #[test]
    fn seglog_clone_shares_sealed_segments() {
        let mut log: SegLog<i32> = SegLog::with_seg_cap(4);
        for i in 0..9 {
            log.push(i);
        }
        let fork = log.clone();
        assert_eq!(fork, log);
        for (a, b) in log.sealed().iter().zip(fork.sealed()) {
            assert!(Arc::ptr_eq(a, b), "sealed segments must be shared");
        }
        // Appending to the original never mutates what the fork sees.
        log.push(100);
        log.push(101);
        let forked: Vec<i32> = fork.iter().copied().collect();
        assert_eq!(forked, (0..9).collect::<Vec<_>>());
        assert_ne!(fork, log);
    }
}
