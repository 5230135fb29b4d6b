//! Online statistics used throughout the workspace.
//!
//! Four collectors cover the needs of monitors, the analytic model and the
//! experiment harness:
//!
//! * [`Welford`] — numerically stable streaming mean/variance, O(1) memory.
//! * [`SampleSet`] — keeps every sample for exact percentiles; used for
//!   response-time distributions where exactness matters (the paper reports
//!   p95 latencies).
//! * [`SegSamples`] — copy-on-write [`SampleSet`] over a [`SegLog`] whose
//!   segments are sorted at seal time, so snapshot/fork cost is O(tail)
//!   while means and exact percentiles stay bit-identical.
//! * [`Histogram`] — fixed-bin counts for memory-bounded percentile
//!   estimates over very long runs.

use crate::seglog::{SegIndex, SegLog};

/// Streaming mean / variance via Welford's algorithm.
///
/// # Example
///
/// ```
/// let mut w = simnet::Welford::new();
/// for x in [1.0, 2.0, 3.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile collector: retains every sample.
///
/// # Example
///
/// ```
/// let mut s = simnet::SampleSet::new();
/// for x in 1..=100 {
///     s.push(x as f64);
/// }
/// assert_eq!(s.percentile(0.95), 95.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty collector.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty collector with room for `n` samples — callers that
    /// know the match count up front (e.g. indexed telemetry queries)
    /// avoid growth reallocations entirely.
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Appends all of `other`'s samples, preserving `other`'s current
    /// order. Percentiles over the merged set are exact: they re-sort over
    /// the union, so merging is order-insensitive for every statistic
    /// except the (insertion-ordered) `mean` accumulation.
    pub fn merge(&mut self, other: &SampleSet) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`; `0.0` when empty.
    ///
    /// Sorting is done lazily and cached, so repeated percentile queries are
    /// cheap.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.samples.len() as f64 * q).ceil() as usize).max(1) - 1;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Largest sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Read-only view of the raw samples (in insertion or sorted order,
    /// whichever is current).
    pub fn as_slice(&self) -> &[f64] {
        &self.samples
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

impl Extend<f64> for SampleSet {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = SampleSet::new();
        s.extend(iter);
        s
    }
}

/// The seal-time index of a [`SegSamples`] segment: its samples sorted
/// ascending. The sort is stable, so ties keep insertion order — exactly
/// what `SampleSet`'s lazy full sort does.
#[derive(Debug, PartialEq)]
pub struct SortedRun(Vec<f64>);

impl SortedRun {
    /// The sorted samples.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl SegIndex<f64> for SortedRun {
    fn build(items: &[f64]) -> Self {
        let mut sorted = items.to_vec(); // simlint: allow(hot-path-alloc) — amortized: one sort copy per seal
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        SortedRun(sorted)
    }
}

/// Copy-on-write exact percentile collector.
///
/// Drop-in replacement for [`SampleSet`] in long-lived agents: samples are
/// stored in a [`SegLog`] (immutable `Arc`-shared sealed segments of
/// [`SEG_CAP`](crate::SEG_CAP) entries plus one bounded mutable tail), so
/// cloning the store (the dominant agent cost of
/// `Simulation::checkpoint`/fork) is O(tail) regardless of how many samples
/// the warm prefix accumulated. Each segment's [`SortedRun`] is sorted
/// once, when it seals.
///
/// Statistics are bit-identical to `SampleSet` over the same insertion
/// sequence: `mean` folds in insertion order, `max` replicates the
/// `fold(NEG_INFINITY, f64::max).max(0.0)` quirk, and `percentile` /
/// [`SegSamples::nth_smallest`] select by a k-way merge of the per-segment
/// stable sorts, which reproduces the lazy full stable sort's order
/// (including ties). The one intentional difference: `SampleSet::mean`
/// reflects *sorted* order after a `percentile` call has sorted it in
/// place; `SegSamples::mean` always folds in insertion order.
///
/// # Example
///
/// ```
/// let mut s = simnet::SegSamples::new();
/// for x in 1..=100 {
///     s.push(x as f64);
/// }
/// assert_eq!(s.percentile(0.95), 95.0);
/// let fork = s.clone(); // O(tail): sealed segments are Arc-shared
/// assert_eq!(fork.len(), 100);
/// ```
#[derive(Debug, Default)]
pub struct SegSamples {
    /// The samples in insertion order, each sealed segment indexed by its
    /// stable sort.
    log: SegLog<f64, SortedRun>,
    /// Cached stable sort of the log's tail; valid when `!tail_dirty`.
    tail_sorted: Vec<f64>,
    /// Set by `push`, cleared when `tail_sorted` is rebuilt.
    tail_dirty: bool,
}

// Manual per-field impl (not derived) so simlint's snapshot-complete rule
// can verify every field is carried across a fork.
impl Clone for SegSamples {
    fn clone(&self) -> Self {
        SegSamples {
            log: self.log.clone(),
            tail_sorted: self.tail_sorted.clone(),
            tail_dirty: self.tail_dirty,
        }
    }
}

impl PartialEq for SegSamples {
    fn eq(&self, other: &Self) -> bool {
        // Logical: the sample sequences. The tail-sort cache is derived.
        self.log == other.log
    }
}

/// Cursor into one sorted run during the k-way percentile merge.
///
/// Ordering is by value, tie-broken by `(list, pos)` — i.e. by global
/// insertion order, since runs are stable-sorted and listed oldest first —
/// so the merge reproduces the order of one stable sort over everything.
struct MergeCursor {
    val: f64,
    list: u32,
    pos: u32,
}

impl PartialEq for MergeCursor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeCursor {}

impl PartialOrd for MergeCursor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeCursor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.val
            .partial_cmp(&other.val)
            .expect("NaN sample")
            .then(self.list.cmp(&other.list))
            .then(self.pos.cmp(&other.pos))
    }
}

impl SegSamples {
    /// Creates an empty store with the default segment capacity.
    pub fn new() -> Self {
        SegSamples::default()
    }

    /// Creates an empty store sealing segments at `seg_cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `seg_cap` is zero.
    pub fn with_seg_cap(seg_cap: usize) -> Self {
        SegSamples {
            log: SegLog::with_seg_cap(seg_cap),
            tail_sorted: Vec::new(),
            tail_dirty: false,
        }
    }

    /// Adds one sample. Segmentation is a pure function of the sample
    /// count, so forked and cold stores are structurally identical.
    pub fn push(&mut self, x: f64) {
        self.log.push(x);
        self.tail_dirty = true;
    }

    /// Appends all of `other`'s samples in `other`'s insertion order.
    pub fn merge(&mut self, other: &SegSamples) {
        self.extend(other.iter());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// All samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.log.iter().copied()
    }

    /// Arithmetic mean, folded in insertion order; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.iter().sum::<f64>() / self.len() as f64
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`; `0.0` when empty.
    ///
    /// Matches `SampleSet::percentile` exactly: same rank formula, same
    /// stable ordering of ties.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.len() as f64 * q).ceil() as usize).max(1) - 1;
        self.nth_smallest(rank.min(self.len() - 1))
    }

    /// The sample at `rank` (0-based) of the stable ascending sort —
    /// `nth_smallest(len / 2)` is the upper-median `Profiler` uses.
    ///
    /// Runs a k-way merge over the per-segment seal-time sorts plus the
    /// (lazily sorted, cached) tail: O(min(rank, len - rank) · log
    /// segments), never a full re-sort.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()` or any sample is NaN.
    pub fn nth_smallest(&mut self, rank: usize) -> f64 {
        let n = self.len();
        assert!(rank < n, "rank {rank} out of range for {n} samples");
        if self.tail_dirty {
            self.tail_sorted.clear();
            self.tail_sorted.extend_from_slice(self.log.tail());
            self.tail_sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.tail_dirty = false;
        }
        let runs: Vec<&[f64]> = self
            .log
            .sealed()
            .iter()
            .map(|seg| seg.index().as_slice())
            .chain(std::iter::once(self.tail_sorted.as_slice()))
            .collect();
        if rank <= (n - 1) / 2 {
            Self::select_from_bottom(&runs, rank)
        } else {
            Self::select_from_top(&runs, n - 1 - rank)
        }
    }

    /// Pops the merge `rank + 1` times from the ascending side.
    fn select_from_bottom(runs: &[&[f64]], rank: usize) -> f64 {
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<Reverse<MergeCursor>> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| {
                Reverse(MergeCursor {
                    val: r[0],
                    list: i as u32,
                    pos: 0,
                })
            })
            .collect();
        let mut remaining = rank;
        loop {
            let Reverse(cur) = heap.pop().expect("rank within bounds");
            if remaining == 0 {
                return cur.val;
            }
            remaining -= 1;
            let run = runs[cur.list as usize];
            let next = cur.pos as usize + 1;
            if next < run.len() {
                heap.push(Reverse(MergeCursor {
                    val: run[next],
                    list: cur.list,
                    pos: next as u32,
                }));
            }
        }
    }

    /// Pops the merge `back_rank + 1` times from the descending side.
    /// Ties pop highest `(list, pos)` first — the exact reverse of the
    /// stable ascending order, so both directions agree on every rank.
    fn select_from_top(runs: &[&[f64]], back_rank: usize) -> f64 {
        let mut heap: std::collections::BinaryHeap<MergeCursor> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| MergeCursor {
                val: *r.last().expect("nonempty run"),
                list: i as u32,
                pos: (r.len() - 1) as u32,
            })
            .collect();
        let mut remaining = back_rank;
        loop {
            let cur = heap.pop().expect("rank within bounds");
            if remaining == 0 {
                return cur.val;
            }
            remaining -= 1;
            if cur.pos > 0 {
                let run = runs[cur.list as usize];
                heap.push(MergeCursor {
                    val: run[cur.pos as usize - 1],
                    list: cur.list,
                    pos: cur.pos - 1,
                });
            }
        }
    }

    /// Largest sample; `0.0` when empty (replicates `SampleSet::max`,
    /// including its fold order and the clamp to zero).
    pub fn max(&self) -> f64 {
        self.iter().fold(f64::NEG_INFINITY, f64::max).max(0.0)
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.log.clear();
        self.tail_sorted.clear();
        self.tail_dirty = false;
    }
}

impl Extend<f64> for SegSamples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for SegSamples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = SegSamples::new();
        s.extend(iter);
        s
    }
}

/// Fixed-bin histogram over `[0, upper)` with overflow bin.
///
/// Percentiles are linear-interpolated inside the matched bin; good enough
/// for dashboards over multi-hour simulated runs where [`SampleSet`] would
/// hold hundreds of millions of points.
///
/// # Example
///
/// ```
/// let mut h = simnet::Histogram::new(100.0, 100);
/// for x in 0..100 {
///     h.record(x as f64);
/// }
/// let p50 = h.percentile(0.5);
/// assert!((p50 - 50.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    upper: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram covering `[0, upper)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `upper <= 0` or `bins == 0`.
    pub fn new(upper: f64, bins: usize) -> Self {
        assert!(upper > 0.0, "histogram upper bound must be positive");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            upper,
            bins: vec![0; bins],
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one value. Values `>= upper` land in the overflow bin;
    /// negative values clamp to bin zero.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x >= self.upper {
            self.overflow += 1;
            return;
        }
        let idx = ((x.max(0.0) / self.upper) * self.bins.len() as f64) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile. Returns `upper` when the quantile falls in
    /// the overflow bin, `0.0` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let bin_width = self.upper / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            if seen + c >= target {
                let into = (target - seen) as f64 / c.max(1) as f64;
                return (i as f64 + into) * bin_width;
            }
            seen += c;
        }
        self.upper
    }

    /// Fraction of samples at or above `upper` (the overflow bin).
    pub fn overflow_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.overflow as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seg_store_keeps_insertion_order_and_shares_segments() {
        let mut s: SegLog<(i32, i32)> = SegLog::with_seg_cap(4);
        for i in 0..11 {
            s.push((i, i * 2));
        }
        assert_eq!(s.len(), 11);
        assert_eq!(s.last(), Some(&(10, 20)));
        let items: Vec<(i32, i32)> = s.iter().copied().collect();
        assert_eq!(items, (0..11).map(|i| (i, i * 2)).collect::<Vec<_>>());
        let fork = s.clone();
        assert_eq!(fork, s);
        for (a, b) in s.sealed().iter().zip(fork.sealed()) {
            assert!(std::sync::Arc::ptr_eq(a, b));
        }
        let mut t: SegLog<(i32, i32)> = SegLog::new();
        assert!(t.is_empty());
        assert_eq!(t.last(), None);
        t.extend(s.iter().copied());
        assert_eq!(t, s);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn welford_mean_and_variance() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.std_dev(), 2.0);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty_sides() {
        let mut a = Welford::new();
        a.push(3.0);
        let empty = Welford::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn sample_set_percentiles_are_exact() {
        let mut s: SampleSet = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(s.percentile(0.5), 500.0);
        assert_eq!(s.percentile(0.95), 950.0);
        assert_eq!(s.percentile(1.0), 1000.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn sample_set_empty_behaviour() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn sample_set_push_after_percentile() {
        let mut s = SampleSet::new();
        s.push(10.0);
        assert_eq!(s.percentile(0.5), 10.0);
        s.push(1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn sample_set_with_capacity_behaves_like_new() {
        let mut s = SampleSet::with_capacity(100);
        assert!(s.is_empty());
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.percentile(1.0), 3.0);
    }

    #[test]
    fn sample_set_merge_matches_sequential_pushes() {
        let mut a: SampleSet = [5.0, 1.0, 4.0].into_iter().collect();
        let b: SampleSet = [2.0, 3.0].into_iter().collect();
        let mut all: SampleSet = [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.percentile(0.5), all.percentile(0.5));
        assert_eq!(a.max(), all.max());
        // Merging an empty set is a no-op.
        a.merge(&SampleSet::new());
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn histogram_percentiles_approximate() {
        let mut h = Histogram::new(1000.0, 1000);
        for i in 0..10_000 {
            h.record((i % 1000) as f64);
        }
        assert!((h.percentile(0.5) - 500.0).abs() < 5.0);
        assert!((h.percentile(0.95) - 950.0).abs() < 5.0);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_overflow_and_clamp() {
        let mut h = Histogram::new(10.0, 10);
        h.record(-5.0);
        h.record(50.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow_fraction(), 0.5);
        assert_eq!(h.percentile(1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "upper bound must be positive")]
    fn histogram_rejects_bad_upper() {
        Histogram::new(0.0, 4);
    }

    #[test]
    fn seg_samples_matches_sample_set_statistics() {
        let xs: Vec<f64> = (0..2500).map(|i| ((i * 37) % 1000) as f64 / 7.0).collect();
        let mut seg = SegSamples::new();
        let mut set = SampleSet::new();
        for &x in &xs {
            seg.push(x);
            set.push(x);
        }
        assert_eq!(seg.len(), set.len());
        assert_eq!(seg.mean(), set.mean());
        assert_eq!(seg.max(), set.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(seg.percentile(q), set.percentile(q), "q={q}");
        }
    }

    #[test]
    fn seg_samples_nth_smallest_is_full_sort_rank() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 53) % 97) as f64).collect();
        let mut seg = SegSamples::with_seg_cap(64);
        let mut sorted = xs.clone();
        for &x in &xs {
            seg.push(x);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        for (rank, &expect) in sorted.iter().enumerate() {
            assert_eq!(seg.nth_smallest(rank), expect, "rank={rank}");
        }
    }

    #[test]
    fn seg_samples_empty_behaviour() {
        let mut s = SegSamples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn seg_samples_clone_shares_sealed_segments() {
        let mut s = SegSamples::with_seg_cap(8);
        for i in 0..20 {
            s.push(i as f64);
        }
        let fork = s.clone();
        assert_eq!(fork, s);
        assert_eq!(s.log.sealed().len(), 2);
        for (a, b) in s.log.sealed().iter().zip(fork.log.sealed()) {
            assert!(std::sync::Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn seg_samples_interleaved_push_and_percentile() {
        let mut seg = SegSamples::with_seg_cap(4);
        let mut set = SampleSet::new();
        for i in 0..50 {
            let x = ((i * 29) % 13) as f64;
            seg.push(x);
            set.push(x);
            assert_eq!(seg.percentile(0.5), set.percentile(0.5), "after {i}");
        }
    }

    #[test]
    fn seg_samples_merge_matches_sample_set_merge() {
        let a_items: Vec<f64> = (0..700).map(|i| (i % 31) as f64).collect();
        let b_items: Vec<f64> = (0..900).map(|i| (i % 17) as f64 * 2.0).collect();
        let mut seg: SegSamples = a_items.iter().copied().collect();
        let seg_b: SegSamples = b_items.iter().copied().collect();
        let mut set: SampleSet = a_items.iter().copied().collect();
        let set_b: SampleSet = b_items.iter().copied().collect();
        seg.merge(&seg_b);
        set.merge(&set_b);
        assert_eq!(seg.len(), set.len());
        assert_eq!(seg.mean(), set.mean());
        for q in [0.1, 0.5, 0.95] {
            assert_eq!(seg.percentile(q), set.percentile(q));
        }
        seg.clear();
        assert!(seg.is_empty());
        assert_eq!(seg.percentile(0.5), 0.0);
    }
}
