//! Online statistics used throughout the workspace.
//!
//! * [`Welford`] — numerically stable streaming mean/variance, O(1) memory.
//! * [`select_percentiles`] — the one exact-percentile path: nearest-rank
//!   quantiles (the paper reports p95/p99 latencies) selected in place,
//!   O(n) per query.
//! * [`SegSamples`] — a copy-on-write sample journal over a [`SegLog`], so
//!   snapshot/fork cost is O(tail); its quantiles copy and select.

use crate::seglog::SegLog;

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

/// The 0-based index of the nearest-rank `q`-quantile among `len` sorted
/// samples: `ceil(len · q) − 1`, clamped to `[0, len − 1]`, with `q`
/// clamped to `[0, 1]`.
///
/// # Example
///
/// ```
/// assert_eq!(simnet::nearest_rank(100, 0.95), 94);
/// assert_eq!(simnet::nearest_rank(100, 0.0), 0);
/// assert_eq!(simnet::nearest_rank(100, 1.0), 99);
/// ```
///
/// # Panics
///
/// Panics if `len` is zero.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "nearest rank of an empty sample");
    let q = q.clamp(0.0, 1.0);
    (((len as f64 * q).ceil() as usize).max(1) - 1).min(len - 1)
}

/// Ascending order of samples; a NaN sample has no place in it.
fn by_value(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("NaN sample")
}

/// Exact nearest-rank quantiles (see [`nearest_rank`]) of `samples`, `qs`
/// ascending; all `0.0` when `samples` is empty.
///
/// Selects each rank in place (`select_nth_unstable_by`, O(n)), leaving
/// the samples permuted around it, so read any order-sensitive statistic
/// (a mean, say) first. The first rank is selected over all samples; each
/// later one only in the suffix right of the previous rank, where every
/// sample is ≥ it, so p95 + p99 cost about 1.05 passes instead of two.
///
/// Each answer is bit-identical to indexing a sorted copy: the
/// nearest-rank element is the same in every ascending order, and samples
/// that compare equal are bit-identical except `+0.0` and `−0.0`, which
/// only a set holding both can tell apart. (Latencies are whole
/// microseconds converted to milliseconds, never `−0.0`.)
///
/// # Example
///
/// ```
/// let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
/// assert_eq!(simnet::select_percentiles(&mut xs, [0.5, 0.95, 0.99]), [50.0, 95.0, 99.0]);
/// assert_eq!(simnet::select_percentiles(&mut [], [0.5]), [0.0]);
/// ```
///
/// # Panics
///
/// Panics if a `q` has a lower rank than the one before it (`qs` not
/// ascending) or any sample is NaN.
pub fn select_percentiles<const N: usize>(samples: &mut [f64], qs: [f64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    if samples.is_empty() {
        return out;
    }
    let mut lo = 0;
    for (slot, q) in out.iter_mut().zip(qs) {
        let rank = nearest_rank(samples.len(), q);
        assert!(rank >= lo, "percentiles: quantiles must be ascending");
        *slot = *samples[lo..].select_nth_unstable_by(rank - lo, by_value).1;
        lo = rank;
    }
    out
}

/// Copy-on-write sample journal for long-lived agents.
///
/// Samples are stored in a [`SegLog`] (immutable `Arc`-shared sealed
/// segments of [`SEG_CAP`](crate::SEG_CAP) entries plus one bounded
/// mutable tail), so cloning the store (the dominant agent cost of
/// `Simulation::checkpoint`/fork) is O(tail) regardless of how many samples
/// the warm prefix accumulated. Quantile queries are rare (a handful per
/// run), so they copy the samples and select the rank in place, as
/// [`select_percentiles`] does: O(n) each, with nothing kept between
/// queries.
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegSamples(SegLog<f64>);

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
        SegSamples(SegLog::with_seg_cap(seg_cap))
    }

    /// Adds one sample. Segmentation is a pure function of the sample
    /// count, so forked and cold stores are structurally identical.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// All samples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    /// The `q`-quantile (nearest-rank, see [`nearest_rank`]), `q` in
    /// `[0, 1]`; `0.0` when empty. Same answer as [`select_percentiles`].
    pub fn percentile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.nth_smallest(nearest_rank(self.len(), q))
    }

    /// The sample at `rank` (0-based) in ascending order —
    /// `nth_smallest(len / 2)` is the upper median `Profiler` uses.
    /// Copies the samples and selects: O(n).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()` or any sample is NaN.
    pub fn nth_smallest(&self, rank: usize) -> f64 {
        let n = self.len();
        assert!(rank < n, "rank {rank} out of range for {n} samples");
        let mut samples: Vec<f64> = self.iter().collect();
        *samples.select_nth_unstable_by(rank, by_value).1
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
    }

    #[test]
    fn welford_mean_and_variance() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
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

    /// The oracle: `xs` stably sorted ascending.
    fn sorted(xs: &[f64]) -> Vec<f64> {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        sorted
    }

    #[test]
    fn select_percentiles_are_exact() {
        let mut xs: Vec<f64> = (1..=1000).map(|i| ((i * 389) % 1000 + 1) as f64).collect();
        assert_eq!(select_percentiles(&mut xs, [0.5]), [500.0]);
        assert_eq!(select_percentiles(&mut xs, [0.95]), [950.0]);
        assert_eq!(select_percentiles(&mut xs, [1.0, 1.0]), [1000.0, 1000.0]);
        assert_eq!(
            select_percentiles(&mut xs, [0.0, 0.5, 0.95, 0.95, 1.0]),
            [1.0, 500.0, 950.0, 950.0, 1000.0]
        );
        assert_eq!(sorted(&xs), (1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(select_percentiles(&mut [], [0.95, 0.99]), [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn select_percentiles_reject_descending_quantiles() {
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        select_percentiles(&mut xs, [0.99, 0.5]);
    }

    #[test]
    fn nearest_rank_clamps_to_the_sample() {
        assert_eq!(nearest_rank(1, 0.0), 0);
        assert_eq!(nearest_rank(1, 1.0), 0);
        assert_eq!(nearest_rank(20, 0.95), 18);
        assert_eq!(nearest_rank(20, 0.951), 19);
        assert_eq!(nearest_rank(20, -3.0), 0);
        assert_eq!(nearest_rank(20, 7.0), 19);
    }

    #[test]
    fn seg_samples_percentiles_match_sorted_copy() {
        let xs: Vec<f64> = (0..2500).map(|i| ((i * 37) % 1000) as f64 / 7.0).collect();
        let mut seg = SegSamples::new();
        for &x in &xs {
            seg.push(x);
        }
        assert_eq!(seg.len(), xs.len());
        assert_eq!(seg.iter().collect::<Vec<_>>(), xs);
        let oracle = sorted(&xs);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let want = oracle[nearest_rank(xs.len(), q)];
            assert_eq!(seg.percentile(q), want, "q={q}");
        }
    }

    #[test]
    fn seg_samples_nth_smallest_is_full_sort_rank() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 53) % 97) as f64).collect();
        let mut seg = SegSamples::with_seg_cap(64);
        for &x in &xs {
            seg.push(x);
        }
        for (rank, &expect) in sorted(&xs).iter().enumerate() {
            assert_eq!(seg.nth_smallest(rank), expect, "rank={rank}");
        }
    }

    #[test]
    fn seg_samples_empty_behaviour() {
        let s = SegSamples::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn seg_samples_clone_shares_sealed_segments() {
        let mut s = SegSamples::with_seg_cap(8);
        for i in 0..20 {
            s.push(i as f64);
        }
        let fork = s.clone();
        assert_eq!(fork, s);
        assert_eq!(s.0.sealed().len(), 2);
        for (a, b) in s.0.sealed().iter().zip(fork.0.sealed()) {
            assert!(std::sync::Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn seg_samples_interleaved_push_and_percentile() {
        let mut seg = SegSamples::with_seg_cap(4);
        let mut xs = Vec::new();
        for i in 0..50 {
            let x = ((i * 29) % 13) as f64;
            seg.push(x);
            xs.push(x);
            let want = sorted(&xs)[nearest_rank(xs.len(), 0.5)];
            assert_eq!(seg.percentile(0.5), want, "after {i}");
        }
    }
}
