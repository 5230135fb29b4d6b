//! Property-based tests of the simulation kernel's invariants.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simnet::{
    derive_seed, EventQueue, HeapEventQueue, RngStream, SampleSet, SegIndex, SegLog, SegSamples,
    SimDuration, SimTime, SortedRun, Welford,
};

/// Checks a segmented log against its flat `Vec` model: length, layout
/// (full sealed segments plus the tail), every read path, and every sealed
/// segment's seal-time index against a fresh build over its items.
fn check_seg_log(log: &SegLog<f64, SortedRun>, model: &[f64]) -> Result<(), TestCaseError> {
    let cap = log.seg_cap();
    prop_assert_eq!(log.len(), model.len());
    prop_assert_eq!(log.is_empty(), model.is_empty());
    prop_assert_eq!(log.sealed().len(), model.len() / cap);
    prop_assert_eq!(log.tail(), &model[model.len() / cap * cap..]);
    prop_assert_eq!(log.iter().len(), model.len());
    prop_assert_eq!(log.iter().copied().collect::<Vec<_>>(), model.to_vec());
    for (i, x) in model.iter().enumerate() {
        prop_assert_eq!(log[i], *x);
        prop_assert_eq!(log.get(i), Some(x));
    }
    prop_assert_eq!(log.get(model.len()), None);
    prop_assert_eq!(log.last(), model.last());
    for seg in log.sealed() {
        prop_assert_eq!(seg.items().len(), cap);
        prop_assert_eq!(seg.index(), &SortedRun::build(seg.items()));
    }
    Ok(())
}

proptest! {
    /// Differential test: the timing-wheel queue and the reference
    /// binary-heap queue pop bit-identical (time, payload) sequences — and
    /// therefore identical FIFO sequence numbers — for arbitrary
    /// interleaved push/pop programs, including same-instant bursts,
    /// pushes into the cursor's past, and times beyond the wheel span.
    #[test]
    fn event_queue_matches_heap_reference(
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..300),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(wheel.pop(), heap.pop());
                prop_assert_eq!(wheel.len(), heap.len());
                continue;
            }
            // Spread pushes across all wheel levels: same-instant bursts
            // (coarse granularity), sub-second, sub-hour, and beyond the
            // ~19 h wheel span (overflow path). Popping interleaved with
            // small times also exercises pushes behind the wheel cursor.
            let t = match kind % 4 {
                1 => raw % 64,
                2 => raw % 1_000_000,
                3 => raw % 100_000_000_000,
                _ => raw % 3_600_000_000,
            };
            wheel.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
            prop_assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&w, &h);
            if w.is_none() {
                break;
            }
        }
    }

    /// Differential hold model: keep 1-2 k events pending, pop the earliest
    /// and reschedule a successor at the popped time plus an offset from
    /// the kernel's mix (same instant, network hop, service demand,
    /// sampling window, think time). Fixed offsets from equal pop times
    /// make same-time ties, and a sparse population puts several entries
    /// in one 64 µs level-1 bucket, so this drives the sorted level-1
    /// drain the random absolute times above rarely reach.
    #[test]
    fn event_queue_matches_heap_on_hold_model(
        seed in any::<u64>(),
        pending in 1_000u64..2_000,
    ) {
        let mut rng = RngStream::from_seed(seed);
        let mut offset = || -> u64 {
            match rng.below(100) {
                0..=19 => 0,
                20..=49 => 250,
                50..=79 => 1_000 + rng.below(9_001) as u64,
                80..=89 => 100_000,
                _ => 500_000 + rng.below(4_500_001) as u64,
            }
        };
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for i in 0..pending {
            let t = SimTime::from_micros(offset());
            wheel.push(t, i);
            heap.push(t, i);
        }
        for i in pending..pending + 3_000 {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let popped = wheel.pop();
            prop_assert_eq!(popped, heap.pop());
            let (t, _) = popped.expect("the hold model never drains");
            let next = t + SimDuration::from_micros(offset());
            wheel.push(next, i);
            heap.push(next, i);
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(&w, &h);
            if w.is_none() {
                break;
            }
        }
    }

    /// Events always pop in non-decreasing time order, and equal times pop
    /// in push order (FIFO).
    #[test]
    fn event_queue_is_stable_priority_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(*t), (*t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, seq))) = q.pop() {
            prop_assert_eq!(at.as_micros(), t);
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO violated for equal timestamps");
                }
            }
            last = Some((t, seq));
        }
    }

    /// Popping returns exactly the pushed multiset.
    #[test]
    fn event_queue_conserves_events(times in prop::collection::vec(0u64..100, 0..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), t);
        }
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        let mut expected = times.clone();
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Time arithmetic: (t + d) - d == t and (t + d) - t == d.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..1u64 << 40, d in 0u64..1u64 << 40) {
        let t0 = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t0 + dur) - dur, t0);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!((t0 + dur).saturating_since(t0), dur);
        prop_assert_eq!(t0.saturating_since(t0 + dur), SimDuration::ZERO);
    }

    /// Welford merge is equivalent to sequential accumulation, for any
    /// split point.
    #[test]
    fn welford_merge_matches_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                <= 1e-5 * (1.0 + whole.variance().abs())
        );
    }

    /// Percentiles are monotone in the quantile and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let mut s: SampleSet = xs.iter().copied().collect();
        let lo = s.percentile(0.0);
        let p50 = s.percentile(0.5);
        let p95 = s.percentile(0.95);
        let hi = s.percentile(1.0);
        prop_assert!(lo <= p50 && p50 <= p95 && p95 <= hi);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
    }

    /// Differential test: the segmented COW store and the flat reference
    /// collector return bit-identical statistics for arbitrary push/merge
    /// programs, segment capacities, and quantiles.
    #[test]
    fn seg_samples_matches_sample_set(
        chunks in prop::collection::vec(prop::collection::vec(-1e9f64..1e9, 0..40), 1..12),
        seg_cap in 1usize..9,
        qs in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let mut seg = SegSamples::with_seg_cap(seg_cap);
        let mut flat = SampleSet::new();
        for chunk in &chunks {
            // Build each chunk as its own store and merge it in, so the
            // program exercises merge across arbitrary seal phases, not
            // just straight-line pushes.
            let mut sc = SegSamples::with_seg_cap(seg_cap);
            let mut fc = SampleSet::new();
            for &x in chunk {
                sc.push(x);
                fc.push(x);
            }
            seg.merge(&sc);
            flat.merge(&fc);
        }
        prop_assert_eq!(seg.len(), flat.len());
        // Order-sensitive statistics must be compared before any percentile
        // call: `SampleSet::percentile` sorts its samples in place, changing
        // the f64 accumulation order of its mean, while `SegSamples::mean`
        // always folds insertion order.
        prop_assert_eq!(seg.mean(), flat.mean());
        prop_assert_eq!(seg.max(), flat.max());
        for &q in &qs {
            prop_assert_eq!(seg.percentile(q), flat.percentile(q));
        }
        prop_assert_eq!(seg.percentile(0.0), flat.percentile(0.0));
        prop_assert_eq!(seg.percentile(1.0), flat.percentile(1.0));
    }

    /// A forked (cloned) store is fully isolated: pushes to the parent
    /// after the fork never leak into the fork, sealing in the parent
    /// leaves the shared spine of the fork untouched, and both sides keep
    /// matching independent flat references.
    #[test]
    fn seg_samples_fork_is_isolated(
        before in prop::collection::vec(-1e6f64..1e6, 0..60),
        after in prop::collection::vec(-1e6f64..1e6, 1..60),
        seg_cap in 1usize..9,
    ) {
        let mut parent = SegSamples::with_seg_cap(seg_cap);
        let mut flat_before = SampleSet::new();
        for &x in &before {
            parent.push(x);
            flat_before.push(x);
        }
        let mut fork = parent.clone();
        let mut flat_after = flat_before.clone();
        for &x in &after {
            parent.push(x);
            flat_after.push(x);
        }
        prop_assert_eq!(fork.len(), flat_before.len());
        prop_assert_eq!(parent.len(), flat_after.len());
        prop_assert_eq!(fork.mean(), flat_before.mean());
        prop_assert_eq!(parent.mean(), flat_after.mean());
        prop_assert_eq!(fork.percentile(0.5), flat_before.percentile(0.5));
        prop_assert_eq!(parent.percentile(0.5), flat_after.percentile(0.5));
        prop_assert_eq!(fork.percentile(1.0), flat_before.percentile(1.0));
        prop_assert_eq!(parent.percentile(1.0), flat_after.percentile(1.0));
    }

    /// The copy-on-write segmented log against a `Vec` model: push a
    /// random prefix, fork, then push different suffixes to both sides.
    /// Each side keeps matching its own model (reads, layout, seal-time
    /// indexes), every segment sealed before the fork stays physically
    /// shared by both, and clearing one side leaves the other intact.
    #[test]
    fn seg_log_matches_vec_model_across_forks(
        before in prop::collection::vec(-1e6f64..1e6, 0..60),
        parent_after in prop::collection::vec(-1e6f64..1e6, 0..40),
        fork_after in prop::collection::vec(-1e6f64..1e6, 0..40),
        seg_cap in 1usize..9,
    ) {
        let mut parent: SegLog<f64, SortedRun> = SegLog::with_seg_cap(seg_cap);
        prop_assert!(parent.is_empty());
        prop_assert_eq!(parent.last(), None);
        let mut parent_model = Vec::new();
        for &x in &before {
            parent.push(x);
            parent_model.push(x);
        }
        let mut fork = parent.clone();
        prop_assert_eq!(&fork, &parent);
        let shared: Vec<_> = parent.sealed().to_vec();
        let mut fork_model = parent_model.clone();
        for &x in &parent_after {
            parent.push(x);
            parent_model.push(x);
        }
        fork.extend(fork_after.iter().copied());
        fork_model.extend_from_slice(&fork_after);
        for (log, model) in [(&parent, &parent_model), (&fork, &fork_model)] {
            check_seg_log(log, model)?;
            for (old, now) in shared.iter().zip(log.sealed()) {
                prop_assert!(Arc::ptr_eq(old, now), "pre-fork segments must stay shared");
            }
        }
        prop_assert_eq!(parent == fork, parent_model == fork_model);
        // Equality is logical: a log rebuilt item by item, at this or the
        // default segment capacity, equals the original.
        let mut rebuilt = SegLog::with_seg_cap(seg_cap);
        rebuilt.extend(parent.iter().copied());
        prop_assert_eq!(&rebuilt, &parent);
        let cold: SegLog<f64, SortedRun> = parent_model.iter().copied().collect();
        prop_assert_eq!(&cold, &parent);
        fork.clear();
        prop_assert!(fork.is_empty());
        check_seg_log(&fork, &[])?;
        check_seg_log(&parent, &parent_model)?;
    }

    /// RNG streams derived from the same (seed, label) are identical;
    /// different labels diverge quickly.
    #[test]
    fn rng_streams_deterministic_and_label_scoped(seed in any::<u64>()) {
        let mut a = RngStream::from_label(seed, "x");
        let mut b = RngStream::from_label(seed, "x");
        let mut c = RngStream::from_label(seed, "y");
        let va: Vec<u64> = (0..8).map(|_| a.next_seed()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_seed()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_seed()).collect();
        prop_assert_eq!(&va, &vb);
        prop_assert_ne!(&va, &vc);
        prop_assert_ne!(derive_seed(seed, "x"), derive_seed(seed, "y"));
    }

    /// Exponential and lognormal draws are non-negative and finite.
    #[test]
    fn distributions_stay_sane(seed in any::<u64>(), mean in 0.001f64..100.0, cv in 0.0f64..2.0) {
        let mut rng = RngStream::from_seed(seed);
        for _ in 0..50 {
            let e = rng.exp(mean);
            prop_assert!(e.is_finite() && e >= 0.0);
            let l = rng.lognormal_mean_cv(mean, cv);
            prop_assert!(l.is_finite() && l >= 0.0);
        }
    }

    /// Weighted choice only returns indices with positive weight.
    #[test]
    fn weighted_choice_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = RngStream::from_seed(seed);
        for _ in 0..50 {
            let i = rng.weighted_choice(&weights);
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }
}
