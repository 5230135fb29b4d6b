//! Property-based tests of the workload generators' invariants.

use callgraph::RequestTypeId;
use proptest::prelude::*;
use simnet::{RngStream, SimDuration, SimTime};
use workload::{BrowsingModel, RateTrace, RequestMix};

proptest! {
    /// Traces: lookups always return one of the configured rates; queries
    /// beyond the end return the final rate.
    #[test]
    fn trace_lookup_total(
        step_s in 1u64..120,
        rates in prop::collection::vec(0.0f64..10_000.0, 1..50),
        t in 0u64..100_000,
    ) {
        let trace = RateTrace::new(SimDuration::from_secs(step_s), rates.clone());
        let r = trace.rate_at(SimTime::from_secs(t));
        prop_assert!(rates.contains(&r));
        let beyond = trace.rate_at(SimTime::from_secs(step_s * rates.len() as u64 + t));
        prop_assert_eq!(beyond, *rates.last().expect("non-empty"));
        prop_assert!(trace.peak() >= r);
    }

    /// The Large Variation generator respects its bounds and is
    /// deterministic per seed.
    #[test]
    fn large_variation_bounded(
        seed in any::<u64>(),
        lo in 0.0f64..1_000.0,
        span in 1.0f64..10_000.0,
    ) {
        let hi = lo + span;
        let t1 = RateTrace::large_variation(seed, SimDuration::from_secs(600), lo, hi);
        let t2 = RateTrace::large_variation(seed, SimDuration::from_secs(600), lo, hi);
        prop_assert_eq!(&t1, &t2);
        for &r in t1.rates() {
            prop_assert!((lo..=hi).contains(&r), "rate {r} outside [{lo}, {hi}]");
        }
    }

    /// Request mixes only ever sample types that are actually in the mix,
    /// with positive weight.
    #[test]
    fn mix_samples_its_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..5.0, 1..10),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let entries: Vec<(RequestTypeId, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (RequestTypeId::new(i as u32), *w))
            .collect();
        let mix = RequestMix::new(entries.clone());
        let mut rng = RngStream::from_seed(seed);
        for _ in 0..100 {
            let rt = mix.sample(&mut rng);
            let w = entries[rt.index()].1;
            prop_assert!(w > 0.0, "sampled zero-weight type {rt}");
        }
    }

    /// Browsing models are structurally sound for any valid shape: every
    /// state maps to its request type.
    #[test]
    fn browsing_model_structure(n in 1usize..8) {
        let types: Vec<RequestTypeId> = (0..n as u32).map(RequestTypeId::new).collect();
        let model = BrowsingModel::uniform(types.clone());
        for (i, rt) in types.iter().enumerate() {
            prop_assert_eq!(model.request_type(i), *rt);
        }
    }
}
