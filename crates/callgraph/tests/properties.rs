//! Property-based tests of the graph substrate's invariants.

use callgraph::{
    classify_pair, DependencyGroups, DisjointSets, ExecutionHistory, ExecutionPath,
    PairwiseDependency, RequestTypeId, ServiceId,
};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};

/// Strategy: a random chain over a small service universe.
fn chain_strategy() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..12, 1u64..30), 1..6)
}

fn dedup_chain(raw: Vec<(u32, u64)>) -> Vec<(ServiceId, SimDuration)> {
    // A path visits each service at most once (chains, not cycles).
    let mut seen = std::collections::BTreeSet::new();
    raw.into_iter()
        .filter(|(s, _)| seen.insert(*s))
        .map(|(s, d)| (ServiceId::new(s), SimDuration::from_millis(d)))
        .collect()
}

proptest! {
    /// Pairwise classification is symmetric up to the `upstream` tag:
    /// classify(a, b) and classify(b, a) agree on the kind, and a
    /// sequential upstream is the same path either way.
    #[test]
    fn classification_is_orientation_invariant(
        raw_a in chain_strategy(),
        raw_b in chain_strategy(),
    ) {
        let ca = dedup_chain(raw_a);
        let cb = dedup_chain(raw_b);
        prop_assume!(!ca.is_empty() && !cb.is_empty());
        let a = ExecutionPath::from_chain(RequestTypeId::new(0), ca);
        let b = ExecutionPath::from_chain(RequestTypeId::new(1), cb);
        let ab = classify_pair(&a, &b);
        let ba = classify_pair(&b, &a);
        prop_assert!(ab.same_kind(ba), "{ab:?} vs {ba:?}");
        if let (
            PairwiseDependency::Sequential { upstream: u1 },
            PairwiseDependency::Sequential { upstream: u2 },
        ) = (ab, ba)
        {
            prop_assert_eq!(u1, u2);
        }
    }

    /// Paths with no shared services are never dependent; paths sharing
    /// their bottleneck service are always dependent.
    #[test]
    fn sharing_rules(raw_a in chain_strategy(), raw_b in chain_strategy()) {
        let ca = dedup_chain(raw_a);
        let cb = dedup_chain(raw_b);
        prop_assume!(!ca.is_empty() && !cb.is_empty());
        let a = ExecutionPath::from_chain(RequestTypeId::new(0), ca);
        let b = ExecutionPath::from_chain(RequestTypeId::new(1), cb);
        let dep = classify_pair(&a, &b);
        if a.shared_services(&b).is_empty() {
            prop_assert_eq!(dep, PairwiseDependency::None);
        }
        if a.bottleneck_service() == b.bottleneck_service() {
            prop_assert_eq!(dep, PairwiseDependency::SharedBottleneck);
        }
    }

    /// Dependency groups partition the request types: every type is in
    /// exactly one group, and dependent pairs are co-grouped.
    #[test]
    fn groups_form_a_partition(chains in prop::collection::vec(chain_strategy(), 1..8)) {
        let mut paths = Vec::new();
        for (i, raw) in chains.into_iter().enumerate() {
            let c = dedup_chain(raw);
            if c.is_empty() {
                continue;
            }
            paths.push(ExecutionPath::from_chain(RequestTypeId::new(i as u32), c));
        }
        prop_assume!(!paths.is_empty());
        let groups = DependencyGroups::from_ground_truth(&paths);
        // Partition: each member appears exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for g in groups.groups() {
            for rt in g {
                prop_assert!(seen.insert(*rt), "{rt} in two groups");
            }
        }
        prop_assert_eq!(seen.len(), paths.len());
        // Dependent pairs share a group.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                let (a, b) = (paths[i].request_type(), paths[j].request_type());
                if groups.pairwise(a, b).is_dependent() {
                    prop_assert_eq!(groups.group_of(a), groups.group_of(b));
                }
            }
        }
    }

    /// Union–find: connectivity is reflexive/symmetric/transitive and
    /// group count matches.
    #[test]
    fn disjoint_sets_equivalence(
        n in 1usize..30,
        unions in prop::collection::vec((0usize..30, 0usize..30), 0..40),
    ) {
        let mut ds = DisjointSets::new(n);
        for (a, b) in unions {
            if a < n && b < n {
                ds.union(a, b);
            }
        }
        let groups = ds.groups();
        prop_assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), n);
        prop_assert_eq!(groups.len(), ds.num_sets());
        for g in &groups {
            for &x in g {
                prop_assert!(ds.connected(g[0], x));
            }
        }
        // Elements of different groups are not connected.
        if groups.len() >= 2 {
            prop_assert!(!ds.connected(groups[0][0], groups[1][0]));
        }
    }

    /// Critical-path extraction: the path starts at the root, each hop is
    /// a parent→child edge, and its latency never exceeds the root span.
    #[test]
    fn critical_path_is_a_root_chain(spans in prop::collection::vec((0u64..100, 1u64..100), 1..20)) {
        let mut h = ExecutionHistory::new();
        let mut ids = Vec::new();
        for (i, (start, len)) in spans.iter().enumerate() {
            // Parent: random-ish but always an earlier span (or root).
            let parent = if i == 0 { None } else { Some(ids[(i * 7) % i]) };
            let id = h.record(
                parent,
                ServiceId::new((i % 5) as u32),
                SimTime::from_millis(*start),
                SimTime::from_millis(start + len),
            );
            ids.push(id);
        }
        let cp = h.critical_path().expect("root exists");
        let chain = cp.spans();
        prop_assert_eq!(chain[0].id, ids[0], "starts at the root");
        for w in chain.windows(2) {
            prop_assert_eq!(w[1].parent, Some(w[0].id), "consecutive spans are parent/child");
        }
    }

    /// The bottleneck step is the max-demand step and splits the path.
    #[test]
    fn bottleneck_invariants(raw in chain_strategy()) {
        let c = dedup_chain(raw);
        prop_assume!(!c.is_empty());
        let p = ExecutionPath::from_chain(RequestTypeId::new(0), c.clone());
        let max_demand = c.iter().map(|(_, d)| *d).max().expect("non-empty");
        prop_assert_eq!(p.bottleneck_demand(), max_demand);
        prop_assert_eq!(
            p.upstream_of_bottleneck().len() + 1 + p.downstream_of_bottleneck().len(),
            p.len()
        );
        let total: u64 = c.iter().map(|(_, d)| d.as_micros()).sum();
        prop_assert_eq!(p.total_demand().as_micros(), total);
    }
}
