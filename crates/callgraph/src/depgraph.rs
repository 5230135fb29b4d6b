//! Aggregated dependency graph and the pairwise-dependency taxonomy.
//!
//! The taxonomy follows Section III-C of the paper:
//!
//! * **Parallel dependency** (Definition I) — two critical paths have
//!   *different* bottleneck microservices but share at least one upstream
//!   microservice. Each path can block the other only by cross-tier queue
//!   overflow into the shared upstream service.
//! * **Sequential dependency** (Definition II) — the bottleneck of one path
//!   is an upstream microservice of the *other* path's bottleneck. The
//!   "upstream" path triggers execution blocking directly; the "downstream"
//!   path needs cross-tier overflow.
//!
//! We additionally distinguish the degenerate strongest case where both
//! paths share the *same* bottleneck service ([`PairwiseDependency::SharedBottleneck`]),
//! which the blackbox profiler observes as persistent interference in both
//! probe orders.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ids::{RequestTypeId, ServiceId};
use crate::path::ExecutionPath;
use crate::topology::Topology;

/// Ground-truth relationship between two critical paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairwiseDependency {
    /// The paths share no microservice: overloading one cannot block the
    /// other.
    None,
    /// Definition I: different bottlenecks, at least one shared upstream
    /// microservice.
    Parallel,
    /// Definition II: `upstream`'s bottleneck service lies upstream of the
    /// other path's bottleneck (on the other path). `upstream` can trigger
    /// an execution blocking effect directly.
    Sequential {
        /// The request type whose bottleneck is the shared upstream
        /// microservice.
        upstream: RequestTypeId,
    },
    /// Both paths bottleneck on the very same microservice; interference is
    /// persistent in both directions.
    SharedBottleneck,
}

impl PairwiseDependency {
    /// `true` for any variant other than [`PairwiseDependency::None`]:
    /// the two paths belong to the same dependency group.
    pub fn is_dependent(self) -> bool {
        !matches!(self, PairwiseDependency::None)
    }

    /// `true` when the classification (ignoring direction) matches
    /// `other` — used to score the blackbox profiler against ground truth.
    pub fn same_kind(self, other: PairwiseDependency) -> bool {
        use PairwiseDependency::*;
        matches!(
            (self, other),
            (None, None)
                | (Parallel, Parallel)
                | (Sequential { .. }, Sequential { .. })
                | (SharedBottleneck, SharedBottleneck)
        )
    }
}

/// Classifies the ground-truth dependency between two critical paths, given
/// where each path's bottleneck sits.
///
/// The bottleneck of each path is its own highest-demand step
/// ([`ExecutionPath::bottleneck_service`]); callers with runtime knowledge
/// (e.g. accounting for replica counts) may classify with overridden
/// bottlenecks via [`classify_pair_filtered`].
///
/// # Example
///
/// ```
/// use callgraph::{classify_pair, ExecutionPath, PairwiseDependency, RequestTypeId, ServiceId};
/// use simnet::SimDuration;
///
/// let ms = SimDuration::from_millis;
/// // Both enter via service 0; bottlenecks are services 1 and 2.
/// let a = ExecutionPath::from_chain(
///     RequestTypeId::new(0),
///     vec![(ServiceId::new(0), ms(1)), (ServiceId::new(1), ms(9))],
/// );
/// let b = ExecutionPath::from_chain(
///     RequestTypeId::new(1),
///     vec![(ServiceId::new(0), ms(1)), (ServiceId::new(2), ms(9))],
/// );
/// assert_eq!(classify_pair(&a, &b), PairwiseDependency::Parallel);
/// ```
pub fn classify_pair(a: &ExecutionPath, b: &ExecutionPath) -> PairwiseDependency {
    classify_pair_filtered(a, a.bottleneck_service(), b, b.bottleneck_service(), |_| {
        true
    })
}

/// [`classify_pair`] with explicitly supplied bottleneck services, restricted
/// to *blockable* services: a shared microservice can only relay blocking
/// between the two paths if `is_blockable(service)` — frontend gateways
/// with effectively unbounded worker pools never fill up and therefore
/// never merge dependency groups, even though every path traverses them.
///
/// # Panics
///
/// Panics if a supplied bottleneck service is not on its path.
pub fn classify_pair_filtered(
    a: &ExecutionPath,
    bottleneck_a: ServiceId,
    b: &ExecutionPath,
    bottleneck_b: ServiceId,
    is_blockable: impl Fn(ServiceId) -> bool,
) -> PairwiseDependency {
    assert!(
        a.position(bottleneck_a).is_some(),
        "bottleneck_a must lie on path a"
    );
    assert!(
        b.position(bottleneck_b).is_some(),
        "bottleneck_b must lie on path b"
    );

    let shared: Vec<ServiceId> = a
        .shared_services(b)
        .into_iter()
        .filter(|s| is_blockable(*s))
        .collect();
    if shared.is_empty() {
        return PairwiseDependency::None;
    }
    if bottleneck_a == bottleneck_b {
        return PairwiseDependency::SharedBottleneck;
    }

    // Definition II, generalised: a path whose bottleneck microservice
    // lies anywhere on the other path can trigger an execution blocking
    // effect over it — saturating that service stalls the victim's
    // requests in place regardless of whether it sits upstream or
    // downstream of the victim's own bottleneck. (In the paper's chain
    // examples the shared segment is upstream, hence the "upstream path"
    // terminology; the `upstream` field names the execution-blocking
    // side.)
    let a_blocks_b = b.position(bottleneck_a).is_some();
    let b_blocks_a = a.position(bottleneck_b).is_some();
    if a_blocks_b && b_blocks_a {
        // Each bottleneck lies on the other's path: interference is
        // persistent in both probe orders, indistinguishable from a
        // shared bottleneck for the attacker.
        return PairwiseDependency::SharedBottleneck;
    }
    if a_blocks_b {
        return PairwiseDependency::Sequential {
            upstream: a.request_type(),
        };
    }
    if b_blocks_a {
        return PairwiseDependency::Sequential {
            upstream: b.request_type(),
        };
    }

    // Definition I: different bottlenecks, but a microservice shared
    // upstream of both bottlenecks lets either path block the other via
    // cross-tier queue overflow.
    let pos_a = a.position(bottleneck_a).expect("checked above");
    let pos_b = b.position(bottleneck_b).expect("checked above");
    let shares_upstream = shared.iter().any(|s| {
        a.position(*s).is_some_and(|p| p < pos_a) && b.position(*s).is_some_and(|p| p < pos_b)
    });
    if shares_upstream {
        return PairwiseDependency::Parallel;
    }

    // Shared services exist only at/below the bottlenecks in positions that
    // cannot relay blocking to the other path's traffic before its own
    // bottleneck: treat as independent.
    PairwiseDependency::None
}

/// Aggregated upstream→downstream call edges over all request types of a
/// topology — the administrator's service dependency graph (Fig 12a).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DependencyGraph {
    edges: BTreeSet<(ServiceId, ServiceId)>,
    /// For every service: which request types visit it.
    visitors: BTreeMap<ServiceId, BTreeSet<RequestTypeId>>,
}

impl DependencyGraph {
    /// Builds the graph from a topology.
    pub fn from_topology(topology: &Topology) -> Self {
        let mut edges = BTreeSet::new();
        let mut visitors: BTreeMap<ServiceId, BTreeSet<RequestTypeId>> = BTreeMap::new();
        for rt in topology.request_types() {
            let mut prev: Option<ServiceId> = None;
            for step in &rt.steps {
                visitors.entry(step.service).or_default().insert(rt.id);
                if let Some(up) = prev {
                    edges.insert((up, step.service));
                }
                prev = Some(step.service);
            }
        }
        DependencyGraph { edges, visitors }
    }

    /// All `(upstream, downstream)` call edges.
    pub fn edges(&self) -> impl Iterator<Item = (ServiceId, ServiceId)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of distinct call edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` when `up` directly calls `down` on some path.
    pub fn has_edge(&self, up: ServiceId, down: ServiceId) -> bool {
        self.edges.contains(&(up, down))
    }

    /// Request types that visit `service`.
    pub fn visitors(&self, service: ServiceId) -> impl Iterator<Item = RequestTypeId> + '_ {
        self.visitors
            .get(&service)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Services visited by more than one request type — the paper's
    /// "hotspot" / overlapped microservices.
    pub fn shared_services(&self) -> Vec<ServiceId> {
        self.visitors
            .iter()
            .filter(|(_, v)| v.len() > 1)
            .map(|(s, _)| *s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServiceSpec;
    use crate::topology::TopologyBuilder;
    use simnet::SimDuration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn chain(rt: u32, steps: &[(u32, u64)]) -> ExecutionPath {
        ExecutionPath::from_chain(
            RequestTypeId::new(rt),
            steps
                .iter()
                .map(|&(s, d)| (ServiceId::new(s), ms(d)))
                .collect(),
        )
    }

    #[test]
    fn disjoint_paths_are_independent() {
        let a = chain(0, &[(0, 1), (1, 9)]);
        let b = chain(1, &[(2, 1), (3, 9)]);
        assert_eq!(classify_pair(&a, &b), PairwiseDependency::None);
    }

    #[test]
    fn shared_upstream_different_bottlenecks_is_parallel() {
        // Fig 6a: both enter svc0, bottlenecks differ (svc1 vs svc2).
        let a = chain(0, &[(0, 1), (1, 9)]);
        let b = chain(1, &[(0, 1), (2, 9)]);
        assert_eq!(classify_pair(&a, &b), PairwiseDependency::Parallel);
    }

    #[test]
    fn bottleneck_upstream_of_other_is_sequential() {
        // Fig 6b: a's bottleneck (svc1) is an upstream microservice on b's
        // path, upstream of b's bottleneck (svc2).
        let a = chain(0, &[(0, 1), (1, 9)]);
        let b = chain(1, &[(0, 1), (1, 2), (2, 9)]);
        assert_eq!(
            classify_pair(&a, &b),
            PairwiseDependency::Sequential {
                upstream: RequestTypeId::new(0)
            }
        );
        // Symmetric call order gives the same upstream path.
        assert_eq!(
            classify_pair(&b, &a),
            PairwiseDependency::Sequential {
                upstream: RequestTypeId::new(0)
            }
        );
    }

    #[test]
    fn same_bottleneck_is_shared() {
        let a = chain(0, &[(0, 1), (1, 9)]);
        let b = chain(1, &[(2, 1), (1, 9)]);
        assert_eq!(classify_pair(&a, &b), PairwiseDependency::SharedBottleneck);
    }

    #[test]
    fn sharing_only_below_bottlenecks_is_independent() {
        // Shared leaf svc3 sits strictly downstream of both bottlenecks:
        // saturating it is not what either path's attack would do, and
        // neither bottleneck relays into the other path.
        let a = chain(0, &[(0, 9), (3, 1)]);
        let b = chain(1, &[(2, 9), (3, 1)]);
        assert_eq!(classify_pair(&a, &b), PairwiseDependency::None);
    }

    #[test]
    fn explicit_bottleneck_override() {
        let a = chain(0, &[(0, 1), (1, 9)]);
        let b = chain(1, &[(0, 1), (2, 9)]);
        // Pretend runtime scaling moved b's true bottleneck to the gateway:
        // then a's path shares b's bottleneck service upstream of a's own.
        let dep = classify_pair_filtered(&a, ServiceId::new(1), &b, ServiceId::new(0), |_| true);
        assert_eq!(
            dep,
            PairwiseDependency::Sequential {
                upstream: RequestTypeId::new(1)
            }
        );
    }

    #[test]
    #[should_panic(expected = "must lie on path")]
    fn bottleneck_off_path_panics() {
        let a = chain(0, &[(0, 1)]);
        let b = chain(1, &[(0, 1)]);
        classify_pair_filtered(&a, ServiceId::new(7), &b, ServiceId::new(0), |_| true);
    }

    #[test]
    fn is_dependent_and_same_kind() {
        assert!(!PairwiseDependency::None.is_dependent());
        assert!(PairwiseDependency::Parallel.is_dependent());
        assert!(PairwiseDependency::Sequential {
            upstream: RequestTypeId::new(0)
        }
        .is_dependent());
        assert!(PairwiseDependency::Sequential {
            upstream: RequestTypeId::new(0)
        }
        .same_kind(PairwiseDependency::Sequential {
            upstream: RequestTypeId::new(5)
        }));
        assert!(!PairwiseDependency::Parallel.same_kind(PairwiseDependency::None));
    }

    #[test]
    fn dependency_graph_from_topology() {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw"));
        let x = b.add_service(ServiceSpec::new("x"));
        let y = b.add_service(ServiceSpec::new("y"));
        b.add_request_type("rx", vec![(gw, ms(1)), (x, ms(5))]);
        b.add_request_type("ry", vec![(gw, ms(1)), (y, ms(5))]);
        let topo = b.build();
        let g = topo.dependency_graph();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(gw, x));
        assert!(g.has_edge(gw, y));
        assert!(!g.has_edge(x, y));
        assert_eq!(g.shared_services(), vec![gw]);
        assert_eq!(g.visitors(gw).count(), 2);
        assert_eq!(g.visitors(x).count(), 1);
    }
}
