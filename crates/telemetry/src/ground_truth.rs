//! Ground-truth dependency extraction — the administrator's view.
//!
//! The paper's live-attack experiments (Section V-C) took ground truth from
//! Jaeger traces and Collectl resource data. Here the administrator knows
//! the deployment, so [`GroundTruth::from_topology`] derives it directly:
//! it attributes each request type's effective bottleneck by capacity and
//! classifies every pair of request types with the taxonomy of
//! Definitions I/II by the *physical blocking* analysis of Section III.
//! The result is the reference against which the blackbox profiler's
//! output is scored (precision / recall / F-score, Fig 16).

use std::collections::BTreeMap;

use callgraph::{
    DependencyGroups, ExecutionPath, PairwiseDependency, RequestTypeId, ServiceId, Topology,
};

/// The administrator's view of who bottlenecks where and which paths
/// depend on which.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    paths: Vec<ExecutionPath>,
    bottlenecks: BTreeMap<RequestTypeId, ServiceId>,
    groups: DependencyGroups,
}

impl GroundTruth {
    /// Derives ground truth from the deployment model: the *physical
    /// blocking* analysis of Section III applied to the static topology.
    ///
    /// For each path the effective bottleneck is the step with the lowest
    /// capacity (`cores * replicas / demand`). A burst on path X blocks a
    /// victim path Y when they share a blockable service where X\'s queues
    /// actually accumulate:
    ///
    /// * X\'s **first blockable service** — the backlog there is unbounded
    ///   (waiters hold no upstream resource), so any sharer is blocked; or
    /// * a service `S` between that and X\'s bottleneck `j`, where the
    ///   victim\'s wait is the slot-stack drain time
    ///   `(Σ pools from S down to j) / C_j` (the cross-tier cascade of
    ///   Equation (3)); sharing blocks when this exceeds a detectability
    ///   threshold (~100 ms).
    ///
    /// Pair labels follow the taxonomy: both bottlenecks hitting the other
    /// path → shared bottleneck; one → sequential (that side is the
    /// execution blocker); mutual blocking only through upstream pools →
    /// parallel.
    pub fn from_topology(topology: &Topology) -> Self {
        let paths = topology.paths();
        let bottlenecks: BTreeMap<RequestTypeId, ServiceId> = paths
            .iter()
            .map(|p| {
                (
                    p.request_type(),
                    effective_bottleneck(topology, p).unwrap_or_else(|| p.bottleneck_service()),
                )
            })
            .collect();
        let groups = physical_groups(topology, &paths, &bottlenecks);
        GroundTruth {
            paths,
            bottlenecks,
            groups,
        }
    }

    /// The execution paths, in request-type order.
    pub fn paths(&self) -> &[ExecutionPath] {
        &self.paths
    }

    /// The attributed bottleneck service of a request type.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is unknown.
    pub fn bottleneck(&self, rt: RequestTypeId) -> ServiceId {
        self.bottlenecks[&rt]
    }

    /// The pairwise classification between two request types.
    pub fn pairwise(&self, a: RequestTypeId, b: RequestTypeId) -> PairwiseDependency {
        self.groups.pairwise(a, b)
    }

    /// The dependency groups.
    pub fn groups(&self) -> &DependencyGroups {
        &self.groups
    }
}

/// Victim waits shorter than this are considered undetectable /
/// non-blocking (well inside normal response-time jitter).
const DETECTABLE_DELAY_S: f64 = 0.1;

/// Capacity of a path step: `cores * replicas / demand` (req/s).
fn step_capacity(topology: &Topology, path: &ExecutionPath, idx: usize) -> f64 {
    let step = &path.steps()[idx];
    let spec = topology.service(step.service);
    let demand = step.demand.as_secs_f64();
    if demand <= 0.0 {
        return f64::INFINITY;
    }
    f64::from(spec.cores) * f64::from(spec.replicas) / demand
}

/// The effective bottleneck of a path: the blockable step with the lowest
/// capacity. `None` when no step is blockable.
fn effective_bottleneck(topology: &Topology, path: &ExecutionPath) -> Option<ServiceId> {
    let mut best: Option<(f64, ServiceId)> = None;
    for i in 0..path.len() {
        let svc = path.steps()[i].service;
        if !topology.service(svc).blockable {
            continue;
        }
        let c = step_capacity(topology, path, i);
        if best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, svc));
        }
    }
    best.map(|(_, s)| s)
}

/// Whether a burst on `x` (bottlenecking at `j_x`) blocks requests of `y`
/// detectably: see [`GroundTruth::from_topology`].
fn blocks(topology: &Topology, x: &ExecutionPath, j_x: ServiceId, y: &ExecutionPath) -> bool {
    let Some(j_pos) = x.position(j_x) else {
        return false;
    };
    let first_blockable = (0..x.len()).find(|&i| topology.service(x.steps()[i].service).blockable);
    let Some(fb) = first_blockable else {
        return false;
    };
    let c_j = step_capacity(topology, x, j_pos);
    for p in fb..=j_pos.max(fb) {
        let svc = x.steps()[p].service;
        if !topology.service(svc).blockable || !y.visits(svc) {
            continue;
        }
        if p == fb {
            // Unbounded backlog at the first blockable service.
            return true;
        }
        // Slot stack between the shared service and the bottleneck drains
        // at the bottleneck\'s rate.
        let stacked: f64 = (p..=j_pos)
            .map(|i| {
                let spec = topology.service(x.steps()[i].service);
                f64::from(spec.threads) * f64::from(spec.replicas)
            })
            .sum();
        if c_j > 0.0 && stacked / c_j >= DETECTABLE_DELAY_S {
            return true;
        }
    }
    false
}

/// Builds the pairwise classification and groups from the physical model.
fn physical_groups(
    topology: &Topology,
    paths: &[ExecutionPath],
    bottlenecks: &BTreeMap<RequestTypeId, ServiceId>,
) -> DependencyGroups {
    let mut pairwise = BTreeMap::new();
    for i in 0..paths.len() {
        for k in (i + 1)..paths.len() {
            let (x, y) = (&paths[i], &paths[k]);
            let (j_x, j_y) = (
                bottlenecks[&x.request_type()],
                bottlenecks[&y.request_type()],
            );
            let x_blocks = blocks(topology, x, j_x, y);
            let y_blocks = blocks(topology, y, j_y, x);
            let x_j_hits = x_blocks && y.visits(j_x);
            let y_j_hits = y_blocks && x.visits(j_y);
            let dep = match (x_j_hits, y_j_hits) {
                (true, true) => PairwiseDependency::SharedBottleneck,
                (true, false) => PairwiseDependency::Sequential {
                    upstream: x.request_type(),
                },
                (false, true) => PairwiseDependency::Sequential {
                    upstream: y.request_type(),
                },
                (false, false) => {
                    if x_blocks || y_blocks {
                        PairwiseDependency::Parallel
                    } else {
                        PairwiseDependency::None
                    }
                }
            };
            pairwise.insert((x.request_type(), y.request_type()), dep);
        }
    }
    DependencyGroups::from_pairwise(
        paths
            .iter()
            .map(callgraph::ExecutionPath::request_type)
            .collect(),
        pairwise,
    )
}

/// Precision / recall / F-score of an *estimated* pairwise classification
/// against ground truth, over the "dependent or not" binary relation —
/// the Fig 16 metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerScore {
    /// True positives: pairs dependent in both.
    pub tp: usize,
    /// False positives: estimated dependent, truly independent.
    pub fp: usize,
    /// False negatives: estimated independent, truly dependent.
    pub fn_: usize,
    /// Pairs whose dependency *kind* also matches (among true positives).
    pub kind_matches: usize,
}

impl ProfilerScore {
    /// Scores `estimated` against `truth` over all pairs of `members`.
    pub fn compute(
        members: &[RequestTypeId],
        truth: &GroundTruth,
        estimated: &DependencyGroups,
    ) -> Self {
        let mut score = ProfilerScore {
            tp: 0,
            fp: 0,
            fn_: 0,
            kind_matches: 0,
        };
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let t = truth.pairwise(members[i], members[j]);
                let e = estimated.pairwise(members[i], members[j]);
                match (t.is_dependent(), e.is_dependent()) {
                    (true, true) => {
                        score.tp += 1;
                        if t.same_kind(e) {
                            score.kind_matches += 1;
                        }
                    }
                    (false, true) => score.fp += 1,
                    (true, false) => score.fn_ += 1,
                    (false, false) => {}
                }
            }
        }
        score
    }

    /// Precision: `tp / (tp + fp)`; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: `tp / (tp + fn)`; 1.0 when nothing was there to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f_score(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{ServiceSpec, TopologyBuilder};
    use simnet::SimDuration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(64).demand_cv(0.0));
        let x = b.add_service(ServiceSpec::new("x").threads(32).demand_cv(0.0));
        let y = b.add_service(ServiceSpec::new("y").threads(32).demand_cv(0.0));
        let z = b.add_service(ServiceSpec::new("z").threads(32).demand_cv(0.0));
        b.add_request_type("rx", vec![(gw, ms(1)), (x, ms(8))]);
        b.add_request_type("ry", vec![(gw, ms(1)), (y, ms(8))]);
        b.add_request_type("rz", vec![(z, ms(1)), (z, ms(1))]); // isolated
        b.build()
    }

    #[test]
    fn static_ground_truth_matches_paths() {
        let t = topo();
        let gt = GroundTruth::from_topology(&t);
        assert_eq!(gt.bottleneck(RequestTypeId::new(0)), ServiceId::new(1));
        assert_eq!(gt.bottleneck(RequestTypeId::new(1)), ServiceId::new(2));
        assert_eq!(
            gt.pairwise(RequestTypeId::new(0), RequestTypeId::new(1)),
            PairwiseDependency::Parallel
        );
        assert_eq!(gt.groups().len(), 2);
    }

    #[test]
    fn perfect_profiler_scores_one() {
        let t = topo();
        let gt = GroundTruth::from_topology(&t);
        let members: Vec<RequestTypeId> = (0..3).map(RequestTypeId::new).collect();
        let score = ProfilerScore::compute(&members, &gt, gt.groups());
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
        assert_eq!(score.f_score(), 1.0);
        assert_eq!(score.kind_matches, score.tp);
    }

    #[test]
    fn wrong_profiler_scores_below_one() {
        let t = topo();
        let gt = GroundTruth::from_topology(&t);
        let members: Vec<RequestTypeId> = (0..3).map(RequestTypeId::new).collect();
        // An estimator that claims nothing is dependent: recall suffers.
        let empty =
            DependencyGroups::from_pairwise(members.clone(), std::collections::BTreeMap::new());
        let score = ProfilerScore::compute(&members, &gt, &empty);
        assert_eq!(score.recall(), 0.0);
        assert_eq!(score.precision(), 1.0, "no predictions, no false alarms");
        assert_eq!(score.f_score(), 0.0);

        // An estimator that claims everything is dependent: precision
        // suffers.
        let mut all = std::collections::BTreeMap::new();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                all.insert((members[i], members[j]), PairwiseDependency::Parallel);
            }
        }
        let full = DependencyGroups::from_pairwise(members.clone(), all);
        let score = ProfilerScore::compute(&members, &gt, &full);
        assert_eq!(score.recall(), 1.0);
        assert!(score.precision() < 1.0);
    }
}
