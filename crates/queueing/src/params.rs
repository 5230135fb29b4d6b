//! Model parameters (the paper's Table II) for one critical path.

use serde::{Deserialize, Serialize};

/// Per-service parameters along a critical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageParams {
    /// Queue size `Q_i` — worker-thread slots (a queued request holds one
    /// slot in every upstream service).
    pub queue_size: f64,
    /// Capacity serving attack requests `C_{i,A}` (req/s).
    pub capacity_attack: f64,
    /// Capacity serving legitimate requests `C_{i,L}` (req/s).
    pub capacity_legit: f64,
    /// Legitimate request rate `λ_i` reaching this service (req/s).
    pub lambda: f64,
}

impl StageParams {
    /// Convenience constructor for a stage whose attack and legitimate
    /// capacities coincide (attack requests mimic legitimate ones, so this
    /// is the common case).
    pub fn symmetric(queue_size: f64, capacity: f64, lambda: f64) -> Self {
        StageParams {
            queue_size,
            capacity_attack: capacity,
            capacity_legit: capacity,
            lambda,
        }
    }

    /// Capacity from platform facts: `cores * replicas / demand_seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `demand_seconds` is not positive.
    pub fn capacity_from_demand(cores: u32, replicas: u32, demand_seconds: f64) -> f64 {
        assert!(demand_seconds > 0.0, "demand must be positive");
        f64::from(cores) * f64::from(replicas) / demand_seconds
    }
}

/// Parameters of one critical path: the chain of stages from the entry
/// service (index 0) downward, plus the bottleneck index `n` and the index
/// `s` of the shared upstream microservice relevant to the blocking effect
/// under study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathParams {
    /// Stage parameters, entry service first.
    pub stages: Vec<StageParams>,
    /// Index of the bottleneck microservice (`n` in the equations).
    pub bottleneck: usize,
    /// Index of the shared upstream microservice (`s`), i.e. where queued
    /// requests block other critical paths.
    pub shared_upstream: usize,
}

impl PathParams {
    /// Creates path parameters.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, or the indices are out of range, or
    /// `shared_upstream > bottleneck` (the shared service must be upstream
    /// of, or equal to, the bottleneck).
    pub fn new(stages: Vec<StageParams>, bottleneck: usize, shared_upstream: usize) -> Self {
        assert!(!stages.is_empty(), "path needs at least one stage");
        assert!(bottleneck < stages.len(), "bottleneck index out of range");
        assert!(
            shared_upstream <= bottleneck,
            "shared upstream must not be below the bottleneck"
        );
        PathParams {
            stages,
            bottleneck,
            shared_upstream,
        }
    }

    /// The bottleneck stage (`n`).
    pub fn bottleneck_stage(&self) -> &StageParams {
        &self.stages[self.bottleneck]
    }

    /// Stages strictly between the shared upstream service and the
    /// bottleneck, plus the bottleneck itself — the downstream queues that
    /// must fill before cross-tier overflow reaches the shared service.
    pub fn downstream_stages(&self) -> &[StageParams] {
        &self.stages[self.shared_upstream + 1..=self.bottleneck]
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the path has no stages (construction forbids this).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl PathParams {
    /// Extracts Table II parameters for one request type from a deployed
    /// topology: capacities from `cores * replicas / demand`, queue sizes
    /// from the worker pools, and per-stage legitimate rates from
    /// `offered` (pairs of request type and offered req/s — every type
    /// whose chain visits a stage contributes its rate there).
    ///
    /// The bottleneck index is the lowest-capacity *blockable* stage; the
    /// shared-upstream index is the first blockable stage (where
    /// cross-tier overflow accumulates).
    ///
    /// Returns `None` when the chain contains no blockable stage.
    ///
    /// # Example
    ///
    /// ```
    /// use callgraph::{ServiceSpec, TopologyBuilder};
    /// use queueing::PathParams;
    /// use simnet::SimDuration;
    ///
    /// let mut b = TopologyBuilder::new();
    /// let gw = b.add_service(ServiceSpec::new("gw").cores(4).threads(64));
    /// let db = b.add_service(ServiceSpec::new("db").cores(1).threads(16));
    /// let rt = b.add_request_type(
    ///     "r",
    ///     vec![
    ///         (gw, SimDuration::from_millis(2)),
    ///         (db, SimDuration::from_millis(10)),
    ///     ],
    /// );
    /// let topo = b.build();
    /// let params = PathParams::from_topology(&topo, rt, &[(rt, 50.0)]).unwrap();
    /// assert_eq!(params.bottleneck, 1); // db: 100 req/s < gw: 2000 req/s
    /// assert_eq!(params.bottleneck_stage().capacity_attack, 100.0);
    /// assert_eq!(params.bottleneck_stage().lambda, 50.0);
    /// ```
    pub fn from_topology(
        topology: &callgraph::Topology,
        request_type: callgraph::RequestTypeId,
        offered: &[(callgraph::RequestTypeId, f64)],
    ) -> Option<PathParams> {
        let path = topology.path(request_type);
        let mut stages = Vec::with_capacity(path.len());
        for step in path.steps() {
            let spec = topology.service(step.service);
            let demand = step.demand.as_secs_f64();
            let capacity = if demand > 0.0 {
                StageParams::capacity_from_demand(spec.cores, spec.replicas, demand)
            } else {
                f64::INFINITY
            };
            // Legitimate rate at this stage: every offered type whose
            // chain visits the service.
            let lambda: f64 = offered
                .iter()
                .filter(|(rt, _)| topology.path(*rt).visits(step.service))
                .map(|(_, rate)| *rate)
                .sum();
            stages.push(StageParams {
                queue_size: f64::from(spec.threads) * f64::from(spec.replicas),
                capacity_attack: capacity,
                capacity_legit: capacity,
                lambda,
            });
        }
        let blockable: Vec<usize> = (0..path.len())
            .filter(|&i| topology.service(path.steps()[i].service).blockable)
            .collect();
        let first = *blockable.first()?;
        let bottleneck = blockable
            .iter()
            .copied()
            .min_by(|&a, &b| {
                stages[a]
                    .capacity_attack
                    .partial_cmp(&stages[b].capacity_attack)
                    .expect("capacity not NaN")
            })
            .expect("non-empty blockable set");
        Some(PathParams::new(stages, bottleneck, first.min(bottleneck)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{ServiceSpec, TopologyBuilder};
    use simnet::SimDuration;

    #[test]
    fn capacity_from_demand_is_rate() {
        // 1 core, 1 replica, 10 ms demand -> 100 req/s.
        assert_eq!(StageParams::capacity_from_demand(1, 1, 0.01), 100.0);
        assert_eq!(StageParams::capacity_from_demand(2, 3, 0.01), 600.0);
    }

    #[test]
    fn from_topology_extracts_table_ii() {
        let mut b = TopologyBuilder::new();
        let nginx = b.add_service(
            ServiceSpec::new("nginx")
                .cores(8)
                .threads(4096)
                .blockable(false),
        );
        let hub = b.add_service(ServiceSpec::new("hub").cores(4).threads(32));
        let db = b.add_service(ServiceSpec::new("db").cores(1).threads(16));
        let ra = b.add_request_type(
            "a",
            vec![
                (nginx, SimDuration::from_micros(300)),
                (hub, SimDuration::from_millis(4)),
                (db, SimDuration::from_millis(10)),
            ],
        );
        let rb = b.add_request_type(
            "b",
            vec![
                (nginx, SimDuration::from_micros(300)),
                (hub, SimDuration::from_millis(4)),
            ],
        );
        let topo = b.build();
        let params =
            PathParams::from_topology(&topo, ra, &[(ra, 40.0), (rb, 60.0)]).expect("blockable");
        // Bottleneck: db (100 req/s); shared upstream: hub (the first
        // blockable stage), not the unblockable nginx frontend.
        assert_eq!(params.bottleneck, 2);
        assert_eq!(params.shared_upstream, 1);
        assert_eq!(params.bottleneck_stage().capacity_attack, 100.0);
        assert_eq!(params.bottleneck_stage().queue_size, 16.0);
        // Lambda at the hub: both types; at the db: only `a`.
        assert_eq!(params.stages[1].lambda, 100.0);
        assert_eq!(params.stages[2].lambda, 40.0);
    }

    #[test]
    fn from_topology_none_without_blockable_stage() {
        let mut b = TopologyBuilder::new();
        let cdn = b.add_service(ServiceSpec::new("cdn").cores(8).blockable(false));
        let rt = b.add_request_type("s", vec![(cdn, SimDuration::from_millis(1))]);
        let topo = b.build();
        assert!(PathParams::from_topology(&topo, rt, &[(rt, 10.0)]).is_none());
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_rejected() {
        StageParams::capacity_from_demand(1, 1, 0.0);
    }

    #[test]
    fn downstream_stages_span_shared_to_bottleneck() {
        let s = StageParams::symmetric(32.0, 100.0, 10.0);
        let p = PathParams::new(vec![s; 4], 3, 1);
        assert_eq!(p.downstream_stages().len(), 2);
        let p2 = PathParams::new(vec![s; 4], 1, 1);
        assert!(p2.downstream_stages().is_empty());
    }

    #[test]
    #[should_panic(expected = "not be below the bottleneck")]
    fn shared_below_bottleneck_rejected() {
        let s = StageParams::symmetric(32.0, 100.0, 10.0);
        PathParams::new(vec![s; 3], 1, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bottleneck_out_of_range_rejected() {
        let s = StageParams::symmetric(32.0, 100.0, 10.0);
        PathParams::new(vec![s; 2], 5, 0);
    }
}
