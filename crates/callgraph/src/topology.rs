//! The application topology: all services plus all supported request types.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simnet::SimDuration;

use crate::depgraph::DependencyGraph;
use crate::ids::{RequestTypeId, ServiceId};
use crate::path::ExecutionPath;
use crate::spec::{PathStep, RequestTypeSpec, ServiceSpec};

/// A complete microservice application description.
///
/// Immutable once built; construct via [`TopologyBuilder`]. The topology is
/// shared by the platform simulator (which instantiates replicas and
/// queues), by the workload generator (which samples request types) and by
/// the ground-truth analysis (which classifies pairwise dependencies).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    services: Vec<ServiceSpec>,
    request_types: Vec<RequestTypeSpec>,
}

impl Topology {
    /// All services, indexable by [`ServiceId::index`].
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// All request types, indexable by [`RequestTypeId::index`].
    pub fn request_types(&self) -> &[RequestTypeSpec] {
        &self.request_types
    }

    /// The spec of one service.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.index()]
    }

    /// The spec of one request type.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn request_type(&self, id: RequestTypeId) -> &RequestTypeSpec {
        &self.request_types[id.index()]
    }

    /// Looks up a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId::new(i as u32))
    }

    /// Looks up a request type by name.
    pub fn request_type_by_name(&self, name: &str) -> Option<RequestTypeId> {
        self.request_types
            .iter()
            .position(|s| s.name == name)
            .map(|i| RequestTypeId::new(i as u32))
    }

    /// The execution path (critical path) of a request type.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn path(&self, id: RequestTypeId) -> ExecutionPath {
        ExecutionPath::from_spec(self.request_type(id))
    }

    /// Execution paths of all request types, in id order.
    pub fn paths(&self) -> Vec<ExecutionPath> {
        self.request_types
            .iter()
            .map(ExecutionPath::from_spec)
            .collect()
    }

    /// The aggregated upstream→downstream dependency graph over all
    /// request types.
    pub fn dependency_graph(&self) -> DependencyGraph {
        DependencyGraph::from_topology(self)
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// Number of request types.
    pub fn num_request_types(&self) -> usize {
        self.request_types.len()
    }
}

/// Incremental constructor for [`Topology`].
///
/// # Example
///
/// ```
/// use callgraph::{ServiceSpec, TopologyBuilder};
/// use simnet::SimDuration;
///
/// let mut b = TopologyBuilder::new();
/// let gw = b.add_service(ServiceSpec::new("gateway"));
/// let user = b.add_service(ServiceSpec::new("user"));
/// b.add_request_type(
///     "login",
///     vec![
///         (gw, SimDuration::from_millis(1)),
///         (user, SimDuration::from_millis(4)),
///     ],
/// );
/// let topo = b.build();
/// assert_eq!(topo.num_services(), 2);
/// assert_eq!(topo.num_request_types(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    services: Vec<ServiceSpec>,
    request_types: Vec<RequestTypeSpec>,
    names: BTreeMap<String, ServiceId>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Registers a service and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a service with the same name was already added, or if the
    /// spec has zero threads or zero cores.
    pub fn add_service(&mut self, spec: ServiceSpec) -> ServiceId {
        assert!(spec.threads > 0, "service {:?} needs threads", spec.name);
        assert!(spec.cores > 0, "service {:?} needs cores", spec.name);
        assert!(spec.replicas > 0, "service {:?} needs replicas", spec.name);
        assert!(
            !self.names.contains_key(&spec.name),
            "duplicate service name {:?}",
            spec.name
        );
        let id = ServiceId::new(self.services.len() as u32);
        self.names.insert(spec.name.clone(), id);
        self.services.push(spec);
        id
    }

    /// Registers a request type whose critical path visits the given
    /// `(service, demand)` chain (entry service first) and returns its id.
    ///
    /// Payload sizes default to 1 KiB request / 8 KiB response; use
    /// [`TopologyBuilder::add_request_type_sized`] to override.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or references an unknown service.
    pub fn add_request_type(
        &mut self,
        name: impl Into<String>,
        chain: Vec<(ServiceId, SimDuration)>,
    ) -> RequestTypeId {
        self.add_request_type_sized(name, chain, 1024, 8 * 1024)
    }

    /// Like [`TopologyBuilder::add_request_type`] with explicit payload
    /// sizes in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or references an unknown service.
    pub fn add_request_type_sized(
        &mut self,
        name: impl Into<String>,
        chain: Vec<(ServiceId, SimDuration)>,
        request_bytes: u64,
        response_bytes: u64,
    ) -> RequestTypeId {
        assert!(!chain.is_empty(), "request type needs at least one step");
        for (svc, _) in &chain {
            assert!(
                svc.index() < self.services.len(),
                "unknown service {svc} in request type"
            );
        }
        let id = RequestTypeId::new(self.request_types.len() as u32);
        self.request_types.push(RequestTypeSpec {
            id,
            name: name.into(),
            steps: chain
                .into_iter()
                .map(|(service, demand)| PathStep { service, demand })
                .collect(),
            request_bytes,
            response_bytes,
        });
        id
    }

    /// Finalises the topology.
    ///
    /// # Panics
    ///
    /// Panics if no request types were registered.
    pub fn build(self) -> Topology {
        assert!(
            !self.request_types.is_empty(),
            "topology needs at least one request type"
        );
        Topology {
            services: self.services,
            request_types: self.request_types,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw"));
        let a = b.add_service(ServiceSpec::new("a"));
        let c = b.add_service(ServiceSpec::new("c"));
        b.add_request_type(
            "ra",
            vec![
                (gw, SimDuration::from_millis(1)),
                (a, SimDuration::from_millis(5)),
            ],
        );
        b.add_request_type(
            "rc",
            vec![
                (gw, SimDuration::from_millis(1)),
                (c, SimDuration::from_millis(3)),
            ],
        );
        b.build()
    }

    #[test]
    fn lookup_by_name_works() {
        let t = demo();
        assert_eq!(t.service_by_name("a"), Some(ServiceId::new(1)));
        assert_eq!(t.service_by_name("zzz"), None);
        assert_eq!(t.request_type_by_name("rc"), Some(RequestTypeId::new(1)));
        assert_eq!(t.request_type_by_name("zzz"), None);
    }

    #[test]
    fn paths_cover_all_request_types() {
        let t = demo();
        let paths = t.paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate service name")]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_service(ServiceSpec::new("x"));
        b.add_service(ServiceSpec::new("x"));
    }

    #[test]
    #[should_panic(expected = "unknown service")]
    fn unknown_service_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_service(ServiceSpec::new("x"));
        b.add_request_type("r", vec![(ServiceId::new(9), SimDuration::ZERO)]);
    }

    #[test]
    #[should_panic(expected = "at least one request type")]
    fn empty_topology_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_service(ServiceSpec::new("x"));
        b.build();
    }

    #[test]
    #[should_panic(expected = "needs threads")]
    fn zero_threads_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_service(ServiceSpec::new("x").threads(0));
    }
}
