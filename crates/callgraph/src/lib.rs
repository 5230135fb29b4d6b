//! Call-graph substrate: service topologies, request types, execution
//! paths and dependency graphs.
//!
//! This crate models the *structure* the Grunt attack exploits — which
//! microservices exist, which chains of RPC calls each user-request type
//! triggers, where each chain's bottleneck sits, and how two chains relate
//! (no dependency, parallel, sequential, or shared bottleneck, per
//! Definitions I and II of the paper).
//!
//! Runtime behaviour (queues, CPU, blocking) lives in the `microsim` crate;
//! here everything is static description plus graph algorithms:
//!
//! * [`Topology`] / [`TopologyBuilder`] — services and request types.
//! * [`ExecutionPath`] — the critical path of a request type as a chain of
//!   (service, compute demand) steps.
//! * [`DependencyGraph`] — aggregated upstream→downstream call edges.
//! * [`classify_pair`] — ground-truth pairwise dependency between two paths
//!   (the administrator's view; the attacker re-derives this blackbox in the
//!   `grunt` crate).
//! * [`DependencyGroups`] — connected components of mutually dependent
//!   paths.
//!
//! # Example
//!
//! ```
//! use callgraph::{TopologyBuilder, ServiceSpec};
//! use simnet::SimDuration;
//!
//! let mut b = TopologyBuilder::new();
//! let gw = b.add_service(ServiceSpec::new("gateway").threads(64));
//! let post = b.add_service(ServiceSpec::new("post-storage").threads(16));
//! b.add_request_type(
//!     "read-post",
//!     vec![
//!         (gw, SimDuration::from_millis(1)),
//!         (post, SimDuration::from_millis(8)),
//!     ],
//! );
//! let topo = b.build();
//! assert_eq!(topo.services().len(), 2);
//! let path = topo.path(topo.request_types()[0].id);
//! assert_eq!(path.bottleneck_service(), post);
//! ```

pub mod depgraph;
pub mod disjoint;
pub mod groups;
pub mod ids;
pub mod path;
pub mod spec;
pub mod topology;

pub use depgraph::{classify_pair, classify_pair_filtered, DependencyGraph, PairwiseDependency};
pub use disjoint::DisjointSets;
pub use groups::DependencyGroups;
pub use ids::{RequestTypeId, ServiceId};
pub use path::ExecutionPath;
pub use spec::{RequestTypeSpec, ServiceSpec};
pub use topology::{Topology, TopologyBuilder};
