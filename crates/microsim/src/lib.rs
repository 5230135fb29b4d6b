//! Discrete-event microservice platform simulator.
//!
//! This crate is the runtime substrate of the reproduction: it executes a
//! [`callgraph::Topology`] the way a container cluster executes a
//! microservice application, reproducing the two mechanisms the Grunt
//! attack exploits:
//!
//! 1. **Millibottlenecks** — each replica has a small number of CPU cores;
//!    compute segments queue FIFO for a core, so a burst saturates the core
//!    for a sub-second window.
//! 2. **Cross-tier queue overflow** — RPC is synchronous and a caller
//!    *holds its worker-thread slot* in every upstream service while the
//!    downstream call is outstanding. When a downstream service saturates,
//!    upstream thread pools fill and requests of *other* types sharing
//!    those upstream services block (the paper's blocking effects).
//!
//! # Architecture
//!
//! * [`Simulation`] owns the platform state ([`kernel::Kernel`]) and a set
//!   of [`Agent`]s (closed-loop users, the attacker's bot farm, probes).
//! * Agents interact with the platform only through [`SimCtx`]: they can
//!   submit requests, receive [`Response`]s and schedule wake-ups. This is
//!   the *external user view* — the type system enforces that the attacker
//!   implemented in the `grunt` crate stays blackbox.
//! * White-box observability (per-service CPU windows, queue lengths,
//!   request logs, scaling actions, access logs) is available *after or
//!   during* a run via [`Simulation::metrics`]; the `telemetry` crate
//!   layers CloudWatch-style views on top.
//!
//! # Example
//!
//! ```
//! use callgraph::{ServiceSpec, TopologyBuilder};
//! use microsim::{SimConfig, Simulation};
//! use simnet::{SimDuration, SimTime};
//!
//! let mut b = TopologyBuilder::new();
//! let gw = b.add_service(ServiceSpec::new("gateway").threads(64));
//! let api = b.add_service(ServiceSpec::new("api").threads(16));
//! b.add_request_type(
//!     "get",
//!     vec![
//!         (gw, SimDuration::from_millis(1)),
//!         (api, SimDuration::from_millis(5)),
//!     ],
//! );
//! let topo = b.build();
//!
//! let mut sim = Simulation::new(topo, SimConfig::default().seed(7));
//! // Inject a single request through an open-loop helper agent.
//! sim.add_agent(Box::new(microsim::agents::OneShot::new(
//!     callgraph::RequestTypeId::new(0),
//! )));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.metrics().request_log().len(), 1);
//! ```

pub mod agent;
pub mod agents;
pub mod autoscale;
pub mod config;
mod counters;
mod inline_vec;
pub mod job;
pub mod kernel;
pub mod metrics;
mod plan;
pub mod replica;
pub mod resilience;
pub mod seglog;
pub mod service;
pub mod sim;
pub mod snapshot;

pub use agent::{Agent, AgentId, SimCtx};
pub use autoscale::{AutoScalePolicy, ScalingAction, ScalingDirection};
pub use config::{
    BreakerPolicy, PlatformProfile, RequestPolicy, ResilienceConfig, ResiliencePolicy, RetryPolicy,
    SimConfig, TypePolicy,
};
pub use counters::Counters;
pub use job::{Origin, Outcome, Response};
pub use metrics::{AccessLogEntry, Metrics, RequestRecord, ResilienceCounters, ServiceWindow};
pub use seglog::{AccessLog, RequestFilter, RequestIndex, RequestLog, WindowLog};
pub use sim::Simulation;
pub use snapshot::SimSnapshot;
