//! External clients of the platform: the agent interface.
//!
//! Everything that talks to the application from outside — legitimate user
//! populations, the Grunt attacker's bot farm, profiling probes — is an
//! [`Agent`]. Agents see the platform only through [`SimCtx`], which
//! deliberately exposes nothing but what a real external HTTP client could
//! do and observe: submit a request of a public type, get the response
//! back with client-side timestamps, and set timers. The blackbox property
//! of the paper's threat model is therefore enforced by the type system.

use std::any::Any;

use callgraph::RequestTypeId;

use crate::job::{Origin, Response};
use crate::kernel::Kernel;

/// Identifier of a registered agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId(pub(crate) u32);

impl AgentId {
    /// The dense index of this agent.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An external client driven by the simulation.
///
/// Lifecycle: [`Agent::start`] fires once when the simulation begins;
/// afterwards the agent is re-entered on every timer it set
/// ([`Agent::on_wake`]) and on every response to a request it submitted
/// ([`Agent::on_response`]).
///
/// Agents own their randomness (take an `RngStream` at construction) so
/// that the platform's internal draws and the clients' draws never
/// interleave.
///
/// Every agent is `Clone` (through [`AgentClone`]), `Send` and `Sync`, so
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint) can copy it
/// into a snapshot that worker threads fork. An agent without `Clone` does
/// not compile:
///
/// ```compile_fail,E0277
/// use microsim::{Agent, SimCtx};
///
/// struct Unclonable;
///
/// impl Agent for Unclonable {
///     fn start(&mut self, _ctx: &mut SimCtx<'_>) {}
/// }
/// ```
pub trait Agent: Any + Send + Sync + AgentClone {
    /// Called once at simulation start.
    fn start(&mut self, ctx: &mut SimCtx<'_>);

    /// Called when a timer set via [`SimCtx::schedule_wake`] fires.
    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when a submitted request completes.
    fn on_response(&mut self, ctx: &mut SimCtx<'_>, response: &Response) {
        let _ = (ctx, response);
    }
}

/// Object-safe cloning for `Box<dyn Agent>`: implemented for every
/// `Agent + Clone`, so no agent writes it by hand.
pub trait AgentClone {
    /// Clones this agent into a fresh box.
    fn clone_box(&self) -> Box<dyn Agent>;
}

impl<A: Agent + Clone> AgentClone for A {
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Agent> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// The external-client view of the platform handed to agents.
///
/// # Example
///
/// A minimal agent that fires one request and remembers its latency:
///
/// ```
/// use microsim::{Agent, Origin, Response, SimCtx};
/// use callgraph::RequestTypeId;
///
/// #[derive(Clone)]
/// struct Probe {
///     latency_ms: Option<f64>,
/// }
///
/// impl Agent for Probe {
///     fn start(&mut self, ctx: &mut SimCtx<'_>) {
///         ctx.submit(RequestTypeId::new(0), Origin::legit(1, 1));
///     }
///     fn on_response(&mut self, _ctx: &mut SimCtx<'_>, r: &Response) {
///         self.latency_ms = Some(r.latency_ms());
///     }
/// }
/// ```
pub struct SimCtx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) agent: AgentId,
}

impl std::fmt::Debug for SimCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("agent", &self.agent)
            .field("now", &self.kernel.now())
            .finish_non_exhaustive()
    }
}

impl<'a> SimCtx<'a> {
    /// The current simulated time.
    pub fn now(&self) -> simnet::SimTime {
        self.kernel.now()
    }

    /// Submits a request of `request_type` with the given origin identity.
    /// Returns a token that the eventual [`Response`] will carry.
    ///
    /// # Panics
    ///
    /// Panics if `request_type` does not exist in the application.
    pub fn submit(&mut self, request_type: RequestTypeId, origin: Origin) -> u64 {
        self.kernel.submit(self.agent, request_type, origin, 0)
    }

    /// Like [`submit`](Self::submit), but attaches a caller-chosen `tag`
    /// that the eventual [`Response`] echoes back verbatim.
    ///
    /// This is the O(1) correlation path for large populations: encode the
    /// submitting user's slab slot in the tag and response dispatch becomes
    /// a direct array index — no token map, no hashing, no allocation. The
    /// tag is client-side bookkeeping only; the platform ignores it (it
    /// never reaches the access log or the IDS).
    pub fn submit_tagged(&mut self, request_type: RequestTypeId, origin: Origin, tag: u64) -> u64 {
        self.kernel.submit(self.agent, request_type, origin, tag)
    }

    /// Schedules [`Agent::on_wake`] to fire after `delay` with `token`.
    pub fn schedule_wake(&mut self, delay: simnet::SimDuration, token: u64) {
        self.kernel.schedule_wake(self.agent, delay, token);
    }

    /// The catalogue of public request types — what a crawler of the
    /// application's public URLs would discover (names and ids only).
    pub fn request_type_catalog(&self) -> Vec<(RequestTypeId, String)> {
        self.kernel.request_type_catalog()
    }
}
