//! Warm-state checkpointing: capture a running simulation and fork it.
//!
//! A [`SimSnapshot`] freezes *everything* that determines the future of a
//! simulation — the kernel (event calendar with its `(time, seq)` counter,
//! replicas, thread-pool occupancy, in-flight jobs and spans, metric
//! windows, RNG streams) and the state of every registered agent. Forking a
//! snapshot yields a [`Simulation`](crate::Simulation) whose subsequent
//! history is **bit-identical** to the original's: a snapshot is an exact deep
//! copy of the mutable state, while the large immutable parts (topology,
//! demand plan, config) are shared via `Arc`, so cloning a snapshot per
//! sweep cell — or per worker thread — is cheap.
//!
//! Agents participate through [`Snapshot`], which any `Clone` agent gets
//! for free, plus a one-line [`Agent::snapshot`](crate::Agent::snapshot)
//! override that makes the capability visible through `dyn Agent`:
//!
//! ```
//! use microsim::{Agent, AgentState, SimCtx};
//!
//! #[derive(Clone)]
//! struct Probe {
//!     fired: u64,
//! }
//!
//! impl Agent for Probe {
//!     fn start(&mut self, _ctx: &mut SimCtx<'_>) {}
//!     fn snapshot(&self) -> Option<AgentState> {
//!         Some(AgentState::of(self))
//!     }
//! }
//! ```

use std::fmt;
use std::sync::Arc;

use crate::agent::Agent;
use crate::kernel::Kernel;
use crate::metrics::Metrics;

/// The kernel's snapshot path: every field cloned explicitly, one line per
/// field, so nothing can be forgotten silently.
///
/// `Kernel` deliberately does **not** derive `Clone`: a derive would keep
/// compiling when a new field is added even if that field must *not* be
/// shared between a snapshot and its fork (e.g. anything `Rc`/`RefCell`-like
/// or a cache keyed on identity). Writing the copy out per field keeps the
/// decision explicit, and `simlint`'s `snapshot-complete` rule cross-checks
/// this impl against `Kernel`'s field list: a field added to the struct but
/// missing here fails CI.
impl Clone for Kernel {
    fn clone(&self) -> Self {
        Kernel {
            // Immutable per-run structure: shared, not copied.
            topology: Arc::clone(&self.topology),
            plan: self.plan.clone(),
            cfg: Arc::clone(&self.cfg),
            // Mutable simulation state: exact deep copies.
            now: self.now,
            queue: self.queue.clone(),
            services: self.services.clone(),
            jobs: self.jobs.clone(),
            free_jobs: self.free_jobs.clone(),
            metrics: self.metrics.clone(),
            demand_rng: self.demand_rng.clone(),
            demand_z: self.demand_z,
            demand_z_next: self.demand_z_next,
            trace_rng: self.trace_rng.clone(),
            next_token: self.next_token,
            outbox: self.outbox.clone(),
            span_pool: self.span_pool.clone(),
            win_scratch: self.win_scratch.clone(),
            win_arrivals: self.win_arrivals.clone(),
            win_completions: self.win_completions.clone(),
            win_net: self.win_net,
            sec_busy: self.sec_busy.clone(),
            sec_started: self.sec_started,
            windows_per_sec: self.windows_per_sec,
            windows_seen: self.windows_seen,
            retry_rng: self.retry_rng.clone(),
            deadlines: self.deadlines.clone(),
            breakers: self.breakers.clone(),
            resilience_active: self.resilience_active,
            counters: self.counters,
        }
    }
}

/// The metrics' snapshot path: copy-on-write, written out per field like
/// [`Kernel`]'s so `simlint`'s `snapshot-complete` rule can cross-check it
/// against the `Metrics` field list.
///
/// The segmented logs (`windows`, `request_log`, `access_log`, `traces`)
/// share their sealed warm prefix behind `Arc` — cloning them bumps
/// refcounts and copies only the bounded mutable tail, so fork cost is
/// independent of how much history the warm run accumulated. Sealed
/// segments are immutable by construction (appends go to a fresh tail), so
/// the sharing is invisible: the fork and the original can never observe
/// each other's writes.
impl Clone for Metrics {
    fn clone(&self) -> Self {
        Metrics {
            window: self.window,
            num_services: self.num_services,
            // COW segmented logs: Arc-shared prefix + copied tail.
            windows: self.windows.clone(),
            request_log: self.request_log.clone(),
            access_log: self.access_log.clone(),
            traces: self.traces.clone(),
            // Rare events: a plain deep copy stays negligible.
            scaling_actions: self.scaling_actions.clone(),
            resilience: self.resilience,
        }
    }
}

/// Implemented by agents whose live state can be captured into a
/// [`SimSnapshot`] and restored in a fork.
///
/// Blanket-implemented for every agent that is `Clone + Send + Sync`; the
/// captured state is simply a clone, which is exact by construction. Agents
/// must *also* override [`Agent::snapshot`](crate::Agent::snapshot) (the
/// object-safe hook `Simulation::checkpoint` discovers the capability
/// through) to return `Some(Snapshot::snapshot(self))`.
pub trait Snapshot: Agent + Clone + Send + Sync + Sized {
    /// Captures this agent's current state.
    fn snapshot(&self) -> AgentState {
        AgentState::of(self)
    }

    /// Rebuilds a live boxed agent from a captured state.
    fn restore(state: &AgentState) -> Box<dyn Agent> {
        state.restore()
    }
}

impl<A: Agent + Clone + Send + Sync> Snapshot for A {}

/// The captured state of one agent: a type-erased, cloneable box that can
/// be turned back into a live `Box<dyn Agent>`.
pub struct AgentState(Box<dyn ErasedAgentState>);

impl AgentState {
    /// Captures `agent` by cloning it behind a type-erased box.
    pub fn of<A: Agent + Clone + Send + Sync>(agent: &A) -> AgentState {
        AgentState(Box::new(CloneState(agent.clone())))
    }

    /// Rebuilds a live boxed agent from this state.
    pub(crate) fn restore(&self) -> Box<dyn Agent> {
        self.0.clone_box().into_agent()
    }
}

impl Clone for AgentState {
    fn clone(&self) -> Self {
        AgentState(self.0.clone_box())
    }
}

impl fmt::Debug for AgentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AgentState(..)")
    }
}

trait ErasedAgentState: Send + Sync {
    fn clone_box(&self) -> Box<dyn ErasedAgentState>;
    fn into_agent(self: Box<Self>) -> Box<dyn Agent>;
}

struct CloneState<A>(A);

impl<A: Agent + Clone + Send + Sync> ErasedAgentState for CloneState<A> {
    fn clone_box(&self) -> Box<dyn ErasedAgentState> {
        Box::new(CloneState(self.0.clone()))
    }

    fn into_agent(self: Box<Self>) -> Box<dyn Agent> {
        Box::new(self.0)
    }
}

/// A frozen simulation, captured by
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint) and forked by
/// [`Simulation::from_snapshot`](crate::Simulation::from_snapshot).
///
/// Cloning is cheap relative to re-running the simulated time it encodes:
/// the topology, demand plan, and config are `Arc`-shared, so a clone
/// copies only the live mutable state. `SimSnapshot` is `Send + Sync`, so a
/// sweep can hold one behind an `Arc` and let each worker thread fork its
/// own cells.
#[derive(Clone)]
pub struct SimSnapshot {
    pub(crate) kernel: Kernel,
    pub(crate) agents: Vec<AgentState>,
    pub(crate) started: Vec<bool>,
}

impl SimSnapshot {
    /// The simulated time at which this snapshot was taken.
    pub fn taken_at(&self) -> simnet::SimTime {
        self.kernel.now()
    }

    /// Number of agents captured in this snapshot.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }
}

impl fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("taken_at", &self.kernel.now())
            .field("agents", &self.agents.len())
            .finish()
    }
}

/// Why a checkpoint could not be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The agent registered at `index` does not support snapshotting (its
    /// [`Agent::snapshot`](crate::Agent::snapshot) returned `None`).
    UnsupportedAgent {
        /// Registration index of the offending agent.
        index: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedAgent { index } => write!(
                f,
                "agent #{index} does not support snapshotting \
                 (Agent::snapshot returned None)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}
