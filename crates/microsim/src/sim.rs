//! The top-level simulation: kernel plus registered agents.

use std::convert::Infallible;

use callgraph::Topology;
use simnet::SimTime;

use crate::agent::{Agent, AgentId, SimCtx};
use crate::config::SimConfig;
use crate::kernel::Kernel;
use crate::metrics::Metrics;
use crate::snapshot::SimSnapshot;

/// A runnable microservice-platform simulation.
///
/// Construct, register agents, then advance simulated time with
/// [`Simulation::run_until`] (which may be called repeatedly — e.g. run the
/// baseline for a while, inspect metrics, then keep going with an attack
/// agent added).
///
/// A clone is an exact fork (see [`Simulation::checkpoint`]).
#[derive(Clone)]
pub struct Simulation {
    kernel: Kernel,
    agents: Vec<Option<Box<dyn Agent>>>,
    started: Vec<bool>,
    /// Reused buffer for outbox batches (swapped with the kernel outbox so
    /// neither side reallocates in the steady state).
    outbox_scratch: Vec<(AgentId, crate::job::Response)>,
}

impl Simulation {
    /// Creates a simulation of `topology` with the given configuration.
    pub fn new(topology: Topology, cfg: SimConfig) -> Self {
        Simulation {
            kernel: Kernel::new(topology, cfg),
            agents: Vec::new(),
            started: Vec::new(),
            outbox_scratch: Vec::new(),
        }
    }

    /// Registers an agent. Its [`Agent::start`] runs at the beginning of
    /// the next [`Simulation::run_until`] call (at the then-current time).
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(agent));
        self.started.push(false);
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The application topology (admin view).
    pub fn topology(&self) -> &Topology {
        self.kernel.topology()
    }

    /// Metrics collected so far (admin view).
    pub fn metrics(&self) -> &Metrics {
        self.kernel.metrics()
    }

    /// Active replica count of a service (admin view).
    pub fn active_replicas(&self, service: callgraph::ServiceId) -> usize {
        self.kernel.active_replicas(service)
    }

    /// Advances simulated time to `until`, dispatching platform events and
    /// agent callbacks in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if `until` is in the past.
    pub fn run_until(&mut self, until: SimTime) {
        assert!(until >= self.kernel.now(), "cannot run backwards in time");
        // Start any agents registered since the last run.
        for i in 0..self.agents.len() {
            if !self.started[i] {
                self.started[i] = true;
                self.with_agent(i, super::agent::Agent::start);
                self.drain_outbox();
            }
        }
        use crate::kernel::PumpResult;
        loop {
            match self.kernel.pump(until) {
                PumpResult::Wake(agent, token) => {
                    self.with_agent(agent.index(), |a, ctx| a.on_wake(ctx, token));
                    self.drain_outbox();
                }
                PumpResult::Responses => self.drain_outbox(),
                PumpResult::Idle => break,
            }
        }
    }

    /// Runs an agent callback with a context over the kernel. The agent is
    /// temporarily taken out of the table so the kernel can be borrowed
    /// mutably inside the callback.
    fn with_agent<F>(&mut self, index: usize, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut SimCtx<'_>),
    {
        let mut agent = self.agents[index].take().expect("agent re-entered");
        {
            let mut ctx = SimCtx {
                kernel: &mut self.kernel,
                agent: AgentId(index as u32),
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.agents[index] = Some(agent);
    }

    /// Delivers completed responses to their submitting agents. Agents may
    /// submit further requests from the callback; those cascade within the
    /// same timestamp.
    fn drain_outbox(&mut self) {
        while !self.kernel.outbox.is_empty() {
            let mut batch = std::mem::take(&mut self.outbox_scratch);
            std::mem::swap(&mut batch, &mut self.kernel.outbox);
            for (agent, response) in batch.drain(..) {
                self.with_agent(agent.index(), |a, ctx| a.on_response(ctx, &response));
            }
            self.outbox_scratch = batch;
        }
    }

    /// Captures the complete live state of the simulation — kernel and all
    /// registered agents — into a cheaply cloneable [`SimSnapshot`].
    ///
    /// A simulation forked from the snapshot with
    /// [`Simulation::from_snapshot`] replays the future **bit-identically**
    /// to this one: same events, same RNG draws, same metrics.
    ///
    /// # Errors
    ///
    /// None: every agent is `Clone`, so a checkpoint cannot fail. The
    /// `Result` is kept for callers that still `expect` on it.
    pub fn checkpoint(&self) -> Result<SimSnapshot, Infallible> {
        Ok(SimSnapshot(self.clone()))
    }

    /// Forks a new simulation from `snapshot`, resuming at the snapshot's
    /// simulated time. The snapshot is borrowed and can be forked again.
    pub fn from_snapshot(snapshot: &SimSnapshot) -> Simulation {
        snapshot.0.clone()
    }

    /// Deterministic counters of the kernel's work so far: events popped
    /// per kind and the pending-event high-water mark.
    pub fn counters(&self) -> crate::Counters {
        self.kernel.counters()
    }

    /// Number of events pending in the calendar (used by the
    /// snapshot-equivalence tests).
    pub fn pending_events(&self) -> usize {
        self.kernel.pending_events()
    }

    /// Fingerprint of the kernel's demand stream, without advancing it,
    /// plus a retired second word. Equal demand fingerprints mean the
    /// streams will produce identical draw sequences.
    ///
    /// The second word is the fingerprint of an unused `"kernel/trace"`
    /// stream: a function of the seed alone. It is kept only because
    /// `grunt_bench` folds both words into its expected digests; once a
    /// benchmark change folds only the demand word, this returns one.
    pub fn rng_fingerprint(&self) -> (u64, u64) {
        self.kernel.rng_fingerprint()
    }

    /// Number of pending per-attempt deadline entries (off-wheel
    /// bookkeeping; the leak guards assert this stays bounded).
    pub fn pending_deadlines(&self) -> usize {
        self.kernel.pending_deadlines()
    }

    /// Finishes the run and takes the metrics out.
    pub fn into_metrics(self) -> Metrics {
        self.kernel.into_metrics()
    }

    /// Borrows a registered agent back (e.g. to read results a probe agent
    /// accumulated). Returns `None` for an unknown id.
    pub fn agent(&self, id: AgentId) -> Option<&dyn Agent> {
        self.agents.get(id.index()).and_then(|a| a.as_deref())
    }

    /// Borrows an agent back with its concrete type — the way experiments
    /// read collected results out of probes and user populations.
    ///
    /// Returns `None` for an unknown id or a type mismatch.
    pub fn agent_as<T: Agent>(&self, id: AgentId) -> Option<&T> {
        let agent = self.agents.get(id.index())?.as_deref()?;
        (agent as &dyn std::any::Any).downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.kernel.now())
            .field("agents", &self.agents.len())
            .finish()
    }
}
