//! Warm-state checkpointing: capture a running simulation and fork it.
//!
//! A [`SimSnapshot`] freezes *everything* that determines the future of a
//! simulation — the kernel (event calendar with its `(time, seq)` counter,
//! replicas, thread-pool occupancy, in-flight jobs, metric windows, RNG
//! streams) and the state of every registered agent. Forking a
//! snapshot yields a [`Simulation`] whose subsequent history is
//! **bit-identical** to the original's: a snapshot is an exact deep copy of
//! the mutable state, while the large immutable parts (topology, demand
//! plan, config) are shared via `Arc` and the growing logs share their
//! sealed segments, so cloning a snapshot per sweep cell — or per worker
//! thread — is cheap.
//!
//! Fork completeness holds by construction. Every live-state struct derives
//! `Clone`, so the compiler copies each field it declares, and every
//! [`Agent`](crate::Agent) must be `Clone` (through its
//! [`AgentClone`](crate::agent::AgentClone) supertrait), so registering one
//! that a checkpoint could not copy does not compile:
//!
//! ```
//! use microsim::{Agent, SimCtx};
//!
//! #[derive(Clone)]
//! struct Probe {
//!     fired: u64,
//! }
//!
//! impl Agent for Probe {
//!     fn start(&mut self, _ctx: &mut SimCtx<'_>) {}
//! }
//! ```

use std::fmt;

use crate::sim::Simulation;

/// A frozen simulation, captured by
/// [`Simulation::checkpoint`] and forked by [`Simulation::from_snapshot`].
///
/// Cloning is cheap relative to re-running the simulated time it encodes:
/// the topology, demand plan, and config are `Arc`-shared, so a clone
/// copies only the live mutable state. `SimSnapshot` is `Send + Sync`, so a
/// sweep can hold one behind an `Arc` and let each worker thread fork its
/// own cells.
#[derive(Clone)]
pub struct SimSnapshot(pub(crate) Simulation);

// A fork must not share mutable state with its origin, and sweeps fork one
// snapshot from several threads: `Rc`, `RefCell` or `Cell` anywhere in the
// simulation or its agents fails this assertion at compile time.
const _: () = {
    const fn fork_safe<T: Clone + Send + Sync>() {}
    fork_safe::<SimSnapshot>();
};

impl fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SimSnapshot").field(&self.0).finish()
    }
}
