//! Discrete-event simulation kernel for the Grunt Attack reproduction.
//!
//! This crate provides the time base, event calendar, deterministic random
//! number streams and online statistics that every other crate in the
//! workspace builds on. It is intentionally free of any domain knowledge:
//! the microservice platform, workloads and the attack itself are layered on
//! top (see the `microsim`, `workload` and `grunt` crates).
//!
//! # Design
//!
//! * **Time** is measured in integer microseconds ([`SimTime`],
//!   [`SimDuration`]). Integer time makes event ordering total and
//!   reproducible across machines.
//! * **Events** are opaque payloads scheduled on an [`EventQueue`]; ties at
//!   the same timestamp are broken by insertion order (FIFO), which keeps
//!   simulations deterministic.
//! * **Randomness** is organised as named [`RngStream`]s derived from a
//!   single master seed, so adding a new random component never perturbs the
//!   draws of existing ones.
//!
//! # Example
//!
//! ```
//! use simnet::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! queue.push(SimTime::ZERO, "a");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::ZERO, "a"));
//! ```

pub mod alias;
pub mod event;
pub mod rng;
pub mod seglog;
pub mod stats;
pub mod time;

pub use alias::AliasTable;
pub use event::{EventQueue, HeapEventQueue};
pub use rng::{derive_seed, exp_from_unit, lognormal_mean_cv_from_z, RngStream};
pub use seglog::{SegIndex, SegLog, SegLogIter, Segment, SEG_CAP};
pub use stats::{nearest_rank, select_percentiles, SegSamples, Welford};
pub use time::{SimDuration, SimTime};
