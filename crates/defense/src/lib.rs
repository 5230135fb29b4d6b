//! Defense substrate: the detection stack the Grunt attacker must evade.
//!
//! Three layers, mirroring Section V-B's deployment and Section VI's
//! proposed mitigations:
//!
//! * [`Ids`] — a Snort-style rule engine over the gateway access log:
//!   content and protocol sanity rules (never triggered by well-formed
//!   HTTP), the user-behaviour *inter-request interval* rule (< 3 s
//!   between consecutive requests of one session is flagged), and
//!   resource-based alerts driven by 1 s monitor samples.
//! * [`RateShield`] — AWS-Shield-style per-IP request budget per 5-minute
//!   window.
//! * [`CorrelationDefense`] — the candidate mitigation of Section VI:
//!   detect millibottlenecks with fine-grained monitoring and flag
//!   sessions whose submissions are statistically concentrated inside
//!   bottleneck windows (the Tail-attack defense). This is what a
//!   *future* defender could do — the paper's deployed stack cannot.
//!
//! All detectors run offline over recorded logs; since alerts never feed
//! back into the platform, this is equivalent to live operation and keeps
//! the simulator honest.

pub mod correlation;
pub mod ids;
pub mod shield;
mod window;

pub use correlation::{CorrelationDefense, CorrelationReport, SessionScore};
pub use ids::{Alert, AlertKind, Ids, IdsConfig, IdsReport};
pub use shield::{RateShield, ShieldVerdict};
