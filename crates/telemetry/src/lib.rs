//! Administrator-side observability over a finished (or running)
//! simulation: monitor views, latency series, millibottleneck detection and
//! ground-truth dependency extraction.
//!
//! The crate mirrors the instrumentation stack of the paper's experiments:
//!
//! * [`CoarseMonitor`] — the CloudWatch / Azure Monitor view: per-service
//!   CPU utilisation at 1 s granularity. This is what the auto-scaler and
//!   the resource-based IDS rules can see; millibottlenecks are invisible
//!   here (Fig 14).
//! * [`FineMonitor`] — the Collectl-style 100 ms view used for the
//!   white-box zoom-in analysis (Fig 13) and for
//!   [`find_millibottlenecks`].
//! * [`LatencySeries`] / [`LatencySummary`] — client-perceived response
//!   times, split legitimate vs attack traffic by ground-truth origin.
//! * [`GroundTruth`] — the administrator's reference, where Section V-C
//!   used Jaeger + Collectl: attribute each request type's bottleneck and
//!   classify pairwise dependencies by the physical blocking analysis of
//!   the deployed topology (the reference the blackbox profiler is scored
//!   against in Fig 16).

pub mod ground_truth;
pub mod latency;
pub mod millibottleneck;
pub mod views;

pub use ground_truth::{GroundTruth, ProfilerScore};
pub use latency::{LatencySeries, LatencySummary, Traffic};
pub use millibottleneck::{
    find_millibottlenecks, millibottleneck_stats, Millibottleneck, MillibottleneckStats,
};
pub use views::{CoarseMonitor, CoarseSample, FineMonitor};
