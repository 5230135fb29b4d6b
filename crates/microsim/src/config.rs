//! Simulation configuration and cloud platform profiles.

use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// A coarse model of a cloud platform's performance envelope.
///
/// The paper deploys the same application on EC2, Azure and CloudLab and
/// observes the same qualitative behaviour with slightly different
/// absolute numbers. We model a platform as a scale factor on compute
/// demands (faster/slower vCPUs) plus a per-hop network latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformProfile {
    /// Display name, e.g. `"EC2"`.
    pub name: String,
    /// Multiplier applied to every compute demand (1.0 = nominal).
    pub demand_scale: f64,
    /// One-way network latency per RPC hop (client↔gateway and
    /// service↔service).
    pub net_latency: SimDuration,
    /// Fixed per-message network framing overhead, bytes (headers etc.),
    /// counted in gateway traffic.
    pub per_message_overhead: u64,
}

impl PlatformProfile {
    /// Amazon EC2 profile (nominal speed).
    pub fn ec2() -> Self {
        PlatformProfile {
            name: "EC2".into(),
            demand_scale: 1.0,
            net_latency: SimDuration::from_micros(250),
            per_message_overhead: 220,
        }
    }

    /// Microsoft Azure profile (slightly slower vCPU in the paper's
    /// measurements: its baseline RTs are a few percent higher).
    pub fn azure() -> Self {
        PlatformProfile {
            name: "Azure".into(),
            demand_scale: 1.07,
            net_latency: SimDuration::from_micros(300),
            per_message_overhead: 220,
        }
    }

    /// NSF CloudLab profile (bare-metal-ish: slightly faster CPU, slightly
    /// higher LAN latency variance folded into the hop latency).
    pub fn cloudlab() -> Self {
        PlatformProfile {
            name: "CloudLab".into(),
            demand_scale: 0.97,
            net_latency: SimDuration::from_micros(280),
            per_message_overhead: 220,
        }
    }
}

impl Default for PlatformProfile {
    fn default() -> Self {
        PlatformProfile::ec2()
    }
}

/// Platform-level retry policy for failed requests.
///
/// `max_attempts` counts *total* attempts: `1` means no retries (the
/// original submission is the only attempt). Backoff before attempt `n`
/// (n ≥ 2) is `backoff_base · 2^(n-2) · (1 + jitter · u)` with `u` a
/// uniform draw from the kernel's `"kernel/retry"` stream — consumed only
/// when `jitter > 0`, so jitter-free policies leave the stream untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, including the original submission (≥ 1).
    pub max_attempts: u32,
    /// Base backoff delay, doubled per additional attempt.
    pub backoff_base: SimDuration,
    /// Jitter fraction in `[0, 1]`: the backoff is stretched by up to
    /// `jitter · 100%`, deterministically drawn per retry.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries: the original attempt is the only one.
    pub const fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: SimDuration::ZERO,
            jitter: 0.0,
        }
    }
}

/// Per-service circuit-breaker policy.
///
/// A breaker trips after `failure_threshold` consecutive failures observed
/// at a service (timeouts attributed to it or sheds at its queue). While
/// open it fails requests fast ([`Outcome::Rejected`](crate::Outcome));
/// after `probe_interval` one half-open probe is let through, and its
/// success closes the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker; `0` disables breakers.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub probe_interval: SimDuration,
}

impl BreakerPolicy {
    /// Breakers off.
    pub const fn disabled() -> Self {
        BreakerPolicy {
            failure_threshold: 0,
            probe_interval: SimDuration::ZERO,
        }
    }
}

/// The request-level resilience axes — the only ones a per-request-type
/// override can set. Breakers and queue bounds guard services, not request
/// types, so they come from [`ResilienceConfig::default`] alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestPolicy {
    /// End-to-end deadline per attempt; `None` means requests never time
    /// out.
    pub deadline: Option<SimDuration>,
    /// Platform-level retry policy for failed attempts.
    pub retry: RetryPolicy,
}

impl RequestPolicy {
    /// No deadline, no retries.
    pub const fn disabled() -> Self {
        RequestPolicy {
            deadline: None,
            retry: RetryPolicy::disabled(),
        }
    }

    /// Whether this policy changes nothing.
    pub fn is_disabled(&self) -> bool {
        self.deadline.is_none() && self.retry.max_attempts <= 1
    }
}

/// The default resilience knobs: the request-level axes every request type
/// without an override uses, plus the service-level breaker and queue
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// End-to-end deadline per attempt; `None` means requests never time
    /// out (the pre-resilience behaviour).
    pub deadline: Option<SimDuration>,
    /// Platform-level retry policy for failed attempts.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy (service-level).
    pub breaker: BreakerPolicy,
    /// Bound on each replica's wait queue; arrivals beyond it are shed
    /// ([`Outcome::Shed`](crate::Outcome)). `None` means unbounded.
    pub queue_bound: Option<u32>,
}

impl ResiliencePolicy {
    /// Everything off: no deadlines, no retries, no breakers, unbounded
    /// queues. With this policy the kernel's behaviour is bit-identical to
    /// the pre-resilience platform.
    pub const fn disabled() -> Self {
        ResiliencePolicy {
            deadline: None,
            retry: RetryPolicy::disabled(),
            breaker: BreakerPolicy::disabled(),
            queue_bound: None,
        }
    }

    /// The request-level axes of this policy.
    pub fn request(&self) -> RequestPolicy {
        RequestPolicy {
            deadline: self.deadline,
            retry: self.retry,
        }
    }

    /// Whether this policy changes nothing.
    pub fn is_disabled(&self) -> bool {
        self.request().is_disabled()
            && self.breaker.failure_threshold == 0
            && self.queue_bound.is_none()
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::disabled()
    }
}

/// A per-request-type policy override.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TypePolicy {
    /// Dense request-type index the override applies to.
    pub request_type: u32,
    /// The request-level policy for that type.
    pub policy: RequestPolicy,
}

/// The simulation's resilience configuration: a default policy plus
/// per-request-type overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResilienceConfig {
    /// Policy for request types without an override. Breaker and
    /// queue-bound settings are service-level and live here only.
    pub default: ResiliencePolicy,
    /// Per-request-type overrides of the deadline/retry axes.
    pub per_type: Vec<TypePolicy>,
}

impl ResilienceConfig {
    /// Everything off (the default).
    pub fn disabled() -> Self {
        ResilienceConfig::default()
    }

    /// One policy for every request type.
    pub fn uniform(policy: ResiliencePolicy) -> Self {
        ResilienceConfig {
            default: policy,
            per_type: Vec::new(),
        }
    }

    /// Adds or replaces the override for `request_type`.
    pub fn set_type(mut self, request_type: u32, policy: RequestPolicy) -> Self {
        match self
            .per_type
            .iter_mut()
            .find(|tp| tp.request_type == request_type)
        {
            Some(tp) => tp.policy = policy,
            None => self.per_type.push(TypePolicy {
                request_type,
                policy,
            }),
        }
        self
    }

    /// The effective request-level policy for a request type: its override,
    /// else the default's deadline and retry.
    pub fn policy_for(&self, request_type: u32) -> RequestPolicy {
        self.per_type
            .iter()
            .find(|tp| tp.request_type == request_type)
            .map_or_else(|| self.default.request(), |tp| tp.policy)
    }

    /// Whether every policy (default and overrides) is a no-op.
    pub fn is_disabled(&self) -> bool {
        self.default.is_disabled() && self.per_type.iter().all(|tp| tp.policy.is_disabled())
    }
}

/// Top-level simulation parameters.
///
/// Construct with [`SimConfig::default`] and override with the
/// builder-style setters:
///
/// ```
/// use microsim::{PlatformProfile, SimConfig};
/// use simnet::SimDuration;
///
/// let cfg = SimConfig::default()
///     .seed(42)
///     .platform(PlatformProfile::azure());
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every internal RNG stream derives from it.
    pub seed: u64,
    /// Cloud platform profile.
    pub platform: PlatformProfile,
    /// Metrics sampling window (the paper's fine-grained monitor uses
    /// 100 ms; coarse 1 s views are aggregated from these windows by the
    /// `telemetry` crate).
    pub window: SimDuration,
    /// Auto-scaling policy; `None` disables scaling.
    pub autoscale: Option<crate::autoscale::AutoScalePolicy>,
    /// Whether to retain the gateway access log (needed by the IDS in the
    /// `defense` crate; costs memory on long runs).
    pub access_log: bool,
    /// Resilience policies (deadlines, retries, breakers, queue bounds).
    /// Disabled by default — the platform then behaves bit-identically to
    /// the pre-resilience kernel.
    pub resilience: ResilienceConfig,
}

impl SimConfig {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the platform profile.
    pub fn platform(mut self, platform: PlatformProfile) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the metrics window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "metrics window must be positive");
        self.window = window;
        self
    }

    /// Enables auto-scaling with the given policy.
    pub fn autoscale(mut self, policy: crate::autoscale::AutoScalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Enables or disables the gateway access log.
    pub fn access_log(mut self, enabled: bool) -> Self {
        self.access_log = enabled;
        self
    }

    /// Sets the resilience configuration.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            platform: PlatformProfile::default(),
            window: SimDuration::from_millis(100),
            autoscale: None,
            access_log: true,
            resilience: ResilienceConfig::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        assert_ne!(PlatformProfile::ec2(), PlatformProfile::azure());
        assert_ne!(PlatformProfile::azure(), PlatformProfile::cloudlab());
        assert!(PlatformProfile::azure().demand_scale > 1.0);
        assert!(PlatformProfile::cloudlab().demand_scale < 1.0);
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = SimConfig::default()
            .seed(9)
            .window(SimDuration::from_millis(50))
            .access_log(false);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.window, SimDuration::from_millis(50));
        assert!(!cfg.access_log);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = SimConfig::default().window(SimDuration::ZERO);
    }

    #[test]
    fn disabled_policies_are_noops() {
        assert!(ResiliencePolicy::disabled().is_disabled());
        assert!(ResilienceConfig::disabled().is_disabled());
        assert!(SimConfig::default().resilience.is_disabled());
        let active = ResiliencePolicy {
            deadline: Some(SimDuration::from_millis(500)),
            ..ResiliencePolicy::disabled()
        };
        assert!(!active.is_disabled());
        assert!(!ResilienceConfig::uniform(active).is_disabled());
    }

    #[test]
    fn per_type_overrides_resolve() {
        let tight = RequestPolicy {
            deadline: Some(SimDuration::from_millis(200)),
            ..RequestPolicy::disabled()
        };
        let rc = ResilienceConfig::disabled().set_type(2, tight);
        assert!(rc.policy_for(0).is_disabled());
        assert_eq!(rc.policy_for(2), tight);
        assert!(!rc.is_disabled());
        // Replacing an existing override keeps the list deduplicated.
        let rc = rc.set_type(2, RequestPolicy::disabled());
        assert_eq!(rc.per_type.len(), 1);
        assert!(rc.is_disabled());
        // Types without an override inherit the default's request axes;
        // the service-level axes are the default's alone.
        let shed_only = ResiliencePolicy {
            queue_bound: Some(4),
            ..ResiliencePolicy::disabled()
        };
        let rc = ResilienceConfig::uniform(shed_only).set_type(1, tight);
        assert_eq!(rc.policy_for(0), shed_only.request());
        assert!(rc.policy_for(0).is_disabled());
        assert_eq!(rc.policy_for(1), tight);
        assert!(!rc.is_disabled());
    }
}
