//! Burst plans: the attacking unit of the model.

use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// One attacking burst: requests sent at `rate` req/s for `length_s`
/// seconds (the paper's `B` and `L`; the product is the burst volume
/// `V = B * L` in requests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstPlan {
    /// Burst rate `B`, req/s.
    pub rate: f64,
    /// Burst length `L`, seconds.
    pub length_s: f64,
}

impl BurstPlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if the rate or length is negative or non-finite.
    pub fn new(rate: f64, length_s: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be finite, >= 0");
        assert!(
            length_s.is_finite() && length_s >= 0.0,
            "length must be finite, >= 0"
        );
        BurstPlan { rate, length_s }
    }

    /// The burst volume `V = B * L` in requests.
    pub fn volume(&self) -> f64 {
        self.rate * self.length_s
    }

    /// Number of whole requests in the burst (what a bot farm actually
    /// sends).
    pub fn request_count(&self) -> u64 {
        self.volume().round() as u64
    }

    /// Gap between consecutive requests within the burst.
    ///
    /// Returns the whole length for single-request bursts.
    pub fn inter_request_gap(&self) -> SimDuration {
        let n = self.request_count();
        if n <= 1 {
            SimDuration::from_secs_f64(self.length_s)
        } else {
            SimDuration::from_secs_f64(self.length_s / n as f64)
        }
    }

    /// The burst length as a [`SimDuration`].
    pub fn length(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.length_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_is_rate_times_length() {
        let b = BurstPlan::new(200.0, 0.5);
        assert_eq!(b.volume(), 100.0);
        assert_eq!(b.request_count(), 100);
    }

    #[test]
    fn gap_divides_length() {
        let b = BurstPlan::new(100.0, 1.0);
        assert_eq!(b.inter_request_gap(), SimDuration::from_millis(10));
        let single = BurstPlan::new(1.0, 0.5);
        assert_eq!(single.inter_request_gap(), SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn negative_rate_rejected() {
        BurstPlan::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "length must be finite")]
    fn nan_length_rejected() {
        BurstPlan::new(1.0, f64::NAN);
    }
}
