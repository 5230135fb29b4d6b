//! Property-based tests of the attack framework's invariants: the bot
//! farm's identity discipline, the Monitor's estimator bounds and the
//! Kalman filter's stability.

use callgraph::RequestTypeId;
use grunt::{BotFarm, BurstObservation, ScalarKalman};
use microsim::Response;
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};

proptest! {
    /// No bot identity is ever reused within the minimum interval, for
    /// arbitrary allocation schedules; allocations always return the
    /// requested number of distinct identities.
    #[test]
    fn botfarm_identity_discipline(
        initial in 1usize..50,
        interval_ms in 100u64..5_000,
        steps in prop::collection::vec((0u64..2_000, 1usize..40), 1..30),
    ) {
        let min = SimDuration::from_millis(interval_ms);
        let mut farm = BotFarm::new(initial, min);
        let mut now = SimTime::ZERO;
        let mut last_use: std::collections::BTreeMap<u32, SimTime> = Default::default();
        for (advance, n) in steps {
            now += SimDuration::from_millis(advance);
            let origins = farm.allocate(n, now);
            prop_assert_eq!(origins.len(), n);
            let distinct: std::collections::BTreeSet<u32> =
                origins.iter().map(|o| o.ip).collect();
            prop_assert_eq!(distinct.len(), n, "one identity per request in a burst");
            for o in origins {
                prop_assert!(o.is_attack);
                if let Some(prev) = last_use.insert(o.ip, now) {
                    prop_assert!(
                        now.saturating_since(prev) >= min,
                        "bot {} reused after {}",
                        o.ip,
                        now.saturating_since(prev)
                    );
                }
            }
        }
        prop_assert!(farm.size() >= initial);
        prop_assert!(farm.used() <= farm.size());
    }

    /// Monitor estimates: P_MB equals the spread of completion times and
    /// the average RT lies between the min and max individual RTs.
    #[test]
    fn burst_observation_estimator_bounds(
        latencies in prop::collection::vec(1u64..5_000, 2..100),
    ) {
        let n = latencies.len() as u32;
        let mut obs = BurstObservation::new(RequestTypeId::new(0), SimTime::ZERO, n);
        for t in 0..n as u64 {
            obs.track(t);
        }
        let mut ends = Vec::new();
        for (i, lat) in latencies.iter().enumerate() {
            let submitted = SimTime::from_millis(i as u64);
            let completed = submitted + SimDuration::from_millis(*lat);
            ends.push(completed);
            obs.record(&Response {
                token: i as u64,
                tag: 0,
                request_type: RequestTypeId::new(0),
                submitted_at: submitted,
                completed_at: completed,
                outcome: microsim::Outcome::Ok,
            });
        }
        prop_assert!(obs.is_complete());
        let first = ends.iter().min().expect("non-empty");
        let last = ends.iter().max().expect("non-empty");
        prop_assert_eq!(obs.pmb_estimate().expect("complete"), last.saturating_since(*first));
        let avg = obs.avg_rt_ms().expect("complete");
        let min = *latencies.iter().min().expect("non-empty") as f64;
        let max = *latencies.iter().max().expect("non-empty") as f64;
        prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
        prop_assert_eq!(obs.max_rt_ms(), max);
    }

    /// Kalman: the estimate always lies within the range of observed
    /// measurements, and converges toward a constant signal.
    #[test]
    fn kalman_estimate_stays_in_range(
        q in 0.1f64..1_000.0,
        r in 0.1f64..100_000.0,
        zs in prop::collection::vec(0.0f64..10_000.0, 1..100),
    ) {
        let mut k = ScalarKalman::new(q, r);
        for &z in &zs {
            k.update(z);
        }
        let est = k.estimate().expect("updated");
        let lo = zs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = zs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "estimate {est} outside [{lo}, {hi}]");
    }

    /// Kalman convergence: after enough identical measurements the
    /// estimate reaches the signal regardless of the starting point. The
    /// iteration budget is matched to the worst-case steady-state gain
    /// (K* ≈ sqrt(q/r) for q << r), since convergence is geometric in
    /// (1 - K*).
    #[test]
    fn kalman_converges_to_constant(
        q in 0.1f64..100.0,
        r in 0.1f64..10_000.0,
        start in 0.0f64..1_000.0,
        signal in 1.0f64..1_000.0,
    ) {
        let mut k = ScalarKalman::new(q, r);
        k.update(start);
        // Steady-state error covariance of the random-walk filter and the
        // corresponding gain.
        let p_star = (q + (q * q + 4.0 * q * r).sqrt()) / 2.0;
        let gain = p_star / (p_star + r);
        // Enough steps to shrink any initial error below 0.1% of range.
        let steps = ((1e-4f64.ln()) / (1.0 - gain).ln()).ceil().max(10.0) as usize;
        for _ in 0..steps.min(200_000) {
            k.update(signal);
        }
        let est = k.estimate().expect("updated");
        prop_assert!(
            (est - signal).abs() <= 0.01 * signal + 1e-3 * (start - signal).abs() + 1e-6,
            "did not converge after {steps} steps: {est} vs {signal}"
        );
    }
}
