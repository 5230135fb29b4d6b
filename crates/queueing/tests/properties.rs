//! Property-based tests of the analytic model's invariants.

use proptest::prelude::*;
use queueing::{
    cross_tier_queue, damage_latency, execution_queue, fill_time, group_min_damage,
    group_total_damage, maintenance_interval, millibottleneck_length, min_saturating_rate,
    solve_length_for_pmb, BurstPlan, PathParams, StageParams,
};

fn stage_strategy() -> impl Strategy<Value = StageParams> {
    (1.0f64..100.0, 50.0f64..2_000.0, 0.0f64..500.0)
        .prop_map(|(q, c, l)| StageParams::symmetric(q, c, l.min(c * 0.95)))
}

proptest! {
    /// Equation (1): the queue is non-negative and monotone in both burst
    /// rate and length.
    #[test]
    fn execution_queue_monotone(
        lambda in 0.0f64..500.0,
        capacity in 50.0f64..2_000.0,
        rate in 0.0f64..3_000.0,
        len in 0.0f64..2.0,
    ) {
        let q = execution_queue(BurstPlan::new(rate, len), lambda, capacity);
        prop_assert!(q >= 0.0);
        let q_faster = execution_queue(BurstPlan::new(rate + 100.0, len), lambda, capacity);
        let q_longer = execution_queue(BurstPlan::new(rate, len + 0.5), lambda, capacity);
        prop_assert!(q_faster >= q);
        prop_assert!(q_longer >= q);
    }

    /// Equation (2): fill time is positive, and shrinks (or stays) as the
    /// burst rate grows; sub-saturating rates never fill.
    #[test]
    fn fill_time_behaviour(
        q in 1.0f64..100.0,
        lambda in 0.0f64..500.0,
        capacity in 50.0f64..2_000.0,
        rate in 0.0f64..3_000.0,
    ) {
        let t = fill_time(q, lambda, rate, capacity);
        prop_assert!(t > 0.0);
        if lambda + rate <= capacity {
            prop_assert!(t.is_infinite());
        } else {
            let t2 = fill_time(q, lambda, rate + 100.0, capacity);
            prop_assert!(t2 <= t);
        }
    }

    /// Equation (3): cross-tier queue never exceeds the execution-blocking
    /// queue at the bottleneck (filling downstream pools only costs
    /// volume) and is zero for sub-saturating bursts.
    #[test]
    fn cross_tier_queue_bounds(
        stages in prop::collection::vec(stage_strategy(), 2..5),
        rate in 0.0f64..3_000.0,
        len in 0.01f64..2.0,
    ) {
        let bottleneck = stages.len() - 1;
        let path = PathParams::new(stages.clone(), bottleneck, 0);
        let burst = BurstPlan::new(rate, len);
        let q = cross_tier_queue(burst, &path);
        prop_assert!(q >= 0.0);
        let bn = path.bottleneck_stage();
        if rate + bn.lambda <= bn.capacity_attack {
            prop_assert_eq!(q, 0.0, "no overload, no queue");
        }
    }

    /// Equations (4)/(5): non-negative; P_MB scales linearly in L (the
    /// relationship the Kalman feedback exploits).
    #[test]
    fn pmb_linear_in_length(
        rate in 1.0f64..2_000.0,
        len in 0.01f64..1.0,
        capacity in 50.0f64..2_000.0,
        util in 0.0f64..0.95,
    ) {
        let lambda = capacity * util;
        let p1 = millibottleneck_length(BurstPlan::new(rate, len), capacity, lambda, capacity);
        let p2 = millibottleneck_length(
            BurstPlan::new(rate, len * 2.0),
            capacity,
            lambda,
            capacity,
        );
        prop_assert!(p1 >= 0.0);
        prop_assert!((p2 / p1 - 2.0).abs() < 1e-9, "P_MB must be linear in L");
        prop_assert!(damage_latency(rate * len, capacity) >= 0.0);
    }

    /// `solve_length_for_pmb` inverts Equation (5) exactly.
    #[test]
    fn pmb_solver_inverts(
        rate in 1.0f64..2_000.0,
        target in 0.05f64..1.0,
        capacity in 50.0f64..2_000.0,
        util in 0.0f64..0.9,
    ) {
        let lambda = capacity * util;
        let l = solve_length_for_pmb(target, rate, capacity, lambda, capacity)
            .expect("unsaturated system is solvable");
        let measured = millibottleneck_length(BurstPlan::new(rate, l), capacity, lambda, capacity);
        prop_assert!((measured - target).abs() < 1e-9);
    }

    /// The minimum saturating rate actually saturates (queue build-up is
    /// positive at any margin above 1).
    #[test]
    fn min_rate_saturates(
        capacity in 50.0f64..2_000.0,
        util in 0.0f64..0.95,
        margin in 1.01f64..2.0,
    ) {
        let lambda = capacity * util;
        let rate = min_saturating_rate(capacity, lambda, margin);
        let q = execution_queue(BurstPlan::new(rate, 1.0), lambda, capacity);
        prop_assert!(q >= 0.0);
        if capacity > lambda + 1.0 {
            prop_assert!(q > 0.0, "rate {rate} must overload C={capacity} λ={lambda}");
        }
    }

    /// Equations (6)-(9): totals add up, maintenance keeps the fixed point.
    #[test]
    fn group_equations_fixed_point(
        damages in prop::collection::vec(0.0f64..2.0, 1..6),
        first_interval in 0.0f64..1.0,
    ) {
        let t_d = group_total_damage(&damages);
        prop_assert!((t_d - damages.iter().sum::<f64>()).abs() < 1e-12);
        let t_min = group_min_damage(t_d, first_interval);
        prop_assert!(t_min >= 0.0);
        // Maintaining with I_i = t_damage_i leaves t_min unchanged (Eq 8).
        for &d in &damages {
            let after = t_min + d - maintenance_interval(d);
            prop_assert!((after - t_min).abs() < 1e-12);
        }
    }

    /// Burst plans: volume arithmetic and pacing are consistent.
    #[test]
    fn burst_plan_consistency(rate in 0.0f64..5_000.0, len in 0.0f64..3.0) {
        let b = BurstPlan::new(rate, len);
        prop_assert!((b.volume() - rate * len).abs() < 1e-9);
        let n = b.request_count();
        if n > 1 {
            let total = b.inter_request_gap().as_secs_f64() * n as f64;
            prop_assert!((total - len).abs() < 0.01 * len.max(0.001), "gaps must tile L");
        }
    }
}
