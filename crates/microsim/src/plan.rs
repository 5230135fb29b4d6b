//! The kernel's flat per-step demand plan.
//!
//! Every event handler asks the same three questions about a job's current
//! step: which service it visits, whether it is the path's leaf, and how
//! long its compute segment runs. [`Plan`] answers them from one flat
//! array of [`Step`]s (all request types back to back, addressed through
//! per-type offsets) built once per [`Kernel`](crate::kernel::Kernel) and
//! shared by every fork. Each step carries its segment mean already scaled
//! and halved, and the lognormal's `mu` and `sigma` already derived, so a
//! jittered segment costs one `exp` instead of two `ln`, a `sqrt` and an
//! `exp`.

use std::sync::Arc;

use callgraph::{RequestTypeId, Topology};

/// One step of one request type's execution path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The service this step visits.
    pub service: u32,
    /// `true` on the path's last step: it spends its whole demand in one
    /// segment and replies instead of calling downstream.
    pub leaf: bool,
    /// `true` when sampling a segment consumes a normal draw (positive
    /// mean and positive cv), exactly as `RngStream::lognormal_mean_cv`
    /// decides.
    jitter: bool,
    /// Segment mean in seconds; the segment length itself when `jitter` is
    /// off (`0.0` for a non-positive or NaN mean).
    mean: f64,
    /// Lognormal location, when `jitter` is on.
    mu: f64,
    /// Lognormal scale, when `jitter` is on.
    sigma: f64,
}

impl Step {
    /// A step whose segments have mean `mean` seconds and coefficient of
    /// variation `cv`.
    pub(crate) fn new(service: u32, leaf: bool, mean: f64, cv: f64) -> Step {
        let jitter = mean > 0.0 && cv > 0.0;
        // The same operations, in the same order, as
        // `simnet::lognormal_mean_cv_from_z`, so the result is bit-identical.
        let (mu, sigma) = if jitter {
            let sigma2 = (1.0 + cv * cv).ln();
            (mean.ln() - sigma2 / 2.0, sigma2.sqrt())
        } else {
            (0.0, 0.0)
        };
        Step {
            service,
            leaf,
            jitter,
            mean: if mean > 0.0 { mean } else { 0.0 },
            mu,
            sigma,
        }
    }

    /// The service this step visits, as an index.
    #[inline]
    pub(crate) fn sidx(&self) -> usize {
        self.service as usize
    }

    /// Whether [`Step::secs`] needs a standard-normal draw.
    #[inline]
    pub(crate) fn draws(&self) -> bool {
        self.jitter
    }

    /// The segment length in seconds for the standard-normal draw `z`
    /// (ignored unless [`Step::draws`]).
    #[inline]
    pub(crate) fn secs(&self, z: f64) -> f64 {
        if self.jitter {
            (self.mu + self.sigma * z).exp()
        } else {
            self.mean
        }
    }
}

/// Every request type's steps, flattened; immutable and `Arc`-shared.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// All paths back to back, request type 0 first.
    steps: Arc<[Step]>,
    /// `steps[offsets[rt]..offsets[rt + 1]]` is request type `rt`'s path.
    offsets: Arc<[u32]>,
}

impl Plan {
    /// Builds the plan for `topology`, scaling every demand by
    /// `demand_scale`. Intermediate steps split their demand into two
    /// half-mean segments (before the downstream call and after the reply);
    /// a leaf spends it in one.
    pub(crate) fn new(topology: &Topology, demand_scale: f64) -> Plan {
        let types = topology.request_types();
        let mut offsets = Vec::with_capacity(types.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for rt in types {
            total += rt.steps.len() as u32;
            offsets.push(total);
        }
        let services = topology.services();
        // Walk the paths with a (type, step) cursor so the iterator is a
        // mapped range: `Arc<[T]>` then collects it in one allocation.
        let (mut rt, mut k) = (0, 0);
        let steps = (0..total)
            .map(|_| {
                while k == types[rt].steps.len() {
                    (rt, k) = (rt + 1, 0);
                }
                let path = &types[rt].steps;
                let leaf = k + 1 == path.len();
                let step = path[k];
                k += 1;
                let mean = step.demand.as_secs_f64() * demand_scale * if leaf { 1.0 } else { 0.5 };
                let cv = services[step.service.index()].demand_cv;
                Step::new(step.service.index() as u32, leaf, mean, cv)
            })
            .collect();
        Plan {
            steps,
            offsets: offsets.into(),
        }
    }

    /// Number of request types.
    pub(crate) fn num_types(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Step `step` of request type `rt`'s path.
    #[inline]
    pub(crate) fn step(&self, rt: RequestTypeId, step: usize) -> &Step {
        &self.steps[self.offsets[rt.index()] as usize + step]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Plan {
        /// Request type `rt`'s path.
        fn steps(&self, rt: RequestTypeId) -> &[Step] {
            let i = rt.index();
            &self.steps[self.offsets[i] as usize..self.offsets[i + 1] as usize]
        }
    }

    /// The kernel's per-segment demand before the plan hoisted `mu` and
    /// `sigma`: whether a normal draw is consumed, and the segment length.
    fn reference(mean: f64, cv: f64, z: f64) -> (bool, f64) {
        if mean > 0.0 && cv > 0.0 {
            (true, simnet::lognormal_mean_cv_from_z(mean, cv, z))
        } else if mean > 0.0 {
            (false, mean)
        } else {
            (false, 0.0)
        }
    }

    fn assert_bit_identical(mean: f64, cv: f64, z: f64) {
        let step = Step::new(0, true, mean, cv);
        let (draws, secs) = reference(mean, cv, z);
        assert_eq!(step.draws(), draws, "draw gate for mean={mean} cv={cv}");
        assert_eq!(
            step.secs(z).to_bits(),
            secs.to_bits(),
            "mean={mean} cv={cv} z={z}: {} vs {secs}",
            step.secs(z)
        );
    }

    #[test]
    fn hoisted_lognormal_is_bit_identical() {
        let mut rng = simnet::RngStream::from_label(3, "plan/test");
        for _ in 0..20_000 {
            let mean = rng.unit() * 10f64.powi(rng.below(7) as i32 - 5);
            let cv = rng.unit() * 3.0;
            let z = rng.standard_normal() * 3.0;
            assert_bit_identical(mean, cv, z);
        }
    }

    #[test]
    fn degenerate_demands_match_the_reference() {
        for z in [-2.5, 0.0, 1.0, f64::NAN] {
            assert_bit_identical(0.004, 0.0, z);
            assert_bit_identical(0.0, 0.3, z);
            assert_bit_identical(0.0, 0.0, z);
            assert_bit_identical(-1.0, 0.3, z);
            assert_bit_identical(f64::NAN, 0.3, z);
            assert_bit_identical(0.004, f64::NAN, z);
            assert_bit_identical(f64::NAN, f64::NAN, z);
        }
        // A cv too small to move `ln(1 + cv²)` off zero still draws.
        assert_bit_identical(0.004, 1e-12, 1.5);
        assert!(Step::new(0, true, 0.004, 1e-12).draws());
    }

    #[test]
    fn plan_flattens_paths_in_type_order() {
        let mut b = callgraph::TopologyBuilder::new();
        let a = b.add_service(callgraph::ServiceSpec::new("a").demand_cv(0.0));
        let c = b.add_service(callgraph::ServiceSpec::new("c").demand_cv(0.0));
        let ms = simnet::SimDuration::from_millis;
        b.add_request_type("one", vec![(a, ms(2))]);
        b.add_request_type("three", vec![(a, ms(2)), (c, ms(4)), (a, ms(6))]);
        let plan = Plan::new(&b.build(), 1.0);
        assert_eq!(plan.num_types(), 2);
        let one = plan.steps(RequestTypeId::new(0));
        assert_eq!(one.len(), 1);
        assert!(one[0].leaf);
        assert_eq!(one[0].secs(0.0), 0.002);
        let three = plan.steps(RequestTypeId::new(1));
        let services: Vec<u32> = three.iter().map(|s| s.service).collect();
        assert_eq!(
            services,
            vec![a.index() as u32, c.index() as u32, a.index() as u32]
        );
        let leaves: Vec<bool> = three.iter().map(|s| s.leaf).collect();
        assert_eq!(leaves, vec![false, false, true]);
        // Intermediate steps run two half-mean segments; the leaf one.
        assert_eq!(three[1].secs(0.0), 0.002);
        assert_eq!(three[2].secs(0.0), 0.006);
    }
}
