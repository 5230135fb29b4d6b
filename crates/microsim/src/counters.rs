//! Deterministic counters of the kernel's own work.

/// What the kernel has done so far, counted in simulated work rather than
/// host time, so two runs with the same inputs report the same numbers on
/// any machine. Read with [`Simulation::counters`](crate::Simulation::counters).
///
/// The counters travel with a checkpoint: a fork continues counting from
/// the snapshot's values, so a fork and the original report identical
/// counters after identical inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `Deliver` events popped: a request or RPC arriving at a service.
    pub deliver: u64,
    /// `Reply` events popped: a downstream reply arriving back.
    pub reply: u64,
    /// `ComputeDone` events popped: a compute segment finishing on a core.
    pub compute_done: u64,
    /// `Complete` events popped: a response reaching its client.
    pub complete: u64,
    /// `Wake` events popped: agent timers.
    pub wake: u64,
    /// `Sample` events popped: metric window boundaries.
    pub sample: u64,
    /// `ScaleUpReady` events popped: provisioned replicas coming online.
    pub scale_up_ready: u64,
    /// `DeadlineCheck` events popped: deadline-class expiry checks.
    pub deadline_check: u64,
    /// `Retry` events popped: platform retries leaving backoff.
    pub retry: u64,
    /// The most events ever pending in the calendar at once.
    pub pending_max: u64,
}

impl Counters {
    /// Events popped, over all kinds.
    pub fn events(&self) -> u64 {
        self.deliver
            + self.reply
            + self.compute_done
            + self.complete
            + self.wake
            + self.sample
            + self.scale_up_ready
            + self.deadline_check
            + self.retry
    }
}

#[cfg(test)]
mod tests {
    use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
    use simnet::{SimDuration, SimTime};

    use crate::agents::OneShot;
    use crate::{SimConfig, Simulation};

    /// One request on an idle L-step path: L deliveries, L − 1 replies,
    /// 2L − 1 compute segments (one per leaf, two per intermediate step)
    /// and one completion — 4L − 1 request events in all.
    #[test]
    fn one_request_pops_4l_minus_1_events() {
        for len in 1..=12u64 {
            let mut b = TopologyBuilder::new();
            let chain: Vec<_> = (0..len)
                .map(|i| {
                    let svc = b.add_service(ServiceSpec::new(format!("s{i}")).demand_cv(0.2));
                    (svc, SimDuration::from_millis(2))
                })
                .collect();
            b.add_request_type("walk", chain);
            let mut sim = Simulation::new(b.build(), SimConfig::default().seed(len));
            sim.add_agent(Box::new(OneShot::new(RequestTypeId::new(0))));
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sim.metrics().request_log().len(), 1);
            let c = sim.counters();
            assert_eq!(c.deliver, len);
            assert_eq!(c.reply, len - 1);
            assert_eq!(c.compute_done, 2 * len - 1);
            assert_eq!(c.complete, 1);
            assert_eq!(c.events() - c.sample, 4 * len - 1);
            assert_eq!(
                (c.wake, c.scale_up_ready, c.deadline_check, c.retry),
                (0, 0, 0, 0)
            );
            // The request's single in-flight event next to the sampler's.
            assert_eq!(c.pending_max, 2);
        }
    }

    /// A fork carries the counters and keeps counting from them.
    #[test]
    fn counters_travel_with_a_checkpoint() {
        let mut b = TopologyBuilder::new();
        let a = b.add_service(ServiceSpec::new("a"));
        b.add_request_type("get", vec![(a, SimDuration::from_millis(3))]);
        let mut sim = Simulation::new(b.build(), SimConfig::default().seed(5));
        sim.add_agent(Box::new(OneShot::new(RequestTypeId::new(0))));
        sim.run_until(SimTime::from_millis(500));
        let Ok(snap) = sim.checkpoint();
        let mut fork = Simulation::from_snapshot(&snap);
        assert_eq!(fork.counters(), sim.counters());
        sim.run_until(SimTime::from_secs(2));
        fork.run_until(SimTime::from_secs(2));
        assert_eq!(fork.counters(), sim.counters());
        assert!(sim.counters().sample > 0);
    }
}
