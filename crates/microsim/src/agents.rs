//! Small reusable agents for tests, examples and benchmarks.
//!
//! The real workload generators (closed-loop Markov users, bursty traces)
//! live in the `workload` crate and the attacker lives in the `grunt`
//! crate; the agents here are deliberately minimal.

use callgraph::RequestTypeId;
use simnet::{SegSamples, SimDuration};

use crate::agent::{Agent, SimCtx};
use crate::job::{Origin, Response};

/// Submits exactly one request at simulation start and records its latency.
#[derive(Debug, Clone)]
pub struct OneShot {
    request_type: RequestTypeId,
    origin: Origin,
    latency_ms: Option<f64>,
}

impl OneShot {
    /// A one-shot probe for `request_type` from a default legit origin.
    pub fn new(request_type: RequestTypeId) -> Self {
        OneShot {
            request_type,
            origin: Origin::legit(0xC0A8_0001, 1),
            latency_ms: None,
        }
    }

    /// Overrides the origin identity.
    pub fn with_origin(mut self, origin: Origin) -> Self {
        self.origin = origin;
        self
    }

    /// The observed latency in milliseconds, once the response arrived.
    pub fn latency_ms(&self) -> Option<f64> {
        self.latency_ms
    }
}

impl Agent for OneShot {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        ctx.submit(self.request_type, self.origin);
    }

    fn on_response(&mut self, _ctx: &mut SimCtx<'_>, response: &Response) {
        self.latency_ms = Some(response.latency_ms());
    }
}

/// Submits requests of one type at a fixed deterministic rate (equal
/// spacing) and collects latencies — a minimal open-loop source.
#[derive(Debug, Clone)]
pub struct FixedRate {
    request_type: RequestTypeId,
    interval: SimDuration,
    remaining: u64,
    origin: Origin,
    latencies_ms: SegSamples,
}

impl FixedRate {
    /// Sends `count` requests spaced `interval` apart, starting at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero and `count > 1`.
    pub fn new(request_type: RequestTypeId, interval: SimDuration, count: u64) -> Self {
        assert!(
            count <= 1 || !interval.is_zero(),
            "zero interval with multiple requests"
        );
        FixedRate {
            request_type,
            interval,
            remaining: count,
            origin: Origin::legit(0xC0A8_0002, 2),
            latencies_ms: SegSamples::new(),
        }
    }

    /// Overrides the origin identity.
    pub fn with_origin(mut self, origin: Origin) -> Self {
        self.origin = origin;
        self
    }

    /// Collected latencies (ms). Copy-on-write, so snapshotting this
    /// agent costs O(tail) however long it has been running.
    pub fn latencies_ms(&self) -> &SegSamples {
        &self.latencies_ms
    }
}

impl Agent for FixedRate {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        if self.remaining > 0 {
            ctx.schedule_wake(SimDuration::ZERO, 0);
        }
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, _token: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.submit(self.request_type, self.origin);
        if self.remaining > 0 {
            ctx.schedule_wake(self.interval, 0);
        }
    }

    fn on_response(&mut self, _ctx: &mut SimCtx<'_>, response: &Response) {
        self.latencies_ms.push(response.latency_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::Simulation;
    use callgraph::{ServiceSpec, TopologyBuilder};
    use simnet::SimTime;

    fn tiny_topology() -> callgraph::Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(16).demand_cv(0.0));
        let api = b.add_service(ServiceSpec::new("api").threads(8).demand_cv(0.0));
        b.add_request_type(
            "get",
            vec![
                (gw, SimDuration::from_millis(1)),
                (api, SimDuration::from_millis(4)),
            ],
        );
        b.build()
    }

    #[test]
    fn one_shot_latency_reflects_demands() {
        let mut sim = Simulation::new(tiny_topology(), SimConfig::default());
        let id = sim.add_agent(Box::new(OneShot::new(RequestTypeId::new(0))));
        sim.run_until(SimTime::from_secs(1));
        // Read the probe back out of the simulation.
        let metrics = sim.metrics();
        assert_eq!(metrics.request_log().len(), 1);
        let rec = metrics.request_log()[0];
        // Demand: 1 ms gateway (split .5/.5) + 4 ms api + 4 network hops
        // (client->gw, gw->api, api->gw, gw->client) at 250 us = 6 ms.
        let lat = rec.latency().as_millis_f64();
        assert!((lat - 6.0).abs() < 0.2, "latency was {lat} ms");
        let _ = id;
    }

    #[test]
    fn fixed_rate_sends_count_requests() {
        let mut sim = Simulation::new(tiny_topology(), SimConfig::default());
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(10),
            25,
        )));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.metrics().request_log().len(), 25);
    }
}
