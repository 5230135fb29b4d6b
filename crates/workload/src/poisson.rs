//! Open-loop Poisson traffic sources.

use microsim::{Agent, Origin, SimCtx};
use simnet::{RngStream, SimDuration, SimTime};

use crate::mix::RequestMix;
use crate::trace::RateTrace;

/// An open-loop source: requests arrive as a (possibly non-homogeneous)
/// Poisson process whose instantaneous rate follows a [`RateTrace`], with
/// types drawn from a [`RequestMix`].
///
/// Open-loop means arrivals do not wait for responses — the standard model
/// for aggregate traffic from a large user base, and the natural fit for
/// experiments specified in req/s (Fig 15).
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mix: RequestMix,
    trace: RateTrace,
    stop_at: SimTime,
    rng: RngStream,
    ip_base: u32,
    sessions: u64,
    next_session: u64,
}

impl PoissonSource {
    /// Creates a source emitting until `stop_at`.
    ///
    /// `seed` drives arrival times, type choices and session assignment.
    pub fn new(mix: RequestMix, trace: RateTrace, stop_at: SimTime, seed: u64) -> Self {
        PoissonSource {
            mix,
            trace,
            stop_at,
            rng: RngStream::from_label(seed, "workload/poisson"),
            ip_base: 0x0A00_0000, // 10.0.0.0/8 block for legit users
            sessions: 50_000,
            next_session: 0,
        }
    }

    /// Constant-rate convenience constructor.
    pub fn at_rate(mix: RequestMix, rate: f64, stop_at: SimTime, seed: u64) -> Self {
        Self::new(mix, RateTrace::constant(rate), stop_at, seed)
    }

    /// Overrides the number of distinct user sessions the traffic is
    /// spread over (affects only IDS-visible identity, not timing).
    pub fn with_sessions(mut self, sessions: u64) -> Self {
        self.sessions = sessions.max(1);
        self
    }

    fn schedule_next(&mut self, ctx: &mut SimCtx<'_>) {
        let now = ctx.now();
        if now >= self.stop_at {
            return;
        }
        let rate = self.trace.rate_at(now).max(1e-9);
        let gap = self.rng.exp(1.0 / rate);
        ctx.schedule_wake(SimDuration::from_secs_f64(gap), 0);
    }
}

impl Agent for PoissonSource {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        self.schedule_next(ctx);
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, _token: u64) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let rt = self.mix.sample(&mut self.rng);
        let session = self.next_session % self.sessions;
        self.next_session += 1;
        let origin = Origin::legit(self.ip_base + (session as u32 & 0xFFFF), session);
        ctx.submit(rt, origin);
        self.schedule_next(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
    use microsim::{SimConfig, Simulation};

    fn topo() -> callgraph::Topology {
        let mut b = TopologyBuilder::new();
        let gw = b.add_service(ServiceSpec::new("gw").threads(256).demand_cv(0.0));
        b.add_request_type("r", vec![(gw, SimDuration::from_micros(100))]);
        b.build()
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(PoissonSource::at_rate(
            RequestMix::single(RequestTypeId::new(0)),
            200.0,
            SimTime::from_secs(10),
            1,
        )));
        sim.run_until(SimTime::from_secs(11));
        let n = sim.metrics().request_log().len() as f64;
        assert!((n - 2000.0).abs() < 200.0, "sent {n} requests");
    }

    #[test]
    fn stops_at_deadline() {
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(PoissonSource::at_rate(
            RequestMix::single(RequestTypeId::new(0)),
            100.0,
            SimTime::from_secs(2),
            2,
        )));
        sim.run_until(SimTime::from_secs(10));
        let last = sim
            .metrics()
            .access_log()
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap();
        assert!(last <= SimTime::from_secs(2));
    }

    #[test]
    fn sessions_rotate() {
        let mut sim = Simulation::new(topo(), SimConfig::default());
        sim.add_agent(Box::new(
            PoissonSource::at_rate(
                RequestMix::single(RequestTypeId::new(0)),
                500.0,
                SimTime::from_secs(2),
                3,
            )
            .with_sessions(10),
        ));
        sim.run_until(SimTime::from_secs(3));
        let sessions: std::collections::BTreeSet<u64> = sim
            .metrics()
            .access_log()
            .iter()
            .map(|e| e.origin.session)
            .collect();
        assert_eq!(sessions.len(), 10);
    }

    #[test]
    fn trace_modulates_rate() {
        let mut sim = Simulation::new(topo(), SimConfig::default());
        let trace = RateTrace::new(SimDuration::from_secs(5), vec![50.0, 500.0]);
        sim.add_agent(Box::new(PoissonSource::new(
            RequestMix::single(RequestTypeId::new(0)),
            trace,
            SimTime::from_secs(10),
            4,
        )));
        sim.run_until(SimTime::from_secs(11));
        let log = sim.metrics().access_log();
        let first: usize = log.iter().filter(|e| e.at < SimTime::from_secs(5)).count();
        let second = log.len() - first;
        assert!(
            second > first * 5,
            "second half ({second}) should far exceed first ({first})"
        );
    }
}
