//! The brute-force flood baseline.

use microsim::{Agent, Origin, SimCtx};
use simnet::{RngStream, SimDuration, SimTime};
use workload::RequestMix;

/// A sustained high-rate flood over a request mix.
///
/// Sized as a multiple of the target's serving capacity, this trivially
/// meets any damage goal — and produces exactly the signals (sustained
/// resource saturation, per-IP rates, traffic volume) that every deployed
/// defence detects. The experiments use it for the volume comparison of
/// Section I: Grunt needs orders of magnitude less traffic.
#[derive(Debug, Clone)]
pub struct BruteForce {
    mix: RequestMix,
    rate: f64,
    stop_at: SimTime,
    rng: RngStream,
    bots: u32,
    next_bot: u32,
    sent: u64,
}

impl BruteForce {
    /// Creates a flood at `rate` req/s over `mix` from `bots` distinct
    /// identities, stopping at `stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive or `bots` is zero.
    pub fn new(mix: RequestMix, rate: f64, bots: u32, stop_at: SimTime, seed: u64) -> Self {
        assert!(rate > 0.0, "flood rate must be positive");
        assert!(bots > 0, "flood needs at least one bot");
        BruteForce {
            mix,
            rate,
            stop_at,
            rng: RngStream::from_label(seed, "baseline/bruteforce"),
            bots,
            next_bot: 0,
            sent: 0,
        }
    }

    /// Total requests sent.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    fn schedule_next(&mut self, ctx: &mut SimCtx<'_>) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let gap = self.rng.exp(1.0 / self.rate);
        ctx.schedule_wake(SimDuration::from_secs_f64(gap), 0);
    }
}

impl Agent for BruteForce {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        self.schedule_next(ctx);
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, _token: u64) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let rt = self.mix.sample(&mut self.rng);
        let bot = self.next_bot % self.bots;
        self.next_bot = self.next_bot.wrapping_add(1);
        ctx.submit(
            rt,
            Origin::attack(0xC800_0000 + bot, 3_000_000 + u64::from(bot)),
        );
        self.sent += 1;
        self.schedule_next(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::social_network;
    use defense::{AlertKind, Ids, IdsConfig, RateShield};
    use microsim::{SimConfig, Simulation};
    use telemetry::{LatencySummary, Traffic};
    use workload::ClosedLoopUsers;

    #[test]
    fn flood_damages_but_gets_detected() {
        let users = 1_000;
        let app = social_network(users);
        let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(4));
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            users,
            app.browsing_model(),
            8,
        )));
        sim.run_until(SimTime::from_secs(10));
        // Flood at 3x the legit rate from 150 bots (each IP far exceeds
        // the 100-requests-per-5-minutes budget).
        let legit_rate = users as f64 / 7.0;
        sim.add_agent(Box::new(BruteForce::new(
            app.request_mix(),
            legit_rate * 3.0,
            150,
            SimTime::from_secs(70),
            1,
        )));
        sim.run_until(SimTime::from_secs(70));

        let m = sim.metrics();
        let damaged = LatencySummary::compute(
            m,
            Traffic::Legit,
            None,
            SimTime::from_secs(30),
            SimTime::from_secs(70),
        );
        assert!(
            damaged.avg_ms > 300.0,
            "flood damage {:.0} ms",
            damaged.avg_ms
        );

        // ...but every rate/resource detector fires.
        let ids = Ids::new(IdsConfig::default()).analyze(m);
        assert!(
            ids.of_kind(AlertKind::ResourceSaturation).count() > 0,
            "sustained saturation must trip resource alerts"
        );
        let interval_hits = ids
            .of_kind(AlertKind::IntervalViolation)
            .filter(|a| a.hit_attacker)
            .count();
        assert!(
            interval_hits > 100,
            "bots hammering from few sessions must trip the interval rule ({interval_hits})"
        );
        assert!(
            RateShield::paper_default().blocked_count(m) > 0,
            "per-IP budgets must block flood bots"
        );
    }

    #[test]
    fn flood_rate_is_approximately_honoured() {
        let app = social_network(1_000);
        let mut sim = Simulation::new(app.topology().clone(), SimConfig::default());
        sim.add_agent(Box::new(BruteForce::new(
            app.request_mix(),
            500.0,
            100,
            SimTime::from_secs(10),
            2,
        )));
        sim.run_until(SimTime::from_secs(12));
        let n = sim.metrics().access_log().len() as f64;
        assert!((n - 5_000.0).abs() < 500.0, "sent {n}");
    }
}
