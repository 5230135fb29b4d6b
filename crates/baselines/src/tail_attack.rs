//! The single-path Tail-attack baseline.

use callgraph::RequestTypeId;
use microsim::{Agent, Origin, SimCtx};
use simnet::{SimDuration, SimTime};

/// Parameters of the single-path ON/OFF attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailAttackConfig {
    /// The single critical path attacked.
    pub target: RequestTypeId,
    /// Requests per burst (the ON pulse).
    pub burst_volume: u32,
    /// Length over which a burst's volume is spread.
    pub burst_length: SimDuration,
    /// OFF period between bursts.
    pub interval: SimDuration,
    /// When to stop.
    pub stop_at: SimTime,
}

impl TailAttackConfig {
    /// A configuration comparable to Grunt's per-path parameters:
    /// millibottleneck-regime bursts (the queue drains between pulses, so
    /// the average rate stays below the path's capacity — the Tail attack
    /// is a *low-rate* attack), all aimed at one path.
    pub fn comparable(target: RequestTypeId, stop_at: SimTime) -> Self {
        TailAttackConfig {
            target,
            burst_volume: 120,
            burst_length: SimDuration::from_millis(250),
            interval: SimDuration::from_millis(2_250),
            stop_at,
        }
    }
}

/// The single-path ON/OFF attacker.
///
/// Sends pulses of `burst_volume` requests of one type, spaced by
/// `interval` — the waveform of the Tail attack, which Grunt generalises
/// to multiple alternating paths. Experiments read the damage from the
/// request log, not from the agent.
#[derive(Debug, Clone)]
pub struct TailAttack {
    cfg: TailAttackConfig,
    sent: u64,
    chunk_remaining: u32,
    next_bot: u32,
}

const WAKE_BURST: u64 = 0;
const WAKE_CHUNK: u64 = 1;
const CHUNK_GAP: SimDuration = SimDuration::from_millis(20);

impl TailAttack {
    /// Creates the attacker.
    ///
    /// # Panics
    ///
    /// Panics if the burst volume is zero.
    pub fn new(cfg: TailAttackConfig) -> Self {
        assert!(cfg.burst_volume > 0, "burst volume must be positive");
        TailAttack {
            cfg,
            sent: 0,
            chunk_remaining: 0,
            next_bot: 0,
        }
    }

    /// Total attack requests sent.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    fn submit_chunk(&mut self, ctx: &mut SimCtx<'_>) {
        let chunks = (self.cfg.burst_length.as_micros() / CHUNK_GAP.as_micros()).max(1) as u32;
        let per_chunk = self.cfg.burst_volume.div_ceil(chunks);
        let n = self.chunk_remaining.min(per_chunk);
        for _ in 0..n {
            // A fresh bot identity per request, like Grunt's farm.
            let bot = self.next_bot;
            self.next_bot = self.next_bot.wrapping_add(1);
            ctx.submit(
                self.cfg.target,
                Origin::attack(
                    0xC700_0000 + (bot % 4096),
                    2_000_000 + u64::from(bot % 4096),
                ),
            );
            self.sent += 1;
        }
        self.chunk_remaining -= n;
        if self.chunk_remaining > 0 {
            ctx.schedule_wake(CHUNK_GAP, WAKE_CHUNK);
        }
    }
}

impl Agent for TailAttack {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        ctx.schedule_wake(SimDuration::ZERO, WAKE_BURST);
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        if token == WAKE_CHUNK {
            self.submit_chunk(ctx);
            return;
        }
        if ctx.now() >= self.cfg.stop_at {
            return;
        }
        self.chunk_remaining = self.cfg.burst_volume;
        self.submit_chunk(ctx);
        ctx.schedule_wake(self.cfg.burst_length + self.cfg.interval, WAKE_BURST);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::social_network;
    use microsim::{SimConfig, Simulation};
    use telemetry::{LatencySummary, Traffic};
    use workload::ClosedLoopUsers;

    /// The motivating claim of Section VII: a single-path attack damages
    /// only its own dependency group; paths in other groups are unharmed.
    #[test]
    fn single_path_attack_leaves_other_groups_unharmed() {
        let users = 2_000;
        let app = social_network(users);
        let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(5));
        sim.add_agent(Box::new(ClosedLoopUsers::new(
            users,
            app.browsing_model(),
            9,
        )));
        sim.run_until(SimTime::from_secs(10));
        // Attack compose-rich-post (the write group's hub path).
        let target = app
            .topology()
            .request_type_by_name("compose-rich-post")
            .expect("known type");
        sim.add_agent(Box::new(TailAttack::new(TailAttackConfig::comparable(
            target,
            SimTime::from_secs(80),
        ))));
        sim.run_until(SimTime::from_secs(80));

        let m = sim.metrics();
        let from = SimTime::from_secs(20);
        let to = SimTime::from_secs(80);
        let write = LatencySummary::compute(
            m,
            Traffic::Legit,
            app.topology().request_type_by_name("compose-post"),
            from,
            to,
        );
        let read = LatencySummary::compute(
            m,
            Traffic::Legit,
            app.topology().request_type_by_name("read-home-timeline"),
            from,
            to,
        );
        let social = LatencySummary::compute(
            m,
            Traffic::Legit,
            app.topology().request_type_by_name("login"),
            from,
            to,
        );
        // The attacked group suffers...
        assert!(
            write.avg_ms > 150.0,
            "write path should be damaged, got {:.0} ms",
            write.avg_ms
        );
        // ...while other groups barely notice.
        assert!(
            read.avg_ms < 120.0,
            "read path should be unharmed, got {:.0} ms",
            read.avg_ms
        );
        assert!(
            social.avg_ms < 120.0,
            "social path should be unharmed, got {:.0} ms",
            social.avg_ms
        );
    }

    #[test]
    fn waveform_respects_on_off_schedule() {
        let app = social_network(1_000);
        let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(2));
        sim.add_agent(Box::new(TailAttack::new(TailAttackConfig {
            target: callgraph::RequestTypeId::new(0),
            burst_volume: 50,
            burst_length: SimDuration::from_millis(200),
            interval: SimDuration::from_millis(800),
            stop_at: SimTime::from_secs(5),
        })));
        sim.run_until(SimTime::from_secs(6));
        // 5 s / 1 s cycle = 5 bursts of 50.
        assert_eq!(sim.metrics().access_log().len(), 250);
        // All attack-labelled.
        assert!(sim
            .metrics()
            .access_log()
            .iter()
            .all(|e| e.origin.is_attack));
    }
}
