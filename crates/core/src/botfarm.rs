//! The attacker's bot identity pool.
//!
//! The paper's attacker coordinates a centralised bot farm with
//! millisecond synchronisation; during a burst every bot sends exactly one
//! request. The farm exists to evade two identity-keyed rules:
//!
//! * the per-IP request budget of AWS-Shield-style rate limiting, and
//! * the inter-request-interval IDS rule (< 3 s between two consecutive
//!   requests of one session is flagged).
//!
//! [`BotFarm`] hands out origins round-robin and *grows on demand*
//! whenever every existing bot was used too recently — the paper's
//! "use conservative values (e.g. use more bots)" guidance. The farm size
//! at campaign end is the bot count the tables report.

use microsim::Origin;
use simnet::{SimDuration, SimTime};

/// A pool of attacker identities (IP + session), each used at most once
/// per [`BotFarm::min_interval`].
#[derive(Debug, Clone)]
pub struct BotFarm {
    /// Per-bot time of last use; `SimTime::ZERO` means never used. Bots
    /// are identified by their index.
    last_used: Vec<Option<SimTime>>,
    next: usize,
    min_interval: SimDuration,
    ip_base: u32,
    session_base: u64,
    grown: usize,
}

impl BotFarm {
    /// Creates a farm with `initial` bots that reuses a bot only after
    /// `min_interval` (choose it above the IDS interval threshold, e.g.
    /// 3.2 s against a 3 s rule).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or the interval is zero.
    pub fn new(initial: usize, min_interval: SimDuration) -> Self {
        assert!(initial > 0, "farm needs at least one bot");
        assert!(!min_interval.is_zero(), "reuse interval must be positive");
        BotFarm {
            last_used: vec![None; initial],
            next: 0,
            min_interval,
            ip_base: 0xC600_0000, // 198.x bot block, disjoint from users
            session_base: 1_000_000,
            grown: 0,
        }
    }

    /// Moves the farm into its own identity namespace so two farms (e.g.
    /// the profiling phase's and the attack phase's) never share an IP or
    /// session id — a shared session would chain their request timestamps
    /// under the IDS interval rule.
    pub fn with_namespace(mut self, namespace: u32) -> Self {
        self.ip_base += namespace << 20;
        self.session_base += u64::from(namespace) * 10_000_000;
        self
    }

    /// Sizes a farm for an expected aggregate request rate (req/s): at
    /// least `rate * min_interval` bots are needed so no bot repeats too
    /// fast, with 30 % headroom.
    pub fn sized_for(rate: f64, min_interval: SimDuration) -> Self {
        let bots = (rate * min_interval.as_secs_f64() * 1.3).ceil().max(1.0);
        BotFarm::new(bots as usize, min_interval)
    }

    /// Allocates `n` distinct origins for one burst at time `now`,
    /// growing the pool whenever no cold bot is available.
    pub fn allocate(&mut self, n: usize, now: SimTime) -> Vec<Origin> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = self.take_cold(now);
            self.last_used[idx] = Some(now);
            out.push(Origin::attack(
                self.ip_base + idx as u32,
                self.session_base + idx as u64,
            ));
        }
        out
    }

    fn take_cold(&mut self, now: SimTime) -> usize {
        let len = self.last_used.len();
        for offset in 0..len {
            let idx = (self.next + offset) % len;
            let cold = match self.last_used[idx] {
                None => true,
                Some(t) => now.saturating_since(t) >= self.min_interval,
            };
            if cold {
                self.next = (idx + 1) % len;
                return idx;
            }
        }
        // Every bot is hot: recruit one more.
        self.last_used.push(None);
        self.grown += 1;
        self.last_used.len() - 1
    }

    /// Current farm size.
    pub fn size(&self) -> usize {
        self.last_used.len()
    }

    /// How many bots were recruited beyond the initial pool.
    pub fn grown(&self) -> usize {
        self.grown
    }

    /// Number of bots that were ever used.
    pub fn used(&self) -> usize {
        self.last_used.iter().filter(|t| t.is_some()).count()
    }

    /// The configured minimum reuse interval.
    pub fn min_interval(&self) -> SimDuration {
        self.min_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_origins() {
        let mut farm = BotFarm::new(10, SimDuration::from_secs(3));
        let origins = farm.allocate(10, SimTime::ZERO);
        let ips: std::collections::BTreeSet<u32> = origins.iter().map(|o| o.ip).collect();
        assert_eq!(ips.len(), 10);
        assert!(origins.iter().all(|o| o.is_attack));
    }

    #[test]
    fn reuses_bots_after_interval() {
        let mut farm = BotFarm::new(5, SimDuration::from_secs(3));
        farm.allocate(5, SimTime::ZERO);
        // After the interval, same pool suffices: no growth.
        farm.allocate(5, SimTime::from_secs(4));
        assert_eq!(farm.size(), 5);
        assert_eq!(farm.grown(), 0);
    }

    #[test]
    fn grows_when_all_hot() {
        let mut farm = BotFarm::new(5, SimDuration::from_secs(3));
        farm.allocate(5, SimTime::ZERO);
        // One second later every bot is hot: the farm must recruit.
        let extra = farm.allocate(3, SimTime::from_secs(1));
        assert_eq!(extra.len(), 3);
        assert_eq!(farm.size(), 8);
        assert_eq!(farm.grown(), 3);
    }

    #[test]
    fn bots_never_violate_interval() {
        let mut farm = BotFarm::new(4, SimDuration::from_secs(3));
        let mut last: std::collections::BTreeMap<u32, SimTime> = Default::default();
        for step in 0..50u64 {
            let now = SimTime::from_millis(step * 700);
            for o in farm.allocate(2, now) {
                if let Some(prev) = last.insert(o.ip, now) {
                    assert!(
                        now.saturating_since(prev) >= SimDuration::from_secs(3),
                        "bot {} reused after {}",
                        o.ip,
                        now.saturating_since(prev)
                    );
                }
            }
        }
    }

    #[test]
    fn sized_for_rate() {
        let farm = BotFarm::sized_for(100.0, SimDuration::from_secs(3));
        assert!(farm.size() >= 300, "size {}", farm.size());
        assert!(farm.size() <= 450);
    }
}
