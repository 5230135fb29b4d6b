//! The Commander module: alternating-burst attack with feedback control
//! (Section IV-D).
//!
//! One [`GruntCommander`] attacks every multi-member dependency group the
//! Profiler found, concurrently. Per group it keeps a rotation over the
//! ranked candidate paths and, after each burst, uses the Monitor's
//! estimates through two Kalman filters to adapt:
//!
//! * **burst volume** — held at the largest value whose measured
//!   millibottleneck length stays under the stealth limit
//!   (`P_MB <= 500 ms`): shrink multiplicatively when over, grow gently
//!   when clearly under;
//! * **inter-burst interval** — per Equation (9) the interval that
//!   *maintains* the blocking effect equals the previous burst's damage
//!   latency; the Commander schedules the next burst at
//!   `burst end + t_damage * interval_factor` and drives `interval_factor`
//!   down (overlapping damage) while the measured `t_min` is below the
//!   damage goal, up when comfortably above;
//! * **number of active paths `m`** — starts at 2 (or the group size if
//!   smaller) and grows whenever the interval factor has bottomed out and
//!   the damage goal is still unmet (the paper's step 3).

use callgraph::{DependencyGroups, PairwiseDependency, RequestTypeId};
use microsim::{Agent, Response, SimCtx};
use queueing::{rank_candidates, RankedPath};
use simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

use crate::botfarm::BotFarm;
use crate::kalman::ScalarKalman;
use crate::monitor::BurstObservation;
use crate::profiler::ProfilerOutcome;
use crate::report::{AttackReport, BurstRecord};

/// Commander tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CommanderConfig {
    /// Seed for pacing jitter.
    pub seed: u64,
    /// Damage goal: average response time of the attacked groups, ms.
    pub damage_goal_ms: f64,
    /// Stealth goal: maximum millibottleneck length.
    pub pmb_limit: SimDuration,
    /// Initial number of paths attacked per group.
    pub initial_paths: usize,
    /// Minimum / maximum interval factor (fraction of the estimated
    /// damage latency waited between bursts).
    pub min_interval_factor: f64,
    /// See [`CommanderConfig::min_interval_factor`].
    pub max_interval_factor: f64,
    /// Upper bound on any burst volume (bot budget per burst).
    pub max_volume: u32,
    /// Length `L` over which each burst's volume is spread (the burst rate
    /// is `B = V / L`).
    pub burst_length: SimDuration,
    /// Minimum gap between two bursts that saturate the *same physical
    /// bottleneck* (paths related by a shared-bottleneck classification
    /// form one cluster). Keeping this above ~1 s guarantees no service's
    /// 1 s-average CPU ever approaches saturation — the stealth property
    /// Fig 14 demonstrates.
    pub bottleneck_cooldown: SimDuration,
    /// When the campaign ends.
    pub stop_at: SimTime,
    /// Reuse interval for bots (stay above the IDS 3 s rule).
    pub bot_reuse: SimDuration,
    /// Enables the feedback loops (volume, cadence, active-path count).
    /// Disabling freezes the initial parameters — the ablation showing why
    /// Section IV-D's adaptation is necessary.
    pub adaptive: bool,
}

impl Default for CommanderConfig {
    fn default() -> Self {
        CommanderConfig {
            seed: 0,
            damage_goal_ms: 1_000.0,
            pmb_limit: SimDuration::from_millis(500),
            initial_paths: 2,
            min_interval_factor: 0.25,
            max_interval_factor: 6.0,
            max_volume: 900,
            burst_length: SimDuration::from_millis(250),
            bottleneck_cooldown: SimDuration::from_millis(2_200),
            stop_at: SimTime::from_secs(1_200),
            bot_reuse: SimDuration::from_millis(3_200),
            adaptive: true,
        }
    }
}

/// Per-group attack state.
#[derive(Debug, Clone)]
struct GroupState {
    /// Ranked candidates (best first).
    ranked: Vec<RankedPath>,
    /// How many of the ranked paths are in the rotation.
    active: usize,
    /// Rotation cursor.
    cursor: usize,
    /// Per-path volume (requests per burst), adapted.
    volume: BTreeMap<RequestTypeId, f64>,
    /// Filtered damage-latency estimate (ms).
    tmin: ScalarKalman,
    /// Filtered per-burst damage (drain) estimate (ms), drives intervals.
    t_damage: ScalarKalman,
    /// Current interval factor.
    interval_factor: f64,
    /// Outstanding bursts (responses may lag multiple burst cycles when
    /// damage accumulates — that is the point of the attack).
    bursts: Vec<BurstObservation>,
    /// Remaining requests and per-chunk count of the burst being paced.
    chunk_plan: Option<(RequestTypeId, u32, u32)>,
    /// Bottleneck-cluster id per ranked path (paths mutually classified
    /// as shared-bottleneck saturate the same service).
    cluster: BTreeMap<RequestTypeId, usize>,
    /// Last burst start per cluster id.
    cluster_last: BTreeMap<usize, SimTime>,
    /// Most recent launches `(path, start)` for adaptive cluster merging.
    recent_launches: Vec<(RequestTypeId, SimTime)>,
    /// Violation co-occurrence per path pair: `(count, last strike time)`.
    /// Cluster merging needs repeated evidence *close in time* — isolated
    /// violations minutes apart are noise, and unbounded accumulation
    /// would eventually merge every pair on a long campaign.
    merge_strikes: BTreeMap<(RequestTypeId, RequestTypeId), (u32, SimTime)>,
    /// Sequence number for wake dedup.
    seq: u64,
}

/// The attacking agent. Construct from a [`ProfilerOutcome`], register,
/// and run the simulation to `stop_at`; read the [`AttackReport`] back
/// with [`GruntCommander::report`].
#[derive(Debug, Clone)]
pub struct GruntCommander {
    cfg: CommanderConfig,
    farm: BotFarm,
    groups: Vec<GroupState>,
    report: AttackReport,
}

impl GruntCommander {
    /// Builds the Commander from profiling results.
    ///
    /// Only multi-member groups are attacked (a singleton blocks nobody
    /// but itself). Initial per-path volume is `1.5 * v_sat`, clamped to
    /// the bot budget.
    pub fn new(outcome: &ProfilerOutcome, cfg: CommanderConfig) -> Self {
        let mut groups = Vec::new();
        for members in outcome.groups.multi_member_groups() {
            let mut ranked = rank_candidates(members, &outcome.groups, |rt| {
                f64::from(*outcome.v_sat.get(&rt).unwrap_or(&cfg.max_volume))
            });
            space_shared_bottlenecks(&mut ranked, &outcome.groups);
            // Every path starts in its own bottleneck cluster; clusters are
            // merged adaptively when overlapping bursts of two paths
            // produce an over-long millibottleneck (see `finish_burst`).
            let clusters: BTreeMap<RequestTypeId, usize> = ranked
                .iter()
                .enumerate()
                .map(|(i, r)| (r.request_type, i))
                .collect();
            let mut volume = BTreeMap::new();
            for r in &ranked {
                // Start slightly below the measured saturation volume and
                // let the P_MB feedback grow it: overshooting on the first
                // bursts is a stealth violation that cannot be undone.
                let v = if r.reference_volume >= f64::from(cfg.max_volume) {
                    // The profiler never confirmed saturation within its
                    // budget: start at the full budget.
                    f64::from(cfg.max_volume)
                } else {
                    (r.reference_volume * 0.8).clamp(4.0, f64::from(cfg.max_volume))
                };
                volume.insert(r.request_type, v);
            }
            let active = cfg.initial_paths.clamp(1, ranked.len());
            groups.push(GroupState {
                ranked,
                active,
                cursor: 0,
                volume,
                tmin: ScalarKalman::new(2_000.0, 40_000.0),
                t_damage: ScalarKalman::new(2_000.0, 40_000.0),
                interval_factor: 1.0,
                bursts: Vec::new(),
                chunk_plan: None,
                cluster: clusters,
                cluster_last: BTreeMap::new(),
                recent_launches: Vec::new(),
                merge_strikes: BTreeMap::new(),
                seq: 0,
            });
        }
        // Size the farm for a rough worst case: every group bursting its
        // maximum volume twice per reuse interval.
        let rate = groups.len().max(1) as f64 * f64::from(cfg.max_volume) * 2.0
            / cfg.bot_reuse.as_secs_f64();
        let farm = BotFarm::sized_for(rate, cfg.bot_reuse).with_namespace(1);
        GruntCommander {
            cfg,
            farm,
            groups,
            report: AttackReport::default(),
        }
    }

    /// The campaign log so far.
    pub fn report(&self) -> &AttackReport {
        &self.report
    }

    /// Final bot-farm size (the tables' "Bot" column).
    pub fn bots(&self) -> usize {
        self.farm.size()
    }

    /// Number of groups under attack.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Active paths per group (grows under feedback).
    pub fn active_paths(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.active).collect()
    }

    const CHUNK_FLAG: u64 = 1 << 47;
    /// Pacing granularity of a burst.
    const CHUNK_GAP: SimDuration = SimDuration::from_millis(20);

    fn wake_token(group: usize, seq: u64) -> u64 {
        (group as u64) << 48 | (seq & 0x7FFF_FFFF_FFFF)
    }

    fn chunk_token(group: usize) -> u64 {
        (group as u64) << 48 | Self::CHUNK_FLAG
    }

    /// Returns `(group, seq, is_chunk)`.
    fn parse_token(token: u64) -> (usize, u64, bool) {
        (
            (token >> 48) as usize,
            token & 0x7FFF_FFFF_FFFF,
            token & Self::CHUNK_FLAG != 0,
        )
    }

    fn launch_burst(&mut self, ctx: &mut SimCtx<'_>, gi: usize) {
        let now = ctx.now();
        if now >= self.cfg.stop_at {
            return;
        }
        // Garbage-collect bursts whose responses went missing for a very
        // long time (finalise with whatever data arrived).
        let stale: Vec<BurstObservation> = {
            let g = &mut self.groups[gi];
            let cutoff = SimDuration::from_secs(20);
            let (old, live): (Vec<_>, Vec<_>) = g
                .bursts
                .drain(..)
                .partition(|b| now.saturating_since(b.started) > cutoff);
            g.bursts = live;
            old
        };
        for obs in stale {
            self.finish_burst(gi, &obs, now);
        }

        // Pick the next path in rotation whose bottleneck cluster is cold
        // (alternating bottlenecks is what keeps every individual service's
        // millibottlenecks short and sparse).
        let cooldown = self.cfg.bottleneck_cooldown;
        let g = &mut self.groups[gi];
        let active = g.active.max(1);
        let mut chosen = None;
        for offset in 0..active {
            let idx = (g.cursor + offset) % active;
            let path = g.ranked[idx].request_type;
            let cluster = g.cluster[&path];
            let cold = g
                .cluster_last
                .get(&cluster)
                .is_none_or(|t| now.saturating_since(*t) >= cooldown);
            if cold {
                chosen = Some((idx, path, cluster));
                break;
            }
        }
        let Some((idx, path, cluster)) = chosen else {
            // Every cluster is hot: retry shortly after the earliest one
            // cools down.
            g.seq += 1;
            let seq = g.seq;
            ctx.schedule_wake(cooldown / 3, Self::wake_token(gi, seq));
            return;
        };
        g.cluster_last.insert(cluster, now);
        g.recent_launches.push((path, now));
        if g.recent_launches.len() > 4 {
            g.recent_launches.remove(0);
        }
        g.cursor = (idx + 1) % active;
        let volume = g.volume[&path]
            .round()
            .clamp(1.0, f64::from(self.cfg.max_volume)) as u32;

        self.report.volume_series.push((now, gi, volume));
        self.groups[gi]
            .bursts
            .push(BurstObservation::new(path, now, volume));
        let chunks =
            (self.cfg.burst_length.as_micros() / Self::CHUNK_GAP.as_micros()).max(1) as u32;
        let per_chunk = volume.div_ceil(chunks);
        self.groups[gi].chunk_plan = Some((path, volume, per_chunk));
        self.submit_chunk(ctx, gi);

        // Timer-driven cadence (Equations (8)/(9)): the next burst fires
        // after `t_damage * interval_factor`, *without* waiting for this
        // burst's queue to drain — an interval factor below 1 overlaps the
        // drain and accumulates damage across the group's bottlenecks.
        let g = &mut self.groups[gi];
        g.seq += 1;
        // Phase-staggered cadence (Equations (8)/(9)): with `k` distinct
        // bottleneck clusters in the rotation and a per-cluster cooldown,
        // launching every `cooldown / k` tiles the blockades back-to-back
        // so the group's blocking never lapses. The feedback factor eases
        // the cadence when the damage goal is exceeded.
        let clusters: std::collections::HashSet<usize> = g
            .ranked
            .iter()
            .take(g.active.max(1))
            .map(|r| g.cluster[&r.request_type])
            .collect();
        let base_ms = self.cfg.bottleneck_cooldown.as_millis_f64() / clusters.len().max(1) as f64;
        let delay_ms = (base_ms * g.interval_factor).max(150.0);
        let seq = g.seq;
        ctx.schedule_wake(
            SimDuration::from_secs_f64(delay_ms / 1e3),
            Self::wake_token(gi, seq),
        );
    }

    /// Submits the next chunk of the group's paced burst and reschedules
    /// itself until the burst volume is exhausted.
    fn submit_chunk(&mut self, ctx: &mut SimCtx<'_>, gi: usize) {
        let Some((path, remaining, per_chunk)) = self.groups[gi].chunk_plan else {
            return;
        };
        let n = remaining.min(per_chunk);
        let now = ctx.now();
        let origins = self.farm.allocate(n as usize, now);
        for origin in origins {
            let token = ctx.submit(path, origin);
            if let Some(obs) = self.groups[gi].bursts.last_mut() {
                obs.track(token);
            }
            self.report.requests_sent += 1;
        }
        let left = remaining - n;
        if left > 0 {
            self.groups[gi].chunk_plan = Some((path, left, per_chunk));
            ctx.schedule_wake(Self::CHUNK_GAP, Self::chunk_token(gi));
        } else {
            self.groups[gi].chunk_plan = None;
        }
    }

    /// Close out a burst: feed the Monitor estimates into the filters and
    /// adapt volume / interval / active-path count.
    fn finish_burst(&mut self, gi: usize, obs: &BurstObservation, now: SimTime) {
        let g = &mut self.groups[gi];
        let pmb = obs.pmb_estimate();
        let avg = obs.avg_rt_ms();
        self.report.bursts.push(BurstRecord {
            group: gi,
            path: obs.path,
            started: obs.started,
            volume: obs.sent,
            pmb_estimate: pmb,
            avg_rt_ms: avg,
        });

        // Keep the estimators current even in the frozen ablation (they
        // drive scheduling), but apply no parameter feedback.
        if !self.cfg.adaptive {
            if let Some(p) = pmb {
                g.t_damage.update(p.as_millis_f64());
            }
            if let Some(rt) = avg {
                let tmin = g.tmin.update(rt);
                self.report.tmin_series.push((now, gi, tmin));
            }
            return;
        }

        // Stealth feedback on this path's volume (P_MB is linear in the
        // volume at fixed rate, Section III).
        if let Some(p) = pmb {
            // A paced burst's completions span the burst length even with
            // zero queueing, so the actual saturation is roughly
            // `measured - L`; the stealth budget therefore corresponds to
            // a measurement of `L + limit`.
            let pacing_floor = self.cfg.burst_length.as_millis_f64();
            let budget = self.cfg.pmb_limit.as_millis_f64() + pacing_floor;
            let measured = p.as_millis_f64().max(1.0);
            let v = g.volume.get_mut(&obs.path).expect("known path");
            if measured <= pacing_floor * 1.2 + 40.0 {
                // No millibottleneck formed at all: grow firmly.
                *v = (*v * 1.3).min(f64::from(self.cfg.max_volume));
            } else if measured > 0.9 * budget {
                *v = (*v * (0.78 * budget / measured).max(0.5)).max(4.0);
                // A too-long bottleneck also means bursts overlap on the
                // same resource: ease the cadence...
                g.interval_factor = (g.interval_factor * 1.15).min(self.cfg.max_interval_factor);
                // ...and if the millibottleneck ran far past the limit
                // right after another path's burst, the two likely
                // saturate the same physical service. Two strikes on the
                // same pair merge their clusters so the cooldown spaces
                // them apart.
                // Differential collision test: when the whole group's
                // bursts measure high (accumulated damage — the attack
                // working as intended), a high reading carries no
                // collision information. Only a reading far above both the
                // stealth budget and the group's running average suggests
                // two paths saturating one service.
                let group_avg = g.t_damage.estimate().unwrap_or(budget);
                if measured > 1.3 * budget && measured > 1.8 * group_avg {
                    let overlap_window = self.cfg.pmb_limit * 2;
                    let other = g
                        .recent_launches
                        .iter()
                        .rev()
                        .find(|(p, t)| {
                            *p != obs.path && obs.started.saturating_since(*t) <= overlap_window
                        })
                        .map(|(p, _)| *p);
                    if let Some(other) = other {
                        let key = if obs.path <= other {
                            (obs.path, other)
                        } else {
                            (other, obs.path)
                        };
                        let entry = g.merge_strikes.entry(key).or_insert((0, SimTime::ZERO));
                        if now.saturating_since(entry.1) > SimDuration::from_secs(30) {
                            entry.0 = 0;
                        }
                        entry.0 += 1;
                        entry.1 = now;
                        if entry.0 >= 2 {
                            let ca = g.cluster[&obs.path];
                            let cb = g.cluster[&other];
                            if ca != cb {
                                let (keep, drop) = (ca.min(cb), ca.max(cb));
                                for c in g.cluster.values_mut() {
                                    if *c == drop {
                                        *c = keep;
                                    }
                                }
                            }
                        }
                    }
                }
            } else if measured < 0.65 * budget {
                *v = (*v * 1.15).min(f64::from(self.cfg.max_volume));
            }
        }

        // Damage feedback. The drain time of this burst's queue is best
        // estimated by the millibottleneck length; the damage perceived by
        // the group is the average burst RT.
        if let Some(p) = pmb {
            g.t_damage.update(p.as_millis_f64());
        }
        if let Some(rt) = avg {
            let tmin = g.tmin.update(rt);
            self.report.tmin_series.push((now, gi, tmin));
            if tmin < 0.9 * self.cfg.damage_goal_ms {
                g.interval_factor = (g.interval_factor * 0.85).max(self.cfg.min_interval_factor);
                if g.interval_factor <= self.cfg.min_interval_factor * 1.01 {
                    if g.active < g.ranked.len() {
                        g.active += 1;
                    } else if let Some(p) = pmb {
                        // Cadence and path count are maxed out and the goal
                        // is still unmet: push volume toward the stealth
                        // ceiling (the shrink rule above caps the climb).
                        let pacing = self.cfg.burst_length.as_millis_f64();
                        let budget = self.cfg.pmb_limit.as_millis_f64() + pacing;
                        if p.as_millis_f64() < 0.85 * budget {
                            let v = g.volume.get_mut(&obs.path).expect("known path");
                            *v = (*v * 1.1).min(f64::from(self.cfg.max_volume));
                        }
                    }
                }
            } else if tmin > 1.1 * self.cfg.damage_goal_ms {
                g.interval_factor = (g.interval_factor * 1.15).min(self.cfg.max_interval_factor);
                if tmin > 2.0 * self.cfg.damage_goal_ms {
                    // Far past the goal (e.g. the baseline itself surged,
                    // Fig 15): shed burst volume, not just cadence — extra
                    // damage is pure stealth risk.
                    let v = g.volume.get_mut(&obs.path).expect("known path");
                    *v = (*v * 0.7).max(4.0);
                }
            }
        }
    }
}

impl Agent for GruntCommander {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        // Open every group with a staggered first burst (the opening mixed
        // burst of Section III-B is realised as back-to-back bursts on the
        // first `active` paths).
        for gi in 0..self.groups.len() {
            let stagger = SimDuration::from_millis(50 * gi as u64);
            self.groups[gi].seq += 1;
            let seq = self.groups[gi].seq;
            ctx.schedule_wake(stagger, Self::wake_token(gi, seq));
        }
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        let (gi, seq, is_chunk) = Self::parse_token(token);
        if gi >= self.groups.len() {
            return;
        }
        if is_chunk {
            self.submit_chunk(ctx, gi);
            return;
        }
        if seq != self.groups[gi].seq {
            return; // stale timer
        }
        self.launch_burst(ctx, gi);
    }

    fn on_response(&mut self, ctx: &mut SimCtx<'_>, response: &Response) {
        let now = ctx.now();
        for gi in 0..self.groups.len() {
            let mut completed_idx = None;
            let mut matched = false;
            for (i, obs) in self.groups[gi].bursts.iter_mut().enumerate() {
                if obs.record(response) {
                    matched = true;
                    if obs.is_complete() {
                        completed_idx = Some(i);
                    }
                    break;
                }
            }
            if let Some(i) = completed_idx {
                let obs = self.groups[gi].bursts.remove(i);
                self.finish_burst(gi, &obs, now);
            }
            if matched {
                return;
            }
        }
        let _ = ctx;
    }
}

/// Reorders ranked candidates so that paths sharing a bottleneck
/// (classified [`PairwiseDependency::SharedBottleneck`]) are not adjacent
/// in the rotation: consecutive bursts on the same physical bottleneck
/// double its saturation window and show up on 1 s monitors.
fn space_shared_bottlenecks(ranked: &mut [RankedPath], deps: &DependencyGroups) {
    for i in 1..ranked.len() {
        let prev = ranked[i - 1].request_type;
        if matches!(
            deps.pairwise(prev, ranked[i].request_type),
            PairwiseDependency::SharedBottleneck
        ) {
            // Find a later candidate that does not share the previous
            // bottleneck and swap it forward.
            if let Some(j) = (i + 1..ranked.len()).find(|&j| {
                !matches!(
                    deps.pairwise(prev, ranked[j].request_type),
                    PairwiseDependency::SharedBottleneck
                )
            }) {
                ranked.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callgraph::ExecutionPath;
    use queueing::BlockingKind;

    #[test]
    fn shared_bottleneck_siblings_get_spaced() {
        // Three paths: 0 and 1 share a bottleneck (same service), 2 is
        // distinct. After spacing, 0 and 1 must not be adjacent.
        let ms = SimDuration::from_millis;
        let paths = vec![
            ExecutionPath::from_chain(
                RequestTypeId::new(0),
                vec![
                    (callgraph::ServiceId::new(0), ms(1)),
                    (callgraph::ServiceId::new(1), ms(9)),
                ],
            ),
            ExecutionPath::from_chain(
                RequestTypeId::new(1),
                vec![
                    (callgraph::ServiceId::new(2), ms(1)),
                    (callgraph::ServiceId::new(1), ms(9)),
                ],
            ),
            ExecutionPath::from_chain(
                RequestTypeId::new(2),
                vec![
                    (callgraph::ServiceId::new(0), ms(1)),
                    (callgraph::ServiceId::new(3), ms(9)),
                ],
            ),
        ];
        let deps = DependencyGroups::from_ground_truth(&paths);
        let mut ranked: Vec<RankedPath> = paths
            .iter()
            .map(|p| RankedPath {
                request_type: p.request_type(),
                kind: BlockingKind::Execution,
                reference_volume: 100.0,
            })
            .collect();
        space_shared_bottlenecks(&mut ranked, &deps);
        for w in ranked.windows(2) {
            let pair = deps.pairwise(w[0].request_type, w[1].request_type);
            assert_ne!(
                pair,
                PairwiseDependency::SharedBottleneck,
                "adjacent shared-bottleneck paths after spacing: {ranked:?}"
            );
        }
    }

    #[test]
    fn wake_tokens_roundtrip() {
        for (g, s) in [(0usize, 1u64), (5, 999), (12, 1 << 40)] {
            let t = GruntCommander::wake_token(g, s);
            assert_eq!(GruntCommander::parse_token(t), (g, s, false));
        }
        let c = GruntCommander::chunk_token(3);
        assert_eq!(GruntCommander::parse_token(c), (3, 0, true));
    }
}
