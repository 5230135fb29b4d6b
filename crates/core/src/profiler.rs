//! The blackbox Profiler module (Section IV-C).
//!
//! Operating purely as an external HTTP client, the profiler:
//!
//! 1. **Crawls** the public request catalogue (the simulator's analogue of
//!    walking the application's public URLs).
//! 2. Measures a **baseline RT** per request type with paced single
//!    probes.
//! 3. Finds each type's **minimum saturating volume** `v_sat`: the
//!    smallest burst whose own requests show a clear RT inflation
//!    (a millibottleneck formed on the path's own bottleneck).
//! 4. Runs the **pairwise interference test** for every ordered pair
//!    `(a, b)`: bursts of `a` at increasing volume multiples of
//!    `v_sat(a)`, with probe requests of `b` interleaved; interference
//!    means the probes' RTs inflate well beyond `b`'s baseline (Fig 9–11).
//!    The sweep stops early when the self-measured millibottleneck length
//!    exceeds the stealth limit.
//! 5. **Classifies** each pair: interference already at the lowest volume
//!    in one direction only → sequential (that side is upstream); in both
//!    directions → shared bottleneck; only at higher volumes → parallel;
//!    never → no dependency. Dependency groups are the connected
//!    components of the result.
//!
//! All actions run on a fixed-slot schedule: each action owns a time slot
//! and is finalised at the slot end with whatever responses arrived.
//! Probes still in flight at finalisation count as *inflated* — an
//! unanswered probe is the strongest possible interference signal.

use std::collections::BTreeMap;

use callgraph::{DependencyGroups, PairwiseDependency, RequestTypeId};
use microsim::{Agent, Response, SimCtx};
use simnet::{RngStream, SegSamples, SimDuration, SimTime};

use crate::botfarm::BotFarm;
use crate::monitor::BurstObservation;

/// Profiler tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// Seed for pacing jitter and bot identities.
    pub seed: u64,
    /// Baseline probes per request type.
    pub baseline_probes: u32,
    /// Spacing between baseline probes.
    pub probe_spacing: SimDuration,
    /// Volumes (requests) tried when searching `v_sat`, ascending.
    pub saturation_sweep: Vec<u32>,
    /// Length `L` over which a profiling burst's volume is spread (so the
    /// burst has a definite rate `B = V / L`; an instantaneous volley
    /// would overwhelm any shared upstream service and mask where the
    /// bottleneck truly sits).
    pub burst_length: SimDuration,
    /// Volume multipliers (relative to `v_sat(a)`) tried in pair tests.
    pub volume_multipliers: Vec<f64>,
    /// Hard cap on any single burst's volume (the bot budget).
    pub max_volume: u32,
    /// Stealth limit on the self-measured millibottleneck length.
    pub pmb_limit: SimDuration,
    /// A self-saturation measurement counts as inflated when it exceeds
    /// `baseline * inflation_factor + inflation_margin_ms`.
    pub inflation_factor: f64,
    /// Absolute inflation margin (ms).
    pub inflation_margin_ms: f64,
    /// Pair-test probes use this (more sensitive) factor: a victim probe
    /// delayed well beyond its baseline indicates interference even when
    /// the delay is smaller than a full saturation plateau.
    pub pair_inflation_factor: f64,
    /// Probes of `b` interleaved into each pair test.
    pub probes_per_test: u32,
    /// Spacing between interleaved probes: probe `p` is sent
    /// `(p + 1) * probe_offset` after the burst, sampling the victim path
    /// while the millibottleneck develops and drains.
    pub probe_offset: SimDuration,
    /// Length of one action slot (burst + observation + settle).
    pub slot: SimDuration,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            seed: 0,
            baseline_probes: 4,
            probe_spacing: SimDuration::from_millis(400),
            saturation_sweep: vec![8, 12, 16, 24, 32, 48, 64, 96, 128, 176, 240, 320, 400],
            burst_length: SimDuration::from_millis(400),
            volume_multipliers: vec![1.0, 1.8, 3.2],
            max_volume: 500,
            pmb_limit: SimDuration::from_millis(500),
            inflation_factor: 3.0,
            inflation_margin_ms: 40.0,
            pair_inflation_factor: 2.2,
            probes_per_test: 6,
            probe_offset: SimDuration::from_millis(120),
            slot: SimDuration::from_secs(3),
        }
    }
}

/// Raw result of one ordered pair sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PairObservation {
    /// Burst side.
    pub attacker: RequestTypeId,
    /// Probe side.
    pub victim: RequestTypeId,
    /// Per multiplier: `(multiplier, interference seen)`.
    pub sweep: Vec<(f64, bool)>,
}

impl PairObservation {
    /// The smallest multiplier that showed interference.
    pub fn threshold(&self) -> Option<f64> {
        self.sweep.iter().find(|(_, hit)| *hit).map(|(m, _)| *m)
    }

    /// Interference already at the lowest tested volume (the signature of
    /// an execution blocking effect).
    pub fn persistent(&self) -> bool {
        self.sweep.first().is_some_and(|(_, hit)| *hit)
    }
}

/// Everything the profiling phase learned.
#[derive(Debug, Clone)]
pub struct ProfilerOutcome {
    /// Public request types (id, name).
    pub catalog: Vec<(RequestTypeId, String)>,
    /// Baseline RT per type, ms (median of the probes).
    pub baseline_ms: BTreeMap<RequestTypeId, f64>,
    /// Minimum saturating volume per type (requests).
    pub v_sat: BTreeMap<RequestTypeId, u32>,
    /// Raw ordered-pair sweeps.
    pub pairs: Vec<PairObservation>,
    /// The estimated dependency groups.
    pub groups: DependencyGroups,
    /// Total profiling requests sent.
    pub requests_sent: u64,
    /// When profiling finished.
    pub finished_at: SimTime,
}

/// Which action the profiler is currently running.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Baseline { type_idx: usize, probe: u32 },
    Saturation { type_idx: usize, sweep_idx: usize },
    Pairs { pair_idx: usize, mult_idx: usize },
    Done,
}

/// The profiling agent. Register it, run the simulation until
/// [`Profiler::is_done`], then read [`Profiler::outcome`].
#[derive(Debug, Clone)]
pub struct Profiler {
    cfg: ProfilerConfig,
    rng: RngStream,
    farm: BotFarm,
    phase: Phase,
    action_seq: u64,
    catalog: Vec<(RequestTypeId, String)>,
    // Baseline phase.
    baseline_samples: BTreeMap<RequestTypeId, SegSamples>,
    baseline_ms: BTreeMap<RequestTypeId, f64>,
    // Saturation phase.
    v_sat: BTreeMap<RequestTypeId, u32>,
    current_burst: Option<BurstObservation>,
    /// Remaining requests and per-chunk count of the paced burst.
    chunk_plan: Option<(RequestTypeId, u32, u32)>,
    // Pair phase.
    ordered_pairs: Vec<(RequestTypeId, RequestTypeId)>,
    probe_results: Vec<Option<f64>>, // RT ms per probe, None = in flight/unsent
    probe_token_index: BTreeMap<u64, usize>,
    probe_victim: Option<RequestTypeId>,
    pair_results: Vec<PairObservation>,
    sweep_acc: Vec<(f64, bool)>,
    stealth_capped: bool,
    // Bookkeeping.
    requests_sent: u64,
    outcome: Option<ProfilerOutcome>,
    // Baseline probe token routing.
    baseline_tokens: BTreeMap<u64, RequestTypeId>,
}

const WAKE_NEXT_ACTION: u64 = u64::MAX;
/// Wake tokens `WAKE_PROBE_BASE + p` fire the delayed probe `p` of the
/// current pair test.
const WAKE_PROBE_BASE: u64 = u64::MAX - 1_024;
/// Wake token that submits the next chunk of the paced burst in flight.
const WAKE_CHUNK: u64 = u64::MAX - 2_048;
/// Pacing granularity of a burst.
const CHUNK_GAP: SimDuration = SimDuration::from_millis(20);

impl Profiler {
    /// Creates the profiling agent.
    pub fn new(cfg: ProfilerConfig) -> Self {
        let farm = BotFarm::new(64, SimDuration::from_millis(3_200));
        Profiler {
            rng: RngStream::from_label(cfg.seed, "grunt/profiler"),
            cfg,
            farm,
            phase: Phase::Baseline {
                type_idx: 0,
                probe: 0,
            },
            action_seq: 0,
            catalog: Vec::new(),
            baseline_samples: BTreeMap::new(),
            baseline_ms: BTreeMap::new(),
            v_sat: BTreeMap::new(),
            current_burst: None,
            chunk_plan: None,
            ordered_pairs: Vec::new(),
            probe_results: Vec::new(),
            probe_token_index: BTreeMap::new(),
            probe_victim: None,
            pair_results: Vec::new(),
            sweep_acc: Vec::new(),
            stealth_capped: false,
            requests_sent: 0,
            outcome: None,
            baseline_tokens: BTreeMap::new(),
        }
    }

    /// `true` once profiling finished and the outcome is available.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// The profiling result, once done.
    pub fn outcome(&self) -> Option<&ProfilerOutcome> {
        self.outcome.as_ref()
    }

    fn inflation_threshold(&self, baseline_ms: f64) -> f64 {
        baseline_ms * self.cfg.inflation_factor + self.cfg.inflation_margin_ms
    }

    /// Starts a paced burst: `volume` requests of `rt` spread evenly over
    /// the configured burst length (each from its own bot), giving the
    /// burst a definite rate `B = V / L`.
    fn send_burst(&mut self, ctx: &mut SimCtx<'_>, rt: RequestTypeId, volume: u32) {
        let now = ctx.now();
        self.current_burst = Some(BurstObservation::new(rt, now, volume));
        let chunks = (self.cfg.burst_length.as_micros() / CHUNK_GAP.as_micros()).max(1) as u32;
        let per_chunk = volume.div_ceil(chunks);
        self.chunk_plan = Some((rt, volume, per_chunk));
        self.submit_chunk(ctx);
    }

    /// Submits the next chunk of the paced burst and reschedules itself.
    fn submit_chunk(&mut self, ctx: &mut SimCtx<'_>) {
        let Some((rt, remaining, per_chunk)) = self.chunk_plan else {
            return;
        };
        let n = remaining.min(per_chunk);
        let now = ctx.now();
        let origins = self.farm.allocate(n as usize, now);
        for origin in origins {
            let token = ctx.submit(rt, origin);
            if let Some(obs) = &mut self.current_burst {
                obs.track(token);
            }
            self.requests_sent += 1;
        }
        let left = remaining - n;
        if left > 0 {
            self.chunk_plan = Some((rt, left, per_chunk));
            ctx.schedule_wake(CHUNK_GAP, WAKE_CHUNK);
        } else {
            self.chunk_plan = None;
        }
    }

    /// Schedules the next action slot.
    fn schedule_slot(&mut self, ctx: &mut SimCtx<'_>, len: SimDuration) {
        self.action_seq += 1;
        ctx.schedule_wake(len, WAKE_NEXT_ACTION);
    }

    fn begin_action(&mut self, ctx: &mut SimCtx<'_>) {
        match self.phase {
            Phase::Baseline { type_idx, probe: _ } => {
                let (rt, _) = self.catalog[type_idx];
                let origin = self.farm.allocate(1, ctx.now())[0];
                let token = ctx.submit(rt, origin);
                self.baseline_tokens.insert(token, rt);
                self.requests_sent += 1;
                let spacing = self.cfg.probe_spacing;
                self.schedule_slot(ctx, spacing);
            }
            Phase::Saturation {
                type_idx,
                sweep_idx,
            } => {
                let (rt, _) = self.catalog[type_idx];
                let volume = self.cfg.saturation_sweep[sweep_idx].min(self.cfg.max_volume);
                self.send_burst(ctx, rt, volume);
                let slot = self.cfg.slot;
                self.schedule_slot(ctx, slot);
            }
            Phase::Pairs { pair_idx, mult_idx } => {
                let (a, b) = self.ordered_pairs[pair_idx];
                let mult = self.cfg.volume_multipliers[mult_idx];
                let v = ((self.v_sat[&a] as f64) * mult).round() as u32;
                let v = v.clamp(1, self.cfg.max_volume);
                self.send_burst(ctx, a, v);
                // Interleave probes of b across the observation window,
                // sampling while the millibottleneck develops and drains
                // (a probe sent at burst start would slip through before
                // the queue has formed).
                self.probe_results = vec![None; self.cfg.probes_per_test as usize];
                self.probe_token_index.clear();
                self.probe_victim = Some(b);
                for p in 0..self.cfg.probes_per_test {
                    let offset = self.cfg.probe_offset * u64::from(p + 1);
                    ctx.schedule_wake(offset, WAKE_PROBE_BASE + u64::from(p));
                }
                let slot = self.cfg.slot;
                self.schedule_slot(ctx, slot);
            }
            Phase::Done => {}
        }
    }

    fn finalize_action(&mut self, ctx: &mut SimCtx<'_>) {
        self.chunk_plan = None;
        match self.phase {
            Phase::Baseline { type_idx, probe } => {
                let next = if probe + 1 < self.cfg.baseline_probes {
                    Phase::Baseline {
                        type_idx,
                        probe: probe + 1,
                    }
                } else if type_idx + 1 < self.catalog.len() {
                    Phase::Baseline {
                        type_idx: type_idx + 1,
                        probe: 0,
                    }
                } else {
                    self.finish_baseline();
                    Phase::Saturation {
                        type_idx: 0,
                        sweep_idx: 0,
                    }
                };
                self.phase = next;
            }
            Phase::Saturation {
                type_idx,
                sweep_idx,
            } => {
                let (rt, _) = self.catalog[type_idx];
                let obs = self.current_burst.take().expect("burst in progress");
                let baseline = self.baseline_ms[&rt];
                let inflated = obs
                    .avg_rt_ms()
                    .is_none_or(|avg| avg > self.inflation_threshold(baseline));
                let volume = self.cfg.saturation_sweep[sweep_idx].min(self.cfg.max_volume);
                let saturated = inflated;
                let next = if saturated {
                    self.v_sat.insert(rt, volume);
                    self.next_saturation_type(type_idx)
                } else if sweep_idx + 1 < self.cfg.saturation_sweep.len() {
                    Phase::Saturation {
                        type_idx,
                        sweep_idx: sweep_idx + 1,
                    }
                } else {
                    // Could not saturate within the bot budget: remember
                    // the cap so pair tests still run at max volume.
                    self.v_sat.insert(rt, self.cfg.max_volume);
                    self.next_saturation_type(type_idx)
                };
                self.phase = next;
            }
            Phase::Pairs { pair_idx, mult_idx } => {
                let (a, b) = self.ordered_pairs[pair_idx];
                // Burst self-observation: stealth check.
                let obs = self.current_burst.take().expect("burst in progress");
                let over_stealth = obs
                    .pmb_estimate()
                    .is_some_and(|p| p > self.cfg.pmb_limit + self.cfg.burst_length)
                    || !obs.is_complete();
                // Probe verdict: a third of probes inflated (probes
                // sample different phases of the bottleneck, so most land
                // outside the saturated window even when interference is
                // real; in-flight probes count as inflated).
                let baseline_b = self.baseline_ms[&b];
                let threshold =
                    baseline_b * self.cfg.pair_inflation_factor + self.cfg.inflation_margin_ms;
                let inflated = self
                    .probe_results
                    .iter()
                    .filter(|r| r.is_none_or(|rt_ms| rt_ms > threshold))
                    .count();
                let hit = inflated * 3 >= self.probe_results.len().max(1);
                let mult = self.cfg.volume_multipliers[mult_idx];
                self.sweep_acc.push((mult, hit));
                self.probe_victim = None;

                let volume_exhausted = {
                    let v = ((self.v_sat[&a] as f64) * mult).round() as u32;
                    v >= self.cfg.max_volume
                };
                let stop_sweep = mult_idx + 1 >= self.cfg.volume_multipliers.len()
                    || (over_stealth && {
                        self.stealth_capped = true;
                        true
                    })
                    || volume_exhausted;
                let next = if stop_sweep {
                    self.pair_results.push(PairObservation {
                        attacker: a,
                        victim: b,
                        sweep: std::mem::take(&mut self.sweep_acc),
                    });
                    if pair_idx + 1 < self.ordered_pairs.len() {
                        Phase::Pairs {
                            pair_idx: pair_idx + 1,
                            mult_idx: 0,
                        }
                    } else {
                        self.finish(ctx.now());
                        Phase::Done
                    }
                } else {
                    Phase::Pairs {
                        pair_idx,
                        mult_idx: mult_idx + 1,
                    }
                };
                self.phase = next;
            }
            Phase::Done => {}
        }
    }

    fn next_saturation_type(&mut self, type_idx: usize) -> Phase {
        if type_idx + 1 < self.catalog.len() {
            Phase::Saturation {
                type_idx: type_idx + 1,
                sweep_idx: 0,
            }
        } else {
            // Prepare pair phase: all ordered pairs in a deterministic but
            // shuffled order (interleaving groups reduces systematic
            // carry-over between adjacent tests).
            let ids: Vec<RequestTypeId> = self.catalog.iter().map(|(id, _)| *id).collect();
            let mut pairs = Vec::new();
            for &a in &ids {
                for &b in &ids {
                    if a != b {
                        pairs.push((a, b));
                    }
                }
            }
            self.rng.shuffle(&mut pairs);
            self.ordered_pairs = pairs;
            Phase::Pairs {
                pair_idx: 0,
                mult_idx: 0,
            }
        }
    }

    fn finish_baseline(&mut self) {
        for (rt, _) in &self.catalog {
            let mut samples = self.baseline_samples.remove(rt).unwrap_or_default();
            let median = if samples.is_empty() {
                // Nothing came back within the probing window: the path is
                // effectively unusable; treat as very slow.
                5_000.0
            } else {
                // Upper median, identical to the old full-sort-and-index
                // (`sorted[len / 2]`) but via the COW store's k-way merge.
                samples.nth_smallest(samples.len() / 2)
            };
            self.baseline_ms.insert(*rt, median);
        }
    }

    fn finish(&mut self, now: SimTime) {
        // Classify each unordered pair from its two ordered sweeps.
        let mut by_pair: BTreeMap<(RequestTypeId, RequestTypeId), Vec<&PairObservation>> =
            BTreeMap::new();
        for obs in &self.pair_results {
            let key = if obs.attacker <= obs.victim {
                (obs.attacker, obs.victim)
            } else {
                (obs.victim, obs.attacker)
            };
            by_pair.entry(key).or_default().push(obs);
        }
        let mut pairwise = BTreeMap::new();
        for ((x, y), obs) in by_pair {
            let fwd = obs.iter().find(|o| o.attacker == x);
            let rev = obs.iter().find(|o| o.attacker == y);
            let dep = classify(fwd.copied(), rev.copied());
            pairwise.insert((x, y), dep);
        }
        let members: Vec<RequestTypeId> = self.catalog.iter().map(|(id, _)| *id).collect();
        let groups = DependencyGroups::from_pairwise(members, pairwise);
        self.outcome = Some(ProfilerOutcome {
            catalog: self.catalog.clone(),
            baseline_ms: self.baseline_ms.clone(),
            v_sat: self.v_sat.clone(),
            pairs: std::mem::take(&mut self.pair_results),
            groups,
            requests_sent: self.requests_sent,
            finished_at: now,
        });
    }
}

/// Classification rule over the two ordered sweeps of one pair.
fn classify(fwd: Option<&PairObservation>, rev: Option<&PairObservation>) -> PairwiseDependency {
    let f_thr = fwd.and_then(PairObservation::threshold);
    let r_thr = rev.and_then(PairObservation::threshold);
    let f_persistent = fwd.is_some_and(PairObservation::persistent);
    let r_persistent = rev.is_some_and(PairObservation::persistent);
    match (f_thr, r_thr) {
        (None, None) => PairwiseDependency::None,
        _ => {
            if f_persistent && r_persistent {
                PairwiseDependency::SharedBottleneck
            } else if f_persistent {
                PairwiseDependency::Sequential {
                    upstream: fwd.expect("persistent implies present").attacker,
                }
            } else if r_persistent {
                PairwiseDependency::Sequential {
                    upstream: rev.expect("persistent implies present").attacker,
                }
            } else {
                PairwiseDependency::Parallel
            }
        }
    }
}

impl Agent for Profiler {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        self.catalog = ctx.request_type_catalog();
        assert!(
            !self.catalog.is_empty(),
            "target application exposes no request types"
        );
        self.begin_action(ctx);
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        if self.outcome.is_some() {
            return;
        }
        if token == WAKE_CHUNK {
            self.submit_chunk(ctx);
            return;
        }
        if (WAKE_PROBE_BASE..WAKE_NEXT_ACTION).contains(&token) {
            let p = (token - WAKE_PROBE_BASE) as usize;
            if let Some(victim) = self.probe_victim {
                if p < self.probe_results.len() {
                    let origin = self.farm.allocate(1, ctx.now())[0];
                    let probe_token = ctx.submit(victim, origin);
                    self.requests_sent += 1;
                    self.probe_token_index.insert(probe_token, p);
                }
            }
            return;
        }
        if token != WAKE_NEXT_ACTION {
            return;
        }
        self.finalize_action(ctx);
        if self.outcome.is_none() {
            self.begin_action(ctx);
        }
    }

    fn on_response(&mut self, _ctx: &mut SimCtx<'_>, response: &Response) {
        if let Some(rt) = self.baseline_tokens.remove(&response.token) {
            self.baseline_samples
                .entry(rt)
                .or_default()
                .push(response.latency_ms());
            return;
        }
        if let Some(idx) = self.probe_token_index.remove(&response.token) {
            if idx < self.probe_results.len() {
                self.probe_results[idx] = Some(response.latency_ms());
            }
            return;
        }
        if let Some(burst) = &mut self.current_burst {
            burst.record(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(attacker: u32, victim: u32, sweep: &[(f64, bool)]) -> PairObservation {
        PairObservation {
            attacker: RequestTypeId::new(attacker),
            victim: RequestTypeId::new(victim),
            sweep: sweep.to_vec(),
        }
    }

    #[test]
    fn threshold_and_persistence() {
        let o = obs(0, 1, &[(1.0, false), (2.0, true), (4.0, true)]);
        assert_eq!(o.threshold(), Some(2.0));
        assert!(!o.persistent());
        let p = obs(0, 1, &[(1.0, true), (2.0, true)]);
        assert!(p.persistent());
        assert_eq!(p.threshold(), Some(1.0));
        let n = obs(0, 1, &[(1.0, false), (2.0, false)]);
        assert_eq!(n.threshold(), None);
    }

    #[test]
    fn classify_none() {
        let f = obs(0, 1, &[(1.0, false), (2.0, false)]);
        let r = obs(1, 0, &[(1.0, false), (2.0, false)]);
        assert_eq!(classify(Some(&f), Some(&r)), PairwiseDependency::None);
        assert_eq!(classify(None, None), PairwiseDependency::None);
    }

    #[test]
    fn classify_parallel() {
        // Interference only appears at higher volumes in either direction.
        let f = obs(0, 1, &[(1.0, false), (2.0, true)]);
        let r = obs(1, 0, &[(1.0, false), (2.0, false)]);
        assert_eq!(classify(Some(&f), Some(&r)), PairwiseDependency::Parallel);
        let r2 = obs(1, 0, &[(1.0, false), (2.0, true)]);
        assert_eq!(classify(Some(&f), Some(&r2)), PairwiseDependency::Parallel);
    }

    #[test]
    fn classify_sequential_picks_upstream() {
        // a blocks b even at the minimum volume; b needs more.
        let f = obs(0, 1, &[(1.0, true), (2.0, true)]);
        let r = obs(1, 0, &[(1.0, false), (2.0, true)]);
        assert_eq!(
            classify(Some(&f), Some(&r)),
            PairwiseDependency::Sequential {
                upstream: RequestTypeId::new(0)
            }
        );
        assert_eq!(
            classify(Some(&r), Some(&f)),
            PairwiseDependency::Sequential {
                upstream: RequestTypeId::new(0)
            }
        );
    }

    #[test]
    fn classify_shared_bottleneck() {
        let f = obs(0, 1, &[(1.0, true)]);
        let r = obs(1, 0, &[(1.0, true)]);
        assert_eq!(
            classify(Some(&f), Some(&r)),
            PairwiseDependency::SharedBottleneck
        );
    }
}
