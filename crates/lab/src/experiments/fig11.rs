//! Fig 11: pairwise dependency profiling curves.
//!
//! Reproduces the two illustrative probes of the paper: a *parallel* pair
//! (interference appears only above a volume threshold, in both orders)
//! and a *sequential* pair (one order interferes persistently, the other
//! needs volume). We sweep profiling volumes on two SocialNetwork pairs
//! and report the victim-probe response times per volume and order.

use callgraph::RequestTypeId;
use microsim::{Agent, Origin, Response, SimConfig, SimCtx};
use simnet::{SegSamples, SimDuration, SimTime};

use crate::report::fmt;
use crate::{sweep, Report, RunOpts, Scenario};

/// A one-shot probing agent: sends a paced burst of `attacker` requests
/// and `probes` delayed probes of `victim`, recording the probe RTs.
#[derive(Debug, Clone)]
struct PairProbe {
    attacker: RequestTypeId,
    victim: RequestTypeId,
    volume: u32,
    burst_length: SimDuration,
    probes: u32,
    chunk_remaining: u32,
    probe_rts: SegSamples,
    bot: u32,
}

const WAKE_CHUNK: u64 = 1;
const WAKE_PROBE: u64 = 2;
const CHUNK_GAP: SimDuration = SimDuration::from_millis(20);

impl PairProbe {
    fn new(attacker: RequestTypeId, victim: RequestTypeId, volume: u32) -> Self {
        PairProbe {
            attacker,
            victim,
            volume,
            burst_length: SimDuration::from_millis(400),
            probes: 6,
            chunk_remaining: 0,
            probe_rts: SegSamples::new(),
            bot: 0,
        }
    }

    fn origin(&mut self) -> Origin {
        self.bot += 1;
        Origin::attack(0xCC00_0000 + self.bot, 4_000_000 + u64::from(self.bot))
    }

    fn submit_chunk(&mut self, ctx: &mut SimCtx<'_>) {
        let chunks = (self.burst_length.as_micros() / CHUNK_GAP.as_micros()).max(1) as u32;
        let per_chunk = self.volume.div_ceil(chunks);
        let n = self.chunk_remaining.min(per_chunk);
        for _ in 0..n {
            let o = self.origin();
            ctx.submit(self.attacker, o);
        }
        self.chunk_remaining -= n;
        if self.chunk_remaining > 0 {
            ctx.schedule_wake(CHUNK_GAP, WAKE_CHUNK);
        }
    }
}

impl Agent for PairProbe {
    fn start(&mut self, ctx: &mut SimCtx<'_>) {
        self.chunk_remaining = self.volume;
        self.submit_chunk(ctx);
        for p in 0..self.probes {
            ctx.schedule_wake(SimDuration::from_millis(120) * u64::from(p + 1), WAKE_PROBE);
        }
    }

    fn on_wake(&mut self, ctx: &mut SimCtx<'_>, token: u64) {
        match token {
            WAKE_CHUNK => self.submit_chunk(ctx),
            WAKE_PROBE => {
                let o = self.origin();
                ctx.submit(self.victim, o);
            }
            _ => {}
        }
    }

    fn on_response(&mut self, _ctx: &mut SimCtx<'_>, response: &Response) {
        if response.request_type == self.victim {
            self.probe_rts.push(response.latency_ms());
        }
    }

    fn snapshot(&self) -> Option<microsim::AgentState> {
        Some(microsim::AgentState::of(self))
    }
}

/// Measures the median victim-probe RT for one `(attacker, victim,
/// volume)` combination on a freshly warmed system.
fn probe_once(
    scenario: &Scenario,
    attacker: RequestTypeId,
    victim: RequestTypeId,
    volume: u32,
) -> f64 {
    let mut sim = scenario.build_with(SimConfig::default().access_log(false));
    sim.run_until(SimTime::from_secs(10));
    let id = sim.add_agent(Box::new(PairProbe::new(attacker, victim, volume)));
    sim.run_until(SimTime::from_secs(18));
    let probe: &mut PairProbe = sim.agent_as_mut(id).expect("registered");
    if probe.probe_rts.is_empty() {
        f64::NAN
    } else {
        probe.probe_rts.percentile(0.5)
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let users = fidelity.pick(7_000, 3_000);
    let scenario =
        Scenario::social_network("EC2", microsim::PlatformProfile::ec2(), users, 7_000, 0xF11);
    let topo = &scenario.topology;
    let by_name = |n: &str| topo.request_type_by_name(n).expect("known type");

    // Parallel pair: compose-post (a) vs upload-media (b), different
    // bottlenecks behind the shared compose hub.
    let a = by_name("compose-post");
    let b = by_name("upload-media");
    // Sequential pair: browse-hot-posts (d, bottleneck = shared
    // home-timeline) vs read-home-timeline (c).
    let d = by_name("browse-hot-posts");
    let c = by_name("read-home-timeline");

    let volumes: Vec<u32> = fidelity.pick(vec![30, 60, 120, 240, 400], vec![60, 160, 320]);

    let mut report = Report::new(
        "fig11_profiling",
        "Fig 11 — pairwise dependency profiling curves",
    );
    report.paragraph(format!(
        "Median victim-probe response time (ms) while bursting the attacker path at \
         each volume; system at {users} users. Interference = probe RT well above its \
         ~40-70 ms baseline."
    ));

    let pairs = [
        (
            "parallel pair: burst compose-post, probe upload-media",
            a,
            b,
        ),
        (
            "parallel pair reversed: burst upload-media, probe compose-post",
            b,
            a,
        ),
        (
            "sequential pair: burst browse-hot-posts, probe read-home-timeline",
            d,
            c,
        ),
        (
            "sequential pair reversed: burst read-home-timeline, probe browse-hot-posts",
            c,
            d,
        ),
    ];
    // One cell per (pair, volume); each probes a freshly warmed system.
    let cells: Vec<(RequestTypeId, RequestTypeId, u32)> = pairs
        .iter()
        .flat_map(|&(_, x, y)| volumes.iter().map(move |&v| (x, y, v)))
        .collect();
    let rts = sweep::map_cells(opts.jobs, &cells, |_, &(x, y, v)| {
        probe_once(&scenario, x, y, v)
    });
    for ((title, _, _), rts) in pairs.iter().zip(rts.chunks(volumes.len())) {
        let rows: Vec<Vec<String>> = volumes
            .iter()
            .zip(rts)
            .map(|(v, rt)| vec![v.to_string(), fmt(*rt, 1)])
            .collect();
        report.heading(*title);
        report.table(&["burst volume (req)", "median probe RT (ms)"], rows);
    }

    report.paragraph(
        "Expected shape: the parallel pair shows interference only at the larger \
         volumes in both directions (cross-tier overflow must fill the queues \
         below the shared hub); the sequential pair interferes from the smallest \
         saturating volume in the forward direction (browse-hot-posts saturates \
         the shared home-timeline directly) but needs volume in reverse.",
    );
    report
}
