//! Kernel mechanism benchmark: how much faster each fast path is than the
//! reference twin it replaced, plus the `--check` correctness gate.
//!
//! ```text
//! bench_kernel [--out <path>] [--quick] [--check]
//! ```
//!
//! End-to-end speed is `grunt_bench`'s job; this binary measures only what
//! no end-to-end run can show. Every section times a fast program against
//! its twin in [`ROUNDS`] alternating rounds and reports `min`/`median`/`max`
//! per side plus the per-round ratio, then the whole set is written as JSON
//! to `--out` (default `BENCH_kernel.json`) and stdout. `--quick` skips the
//! Table I param sweep, the one section that runs whole experiments.
//! `--check` runs only the correctness gate — a warm-snapshot forked
//! campaign must be byte-identical to a cold one, batched RNG draws must
//! match the per-call sequence, the indexed telemetry/defense queries must
//! match their naive full-scan ground truths, and disabled resilience must
//! match none — writing no JSON and exiting nonzero on any mismatch (CI runs
//! this). Any other argument exits 2 with a usage line.

#![expect(
    clippy::disallowed_methods,
    reason = "a wall-clock benchmark: it reads the clock and argv by design"
)]

use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
use microsim::agents::FixedRate;
use microsim::{Metrics, Origin, ResilienceConfig, ResiliencePolicy, SimConfig, Simulation};
use simnet::{EventQueue, HeapEventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::{LatencySummary, Traffic};

const USAGE: &str = "usage: bench_kernel [--out <path>] [--quick] [--check]";

/// The command line: exactly `--out <path>`, `--quick` and `--check`.
#[derive(Debug, PartialEq)]
struct Args {
    out: String,
    quick: bool,
    check: bool,
}

/// Parses the arguments after the program name; an unknown flag or an
/// `--out` without a path is an error, never silently ignored.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        out: "BENCH_kernel.json".to_string(),
        quick: false,
        check: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--check" => parsed.check = true,
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => parsed.out.clone_from(path),
                _ => return Err("--out expects a path".to_string()),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Alternating rounds per comparison: an odd count, so the median is one
/// measured round, and enough of them for the spread to mean something.
const ROUNDS: usize = 15;

/// Wall-clock budget of one side's round; a round always runs its program
/// at least once.
const ROUND_BUDGET: Duration = Duration::from_millis(70);

/// Rounds of the Table I param sweep, whose programs run for seconds.
const SWEEP_ROUNDS: usize = 3;

/// `min`/`median`/`max` of one quantity over a comparison's rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }

    fn json(self, scale: f64, decimals: usize) -> String {
        format!(
            "{{\"min\": {:.decimals$}, \"median\": {:.decimals$}, \"max\": {:.decimals$}}}",
            self.min * scale,
            self.median * scale,
            self.max * scale
        )
    }
}

/// A fast program `a` timed against its twin `b`: ns per call of each side
/// and the per-round ratio `b / a` (how many times longer the twin takes).
struct Comparison {
    rounds: usize,
    a: Spread,
    b: Spread,
    ratio: Spread,
}

impl Comparison {
    /// The comparison's JSON fields under `names` (fast side, twin, ratio),
    /// both sides scaled from ns per call by `scale` into `unit`. Also
    /// echoes the medians and the ratio's range to stderr.
    fn report(
        &self,
        names: [&'static str; 3],
        unit: &str,
        scale: f64,
    ) -> [(&'static str, String); 3] {
        eprintln!(
            "   {} {:.2} {unit}, {} {:.2} {unit}: {} {:.2}x [{:.2}–{:.2}] over {} rounds",
            names[0],
            self.a.median * scale,
            names[1],
            self.b.median * scale,
            names[2],
            self.ratio.median,
            self.ratio.min,
            self.ratio.max,
            self.rounds
        );
        [
            (names[0], self.a.json(scale, 2)),
            (names[1], self.b.json(scale, 2)),
            (names[2], self.ratio.json(1.0, 3)),
        ]
    }
}

/// The fields every timing section starts with: its sample count and the
/// unit of its timings.
fn section(rounds: usize, unit: &str) -> Vec<(&'static str, String)> {
    vec![
        ("rounds", rounds.to_string()),
        ("unit", format!("\"{unit}\"")),
    ]
}

/// The one sampler: warms each program up with one call, then times `a`
/// and `b` in `rounds` alternating rounds of at least `budget` each (mean
/// ns per call). Each ratio pairs two adjacent rounds, so drift on a shared
/// host moves both sides of it alike.
fn compare<A, B>(
    rounds: usize,
    budget: Duration,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Comparison {
    black_box(a());
    black_box(b());
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (na, nb) = (round_ns(&mut a, budget), round_ns(&mut b, budget));
        ta.push(na);
        tb.push(nb);
        ratios.push(nb / na);
    }
    Comparison {
        rounds,
        a: Spread::of(ta),
        b: Spread::of(tb),
        ratio: Spread::of(ratios),
    }
}

/// Runs `f` until `budget` has elapsed (at least once); mean ns per call.
fn round_ns<T>(f: &mut impl FnMut() -> T, budget: Duration) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        black_box(f());
        calls += 1;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / f64::from(calls);
        }
    }
}

/// Renders `fields` as a JSON object, one field per line, closing at
/// `indent` spaces.
fn object(fields: &[(&str, String)], indent: usize) -> String {
    let pad = " ".repeat(indent + 2);
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{pad}\"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{}}}", lines.join(",\n"), " ".repeat(indent))
}

/// Pending-event population of the sparse regime the workloads actually
/// reach: the high-water mark of `grunt_bench`'s `profiling` workload (the
/// fig16 profiler on App.2), whose user timers live in the think-timer
/// arena rather than on the wheel. At this density a 64 µs wheel block
/// holds under one event, so nearly every pop refills from level 1.
const SPARSE_PENDING: u64 = 1_433;

/// Pending-event population of the dense paper-cell hold model: 7-12K
/// closed-loop user timers plus in-flight request events.
const HOLD_PENDING: u64 = 32_768;

/// Pending population of the deep-wheel regime: what a 100k+ user cell
/// would park on the wheel *without* the think-timer arena (one timer per
/// sleeping user plus in-flight request events).
const DEEP_PENDING: u64 = 131_072;

/// Pops (each followed by one reschedule) per hold-model run.
const HOLD_OPS: u64 = 50_000;

/// Scheduling-offset mixture (µs) mirroring the kernel's event
/// population: network hops, service demands, metric sampling and
/// think-time timers. `r` is a uniform random word.
fn kernel_offset_micros(r: u64) -> u64 {
    match r % 100 {
        0..=44 => 250,                // network hop
        45..=84 => 1_000 + r % 9_000, // service demand, 1-10 ms
        85..=94 => 100_000,           // metrics sampling window
        _ => 500_000 + r % 4_500_000, // think time, 0.5-5 s
    }
}

/// A deterministic xorshift64 step, for seeding bench programs without an
/// RNG dependency.
fn xorshift64(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Hold-model program (the kernel's steady-state access pattern): keep
/// `$pending` events queued, pop the earliest and reschedule a successor
/// at an offset drawn from the kernel's event mixture, then drain. A macro
/// because the wheel and the heap share no trait.
macro_rules! hold_program {
    ($queue:expr, $pending:expr) => {{
        let mut q = $queue;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..$pending {
            let r = xorshift64(&mut x);
            q.push(SimTime::from_micros(kernel_offset_micros(r)), i);
        }
        let mut sum = 0u64;
        for i in 0..HOLD_OPS {
            let (t, v) = q.pop().expect("pending population never drains");
            sum = sum.wrapping_add(v);
            let r = xorshift64(&mut x);
            q.push(t + SimDuration::from_micros(1 + kernel_offset_micros(r)), i);
        }
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    }};
}

fn chain_topology() -> callgraph::Topology {
    let mut b = TopologyBuilder::new();
    let gw = b.add_service(ServiceSpec::new("gw").threads(256).cores(4).demand_cv(0.1));
    let api = b.add_service(ServiceSpec::new("api").threads(64).cores(2).demand_cv(0.1));
    let db = b.add_service(ServiceSpec::new("db").threads(32).cores(2).demand_cv(0.1));
    b.add_request_type(
        "r",
        vec![
            (gw, SimDuration::from_micros(300)),
            (api, SimDuration::from_millis(2)),
            (db, SimDuration::from_millis(4)),
        ],
    );
    b.build()
}

/// Runs the 3-stage chain at 400 req/s (plus a 40 req/s attack source, so
/// the request log carries both origins) for `secs` simulated seconds and
/// returns the warm simulation. The rate keeps every stage below
/// saturation (db: 440 · 4 ms / 2 cores = 0.88), so the in-flight
/// population — and with it the live state a fork must copy — stays
/// bounded no matter how long the prefix runs.
fn warm_sim(secs: u64) -> Simulation {
    let mut sim = Simulation::new(chain_topology(), SimConfig::default().access_log(false));
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        SimDuration::from_micros(2_500),
        400 * secs,
    )));
    sim.add_agent(Box::new(
        FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_micros(25_000),
            40 * secs,
        )
        .with_origin(Origin::attack(1, 1)),
    ));
    sim.run_until(SimTime::from_secs(secs));
    sim
}

/// Mostly-legit traffic mix for the defense-analytics section: 64 browsers
/// on distinct IPs/sessions pacing one request per 3.2 s (above the IDS
/// inter-request threshold, so they trip no interval rule) plus one slow
/// attack source. Access logging stays on — the IDS and shield read it.
fn defense_sim(secs: u64) -> Simulation {
    let mut sim = Simulation::new(chain_topology(), SimConfig::default());
    let legit_interval = SimDuration::from_micros(3_200_000);
    let per_agent = secs * 1_000_000 / 3_200_000;
    for i in 0..64u32 {
        sim.add_agent(Box::new(
            FixedRate::new(RequestTypeId::new(0), legit_interval, per_agent)
                .with_origin(Origin::legit(0x0A00_0000 + i, u64::from(i))),
        ));
    }
    sim.add_agent(Box::new(
        FixedRate::new(
            RequestTypeId::new(0),
            SimDuration::from_millis(500),
            2 * secs,
        )
        .with_origin(Origin::attack(0xBAD, 0xBAD)),
    ));
    sim.run_until(SimTime::from_secs(secs));
    sim
}

/// What a pre-COW `Metrics` clone had to do: copy every record of every log
/// into freshly allocated storage. The baseline for the fork-cost section.
fn deep_copy_metrics(m: &Metrics) -> u64 {
    let requests: Vec<_> = m.request_log().iter().copied().collect();
    let services: Vec<_> = m.windows().flat_map(|row| row.iter().copied()).collect();
    let network: Vec<_> = m.network_windows().copied().collect();
    (requests.len() + services.len() + network.len()) as u64
}

/// The smoke test behind `--check`: asserts the two invariants this crate's
/// numbers rely on, fast enough for CI.
fn check() {
    eprintln!("== check: batched RNG draws match the per-call sequence ==");
    let mut per_call = simnet::RngStream::from_label(7, "bench/check");
    let mut batched = simnet::RngStream::from_label(7, "bench/check");
    let mut buf = [0.0f64; 32];
    batched.fill_standard_normal(&mut buf);
    for (i, z) in buf.iter().enumerate() {
        let expected = per_call.lognormal_mean_cv(4.0, 0.3);
        let got = simnet::lognormal_mean_cv_from_z(4.0, 0.3, *z);
        assert!(
            expected == got,
            "draw {i}: per-call {expected} != batched {got}"
        );
    }

    eprintln!("== check: forked campaign is byte-identical to cold ==");
    let scenario = lab::Scenario::social_network(
        "check",
        microsim::PlatformProfile::ec2(),
        1_500,
        1_500,
        0xC4EC,
    );
    let baseline = SimDuration::from_secs(20);
    let attack = SimDuration::from_secs(60);
    let config = grunt::CampaignConfig::default();
    let warm = lab::WarmProfiled::new(&scenario, config.profiler.clone(), baseline);
    let forked = lab::AttackRun::forked(&warm, config.commander.clone(), attack);
    let cold = lab::AttackRun::execute(&scenario, config, baseline, attack);
    let forked_report = comparison_report(&forked);
    let cold_report = comparison_report(&cold);
    if forked_report != cold_report {
        print_first_divergence(&forked_report, &cold_report);
        panic!(
            "forked campaign diverges from cold re-simulation (first divergent report line above)"
        );
    }

    eprintln!("== check: indexed latency summaries match the naive scan ==");
    let m = forked.sim.metrics();
    let horizon = SimTime::from_secs(120);
    for traffic in [Traffic::All, Traffic::Legit, Traffic::Attack] {
        for request_type in [
            None,
            Some(RequestTypeId::new(0)),
            Some(RequestTypeId::new(3)),
        ] {
            for (from, to) in [
                (SimTime::ZERO, horizon),
                (SimTime::from_secs(25), SimTime::from_secs(45)),
                (SimTime::from_millis(10_500), SimTime::from_millis(11_750)),
            ] {
                let fast = LatencySummary::compute(m, traffic, request_type, from, to);
                let naive = LatencySummary::compute_naive(m, traffic, request_type, from, to);
                assert!(
                    fast == naive,
                    "indexed summary diverges from naive ({traffic:?}, {request_type:?}, \
                     [{from}, {to})): {fast:?} != {naive:?}"
                );
            }
        }
    }
    eprintln!("== check: explicitly-disabled resilience is byte-identical to none ==");
    // The tentpole invariant of the resilience layer: configuring it with
    // every policy off must leave the kernel bit-identical to a config
    // that never mentions resilience — same metrics, same RNG positions,
    // same pending events. A closed-loop cell exercises the submit path
    // (where deadline arming, breaker checks, and queue bounds branch)
    // thousands of times.
    let resilience_cell = |config: SimConfig| {
        let app = apps::social_network(2_000);
        let mut sim = Simulation::new(app.topology().clone(), config.access_log(false));
        sim.add_agent(Box::new(workload::ClosedLoopUsers::new(
            2_000,
            app.browsing_model(),
            simnet::derive_seed(0xAB1E, "bench/resilience-off"),
        )));
        sim.run_until(SimTime::from_secs(5));
        sim
    };
    let plain = resilience_cell(SimConfig::default().seed(0xAB1E));
    let disabled = resilience_cell(
        SimConfig::default()
            .seed(0xAB1E)
            .resilience(ResilienceConfig::uniform(ResiliencePolicy::disabled())),
    );
    assert!(
        plain.metrics() == disabled.metrics(),
        "disabled resilience config must record byte-identical metrics"
    );
    assert!(
        plain.rng_fingerprint() == disabled.rng_fingerprint(),
        "disabled resilience config must leave every RNG stream untouched"
    );
    assert!(
        plain.pending_events() == disabled.pending_events(),
        "disabled resilience config must schedule no extra wheel events"
    );

    eprintln!("== check: indexed defense analytics match the naive scans ==");
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let shield = defense::RateShield::paper_default();
    for (from, to) in [
        (SimTime::ZERO, SimTime::FAR_FUTURE),
        (SimTime::from_secs(25), SimTime::from_secs(45)),
        (SimTime::from_millis(10_500), SimTime::from_millis(11_750)),
        (SimTime::from_secs(70), SimTime::from_secs(70)),
    ] {
        assert!(
            ids.analyze_window(m, from, to) == ids.analyze_naive(m, from, to),
            "indexed IDS report diverges from naive ([{from}, {to}))"
        );
        assert!(
            shield.analyze_window(m, from, to) == shield.analyze_naive(m, from, to),
            "indexed shield verdicts diverge from naive ([{from}, {to}))"
        );
    }
    eprintln!("check OK");
}

/// Renders a run's comparable end state as a line-oriented report — one
/// metrics field per line plus the RNG fingerprint and pending-event count
/// — so a determinism failure can name the exact quantity that diverged.
fn comparison_report(run: &lab::AttackRun) -> String {
    format!(
        "{:#?}\nrng_fingerprint: {:?}\npending_events: {}\n",
        run.sim.metrics(),
        run.sim.rng_fingerprint(),
        run.sim.pending_events()
    )
}

/// Prints the first line where the forked and cold reports diverge.
fn print_first_divergence(forked: &str, cold: &str) {
    let (mut f, mut c) = (forked.lines(), cold.lines());
    let mut line = 0usize;
    loop {
        line += 1;
        match (f.next(), c.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => {
                eprintln!("reports compare unequal but no line differs (encoding?)");
                return;
            }
            (a, b) => {
                eprintln!("first divergent report line ({line}):");
                eprintln!("  forked: {}", a.unwrap_or("<end of report>"));
                eprintln!("  cold:   {}", b.unwrap_or("<end of report>"));
                return;
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_kernel: {e}; {USAGE}");
        std::process::exit(2);
    });
    if args.check {
        check();
        return;
    }
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut sections = vec![
        ("host_cpus", cpus.to_string()),
        ("round_budget_ms", ROUND_BUDGET.as_millis().to_string()),
    ];

    let hold_runs: Vec<String> = [SPARSE_PENDING, HOLD_PENDING, DEEP_PENDING]
        .into_iter()
        .map(|pending| {
            eprintln!("== event queue, {pending} pending: timing wheel vs binary heap ==");
            let c = compare(
                ROUNDS,
                ROUND_BUDGET,
                || hold_program!(EventQueue::<u64>::with_capacity(1_024), pending),
                || hold_program!(HeapEventQueue::<u64>::with_capacity(1_024), pending),
            );
            let mut fields = section(ROUNDS, "ns/op");
            fields.push(("pending", pending.to_string()));
            fields.push(("ops", HOLD_OPS.to_string()));
            fields.extend(c.report(
                ["wheel", "heap", "speedup"],
                "ns/op",
                1.0 / (pending + HOLD_OPS) as f64,
            ));
            object(&fields, 4)
        })
        .collect();
    sections.push((
        "wheel_vs_heap",
        format!("[\n    {}\n  ]", hold_runs.join(",\n    ")),
    ));

    eprintln!("== service-demand RNG: batched vs per-call draws ==");
    const DRAWS: usize = 4_096;
    let c = compare(
        ROUNDS,
        ROUND_BUDGET,
        || {
            let mut rng = simnet::RngStream::from_label(11, "bench/demand");
            let mut buf = [0.0f64; 32];
            let mut acc = 0.0f64;
            for _ in 0..DRAWS / 32 {
                rng.fill_standard_normal(&mut buf);
                for z in buf {
                    acc += simnet::lognormal_mean_cv_from_z(4.0, 0.3, z);
                }
            }
            acc
        },
        || {
            let mut rng = simnet::RngStream::from_label(11, "bench/demand");
            let mut acc = 0.0f64;
            for _ in 0..DRAWS {
                acc += rng.lognormal_mean_cv(4.0, 0.3);
            }
            acc
        },
    );
    let mut fields = section(ROUNDS, "ns/draw");
    fields.extend(c.report(
        ["batched", "per_call", "speedup"],
        "ns/draw",
        1.0 / DRAWS as f64,
    ));
    sections.push(("demand_rng_batching", object(&fields, 2)));

    eprintln!("== Markov transitions: alias table vs weighted_choice scan ==");
    // The population's per-response transition draw. Same distribution,
    // one uniform per draw either way; the alias table is O(1) in the
    // catalogue size where the inverse-CDF scan is O(outcomes).
    const OUTCOMES: usize = 32;
    let weights: Vec<f64> = (0..OUTCOMES).map(|i| 1.0 + (i % 7) as f64).collect();
    let alias = simnet::AliasTable::new(&weights);
    let c = compare(
        ROUNDS,
        ROUND_BUDGET,
        || {
            let mut rng = simnet::RngStream::from_label(13, "bench/markov");
            (0..DRAWS)
                .map(|_| alias.sample_with(&mut rng))
                .sum::<usize>()
        },
        || {
            let mut rng = simnet::RngStream::from_label(13, "bench/markov");
            (0..DRAWS)
                .map(|_| rng.weighted_choice(&weights))
                .sum::<usize>()
        },
    );
    let mut fields = section(ROUNDS, "ns/draw");
    fields.push(("outcomes", OUTCOMES.to_string()));
    fields.extend(c.report(
        ["alias", "weighted_choice", "speedup"],
        "ns/draw",
        1.0 / DRAWS as f64,
    ));
    sections.push(("markov_transition", object(&fields, 2)));

    eprintln!("== fork cost: COW metrics clone vs deep copy; sim fork, short vs long prefix ==");
    let short = warm_sim(5);
    let long = warm_sim(40);
    // The COW clone is what Kernel::clone does on every snapshot/fork:
    // sealed log segments are shared by Arc bump, only the bounded mutable
    // tails are copied, so the cost is independent of how long the warm
    // prefix ran.
    let cow = compare(
        ROUNDS,
        ROUND_BUDGET,
        || long.metrics().clone().request_log().len(),
        || deep_copy_metrics(long.metrics()),
    );
    // The full fork (metrics + agent state + event queue rebuild) is
    // what every warm-start experiment pays per cell. With COW sample
    // stores the cost depends only on the bounded mutable tails, so an
    // 8x-longer warm prefix must fork in (nearly) the same time.
    let Ok(snap_short) = short.checkpoint();
    let Ok(snap_long) = long.checkpoint();
    let fork = compare(
        ROUNDS,
        ROUND_BUDGET,
        || Simulation::from_snapshot(&snap_short).pending_events(),
        || Simulation::from_snapshot(&snap_long).pending_events(),
    );
    let long_requests = long.metrics().request_log().len();
    let mut fields = section(ROUNDS, "us");
    fields.push((
        "short_prefix_requests",
        short.metrics().request_log().len().to_string(),
    ));
    fields.push(("long_prefix_requests", long_requests.to_string()));
    fields.extend(cow.report(
        [
            "metrics_fork_long",
            "metrics_deep_copy_long",
            "metrics_fork_vs_deep_copy_speedup",
        ],
        "us",
        1e-3,
    ));
    fields.extend(fork.report(
        [
            "sim_fork_short",
            "sim_fork_long",
            "long_vs_short_fork_ratio",
        ],
        "us",
        1e-3,
    ));
    sections.push(("fork_cost", object(&fields, 2)));

    eprintln!("== analysis window query: indexed vs naive full scan ==");
    let m = long.metrics();
    // The Monitor's shape of query: attack-only latencies over a short
    // window. The posting lists slice straight to the ~9% matching records
    // while the naive path scans and filters the whole log.
    let (q_from, q_to) = (SimTime::from_secs(20), SimTime::from_secs(25));
    assert_eq!(
        LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to),
        LatencySummary::compute_naive(m, Traffic::Attack, None, q_from, q_to),
        "indexed summary must match the naive reference"
    );
    let matching = LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to).count;
    let c = compare(
        ROUNDS,
        ROUND_BUDGET,
        || LatencySummary::compute(m, Traffic::Attack, None, q_from, q_to).count,
        || LatencySummary::compute_naive(m, Traffic::Attack, None, q_from, q_to).count,
    );
    let mut fields = section(ROUNDS, "us");
    fields.push(("records", long_requests.to_string()));
    fields.push(("matching", matching.to_string()));
    fields.extend(c.report(["indexed", "naive", "speedup"], "us", 1e-3));
    sections.push(("analysis_window_query", object(&fields, 2)));

    eprintln!("== defense window analytics: indexed postings vs naive full scan ==");
    let dsim = defense_sim(1_200);
    let dm = dsim.metrics();
    // A 20 s audit window out of a 20-minute run: <2% selectivity. The
    // indexed paths collate from per-segment IP/session posting lists; the
    // naive ground truths scan and filter every access-log entry.
    let (w_from, w_to) = (SimTime::from_secs(600), SimTime::from_secs(620));
    let ids = defense::Ids::new(defense::IdsConfig::default());
    let shield = defense::RateShield::paper_default();
    assert_eq!(
        ids.analyze_window(dm, w_from, w_to),
        ids.analyze_naive(dm, w_from, w_to),
        "indexed IDS window report must match the naive reference"
    );
    assert_eq!(
        shield.analyze_window(dm, w_from, w_to),
        shield.analyze_naive(dm, w_from, w_to),
        "indexed shield window verdicts must match the naive reference"
    );
    let ids_cmp = compare(
        ROUNDS,
        ROUND_BUDGET,
        || ids.analyze_window(dm, w_from, w_to).alerts().len(),
        || ids.analyze_naive(dm, w_from, w_to).alerts().len(),
    );
    let shield_cmp = compare(
        ROUNDS,
        ROUND_BUDGET,
        || shield.analyze_window(dm, w_from, w_to).len(),
        || shield.analyze_naive(dm, w_from, w_to).len(),
    );
    let mut fields = section(ROUNDS, "us");
    fields.push(("entries", dm.access_log().len().to_string()));
    fields.push((
        "matching",
        dm.access_log().count_in(w_from, w_to).to_string(),
    ));
    fields.extend(ids_cmp.report(["ids_indexed", "ids_naive", "speedup"], "us", 1e-3));
    fields.extend(shield_cmp.report(
        ["shield_indexed", "shield_naive", "shield_speedup"],
        "us",
        1e-3,
    ));
    sections.push(("ids_window_query", object(&fields, 2)));

    if args.quick {
        eprintln!("== skipping Table I param sweep (--quick) ==");
    } else {
        eprintln!("== Table I param sweep (4 damage-goal cells): forked vs cold ==");
        // The shared warm-up + baseline + profiling prefix is simulated once
        // instead of once per cell.
        let opts = lab::RunOpts::new(lab::Fidelity::Fast);
        let (mut forked, mut cold) = (String::new(), String::new());
        let c = compare(
            SWEEP_ROUNDS,
            Duration::ZERO,
            || forked = lab::experiments::table1::param_sweep_report(&opts).to_markdown(),
            || {
                cold = lab::experiments::table1::param_sweep_report_with(
                    &opts,
                    lab::AttackRun::execute,
                )
                .to_markdown();
            },
        );
        assert_eq!(
            cold, forked,
            "forked param sweep must be byte-identical to cold"
        );
        let mut fields = section(SWEEP_ROUNDS, "s");
        fields.push((
            "cells",
            lab::experiments::table1::PARAM_SWEEP_GOALS
                .len()
                .to_string(),
        ));
        fields.extend(c.report(["forked", "cold", "speedup"], "s", 1e-9));
        sections.push(("table1_param_sweep_fork", object(&fields, 2)));
    }

    let json = object(&sections, 0) + "\n";
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    print!("{json}");
    eprintln!("wrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn accepts_exactly_out_quick_and_check() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                out: "BENCH_kernel.json".to_string(),
                quick: false,
                check: false,
            })
        );
        assert_eq!(
            parse(&["--quick", "--out", "x.json", "--check"]),
            Ok(Args {
                out: "x.json".to_string(),
                quick: true,
                check: true,
            })
        );
    }

    #[test]
    fn rejects_unknown_arguments_and_a_missing_out_path() {
        for bad in [
            &["--quik"][..],
            &["--", "--quick"],
            &["--quick", "extra"],
            &["--out"],
            &["--out", "--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn spread_is_min_median_max() {
        assert_eq!(
            Spread::of(vec![3.0, 1.0, 5.0, 2.0, 4.0]),
            Spread {
                min: 1.0,
                median: 3.0,
                max: 5.0,
            }
        );
    }
}
