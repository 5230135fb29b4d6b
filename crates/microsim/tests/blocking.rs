//! Integration tests for the blocking mechanics the Grunt attack exploits.
//!
//! These validate, at the platform level, the phenomena of Section II of
//! the paper: execution blocking, cross-tier queue overflow, millibottleneck
//! visibility at different monitoring granularities, and determinism.

use callgraph::{RequestTypeId, ServiceId, ServiceSpec, TopologyBuilder};
use microsim::agents::{FixedRate, OneShot};
use microsim::{AutoScalePolicy, Origin, SimConfig, Simulation};
use simnet::{SimDuration, SimTime};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// gateway -> {a, b}: two request types sharing only the gateway.
/// Service `a` is slow (10 ms), `b` is fast (2 ms). Gateway has a small
/// thread pool so overflow is reachable.
fn shared_gateway_topology(gw_threads: u32, a_threads: u32) -> callgraph::Topology {
    let mut t = TopologyBuilder::new();
    let gw = t.add_service(
        ServiceSpec::new("gateway")
            .threads(gw_threads)
            .demand_cv(0.0),
    );
    let a = t.add_service(ServiceSpec::new("a").threads(a_threads).demand_cv(0.0));
    let b = t.add_service(ServiceSpec::new("b").threads(64).demand_cv(0.0));
    t.add_request_type("ra", vec![(gw, ms(1)), (a, ms(10))]);
    t.add_request_type("rb", vec![(gw, ms(1)), (b, ms(2))]);
    t.build()
}

const RA: RequestTypeId = RequestTypeId::new(0);
const RB: RequestTypeId = RequestTypeId::new(1);
const A: ServiceId = ServiceId::new(1);

#[test]
fn idle_system_latency_is_demand_plus_network() {
    let mut sim = Simulation::new(shared_gateway_topology(32, 16), SimConfig::default());
    sim.add_agent(Box::new(OneShot::new(RB)));
    sim.run_until(SimTime::from_secs(1));
    let lat = sim.metrics().request_log()[0].latency().as_millis_f64();
    // 1 ms gw + 2 ms b + 4 hops * 0.25 ms = 4 ms.
    assert!((lat - 4.0).abs() < 0.2, "latency {lat} ms");
}

#[test]
fn cross_tier_overflow_blocks_sibling_path() {
    // Small gateway pool (8) and tiny `a` pool (4). A burst of 200
    // back-to-back `ra` requests saturates `a` (10 ms each), fills a's
    // thread pool, then overflows into the gateway pool: `rb` requests
    // arriving during the bottleneck must wait for gateway threads even
    // though service `b` itself is idle.
    let mut sim = Simulation::new(shared_gateway_topology(8, 4), SimConfig::default());
    // Attack-ish burst on ra: 200 requests, one per ms.
    sim.add_agent(Box::new(FixedRate::new(
        RA,
        SimDuration::from_micros(1000),
        200,
    )));
    // Probe rb during the bottleneck window.
    let mut probe = FixedRate::new(RB, ms(20), 20);
    probe = probe.with_origin(Origin::legit(7, 7));
    sim.add_agent(Box::new(probe));
    sim.run_until(SimTime::from_secs(10));

    let rb_lat: Vec<f64> = sim
        .metrics()
        .request_log()
        .iter()
        .filter(|r| r.request_type == RB)
        .map(|r| r.latency().as_millis_f64())
        .collect();
    assert_eq!(rb_lat.len(), 20);
    let worst = rb_lat.iter().copied().fold(0.0, f64::max);
    // Unblocked rb takes ~4 ms; blocked-at-gateway rb should exceed 10x.
    assert!(
        worst > 40.0,
        "expected rb to be blocked at shared gateway, worst {worst} ms"
    );
}

#[test]
fn no_overflow_without_shared_upstream_saturation() {
    // Same burst but with a huge gateway pool: a saturates, but the
    // gateway never runs out of threads, so rb flows freely (Fig 9b).
    let mut sim = Simulation::new(shared_gateway_topology(512, 4), SimConfig::default());
    sim.add_agent(Box::new(FixedRate::new(
        RA,
        SimDuration::from_micros(1000),
        200,
    )));
    sim.add_agent(Box::new(
        FixedRate::new(RB, ms(20), 20).with_origin(Origin::legit(7, 7)),
    ));
    sim.run_until(SimTime::from_secs(10));
    let worst = sim
        .metrics()
        .request_log()
        .iter()
        .filter(|r| r.request_type == RB)
        .map(|r| r.latency().as_millis_f64())
        .fold(0.0, f64::max);
    assert!(
        worst < 20.0,
        "rb should not be blocked when gateway pool is large, worst {worst} ms"
    );
}

#[test]
fn millibottleneck_visible_at_100ms_not_at_1s() {
    // A burst of 40 requests in ~40 ms saturates `a` for ~400 ms
    // (40 * 10 ms on one core): the 100 ms windows during the bottleneck
    // show ~100% utilisation while the 1 s average stays under 70%.
    let mut sim = Simulation::new(shared_gateway_topology(64, 64), SimConfig::default());
    sim.add_agent(Box::new(FixedRate::new(
        RA,
        SimDuration::from_micros(1000),
        40,
    )));
    sim.run_until(SimTime::from_secs(2));

    let m = sim.metrics();
    let window = m.window();
    let fine_peak = m
        .service_series(A)
        .map(|w| w.utilization(window))
        .fold(0.0, f64::max);
    assert!(fine_peak > 0.95, "fine-grained peak {fine_peak}");

    let coarse = m.mean_utilization(A, SimTime::ZERO, SimTime::from_secs(1));
    assert!(coarse < 0.7, "1 s average {coarse} should stay under radar");
}

/// Like [`shared_gateway_topology`] but with demand jitter enabled, so
/// seeds actually matter.
fn jittered_topology() -> callgraph::Topology {
    let mut t = TopologyBuilder::new();
    let gw = t.add_service(ServiceSpec::new("gateway").threads(8).demand_cv(0.2));
    let a = t.add_service(ServiceSpec::new("a").threads(4).demand_cv(0.2));
    let b = t.add_service(ServiceSpec::new("b").threads(64).demand_cv(0.2));
    t.add_request_type("ra", vec![(gw, ms(1)), (a, ms(10))]);
    t.add_request_type("rb", vec![(gw, ms(1)), (b, ms(2))]);
    t.build()
}

#[test]
fn same_seed_same_run() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(jittered_topology(), SimConfig::default().seed(seed));
        sim.add_agent(Box::new(FixedRate::new(RA, ms(1), 100)));
        sim.add_agent(Box::new(FixedRate::new(RB, ms(7), 30)));
        sim.run_until(SimTime::from_secs(5));
        sim.metrics()
            .request_log()
            .iter()
            .map(|r| (r.request_type, r.submitted_at, r.completed_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds should differ (jitter)");
}

#[test]
fn sustained_overload_triggers_scale_up_but_bursts_do_not() {
    let policy = AutoScalePolicy {
        sustain_secs: 3,
        provision_delay: SimDuration::from_secs(1),
        ..AutoScalePolicy::paper_default()
    };

    // Sustained: 120 req/s of ra (10 ms demand each) = 120% of one core.
    let topo = shared_gateway_topology(256, 256);
    let mut sim = Simulation::new(topo, SimConfig::default().autoscale(policy));
    sim.add_agent(Box::new(FixedRate::new(
        RA,
        SimDuration::from_micros(8_333),
        1200,
    )));
    sim.run_until(SimTime::from_secs(12));
    assert!(
        !sim.metrics().scaling_actions().is_empty(),
        "sustained overload must scale up"
    );
    assert!(sim.active_replicas(A) > 1);

    // Bursty: the same request volume compressed into 300 ms bursts once
    // per 2 s — every 1 s window averages well under 70%.
    let topo = shared_gateway_topology(256, 256);
    let mut sim = Simulation::new(topo, SimConfig::default().autoscale(policy));
    for burst in 0..6u64 {
        // 30 requests back-to-back at the start of every 2 s period:
        // ~300 ms of saturation then quiet.
        let mut agent = FixedRate::new(RA, SimDuration::from_micros(500), 30);
        agent = agent.with_origin(Origin::attack(100 + burst as u32, burst));
        // Stagger via a wrapper: FixedRate starts at t=0, so instead give
        // each burst its own simulation start by scheduling through
        // run_until increments.
        sim.add_agent(Box::new(agent));
        sim.run_until(SimTime::from_secs(2 * (burst + 1)));
    }
    let ups = sim
        .metrics()
        .scaling_actions()
        .iter()
        .filter(|a| a.direction == microsim::ScalingDirection::Up)
        .count();
    assert_eq!(ups, 0, "sub-second bursts must not trigger scaling");
}

#[test]
fn access_log_captures_all_submissions() {
    let mut sim = Simulation::new(shared_gateway_topology(32, 16), SimConfig::default());
    sim.add_agent(Box::new(FixedRate::new(RA, ms(5), 10)));
    sim.add_agent(Box::new(
        FixedRate::new(RB, ms(5), 10).with_origin(Origin::attack(9, 9)),
    ));
    sim.run_until(SimTime::from_secs(2));
    let log = sim.metrics().access_log();
    assert_eq!(log.len(), 20);
    assert_eq!(log.iter().filter(|e| e.origin.is_attack).count(), 10);
}

#[test]
fn network_accounting_tracks_bytes() {
    let mut sim = Simulation::new(shared_gateway_topology(32, 16), SimConfig::default());
    sim.add_agent(Box::new(FixedRate::new(RA, ms(5), 10)));
    sim.run_until(SimTime::from_secs(2));
    let total_in: u64 = sim.metrics().network_windows().map(|w| w.bytes_in).sum();
    let total_out: u64 = sim.metrics().network_windows().map(|w| w.bytes_out).sum();
    // 10 requests * (1024 + 220) bytes in, 10 * (8192 + 220) out.
    assert_eq!(total_in, 10 * 1244);
    assert_eq!(total_out, 10 * 8412);
}
