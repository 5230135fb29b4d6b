//! Ad-hoc calibration: baseline RT and utilisation of SocialNetwork.
use apps::social_network;
use microsim::{SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use workload::ClosedLoopUsers;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "example harness: argv picks the population size"
    )]
    let users: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7000);
    let app = social_network(users);
    let mut sim = Simulation::new(app.topology().clone(), SimConfig::default().seed(1));
    let pop = ClosedLoopUsers::new(users, app.browsing_model(), 42);
    let id = sim.add_agent(Box::new(pop));
    #[expect(
        clippy::disallowed_methods,
        reason = "example harness: wall time echoed on stderr"
    )]
    let t0 = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(120));
    eprintln!("wall: {:?}", t0.elapsed());
    let m = sim.metrics();
    let summary = telemetry::LatencySummary::compute(
        m,
        telemetry::Traffic::Legit,
        None,
        SimTime::from_secs(30),
        SimTime::from_secs(120),
    );
    println!(
        "users={users} count={} avg={:.1}ms p95={:.1}ms p99={:.1}ms",
        summary.count, summary.avg_ms, summary.p95_ms, summary.p99_ms
    );
    let cw = telemetry::CoarseMonitor::new(m, SimDuration::from_secs(1));
    for name in [
        "memcached-post",
        "post-storage",
        "compose-post",
        "home-timeline",
        "social-graph",
        "user-mongodb",
        "nginx",
    ] {
        let svc = app.topology().service_by_name(name).unwrap();
        let util = cw.mean_utilization(svc, SimTime::from_secs(30), SimTime::from_secs(120));
        let reps = app.topology().service(svc).replicas;
        println!("  {name:22} util={util:.2} replicas={reps}");
    }
    let users_back: &ClosedLoopUsers = sim.agent_as(id).unwrap();
    println!(
        "  agent-side avg {:.1}ms over {} samples",
        users_back.latency_stats().mean(),
        users_back.latency_stats().count()
    );
}
