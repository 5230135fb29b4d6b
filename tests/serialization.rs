//! Serde integration: topologies, metrics and profiling artifacts survive
//! a JSON round-trip — the interchange format for offline analysis
//! tooling.

use apps::social_network;
use callgraph::{DependencyGroups, RequestTypeId, Topology};
use microsim::agents::FixedRate;
use microsim::{Metrics, SimConfig, Simulation};
use simnet::{SimDuration, SimTime};

#[test]
fn topology_round_trips_through_json() {
    let topo = social_network(2_000).topology().clone();
    let json = serde_json::to_string(&topo).expect("serialize");
    let back: Topology = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.num_services(), topo.num_services());
    assert_eq!(back.num_request_types(), topo.num_request_types());
    for (a, b) in topo.services().iter().zip(back.services()) {
        assert_eq!(a, b);
    }
    for (a, b) in topo.request_types().iter().zip(back.request_types()) {
        assert_eq!(a, b);
    }
}

#[test]
fn metrics_round_trip_preserves_logs_and_windows() {
    let topo = social_network(1_000).topology().clone();
    let mut sim = Simulation::new(topo, SimConfig::default().seed(3));
    sim.add_agent(Box::new(FixedRate::new(
        RequestTypeId::new(0),
        SimDuration::from_millis(25),
        40,
    )));
    sim.run_until(SimTime::from_secs(3));
    let metrics = sim.into_metrics();

    let json = serde_json::to_string(&metrics).expect("serialize");
    let back: Metrics = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.request_log(), metrics.request_log());
    assert_eq!(back.access_log().len(), metrics.access_log().len());
    assert_eq!(back.num_windows(), metrics.num_windows());
    assert_eq!(back.window(), metrics.window());
}

#[test]
fn dependency_groups_round_trip() {
    let topo = social_network(1_000).topology().clone();
    let groups =
        DependencyGroups::from_ground_truth_filtered(&topo.paths(), |s| topo.service(s).blockable);
    let json = serde_json::to_string(&groups).expect("serialize");
    let back: DependencyGroups = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.groups(), groups.groups());
    for (a, b, d) in groups.pairs() {
        assert_eq!(back.pairwise(a, b), d);
    }
}
