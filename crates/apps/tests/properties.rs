//! Property-based tests of the application generators' invariants.

use apps::{social_network, MediaService, SocialNetwork, UBench, UBenchConfig};
use proptest::prelude::*;
use telemetry::GroundTruth;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The µBench factory hits the requested service count exactly, for
    /// any feasible configuration, and the grouping matches the requested
    /// cluster structure.
    #[test]
    fn ubench_honours_its_contract(
        groups in 1usize..6,
        types_per_group in 1usize..5,
        extra_services in 0usize..120,
        seed in any::<u64>(),
        users in 500usize..8_000,
    ) {
        let overhead = 1 + groups;
        let num_types = groups * types_per_group;
        let services = overhead + num_types + extra_services;
        let cfg = UBenchConfig {
            services,
            groups,
            types_per_group,
            seed,
            users,
        };
        let app = UBench::generate(cfg);
        prop_assert_eq!(app.topology().num_services(), services);
        prop_assert_eq!(app.topology().num_request_types(), num_types);
        // Every service has sane provisioning.
        for svc in app.topology().services() {
            prop_assert!(svc.threads > 0 && svc.cores > 0 && svc.replicas > 0);
        }
        // Ground-truth groups: at most the planned number of clusters
        // (hub sharing guarantees co-grouping; shared-bottleneck rewiring
        // can only merge, never split).
        let gt = GroundTruth::from_topology(app.topology());
        prop_assert!(gt.groups().len() <= groups.max(1) + num_types, "sanity");
        for g in 0..groups {
            let a = callgraph::RequestTypeId::new((g * types_per_group) as u32);
            for t in 1..types_per_group {
                let b = callgraph::RequestTypeId::new((g * types_per_group + t) as u32);
                prop_assert_eq!(
                    gt.groups().group_of(a),
                    gt.groups().group_of(b),
                    "types of one cluster must share a group"
                );
            }
        }
    }

    /// SocialNetwork provisioning is monotone in the user count and the
    /// structure (services, types, groups) is population-independent.
    #[test]
    fn social_network_monotone_provisioning(users in 500usize..20_000) {
        let app = social_network(users);
        let bigger = social_network(users * 2);
        prop_assert_eq!(
            app.topology().num_services(),
            bigger.topology().num_services()
        );
        prop_assert_eq!(app.topology().num_request_types(), 10);
        let total_cores: u32 = app.topology().services().iter().map(|s| s.cores).sum();
        let bigger_cores: u32 = bigger.topology().services().iter().map(|s| s.cores).sum();
        prop_assert!(bigger_cores >= total_cores);
        let gt = GroundTruth::from_topology(app.topology());
        prop_assert_eq!(gt.groups().multi_member_groups().count(), 3);
    }

    /// The decoupled variant never has an attackable group, at any scale.
    #[test]
    fn decoupled_variant_always_safe(users in 500usize..20_000) {
        let app = SocialNetwork::decoupled(users);
        let gt = GroundTruth::from_topology(app.topology());
        prop_assert_eq!(gt.groups().multi_member_groups().count(), 0);
    }
}

/// Every path of every bundled application keeps its activation frames
/// inline in the kernel's job slot: a deeper path would heap-allocate a
/// spill buffer on every request of that type.
#[test]
fn every_bundled_path_fits_the_inline_frames() {
    let ubench = |cfg| UBench::generate(cfg).topology().clone();
    let apps = [
        ("App.1", ubench(UBenchConfig::app1(4_000))),
        ("App.2", ubench(UBenchConfig::app2(4_000))),
        ("App.3", ubench(UBenchConfig::app3(4_000))),
        (
            "SocialNetwork",
            SocialNetwork::new(4_000).topology().clone(),
        ),
        ("MediaService", MediaService::new(4_000).topology().clone()),
    ];
    for (name, topology) in apps {
        for rt in topology.request_types() {
            assert!(
                rt.steps.len() <= microsim::job::INLINE_FRAMES,
                "{name} `{}` has {} steps, more than the {} inline frames",
                rt.name,
                rt.steps.len(),
                microsim::job::INLINE_FRAMES
            );
        }
    }
}
