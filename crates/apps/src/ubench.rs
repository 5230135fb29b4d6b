//! µBench-style factory of synthetic microservice applications.
//!
//! The paper's live-attack experiments (Section V-C) use µBench to build
//! three applications of 62, 118 and 196 unique microservices with
//! architectures unknown to the attacker. This module reproduces that
//! factory: a seeded generator that emits applications of an exact service
//! count, organised as several independent subsystems ("clusters") behind
//! an unblockable gateway, with known ground-truth dependency structure to
//! score the profiler against (Fig 16, Table IV).

use callgraph::{RequestTypeId, ServiceId, ServiceSpec, Topology, TopologyBuilder};
use simnet::{RngStream, SimDuration};
use workload::{BrowsingModel, RequestMix};

use crate::provision::provision_replicas;
use crate::social_network::THINK_TIME_S;

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UBenchConfig {
    /// Exact number of unique microservices (including the gateway).
    pub services: usize,
    /// Number of independent subsystems (latent dependency groups).
    pub groups: usize,
    /// Request types per subsystem.
    pub types_per_group: usize,
    /// Generator seed.
    pub seed: u64,
    /// User population the deployment is provisioned for.
    pub users: usize,
}

impl UBenchConfig {
    /// The paper's App.1: 62 unique microservices.
    pub fn app1(users: usize) -> Self {
        UBenchConfig {
            services: 62,
            groups: 4,
            types_per_group: 3,
            seed: 0xA11,
            users,
        }
    }

    /// The paper's App.2: 118 unique microservices.
    pub fn app2(users: usize) -> Self {
        UBenchConfig {
            services: 118,
            groups: 5,
            types_per_group: 4,
            seed: 0xA22,
            users,
        }
    }

    /// The paper's App.3: 196 unique microservices.
    pub fn app3(users: usize) -> Self {
        UBenchConfig {
            services: 196,
            groups: 6,
            types_per_group: 4,
            seed: 0xA33,
            users,
        }
    }
}

/// A generated application.
#[derive(Debug, Clone)]
pub struct UBench {
    config: UBenchConfig,
    topology: Topology,
    mix: Vec<(RequestTypeId, f64)>,
}

impl UBench {
    /// Generates an application.
    ///
    /// # Panics
    ///
    /// Panics if the service budget is too small to host the requested
    /// groups and types (each type needs at least one unique service), or
    /// any count is zero.
    pub fn generate(config: UBenchConfig) -> Self {
        assert!(config.groups > 0, "need at least one group");
        assert!(config.types_per_group > 0, "need types per group");
        assert!(config.users > 0, "need users");
        let num_types = config.groups * config.types_per_group;
        let overhead = 1 + config.groups; // gateway + one hub per group
        assert!(
            config.services >= overhead + num_types,
            "service budget {} too small for {} groups x {} types",
            config.services,
            config.groups,
            config.types_per_group,
        );

        let mut rng = RngStream::from_label(config.seed, "ubench/generate");
        let total_rate = config.users as f64 / THINK_TIME_S;

        // Distribute the filler budget: each request type gets a unique
        // sub-chain; lengths are balanced round-robin so the service count
        // comes out exact.
        let filler = config.services - overhead;
        let base_len = filler / num_types;
        let extra = filler % num_types;
        let chain_lens: Vec<usize> = (0..num_types)
            .map(|i| base_len + usize::from(i < extra))
            .collect();

        // Draw mix weights first (provisioning needs them).
        let weights: Vec<f64> = (0..num_types).map(|_| rng.uniform(0.5, 2.0)).collect();
        let weight_sum: f64 = weights.iter().sum();

        // Plan chains symbolically: (service key, demand). Service keys are
        // unique strings; ids are assigned when the topology is built.
        let ms = |v: f64| SimDuration::from_secs_f64(v / 1e3);
        let mut plans: Vec<(String, Vec<(String, SimDuration)>)> = Vec::new();
        for g in 0..config.groups {
            let hub = format!("g{g}-hub");
            // Pre-draw the demand of each type's final (bottleneck-ish)
            // service.
            for t in 0..config.types_per_group {
                let type_idx = g * config.types_per_group + t;
                let name = format!("g{g}-req{t}");
                let mut chain: Vec<(String, SimDuration)> = vec![("gateway".to_string(), ms(0.3))];
                let hub_heavy = t == 0;
                let hub_demand = if hub_heavy {
                    rng.uniform(12.0, 18.0)
                } else {
                    rng.uniform(3.0, 6.0)
                };
                chain.push((hub.clone(), ms(hub_demand)));
                let len = chain_lens[type_idx];
                for k in 0..len {
                    let svc = format!("g{g}-t{t}-s{k}");
                    let is_last = k + 1 == len;
                    let demand = if is_last && !hub_heavy {
                        // The type's own bottleneck, deeper than the hub.
                        rng.uniform(9.0, 15.0)
                    } else {
                        rng.uniform(1.5, 5.0)
                    };
                    chain.push((svc, ms(demand)));
                }
                // Third and later types sometimes share the second type's
                // bottleneck service, yielding SharedBottleneck pairs like
                // real applications have.
                if t >= 2 && rng.chance(0.5) && chain_lens[g * config.types_per_group + 1] > 0 {
                    let shared = format!(
                        "g{g}-t1-s{}",
                        chain_lens[g * config.types_per_group + 1] - 1
                    );
                    let last = chain.len() - 1;
                    chain[last].0 = shared;
                }
                plans.push((name, chain));
            }
        }

        // The shared-bottleneck substitution above may drop some planned
        // unique services; re-add them as cache leaves on the hub-heavy
        // type of their group so the advertised service count stays exact.
        let mut used: std::collections::BTreeSet<String> = Default::default();
        for (_, chain) in &plans {
            for (svc, _) in chain {
                used.insert(svc.clone());
            }
        }
        for g in 0..config.groups {
            for t in 0..config.types_per_group {
                let type_idx = g * config.types_per_group + t;
                for k in 0..chain_lens[type_idx] {
                    let svc = format!("g{g}-t{t}-s{k}");
                    if !used.contains(&svc) {
                        let hub_heavy_plan = g * config.types_per_group;
                        plans[hub_heavy_plan]
                            .1
                            .push((svc.clone(), ms(rng.uniform(1.0, 2.5))));
                        used.insert(svc);
                    }
                }
            }
        }

        // Offered rate per type.
        let offered: Vec<(RequestTypeId, f64)> = (0..num_types)
            .map(|i| {
                (
                    RequestTypeId::new(i as u32),
                    total_rate * weights[i] / weight_sum,
                )
            })
            .collect();

        // Build the topology: gateway first, then services in plan order.
        let mut builder = TopologyBuilder::new();
        let mut ids: std::collections::BTreeMap<String, ServiceId> = Default::default();
        ids.insert(
            "gateway".into(),
            builder.add_service(
                ServiceSpec::new("gateway")
                    .threads(8192)
                    .cores(8)
                    .blockable(false)
                    .demand_cv(0.15),
            ),
        );
        for (_, chain) in &plans {
            for (svc, _) in chain {
                if ids.contains_key(svc) {
                    continue;
                }
                // Vertical provisioning: see `social_network` — capacity
                // goes into cores, the worker pool stays paper-sized.
                let cores = provision_replicas(
                    &offered,
                    |rt| {
                        plans[rt.index()]
                            .1
                            .iter()
                            .find(|(s, _)| s == svc)
                            .map(|(_, d)| *d)
                    },
                    1,
                    0.35,
                );
                let threads = if svc.ends_with("-hub") {
                    (cores * 4).max(32)
                } else {
                    (cores * 3).max(20)
                };
                ids.insert(
                    svc.clone(),
                    builder.add_service(
                        ServiceSpec::new(svc.clone())
                            .threads(threads)
                            .cores(cores)
                            .replicas(1)
                            .demand_cv(0.25),
                    ),
                );
            }
        }

        let mut mix = Vec::new();
        for (i, (name, chain)) in plans.iter().enumerate() {
            let steps = chain.iter().map(|(svc, d)| (ids[svc], *d)).collect();
            let id = builder.add_request_type_sized(name.clone(), steps, 1_024, 8_192);
            mix.push((id, weights[i]));
        }

        UBench {
            config,
            topology: builder.build(),
            mix,
        }
    }

    /// The generator parameters.
    pub fn config(&self) -> UBenchConfig {
        self.config
    }

    /// The generated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The canonical request mix.
    pub fn request_mix(&self) -> RequestMix {
        RequestMix::new(self.mix.clone())
    }

    /// The canonical browsing model.
    pub fn browsing_model(&self) -> BrowsingModel {
        BrowsingModel::memoryless(self.mix.clone())
    }

    /// The offered request rate of the canonical population, req/s.
    pub fn offered_rate(&self) -> f64 {
        self.config.users as f64 / THINK_TIME_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::GroundTruth;

    #[test]
    fn presets_hit_exact_service_counts() {
        for (cfg, expect) in [
            (UBenchConfig::app1(1_000), 62),
            (UBenchConfig::app2(4_000), 118),
            (UBenchConfig::app3(8_000), 196),
        ] {
            let app = UBench::generate(cfg);
            assert_eq!(
                app.topology().num_services(),
                expect,
                "config {:?}",
                app.config()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = UBench::generate(UBenchConfig::app1(1_000));
        let b = UBench::generate(UBenchConfig::app1(1_000));
        assert_eq!(a.topology().num_services(), b.topology().num_services());
        for (x, y) in a
            .topology()
            .request_types()
            .iter()
            .zip(b.topology().request_types())
        {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn ground_truth_groups_match_generated_clusters() {
        let cfg = UBenchConfig::app1(1_000);
        let app = UBench::generate(cfg);
        let gt = GroundTruth::from_topology(app.topology());
        assert_eq!(gt.groups().len(), cfg.groups, "{:?}", gt.groups().groups());
        // Every group has exactly types_per_group members.
        for g in gt.groups().groups() {
            assert_eq!(g.len(), cfg.types_per_group);
        }
    }

    #[test]
    fn hub_heavy_type_depends_on_its_siblings() {
        let cfg = UBenchConfig::app2(4_000);
        let app = UBench::generate(cfg);
        let gt = GroundTruth::from_topology(app.topology());
        // The hub-heavy type (t=0) of each cluster shares its hub with
        // every sibling: always in the same dependency group.
        for g in 0..cfg.groups {
            let heavy = RequestTypeId::new((g * cfg.types_per_group) as u32);
            let sibling = RequestTypeId::new((g * cfg.types_per_group + 1) as u32);
            assert!(
                gt.pairwise(heavy, sibling).is_dependent(),
                "group {g}: {:?}",
                gt.pairwise(heavy, sibling)
            );
        }
    }

    #[test]
    fn mix_is_positive_and_complete() {
        let app = UBench::generate(UBenchConfig::app1(1_000));
        let mix = app.request_mix();
        assert_eq!(mix.entries().len(), 12);
        assert!(mix.entries().iter().all(|(_, w)| *w > 0.0));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_budget_rejected() {
        UBench::generate(UBenchConfig {
            services: 5,
            groups: 3,
            types_per_group: 3,
            seed: 1,
            users: 100,
        });
    }
}
