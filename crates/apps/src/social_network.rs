//! The SocialNetwork benchmark application (DeathStarBench-style, Fig 12a).
//!
//! A broadcast social network: users compose posts, read home/user
//! timelines and manage the social graph. An nginx frontend fans out to
//! three subsystems, each with its own storage tier:
//!
//! * **write path** — `compose-post` orchestrates text/media/url/mention
//!   processing into `post-storage` and `write-home-timeline`;
//! * **read path** — `home-timeline` / `user-timeline` serve from caches
//!   backed by `memcached-post`;
//! * **social path** — `user-service` and `social-graph` with their
//!   MongoDB backends.
//!
//! The ten public request types form exactly three ground-truth dependency
//! groups (one per subsystem, Fig 12c): within a group the paths share a
//! blockable mid-tier hub, across groups they share only the unblockable
//! nginx frontend.

use callgraph::{RequestTypeId, ServiceId, ServiceSpec, Topology, TopologyBuilder};
use simnet::SimDuration;
use workload::{BrowsingModel, RequestMix};

use crate::provision::provision_replicas;

/// Mean think time of the paper's closed-loop users, seconds.
pub const THINK_TIME_S: f64 = 7.0;

/// Target baseline utilisation replica provisioning aims for.
const TARGET_UTIL: f64 = 0.35;

/// Global demand scale: calibrated so a provisioned deployment serves the
/// baseline with ~100 ms average response time, like the paper's
/// deployments.
const DEMAND_SCALE: f64 = 1.8;

/// One catalog entry: request-type name, mix weight (%), and the chain of
/// `(service name, demand)` steps.
type CatalogEntry<S> = (S, f64, Vec<(S, SimDuration)>);

/// A provisioned SocialNetwork deployment.
#[derive(Debug, Clone)]
pub struct SocialNetwork {
    topology: Topology,
    mix: Vec<(RequestTypeId, f64)>,
    users: usize,
}

/// Builds a SocialNetwork deployment provisioned for `users` closed-loop
/// users (with the paper's 7 s think time).
///
/// # Example
///
/// ```
/// let app = apps::social_network(7_000);
/// assert_eq!(app.topology().num_request_types(), 10);
/// // nginx frontend plus three subsystems:
/// assert!(app.topology().num_services() >= 25);
/// ```
///
/// # Panics
///
/// Panics if `users` is zero.
pub fn social_network(users: usize) -> SocialNetwork {
    SocialNetwork::new(users)
}

impl SocialNetwork {
    /// See [`social_network`].
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn new(users: usize) -> Self {
        Self::build(users, true)
    }

    /// The Section VI mitigation variant: every microservice shared by
    /// multiple request types is split into per-type instances (only the
    /// unblockable nginx frontend remains shared). With no overlapped
    /// microservices there are no execution dependencies left to exploit —
    /// at the cost of many more deployed services and the loss of
    /// resource pooling.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn decoupled(users: usize) -> Self {
        Self::build(users, false)
    }

    fn build(users: usize, shared: bool) -> Self {
        assert!(users > 0, "need at least one user");
        let total_rate = users as f64 / THINK_TIME_S;

        // (name, weight%, chain as (service name, demand ms))
        let ms = |v: f64| SimDuration::from_secs_f64(v * DEMAND_SCALE / 1e3);
        let catalog: Vec<CatalogEntry<&str>> = vec![
            (
                "compose-post",
                10.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-post", ms(6.0)),
                    ("text-service", ms(5.0)),
                    ("unique-id-service", ms(2.0)),
                    ("post-storage", ms(11.0)),
                    ("post-storage-mongodb", ms(3.0)),
                    ("write-home-timeline", ms(5.0)),
                    ("write-home-timeline-redis", ms(2.0)),
                ],
            ),
            (
                "upload-media",
                5.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-post", ms(6.0)),
                    ("media-service", ms(14.0)),
                    ("media-filter", ms(3.0)),
                    ("media-mongodb", ms(4.0)),
                ],
            ),
            (
                "share-url",
                5.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-post", ms(6.0)),
                    ("url-shorten-service", ms(12.0)),
                    ("url-shorten-mongodb", ms(4.0)),
                ],
            ),
            (
                // Heavy text processing inside the compose hub itself with
                // only light mention lookups below: this path's bottleneck
                // IS the shared hub, making it the execution-blocking
                // "upstream" path of the write group (the compose-post
                // queue of Fig 13c).
                "compose-rich-post",
                4.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-post", ms(16.0)),
                    ("user-mention-service", ms(1.5)),
                    ("user-mention-mongodb", ms(1.0)),
                ],
            ),
            (
                "read-home-timeline",
                18.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("home-timeline", ms(5.0)),
                    ("home-timeline-redis", ms(4.0)),
                    ("memcached-post", ms(10.0)),
                ],
            ),
            (
                // Bottlenecks on its own user-timeline aggregation, with
                // the shared memcached tier downstream: read-home-timeline
                // can execution-block this path via memcached, giving the
                // read group a third distinct bottleneck to alternate on.
                "read-user-timeline",
                12.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("user-timeline", ms(12.0)),
                    ("user-timeline-redis", ms(3.0)),
                    ("memcached-post", ms(8.0)),
                ],
            ),
            (
                "browse-hot-posts",
                12.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("home-timeline", ms(13.0)),
                    ("home-timeline-redis", ms(4.0)),
                ],
            ),
            (
                "login",
                12.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("user-service", ms(6.0)),
                    ("user-memcached", ms(2.0)),
                    ("user-mongodb", ms(10.0)),
                ],
            ),
            (
                // Bottlenecks on the social-graph MongoDB write, giving the
                // social group a bottleneck distinct from read-followers'
                // social-graph compute.
                "follow-user",
                10.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("user-service", ms(6.0)),
                    ("social-graph", ms(7.0)),
                    ("social-graph-redis", ms(3.0)),
                    ("social-graph-mongodb", ms(12.0)),
                ],
            ),
            (
                // Read-only: served from the social-graph service and its
                // redis cache, never touching MongoDB — its bottleneck
                // (social-graph compute) is distinct from follow-user's.
                "read-followers",
                12.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("social-graph", ms(14.0)),
                    ("social-graph-redis", ms(3.0)),
                ],
            ),
        ];

        // For the decoupled variant, rename every non-frontend service to
        // a per-request-type instance so no two paths overlap.
        let catalog: Vec<CatalogEntry<String>> = catalog
            .into_iter()
            .map(|(name, w, chain)| {
                let chain = chain
                    .into_iter()
                    .map(|(svc, d)| {
                        let svc = if shared || svc == "nginx" {
                            svc.to_string()
                        } else {
                            format!("{svc}@{name}")
                        };
                        (svc, d)
                    })
                    .collect();
                (name.to_string(), w, chain)
            })
            .collect();

        // Collect the unique service names in first-appearance order and
        // compute each one's offered demand-rate for provisioning.
        let mut service_names: Vec<&str> = Vec::new();
        for (_, _, chain) in &catalog {
            for (svc, _) in chain {
                if !service_names.contains(&svc.as_str()) {
                    service_names.push(svc);
                }
            }
        }

        let mut builder = TopologyBuilder::new();
        let mut ids: std::collections::BTreeMap<&str, ServiceId> = Default::default();
        for name in &service_names {
            let spec = if *name == "nginx" {
                // Frontend: many lightweight workers, effectively
                // unblockable within stealthy volumes.
                ServiceSpec::new("nginx")
                    .threads(8192)
                    .cores(8)
                    .blockable(false)
                    .demand_cv(0.15)
            } else {
                let offered: Vec<(RequestTypeId, f64)> = catalog
                    .iter()
                    .enumerate()
                    .map(|(i, (_, w, _))| (RequestTypeId::new(i as u32), total_rate * w / 100.0))
                    .collect();
                // Vertical provisioning: one logical queue per
                // microservice whose core count absorbs the offered load at
                // the target utilisation. The worker pool (queue size Q_i)
                // stays small and paper-like regardless of capacity — the
                // pool, not the CPU, is what cross-tier overflow fills.
                let cores = provision_replicas(
                    &offered,
                    |rt| {
                        catalog[rt.index()]
                            .2
                            .iter()
                            .find(|(svc, _)| svc == name)
                            .map(|(_, d)| *d)
                    },
                    1,
                    TARGET_UTIL,
                );
                // Worker pools scale with capacity: a slot is held for the
                // whole downstream residence (several times the local
                // demand), so peak occupancy is a small multiple of the
                // core count. Hubs sit above deep chains (longer
                // residence) and get a bigger multiple.
                let threads = if is_hub(name) {
                    (cores * 4).max(32)
                } else {
                    (cores * 3).max(20)
                };
                ServiceSpec::new(*name)
                    .threads(threads)
                    .cores(cores)
                    .replicas(1)
                    .demand_cv(0.25)
            };
            ids.insert(name, builder.add_service(spec));
        }

        let mut mix = Vec::new();
        for (i, (name, weight, chain)) in catalog.iter().enumerate() {
            let steps = chain
                .iter()
                .map(|(svc, d)| (ids[svc.as_str()], *d))
                .collect();
            let (req_bytes, resp_bytes) = payload_sizes(name);
            let id = builder.add_request_type_sized(name.clone(), steps, req_bytes, resp_bytes);
            debug_assert_eq!(id.index(), i);
            mix.push((id, *weight));
        }

        SocialNetwork {
            topology: builder.build(),
            mix,
            users,
        }
    }

    /// The provisioned topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The user population this deployment was provisioned for.
    pub fn users(&self) -> usize {
        self.users
    }

    /// The canonical request mix (weights in percent).
    pub fn request_mix(&self) -> RequestMix {
        RequestMix::new(self.mix.clone())
    }

    /// The canonical browsing model (memoryless over the mix — adequate
    /// for aggregate load; per-user state uses the same stationary
    /// distribution).
    pub fn browsing_model(&self) -> BrowsingModel {
        BrowsingModel::memoryless(self.mix.clone())
    }

    /// The offered request rate in req/s under the canonical closed-loop
    /// population, ignoring response times (rate ≈ users / think time).
    pub fn offered_rate(&self) -> f64 {
        self.users as f64 / THINK_TIME_S
    }
}

/// Mid-tier orchestrators get somewhat larger thread pools than leaves
/// (matched by prefix so the decoupled per-type instances qualify too).
fn is_hub(name: &str) -> bool {
    [
        "compose-post",
        "home-timeline",
        "user-timeline",
        "user-service",
        "social-graph",
    ]
    .iter()
    .any(|hub| name == *hub || name.starts_with(&format!("{hub}@")))
}

/// Realistic payload sizes per request type (reads return more data than
/// writes accept).
fn payload_sizes(name: &str) -> (u64, u64) {
    match name {
        "compose-post" | "compose-rich-post" => (2_048, 512),
        "upload-media" => (16_384, 512),
        "share-url" => (1_024, 512),
        "read-home-timeline" | "read-user-timeline" => (512, 16_384),
        "browse-hot-posts" => (512, 12_288),
        "login" => (768, 1_024),
        "follow-user" => (512, 256),
        "read-followers" => (512, 8_192),
        _ => (1_024, 8_192),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::GroundTruth;

    impl SocialNetwork {
        /// Request types of the three attackable dependency groups: (write
        /// path, read path, social path). `read-user-timeline` (rt 5)
        /// belongs to none — it is isolated behind its cache tier.
        fn expected_groups(&self) -> (Vec<RequestTypeId>, Vec<RequestTypeId>, Vec<RequestTypeId>) {
            let rt = |i: u32| RequestTypeId::new(i);
            (
                vec![rt(0), rt(1), rt(2), rt(3)],
                vec![rt(4), rt(6)],
                vec![rt(7), rt(8), rt(9)],
            )
        }
    }

    #[test]
    fn topology_has_expected_shape() {
        let app = social_network(7_000);
        let t = app.topology();
        assert_eq!(t.num_request_types(), 10);
        assert!(t.num_services() >= 25, "{} services", t.num_services());
        assert!(!t.service(t.service_by_name("nginx").unwrap()).blockable);
        assert!(
            t.service(t.service_by_name("compose-post").unwrap())
                .blockable
        );
    }

    #[test]
    fn ground_truth_forms_three_attackable_groups() {
        let app = social_network(7_000);
        let gt = GroundTruth::from_topology(app.topology());
        // Three multi-member groups (write, read, social); the
        // cache-isolated read-user-timeline path is a singleton — its only
        // shared service (the memcached tier) drains too fast for blocking
        // to reach it within stealth budgets.
        assert_eq!(
            gt.groups().multi_member_groups().count(),
            3,
            "groups: {:?}",
            gt.groups().groups()
        );
        let (w, r, s) = app.expected_groups();
        assert_eq!(gt.groups().group_of(w[0]).unwrap(), w.as_slice());
        assert_eq!(gt.groups().group_of(r[0]).unwrap(), r.as_slice());
        assert_eq!(gt.groups().group_of(s[0]).unwrap(), s.as_slice());
        assert_eq!(
            gt.groups().group_of(RequestTypeId::new(5)).unwrap().len(),
            1
        );
    }

    #[test]
    fn groups_contain_expected_dependency_kinds() {
        use callgraph::PairwiseDependency as P;
        let app = social_network(7_000);
        let gt = GroundTruth::from_topology(app.topology());
        let rt = |i: u32| RequestTypeId::new(i);
        // compose-post vs upload-media: parallel via the compose hub.
        assert_eq!(gt.pairwise(rt(0), rt(1)), P::Parallel);
        // compose-rich-post bottlenecks on the shared hub: sequential
        // upstream of the other write paths.
        assert_eq!(gt.pairwise(rt(3), rt(0)), P::Sequential { upstream: rt(3) });
        // read-user-timeline shares only the fast-draining memcached tier
        // with read-home-timeline: not blockable within stealth budgets.
        assert_eq!(gt.pairwise(rt(4), rt(5)), P::None);
        // browse-hot-posts bottlenecks on home-timeline, upstream of
        // read-home-timeline's memcached bottleneck.
        assert_eq!(gt.pairwise(rt(6), rt(4)), P::Sequential { upstream: rt(6) });
        // read-followers bottlenecks on social-graph compute, which lies
        // on follow-user's path: rt9 execution-blocks rt8.
        assert_eq!(gt.pairwise(rt(8), rt(9)), P::Sequential { upstream: rt(9) });
        // cross-subsystem pairs are independent.
        assert_eq!(gt.pairwise(rt(0), rt(4)), P::None);
        assert_eq!(gt.pairwise(rt(4), rt(7)), P::None);
    }

    #[test]
    fn provisioning_scales_with_users() {
        let small = social_network(1_000);
        let large = social_network(12_000);
        let svc = |app: &SocialNetwork, name: &str| {
            let id = app.topology().service_by_name(name).unwrap();
            app.topology().service(id).cores
        };
        assert!(svc(&large, "memcached-post") > svc(&small, "memcached-post"));
        assert!(svc(&large, "post-storage") >= svc(&small, "post-storage"));
        // The worker pool scales with the core count (slot residence is a
        // small multiple of local demand), one logical replica.
        let id = large.topology().service_by_name("memcached-post").unwrap();
        let spec = large.topology().service(id);
        assert_eq!(spec.threads, (spec.cores * 3).max(20));
        assert_eq!(spec.replicas, 1);
    }

    #[test]
    fn decoupled_variant_has_no_dependencies() {
        let app = SocialNetwork::decoupled(4_000);
        // Every shared service was split: far more services...
        assert!(
            app.topology().num_services() > social_network(4_000).topology().num_services(),
            "decoupling must duplicate services"
        );
        // ...and no multi-member dependency group survives.
        let gt = GroundTruth::from_topology(app.topology());
        assert_eq!(
            gt.groups().multi_member_groups().count(),
            0,
            "groups: {:?}",
            gt.groups().groups()
        );
    }

    #[test]
    fn mix_weights_sum_to_hundred() {
        let app = social_network(4_000);
        let total: f64 = app.request_mix().entries().iter().map(|(_, w)| w).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(app.offered_rate(), 4_000.0 / 7.0);
    }
}
