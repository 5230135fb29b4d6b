//! A MediaService benchmark application (DeathStarBench-style).
//!
//! A movie-review site: users browse movie pages, read and write reviews,
//! and stream trailers. Like [`social_network`](crate::social_network()),
//! the topology is an nginx frontend over subsystem hubs with storage
//! behind them; it exists as a second realistic target so downstream users
//! can evaluate the attack on more than one application family.
//!
//! Two attackable dependency groups emerge: the *review* group around the
//! `compose-review` hub and the *browse* group around `page-service`;
//! trailer streaming is served from a CDN-like cache and is isolated (the
//! paper's §VI limitation: cache-served requests escape the attack).

use callgraph::{RequestTypeId, ServiceId, ServiceSpec, Topology, TopologyBuilder};
use simnet::SimDuration;
use workload::{BrowsingModel, RequestMix};

use crate::provision::provision_replicas;
use crate::social_network::THINK_TIME_S;

/// Target baseline utilisation for provisioning.
const TARGET_UTIL: f64 = 0.35;

/// Demand scale, matching the SocialNetwork calibration.
const DEMAND_SCALE: f64 = 1.8;

/// A provisioned MediaService deployment.
#[derive(Debug, Clone)]
pub struct MediaService {
    topology: Topology,
    mix: Vec<(RequestTypeId, f64)>,
    users: usize,
}

/// Builds a MediaService deployment provisioned for `users` closed-loop
/// users.
///
/// # Example
///
/// ```
/// let app = apps::media_service(5_000);
/// assert_eq!(app.topology().num_request_types(), 8);
/// ```
///
/// # Panics
///
/// Panics if `users` is zero.
pub fn media_service(users: usize) -> MediaService {
    MediaService::new(users)
}

impl MediaService {
    /// See [`media_service`].
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero.
    pub fn new(users: usize) -> Self {
        assert!(users > 0, "need at least one user");
        let total_rate = users as f64 / THINK_TIME_S;
        let ms = |v: f64| SimDuration::from_secs_f64(v * DEMAND_SCALE / 1e3);

        // (name, weight%, chain)
        type CatalogEntry<'a> = (&'a str, f64, Vec<(&'a str, SimDuration)>);
        let catalog: Vec<CatalogEntry> = vec![
            (
                // Review group: compose hub over text/rating pipelines into
                // review storage.
                "compose-review",
                10.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-review", ms(7.0)),
                    ("review-text", ms(5.0)),
                    ("review-storage", ms(12.0)),
                    ("review-mongodb", ms(3.0)),
                ],
            ),
            (
                "rate-movie",
                8.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-review", ms(7.0)),
                    ("rating-service", ms(13.0)),
                    ("rating-redis", ms(3.0)),
                ],
            ),
            (
                // Bottlenecks on the shared compose hub itself.
                "compose-rich-review",
                5.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("compose-review", ms(17.0)),
                    ("spellcheck", ms(1.5)),
                ],
            ),
            (
                // Browse group: page aggregation over info/cast/plot tiers.
                "browse-movie",
                28.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("page-service", ms(6.0)),
                    ("movie-info", ms(11.0)),
                    ("movie-mongodb", ms(3.0)),
                ],
            ),
            (
                "read-reviews",
                20.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("page-service", ms(5.0)),
                    ("review-cache", ms(10.0)),
                ],
            ),
            (
                "search-movies",
                12.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("page-service", ms(14.0)),
                    ("search-index", ms(4.0)),
                ],
            ),
            (
                "cast-info",
                9.0,
                vec![
                    ("nginx", ms(0.3)),
                    ("cast-service", ms(9.0)),
                    ("cast-mongodb", ms(12.0)),
                ],
            ),
            (
                // CDN-served: isolated behind the unblockable edge cache.
                "stream-trailer",
                8.0,
                vec![("nginx", ms(0.3)), ("trailer-cdn", ms(2.0))],
            ),
        ];

        let mut names: Vec<&str> = Vec::new();
        for (_, _, chain) in &catalog {
            for (svc, _) in chain {
                if !names.contains(svc) {
                    names.push(svc);
                }
            }
        }
        let offered: Vec<(RequestTypeId, f64)> = catalog
            .iter()
            .enumerate()
            .map(|(i, (_, w, _))| (RequestTypeId::new(i as u32), total_rate * w / 100.0))
            .collect();

        let mut builder = TopologyBuilder::new();
        let mut ids: std::collections::BTreeMap<&str, ServiceId> = Default::default();
        for name in &names {
            let spec = if *name == "nginx" || *name == "trailer-cdn" {
                // Edge tiers: effectively unbounded workers.
                ServiceSpec::new(*name)
                    .threads(8192)
                    .cores(8)
                    .blockable(false)
                    .demand_cv(0.15)
            } else {
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
                let hub = matches!(*name, "compose-review" | "page-service" | "cast-service");
                let threads = if hub {
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
        for (name, weight, chain) in &catalog {
            let steps = chain.iter().map(|(svc, d)| (ids[svc], *d)).collect();
            let id = builder.add_request_type(*name, steps);
            mix.push((id, *weight));
        }

        MediaService {
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

    /// The canonical request mix.
    pub fn request_mix(&self) -> RequestMix {
        RequestMix::new(self.mix.clone())
    }

    /// The canonical browsing model.
    pub fn browsing_model(&self) -> BrowsingModel {
        BrowsingModel::memoryless(self.mix.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::GroundTruth;

    #[test]
    fn forms_review_and_browse_groups() {
        let app = media_service(5_000);
        let gt = GroundTruth::from_topology(app.topology());
        let groups: Vec<&[RequestTypeId]> = gt.groups().multi_member_groups().collect();
        assert_eq!(groups.len(), 2, "groups: {:?}", gt.groups().groups());
        // Review group: the three compose-hub paths.
        let review = gt
            .groups()
            .group_of(RequestTypeId::new(0))
            .expect("compose-review grouped");
        assert_eq!(review.len(), 3);
        // Browse group: the three page-service paths.
        let browse = gt
            .groups()
            .group_of(RequestTypeId::new(3))
            .expect("browse-movie grouped");
        assert_eq!(browse.len(), 3);
    }

    #[test]
    fn cdn_path_is_isolated() {
        let app = media_service(5_000);
        let gt = GroundTruth::from_topology(app.topology());
        let trailer = app
            .topology()
            .request_type_by_name("stream-trailer")
            .expect("known type");
        assert_eq!(
            gt.groups().group_of(trailer).expect("present").len(),
            1,
            "CDN-served requests must escape the attack surface"
        );
    }

    #[test]
    fn mix_and_provisioning_are_sane() {
        let app = media_service(5_000);
        let total: f64 = app.request_mix().entries().iter().map(|(_, w)| w).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!(app.topology().num_services() >= 15);
        for svc in app.topology().services() {
            assert!(svc.cores >= 1 && svc.threads >= svc.cores);
        }
    }
}
