//! `profiling`: `lab fig16`'s loop on µBench App.2 (118 services). A
//! background population, then the blackbox `Profiler` in 30 s slices until
//! it is done, scored against the topology's ground truth. Call paths are
//! deepest here, so kernel cost per request is highest; no fork, commander
//! or access log.

use apps::{UBench, UBenchConfig};
use grunt::{Profiler, ProfilerConfig};
use microsim::{SimConfig, Simulation};
use simnet::{SimDuration, SimTime};
use telemetry::{GroundTruth, ProfilerScore};
use workload::ClosedLoopUsers;

use super::{Check, Pass, Workload, WARMUP};
use crate::stats::Digest;
use crate::trace::Recorder;

/// Sizes of the `profiling` workload.
#[derive(Debug, Clone, Copy)]
pub struct Profiling {
    /// Users App.2 is provisioned for (its nominal population).
    pub provision: usize,
    /// Background users actually driving it.
    pub users: usize,
}

impl Profiling {
    /// The benchmark's size: `lab fig16`'s App.2 at a quarter of its
    /// nominal population, the second of the loads it sweeps.
    pub const FULL: Profiling = Profiling {
        provision: 8_000,
        users: 2_000,
    };

    /// The smoke test's size.
    pub const SMOKE: Profiling = Profiling {
        provision: 8_000,
        users: 100,
    };
}

/// Profiling slices, as in `lab fig16`.
const SLICE: SimDuration = SimDuration::from_secs(30);
/// The profiler must finish within this simulated time.
const CONVERGENCE_LIMIT: SimTime = SimTime::from_secs(4 * 3_600);

/// The generated application and a fresh simulation of it.
#[derive(Debug)]
pub struct Setup {
    app: UBench,
    sim: Simulation,
    seed: u64,
}

/// Whether the profiler finished in time.
#[derive(Debug)]
pub struct Artifact {
    converged: bool,
    finished_at: SimTime,
}

impl Workload for Profiling {
    type Setup = Setup;
    type Artifact = Artifact;
    const CONSUMES_SETUP: bool = true;

    fn setup(&self, seed: u64, rec: &mut Recorder) -> Setup {
        let app = rec.call("apps", "generate", |_| {
            UBench::generate(UBenchConfig::app2(self.provision))
        });
        let cfg = SimConfig::default().seed(seed).access_log(false);
        let mut sim = rec.call("microsim", "new", |_| {
            Simulation::new(app.topology().clone(), cfg)
        });
        let users = rec.call("workload", "build", |_| {
            ClosedLoopUsers::new(
                self.users,
                app.browsing_model(),
                super::population_seed(seed),
            )
        });
        sim.add_agent(Box::new(users));
        Setup { app, sim, seed }
    }

    fn pass(&self, setup: &mut Setup, rec: &mut Recorder) -> (Pass, Artifact) {
        let sim = &mut setup.sim;
        rec.simulate(sim, "microsim", "run_until", |s| {
            s.run_until(SimTime::ZERO + WARMUP);
        });
        let profile_from = sim.now();
        let before = sim.metrics().request_log().len();
        let id = sim.add_agent(Box::new(Profiler::new(ProfilerConfig {
            seed: super::profiler_seed(setup.seed),
            ..ProfilerConfig::default()
        })));
        // Each slice is a `grunt.profile` span: the benchmark drives the
        // profiler's loop itself here, where `campaign` calls
        // `GruntCampaign::profile`, which runs the same kind of loop inside.
        let converged = loop {
            let next = sim.now() + SLICE;
            rec.simulate(sim, "grunt", "profile", |s| s.run_until(next));
            if sim.agent_as::<Profiler>(id).expect("registered").is_done() {
                break true;
            }
            if sim.now() >= CONVERGENCE_LIMIT {
                break false;
            }
        };
        let profiled_requests = sim.metrics().request_log().len() - before;
        let outcome = sim
            .agent_as::<Profiler>(id)
            .expect("registered")
            .outcome()
            .cloned();

        let mut d = Digest::default();
        super::digest_sim(&mut d, sim);
        let mut counts = vec![
            (
                "microsim.requests",
                sim.metrics().request_log().len() as f64,
            ),
            ("microsim.pending_events_max", rec.pending_max() as f64),
            ("workload.users", self.users as f64),
            ("apps.services", sim.topology().num_services() as f64),
            (
                "apps.request_types",
                sim.topology().num_request_types() as f64,
            ),
            (
                "grunt.profile_sim_s",
                sim.now().saturating_since(profile_from).as_secs_f64(),
            ),
        ];
        if let Some(outcome) = &outcome {
            let score = rec.call("telemetry", "score", |_| {
                let truth = GroundTruth::from_topology(setup.app.topology());
                let members: Vec<_> = outcome.catalog.iter().map(|(id, _)| *id).collect();
                ProfilerScore::compute(&members, &truth, &outcome.groups)
            });
            super::digest_profile(&mut d, outcome);
            d.word(score.tp as u64)
                .word(score.fp as u64)
                .word(score.fn_ as u64)
                .word(score.kind_matches as u64);
            let probes = outcome.requests_sent as f64;
            counts.extend([
                ("grunt.probe_requests", probes),
                (
                    "grunt.probe_share",
                    probes / profiled_requests.max(1) as f64,
                ),
                ("grunt.f_score", score.f_score()),
            ]);
        }
        let pass = Pass {
            digest: d,
            sim_requests: rec.sim_requests(),
            counts,
        };
        let artifact = Artifact {
            converged,
            finished_at: sim.now(),
        };
        (pass, artifact)
    }

    fn verify(&self, _setup: &Setup, a: Artifact) -> Vec<Check> {
        vec![(
            format!(
                "profiler converged within 4 simulated hours (stopped at {:.0} s)",
                a.finished_at.as_secs_f64()
            ),
            a.converged,
        )]
    }
}
