//! `megacell`: `lab megacell`'s 100 k-user SocialNetwork cell, run as 1 s
//! `run_until` slices with the access log off and no attacker. A deep
//! population that stresses the think-timer arena and the timing wheel; it
//! bypasses `grunt`, fork, analysis and the access log.

use apps::social_network;
use microsim::{SimConfig, Simulation};
use simnet::SimTime;
use workload::ClosedLoopUsers;

use super::{Check, Pass, Workload};
use crate::stats::Digest;
use crate::trace::Recorder;

/// Sizes of the `megacell` workload.
#[derive(Debug, Clone, Copy)]
pub struct Megacell {
    /// Users, and the population the cell is provisioned for.
    pub users: usize,
    /// Simulated seconds per pass, one `run_until` slice each.
    pub slices: u64,
}

impl Megacell {
    /// The benchmark's size: `lab megacell`'s cell and horizon.
    pub const FULL: Megacell = Megacell {
        users: 100_000,
        slices: 60,
    };

    /// The smoke test's size.
    pub const SMOKE: Megacell = Megacell {
        users: 20_000,
        slices: 6,
    };
}

/// `lab megacell`'s bound on pending wheel events.
pub const PENDING_LIMIT: usize = 10_000;

/// A fresh cell.
#[derive(Debug)]
pub struct Setup {
    sim: Simulation,
    users: microsim::AgentId,
}

/// The pending-event high-water mark of a pass.
#[derive(Debug)]
pub struct Artifact {
    pending_max: usize,
}

impl Workload for Megacell {
    type Setup = Setup;
    type Artifact = Artifact;
    const CONSUMES_SETUP: bool = true;

    fn setup(&self, seed: u64, rec: &mut Recorder) -> Setup {
        let app = rec.call("apps", "generate", |_| social_network(self.users));
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
        let users = sim.add_agent(Box::new(users));
        Setup { sim, users }
    }

    fn pass(&self, setup: &mut Setup, rec: &mut Recorder) -> (Pass, Artifact) {
        let sim = &mut setup.sim;
        for second in 1..=self.slices {
            rec.simulate(sim, "microsim", "run_until", |s| {
                s.run_until(SimTime::from_secs(second));
            });
        }
        let pending_max = rec.pending_max();
        let pop: &ClosedLoopUsers = sim.agent_as(setup.users).expect("population registered");
        let latency = pop.latency_stats();
        let mut d = Digest::default();
        super::digest_sim(&mut d, sim);
        d.word(latency.count())
            .float(latency.mean())
            .word(pop.pending_think_buckets() as u64);
        let requests = sim.metrics().request_log().len() as f64;
        let pass = Pass {
            digest: d,
            sim_requests: rec.sim_requests(),
            counts: vec![
                ("microsim.requests", requests),
                ("microsim.pending_events_max", pending_max as f64),
                ("workload.users", self.users as f64),
                ("apps.services", sim.topology().num_services() as f64),
                (
                    "apps.request_types",
                    sim.topology().num_request_types() as f64,
                ),
            ],
        };
        (pass, Artifact { pending_max })
    }

    fn verify(&self, _setup: &Setup, a: Artifact) -> Vec<Check> {
        vec![(
            format!(
                "pending wheel events stayed under {PENDING_LIMIT} after every slice (max {})",
                a.pending_max
            ),
            a.pending_max < PENDING_LIMIT,
        )]
    }
}
