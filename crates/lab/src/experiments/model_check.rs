//! §III model validation: the analytic queueing equations against the
//! simulator.
//!
//! A minimal chain (gateway → bottleneck) is driven with controlled bursts
//! and the measured queue build-up, damage latency and millibottleneck
//! length are compared with Equations (1), (4) and (5). Linearity of
//! `P_MB` in the burst length `L` — the property the Kalman feedback
//! relies on — is checked across a sweep.

use callgraph::{RequestTypeId, ServiceSpec, TopologyBuilder};
use microsim::agents::FixedRate;
use microsim::{SimConfig, Simulation};
use queueing::{damage_latency, execution_queue, millibottleneck_length, BurstPlan};
use simnet::{SimDuration, SimTime};
use telemetry::find_millibottlenecks;

use crate::report::fmt;
use crate::{sweep, Report, RunOpts};

/// Capacity of the test bottleneck (req/s): 1 core at 10 ms demand.
const CAPACITY: f64 = 100.0;

fn measure(burst: BurstPlan, lambda: f64) -> (f64, f64) {
    let mut b = TopologyBuilder::new();
    let gw = b.add_service(
        ServiceSpec::new("gw")
            .threads(4096)
            .cores(8)
            .blockable(false)
            .demand_cv(0.0),
    );
    let svc = b.add_service(ServiceSpec::new("svc").threads(512).cores(1).demand_cv(0.0));
    b.add_request_type(
        "r",
        vec![
            (gw, SimDuration::from_micros(100)),
            (svc, SimDuration::from_millis(10)),
        ],
    );
    let mut sim = Simulation::new(b.build(), SimConfig::default());
    // Background load.
    if lambda > 0.0 {
        let gap = SimDuration::from_secs_f64(1.0 / lambda);
        sim.add_agent(Box::new(FixedRate::new(
            RequestTypeId::new(0),
            gap,
            (lambda * 30.0) as u64,
        )));
    }
    sim.run_until(SimTime::from_secs(5));
    // The burst, paced over its length.
    let gap = burst.inter_request_gap();
    let count = burst.request_count();
    sim.add_agent(Box::new(
        FixedRate::new(RequestTypeId::new(0), gap, count)
            .with_origin(microsim::Origin::attack(1, 1)),
    ));
    sim.run_until(SimTime::from_secs(20));

    let m = sim.metrics();
    // Measured millibottleneck length on the bottleneck service, from
    // burst start.
    let mbs = find_millibottlenecks(m, 0.99);
    let pmb = mbs
        .iter()
        .filter(|mb| {
            mb.service == callgraph::ServiceId::new(1) && mb.start >= SimTime::from_secs(5)
        })
        .map(|mb| mb.length().as_secs_f64())
        .fold(0.0, f64::max);
    // Measured damage: worst attack-request latency (the last queued
    // request waits the full drain).
    let worst = m
        .request_log()
        .iter()
        .filter(|r| r.origin.is_attack)
        .map(|r| r.latency().as_secs_f64())
        .fold(0.0, f64::max);
    (pmb, worst)
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let mut report = Report::new(
        "model_check",
        "§III model validation — analytic equations vs simulator",
    );
    report.paragraph(format!(
        "Single bottleneck (capacity C = {CAPACITY} req/s), burst rate B = 300 req/s. \
         Equations (1)/(4) predict the queue and damage latency; Equation (5) the \
         millibottleneck length. The simulator measures white-box saturation \
         intervals (100 ms windows) and the worst burst-request latency."
    ));

    let lambdas = fidelity.pick(vec![0.0, 30.0, 60.0], vec![0.0, 60.0]);
    let lengths = fidelity.pick(vec![0.1, 0.2, 0.4, 0.6], vec![0.2, 0.4]);

    let cells: Vec<(f64, f64)> = lambdas
        .iter()
        .flat_map(|&lambda| lengths.iter().map(move |&length| (lambda, length)))
        .collect();
    let measured = sweep::map_cells(opts.jobs, &cells, |_, &(lambda, length)| {
        let burst = BurstPlan::new(300.0, length);
        (burst, measure(burst, lambda))
    });
    let mut rows = Vec::new();
    let mut pmb_points: Vec<(f64, f64)> = Vec::new();
    for (&(lambda, length), &(burst, (pmb_meas, damage_meas))) in cells.iter().zip(&measured) {
        let q_pred = execution_queue(burst, lambda, CAPACITY);
        let damage_pred = damage_latency(q_pred, CAPACITY);
        let pmb_pred = millibottleneck_length(burst, CAPACITY, lambda, CAPACITY);
        if lambda == lambdas[0] {
            pmb_points.push((length, pmb_meas));
        }
        rows.push(vec![
            fmt(lambda, 0),
            fmt(length, 1),
            fmt(q_pred, 0),
            fmt(damage_pred * 1e3, 0),
            fmt(damage_meas * 1e3, 0),
            fmt(pmb_pred * 1e3, 0),
            fmt(pmb_meas * 1e3, 0),
        ]);
    }
    report.table(
        &[
            "lambda (req/s)",
            "L (s)",
            "Q_B pred (req)",
            "t_damage pred (ms)",
            "t_damage meas (ms)",
            "P_MB pred (ms)",
            "P_MB meas (ms)",
        ],
        rows,
    );

    // Linearity check of P_MB in L.
    if pmb_points.len() >= 2 {
        let (l0, p0) = pmb_points[0];
        let (l1, p1) = pmb_points[pmb_points.len() - 1];
        let slope = (p1 - p0) / (l1 - l0);
        report.paragraph(format!(
            "P_MB vs L slope (no background load): {} ms per 100 ms of L — the \
             linear relationship the Commander's Kalman feedback exploits.",
            fmt(slope * 100.0, 0),
        ));
    }
    report
}
