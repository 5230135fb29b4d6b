//! Table IV: live attacks on the three µBench applications — profile an
//! unknown architecture, then attack it at two workload levels.

use apps::{UBench, UBenchConfig};
use grunt::CampaignConfig;
use microsim::Simulation;
use simnet::{SimDuration, SimTime};
use telemetry::{LatencySummary, Traffic};
use workload::ClosedLoopUsers;

use crate::report::fmt;
use crate::{sweep, Report, RunOpts};

struct Outcome {
    pmb_ms: f64,
    base_ms: f64,
    att_ms: f64,
    norm_traffic: f64,
    cpu_base: f64,
    cpu_att: f64,
}

fn attack_app(app: &UBench, users: usize, attack: SimDuration, seed: u64) -> Outcome {
    let mut sim = Simulation::new(
        app.topology().clone(),
        microsim::SimConfig::default().seed(seed),
    );
    sim.add_agent(Box::new(ClosedLoopUsers::new(
        users,
        app.browsing_model(),
        simnet::derive_seed(seed, "table4/users"),
    )));
    sim.run_until(SimTime::from_secs(10));
    let base_from = sim.now();
    sim.run_until(base_from + SimDuration::from_secs(40));
    let base_to = sim.now();
    let config = CampaignConfig::default();
    let pacing = config.commander.burst_length.as_millis_f64();
    let campaign = grunt::GruntCampaign::run(&mut sim, config, attack);
    let a0 = campaign.attack_started + SimDuration::from_secs(20).min(attack / 4);
    let a1 = campaign.attack_started + attack;

    let m = sim.metrics();
    let base = LatencySummary::compute(m, Traffic::Legit, None, base_from, base_to);
    let att = LatencySummary::compute(m, Traffic::Legit, None, a0, a1);
    let mb = |from: SimTime, to: SimTime| {
        let w = m.window().as_micros();
        let lo = (from.as_micros() / w) as usize;
        let hi = ((to.as_micros() / w) as usize).min(m.num_windows());
        if hi <= lo {
            return 0.0;
        }
        m.network_total_mb(lo, hi) / ((hi - lo) as f64 * m.window().as_secs_f64())
    };
    let net_base = mb(base_from, base_to).max(1e-9);
    let net_att = mb(a0, a1);
    // Representative bottleneck CPU: hottest blockable service.
    let topo = sim.topology();
    let hottest = |from: SimTime, to: SimTime| {
        (0..m.num_services())
            .map(|i| callgraph::ServiceId::new(i as u32))
            .filter(|s| topo.service(*s).blockable)
            .map(|s| m.mean_utilization(s, from, to))
            .fold(0.0f64, f64::max)
    };
    Outcome {
        pmb_ms: campaign
            .report
            .mean_pmb()
            .map_or(0.0, |d| (d.as_millis_f64() - pacing).max(0.0)),
        base_ms: base.avg_ms,
        att_ms: att.avg_ms,
        norm_traffic: net_att / net_base,
        cpu_base: hottest(base_from, base_to),
        cpu_att: hottest(a0, a1),
    }
}

/// Runs the experiment. Each cell regenerates its µBench app and
/// simulation from per-cell seeds, so cells are independent and the row
/// order is fixed by the settings order.
pub fn run(opts: &RunOpts) -> Report {
    let fidelity = opts.fidelity;
    let attack = fidelity.secs(1_200, 150);
    let mut report = Report::new(
        "table4_live",
        "Table IV — live attacks on µBench applications",
    );
    report.paragraph(
        "Unknown-architecture targets generated by the µBench-style factory \
         (62 / 118 / 196 unique microservices); each attacked after blackbox \
         profiling at a low and a medium workload level. `Norm. traffic` is \
         gateway traffic under attack relative to baseline.",
    );

    let settings: Vec<(&str, UBenchConfig, usize)> = fidelity.pick(
        vec![
            ("App.1-1K", UBenchConfig::app1(3_000), 1_000),
            ("App.1-3K", UBenchConfig::app1(3_000), 3_000),
            ("App.2-4K", UBenchConfig::app2(8_000), 4_000),
            ("App.2-8K", UBenchConfig::app2(8_000), 8_000),
            ("App.3-8K", UBenchConfig::app3(16_000), 8_000),
            ("App.3-16K", UBenchConfig::app3(16_000), 16_000),
        ],
        vec![
            ("App.1-1K", UBenchConfig::app1(3_000), 1_000),
            ("App.1-3K", UBenchConfig::app1(3_000), 3_000),
        ],
    );

    let rows = sweep::map_cells(opts.jobs, &settings, |_, (label, cfg, users)| {
        let app = UBench::generate(*cfg);
        let o = attack_app(&app, *users, attack, 0x7AB4 ^ *users as u64);
        vec![
            label.to_string(),
            fmt(o.pmb_ms, 0),
            fmt(o.base_ms, 0),
            fmt(o.att_ms, 0),
            "1".to_string(),
            fmt(o.norm_traffic, 2),
            fmt(o.cpu_base * 100.0, 0),
            fmt(o.cpu_att * 100.0, 0),
        ]
    });
    report.table(
        &[
            "Setting",
            "P_MB (ms)",
            "Avg RT base (ms)",
            "Avg RT att (ms)",
            "Traffic base",
            "Traffic att (norm.)",
            "CPU base (%)",
            "CPU att (%)",
        ],
        rows,
    );
    report
}
