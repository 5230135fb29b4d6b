//! Tables I & III: Grunt damage across cloud settings.
//!
//! Six settings — two workload levels on each of EC2, Azure and CloudLab —
//! each running a full profile + attack campaign. Table I reports the
//! user-perceived damage (avg / p95 RT, gateway traffic, bottleneck CPU);
//! Table III adds the attacker-side columns (bots, P_MB).

use grunt::CampaignConfig;
use microsim::PlatformProfile;
use simnet::SimDuration;

use crate::report::fmt;
use crate::{sweep, AttackRun, Fidelity, Report, RunOpts, Scenario, WarmProfiled};

/// One sweep cell: (label, platform, users, provisioned-for).
pub type Setting = (String, PlatformProfile, usize, usize);

/// The two table rows a cell produces.
struct CellRows {
    /// Table I row (user-perceived damage).
    row1: Vec<String>,
    /// Table III row (attacker-side parameters).
    row3: Vec<String>,
}

/// The six paper settings: (label, platform, users, provisioned-for).
/// Each cloud hosts one deployment provisioned for its heavier workload.
pub fn settings() -> Vec<Setting> {
    vec![
        ("EC2-7K".into(), PlatformProfile::ec2(), 7_000, 12_000),
        ("EC2-12K".into(), PlatformProfile::ec2(), 12_000, 12_000),
        ("Azure-4K".into(), PlatformProfile::azure(), 4_000, 9_000),
        ("Azure-9K".into(), PlatformProfile::azure(), 9_000, 9_000),
        (
            "CloudLab-5K".into(),
            PlatformProfile::cloudlab(),
            5_000,
            11_000,
        ),
        (
            "CloudLab-11K".into(),
            PlatformProfile::cloudlab(),
            11_000,
            11_000,
        ),
    ]
}

/// Runs one cell: full profile + attack campaign straight through on a
/// fresh, per-cell seeded simulation. Cells share no prefix, so there is
/// nothing to fork; they are independent, so the sweep executor can run
/// them on separate threads without changing any cell's result.
fn run_cell(setting: &Setting, baseline: SimDuration, attack: SimDuration) -> CellRows {
    let scenario = scenario(setting);
    let run = AttackRun::execute(&scenario, CampaignConfig::default(), baseline, attack);
    rows_for(&setting.0, &run)
}

/// The cell's SocialNetwork deployment, seeded by its user count.
fn scenario((label, platform, users, provision): &Setting) -> Scenario {
    Scenario::social_network(
        label,
        platform.clone(),
        *users,
        *provision,
        0x7AB1 ^ *users as u64,
    )
}

/// Baseline and attack window lengths shared by every Table I cell.
fn windows(fidelity: Fidelity) -> (SimDuration, SimDuration) {
    (fidelity.secs(120, 40), fidelity.secs(1_200, 180))
}

fn rows_for(label: &str, run: &AttackRun) -> CellRows {
    let base = run.baseline_latency();
    let att = run.attack_latency();
    let net_b = run.network_mbps(run.baseline_window.0, run.baseline_window.1);
    let net_a = run.network_mbps(run.attack_window.0, run.attack_window.1);
    let cpu_b = run.bottleneck_cpu(run.baseline_window.0, run.baseline_window.1);
    let cpu_a = run.bottleneck_cpu(run.attack_window.0, run.attack_window.1);
    CellRows {
        row1: vec![
            label.to_string(),
            fmt(base.avg_ms, 0),
            fmt(att.avg_ms, 0),
            fmt(base.p95_ms, 0),
            fmt(att.p95_ms, 0),
            fmt(net_b, 1),
            fmt(net_a, 1),
            fmt(cpu_b * 100.0, 0),
            fmt(cpu_a * 100.0, 0),
        ],
        row3: vec![
            label.to_string(),
            run.campaign.bots_used.to_string(),
            fmt(run.mean_pmb_ms(), 0),
            fmt(base.avg_ms, 0),
            fmt(att.avg_ms, 0),
            fmt(att.avg_ms / base.avg_ms.max(1.0), 1),
        ],
    }
}

/// Runs the experiment.
pub fn run(opts: &RunOpts) -> Report {
    report_for(&settings(), opts)
}

/// Builds the Tables I & III report for an arbitrary settings slice —
/// the determinism test runs a two-cell slice both serially and in
/// parallel and compares the rendered reports byte for byte.
pub fn report_for(settings: &[Setting], opts: &RunOpts) -> Report {
    let (baseline, attack) = windows(opts.fidelity);
    let mut report = Report::new(
        "table1_damage",
        "Tables I & III — Grunt damage across cloud settings",
    );
    report.paragraph(format!(
        "SocialNetwork under {attack} of attack per setting; damage goal avg RT >= 1 s, \
         stealth goal P_MB <= 500 ms. `Base.` columns measure the pre-attack window, \
         `Att.` the attack window (20 s ramp excluded)."
    ));

    let cells = sweep::map_cells(opts.jobs, settings, |_, s| run_cell(s, baseline, attack));
    let mut rows1 = Vec::with_capacity(cells.len());
    let mut rows3 = Vec::with_capacity(cells.len());
    for cell in cells {
        rows1.push(cell.row1);
        rows3.push(cell.row3);
    }

    report.heading("Table I — long response time damage");
    report.table(
        &[
            "Setting",
            "Avg RT base (ms)",
            "Avg RT att (ms)",
            "p95 base (ms)",
            "p95 att (ms)",
            "Net base (MB/s)",
            "Net att (MB/s)",
            "CPU base (%)",
            "CPU att (%)",
        ],
        rows1,
    );
    report.heading("Table III — attack parameters and outcome");
    report.table(
        &[
            "Setting",
            "Bots",
            "P_MB (ms)",
            "Avg RT base (ms)",
            "Avg RT att (ms)",
            "Damage factor",
        ],
        rows3,
    );
    report
}

/// Damage-goal variants of the attack-parameter sweep slice.
pub const PARAM_SWEEP_GOALS: [f64; 4] = [600.0, 800.0, 1_000.0, 1_200.0];

/// The attack-parameter sweep the warm-fork subsystem exists for: one
/// scenario (EC2-7K), one profiling run, four commander variants that
/// differ only in the damage goal.
///
/// All four cells share an identical warm-up + baseline + profiling
/// prefix, which is simulated once and frozen as a [`WarmProfiled`]; each
/// cell (on whichever worker thread claims it) forks the shared snapshot
/// and simulates only its attack window.
pub fn param_sweep_report(opts: &RunOpts) -> Report {
    let (baseline, _) = windows(opts.fidelity);
    let warm = WarmProfiled::new(
        &scenario(&settings()[0]),
        CampaignConfig::default().profiler,
        baseline,
    );
    param_sweep_report_with(opts, |_, config, _, attack| {
        AttackRun::forked(&warm, config.commander, attack)
    })
}

/// Renders the damage-goal sweep with each cell's run produced by
/// `run_cell(scenario, config, baseline, attack)`, where `config` is the
/// default campaign with that cell's damage goal. `bench_kernel` passes
/// the cold oracle [`AttackRun::execute`] here and checks that the report
/// matches [`param_sweep_report`] byte for byte.
pub fn param_sweep_report_with<F>(opts: &RunOpts, run_cell: F) -> Report
where
    F: Fn(&Scenario, CampaignConfig, SimDuration, SimDuration) -> AttackRun + Sync,
{
    let (baseline, attack) = windows(opts.fidelity);
    let ec2_7k = scenario(&settings()[0]);
    let mut report = Report::new(
        "table1_param_sweep",
        "Table I slice — damage-goal sweep on EC2-7K",
    );
    report.paragraph(format!(
        "One profiled EC2-7K deployment attacked with {} damage-goal variants \
         ({} attack window each). Cells share the warm-up + baseline + profiling \
         prefix, which warm-snapshot forking simulates exactly once.",
        PARAM_SWEEP_GOALS.len(),
        attack
    ));
    let rows = sweep::map_cells(opts.jobs, &PARAM_SWEEP_GOALS, |_, goal| {
        let defaults = CampaignConfig::default();
        let config = CampaignConfig {
            commander: grunt::CommanderConfig {
                damage_goal_ms: *goal,
                ..defaults.commander
            },
            ..defaults
        };
        let run = run_cell(&ec2_7k, config, baseline, attack);
        let base = run.baseline_latency();
        let att = run.attack_latency();
        vec![
            fmt(*goal, 0),
            run.campaign.bots_used.to_string(),
            fmt(run.mean_pmb_ms(), 0),
            fmt(base.avg_ms, 0),
            fmt(att.avg_ms, 0),
            fmt(att.avg_ms / base.avg_ms.max(1.0), 1),
        ]
    });
    report.table(
        &[
            "Damage goal (ms)",
            "Bots",
            "P_MB (ms)",
            "Avg RT base (ms)",
            "Avg RT att (ms)",
            "Damage factor",
        ],
        rows,
    );
    report
}
