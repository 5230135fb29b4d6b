//! Smoke test: every workload at its reduced size passes its checks, gives
//! the same digest on every pass, and gives the same digest traced as
//! untraced, so the spans cannot perturb the simulation.

use grunt_bench::runner::Budget;
use grunt_bench::spec::Spec;
use grunt_bench::{layers, run, Size};

/// Two passes, no time budget: the first traced, the second not.
const BUDGET: Budget = Budget {
    seconds: 0.0,
    min_passes: 2,
};

fn smoke(name: &str) {
    let report = run(name, Size::Smoke, 7, BUDGET, true).expect("known workload");
    let failed: Vec<_> = report.checks.iter().filter(|(_, ok)| !ok).collect();
    assert!(failed.is_empty(), "{name}: failed checks {failed:?}");
    let [traced, untraced] = &report.passes[..] else {
        panic!("{name}: expected exactly two passes");
    };
    assert!(traced.traced && !untraced.traced);
    assert_eq!(
        traced.digest, untraced.digest,
        "{name}: tracing changed the digest"
    );
    assert_eq!(
        traced.counts, untraced.counts,
        "{name}: tracing changed a count"
    );
    assert!(traced.sim_requests > 0, "{name}: nothing simulated");
    assert!(
        !report.spans().is_empty(),
        "{name}: traced pass kept no spans"
    );
    let values = report.end_to_end(1.0);
    assert!(
        values.iter().all(|(_, v, _)| *v > 0.0),
        "{name}: an end-to-end metric is zero: {values:?}"
    );
    let again = run(name, Size::Smoke, 7, BUDGET, false).expect("known workload");
    assert_eq!(
        again.digest(),
        report.digest(),
        "{name}: digest differs between runs"
    );
}

#[test]
fn campaign() {
    smoke("campaign");
}

#[test]
fn profiling() {
    smoke("profiling");
}

#[test]
fn megacell() {
    smoke("megacell");
}

#[test]
fn forensics() {
    smoke("forensics");
}

#[test]
fn retry_storm() {
    smoke("retry_storm");
}

#[test]
fn the_program_reports_what_benchmark_json_declares() {
    let spec = Spec::load();
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(
        workloads,
        [
            "campaign",
            "profiling",
            "megacell",
            "forensics",
            "retry_storm"
        ]
    );
    let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(declared, layers::names().collect::<Vec<_>>());
    let report = run("megacell", Size::Smoke, 7, BUDGET, false).expect("known workload");
    let reported: Vec<&str> = report.end_to_end(1.0).iter().map(|(n, ..)| *n).collect();
    let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(declared, reported);
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(run("nope", Size::Smoke, 7, BUDGET, false).is_err());
}
