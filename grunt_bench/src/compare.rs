//! `--compare`: parent against change, per workload and end-to-end
//! metric, from the results files `--all` writes.
//!
//! A metric is `unresolved` when either side's run-to-run spread (distance
//! between the quartiles, as a share of the median) is wider than its
//! bound, unless every change run beats every parent run. It has
//! `regressed` when the change's median is worse than the parent's by more
//! than the bound, and `improved` when the change wins at least nine tenths
//! of the run pairs (ties count for neither) and the medians differ by more
//! than the parent's quartile distance. Otherwise it is `unchanged`.

use std::fmt::Write as _;

use crate::results::RunRecord;
use crate::spec::Spec;
use crate::stats;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the rule above.
    Improved,
    /// Neither better nor worse beyond the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The runs vary more than the bound allows a verdict on.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative quartile distance of `v`: `(q3 - q1) / median`.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(v);
    let m = stats::median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The verdict on `change` against `parent` (runs in the order they were
/// made, so `parent[i]` and `change[i]` form a pair).
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let worse_by = if pm == 0.0 {
        0.0
    } else if lower_is_better {
        (cm - pm) / pm.abs()
    } else {
        (pm - cm) / pm.abs()
    };
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread(parent).max(spread(change)) > bound {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (q1, q3) = stats::quartiles(parent);
    if better(cm, pm) && wins * 10 >= pairs * 9 && (cm - pm).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The untraced runs of a results file (one [`RunRecord`] per line);
/// `path` only names the file in errors.
fn read_runs(path: &str, text: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run: RunRecord =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if run.trace == 0 {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.result.metric(metric))
        .collect()
}

fn describe(v: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(v);
    format!(
        "{} [{}, {}] n={}",
        sig4(stats::median(v)),
        sig4(q1),
        sig4(q3),
        v.len()
    )
}

/// `x` to four significant digits, without an exponent.
fn sig4(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (3 - magnitude).clamp(0, 12) as usize)
}

/// Compares two results files, given as `(path, contents)`, and renders
/// the table. Returns the text and whether any metric regressed, any run
/// failed its checks, or the two sides' digests differ.
pub fn compare(
    spec: &Spec,
    parent: (&str, &str),
    change: (&str, &str),
) -> Result<(String, bool), String> {
    let (p, c) = (
        read_runs(parent.0, parent.1)?,
        read_runs(change.0, change.1)?,
    );
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:<40} {:<40} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for workload in spec.workloads.iter().map(|w| &w.name) {
        let (pw, cw): (Vec<&RunRecord>, Vec<&RunRecord>) = (
            p.iter().filter(|r| &r.workload == workload).collect(),
            c.iter().filter(|r| &r.workload == workload).collect(),
        );
        if pw.is_empty() || cw.is_empty() {
            continue;
        }
        for metric in &spec.end_to_end {
            let name = &metric.name;
            let (pv, cv) = (values(&pw, name), values(&cw, name));
            let v = verdict(&pv, &cv, metric.bound, metric.lower_is_better());
            bad |= v == Verdict::Regressed;
            let pm = stats::median(&pv);
            let delta = if pm == 0.0 {
                0.0
            } else {
                (stats::median(&cv) - pm) / pm * 100.0
            };
            let _ = writeln!(
                out,
                "{workload:<12} {name:<14} {:<40} {:<40} {delta:>+7.2}%  {}",
                describe(&pv),
                describe(&cv),
                v.as_str()
            );
        }
        let failed = pw.iter().chain(&cw).filter(|r| !r.result.correct).count();
        if failed > 0 {
            bad = true;
            let _ = writeln!(out, "{workload:<12} {failed} run(s) failed their checks");
        }
        let digests = |runs: &[&RunRecord]| {
            let mut d: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
            d.sort_unstable();
            d.dedup();
            d.join(",")
        };
        let (pd, cd) = (digests(&pw), digests(&cw));
        if pd != cd {
            bad = true;
            let _ = writeln!(
                out,
                "{workload:<12} digest differs: parent {pd}, change {cd}"
            );
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.10;

    #[test]
    fn steady_equal_runs_are_unchanged() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02];
        let c = [1.01, 0.99, 1.00, 1.02, 1.00];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02];
        let c = [1.15, 1.16, 1.14, 1.15, 1.17];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Regressed);
        // The same numbers for a higher-is-better metric are a gain.
        assert_eq!(verdict(&p, &c, BOUND, false), Verdict::Improved);
    }

    #[test]
    fn a_worsening_within_the_bound_is_unchanged() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02];
        let c = [1.05, 1.06, 1.04, 1.05, 1.07];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02, 1.00, 1.01, 0.99, 1.00, 1.02];
        let c = [0.95, 0.96, 0.94, 0.95, 0.97, 0.95, 0.96, 0.94, 0.95, 0.97];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Improved);
        // Two pairs lost: 8 of 10 wins is not enough.
        let mut c2 = c;
        c2[0] = 1.05;
        c2[1] = 1.05;
        assert_eq!(verdict(&p, &c2, BOUND, true), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_smaller_than_the_parent_spread_is_unchanged() {
        let p = [0.96, 1.04, 0.97, 1.03, 1.00];
        let c = [0.95, 1.03, 0.96, 1.02, 0.99];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Unchanged);
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_every_run_wins() {
        let p = [0.7, 1.3, 0.8, 1.2, 1.0];
        let c = [0.7, 1.3, 0.8, 1.2, 1.4];
        assert_eq!(verdict(&p, &c, BOUND, true), Verdict::Unresolved);
        let c_fast = [0.30, 0.35, 0.40, 0.45, 0.50];
        assert_eq!(verdict(&p, &c_fast, BOUND, true), Verdict::Improved);
        assert_eq!(verdict(&[], &c, BOUND, true), Verdict::Unresolved);
    }

    #[test]
    fn describes_with_four_significant_digits() {
        assert_eq!(sig4(0.75981), "0.7598");
        assert_eq!(sig4(3.8405e-5), "0.00003841");
        assert_eq!(sig4(412903.9), "412904");
        assert_eq!(sig4(0.0), "0.000");
    }

    #[test]
    fn compares_results_files() {
        let file = |walls: [f64; 3], digest: &str| {
            walls
                .map(|wall| {
                    format!(
                        "{{\"workload\": \"megacell\", \"seed\": 1, \"trace\": 0, \"digest\": \"{digest}\", \"sim_requests\": 10, \"result\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}}}\n"
                    )
                })
                .concat()
        };
        let spec = Spec::load();
        let parent = file([1.0, 1.01, 0.99], "ab");
        let slower = file([1.5, 1.51, 1.49], "ab");
        let (text, bad) = compare(&spec, ("p", &parent), ("c", &slower)).expect("readable");
        assert!(bad, "a 50% slower wall_s must fail the comparison:\n{text}");
        assert!(
            text.contains("megacell") && text.contains("regressed"),
            "{text}"
        );
        let other = file([1.0, 1.01, 0.99], "cd");
        let (text, bad) = compare(&spec, ("p", &parent), ("c", &other)).expect("readable");
        assert!(bad && text.contains("digest differs"), "{text}");
        assert!(compare(&spec, ("p", "{"), ("c", &other)).is_err());
    }
}
