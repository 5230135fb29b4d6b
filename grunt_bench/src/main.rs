//! Command line of the benchmark.
//!
//! ```text
//! grunt_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! grunt_bench --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! grunt_bench --compare <parent results> <change results>
//! ```
//!
//! A run prints a readable report and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric of `BENCHMARK.json`, or with `--trace 1` every per-module one.
//! It exits 1 when a check fails and 2 on a usage error.

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use grunt_bench::results::{ResultLine, RunRecord};
use grunt_bench::runner::{self, Budget, RunReport};
use grunt_bench::spec::Spec;
use grunt_bench::{compare, layers, result_line, stats, Size, DEFAULT_SEED};

/// Passes a run makes even when its time budget is spent. Two, so a
/// traced run has a traced and an untraced pass.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage:
  grunt_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  grunt_bench --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  grunt_bench --compare <parent results> <change results>";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_args(spec: &Spec, raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            "--seed" => a.seed = Some(number(flag, &value()?)?),
            "--seconds" => {
                let s = number(flag, &value()?)?;
                if !(1..=3_600).contains(&s) {
                    return Err("--seconds must be between 1 and 3600".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = [a.workload.is_some(), a.all, a.compare.is_some()];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err("give exactly one of --workload, --all, --compare".to_string());
    }
    if let Some(w) = &a.workload {
        if !spec.workloads.iter().any(|s| &s.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if a.trace_out.is_some() && !(a.trace && a.workload.is_some()) {
        return Err("--trace-out needs --workload and --trace 1".to_string());
    }
    if a.out.is_some() && !a.all {
        return Err("--out goes with --all".to_string());
    }
    Ok(a)
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, not `{text}`"))
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&spec, &raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grunt_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let outcome = if let Some((parent, change)) = &args.compare {
        compare_files(&spec, parent, change)
    } else if args.all {
        run_all(&spec, &args, seed, seconds)
    } else {
        let name = args.workload.as_deref().expect("one mode is set");
        run_one(
            &spec,
            name,
            seed,
            seconds,
            args.trace,
            args.trace_out.as_deref(),
        )
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("grunt_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process. `Ok(false)` when a check failed.
fn run_one(
    spec: &Spec,
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&str>,
) -> Result<bool, String> {
    let budget = Budget {
        seconds: seconds as f64,
        min_passes: MIN_PASSES,
    };
    let report = grunt_bench::run(name, Size::Full, seed, budget, trace)?;
    let rss = runner::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    print_report(spec, &report, rss, trace);
    for (check, ok) in &report.checks {
        if !ok {
            eprintln!("grunt_bench: check failed: {check}");
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(path, report.recorder.chrome_trace(name)?)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "grunt_bench: wrote {} spans to {path}",
            report.spans().len()
        );
    }
    let metrics: Vec<(&str, f64, &str)> = if trace {
        let values = report.per_layer();
        spec.per_layer
            .iter()
            .map(|m| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.as_str(), v, m.unit.as_str())
            })
            .collect()
    } else {
        let values = report.end_to_end(rss);
        spec.end_to_end
            .iter()
            .map(|m| {
                let v = values
                    .iter()
                    .find(|(n, ..)| *n == m.name)
                    .map_or(0.0, |(_, v, _)| *v);
                (m.name.as_str(), v, m.unit.as_str())
            })
            .collect()
    };
    println!("{}", result_line(&report, &metrics).to_json()?);
    Ok(report.failed() == 0)
}

fn print_report(spec: &Spec, report: &RunReport, rss: f64, trace: bool) {
    let traced = report.passes.iter().filter(|p| p.traced).count();
    println!(
        "grunt_bench {}  seed {}  passes {} ({traced} traced)  set-ups {}",
        report.workload,
        report.seed,
        report.passes.len(),
        report.setup_rounds.len()
    );
    println!("sim_requests {}", report.sim_requests());
    println!("digest {}", report.digest());
    for (name, value, samples) in report.end_to_end(rss) {
        let unit = spec.end_to_end(name).map_or("", |m| m.unit.as_str());
        println!(
            "  {name:<16} {value:>14.6} {unit:<6} n={:<4} min {:.6}  max {:.6}",
            samples.len(),
            stats::min(&samples),
            stats::max(&samples)
        );
    }
    if trace {
        for (name, value) in report.per_layer() {
            let unit = spec.per_layer(name).map_or("", |m| m.unit.as_str());
            println!("  {name:<30} {value:>16.6} {unit}");
        }
        println!("  calls                              n        p50 us        p99 us");
        for (call, n, p50, p99) in layers::call_latencies(report.spans()) {
            println!("  {call:<30} {n:>6} {p50:>13.3} {p99:>13.3}");
        }
    }
    println!(
        "checks {}/{} passed",
        report.checks.len() - report.failed(),
        report.checks.len()
    );
}

/// Runs every workload as a child process of its own, so each reports its
/// own `peak_rss_mb`, and appends one line per run to `--out`.
fn run_all(spec: &Spec, args: &Args, seed: u64, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut out = match &args.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {path}: {e}"))?,
        ),
        None => None,
    };
    let trace = u8::from(args.trace).to_string();
    let mut all_ok = true;
    for name in spec.workloads.iter().map(|w| &w.name) {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", &trace])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {name} run: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let result = serde_json::from_str::<ResultLine>(last).ok();
        if !child.status.success() || !result.as_ref().is_some_and(|r| r.correct) {
            eprintln!("grunt_bench: the {name} run failed ({})", child.status);
            all_ok = false;
        }
        let (Some(result), Some(file)) = (result, out.as_mut()) else {
            continue;
        };
        let field = |key: &str| {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(key).map(str::trim))
                .unwrap_or("")
                .to_string()
        };
        let record = RunRecord {
            workload: name.clone(),
            seed,
            trace: u8::from(args.trace),
            digest: field("digest "),
            sim_requests: field("sim_requests ").parse().unwrap_or(0),
            result,
        };
        let line = serde_json::to_string(&record).map_err(|e| format!("writing results: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("writing results: {e}"))?;
    }
    if let Some(path) = &args.out {
        eprintln!("grunt_bench: appended results to {path}");
    }
    Ok(all_ok)
}

fn compare_files(spec: &Spec, parent: &str, change: &str) -> Result<bool, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let (p, c) = (read(parent)?, read(change)?);
    let (table, bad) = compare::compare(spec, (parent, &p), (change, &c))?;
    print!("{table}");
    Ok(!bad)
}
