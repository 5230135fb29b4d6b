//! Experiment runner CLI.
//!
//! ```text
//! lab <experiment|all> [--fast] [--out <dir>] [--jobs <N|auto>]
//! ```
//!
//! `--jobs` runs the independent cells of every multi-cell experiment on up
//! to `N` OS threads; results are emitted in cell order, so the written
//! reports are byte-identical to a serial run. Defaults to 1. `--jobs auto`
//! uses the machine's available parallelism, falling back to serial on
//! single-CPU hosts.
//!
//! Known experiments: see `lab::experiments::ALL`.

use lab::{experiments, sweep, Fidelity, RunOpts};

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI harness: argv selects which simulations run, never what they compute"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || {
        experiments::ALL
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: lab <experiment|all> [--fast] [--out <dir>] [--jobs <N|auto>]");
        eprintln!("experiments: {}", names());
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let which = args[0].as_str();
    let fidelity = if args.iter().any(|a| a == "--fast") {
        Fidelity::Fast
    } else {
        Fidelity::Full
    };
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string());
    let jobs = match args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
    {
        None => 1,
        Some(v) if v == "auto" => sweep::auto_jobs(),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("--jobs expects a positive integer or `auto`, got {v:?}");
                std::process::exit(2);
            }),
    };

    let selected = if which == "all" {
        experiments::ALL.to_vec()
    } else if let Some(run) = experiments::find(which) {
        vec![(which, run)]
    } else {
        eprintln!("unknown experiment {which:?}; known: {}", names());
        std::process::exit(2);
    };

    let opts = RunOpts::new(fidelity).jobs(jobs);
    for (name, run) in selected {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock progress echo on stderr; reports never include it"
        )]
        let started = std::time::Instant::now();
        eprintln!("== running {name} ({fidelity:?}, jobs={jobs}) ==");
        let report = run(&opts);
        let path = match report.write_to_dir(&out_dir) {
            Ok(path) => path,
            Err(e) => {
                eprintln!("error: writing report for {name} to {out_dir:?}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "   wrote {} ({:.1}s wall)",
            path.display(),
            started.elapsed().as_secs_f64()
        );
        println!("{}", report.to_markdown());
    }
}
