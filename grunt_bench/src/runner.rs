//! Runs one workload for a host-time budget: set-ups and passes, each
//! timed from outside, the checks on the first pass, and the metrics of the
//! run.
//!
//! The host is shared: other tenants slow this process down in bursts from
//! tens of milliseconds to minutes long, by up to a factor of two. Only
//! ever slower, never faster. So the time of work that repeats identically
//! is taken at its fastest: every pass of a run makes the same calls on the
//! same inputs, and `wall_s` sums, call by call, the fastest time that call
//! took in any pass. The finer a workload's calls, the more of the
//! interference this removes.

use std::time::Instant;

use crate::layers;
use crate::stats;
use crate::trace::{Recorder, Span, Step};
use crate::workloads::{Check, Workload};

/// Set-up rounds of a workload whose passes share one set-up (it keeps
/// the last). That set-up simulates a whole history, seconds long, and
/// counts against the run's budget.
const SHARED_SETUP_ROUNDS: usize = 3;
/// Host seconds of set-up rounds before each pass of a workload whose
/// passes consume their set-up (the pass takes the last). A set-up lasting
/// tens of microseconds thus gets hundreds of rounds before every pass,
/// spread over the run like the passes, so their median samples both the
/// host's fast and slow stretches and the allocator's state after each
/// pass.
const SETUP_SECONDS_PER_PASS: f64 = 0.05;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Host seconds the run may take: a pass starts only if, at the median
    /// pace of the passes before it, it ends in time.
    pub seconds: f64,
    /// Passes run even when the budget is spent.
    pub min_passes: usize,
}

/// One timed pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Host seconds of the pass, benchmark code included.
    pub wall_s: f64,
    /// Whether its spans were kept.
    pub traced: bool,
    /// The calls it made, in order.
    pub steps: Vec<Step>,
    /// Requests its simulation calls completed.
    pub simulated: u64,
    /// Digest of its simulated results.
    pub digest: String,
    /// Simulated requests it worked on.
    pub sim_requests: u64,
    /// Per-layer counts it reported.
    pub counts: Vec<(&'static str, f64)>,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Host seconds of each set-up round.
    pub setup_rounds: Vec<f64>,
    /// Steps and simulated requests of every set-up round that simulated.
    pub simulating_setups: Vec<(Vec<Step>, u64)>,
    /// Every pass, in order.
    pub passes: Vec<PassRecord>,
    /// Every check and whether it held.
    pub checks: Vec<Check>,
    /// The recorder, holding the spans of a traced run.
    pub recorder: Recorder,
}

impl RunReport {
    /// Digest of the run: that of its first pass.
    pub fn digest(&self) -> &str {
        self.passes.first().map_or("", |p| p.digest.as_str())
    }

    /// Simulated requests one pass works on.
    pub fn sim_requests(&self) -> u64 {
        self.passes.first().map_or(0, |p| p.sim_requests)
    }

    /// Number of checks that failed.
    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|(_, ok)| !ok).count()
    }

    fn passes(&self, traced: bool) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(move |p| p.traced == traced)
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.passes(traced).map(|p| p.wall_s).collect()
    }

    /// The spans kept by a traced run.
    pub fn spans(&self) -> &[Span] {
        self.recorder.spans()
    }

    /// End-to-end metrics with their samples: `(name, value, samples)`.
    ///
    /// `wall_s` is the untraced passes' calls, each at its fastest, summed;
    /// its samples are each pass's own sum. `sim_req_per_s` divides the
    /// requests a pass simulates by its simulation calls summed the same
    /// way; for a workload whose passes do not simulate, those of its
    /// set-ups. `setup_s` is the median set-up round.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, Vec<f64>)> {
        let pass_steps: Vec<&[Step]> = self.passes(false).map(|p| &p.steps[..]).collect();
        let wall = fastest_steps(&pass_steps).0;
        let sums = pass_steps
            .iter()
            .map(|steps| steps.iter().map(|s| s.secs).sum())
            .collect();
        let mut simulating: Vec<(&[Step], u64)> = self
            .passes(false)
            .filter(|p| p.simulated > 0)
            .map(|p| (&p.steps[..], p.simulated))
            .collect();
        if simulating.is_empty() {
            simulating = (self.simulating_setups.iter())
                .map(|(steps, n)| (&steps[..], *n))
                .collect();
        }
        let steps: Vec<&[Step]> = simulating.iter().map(|(s, _)| *s).collect();
        let sim_secs = fastest_steps(&steps).1;
        let sim_req_per_s = match simulating.first() {
            Some((_, n)) if sim_secs > 0.0 => *n as f64 / sim_secs,
            _ => 0.0,
        };
        let rates = simulating.iter().map(|(s, n)| rate(s, *n)).collect();
        vec![
            ("wall_s", wall, sums),
            ("sim_req_per_s", sim_req_per_s, rates),
            (
                "setup_s",
                stats::median(&self.setup_rounds),
                self.setup_rounds.clone(),
            ),
            ("peak_rss_mb", peak_rss_mb, vec![peak_rss_mb]),
        ]
    }

    /// Per-module metrics of a traced run.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let counts = self.passes.first().map_or(&[][..], |p| &p.counts[..]);
        layers::compute(&layers::Inputs {
            spans: self.spans(),
            counts,
            traced_walls: &self.walls(true),
            untraced_walls: &self.walls(false),
        })
    }
}

/// Call by call, the fastest time over `rounds`, which made the same calls
/// in the same order; summed over every call, and over the simulation
/// calls.
pub fn fastest_steps(rounds: &[&[Step]]) -> (f64, f64) {
    let Some(first) = rounds.first() else {
        return (0.0, 0.0);
    };
    let (mut all, mut sim) = (0.0, 0.0);
    for (i, step) in first.iter().enumerate() {
        let fastest = rounds
            .iter()
            .filter_map(|r| r.get(i))
            .map(|s| s.secs)
            .fold(f64::INFINITY, f64::min);
        all += fastest;
        if step.simulates {
            sim += fastest;
        }
    }
    (all, sim)
}

/// `requests` per host second of the simulation steps among `steps`.
fn rate(steps: &[Step], requests: u64) -> f64 {
    let secs: f64 = steps.iter().filter(|s| s.simulates).map(|s| s.secs).sum();
    if secs > 0.0 {
        requests as f64 / secs
    } else {
        0.0
    }
}

/// Runs `workload` under `budget`. With `trace`, every other pass keeps
/// its spans; the passes in between are the untraced reference for
/// `trace.overhead`. With `expected_digest`, the first pass's digest must
/// equal it. The workload's own checks run on the first pass; every later
/// pass must reproduce its digest, counts and calls, so they hold for it
/// too.
pub fn run<W: Workload>(
    workload: &W,
    name: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    expected_digest: Option<&str>,
) -> RunReport {
    let mut run = Run {
        workload,
        seed,
        trace,
        rec: Recorder::new(),
        setup_rounds: Vec::new(),
        simulating_setups: Vec::new(),
    };
    let started = Instant::now();
    let mut shared = None;
    if !W::CONSUMES_SETUP {
        for _ in 0..SHARED_SETUP_ROUNDS {
            // Drop the previous set-up before building the next one.
            drop(shared.take());
            shared = Some(run.set_up(0.0));
        }
    }
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut checks = Vec::new();
    loop {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        if passes.len() >= budget.min_passes.max(1)
            && started.elapsed().as_secs_f64() + stats::median(&walls) > budget.seconds
        {
            break;
        }
        let mut own = None;
        let setup = match shared.as_mut() {
            Some(s) => s,
            None => own.insert(run.set_up(SETUP_SECONDS_PER_PASS)),
        };
        let traced = trace && passes.len().is_multiple_of(2);
        run.rec.start(traced);
        let t = Instant::now();
        let (pass, artifact) = run
            .rec
            .call("bench", "pass", |rec| workload.pass(setup, rec));
        let wall_s = t.elapsed().as_secs_f64();
        if passes.is_empty() {
            checks.extend(workload.verify(setup, artifact));
        }
        passes.push(PassRecord {
            wall_s,
            traced,
            steps: run.rec.steps().to_vec(),
            simulated: run.rec.sim_requests(),
            digest: pass.digest.hex(),
            sim_requests: pass.sim_requests,
            counts: pass.counts,
        });
    }

    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        checks.push((
            format!(
                "pass {i} digest {} equals pass 0 digest {}",
                p.digest, first.digest
            ),
            p.digest == first.digest,
        ));
        checks.push((
            format!("pass {i} counts and calls equal pass 0's"),
            p.counts == first.counts
                && p.sim_requests == first.sim_requests
                && p.steps.len() == first.steps.len(),
        ));
    }
    if let Some(expected) = expected_digest {
        checks.push((
            format!(
                "digest {} equals the recorded digest {expected}",
                first.digest
            ),
            first.digest == expected,
        ));
    }
    RunReport {
        workload: name.to_string(),
        seed,
        setup_rounds: run.setup_rounds,
        simulating_setups: run.simulating_setups,
        passes,
        checks,
        recorder: run.rec,
    }
}

/// The state of a run in progress.
struct Run<'a, W> {
    workload: &'a W,
    seed: u64,
    trace: bool,
    rec: Recorder,
    setup_rounds: Vec<f64>,
    simulating_setups: Vec<(Vec<Step>, u64)>,
}

impl<W: Workload> Run<'_, W> {
    /// Set-up rounds, at least one and until `seconds` have gone by, each
    /// timed into `setup_s`; returns the last set-up.
    fn set_up(&mut self, seconds: f64) -> W::Setup {
        let t0 = Instant::now();
        let mut last = None;
        while last.is_none() || t0.elapsed().as_secs_f64() < seconds {
            // Drop the previous set-up before building the next one.
            drop(last.take());
            self.rec.start(self.trace);
            let t = Instant::now();
            let (workload, seed) = (self.workload, self.seed);
            last = Some(
                self.rec
                    .call("bench", "setup", |rec| workload.setup(seed, rec)),
            );
            self.setup_rounds.push(t.elapsed().as_secs_f64());
            if self.rec.sim_requests() > 0 {
                self.simulating_setups
                    .push((self.rec.steps().to_vec(), self.rec.sim_requests()));
            }
        }
        last.expect("at least one set-up round")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(secs: f64, simulates: bool) -> Step {
        Step { secs, simulates }
    }

    #[test]
    fn fastest_steps_takes_each_call_at_its_fastest() {
        // Interference slowed the first call of pass a and the second of
        // pass b: neither pass ran at 3.0 s, but every call did once.
        let a = [step(2.0, true), step(1.0, false)];
        let b = [step(1.0, true), step(2.5, false)];
        assert_eq!(fastest_steps(&[&a, &b]), (2.0, 1.0));
        assert_eq!(fastest_steps(&[&a]), (3.0, 2.0));
        assert_eq!(fastest_steps(&[]), (0.0, 0.0));
        assert_eq!(rate(&b, 500), 500.0);
        assert_eq!(rate(&[step(1.0, false)], 500), 0.0);
    }
}
