//! Host-time spans around the benchmark's calls into the program.
//!
//! Every span is recorded here, in the benchmark's own code, around a call
//! into one of the repository's crates; nothing inside the program is
//! instrumented. Every call a round (a set-up or a pass) makes directly is
//! timed as a [`Step`], traced or not: the end-to-end metrics are built
//! from those. With tracing on every call is also kept as a span and
//! written out at exit.

use std::time::Instant;

use microsim::Simulation;
use serde::Serialize;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The crate the call went into (`microsim`, `grunt`, ...), or `bench`
    /// for the benchmark's own pass and set-up spans.
    pub module: &'static str,
    /// The call (`run_until`, `profile`, `summary`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// See [`Span::start_ns`].
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The round (a set-up or a pass) the span belongs to.
    pub round: u32,
    /// Simulated requests completed during the call, or records the query
    /// matched.
    pub count: u64,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Host time of one call a round made directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Host seconds the call took.
    pub secs: f64,
    /// Whether the call advanced a simulation.
    pub simulates: bool,
}

/// Records spans and the simulation totals one pass needs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    keep: bool,
    round: u32,
    depth: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
    steps: Vec<Step>,
    sim_requests: u64,
    pending_max: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder; [`Recorder::start`] says whether it keeps spans.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            keep: false,
            round: 0,
            depth: 0,
            open: Vec::new(),
            spans: Vec::new(),
            steps: Vec::new(),
            sim_requests: 0,
            pending_max: 0,
        }
    }

    /// Starts the next round (a set-up or a pass), keeping its spans if
    /// `keep`, and clears the round's steps and simulation totals. The
    /// round is one call (`bench.setup` or `bench.pass`); the calls it makes
    /// are its steps.
    pub fn start(&mut self, keep: bool) {
        self.round += 1;
        self.keep = keep;
        self.steps.clear();
        self.sim_requests = 0;
        self.pending_max = 0;
    }

    /// The steps of the round since [`Recorder::start`], in call order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Simulated requests completed by simulation calls since
    /// [`Recorder::start`].
    pub fn sim_requests(&self) -> u64 {
        self.sim_requests
    }

    /// The most events pending on a simulation's wheel after any
    /// simulation call since [`Recorder::start`].
    pub fn pending_max(&self) -> usize {
        self.pending_max
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span of `module`/`name` (kept only when tracing),
    /// timed as a step when the round's own call makes it.
    pub fn call<R>(
        &mut self,
        module: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let index = self.keep.then(|| {
            self.spans.push(Span {
                module,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                round: self.round,
                count: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let depth = self.depth;
        self.depth += 1;
        let started = Instant::now();
        let out = f(self);
        let secs = started.elapsed().as_secs_f64();
        self.depth = depth;
        if let Some(index) = index {
            self.open.pop();
            self.spans[index].end_ns = self.now_ns();
        }
        if depth == 1 {
            self.steps.push(Step {
                secs,
                simulates: false,
            });
        }
        out
    }

    /// [`Recorder::call`] for a query, recording how many records it
    /// matched.
    pub fn query<R>(
        &mut self,
        module: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
        matched: impl FnOnce(&R) -> u64,
    ) -> R {
        let out = self.call(module, name, |_| f());
        if self.keep {
            if let Some(last) = self.spans.last_mut() {
                last.count = matched(&out);
            }
        }
        out
    }

    /// [`Recorder::call`] for a call that advances `sim`: its step counts
    /// as simulation, the requests it completed feed `sim_req_per_s`, and
    /// the events it leaves pending feed [`Recorder::pending_max`].
    pub fn simulate<R>(
        &mut self,
        sim: &mut Simulation,
        module: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Simulation) -> R,
    ) -> R {
        let before = sim.metrics().request_log().len() as u64;
        let out = self.call(module, name, |_| f(sim));
        if self.depth == 1 {
            if let Some(step) = self.steps.last_mut() {
                step.simulates = true;
            }
        }
        let requests = sim.metrics().request_log().len() as u64 - before;
        self.sim_requests += requests;
        self.pending_max = self.pending_max.max(sim.pending_events());
        if self.keep {
            if let Some(last) = self.spans.last_mut() {
                last.count = requests;
            }
        }
        out
    }

    /// The kept spans as Chrome trace-event JSON, which Perfetto and
    /// `chrome://tracing` open. Nested calls share one track, so the
    /// viewer draws each call under the span that made it.
    ///
    /// # Errors
    ///
    /// Fails only on a non-finite timestamp, which JSON cannot hold.
    pub fn chrome_trace(&self, workload: &str) -> Result<String, String> {
        let trace = ChromeTrace {
            traceEvents: self
                .spans
                .iter()
                .map(|s| TraceEvent {
                    name: format!("{}.{}", s.module, s.name),
                    cat: s.module,
                    ph: "X",
                    pid: 1,
                    tid: 1,
                    ts: s.start_ns as f64 / 1e3,
                    dur: (s.end_ns - s.start_ns) as f64 / 1e3,
                    args: TraceArgs {
                        round: s.round,
                        count: s.count,
                        parent: s.parent,
                    },
                })
                .collect(),
            displayTimeUnit: "ms",
            otherData: TraceMeta {
                benchmark: "grunt_bench",
                workload: workload.to_string(),
            },
        };
        serde_json::to_string(&trace).map_err(|e| format!("writing the trace: {e}"))
    }
}

/// The Chrome trace-event file: its JSON object format.
#[derive(Debug, Serialize)]
#[allow(non_snake_case)] // the format's key names
struct ChromeTrace {
    traceEvents: Vec<TraceEvent>,
    displayTimeUnit: &'static str,
    otherData: TraceMeta,
}

/// A complete (`"X"`) event: one span.
#[derive(Debug, Serialize)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u32,
    /// Start, µs.
    ts: f64,
    /// Duration, µs.
    dur: f64,
    args: TraceArgs,
}

#[derive(Debug, Serialize)]
struct TraceArgs {
    round: u32,
    count: u64,
    parent: Option<usize>,
}

#[derive(Debug, Serialize)]
struct TraceMeta {
    benchmark: &'static str,
    workload: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_record_parents_rounds_and_counts() {
        let mut rec = Recorder::new();
        rec.start(true);
        rec.start(true);
        rec.call("bench", "pass", |rec| {
            rec.call("telemetry", "summary", |_| std::hint::black_box(1 + 1));
            rec.query("defense", "ids", || 7u64, |n| *n);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].count, 7);
        assert!(spans.iter().all(|s| s.round == 2 && s.end_ns >= s.start_ns));
        #[derive(serde::Deserialize)]
        #[allow(non_snake_case)]
        struct Parsed {
            traceEvents: Vec<Event>,
        }
        #[derive(serde::Deserialize)]
        struct Event {
            name: String,
            dur: f64,
        }
        let text = rec.chrome_trace("t").expect("finite times");
        let trace: Parsed = serde_json::from_str(&text).expect("valid JSON");
        let names: Vec<&str> = trace.traceEvents.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["bench.pass", "telemetry.summary", "defense.ids"]);
        assert!(trace.traceEvents.iter().all(|e| e.dur >= 0.0));
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let mut rec = Recorder::new();
        rec.start(false);
        let v = rec.call("bench", "pass", |rec| rec.call("x", "y", |_| 5));
        assert_eq!(v, 5);
        assert!(rec.spans().is_empty());
    }
}
