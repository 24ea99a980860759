//! The closed-loop step timer and the report every workload returns.

use crate::host::cpu_seconds;
use crate::spans::Spans;
use crate::stats::{median, Tally};
use exa_mpi::{Comm, RankScheduler};
use std::time::Instant;

/// Run-wide settings and the traced run's span recorder.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Lanes of every pool the workload builds (= `EXA_THREADS` = nproc).
    pub threads: usize,
    pub spans: Spans,
}

/// Times the steps of one closed loop: one caller, each step issued after
/// the previous one returned.
pub struct Steps {
    start: Instant,
    seconds: f64,
    min_steps: usize,
    trace: bool,
    pub walls: Vec<f64>,
    items: Vec<f64>,
    traced: Vec<bool>,
    /// Process CPU seconds spent inside timed steps.
    pub cpu_s: f64,
}

impl Steps {
    /// A loop that runs for `ctx.seconds` of wall and at least
    /// `min_steps` steps.
    pub fn new(ctx: &Ctx, min_steps: usize) -> Self {
        Steps {
            start: Instant::now(),
            seconds: ctx.seconds,
            min_steps,
            trace: ctx.trace,
            walls: Vec::new(),
            items: Vec::new(),
            traced: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// True while the loop should issue another step.
    pub fn more(&self) -> bool {
        self.walls.len() < self.min_steps || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Whether the next step records spans. In a traced run, odd steps
    /// are traced and even steps are not, so one process measures the
    /// tracing overhead against interleaved untraced steps.
    pub fn next_traced(&self) -> bool {
        self.trace && self.walls.len() % 2 == 1
    }

    /// Time one step of `items` units of work.
    pub fn time<R>(&mut self, items: f64, f: impl FnOnce() -> R) -> R {
        let traced = self.next_traced();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        self.cpu_s += cpu_seconds() - cpu0;
        self.walls.push(wall);
        self.items.push(items);
        self.traced.push(traced);
        r
    }

    /// Timed work ÷ timed wall over the steps `pick` selects.
    fn throughput_where(&self, pick: impl Fn(bool) -> bool) -> f64 {
        let (mut items, mut wall) = (0.0, 0.0);
        for i in 0..self.walls.len() {
            if pick(self.traced[i]) {
                items += self.items[i];
                wall += self.walls[i];
            }
        }
        items / wall
    }

    pub fn throughput(&self) -> f64 {
        self.throughput_where(|_| true)
    }

    /// `(untraced − traced) ÷ untraced` throughput of the interleaved
    /// halves of a traced run.
    pub fn trace_overhead(&self) -> f64 {
        let plain = self.throughput_where(|t| !t);
        (plain - self.throughput_where(|t| t)) / plain
    }

    pub fn timed_wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// What a workload hands back to `main` for reporting.
pub struct Report {
    /// Wall of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    pub steps: Steps,
    pub tally: Tally,
    /// Per-layer metrics the workload measured (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Extra facts for the run record.
    pub notes: Vec<(&'static str, String)>,
}

/// Time `f` once, returning its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Repetitions of every workload's set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Run `build` [`SETUP_REPS`] times, keeping the last result.
pub fn setup<S>(mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (s, wall) = timed(&mut build);
        walls.push(wall);
        last = Some(s);
    }
    (last.expect("at least one set-up"), walls)
}

/// Repetitions of each traced layer probe.
pub const PROBE_REPS: usize = 5;

/// Run a layer probe `reps` times, each under a span named `name`; `f`
/// returns the wall it measured. Returns the median.
pub fn probe(ctx: &mut Ctx, name: &'static str, reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    ctx.spans.set_on(true);
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let id = ctx.spans.begin(name, None);
            let wall = f();
            ctx.spans.end(id);
            wall
        })
        .collect();
    ctx.spans.set_on(false);
    median(&walls)
}

/// Median wall of one empty compute phase over `comm`'s ranks: the
/// scheduler's own fan-out and merge cost.
pub fn sched_phase_s(ctx: &mut Ctx, sched: &RankScheduler, comm: &mut Comm) -> f64 {
    let mut states = vec![(); comm.size()];
    probe(ctx, "mpi.sched.compute_phase", 200, || {
        timed(|| sched.compute_phase(comm, &mut states, |_, _| {})).1
    })
}
