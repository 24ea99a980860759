//! `dns_window`: the executed GESTS step window — forward transform,
//! spectral advance, inverse transform — on a seeded 128³ field over 1024
//! ranks, one window per step, each from the seeded field.

use crate::gen;
use crate::harness::{probe, sched_phase_s, setup, timed, Ctx, Report, Steps, PROBE_REPS};
use crate::stats::{median, Tally};
use exa_apps::gests_exec::{dns_step_window, DnsStep};
use exa_fft::fft1d::{fft_batch, fft_flops, ifft_batch};
use exa_fft::{fft3d, DistGrid, ExecutedFft3d, C64};
use exa_machine::{GpuModel, MachineModel};
use exa_mpi::{Comm, CommStats, Network, RankScheduler};
use exa_telemetry::TelemetryCollector;
use std::hint::black_box;

const N: usize = 128;
const RANKS: usize = 1024;
const MIN_STEPS: usize = 20;
/// Reps of the forward / inverse / window split: the advance is a small
/// difference of large walls, so it takes more reps than other probes.
const SPLIT_REPS: usize = 9;

fn cfg() -> DnsStep {
    DnsStep {
        n: N,
        ranks: RANKS,
        ..DnsStep::step_1024()
    }
}

/// What one window leaves behind; every window of a run must match.
#[derive(Debug, Clone, PartialEq)]
struct Window {
    digest: u64,
    virtual_bits: u64,
    energy: f64,
    stats: CommStats,
}

/// The workload's inputs, plan and communicator.
struct Setup {
    field: Vec<C64>,
    plan: ExecutedFft3d,
    comm: Comm,
    gpu: GpuModel,
}

/// Hash of the exact bits of the grid, read rank by rank. After a window
/// the grid is back in its initial layout, where rank order is canonical
/// order.
fn digest(grid: &mut DistGrid) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in grid.parts_mut().iter() {
        for z in part {
            for bits in [z.re.to_bits(), z.im.to_bits()] {
                h = (h ^ bits).wrapping_mul(0x100_0000_01b3).rotate_left(5);
            }
        }
    }
    h
}

fn energy<'a>(values: impl Iterator<Item = &'a C64>) -> f64 {
    values.map(|z| z.norm_sqr()).sum()
}

/// One window on `sched`, from a fresh distribution of the field; the
/// redistribution is outside `time`.
fn window(s: &mut Setup, sched: &RankScheduler, time: impl FnOnce(&mut dyn FnMut())) -> Window {
    let mut grid = DistGrid::from_global(N, RANKS, &s.field);
    s.comm.reset();
    let mut vt = None;
    time(&mut || {
        vt = Some(dns_step_window(
            sched,
            &mut s.comm,
            &s.gpu,
            &s.plan,
            &cfg(),
            &mut grid,
        ))
    });
    let vt = vt.expect("the window ran");
    Window {
        digest: digest(&mut grid),
        virtual_bits: vt.secs().to_bits(),
        energy: energy(grid.parts_mut().iter().flatten()),
        stats: s.comm.stats(),
    }
}

/// Set-up: inputs, plan, communicator and scheduler, then one window as
/// pre-fill, so pool threads, twiddle tables and grid buffers exist
/// before timing. Every timed window must reproduce the pre-fill window.
fn build(ctx: &Ctx) -> (Setup, RankScheduler, Window) {
    let machine = MachineModel::frontier();
    let sched = RankScheduler::with_threads(ctx.threads);
    let mut s = Setup {
        field: gen::dns_field(N, ctx.seed),
        plan: ExecutedFft3d::tuned(N),
        comm: Comm::new(RANKS, Network::from_machine(&machine)),
        gpu: machine.node.gpu().clone(),
    };
    let first = window(&mut s, &sched, |f| f());
    (s, sched, first)
}

/// The executed forward transform must equal the in-memory `fft3d` of
/// the same field bit for bit.
fn forward_matches_fft3d(s: &mut Setup, sched: &RankScheduler) -> bool {
    let mut grid = DistGrid::from_global(N, RANKS, &s.field);
    s.comm.reset();
    s.plan.forward(sched, &mut s.comm, &s.gpu, &mut grid);
    let got = grid.gather_global();
    let mut want = s.field.clone();
    fft3d(&mut want, N, N, N);
    got.iter()
        .zip(&want)
        .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
}

pub fn run(ctx: &mut Ctx) -> Report {
    let ((mut s, sched, first), setup_s) = setup(|| build(ctx));
    let mut tally = Tally::default();
    tally.record(forward_matches_fft3d(&mut s, &sched));
    // Viscosity must dissipate energy.
    let decays = first.energy < energy(s.field.iter());

    let mut steps = Steps::new(ctx, MIN_STEPS);
    let items = (N * N * N) as f64;
    while steps.more() {
        ctx.spans.set_on(steps.next_traced());
        let step = ctx.spans.begin(crate::spans::STEP, None);
        let w = window(&mut s, &sched, |f| {
            let id = ctx.spans.begin("gests.dns_step_window", step);
            steps.time(items, f);
            ctx.spans.end(id);
        });
        ctx.spans.end(step);
        tally.record(decays && w == first);
    }
    ctx.spans.set_on(false);

    let mut notes = vec![
        ("grid", format!("{N}^3 over {RANKS} ranks")),
        ("virtual_s", f64::from_bits(first.virtual_bits).to_string()),
    ];
    let layers = if ctx.trace {
        layers(ctx, &mut s, &sched, &first, &steps, &mut tally, &mut notes)
    } else {
        Vec::new()
    };
    Report {
        setup_s,
        steps,
        tally,
        layers,
        notes,
    }
}

fn layers(
    ctx: &mut Ctx,
    s: &mut Setup,
    sched: &RankScheduler,
    first: &Window,
    steps: &Steps,
    tally: &mut Tally,
    notes: &mut Vec<(&'static str, String)>,
) -> Vec<(&'static str, f64)> {
    let fresh = |s: &mut Setup| {
        s.comm.reset();
        DistGrid::from_global(N, RANKS, &s.field)
    };
    // Forward and inverse on a fresh grid, then a whole window, rep by
    // rep: the advance is the window less its two transforms, taken as a
    // difference of walls measured moments apart.
    let (mut fwd, mut inv, mut advance) = (Vec::new(), Vec::new(), Vec::new());
    ctx.spans.set_on(true);
    for _ in 0..SPLIT_REPS {
        let mut g = fresh(s);
        let id = ctx.spans.begin("fft.forward", None);
        let f = timed(|| s.plan.forward(sched, &mut s.comm, &s.gpu, &mut g)).1;
        ctx.spans.end(id);
        let id = ctx.spans.begin("fft.inverse", None);
        let i = timed(|| s.plan.inverse(sched, &mut s.comm, &s.gpu, &mut g)).1;
        ctx.spans.end(id);
        let mut w = 0.0;
        tally.record(window(s, sched, |run| w = timed(run).1) == *first);
        fwd.push(f);
        inv.push(i);
        advance.push(w - f - i);
    }
    ctx.spans.set_on(false);
    let hop_s = probe(ctx, "fft.transpose_cycle", PROBE_REPS, || {
        let mut g = fresh(s);
        timed(|| s.plan.transpose_cycle(sched, &mut s.comm, &mut g)).1
    }) / 4.0;
    // The 6 × N² line transforms of one window, on this thread alone, in
    // the plan's tuned line batches.
    let batch = exa_tune::knob("fft.line_batch", 1).max(1) * N;
    let mut lines = s.field.clone();
    let lines_s = probe(ctx, "fft.lines", PROBE_REPS, || {
        timed(|| {
            for _ in 0..3 {
                lines.chunks_mut(batch).for_each(|c| fft_batch(c, N));
            }
            for _ in 0..3 {
                lines.chunks_mut(batch).for_each(|c| ifft_batch(c, N));
            }
            black_box(&lines);
        })
        .1
    });
    let line_flops = 6.0 * (N * N) as f64 * fft_flops(N);
    let phase_s = sched_phase_s(ctx, sched, &mut s.comm);

    // Phases one window fans out, from the scheduler's own observer.
    let mut observed = RankScheduler::with_threads(ctx.threads);
    observed.attach_observer(&TelemetryCollector::shared(), "perfbench");
    let w = window(s, &observed, |f| f());
    tally.record(w == *first);
    let phases = observed.land_observer().expect("observer attached").phases;

    // The same window on one lane: the single-threaded baseline.
    let seq = RankScheduler::with_threads(1);
    let seq_s = probe(ctx, "baseline.window_1thread", 3, || {
        let mut wall = 0.0;
        let w = window(s, &seq, |f| wall = timed(f).1);
        tally.record(w == *first);
        wall
    });
    let window_p50 = median(&steps.walls);
    notes.push(("baseline_1thread_s", seq_s.to_string()));
    notes.push((
        "transpose_bytes",
        "computed 2 x 16 B x N^3 per hop, cache-resident".into(),
    ));

    let hop_bytes = 2.0 * 16.0 * (N * N * N) as f64;
    let st = first.stats;
    vec![
        ("fft.lines_s", lines_s),
        ("fft.lines_gflops", line_flops / lines_s / 1e9),
        ("fft.forward_s", median(&fwd)),
        ("fft.inverse_s", median(&inv)),
        ("fft.transpose_s", hop_s),
        ("fft.transpose_gbs", hop_bytes / hop_s / 1e9),
        ("gests.advance_s", median(&advance)),
        ("mpi.sched.phase_s", phase_s),
        ("mpi.sched.phases_per_step", phases as f64),
        ("mpi.comm.bytes_per_step", st.bytes as f64),
        ("mpi.comm.msgs_per_step", st.messages as f64),
        ("mpi.comm.collectives_per_step", st.collectives as f64),
        ("model.virtual_s", f64::from_bits(first.virtual_bits)),
        (
            "fft.parallel_eff",
            seq_s / (window_p50 * ctx.threads as f64),
        ),
    ]
}
