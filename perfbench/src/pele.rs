//! `pele_chem`: the executed Pele chemistry campaign with the fused
//! BDF1/Newton kernel, one campaign per step. The API fixes the initial
//! state as a function of (rank, cell), so the seed only reaches the
//! traced kernel probe.

use crate::gen;
use crate::harness::{probe, sched_phase_s, setup, timed, Ctx, Report, Steps, PROBE_REPS};
use crate::stats::{median, Tally};
use exa_apps::pele::Mechanism;
use exa_apps::pele_exec::{
    bdf1_step_fused, chemistry_campaign, chemistry_campaign_observed, ChemCampaign,
    ChemCampaignResult, ChemKernel,
};
use exa_machine::MachineModel;
use exa_mpi::{Comm, Network, RankScheduler};
use exa_telemetry::TelemetryCollector;
use std::hint::black_box;

const CAMPAIGN: ChemCampaign = ChemCampaign {
    ranks: 256,
    cells_per_rank: 192,
    substeps: 3,
    dt: 1.5,
};
const MIN_STEPS: usize = 20;
const KERNEL: ChemKernel = ChemKernel::FusedLu;
/// Cells of the traced kernel probe.
const PROBE_CELLS: usize = 4096;

fn cell_substeps() -> f64 {
    (CAMPAIGN.ranks * CAMPAIGN.cells_per_rank * CAMPAIGN.substeps) as f64
}

/// The campaign outputs that must repeat exactly, bit for bit.
fn same(a: &ChemCampaignResult, b: &ChemCampaignResult) -> bool {
    a.checksum.to_bits() == b.checksum.to_bits()
        && a.temp_sum.to_bits() == b.temp_sum.to_bits()
        && a.newton_total == b.newton_total
        && a.elapsed.secs().to_bits() == b.elapsed.secs().to_bits()
}

pub fn run(ctx: &mut Ctx) -> Report {
    // Set-up builds the scheduler and runs one campaign as pre-fill.
    let ((sched, first), setup_s) = setup(|| {
        let sched = RankScheduler::with_threads(ctx.threads);
        let first = chemistry_campaign(&sched, KERNEL, &CAMPAIGN);
        (sched, first)
    });
    let mut tally = Tally::default();
    let (reference, seq_s) =
        timed(|| chemistry_campaign(&RankScheduler::with_threads(1), KERNEL, &CAMPAIGN));
    tally.record(same(&first, &reference));

    let mut steps = Steps::new(ctx, MIN_STEPS);
    while steps.more() {
        ctx.spans.set_on(steps.next_traced());
        let step = ctx.spans.begin(crate::spans::STEP, None);
        let id = ctx.spans.begin("pele.chemistry_campaign", step);
        let r = steps.time(cell_substeps(), || {
            chemistry_campaign(&sched, KERNEL, &CAMPAIGN)
        });
        ctx.spans.end(id);
        ctx.spans.end(step);
        tally.record(same(&r, &reference));
    }
    ctx.spans.set_on(false);

    let notes = vec![
        ("campaign", format!("{CAMPAIGN:?}")),
        ("newton_total", reference.newton_total.to_string()),
        (
            "seed_scope",
            "initial state fixed by (rank, cell); seed drives the kernel probe only".into(),
        ),
        ("baseline_1thread_s", seq_s.to_string()),
    ];
    let layers = if ctx.trace {
        layers(ctx, &sched, &reference, seq_s, &steps, &mut tally)
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
    sched: &RankScheduler,
    reference: &ChemCampaignResult,
    seq_s: f64,
    steps: &Steps,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    // The fused kernel alone, on seeded cells in the campaign's regime.
    let mech = Mechanism::ignition();
    let cells = gen::pele_cells(PROBE_CELLS, ctx.seed);
    let calls = (PROBE_CELLS * CAMPAIGN.substeps) as f64;
    let bdf1_s = probe(ctx, "pele.bdf1_step_fused", PROBE_REPS, || {
        timed(|| {
            for cell in &cells {
                let mut u = *cell;
                for _ in 0..CAMPAIGN.substeps {
                    u = bdf1_step_fused(&mech, black_box(&u), CAMPAIGN.dt).0;
                }
                black_box(u);
            }
        })
        .1
    });

    // Telemetry serialisation on a collector one campaign filled; the
    // same collector's counters give the campaign's traffic.
    let collector = TelemetryCollector::shared();
    let r = chemistry_campaign_observed(sched, KERNEL, &CAMPAIGN, &collector);
    tally.record(same(&r, reference));
    let snap_s = probe(ctx, "telemetry.snapshot_to_json", PROBE_REPS, || {
        timed(|| black_box(collector.snapshot().to_json().len())).1
    });
    let trace_s = probe(ctx, "telemetry.chrome_trace", PROBE_REPS, || {
        timed(|| black_box(collector.chrome_trace().len())).1
    });
    let snap = collector.snapshot();

    let mut comm = Comm::new(
        CAMPAIGN.ranks,
        Network::from_machine(&MachineModel::frontier()),
    );
    let phase_s = sched_phase_s(ctx, sched, &mut comm);
    let mut observed = RankScheduler::with_threads(ctx.threads);
    observed.attach_observer(&TelemetryCollector::shared(), "perfbench");
    tally.record(same(
        &chemistry_campaign(&observed, KERNEL, &CAMPAIGN),
        reference,
    ));
    let phases = observed.land_observer().expect("observer attached").phases;

    let step_p50 = median(&steps.walls);
    vec![
        ("mpi.sched.phase_s", phase_s),
        ("mpi.sched.phases_per_step", phases as f64),
        ("mpi.comm.bytes_per_step", snap.counter("mpi.bytes") as f64),
        (
            "mpi.comm.msgs_per_step",
            snap.counter("mpi.messages") as f64,
        ),
        (
            "mpi.comm.collectives_per_step",
            snap.counter("mpi.collectives") as f64,
        ),
        ("model.virtual_s", reference.elapsed.secs()),
        ("pele.parallel_eff", seq_s / (step_p50 * ctx.threads as f64)),
        ("pele.bdf1_us", bdf1_s / calls * 1e6),
        (
            "pele.newton_per_cell_step",
            reference.newton_total as f64 / cell_substeps(),
        ),
        ("telemetry.snapshot_s", snap_s),
        ("telemetry.trace_s", trace_s),
        ("telemetry.spans", snap.spans_total as f64),
    ]
}
