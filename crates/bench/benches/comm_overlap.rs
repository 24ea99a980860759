//! Communication–computation overlap headline benchmark (ISSUE PR 5
//! acceptance gate).
//!
//! Drives the GESTS transpose-heavy transform in two schedules over the
//! same α–β network and the same FFT mathematics:
//!
//! * **blocking** — every transpose all-to-all fully exposed (the BSP
//!   schedule the 2019 CUDA code ran);
//! * **overlapped** — `Overlap::pipeline` chunks each transpose and flies
//!   it behind the neighbouring FFT stages.
//!
//! The headline configuration is deliberately *comm-bound*: one rank per
//! node puts the full node NIC bandwidth behind each rank, which puts the
//! transpose and the local FFT stages in the same time class — exactly
//! where hiding one behind the other pays most. A chunk-count sweep and
//! the paper-scale (N = 32,768³, 32,768-rank) FOM delta ride along.
//! Results land in `BENCH_comm_overlap.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use exa_apps::gests::Gests;
use exa_bench::write_root_json;
use exa_fft::{Decomp, DistFft3d};
use exa_machine::{GpuModel, MachineModel, SimTime};
use exa_mpi::{Comm, Network};
use serde::Serialize;
use std::hint::black_box;

/// Comm-bound configuration: 2048³ grid over 256 slab ranks, one rank per
/// node (full 4-NIC injection bandwidth per rank).
const N: usize = 2048;
const RANKS: usize = 256;
const CHUNK_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SPEEDUP_REQUIRED: f64 = 1.3;

fn comm_bound_comm() -> Comm {
    let net = Network::from_machine(&MachineModel::frontier()).with_ranks_per_node(1);
    Comm::new(RANKS, net)
}

#[derive(Serialize)]
struct ChunkPoint {
    chunks: usize,
    sim_s: f64,
    speedup: f64,
    overlap_efficiency: f64,
}

#[derive(Serialize)]
struct PaperScale {
    n: usize,
    ranks: usize,
    fom_blocking: f64,
    fom_overlapped: f64,
    fom_gain: f64,
}

#[derive(Serialize)]
struct Record {
    config: String,
    blocking_sim_s: f64,
    overlapped_sim_s: f64,
    speedup: f64,
    speedup_required: f64,
    overlap_efficiency: f64,
    best_chunks: usize,
    chunk_sweep: Vec<ChunkPoint>,
    paper_scale: PaperScale,
    pass: bool,
}

fn bench_comm_overlap(c: &mut Criterion) {
    let gpu = GpuModel::mi250x_gcd();
    let blocking_plan = DistFft3d::new(N, Decomp::Slabs);

    let mut cb = comm_bound_comm();
    let t_blocking = blocking_plan.charge_transform(&mut cb, &gpu);

    let mut sweep = Vec::new();
    let mut best: Option<(usize, SimTime, f64)> = None;
    for k in CHUNK_SWEEP {
        let mut co = comm_bound_comm();
        let t = blocking_plan
            .clone()
            .with_overlap(k)
            .charge_transform(&mut co, &gpu);
        let eff = co.stats().overlap_efficiency();
        sweep.push(ChunkPoint {
            chunks: k,
            sim_s: t.secs(),
            speedup: t_blocking / t,
            overlap_efficiency: eff,
        });
        if best.is_none_or(|(_, tb, _)| t < tb) {
            best = Some((k, t, eff));
        }
    }
    let (best_chunks, t_overlapped, overlap_efficiency) = best.unwrap();
    let speedup = t_blocking / t_overlapped;

    // Criterion display benches: the simulator itself must stay cheap to
    // drive in both schedules.
    let mut g = c.benchmark_group("comm_overlap/transform_2048c_256r");
    g.bench_function("blocking_charge", |b| {
        b.iter(|| {
            let mut cm = comm_bound_comm();
            black_box(blocking_plan.charge_transform(&mut cm, &gpu));
        })
    });
    let overlapped_plan = blocking_plan.clone().with_overlap(best_chunks);
    g.bench_function("overlapped_charge", |b| {
        b.iter(|| {
            let mut cm = comm_bound_comm();
            black_box(overlapped_plan.charge_transform(&mut cm, &gpu));
        })
    });
    g.finish();

    // Paper scale: the production Frontier target (overlap on) against the
    // same configuration with the knob off.
    let frontier = MachineModel::frontier();
    let target = Gests::frontier_target();
    let mut plain = target.clone();
    plain.overlap_chunks = None;
    let fom_overlapped = target.fom(&frontier);
    let fom_blocking = plain.fom(&frontier);
    let paper_scale = PaperScale {
        n: target.n,
        ranks: target.ranks,
        fom_blocking,
        fom_overlapped,
        fom_gain: fom_overlapped / fom_blocking,
    };

    let record = Record {
        config: format!("N={N} p={RANKS} Slabs 1 rank/node (comm-bound)"),
        blocking_sim_s: t_blocking.secs(),
        overlapped_sim_s: t_overlapped.secs(),
        speedup,
        speedup_required: SPEEDUP_REQUIRED,
        overlap_efficiency,
        best_chunks,
        chunk_sweep: sweep,
        paper_scale,
        pass: speedup >= SPEEDUP_REQUIRED && overlap_efficiency > 0.0 && overlap_efficiency <= 1.0,
    };
    println!(
        "\ncomm overlap: blocking {:.3} ms, overlapped {:.3} ms (K={}), speedup {:.2}x, \
         efficiency {:.2}, paper-scale FOM gain {:.3}x",
        record.blocking_sim_s * 1e3,
        record.overlapped_sim_s * 1e3,
        best_chunks,
        speedup,
        overlap_efficiency,
        record.paper_scale.fom_gain,
    );
    write_root_json("BENCH_comm_overlap", &record);
    assert!(
        record.pass,
        "overlapped transform must be >={SPEEDUP_REQUIRED}x on the comm-bound config: {speedup:.2}x"
    );
}

criterion_group!(benches, bench_comm_overlap);
criterion_main!(benches);
