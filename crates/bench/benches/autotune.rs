//! Autotuner headline benchmark.
//!
//! Runs the full `exa-tune` pipeline — enumerate → cost-prune →
//! executed-confirm → persist — over the one knob whose best value
//! differs between configurations (`fft.overlap_k`), then proves the
//! result is **seed-pure**: the tuner runs twice and the two `TUNED.json`
//! renderings must be byte-identical, because winners are picked only by
//! the deterministic metric (virtual seconds from the machine model),
//! never by the measured wall clock.
//!
//! The winning table is persisted to `TUNED.json` at the repo root
//! (consulted by `Gests::frontier_target` at construction time); the gate
//! record lands in `BENCH_autotune.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use exa_bench::write_root_json;
use exa_fft::{Decomp, DistFft3d};
use exa_machine::MachineModel;
use exa_mpi::{Comm, Network};
use exa_tune::{ConfirmOutcome, KnobSpec, Probe, TuneReport, Tuner};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Provenance seed recorded into the table. The search draws no
/// randomness — the same seed (or any other) yields the same bytes.
const SEED: u64 = 0x0e5a_717e;
const MACHINE: &str = "frontier";

/// `fft.overlap_k` — communication/compute overlap chunks of the costed
/// paper-scale transform. Here the machine model itself is the
/// deterministic metric: the confirm run charges a full pencil transform
/// and reports its virtual seconds.
struct OverlapProbe {
    n: usize,
    ranks: usize,
}

impl OverlapProbe {
    fn virtual_secs(&self, v: i64) -> f64 {
        let frontier = MachineModel::frontier();
        let plan = DistFft3d::new(self.n, Decomp::Pencils).with_overlap(v.max(1) as usize);
        let mut comm = Comm::new(self.ranks, Network::from_machine(&frontier));
        plan.charge_transform(&mut comm, frontier.node.gpu()).secs()
    }
}

impl Probe for OverlapProbe {
    fn cost(&mut self, v: i64) -> f64 {
        self.virtual_secs(v)
    }
    fn confirm(&mut self, v: i64) -> ConfirmOutcome {
        let t0 = Instant::now();
        let det_units = self.virtual_secs(v);
        ConfirmOutcome {
            det_units,
            wall_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Run the full knob search.
fn run_tuner() -> TuneReport {
    let mut tuner = Tuner::new(SEED, MACHINE).confirm_reps(3);
    tuner.tune(
        &KnobSpec::new("fft.overlap_k", 4, &[2, 4, 8], 3),
        &mut OverlapProbe {
            n: 1024,
            ranks: 4096,
        },
    );
    tuner.finish()
}

#[derive(Serialize)]
struct Record {
    seed: u64,
    machine: String,
    knobs: BTreeMap<String, i64>,
    moved: Vec<String>,
    table_identical: bool,
    pass: bool,
}

fn bench_autotune(c: &mut Criterion) {
    // --- Tune twice. Winners come from deterministic metrics only, so
    // the tables must match bytewise.
    let (report_a, report) = (run_tuner(), run_tuner());
    let json = report.table.to_json();
    let table_identical = report_a.table.to_json() == json;
    assert!(
        table_identical,
        "TUNED.json must be a pure function of the seed"
    );

    for knob in &report.knobs {
        println!(
            "tuned {:>20}: frozen {:>4} -> winner {:>4}  ({} candidates, {} confirmed)",
            knob.key,
            knob.frozen,
            knob.winner,
            knob.costs.len(),
            knob.confirmed.len(),
        );
    }

    // --- Persist to the repo root, where `exa_tune::tuned()` finds it
    // for every binary launched from the workspace directory.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../TUNED.json");
    std::fs::write(&path, &json).expect("can write TUNED.json");
    println!("[wrote {}]", path.display());

    let winners: BTreeMap<String, i64> = report
        .knobs
        .iter()
        .map(|k| (k.key.clone(), k.winner))
        .collect();
    let moved: Vec<String> = report
        .knobs
        .iter()
        .filter(|k| k.winner != k.frozen)
        .map(|k| format!("{}: {} -> {}", k.key, k.frozen, k.winner))
        .collect();
    println!("moved knobs: {moved:?}");

    // Criterion display bench: the whole search must stay cheap to run.
    let mut g = c.benchmark_group("autotune/search");
    g.sample_size(3);
    g.bench_function("overlap_k", |b| b.iter(|| black_box(run_tuner())));
    g.finish();

    write_root_json(
        "BENCH_autotune",
        &Record {
            seed: SEED,
            machine: MACHINE.to_string(),
            knobs: winners,
            moved,
            table_identical,
            pass: table_identical,
        },
    );
}

criterion_group!(benches, bench_autotune);
criterion_main!(benches);
