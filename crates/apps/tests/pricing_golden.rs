//! Bit-level golden for the cost-model pricing paths.
//!
//! One FNV-1a digest covers the (`fom_value`, `wall_s`, `spans`) bits of
//! 240 cold `evaluate_query` answers — the eight Table-2 apps × {Frontier,
//! Summit} × {0, 16, 128, 1024, 4096} nodes × three `comm` stretch
//! factors — and the `CommStats`, elapsed time and worst wait of five
//! priced GESTS steps: the 32,768-rank Frontier target, the 27,648-rank
//! Summit reference, overlapped 512³ slab and pencil steps, and the
//! Frontier target on a contended, jittered fabric.
//!
//! `GOLDEN` was recorded at commit 77805aa, where every communicator still
//! walked one clock per rank on every operation. It pins that lockstep
//! clocks, closed-form transpose sums and the single GESTS pricing changed
//! no output bit.

use exa_apps::gests::{Gests, PsdnsRun};
use exa_apps::query::evaluate_query;
use exa_apps::table2_applications;
use exa_core::NetworkScenario;
use exa_fft::Decomp;
use exa_machine::MachineModel;
use exa_mpi::Comm;

const GOLDEN: u64 = 0x4f72_228a_81dc_8a34;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn comm_words(c: &Comm) -> [u64; 9] {
    let s = c.stats();
    [
        s.messages,
        s.bytes,
        s.collectives,
        s.wait.secs().to_bits(),
        s.nonblocking,
        s.inflight.secs().to_bits(),
        s.hidden.secs().to_bits(),
        c.elapsed().secs().to_bits(),
        c.max_wait().secs().to_bits(),
    ]
}

#[test]
fn cost_model_answers_and_priced_gests_steps_match_the_golden_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut answers = 0;
    for app in table2_applications() {
        for machine in ["Frontier", "Summit"] {
            for nodes in [0u32, 16, 128, 1024, 4096] {
                for factor in [1.0, 1.37, 2.5] {
                    let knobs = [("comm".to_string(), factor)];
                    let a = evaluate_query(app.name(), machine, nodes, &knobs, "")
                        .expect("known app and machine");
                    fnv(&mut h, a.fom_value.to_bits());
                    fnv(&mut h, a.wall_s.to_bits());
                    fnv(&mut h, a.spans);
                    answers += 1;
                }
            }
        }
    }
    assert_eq!(answers, 240);

    let frontier = MachineModel::frontier();
    let contended = NetworkScenario {
        alpha_factor: 1.5,
        beta_factor: 2.0,
        jitter_amp: 0.2,
        jitter_seed: 7,
    };
    let steps = [
        (Gests::frontier_target(), frontier.clone()),
        (Gests::summit_reference(), MachineModel::summit()),
        (
            PsdnsRun::new(512, 64, Decomp::Slabs).with_overlap(4),
            frontier.clone(),
        ),
        (
            PsdnsRun::new(512, 64, Decomp::Pencils).with_overlap(4),
            frontier.clone(),
        ),
        (
            Gests::frontier_target().with_network_scenario(contended),
            frontier,
        ),
    ];
    for (run, machine) in &steps {
        for w in comm_words(&run.step_comm(machine, None, &[])) {
            fnv(&mut h, w);
        }
    }
    assert_eq!(h, GOLDEN, "pricing digest moved: {h:#018x}");
}
