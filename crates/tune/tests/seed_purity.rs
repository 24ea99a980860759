//! Seed-purity property (ISSUE-10 satellite): the persisted knob table
//! is a pure function of the tuner's deterministic inputs. The wall
//! clocks reported by the executed confirmations are adversarially
//! jittered between two otherwise-identical runs — the rendered
//! `TUNED.json` bytes must not move, because winners are selected only
//! by the deterministic metric. This is the in-vitro twin of the bench
//! gate that diffs the table across `EXA_THREADS=1` and `4`.

use exa_tune::{ConfirmOutcome, KnobSpec, Probe, Tuner};
use proptest::prelude::*;

/// Quadratic deterministic model with its minimum at `best`; the wall
/// clock replays an arbitrary noise stream with no relation to `best`.
struct NoisyQuad {
    best: i64,
    walls: Vec<f64>,
    calls: usize,
}

impl Probe for NoisyQuad {
    fn cost(&mut self, v: i64) -> f64 {
        ((v - self.best) as f64).powi(2)
    }
    fn confirm(&mut self, v: i64) -> ConfirmOutcome {
        let wall_s = self.walls[self.calls % self.walls.len()];
        self.calls += 1;
        ConfirmOutcome {
            det_units: ((v - self.best) as f64).powi(2) + 1.0,
            wall_s,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn table_bytes_never_follow_the_wall_clock(
        seed in 0u64..u64::MAX,
        bests in prop::collection::vec(0i64..96, 1..5),
        walls_a in prop::collection::vec(1e-6f64..1.0, 4..16),
        walls_b in prop::collection::vec(1e-6f64..1.0, 4..16),
        reps in 1usize..5,
    ) {
        let run = |walls: &[f64]| {
            let mut tuner = Tuner::new(seed, "prop").confirm_reps(reps);
            for (i, &best) in bests.iter().enumerate() {
                let spec =
                    KnobSpec::new(&format!("prop.k{i}"), 64, &[8, 16, 32, 48, 64, 96], 3);
                tuner.tune(&spec, &mut NoisyQuad { best, walls: walls.to_vec(), calls: 0 });
            }
            tuner.finish()
        };
        let a = run(&walls_a);
        let b = run(&walls_b);
        // Byte-identical table under disjoint wall-noise streams, and
        // stable when the same stream replays (pure repeatability).
        prop_assert_eq!(a.table.to_json(), b.table.to_json());
        prop_assert_eq!(run(&walls_a).table.to_json(), a.table.to_json());
        for (ka, kb) in a.knobs.iter().zip(&b.knobs) {
            prop_assert_eq!(ka.winner, kb.winner, "winner moved with wall noise");
        }
    }
}
