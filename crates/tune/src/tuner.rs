//! The search itself: enumerate → cost-prune → executed-confirm →
//! persist, with every decision driven by deterministic metrics.

use exa_machine::SimTime;
use exa_telemetry::{SpanCat, TelemetryCollector, TrackKind};
use std::sync::Arc;

use crate::table::TunedTable;

/// One knob's search space.
#[derive(Debug, Clone)]
pub struct KnobSpec {
    /// Knob key as consumers resolve it (`fft.gather`, `fft.overlap_k`).
    pub key: String,
    /// Today's hard-coded constant — the fallback and the baseline.
    pub frozen: i64,
    /// Candidate values to enumerate (the frozen value is always
    /// considered even if absent here).
    pub candidates: Vec<i64>,
    /// How many cost-model survivors go on to executed confirmation.
    pub keep: usize,
}

impl KnobSpec {
    pub fn new(key: &str, frozen: i64, candidates: &[i64], keep: usize) -> Self {
        KnobSpec {
            key: key.to_string(),
            frozen,
            candidates: candidates.to_vec(),
            keep: keep.max(1),
        }
    }
}

/// What one executed micro-run of a candidate reports back.
///
/// `det_units` is the **deterministic** figure of merit (virtual seconds
/// from the machine model, or a counted host-operation total) — the only
/// number that picks winners. `wall_s` is the measured wall clock,
/// recorded for the bench gate but never consulted for selection, so
/// `TUNED.json` stays a pure function of the seed at any `EXA_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfirmOutcome {
    /// Deterministic metric (lower is better).
    pub det_units: f64,
    /// Median-of-N measured wall seconds (informational).
    pub wall_s: f64,
}

/// A knob's measurement hooks. `cost` is the cheap deterministic model
/// used for pruning; `confirm` is the short executed micro-run.
pub trait Probe {
    /// Deterministic model cost for `value` (lower is better).
    fn cost(&mut self, value: i64) -> f64;
    /// Execute one micro-run at `value`.
    fn confirm(&mut self, value: i64) -> ConfirmOutcome;
}

/// Everything the tuner learned about one knob.
#[derive(Debug, Clone)]
pub struct KnobReport {
    pub key: String,
    pub frozen: i64,
    /// Candidate → model cost, in pruning order (ascending cost).
    pub costs: Vec<(i64, f64)>,
    /// Survivor → confirmed outcome (median wall over the rep count).
    pub confirmed: Vec<(i64, ConfirmOutcome)>,
    /// The persisted winner.
    pub winner: i64,
}

/// The full run: the table to persist plus per-knob evidence.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub seed: u64,
    pub machine: String,
    pub table: TunedTable,
    pub knobs: Vec<KnobReport>,
}

/// Deterministic, seeded knob search. The seed is provenance (recorded
/// into the table) — the search itself draws no randomness, which is
/// what makes `TUNED.json` byte-identical across thread counts and
/// repeated runs.
pub struct Tuner {
    seed: u64,
    machine: String,
    confirm_reps: usize,
    collector: Option<Arc<TelemetryCollector>>,
    table: TunedTable,
    reports: Vec<KnobReport>,
    /// Virtual clock for `tune/` track spans (deterministic durations:
    /// model cost for pruning spans, det-units for confirm spans).
    clock: SimTime,
}

impl Tuner {
    pub fn new(seed: u64, machine: &str) -> Self {
        Tuner {
            seed,
            machine: machine.to_string(),
            confirm_reps: 3,
            collector: None,
            table: TunedTable::new(seed, machine),
            reports: Vec::new(),
            clock: SimTime::ZERO,
        }
    }

    /// Median-of-N repetitions per executed confirmation (default 3).
    pub fn confirm_reps(mut self, reps: usize) -> Self {
        self.confirm_reps = reps.max(1);
        self
    }

    /// Attach a collector; the tuner records its phases on a
    /// `tune/<key>` track and counters under `tune.*`.
    pub fn with_collector(mut self, collector: Arc<TelemetryCollector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Search one knob and record the winner into the table.
    pub fn tune(&mut self, spec: &KnobSpec, probe: &mut dyn Probe) -> &KnobReport {
        let track = self
            .collector
            .as_ref()
            .map(|c| c.track(&format!("tune/{}", spec.key), TrackKind::Host));

        // Enumerate: dedup, always include the frozen baseline, sort so
        // iteration order is independent of how the spec listed values.
        let mut candidates = spec.candidates.clone();
        candidates.push(spec.frozen);
        candidates.sort_unstable();
        candidates.dedup();

        // Cost-prune: model every candidate, keep the `keep` cheapest.
        // Ties break toward the frozen value, then the smaller value, so
        // the cut is deterministic.
        let mut costs: Vec<(i64, f64)> = candidates.iter().map(|&v| (v, probe.cost(v))).collect();
        costs.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| (a.0 != spec.frozen).cmp(&(b.0 != spec.frozen)))
                .then_with(|| a.0.cmp(&b.0))
        });
        if let (Some(c), Some(t)) = (&self.collector, track) {
            let dur: f64 = costs.iter().map(|(_, cost)| cost).sum();
            let end = self.clock + SimTime::from_secs(dur.max(1e-9));
            c.complete(t, "cost-prune", SpanCat::Phase, self.clock, end);
            self.clock = end;
        }
        let survivors: Vec<i64> = costs.iter().take(spec.keep).map(|&(v, _)| v).collect();

        // Executed confirm: median-of-N wall clock recorded, winner
        // picked purely by the deterministic metric (which must agree
        // across reps — a drifting metric is a determinism bug).
        let mut confirmed: Vec<(i64, ConfirmOutcome)> = Vec::new();
        for &v in &survivors {
            let mut walls = Vec::with_capacity(self.confirm_reps);
            let mut det = f64::NAN;
            for rep in 0..self.confirm_reps {
                let run = probe.confirm(v);
                if rep == 0 {
                    det = run.det_units;
                } else {
                    assert!(
                        run.det_units == det,
                        "non-deterministic confirm metric for {}={v}: {det} vs {}",
                        spec.key,
                        run.det_units
                    );
                }
                walls.push(run.wall_s);
            }
            walls.sort_by(|a, b| a.total_cmp(b));
            let wall_s = walls[walls.len() / 2];
            if let (Some(c), Some(t)) = (&self.collector, track) {
                let end = self.clock + SimTime::from_secs(det.max(1e-9));
                c.complete(t, format!("confirm:{v}"), SpanCat::Phase, self.clock, end);
                self.clock = end;
            }
            confirmed.push((
                v,
                ConfirmOutcome {
                    det_units: det,
                    wall_s,
                },
            ));
        }

        // Winner: lowest deterministic metric; ties fall back to the
        // frozen value, then the smaller value.
        let winner = confirmed
            .iter()
            .min_by(|a, b| {
                a.1.det_units
                    .total_cmp(&b.1.det_units)
                    .then_with(|| (a.0 != spec.frozen).cmp(&(b.0 != spec.frozen)))
                    .then_with(|| a.0.cmp(&b.0))
            })
            .map(|&(v, _)| v)
            .unwrap_or(spec.frozen);
        self.table.set(&spec.key, winner);

        if let Some(c) = &self.collector {
            c.metrics(|m| {
                m.counter_add("tune.candidates", candidates.len() as u64);
                m.counter_add("tune.confirmed", confirmed.len() as u64);
                m.counter_add("tune.moved", u64::from(winner != spec.frozen));
                m.gauge_set(&format!("tune.winner.{}", spec.key), winner as f64);
            });
        }

        self.reports.push(KnobReport {
            key: spec.key.clone(),
            frozen: spec.frozen,
            costs,
            confirmed,
            winner,
        });
        self.reports.last().expect("just pushed")
    }

    /// Finish the run.
    pub fn finish(self) -> TuneReport {
        TuneReport {
            seed: self.seed,
            machine: self.machine,
            table: self.table,
            knobs: self.reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic model with minimum at `best`; wall clock adversarially
    /// prefers a *different* value to prove wall never selects.
    struct Quad {
        best: i64,
        wall_favors: i64,
        confirms: usize,
    }

    impl Probe for Quad {
        fn cost(&mut self, v: i64) -> f64 {
            ((v - self.best) as f64).powi(2)
        }
        fn confirm(&mut self, v: i64) -> ConfirmOutcome {
            self.confirms += 1;
            ConfirmOutcome {
                det_units: ((v - self.best) as f64).powi(2) + 1.0,
                wall_s: if v == self.wall_favors { 0.001 } else { 1.0 },
            }
        }
    }

    fn spec() -> KnobSpec {
        KnobSpec::new("test.quad", 64, &[8, 16, 32, 48, 64, 96, 128], 3)
    }

    #[test]
    fn winner_minimizes_deterministic_metric_not_wall() {
        let mut probe = Quad {
            best: 48,
            wall_favors: 128,
            confirms: 0,
        };
        let mut tuner = Tuner::new(1, "test");
        let report = tuner.tune(&spec(), &mut probe);
        assert_eq!(report.winner, 48, "det metric picks, wall clock never");
        assert_eq!(probe.confirms, 3 * 3, "keep=3 survivors x 3 reps");
    }

    #[test]
    fn prune_keeps_cheapest_and_search_is_repeatable() {
        let run = || {
            let mut probe = Quad {
                best: 16,
                wall_favors: 8,
                confirms: 0,
            };
            let mut tuner = Tuner::new(7, "test");
            tuner.tune(&spec(), &mut probe);
            tuner.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.table, b.table);
        assert_eq!(a.table.to_json(), b.table.to_json());
        let survivors: Vec<i64> = a.knobs[0].confirmed.iter().map(|&(v, _)| v).collect();
        assert_eq!(survivors, vec![16, 8, 32], "three cheapest by model");
        assert_eq!(a.knobs[0].winner, 16);
    }

    #[test]
    fn tie_breaks_toward_frozen() {
        struct Flat;
        impl Probe for Flat {
            fn cost(&mut self, _: i64) -> f64 {
                1.0
            }
            fn confirm(&mut self, _: i64) -> ConfirmOutcome {
                ConfirmOutcome {
                    det_units: 1.0,
                    wall_s: 1.0,
                }
            }
        }
        let mut tuner = Tuner::new(0, "test");
        let report = tuner.tune(&spec(), &mut Flat);
        assert_eq!(report.winner, 64, "all equal => keep the frozen value");
    }

    #[test]
    fn telemetry_records_tune_track() {
        let collector = TelemetryCollector::shared();
        let mut tuner = Tuner::new(3, "test").with_collector(Arc::clone(&collector));
        tuner.tune(
            &spec(),
            &mut Quad {
                best: 32,
                wall_favors: 8,
                confirms: 0,
            },
        );
        collector.with_timeline(|tl| {
            let track = tl
                .tracks()
                .iter()
                .find(|t| t.name == "tune/test.quad")
                .expect("tune track registered");
            assert!(track.spans().len() >= 4, "prune + 3 confirms");
        });
        assert_eq!(collector.metrics(|m| m.counter("tune.confirmed")), 3);
    }
}
