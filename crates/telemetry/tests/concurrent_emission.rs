//! Property: telemetry output is independent of *which thread* emits and
//! of how concurrent emitters interleave.
//!
//! The parallel rank scheduler emits spans for many ranks from many pool
//! workers. The contract that makes that safe is: per-track span order is
//! emission order, tracks appear in registration order, histogram merge is
//! exactly associative and commutative, and every export (Chrome trace,
//! snapshot) orders its output by (virtual time, track) — never by
//! wall-clock arrival. So K threads emitting K disjoint tracks (plus
//! shared histograms) must produce byte-identical artifacts to the same
//! data emitted sequentially, for every interleaving the OS happens to
//! pick — **and** attaching a pool observer to the executing pool must not
//! perturb a single byte until it is explicitly landed.

use exa_machine::SimTime;
use exa_telemetry::{PoolTelemetry, SpanCat, TelemetryCollector, TrackKind};
use std::sync::{Arc, Barrier};

const TRACKS: usize = 6;
const SPANS_PER_TRACK: usize = 40;

fn us(x: f64) -> SimTime {
    SimTime::from_secs(x * 1e-6)
}

/// The spans track `t` emits, in its fixed per-track order.
fn track_spans(t: usize) -> Vec<(&'static str, SpanCat, SimTime, SimTime)> {
    let names = ["advance", "halo", "pack", "solve"];
    (0..SPANS_PER_TRACK)
        .map(|i| {
            let start = us((i * TRACKS + t) as f64);
            let cat = if i % 5 == 0 {
                SpanCat::Collective
            } else {
                SpanCat::Kernel
            };
            (names[(t + i) % names.len()], cat, start, start + us(0.75))
        })
        .collect()
}

fn register(collector: &TelemetryCollector) -> Vec<exa_telemetry::TrackId> {
    (0..TRACKS)
        .map(|t| collector.track(&format!("rank{t}"), TrackKind::CommRank))
        .collect()
}

/// Emit track `t`'s spans on `collector`, including the per-span duration
/// histogram every emitter shares.
fn emit_track(collector: &TelemetryCollector, id: exa_telemetry::TrackId, t: usize) {
    for (name, cat, start, end) in track_spans(t) {
        collector.metrics(|m| m.hist_record("emit.dur_s", (end - start).secs()));
        collector.complete(id, name, cat, start, end);
    }
}

/// Reference artifacts: every track emitted sequentially.
fn sequential() -> (String, String) {
    let collector = TelemetryCollector::new();
    let ids = register(&collector);
    for (t, id) in ids.iter().enumerate() {
        emit_track(&collector, *id, t);
    }
    (collector.chrome_trace(), collector.snapshot().to_json())
}

/// Concurrent emission from a work-stealing pool (one job per track, a
/// start barrier, and a round-dependent stagger so successive rounds
/// exercise different interleavings) with a [`PoolTelemetry`] observer
/// attached for the whole run and never landed.
fn concurrent(round: usize) -> (String, String, Arc<PoolTelemetry>) {
    let collector = TelemetryCollector::shared();
    let ids = register(&collector);
    let pool = workpool::ThreadPool::new(TRACKS);
    let observer = Arc::new(PoolTelemetry::new());
    pool.set_observer(Some(observer.clone()));
    let barrier = Barrier::new(TRACKS);
    pool.scope(|s| {
        for (t, id) in ids.into_iter().enumerate() {
            let collector = &collector;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for (i, (name, cat, start, end)) in track_spans(t).into_iter().enumerate() {
                    if (i + t + round).is_multiple_of(3) {
                        std::thread::yield_now();
                    }
                    collector.metrics(|m| m.hist_record("emit.dur_s", (end - start).secs()));
                    collector.complete(id, name, cat, start, end);
                }
            });
        }
    });
    pool.set_observer(None);
    (
        collector.chrome_trace(),
        collector.snapshot().to_json(),
        observer,
    )
}

#[test]
fn concurrent_emission_is_order_independent() {
    let (ref_trace, ref_snap) = sequential();
    exa_telemetry::validate_chrome_trace(&ref_trace).expect("reference trace is valid");
    assert!(
        ref_snap.contains("emit.dur_s"),
        "snapshot must carry the shared histogram so byte-identity covers it"
    );
    for round in 0..8 {
        let (trace, snap, observer) = concurrent(round);
        assert_eq!(
            trace, ref_trace,
            "chrome trace depends on interleaving (round {round})"
        );
        assert_eq!(
            snap, ref_snap,
            "snapshot depends on interleaving (round {round})"
        );
        // The observer really watched the run — it just never landed.
        assert_eq!(
            observer.tasks(),
            TRACKS as u64,
            "observer missed tasks (round {round})"
        );
    }
}
