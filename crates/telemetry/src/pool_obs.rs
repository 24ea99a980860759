//! The bridge between the dependency-free `workpool::PoolObserver` hooks
//! and the telemetry collector: a [`PoolTelemetry`] attaches to a pool,
//! accumulates per-lane wall-clock activity locally (lock-light, no
//! collector traffic while observing), and *lands* the result — worker
//! occupancy tracks, `pool.*` counters/gauges, and task-runtime /
//! steal-latency histograms — into a [`TelemetryCollector`] on demand.
//!
//! Landing is explicit for a reason: the collector's default snapshots
//! stay **byte-identical across thread counts** (the substrate determinism
//! contract), because wall-clock observations only enter the snapshot when
//! a profiling entry point (`obs_export`, a scheduler's `land_observer`)
//! asks for them. Worker tracks are namespaced (`{ns}/worker{lane}`,
//! `{ns}/caller`) so real wall-clock tracks sit beside virtual-time rank
//! tracks in one Chrome trace without colliding.

use crate::collector::TelemetryCollector;
use crate::metrics::Histogram;
use crate::span::{Span, SpanCat, TrackKind};
use exa_machine::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;
use workpool::{PoolObserver, CALLER_LANE};

/// Task intervals a lane keeps for its worker track between landings. A
/// long-lived pool (the campaign service lands only at the end of a
/// campaign) would otherwise grow by one interval per task; past the cap
/// intervals are counted, not kept, while `tasks`, busy time, steals and
/// both histograms stay exact.
pub const MAX_LANE_INTERVALS: usize = 4096;

#[derive(Debug, Default)]
struct LaneLog {
    /// Closed task intervals: `(start_ns, end_ns, stolen)`, the first
    /// [`MAX_LANE_INTERVALS`] since the last landing.
    intervals: Vec<(u64, u64, bool)>,
    /// Intervals past the cap, not kept.
    dropped: u64,
    busy_ns: u64,
    stolen: u64,
}

#[derive(Debug, Default)]
struct Inner {
    lanes: BTreeMap<usize, LaneLog>,
    tasks: u64,
    steals: u64,
    stolen_jobs: u64,
    injects: u64,
    depth_sum: u64,
    depth_max: u64,
    parks: u64,
    parked_ns: u64,
    task_run_s: Histogram,
    steal_latency_s: Histogram,
}

/// Accumulating [`PoolObserver`]: attach with
/// `pool.set_observer(Some(obs))`, run work, then [`PoolTelemetry::land`]
/// the accumulated activity into a collector (which drains the
/// accumulator, so alternating run/land cycles never double-count).
#[derive(Debug, Default)]
pub struct PoolTelemetry {
    inner: Mutex<Inner>,
}

impl PoolTelemetry {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tasks observed so far.
    pub fn tasks(&self) -> u64 {
        self.inner.lock().expect("pool telemetry").tasks
    }

    /// Steal operations observed so far.
    pub fn steals(&self) -> u64 {
        self.inner.lock().expect("pool telemetry").steals
    }

    /// Injects observed so far.
    pub fn injects(&self) -> u64 {
        self.inner.lock().expect("pool telemetry").injects
    }

    /// Total busy nanoseconds across every lane — the numerator of the
    /// occupancy gate (`busy / (wall × lanes)`).
    pub fn busy_ns(&self) -> u64 {
        let g = self.inner.lock().expect("pool telemetry");
        g.lanes.values().map(|l| l.busy_ns).sum()
    }

    /// Lanes that executed at least one task.
    pub fn active_lanes(&self) -> usize {
        self.inner.lock().expect("pool telemetry").lanes.len()
    }

    /// Discard everything accumulated so far.
    pub fn reset(&self) {
        *self.inner.lock().expect("pool telemetry") = Inner::default();
    }

    /// Drain the accumulator into `collector` under `namespace`:
    ///
    /// * one `TrackKind::Worker` track per active lane —
    ///   `{ns}/worker{lane}` for pool workers, `{ns}/caller` for the
    ///   helping caller — carrying a `SpanCat::Task` span per executed
    ///   task (stolen ones named `task:stolen`), interval-sorted so track
    ///   timestamps are monotone even when a lane's events arrived from
    ///   several threads (nested-scope callers);
    /// * `pool.*` counters (tasks, stolen tasks, steals, stolen jobs,
    ///   injects, parks) and gauges (busy seconds, parked seconds, queue
    ///   depth mean/max, active lanes);
    /// * `pool.task_run_s` / `pool.steal_latency_s` histograms, merged
    ///   into the registry (exact, associative);
    /// * `pool.intervals_dropped`, when some lane ran more than
    ///   [`MAX_LANE_INTERVALS`] tasks since the last landing: the task
    ///   spans its worker track is missing.
    ///
    /// Returns total busy nanoseconds landed.
    pub fn land(&self, collector: &TelemetryCollector, namespace: &str) -> u64 {
        let inner = std::mem::take(&mut *self.inner.lock().expect("pool telemetry"));
        let mut busy_total = 0u64;
        for (lane, log) in &inner.lanes {
            let name = if *lane == CALLER_LANE {
                format!("{namespace}/caller")
            } else {
                format!("{namespace}/worker{lane}")
            };
            let track = collector.track(&name, TrackKind::Worker);
            let mut intervals = log.intervals.clone();
            intervals.sort_unstable();
            let spans = intervals.into_iter().map(|(start, end, stolen)| Span {
                name: Cow::Borrowed(if stolen { "task:stolen" } else { "task" }),
                cat: SpanCat::Task,
                start: SimTime::from_secs(start as f64 / 1e9),
                end: SimTime::from_secs(end as f64 / 1e9),
                depth: 0,
            });
            collector.complete_batch(track, spans);
            busy_total += log.busy_ns;
        }
        collector.metrics(|m| {
            m.counter_add("pool.tasks", inner.tasks);
            m.counter_add(
                "pool.tasks_stolen",
                inner.lanes.values().map(|l| l.stolen).sum::<u64>(),
            );
            m.counter_add("pool.steals", inner.steals);
            m.counter_add("pool.stolen_jobs", inner.stolen_jobs);
            m.counter_add("pool.injects", inner.injects);
            m.counter_add("pool.parks", inner.parks);
            m.gauge_set("pool.busy_s", busy_total as f64 / 1e9);
            m.gauge_set("pool.parked_s", inner.parked_ns as f64 / 1e9);
            m.gauge_max("pool.queue_depth_max", inner.depth_max as f64);
            if inner.injects > 0 {
                m.gauge_set(
                    "pool.queue_depth_mean",
                    inner.depth_sum as f64 / inner.injects as f64,
                );
            }
            m.gauge_max("pool.active_lanes", inner.lanes.len() as f64);
            m.hist_merge("pool.task_run_s", &inner.task_run_s);
            m.hist_merge("pool.steal_latency_s", &inner.steal_latency_s);
            let dropped: u64 = inner.lanes.values().map(|l| l.dropped).sum();
            if dropped > 0 {
                m.counter_add("pool.intervals_dropped", dropped);
            }
        });
        busy_total
    }
}

impl PoolObserver for PoolTelemetry {
    fn task_run(&self, lane: usize, start_ns: u64, end_ns: u64, stolen: bool) {
        let mut g = self.inner.lock().expect("pool telemetry");
        g.tasks += 1;
        g.task_run_s
            .record(end_ns.saturating_sub(start_ns) as f64 / 1e9);
        let log = g.lanes.entry(lane).or_default();
        if log.intervals.len() < MAX_LANE_INTERVALS {
            log.intervals.push((start_ns, end_ns, stolen));
        } else {
            log.dropped += 1;
        }
        log.busy_ns += end_ns.saturating_sub(start_ns);
        if stolen {
            log.stolen += 1;
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, taken: usize, latency_ns: u64) {
        let mut g = self.inner.lock().expect("pool telemetry");
        g.steals += 1;
        g.stolen_jobs += taken as u64;
        g.steal_latency_s.record(latency_ns as f64 / 1e9);
    }

    fn inject(&self, _slot: usize, queue_depth: usize) {
        let mut g = self.inner.lock().expect("pool telemetry");
        g.injects += 1;
        g.depth_sum += queue_depth as u64;
        g.depth_max = g.depth_max.max(queue_depth as u64);
    }

    fn park(&self, _worker: usize) {
        self.inner.lock().expect("pool telemetry").parks += 1;
    }

    fn unpark(&self, _worker: usize, parked_ns: u64) {
        self.inner.lock().expect("pool telemetry").parked_ns += parked_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use workpool::ThreadPool;

    fn run_observed(threads: usize) -> (Arc<PoolTelemetry>, TelemetryCollector) {
        let pool = ThreadPool::new(threads);
        let obs = Arc::new(PoolTelemetry::new());
        pool.set_observer(Some(obs.clone()));
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    std::hint::black_box((0..500).sum::<u64>());
                });
            }
        });
        pool.set_observer(None);
        (obs, TelemetryCollector::new())
    }

    #[test]
    fn lands_worker_tracks_counters_and_histograms() {
        for threads in [1, 4] {
            let (obs, collector) = run_observed(threads);
            assert_eq!(obs.tasks(), 32);
            let busy = obs.busy_ns();
            assert!(busy > 0);
            let landed = obs.land(&collector, "pool");
            assert_eq!(landed, busy);
            let snap = collector.snapshot();
            assert_eq!(snap.counter("pool.tasks"), 32);
            assert_eq!(snap.counter("pool.injects"), 32);
            let h = snap
                .hist("pool.task_run_s")
                .expect("task runtime histogram");
            assert_eq!(h.count(), 32);
            assert!(h.p99() >= h.p50(), "quantiles monotone");
            let worker_tracks: Vec<_> = snap.tracks.iter().filter(|t| t.kind == "worker").collect();
            assert!(!worker_tracks.is_empty(), "threads = {threads}");
            let track_busy: f64 = worker_tracks.iter().map(|t| t.busy_s).sum();
            assert!((track_busy - busy as f64 / 1e9).abs() < 1e-9);
            if threads == 1 {
                assert_eq!(snap.counter("pool.steals"), 0, "inline path cannot steal");
                assert!(worker_tracks.iter().all(|t| t.name == "pool/caller"));
            }
            // Worker tracks render into a valid, monotone Chrome trace.
            crate::validate::validate_chrome_trace(&collector.chrome_trace())
                .expect("worker tracks are trace-valid");
        }
    }

    #[test]
    fn land_drains_the_accumulator() {
        let (obs, collector) = run_observed(2);
        obs.land(&collector, "pool");
        assert_eq!(obs.tasks(), 0, "land drains");
        let busy_again = obs.land(&collector, "pool");
        assert_eq!(busy_again, 0);
        assert_eq!(
            collector.snapshot().counter("pool.tasks"),
            32,
            "no double count"
        );
    }

    #[test]
    fn lane_intervals_are_capped_while_totals_stay_exact() {
        let obs = PoolTelemetry::new();
        let extra = 100;
        let n = MAX_LANE_INTERVALS + extra;
        for i in 0..n as u64 {
            obs.task_run(0, 10 * i, 10 * i + 3, i % 2 == 0);
        }
        obs.task_run(1, 0, 5, false);
        assert_eq!(obs.tasks(), n as u64 + 1);
        assert_eq!(obs.busy_ns(), 3 * n as u64 + 5);
        let collector = TelemetryCollector::new();
        assert_eq!(obs.land(&collector, "pool"), 3 * n as u64 + 5);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("pool.tasks"), n as u64 + 1);
        assert_eq!(snap.counter("pool.tasks_stolen"), n.div_ceil(2) as u64);
        assert_eq!(snap.counter("pool.intervals_dropped"), extra as u64);
        assert_eq!(
            snap.hist("pool.task_run_s").expect("histogram").count(),
            n as u64 + 1
        );
        let spans = |name: &str| {
            snap.tracks
                .iter()
                .find(|t| t.name == name)
                .map(|t| t.spans)
                .expect("worker track")
        };
        assert_eq!(spans("pool/worker0"), MAX_LANE_INTERVALS as u64);
        assert_eq!(spans("pool/worker1"), 1);
        // Landing drains the drop count with everything else.
        obs.task_run(0, 0, 1, false);
        let again = TelemetryCollector::new();
        obs.land(&again, "pool");
        assert_eq!(again.snapshot().counter("pool.intervals_dropped"), 0);
    }

    #[test]
    fn observing_without_landing_leaves_collector_untouched() {
        let (obs, collector) = run_observed(4);
        assert!(obs.tasks() > 0);
        let snap = collector.snapshot();
        assert_eq!(snap.spans_total, 0);
        assert_eq!(snap.counter("pool.tasks"), 0);
    }
}
