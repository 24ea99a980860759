//! `serve_warm` and `serve_cold`: one client replaying a seeded query
//! stream through `CampaignService::run_batch`, one batch per step.
//!
//! A replica `ShardedLru` with the service's shard count and capacity is
//! fed the same stream, probe for probe and insert for insert, so it
//! predicts the disposition of every query; the traced run times its
//! parse, probe and insert calls as the per-layer costs of the cache.

use crate::gen::{self, ColdStream, Request, Rng, WarmStream};
use crate::harness::{setup, timed, Ctx, Report, Steps};
use crate::stats::{median, tail, Tally};
use exa_apps::query::{evaluate_query, QueryAnswer};
use exa_serve::{
    auto_shards, CacheStatus, CampaignService, Query, ServeConfig, ServeStats, ShardedLru,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// One sampled span tree per this many queries in the service trace, as
/// in the `campaign_load` replay; keeps span memory flat over a run.
const TRACE_SAMPLE: u64 = 4096;
/// Batches after set-up over which the traffic ratios are computed; a
/// fixed prefix, so they repeat exactly for a seed.
const PREFIX_BATCHES: usize = 64;

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

impl Mode {
    fn batch(self) -> usize {
        match self {
            Mode::Warm => 1024,
            Mode::Cold => 64,
        }
    }

    fn config(self, threads: usize) -> ServeConfig {
        let base = ServeConfig {
            threads,
            trace_sample: TRACE_SAMPLE,
            ..ServeConfig::default()
        };
        match self {
            // 8 × 512 entries hold the whole 192-key universe.
            Mode::Warm => base,
            // 8 × 32 entries against 64 000 possible keys.
            Mode::Cold => ServeConfig {
                capacity_per_shard: 32,
                ..base
            },
        }
    }
}

enum Stream {
    Warm(WarmStream),
    Cold(ColdStream),
}

impl Stream {
    fn batch(&mut self, len: usize) -> Vec<Request> {
        match self {
            Stream::Warm(s) => s.batch(len),
            Stream::Cold(s) => s.batch(len),
        }
    }
}

/// Time spent in the replica's calls, seconds, with call counts.
#[derive(Debug, Default, Clone, Copy)]
struct ReplicaTimes {
    parse_s: f64,
    parses: u64,
    get_s: f64,
    gets: u64,
    insert_s: f64,
    inserts: u64,
}

/// The replica cache and its running counts.
struct Replica {
    lru: ShardedLru<()>,
    counts: BTreeMap<&'static str, u64>,
    evictions: u64,
    times: ReplicaTimes,
}

/// What the replica predicts for one batch.
struct Probe {
    status: Vec<CacheStatus>,
    /// Keys of the batch's distinct misses with the first query index of
    /// each, in batch order.
    misses: Vec<(String, usize)>,
    /// Replica parse + probe wall of the batch.
    wall_s: f64,
}

impl Replica {
    fn new(config: &ServeConfig, threads: usize) -> Self {
        Replica {
            lru: ShardedLru::new(auto_shards(threads), config.capacity_per_shard),
            counts: BTreeMap::new(),
            evictions: 0,
            times: ReplicaTimes::default(),
        }
    }

    /// Classify a batch exactly as the service's serial probe does.
    fn probe(&mut self, batch: &[Request]) -> Probe {
        let mut status = Vec::with_capacity(batch.len());
        let mut misses: Vec<(String, usize)> = Vec::new();
        let mut pending: HashSet<String> = HashSet::new();
        let start = Instant::now();
        for (i, req) in batch.iter().enumerate() {
            let t = Instant::now();
            let parsed = Query::parse(&req.text).map(|q| q.key());
            self.times.parse_s += t.elapsed().as_secs_f64();
            self.times.parses += 1;
            let Ok(key) = parsed else {
                status.push(CacheStatus::Error);
                continue;
            };
            let t = Instant::now();
            let hit = self.lru.get(&key).is_some();
            self.times.get_s += t.elapsed().as_secs_f64();
            self.times.gets += 1;
            status.push(if hit {
                CacheStatus::Hit
            } else if pending.contains(&key) {
                CacheStatus::Coalesced
            } else {
                pending.insert(key.clone());
                misses.push((key, i));
                CacheStatus::Miss
            });
        }
        for s in &status {
            *self.counts.entry(s.label()).or_default() += 1;
        }
        Probe {
            status,
            misses,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Insert a batch's misses in batch order, as the service's merge does.
    fn insert(&mut self, misses: &[(String, usize)]) {
        for (key, _) in misses {
            let before = self.lru.len();
            let t = Instant::now();
            self.lru.insert(key, ());
            self.times.insert_s += t.elapsed().as_secs_f64();
            self.times.inserts += 1;
            if self.lru.len() == before {
                self.evictions += 1;
            }
        }
    }

    fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }
}

/// Bitwise equality of two answers.
fn same_answer(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    a.app == b.app
        && a.machine == b.machine
        && a.nodes == b.nodes
        && a.fom_value.to_bits() == b.fom_value.to_bits()
        && a.units == b.units
        && a.higher_is_better == b.higher_is_better
        && a.wall_s.to_bits() == b.wall_s.to_bits()
        && a.spans == b.spans
}

/// A direct, uncached evaluation of a query's text.
fn direct(text: &str) -> Option<QueryAnswer> {
    let q = Query::parse(text).ok()?;
    evaluate_query(&q.app, &q.machine, q.nodes, &q.knobs, &q.scenario)
}

/// The verdict on one answered query: a malformed request must be
/// rejected and a valid one answered, with the disposition the replica
/// predicted, and, when an oracle answer is given, bit-equal to it. A
/// rejected malformed request is a success.
pub fn query_ok(
    malformed: bool,
    status: CacheStatus,
    predicted: CacheStatus,
    answer: Option<&QueryAnswer>,
    oracle: Option<&QueryAnswer>,
) -> bool {
    let shape = if malformed {
        status == CacheStatus::Error && answer.is_none()
    } else {
        status != CacheStatus::Error && answer.is_some()
    };
    let matches = match (oracle, answer) {
        (Some(o), Some(a)) => same_answer(o, a),
        (Some(_), None) => false,
        (None, _) => true,
    };
    shape && status == predicted && matches
}

struct Setup {
    svc: CampaignService,
    stream: Stream,
    replica: Replica,
    tally: Tally,
}

/// Build the service and its stream, and pre-fill: every universe key
/// once (warm), or one batch of the stream (cold).
fn build(mode: Mode, ctx: &Ctx) -> Setup {
    let config = mode.config(ctx.threads);
    let mut replica = Replica::new(&config, ctx.threads);
    let mut svc = CampaignService::new(config);
    let (stream, prefill) = match mode {
        Mode::Warm => {
            let s = WarmStream::new(ctx.seed);
            let all = s
                .universe()
                .iter()
                .map(|t| Request {
                    text: t.clone(),
                    malformed: false,
                })
                .collect();
            (Stream::Warm(s), all)
        }
        Mode::Cold => {
            let mut s = ColdStream::new(ctx.seed);
            let first = s.batch(mode.batch());
            (Stream::Cold(s), first)
        }
    };
    let texts: Vec<String> = prefill.iter().map(|r| r.text.clone()).collect();
    let out = svc.run_batch(&texts);
    // The replica follows the pre-fill too; it is checked, not timed.
    let probe = replica.probe(&prefill);
    replica.insert(&probe.misses);
    let mut tally = Tally::default();
    for (i, o) in out.iter().enumerate() {
        tally.record(query_ok(
            false,
            o.status,
            probe.status[i],
            o.answer.as_ref(),
            None,
        ));
    }
    Setup {
        svc,
        stream,
        replica,
        tally,
    }
}

pub fn run(ctx: &mut Ctx, mode: Mode) -> Report {
    let (setup_out, setup_s) = setup(|| build(mode, ctx));
    let Setup {
        mut svc,
        mut stream,
        mut replica,
        mut tally,
    } = setup_out;
    // Replica times count only from the timed loop on.
    replica.times = ReplicaTimes::default();
    let after_setup = svc.stats();
    let mut prefix: Option<ServeStats> = None;
    let mut prefix_evictions = 0;
    let evictions_at_setup = replica.evictions;

    let mut sample_rng = Rng::new(ctx.seed, 5);
    let mut oracle: HashMap<String, Option<QueryAnswer>> = HashMap::new();
    let mut eval_walls: Vec<f64> = Vec::new();
    let mut residual: Vec<f64> = Vec::new();
    let mut heavy = 0u64;
    let mut queries = 0u64;

    let batch_len = mode.batch();
    let mut steps = Steps::new(ctx, PREFIX_BATCHES);
    while steps.more() {
        let traced = steps.next_traced();
        ctx.spans.set_on(traced);
        let step = ctx.spans.begin(crate::spans::STEP, None);
        let id = ctx.spans.begin("bench.generate", step);
        let batch = stream.batch(batch_len);
        let texts: Vec<String> = batch.iter().map(|r| r.text.clone()).collect();
        ctx.spans.end(id);

        let id = ctx.spans.begin("serve.replica_probe", step);
        let probe = replica.probe(&batch);
        ctx.spans.end(id);

        let id = ctx.spans.begin("serve.run_batch", step);
        let out = steps.time(batch.len() as f64, || svc.run_batch(&texts));
        ctx.spans.end(id);
        let batch_wall = *steps.walls.last().expect("a step was timed");

        let id = ctx.spans.begin("serve.replica_insert", step);
        replica.insert(&probe.misses);
        ctx.spans.end(id);

        // Oracle answers: one seeded sample per batch, plus, in the traced
        // run, every distinct miss, timed as the evaluation layer.
        let id = ctx.spans.begin("apps.evaluate_query", step);
        let mut checks: HashMap<usize, QueryAnswer> = HashMap::new();
        let mut eval_s = 0.0;
        if ctx.trace {
            for (key, i) in &probe.misses {
                let (a, wall) = timed(|| direct(&batch[*i].text));
                eval_walls.push(wall);
                eval_s += wall;
                if let Some(a) = a.clone() {
                    checks.insert(*i, a);
                }
                oracle.insert(key.clone(), a);
            }
        }
        let pick = sample_rng.below(batch.len());
        if !batch[pick].malformed && !checks.contains_key(&pick) {
            let key = Query::parse(&batch[pick].text)
                .expect("a valid request parses")
                .key();
            let a = oracle
                .entry(key)
                .or_insert_with(|| direct(&batch[pick].text))
                .clone();
            if let Some(a) = a {
                checks.insert(pick, a);
            }
        }
        ctx.spans.end(id);
        if ctx.trace {
            residual.push(batch_wall - probe.wall_s - eval_s / ctx.threads as f64);
        }

        let id = ctx.spans.begin("bench.check", step);
        for (i, o) in out.iter().enumerate() {
            tally.record(query_ok(
                batch[i].malformed,
                o.status,
                probe.status[i],
                o.answer.as_ref(),
                checks.get(&i),
            ));
        }
        heavy += batch
            .iter()
            .filter(|r| gen::is_gests_frontier_large(&r.text))
            .count() as u64;
        queries += batch.len() as u64;
        ctx.spans.end(id);
        ctx.spans.end(step);

        if steps.walls.len() == PREFIX_BATCHES {
            prefix = Some(svc.stats());
            prefix_evictions = replica.evictions - evictions_at_setup;
        }
    }
    ctx.spans.set_on(false);

    // The service's cumulative counts must equal the replica's.
    let stats = svc.stats();
    tally.record(
        stats.hits == replica.count("hit")
            && stats.misses == replica.count("miss")
            && stats.coalesced == replica.count("coalesced")
            && stats.errors == replica.count("error"),
    );

    let prefix = prefix.expect("the loop runs at least the prefix batches");
    let lookups = |s: &ServeStats| s.hits + s.misses + s.coalesced;
    let d_lookups = (lookups(&prefix) - lookups(&after_setup)) as f64;
    let d_hits = (prefix.hits - after_setup.hits) as f64;
    let d_coalesced = (prefix.coalesced - after_setup.coalesced) as f64;

    let notes = vec![
        ("batch", batch_len.to_string()),
        ("cache_capacity", stats.cache_capacity.to_string()),
        ("trace_sample", TRACE_SAMPLE.to_string()),
        (
            "gests_frontier_ge4096_share",
            (heavy as f64 / queries as f64).to_string(),
        ),
        (
            "traffic_ratios_over",
            format!("first {PREFIX_BATCHES} batches after set-up"),
        ),
        ("oracle_keys_checked", oracle.len().to_string()),
    ];

    let layers = if ctx.trace {
        let t = replica.times;
        let per_us = |s: f64, n: u64| if n == 0 { 0.0 } else { s / n as f64 * 1e6 };
        let mut l = vec![
            ("serve.parse_us", per_us(t.parse_s, t.parses)),
            ("serve.cache_get_us", per_us(t.get_s, t.gets)),
            ("serve.cache_insert_us", per_us(t.insert_s, t.inserts)),
            ("serve.evictions", prefix_evictions as f64),
            ("serve.batch_residual_s", median(&residual)),
            ("serve.hit_ratio", (d_hits + d_coalesced) / d_lookups),
            ("serve.coalesced_frac", d_coalesced / d_lookups),
        ];
        if !eval_walls.is_empty() {
            l.push(("serve.eval_p50_s", median(&eval_walls)));
            let tail = tail(&eval_walls).map_or(0.0, |t| t.value);
            l.push(("serve.eval_tail_s", tail));
        }
        l
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

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> QueryAnswer {
        direct("app=Pele machine=Summit nodes=16").expect("a valid query evaluates")
    }

    #[test]
    fn a_rejected_malformed_query_counts_as_a_success() {
        let mut t = Tally::default();
        t.record(query_ok(
            true,
            CacheStatus::Error,
            CacheStatus::Error,
            None,
            None,
        ));
        assert_eq!(
            t,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
    }

    #[test]
    fn answering_a_malformed_or_rejecting_a_valid_query_fails() {
        let a = answer();
        let mut t = Tally::default();
        t.record(query_ok(
            true,
            CacheStatus::Hit,
            CacheStatus::Error,
            Some(&a),
            None,
        ));
        t.record(query_ok(
            false,
            CacheStatus::Error,
            CacheStatus::Miss,
            None,
            None,
        ));
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }

    #[test]
    fn disposition_and_oracle_mismatches_fail() {
        let a = answer();
        let mut b = a.clone();
        b.fom_value = f64::from_bits(a.fom_value.to_bits() ^ 1);
        let ok = |status, oracle| query_ok(false, status, CacheStatus::Hit, Some(&a), oracle);
        assert!(ok(CacheStatus::Hit, Some(&a)));
        assert!(!ok(CacheStatus::Miss, None), "replica predicted a hit");
        assert!(!ok(CacheStatus::Hit, Some(&b)), "one bit off the oracle");
    }

    #[test]
    fn replica_predicts_the_service() {
        let ctx_threads = 2;
        let config = Mode::Cold.config(ctx_threads);
        let mut replica = Replica::new(&config, ctx_threads);
        let mut svc = CampaignService::new(config);
        let mut stream = ColdStream::new(11);
        for _ in 0..3 {
            let mut batch = stream.batch(8);
            batch.push(batch[0].clone()); // an in-batch duplicate coalesces
            batch.push(Request {
                text: "machine=Frontier".into(),
                malformed: true,
            });
            let texts: Vec<String> = batch.iter().map(|r| r.text.clone()).collect();
            let probe = replica.probe(&batch);
            let out = svc.run_batch(&texts);
            replica.insert(&probe.misses);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(o.status, probe.status[i], "query {i}");
            }
        }
        let s = svc.stats();
        assert_eq!(s.coalesced, replica.count("coalesced"));
        assert_eq!(s.coalesced, 3);
        assert_eq!(s.errors, 3);
    }
}
