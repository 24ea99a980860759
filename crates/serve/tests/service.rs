//! Integration tests for the campaign service: deterministic traces
//! across thread counts (the PR's byte-identity guarantee), cache
//! correctness against cold evaluation for every Table-2 app, in-batch
//! coalescing, RED accounting, and the SLO drill.

use exa_serve::{CacheStatus, CampaignService, ServeConfig, SloDrill};
use exa_telemetry::{check_slo, SloConfig, Verdict};

/// A workload that exercises every disposition: misses, repeats (hits),
/// in-batch duplicates (coalesced), knobs, scenarios, scale overrides,
/// and malformed queries.
fn mixed_workload() -> Vec<Vec<String>> {
    let batch1: Vec<String> = vec![
        "app=CoMet machine=Frontier".into(),
        "app=LSMS machine=Summit".into(),
        "app=CoMet machine=Frontier".into(), // coalesces with the first
        "app=Pele machine=Frontier nodes=512 knob:chemistry=1.5".into(),
        "app=Nope machine=Frontier".into(), // parse error
        "app=COAST machine=Frontier scenario=sweep".into(),
    ];
    let batch2: Vec<String> = vec![
        "app=CoMet machine=Frontier".into(), // hit from batch1
        "app=Pele machine=Frontier knob:chemistry=1.5 nodes=512".into(), // hit, token order differs
        "app=GAMESS machine=Summit nodes=64".into(),
        "machine=Frontier".into(),        // parse error
        "app=LSMS machine=Summit".into(), // hit
    ];
    vec![batch1, batch2]
}

/// Per batch, per query: cache status and the answer's digest.
type BatchOutcomes = Vec<Vec<(CacheStatus, Option<u64>)>>;

fn run_workload(threads: usize) -> (CampaignService, BatchOutcomes) {
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let mut svc = CampaignService::new(config);
    let mut outcomes = Vec::new();
    for batch in mixed_workload() {
        let results = svc.run_batch(&batch);
        outcomes.push(
            results
                .into_iter()
                .map(|r| (r.status, r.answer.map(|a| a.fom_value.to_bits())))
                .collect(),
        );
    }
    (svc, outcomes)
}

#[test]
fn trace_and_answers_are_byte_identical_across_thread_counts() {
    let (svc1, out1) = run_workload(1);
    let (svc4, out4) = run_workload(4);
    let (svc_env, out_env) = run_workload(0); // EXA_THREADS default
    assert_eq!(
        out1, out4,
        "dispositions and answer bits must not depend on threads"
    );
    assert_eq!(out1, out_env);
    let t1 = svc1.chrome_trace();
    assert_eq!(
        t1,
        svc4.chrome_trace(),
        "serve/ trace must be byte-identical at 1 vs 4 threads"
    );
    assert_eq!(
        t1,
        svc_env.chrome_trace(),
        "and under the EXA_THREADS default"
    );
    assert!(t1.contains("serve/lane0"), "lane tracks registered");
    assert!(t1.contains("serve CoMet [miss]"));
    assert!(t1.contains("serve CoMet [hit]"));
    assert!(t1.contains("serve CoMet [coalesced]"));
    assert!(
        t1.contains("serve COAST [miss] @sweep"),
        "scenario tag lands in the span name"
    );
    assert!(t1.contains("serve [error]"));
}

#[test]
fn red_accounting_matches_the_workload() {
    let (svc, outcomes) = run_workload(1);
    let stats = svc.stats();
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.misses, 5); // CoMet, LSMS, Pele, COAST miss in batch1; GAMESS in batch2
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.coalesced, 1);
    assert_eq!(
        stats.misses + stats.hits + stats.coalesced + stats.errors,
        stats.requests
    );
    assert!(stats.cache_len >= 4);
    // Specific dispositions, in order.
    let b1: Vec<CacheStatus> = outcomes[0].iter().map(|(s, _)| *s).collect();
    assert_eq!(
        b1,
        vec![
            CacheStatus::Miss,
            CacheStatus::Miss,
            CacheStatus::Coalesced,
            CacheStatus::Miss,
            CacheStatus::Error,
            CacheStatus::Miss,
        ]
    );
    let b2: Vec<CacheStatus> = outcomes[1].iter().map(|(s, _)| *s).collect();
    assert_eq!(
        b2,
        vec![
            CacheStatus::Hit,
            CacheStatus::Hit,
            CacheStatus::Miss,
            CacheStatus::Error,
            CacheStatus::Hit,
        ]
    );
    // The coalesced duplicate got the same bits as its leader.
    assert_eq!(outcomes[0][0].1, outcomes[0][2].1);
    // Counters surfaced through the registry.
    svc.collector().metrics(|m| {
        assert_eq!(m.counter("serve.requests"), 11);
        assert_eq!(m.counter("serve.errors"), 2);
        assert_eq!(m.counter("serve.cache.hits"), 3);
        assert_eq!(m.counter("serve.cache.misses"), 5);
        assert_eq!(m.counter("serve.cache.coalesced"), 1);
        let hist = m.hist("serve.latency_s").expect("latency histogram");
        assert_eq!(hist.count(), 11);
        assert!(m.gauge("serve.cache.hit_ratio").is_some());
        assert!(m.gauge("serve.cache.len").unwrap() >= 4.0);
    });
}

#[test]
fn cached_answer_is_bit_identical_to_cold_evaluation_for_every_table2_app() {
    let mut svc = CampaignService::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    for app in exa_apps::table2_applications() {
        let name = app.name();
        let text = vec![format!("app={name} machine=Frontier")];
        let cold_results = svc.run_batch(&text);
        assert_eq!(
            cold_results[0].status,
            CacheStatus::Miss,
            "{name}: first query evaluates"
        );
        let warm_results = svc.run_batch(&text);
        assert_eq!(
            warm_results[0].status,
            CacheStatus::Hit,
            "{name}: second query hits"
        );
        let cold = cold_results[0].answer.as_ref().unwrap();
        let warm = warm_results[0].answer.as_ref().unwrap();
        assert_eq!(
            cold, warm,
            "{name}: cached answer differs from the evaluated one"
        );
        // And both match a direct evaluation outside the service.
        let direct =
            exa_apps::query::evaluate_query(name, "Frontier", 0, &[], "").expect("evaluates");
        assert_eq!(
            direct.fom_value.to_bits(),
            warm.fom_value.to_bits(),
            "{name}: service answer differs from direct evaluation"
        );
        assert_eq!(direct.wall_s.to_bits(), warm.wall_s.to_bits());
    }
}

#[test]
fn slo_drill_flips_the_drilled_app_to_fail_and_names_it() {
    // Epochs use cache-busting dead knobs (matching no span) so every
    // query actually evaluates; the drill slows CoMet's wall clock ~33x
    // without touching its virtual answer.
    let mut svc = CampaignService::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let apps = ["CoMet", "LSMS"];
    let mut p99s: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for epoch in 0..5 {
        for app in apps {
            for rep in 0..8 {
                let q = vec![format!(
                    "app={app} machine=Frontier knob:__epoch{epoch}_{rep}=1.0"
                )];
                let r = svc.run_batch(&q);
                assert_eq!(r[0].status, CacheStatus::Miss);
            }
        }
        for (app, hist) in svc.take_epoch() {
            p99s.entry(app).or_default().push(hist.p99());
        }
    }
    svc.set_drill(Some(SloDrill {
        app: "CoMet".into(),
        extra_evals: 32,
    }));
    for app in apps {
        for rep in 0..8 {
            let q = vec![format!("app={app} machine=Frontier knob:__drill_{rep}=1.0")];
            svc.run_batch(&q);
        }
    }
    let drilled = svc.take_epoch();
    let config = SloConfig::default();
    let comet_prior = &p99s["CoMet"];
    let pre = check_slo(
        "CoMet",
        &comet_prior[..comet_prior.len() - 1],
        *comet_prior.last().unwrap(),
        &config,
    );
    assert_ne!(
        pre.verdict,
        Verdict::Fail,
        "baseline epochs must not trip the SLO"
    );
    let report = check_slo("CoMet", comet_prior, drilled["CoMet"].p99(), &config);
    assert_eq!(
        report.verdict,
        Verdict::Fail,
        "drill must trip the SLO: {}",
        report.summary()
    );
    assert!(
        report.summary().contains("CoMet"),
        "report names the culprit class"
    );
    let clean = check_slo("LSMS", &p99s["LSMS"], drilled["LSMS"].p99(), &config);
    assert_ne!(
        clean.verdict,
        Verdict::Fail,
        "undrilled app stays clean: {}",
        clean.summary()
    );
}

#[test]
fn trace_sampling_thins_spans_deterministically() {
    let mk = |sample| {
        let mut svc = CampaignService::new(ServeConfig {
            threads: 1,
            trace_sample: sample,
            ..ServeConfig::default()
        });
        let batch: Vec<String> = (0..16)
            .map(|i| format!("app=LSMS machine=Summit nodes={}", i + 1))
            .collect();
        svc.run_batch(&batch);
        svc.chrome_trace()
    };
    let full = mk(1);
    let sampled = mk(4);
    assert!(full.matches("serve LSMS").count() > sampled.matches("serve LSMS").count());
    assert_eq!(sampled, mk(4), "sampling is deterministic");
}
