//! The repository benchmark: four executed workloads driven through the
//! public APIs of `exa-apps`, `exa-fft`, `exa-mpi` and `exa-serve`, one
//! workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dns_window|pele_chem|serve_warm|serve_cold> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the program reads the checked-in
//! `TUNED.json` from there. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`) holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); every metric is also printed to standard error by name
//! with its unit, followed by the run record. The traced run writes its
//! spans, and every run its record, under `perfbench/out/`.

mod dns;
mod gen;
mod harness;
mod host;
mod pele;
mod serve;
mod spans;
mod stats;

use harness::{Ctx, Report};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "items/s"),
    ("step_p50_s", "s"),
    ("step_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("fft.lines_s", "s"),
    ("fft.lines_gflops", "GFLOP/s"),
    ("fft.lines_frac_peak", "ratio"),
    ("fft.forward_s", "s"),
    ("fft.inverse_s", "s"),
    ("fft.transpose_s", "s"),
    ("fft.transpose_gbs", "GB/s"),
    ("fft.transpose_frac_bw", "ratio"),
    ("gests.advance_s", "s"),
    ("mpi.sched.phase_s", "s"),
    ("mpi.sched.phases_per_step", "count"),
    ("mpi.comm.bytes_per_step", "B"),
    ("mpi.comm.msgs_per_step", "count"),
    ("mpi.comm.collectives_per_step", "count"),
    ("model.virtual_s", "model_s"),
    ("workpool.cpu_per_wall", "ratio"),
    ("fft.parallel_eff", "ratio"),
    ("pele.parallel_eff", "ratio"),
    ("pele.bdf1_us", "us"),
    ("pele.newton_per_cell_step", "count"),
    ("telemetry.snapshot_s", "s"),
    ("telemetry.trace_s", "s"),
    ("telemetry.spans", "count"),
    ("serve.parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.evictions", "count"),
    ("serve.eval_p50_s", "s"),
    ("serve.eval_tail_s", "s"),
    ("serve.batch_residual_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("host.copy_gbs", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

const WORKLOADS: [&str; 4] = ["dns_window", "pele_chem", "serve_warm", "serve_cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: u32 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number".to_string())?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if let Some(extra) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

/// Pin the environment users run with: `EXA_THREADS` = nproc, no knob
/// overrides, and the checked-in `TUNED.json` of the working directory.
/// Must run before any thread exists.
fn pin_environment() -> Result<(usize, String), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (key, _) in std::env::vars() {
        if key.starts_with("EXA_TUNE_") || key == "EXA_TUNED" || key == "EXA_NUM_THREADS" {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("EXA_THREADS", nproc.to_string());
    let tuned = std::fs::read("TUNED.json").map_err(|e| {
        format!(
            "TUNED.json not readable in the working directory ({e}); run from the repository root"
        )
    })?;
    Ok((nproc, host::fnv64(&tuned)))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value must be finite, got {x}");
    format!("{x:?}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (nproc, tuned_digest) = match pin_environment() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = workpool::default_threads();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        spans: Spans::new(),
    };
    let report = match args.workload.as_str() {
        "dns_window" => dns::run(&mut ctx),
        "pele_chem" => pele::run(&mut ctx),
        "serve_warm" => serve::run(&mut ctx, serve::Mode::Warm),
        "serve_cold" => serve::run(&mut ctx, serve::Mode::Cold),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    // Read before the ceiling probe allocates its arrays.
    let peak_rss = host::peak_rss_mib();
    finish(&args, &mut ctx, report, peak_rss, nproc, &tuned_digest);
    ExitCode::SUCCESS
}

fn finish(
    args: &Args,
    ctx: &mut Ctx,
    report: Report,
    peak_rss: f64,
    nproc: usize,
    tuned_digest: &str,
) {
    let steps = &report.steps;
    let tail = stats::tail(&steps.walls).expect("every loop runs more than ten steps");
    let cpu_per_wall = steps.cpu_s / (steps.timed_wall() * ctx.threads as f64);
    let e2e: BTreeMap<&str, f64> = [
        ("throughput", steps.throughput()),
        ("step_p50_s", stats::median(&steps.walls)),
        ("step_tail_s", tail.value),
        ("setup_s", stats::median(&report.setup_s)),
        ("peak_rss_mib", peak_rss),
    ]
    .into_iter()
    .collect();

    let mut record: Vec<(&str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("nproc", nproc.to_string()),
        (
            "exa_threads",
            json_str(&std::env::var("EXA_THREADS").unwrap_or_default()),
        ),
        ("sched_threads", ctx.threads.to_string()),
        ("serve_threads", ctx.threads.to_string()),
        ("tuned_json_fnv64", json_str(tuned_digest)),
        ("workpool.cpu_per_wall", json_num(cpu_per_wall)),
        ("steps", steps.walls.len().to_string()),
        ("step_tail_pct", json_num(tail.pct)),
        ("step_tail_beyond", tail.beyond.to_string()),
        ("setup_reps_s", format!("{:?}", report.setup_s)),
        ("attempted", report.tally.attempted.to_string()),
        ("failed", report.tally.failed.to_string()),
        ("failed_frac", json_num(report.tally.failed_frac())),
    ];
    for (k, v) in &report.notes {
        record.push((k, json_str(v)));
    }

    let mut layers: BTreeMap<&str, f64> = report.layers.iter().copied().collect();
    if ctx.trace {
        let ceiling = host::ceiling(ctx.threads);
        let (copy, fma) = (ceiling.copy_gbs.median, ceiling.fma_gflops.median);
        layers.insert("host.copy_gbs", copy);
        layers.insert("host.fma_gflops", fma);
        if let Some(g) = layers.get("fft.lines_gflops").copied() {
            layers.insert("fft.lines_frac_peak", g / fma);
        }
        if let Some(b) = layers.get("fft.transpose_gbs").copied() {
            layers.insert("fft.transpose_frac_bw", b / copy);
        }
        layers.insert("workpool.cpu_per_wall", cpu_per_wall);
        layers.insert("trace.overhead_frac", steps.trace_overhead());
        layers.insert("failed_frac", report.tally.failed_frac());
        record.extend([
            (
                "host.copy_gbs_iqr_frac",
                json_num(ceiling.copy_gbs.iqr_frac),
            ),
            ("host.copy_reps", ceiling.copy_gbs.reps.to_string()),
            (
                "host.copy_array_bytes",
                ceiling.copy_array_bytes.to_string(),
            ),
            ("host.llc_bytes", ceiling.llc_bytes.to_string()),
            (
                "host.fma_gflops_iqr_frac",
                json_num(ceiling.fma_gflops.iqr_frac),
            ),
            ("host.fma_kernel", json_str(ceiling.fma_kernel)),
            (
                "layers_not_exercised",
                json_str(
                    &PER_LAYER
                        .iter()
                        .filter(|(n, _)| !layers.contains_key(n))
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ),
        ]);
    }

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}_seed{}_trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(&out).expect("create perfbench/out");
    if ctx.trace {
        std::fs::write(out.join(format!("{stem}_spans.json")), ctx.spans.to_json())
            .expect("write the span file");
        for (name, l) in ctx.spans.layers() {
            eprintln!(
                "  span {name:<34} n={:<6} self {:>10.6} s  step share {:.4}",
                l.count, l.self_s, l.step_share
            );
        }
    }
    std::fs::write(
        out.join(format!("{stem}_record.json")),
        record_json(&record) + "\n",
    )
    .expect("write the run record");

    eprintln!(
        "== {} seed {} ({} steps)",
        args.workload,
        args.seed,
        steps.walls.len()
    );
    for (name, unit) in END_TO_END {
        eprintln!("  {name:<32} {:>16.6} {unit}", e2e[name]);
    }
    eprintln!(
        "  {:<32} {:>16.6} ratio",
        "failed_frac",
        report.tally.failed_frac()
    );
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<32} {v:>16.6} {unit}");
        }
    }
    eprintln!("record {}", record_json(&record));

    let (table, values): (&[(&str, &str)], _) = if ctx.trace {
        (&PER_LAYER, &layers)
    } else {
        (&END_TO_END, &e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
}

fn record_json(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload pele_chem --seed 3 --seconds 5 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pele_chem", 3, 5.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload dns_window --seed x --seconds 1 --trace 0",
            "--workload dns_window --seed 1 --seconds 0 --trace 0",
            "--workload dns_window --seed 1 --seconds 1 --trace 2",
            "--workload dns_window --seed 1 --seconds 1",
            "--workload dns_window --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = text.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }
}
