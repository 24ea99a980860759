//! What the benchmark reads about its host: peak memory, process CPU
//! time, a fingerprint for the run record, and the measured copy and FMA
//! ceilings the per-layer rates are compared against.

use crate::stats::{iqr_frac, median};
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` (Linux `USER_HZ`, fixed
/// at 100 by the x86-64 ABI).
const USER_HZ: f64 = 100.0;

fn proc_status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").expect("/proc/self/status reports VmHWM") / 1024.0
}

/// User + system CPU seconds of the whole process (every thread), from
/// `/proc/self/stat`. Resolution is one clock tick; summed over many
/// steps the tick error averages out.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks / USER_HZ
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache cpu0 reports through sysfs, bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let (digits, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1u64 << 10),
            'M' => (&size[..size.len() - 1], 1 << 20),
            'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let bytes = digits.parse::<u64>().ok()? * mult;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// A measured rate with its spread over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    pub median: f64,
    pub iqr_frac: f64,
    pub reps: usize,
}

fn rate(samples: &[f64]) -> Rate {
    Rate {
        median: median(samples),
        iqr_frac: iqr_frac(samples),
        reps: samples.len(),
    }
}

/// The host ceilings the per-layer rates are divided by.
#[derive(Debug, Clone)]
pub struct Ceiling {
    /// Copy bandwidth over `threads` threads, GB/s (read + write bytes).
    pub copy_gbs: Rate,
    /// Bytes per copy array.
    pub copy_array_bytes: u64,
    /// Last-level cache the array size was derived from.
    pub llc_bytes: u64,
    /// Single-core fused multiply-add rate, GFLOP/s.
    pub fma_gflops: Rate,
    /// Which FMA kernel ran.
    pub fma_kernel: &'static str,
}

const CEILING_REPS: usize = 5;
/// Fallback LLC size when sysfs reports none.
const DEFAULT_LLC: u64 = 64 << 20;

/// Measure copy bandwidth on arrays of at least four times the LLC, and
/// single-core FMA throughput.
pub fn ceiling(threads: usize) -> Ceiling {
    let llc = llc_bytes().unwrap_or(DEFAULT_LLC);
    let bytes = 4 * llc;
    let len = (bytes / 8) as usize;
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let copy = |dst: &mut [f64]| {
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
    };
    copy(&mut dst); // first touch of the destination pages
    let copy_gbs: Vec<f64> = (0..CEILING_REPS)
        .map(|_| {
            let t = Instant::now();
            copy(black_box(&mut dst));
            2.0 * bytes as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    assert_eq!(dst[len - 1], src[len - 1], "copy probe moved the data");
    drop((src, dst));

    let (fma_kernel, flops_per_call, kernel): (_, f64, fn(u64) -> f64) = fma_kernel();
    let iters = 20_000_000u64;
    let fma_gflops: Vec<f64> = (0..CEILING_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(iters)));
            flops_per_call * iters as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    Ceiling {
        copy_gbs: rate(&copy_gbs),
        copy_array_bytes: bytes,
        llc_bytes: llc,
        fma_gflops: rate(&fma_gflops),
        fma_kernel,
    }
}

/// Independent accumulator chains per FMA kernel, enough to cover the
/// FMA latency × issue width.
const CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
fn fma_kernel() -> (&'static str, f64, fn(u64) -> f64) {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA, checked just above.
        let k: fn(u64) -> f64 = |n| unsafe { fma_avx2(n) };
        return ("avx2-fma", (CHAINS * 4 * 2) as f64, k);
    }
    ("scalar-mul-add", (CHAINS * 2) as f64, fma_scalar)
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_kernel() -> (&'static str, f64, fn(u64) -> f64) {
    ("scalar-mul-add", (CHAINS * 2) as f64, fma_scalar)
}

fn fma_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f64; CHAINS];
    let (a, b) = (black_box(0.999_999_9), black_box(1e-7));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

/// # Safety
/// The caller must have checked that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_pd(black_box(0.999_999_9));
    let b = _mm256_set1_pd(black_box(1e-7));
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, a, b);
        }
    }
    let mut out = [0.0f64; 4];
    let mut sum = _mm256_setzero_pd();
    for x in acc {
        sum = _mm256_add_pd(sum, x);
    }
    // SAFETY: `out` holds exactly the four f64 lanes an unaligned store writes.
    unsafe { _mm256_storeu_pd(out.as_mut_ptr(), sum) };
    out.iter().sum()
}

/// FNV-1a, 64-bit, over bytes — for the `TUNED.json` digest.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_positive_values() {
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn fma_kernels_agree() {
        let (_, _, k) = fma_kernel();
        let fast = k(1000);
        let slow = fma_scalar(1000);
        assert!((fast - 4.0 * slow).abs() / slow < 1e-9 || (fast - slow).abs() / slow < 1e-9);
    }
}
