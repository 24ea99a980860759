//! Data-parallel host execution of kernel bodies.
//!
//! The simulated GPU kernels in this repository perform their real math on
//! the host. For large arrays the helpers fan work out onto the persistent
//! work-stealing pool (the vendored `workpool` crate — workers are spawned
//! once per process, not per call); below a threshold the sequential path
//! avoids fork/join overhead entirely.
//!
//! **Determinism contract:** results are bit-identical for any thread
//! count. The block decomposition ([`block_ranges`]) depends only on
//! `(n, min_len)` — never on `num_threads()` — and reduction partials are
//! folded in block order, so floating-point rounding does not shift when
//! `EXA_THREADS` changes. The pool merely executes the fixed blocks in an
//! arbitrary interleaving.
//!
//! Tuning knobs:
//! * [`PAR_THRESHOLD`] — compile-time default for the sequential cutoff;
//!   override per process with the `EXA_PAR_THRESHOLD` env var (bench sweeps).
//! * `EXA_THREADS` — total execution lanes; `0` (or unset) auto-detects.
//!   The legacy `EXA_NUM_THREADS` spelling is honored as a fallback.
//! * The `*_with_min_len` variants bound task granularity, the equivalent of
//!   rayon's `with_min_len`: no task receives fewer than `min_len` items,
//!   which caps fork/join overhead for cheap per-element closures.

use std::ops::Range;
use std::sync::OnceLock;
use workpool::ThreadPool;

/// Below this many elements a sequential loop beats fork/join overhead.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Default minimum number of elements a single worker must receive; the
/// `*_with_min_len` variants override it.
pub const DEFAULT_MIN_LEN: usize = 1 << 12;

/// The active sequential cutoff: `EXA_PAR_THRESHOLD` if set, else
/// [`PAR_THRESHOLD`]. Read once per process.
pub fn par_threshold() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("EXA_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(PAR_THRESHOLD)
    })
}

/// Execution-lane count: `EXA_THREADS` (0 ⇒ auto-detect), else the legacy
/// `EXA_NUM_THREADS`, else available parallelism — the sizing of the
/// process-wide [`workpool`] pool. Read once per process.
pub fn num_threads() -> usize {
    workpool::default_threads()
}

/// The process-wide persistent pool every `par_*` helper fans out onto.
fn pool() -> &'static ThreadPool {
    ThreadPool::global()
}

/// Attach a fresh [`PoolTelemetry`](exa_telemetry::PoolTelemetry) observer
/// to the process-wide pool and return it. Every subsequent `par_*` fan-out
/// (from any thread) is recorded — per-lane task intervals, steal traffic,
/// inject backlog — until [`unobserve_global_pool`] detaches it. The
/// accumulated activity only reaches a collector when the caller `land`s
/// it, so simulation outputs stay byte-identical while observed.
pub fn observe_global_pool() -> std::sync::Arc<exa_telemetry::PoolTelemetry> {
    let obs = std::sync::Arc::new(exa_telemetry::PoolTelemetry::new());
    ThreadPool::global().set_observer(Some(obs.clone()));
    obs
}

/// Detach whatever observer [`observe_global_pool`] attached.
pub fn unobserve_global_pool() {
    ThreadPool::global().set_observer(None);
}

/// Upper bound on how many blocks one helper call decomposes into. A
/// constant (rather than `num_threads()`) so the decomposition — and with
/// it every floating-point fold order — is identical for any thread
/// count; 64 blocks keep the pool fed well past any realistic lane count
/// while the per-block closure cost stays amortized by `min_len`.
const MAX_BLOCKS: usize = 64;

/// The deterministic block decomposition [`par_scatter_blocks`] uses for a
/// given `(n, min_len)` — public so multi-phase algorithms (histogram →
/// offsets → scatter, the radix-sort shape) can precompute per-block state
/// that lines up exactly with the scatter's blocks. Returns a single
/// `0..n` block when `n` is below [`par_threshold`], matching the scatter's
/// serial fallback. Depends only on `(n, min_len)`, never on the thread
/// count — see the module-level determinism contract.
pub fn block_ranges(n: usize, min_len: usize) -> Vec<Range<usize>> {
    if n < par_threshold() {
        return std::iter::once(0..n).collect();
    }
    blocks(n, min_len)
}

/// Split `0..n` into at most [`MAX_BLOCKS`] ranges of at least `min_len`
/// items each. Thread-count-independent by construction.
fn blocks(n: usize, min_len: usize) -> Vec<Range<usize>> {
    let min_len = min_len.max(1);
    let nblocks = (n / min_len).clamp(1, MAX_BLOCKS);
    let base = n / nblocks;
    let extra = n % nblocks;
    let mut out = Vec::with_capacity(nblocks);
    let mut start = 0;
    for w in 0..nblocks {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Fan `data` out over pool tasks as disjoint contiguous subslices;
/// `f(base_index, subslice)` runs once per block, the tail on the caller.
fn par_split_mut<T, F>(data: &mut [T], min_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let ranges = blocks(data.len(), min_len);
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    pool().scope(|s| {
        let f = &f;
        let mut rest = data;
        let mut base = 0;
        let last = ranges.len() - 1;
        for r in &ranges[..last] {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let b = base;
            base += head.len();
            s.spawn(move || f(b, head));
        }
        f(base, rest);
    });
}

/// Elementwise in-place transform: `data[i] = f(i, data[i])`.
pub fn par_map_inplace<T, F>(data: &mut [T], f: F)
where
    T: Send + Copy,
    F: Fn(usize, T) -> T + Sync,
{
    par_map_inplace_with_min_len(data, DEFAULT_MIN_LEN, f);
}

/// [`par_map_inplace`] with an explicit minimum per-worker task length.
pub fn par_map_inplace_with_min_len<T, F>(data: &mut [T], min_len: usize, f: F)
where
    T: Send + Copy,
    F: Fn(usize, T) -> T + Sync,
{
    if data.len() < par_threshold() {
        for (i, x) in data.iter_mut().enumerate() {
            *x = f(i, *x);
        }
        return;
    }
    par_split_mut(data, min_len, |base, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = f(base + k, *x);
        }
    });
}

/// Parallel fill from an index function: `out[i] = f(i)`.
pub fn par_fill<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if out.len() < par_threshold() {
        for (i, x) in out.iter_mut().enumerate() {
            *x = f(i);
        }
        return;
    }
    par_split_mut(out, DEFAULT_MIN_LEN, |base, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = f(base + k);
        }
    });
}

/// Parallel associative reduction over an index range.
pub fn par_reduce<T, F, R>(n: usize, identity: T, f: F, reduce: R) -> T
where
    T: Send + Sync + Copy,
    F: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    par_reduce_with_min_len(n, DEFAULT_MIN_LEN, identity, f, reduce)
}

/// [`par_reduce`] with an explicit minimum per-worker task length.
pub fn par_reduce_with_min_len<T, F, R>(n: usize, min_len: usize, identity: T, f: F, reduce: R) -> T
where
    T: Send + Sync + Copy,
    F: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    if n < par_threshold() {
        return (0..n).fold(identity, |acc, i| reduce(acc, f(i)));
    }
    let ranges = blocks(n, min_len);
    if ranges.len() <= 1 {
        return (0..n).fold(identity, |acc, i| reduce(acc, f(i)));
    }
    // Partials land in block order and are folded in block order: the
    // rounding of the final fold is fixed by (n, min_len) alone.
    let mut partials = vec![identity; ranges.len()];
    pool().scope(|s| {
        for (slot, r) in partials.iter_mut().zip(ranges) {
            let f = &f;
            let reduce = &reduce;
            s.spawn(move || *slot = r.fold(identity, |acc, i| reduce(acc, f(i))));
        }
    });
    partials.into_iter().fold(identity, reduce)
}

/// Unrolled sum of one block: four independent accumulator lanes (so the
/// compiler can keep four adds in flight / vectorize), lanes combined
/// pairwise, then the `len % 4` tail. The rounding is a pure function of
/// the slice — no thread count, no chunking.
fn sum_lanes4(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut quads = x.chunks_exact(4);
    for q in quads.by_ref() {
        acc[0] += q[0];
        acc[1] += q[1];
        acc[2] += q[2];
        acc[3] += q[3];
    }
    let mut tail = 0.0;
    for &v in quads.remainder() {
        tail += v;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Parallel sum of an `f64` slice with a vectorization-friendly inner
/// loop: each block is summed by [`sum_lanes4`] (four-lane unrolled, no
/// loop-carried serial add chain), block partials folded in block order.
/// Bit-identical at any thread count.
pub fn par_sum_f64(data: &[f64]) -> f64 {
    if data.len() < par_threshold() {
        return sum_lanes4(data);
    }
    let ranges = blocks(data.len(), DEFAULT_MIN_LEN);
    if ranges.len() <= 1 {
        return sum_lanes4(data);
    }
    let mut partials = vec![0.0f64; ranges.len()];
    pool().scope(|s| {
        for (slot, r) in partials.iter_mut().zip(ranges) {
            let block = &data[r];
            s.spawn(move || *slot = sum_lanes4(block));
        }
    });
    partials.into_iter().fold(0.0, |acc, p| acc + p)
}

/// Run `f(chunk_index, chunk)` over disjoint mutable chunks in parallel —
/// the shape of a "one thread block per tile" kernel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if data.len() < par_threshold() {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let nchunks = data.len().div_ceil(chunk);
    let ranges = blocks(nchunks, 1);
    if ranges.len() <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    pool().scope(|s| {
        let f = &f;
        let mut rest = data;
        let last = ranges.len() - 1;
        for (w, r) in ranges.iter().enumerate() {
            let elems = (r.len() * chunk).min(rest.len());
            let (head, tail) = rest.split_at_mut(elems);
            rest = tail;
            let c0 = r.start;
            if w < last {
                s.spawn(move || {
                    for (k, c) in head.chunks_mut(chunk).enumerate() {
                        f(c0 + k, c);
                    }
                });
            } else {
                for (k, c) in head.chunks_mut(chunk).enumerate() {
                    f(c0 + k, c);
                }
            }
        }
    });
}

/// Parallel map into a fresh `Vec`: `out[i] = f(i)`. Meant for coarse-grained
/// batched work (each item a whole matrix factorization, say), so it
/// parallelizes for any `n > 1` instead of gating on [`par_threshold`].
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let ranges = blocks(n, 1);
    if ranges.len() <= 1 {
        return (0..n).map(&f).collect();
    }
    let mut parts: Vec<Vec<T>> = Vec::new();
    parts.resize_with(ranges.len(), Vec::new);
    pool().scope(|s| {
        for (slot, r) in parts.iter_mut().zip(ranges) {
            let f = &f;
            s.spawn(move || *slot = r.map(f).collect::<Vec<T>>());
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Block-parallel scatter. The source index range `0..n` is split into
/// blocks; for each block, `f(block_index, index_range, emit)` runs once and
/// may call `emit(pos, value)` to write `dst[pos] = value`.
///
/// This is the stable-radix-sort scatter shape: each block walks its source
/// slice in order and emits to destination cursors it owns. The caller must
/// guarantee that concurrent blocks emit to **disjoint** destination
/// positions (e.g. a permutation partitioned by block); positions are
/// bounds-checked, disjointness is the caller's contract.
pub fn par_scatter_blocks<T, F>(dst: &mut [T], n: usize, min_len: usize, f: F)
where
    T: Send + Sync,
    F: Fn(usize, Range<usize>, &mut dyn FnMut(usize, T)) + Sync,
{
    let len = dst.len();
    if n < par_threshold() {
        let mut emit = |pos: usize, val: T| {
            assert!(pos < len, "scatter position {pos} out of bounds ({len})");
            dst[pos] = val;
        };
        f(0, 0..n, &mut emit);
        return;
    }
    let ranges = blocks(n, min_len);
    if ranges.len() <= 1 {
        let mut emit = |pos: usize, val: T| {
            assert!(pos < len, "scatter position {pos} out of bounds ({len})");
            dst[pos] = val;
        };
        f(0, 0..n, &mut emit);
        return;
    }
    struct SendPtr<T>(*mut T);
    unsafe impl<T: Send> Send for SendPtr<T> {}
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    let ptr = SendPtr(dst.as_mut_ptr());
    pool().scope(|s| {
        let f = &f;
        let ptr = &ptr;
        for (bi, r) in ranges.into_iter().enumerate() {
            s.spawn(move || {
                let mut emit = |pos: usize, val: T| {
                    assert!(pos < len, "scatter position {pos} out of bounds ({len})");
                    // SAFETY: pos is in bounds (checked above) and the caller
                    // guarantees concurrent blocks emit disjoint positions.
                    unsafe { ptr.0.add(pos).write(val) };
                };
                f(bi, r, &mut emit);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_inplace_small_and_large_agree() {
        let n = PAR_THRESHOLD * 2;
        let mut big: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut small: Vec<f64> = big[..100].to_vec();
        par_map_inplace(&mut big, |i, x| x * 2.0 + i as f64);
        par_map_inplace(&mut small, |i, x| x * 2.0 + i as f64);
        assert_eq!(&big[..100], &small[..]);
        assert_eq!(big[n - 1], (n - 1) as f64 * 3.0);
    }

    #[test]
    fn global_pool_observer_sees_par_fanout_without_touching_results() {
        let obs = observe_global_pool();
        let n = PAR_THRESHOLD * 4;
        let mut v = vec![0.0f64; n];
        par_fill(&mut v, |i| i as f64);
        let sum = par_sum_f64(&v);
        unobserve_global_pool();
        assert_eq!(sum, (0..n).map(|i| i as f64).sum::<f64>());
        assert!(obs.tasks() > 0, "fan-out above threshold must be observed");
        assert!(obs.busy_ns() > 0);
        // Landing into a private collector yields worker tracks whose busy
        // time matches the observer's accumulator.
        let collector = exa_telemetry::TelemetryCollector::new();
        let busy = obs.land(&collector, "exec");
        let snap = collector.snapshot();
        let track_busy: f64 = snap
            .tracks
            .iter()
            .filter(|t| t.kind == "worker")
            .map(|t| t.busy_s)
            .sum();
        assert!((track_busy - busy as f64 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn fill_matches_index_function() {
        let mut v = vec![0u64; PAR_THRESHOLD * 2];
        par_fill(&mut v, |i| (i * i) as u64);
        assert_eq!(v[123], 123 * 123);
        assert_eq!(
            v[PAR_THRESHOLD + 7],
            ((PAR_THRESHOLD + 7) * (PAR_THRESHOLD + 7)) as u64
        );
    }

    #[test]
    fn reduce_sums_correctly_both_paths() {
        let small = par_reduce(100, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(small, 4950);
        let n = PAR_THRESHOLD * 2;
        let big = par_reduce(n, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(big, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn chunks_cover_everything_once() {
        let n = PAR_THRESHOLD * 2 + 17;
        let mut v = vec![0u32; n];
        par_chunks_mut(&mut v, 1000, |_, c| {
            for x in c {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_match_sequential_order() {
        let n = PAR_THRESHOLD * 3 + 5;
        let mut v = vec![0usize; n];
        par_chunks_mut(&mut v, 64, |ci, c| {
            for x in c.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 64);
        }
    }

    #[test]
    fn min_len_variants_agree_with_defaults() {
        let n = PAR_THRESHOLD * 2;
        let mut a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = a.clone();
        par_map_inplace(&mut a, |i, x| x + i as f64);
        par_map_inplace_with_min_len(&mut b, 1 << 16, |i, x| x + i as f64);
        assert_eq!(a, b);
        let r1 = par_reduce(n, 0u64, |i| i as u64, |x, y| x + y);
        let r2 = par_reduce_with_min_len(n, 1, 0u64, |i| i as u64, |x, y| x + y);
        assert_eq!(r1, r2);
    }

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(PAR_THRESHOLD + 3, |i| i * 2);
        assert_eq!(v.len(), PAR_THRESHOLD + 3);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn scatter_blocks_permute_correctly() {
        // Reverse permutation via scatter, large enough to go parallel.
        let n = PAR_THRESHOLD * 2;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0u64; n];
        par_scatter_blocks(&mut dst, n, 1 << 10, |_b, range, emit| {
            for i in range {
                emit(n - 1 - i, src[i]);
            }
        });
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, (n - 1 - i) as u64);
        }
    }

    #[test]
    fn threshold_and_threads_are_positive() {
        assert!(par_threshold() > 0);
        assert!(num_threads() > 0);
    }

    #[test]
    fn reduce_fold_order_is_blockwise_and_bit_exact() {
        // The determinism contract: a parallel fp reduction equals the
        // sequential fold over block_ranges partials, bit for bit — the
        // pool's interleaving can never shift rounding.
        let n = PAR_THRESHOLD * 2 + 123;
        let f = |i: usize| ((i.wrapping_mul(2654435761)) % 1000) as f64 * 1e-3 - 0.4;
        let got = par_reduce(n, 0.0f64, f, |a, b| a + b);
        let mut expect = 0.0f64;
        for r in block_ranges(n, DEFAULT_MIN_LEN) {
            expect += r.fold(0.0f64, |acc, i| acc + f(i));
        }
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn block_decomposition_ignores_thread_count() {
        // block_ranges is a pure function of (n, min_len): at most
        // MAX_BLOCKS blocks, covering 0..n exactly, each >= min_len.
        let n = PAR_THRESHOLD * 5 + 7;
        let ranges = block_ranges(n, 1 << 10);
        assert!(ranges.len() <= MAX_BLOCKS);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() >= 1 << 10));
    }

    #[test]
    fn par_sum_is_lane_exact_and_accurate() {
        // Small (sequential path) and large (pooled path) slices: the
        // result must equal the blockwise lane-unrolled reference bit for
        // bit, and the plain sum to tolerance.
        for n in [0, 1, 5, 1000, PAR_THRESHOLD * 3 + 17] {
            let data: Vec<f64> = (0..n)
                .map(|i| ((i.wrapping_mul(2654435761)) % 997) as f64 * 1e-3 - 0.45)
                .collect();
            let got = par_sum_f64(&data);
            let mut expect = 0.0f64;
            if data.len() >= par_threshold() && block_ranges(n, DEFAULT_MIN_LEN).len() > 1 {
                for r in block_ranges(n, DEFAULT_MIN_LEN) {
                    expect += sum_lanes4(&data[r]);
                }
            } else {
                expect = sum_lanes4(&data);
            }
            assert_eq!(got.to_bits(), expect.to_bits(), "n = {n}");
            let naive: f64 = data.iter().sum();
            assert!((got - naive).abs() < 1e-9 * naive.abs().max(1.0), "n = {n}");
        }
    }
}
