//! GESTS (§3.3), executed: a data-carrying PSDNS step on the rank
//! scheduler.
//!
//! [`crate::gests`] prices the paper-scale PSDNS timestep with the costed
//! [`exa_fft::DistFft3d`]. This module *executes* a (smaller) step end to
//! end: the scalar field really is distributed over the communicator's
//! ranks, the forward transform, the spectral viscous advance and the
//! inverse transform all run through [`exa_fft::ExecutedFft3d`] on the
//! work-stealing [`RankScheduler`], and the run emits the same telemetry
//! artifacts as the costed path — a span timeline, a snapshot, and a FOM
//! ledger record with the CAAR FOM `N³ / t_wall`.
//!
//! Everything the run reports — field digest, energies, virtual wall
//! time, snapshot and trace digests, the ledger record — is bit-identical
//! at any thread count: per-rank math is interleaving-free and the
//! scheduler merges clocks and spans deterministically.

use exa_fft::{DistGrid, ExecutedFft3d, C64};
use exa_machine::{GpuModel, MachineModel, SimTime};
use exa_mpi::{Comm, Network, RankScheduler};
use exa_telemetry::{digest64, FomKind, FomRecord, SpanCat, TelemetryCollector};

/// One executed DNS step configuration.
#[derive(Debug, Clone)]
pub struct DnsStep {
    /// Grid size N (N³ points). Power of two keeps every line on the
    /// power-of-two kernel.
    pub n: usize,
    /// Simulated MPI ranks (`≤ N²`, the Pencils bound).
    pub ranks: usize,
    /// Timestep.
    pub dt: f64,
    /// Kinematic viscosity of the spectral advance.
    pub viscosity: f64,
}

impl DnsStep {
    /// The executed milestone run: 1024 ranks on a 64³ grid — the rank
    /// count real Pencils decompositions reach at this grid size
    /// (`1024 ≤ 64² = 4096`).
    pub fn step_1024() -> Self {
        DnsStep {
            n: 64,
            ranks: 1024,
            dt: 5e-4,
            viscosity: 0.025,
        }
    }
}

/// Everything an executed DNS step reports. `PartialEq` so determinism
/// tests can assert whole-run equality across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsStepResult {
    /// `Σ|u|²` before the step (rank-ordered reduction).
    pub energy_before: f64,
    /// `Σ|u|²` after the step — strictly smaller (viscous decay).
    pub energy_after: f64,
    /// FNV-1a digest of the final field's exact bit pattern.
    pub field_digest: String,
    /// Virtual wall time of the step.
    pub elapsed: SimTime,
    /// Digest of the run's telemetry snapshot JSON.
    pub snapshot_digest: String,
    /// Digest of the run's Chrome trace.
    pub trace_digest: String,
}

/// FNV-1a over the exact bit patterns of a complex field.
fn field_digest(data: &[C64]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for z in data {
        eat(z.re.to_bits());
        eat(z.im.to_bits());
    }
    format!("{h:016x}")
}

/// Deterministic initial condition: a band of low-wavenumber modes with
/// splitmix-derived phases, built in physical space.
fn initial_field(n: usize) -> Vec<C64> {
    use std::f64::consts::PI;
    let mut s: u64 = 0x9e3779b97f4a7c15;
    let mut unit = || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let modes: Vec<(f64, f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                unit() * 3.0 + 1.0,
                unit() * 3.0 + 1.0,
                unit() * 3.0 + 1.0,
                unit() * 2.0 * PI,
            )
        })
        .collect();
    let mut field = vec![C64::ZERO; n * n * n];
    for i0 in 0..n {
        for i1 in 0..n {
            for i2 in 0..n {
                let mut v = 0.0;
                for &(k0, k1, k2, ph) in &modes {
                    let arg = 2.0 * PI * (k0 * i0 as f64 + k1 * i1 as f64 + k2 * i2 as f64)
                        / n as f64
                        + ph;
                    v += arg.sin();
                }
                field[(i0 * n + i1) * n + i2] = C64::new(v, 0.0);
            }
        }
    }
    field
}

/// `|k|` of grid index `i` on an `n`-periodic axis (the signed
/// wavenumber is `i` up to `n/2` and `i - n` above).
fn wavenumber_abs(i: usize, n: usize) -> usize {
    if i <= n / 2 {
        i
    } else {
        n - i
    }
}

/// Integrating-factor decay `e^{-ν |k|² dt}` for every `|k|² = k0² + k1²
/// + k2²` of an `n³` grid, indexed by `|k|²`. That sum is an exact
/// integer of at most `3·(n/2)²`, so `|k|² as f64` is exactly the f64 sum
/// of squared wavenumbers and each entry is the per-point factor bit for
/// bit, at one `exp` per distinct `|k|²` instead of one per point.
fn decay_table(n: usize, nu: f64, dt: f64) -> Vec<f64> {
    let kmax = n / 2;
    (0..=3 * kmax * kmax)
        .map(|k2sum| (-nu * k2sum as f64 * dt).exp())
        .collect()
}

/// Spectral viscous advance `û *= e^{-ν k² dt}` in the post-forward
/// layout: lines run along axis 0 and line index is `i1·n + i2`, so one
/// pass over each rank's lines sees every `(k0, k1, k2)` it owns.
fn spectral_advance(
    sched: &RankScheduler,
    comm: &mut Comm,
    gpu: &GpuModel,
    cfg: &DnsStep,
    grid: &mut DistGrid,
) {
    // ~10 flops/point against the GPU's vector peak.
    let n = cfg.n;
    let decay_time =
        SimTime::from_secs(10.0 * (n * n * n) as f64 / (cfg.ranks as f64 * gpu.peak_f64 * 0.2));
    let split_base = (n * n) / cfg.ranks;
    let split_rem = (n * n) % cfg.ranks;
    let decay = decay_table(n, cfg.viscosity, cfg.dt);
    let sq = |i: usize| wavenumber_abs(i, n).pow(2);
    sched.compute_phase(comm, grid_parts(grid), |ctx, part| {
        let r = ctx.rank();
        let start = r * split_base + r.min(split_rem);
        for (li, line) in part.chunks_mut(n).enumerate() {
            let gl = start + li;
            let k12 = sq(gl / n) + sq(gl % n);
            for (i0, z) in line.iter_mut().enumerate() {
                *z = z.scale(decay[sq(i0) + k12]);
            }
        }
        ctx.span("spectral_advance", SpanCat::Kernel, decay_time);
    });
}

/// Field energy `Σ|u|²`, reduced in rank order through the communicator
/// (so the fold order — and the bits — never depend on scheduling).
fn energy(comm: &mut Comm, grid: &DistGrid) -> f64 {
    let mut partials: Vec<Vec<f64>> = (0..grid.ranks()).map(|_| vec![0.0]).collect();
    let global = grid.gather_global();
    let per = global.len() / grid.ranks() + 1;
    for (r, chunk) in global.chunks(per).enumerate() {
        partials[r][0] = chunk.iter().map(|z| z.norm_sqr()).sum();
    }
    comm.allreduce_sum_f64(&mut partials);
    partials[0][0]
}

/// Run one executed PSDNS step; returns the result and its FOM record.
///
/// Schedule: forward transform → spectral advance (`û *= e^{-ν k² dt}`,
/// executed per rank in the spectral layout) → inverse transform.
pub fn executed_dns_step(sched: &RankScheduler, cfg: &DnsStep) -> (DnsStepResult, FomRecord) {
    let machine = MachineModel::frontier();
    let gpu = machine.node.gpu().clone();
    let collector = TelemetryCollector::shared();
    let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
    comm.attach_telemetry(&collector, "gests_dns");

    // Plan on the persisted knob table; bit-identical to the frozen plan
    // for every physics output, span, and virtual clock.
    let plan = ExecutedFft3d::tuned(cfg.n);
    let mut grid = DistGrid::from_global(cfg.n, cfg.ranks, &initial_field(cfg.n));
    let energy_before = energy(&mut comm, &grid);
    let elapsed = dns_step_window(sched, &mut comm, &gpu, &plan, cfg, &mut grid);
    let energy_after = energy(&mut comm, &grid);
    let digest = field_digest(&grid.gather_global());
    comm.absorb_telemetry();

    let snapshot_digest = digest64(&collector.snapshot().to_json());
    let trace_digest = digest64(&collector.chrome_trace());
    let wall_s = elapsed.secs();
    let record = FomRecord {
        seq: 0,
        app: "GESTS".into(),
        machine: machine.name.clone(),
        nodes: machine.nodes,
        kind: FomKind::Throughput,
        value: (cfg.n * cfg.n * cfg.n) as f64 / wall_s,
        units: "points/s".into(),
        wall_s,
        run_tag: format!("executed-{}r-{}c", cfg.ranks, cfg.n),
        scenario: String::new(),
        snapshot_digest: snapshot_digest.clone(),
        span_profile: Default::default(),
    };
    (
        DnsStepResult {
            energy_before,
            energy_after,
            field_digest: digest,
            elapsed,
            snapshot_digest,
            trace_digest,
        },
        record,
    )
}

/// Borrow the grid's per-rank parts mutably (the spectral advance runs in
/// place on whatever layout the grid is in).
fn grid_parts(grid: &mut DistGrid) -> &mut [Vec<C64>] {
    grid.parts_mut()
}

/// The step's transform window — forward transform, spectral viscous
/// advance, inverse transform — on an explicit FFT plan. Public so the
/// autotune bench can time exactly this window under the frozen and the
/// tuned plan; [`executed_dns_step`] wraps it with setup, energy
/// accounting and telemetry. Returns the window's virtual elapsed time.
pub fn dns_step_window(
    sched: &RankScheduler,
    comm: &mut Comm,
    gpu: &GpuModel,
    plan: &ExecutedFft3d,
    cfg: &DnsStep,
    grid: &mut DistGrid,
) -> SimTime {
    let t0 = comm.elapsed();
    plan.forward(sched, comm, gpu, grid);

    // Integrating-factor advance: exact for the viscous term.
    spectral_advance(sched, comm, gpu, cfg, grid);

    plan.inverse(sched, comm, gpu, grid);
    comm.elapsed() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DnsStep {
        DnsStep {
            n: 8,
            ranks: 12,
            dt: 1e-3,
            viscosity: 0.05,
        }
    }

    #[test]
    fn executed_step_decays_energy_and_reports() {
        let sched = RankScheduler::new();
        let (res, rec) = executed_dns_step(&sched, &small());
        assert!(res.energy_before > 0.0);
        assert!(
            res.energy_after < res.energy_before,
            "viscosity must dissipate energy"
        );
        assert!(
            res.energy_after > 0.5 * res.energy_before,
            "one small step, small decay"
        );
        assert!(res.elapsed > SimTime::ZERO);
        assert_eq!(rec.app, "GESTS");
        assert!(rec.value > 0.0);
        assert_eq!(rec.snapshot_digest, res.snapshot_digest);
    }

    #[test]
    fn executed_step_is_thread_count_invariant() {
        let run = |threads| executed_dns_step(&RankScheduler::with_threads(threads), &small());
        let (r1, f1) = run(1);
        for threads in [2, 4] {
            let (rn, fn_) = run(threads);
            assert_eq!(r1, rn, "result differs at {threads} threads");
            assert_eq!(f1.value.to_bits(), fn_.value.to_bits());
            assert_eq!(f1.wall_s.to_bits(), fn_.wall_s.to_bits());
            assert_eq!(f1.identity(), fn_.identity());
        }
    }

    #[test]
    fn table_advance_is_bitwise_the_per_point_expression() {
        let cfg = DnsStep { n: 16, ..small() };
        let n = cfg.n;
        let sched = RankScheduler::new();
        let machine = MachineModel::frontier();
        let gpu = machine.node.gpu().clone();
        let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
        let mut grid = DistGrid::from_global(n, cfg.ranks, &initial_field(n));
        ExecutedFft3d::new(n).forward(&sched, &mut comm, &gpu, &mut grid);
        let mut want = grid.gather_global();
        spectral_advance(&sched, &mut comm, &gpu, &cfg, &mut grid);
        // The advance as a per-point expression on the canonical array.
        let k = |i: usize| {
            if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            }
        };
        for i0 in 0..n {
            for i1 in 0..n {
                for i2 in 0..n {
                    let (k0, k1, k2) = (k(i0), k(i1), k(i2));
                    let k2sum = k0 * k0 + k1 * k1 + k2 * k2;
                    let z = &mut want[(i0 * n + i1) * n + i2];
                    *z = z.scale((-cfg.viscosity * k2sum * cfg.dt).exp());
                }
            }
        }
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        assert_eq!(bits(&grid.gather_global()), bits(&want));
    }

    #[test]
    fn milestone_configuration_is_executable_at_scale() {
        // The 1024-rank milestone really runs (the bench times it against
        // its wall budget; here we assert shape and determinism hooks).
        let cfg = DnsStep::step_1024();
        assert!(cfg.ranks <= cfg.n * cfg.n, "Pencils bound p <= N^2");
        assert!(cfg.n.is_power_of_two());
    }
}
