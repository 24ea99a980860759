//! Distributed 3-D FFT with Slab and Pencil decompositions (GESTS §3.3).
//!
//! §3.3: "Two variations of the PSDNS algorithm were developed: a *Slabs*
//! 1D- and a *Pencils* 2D-domain decomposition. The *Slabs* version is more
//! efficient because it requires one fewer MPI communication cycle during
//! both the forward and inverse FFT transforms than the *Pencils* version.
//! However, for an N³ problem, the *Slabs* version is limited to N MPI
//! ranks, while the *Pencils* version has a greater upper limit of N² MPI
//! ranks."
//!
//! [`DistFft3d`] is a pricing plan: it moves no data, and charges a
//! transform's *time* per the chosen decomposition — local FFT stages on
//! each rank's device plus the transpose all-to-alls on the communicator.
//! The executed counterpart that really distributes and transforms the
//! grid is [`crate::executed::ExecutedFft3d`].

use crate::fft1d::fft_flops;
use exa_machine::{DType, GpuModel, KernelProfile, LaunchConfig, SimTime};
use exa_mpi::{Comm, Overlap};

/// Domain decomposition of the N³ grid over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// 1-D decomposition into x-planes: ≤ N ranks, one transpose per
    /// transform direction.
    Slabs,
    /// 2-D decomposition into pencils: ≤ N² ranks, two transposes.
    Pencils,
}

impl Decomp {
    /// Transposes per (forward or inverse) transform.
    pub fn transposes(self) -> usize {
        match self {
            Decomp::Slabs => 1,
            Decomp::Pencils => 2,
        }
    }

    /// Maximum usable MPI ranks for an `n³` grid.
    pub fn max_ranks(self, n: usize) -> usize {
        match self {
            Decomp::Slabs => n,
            Decomp::Pencils => n * n,
        }
    }
}

/// A distributed 3-D FFT pricing plan: charges a transform's virtual
/// time on a communicator without moving any data.
#[derive(Debug, Clone)]
pub struct DistFft3d {
    /// Grid size per dimension (N for an N³ problem).
    pub n: usize,
    /// Decomposition.
    pub decomp: Decomp,
    /// Fraction of GPU memory bandwidth an FFT stage achieves (strided
    /// passes keep this below STREAM).
    pub mem_eff: f64,
    /// Fraction of compute peak FFT butterflies achieve.
    pub compute_eff: f64,
    /// Pipeline the transposes over this many chunks, overlapping each
    /// chunk's collective with the neighbouring FFT stages' compute
    /// (`None` = blocking transposes, the BSP schedule).
    pub overlap_chunks: Option<usize>,
}

/// `split_bytes(total, parts, idx)`: the `idx`-th share of `total` bytes
/// split into `parts` near-equal pieces, remainder spread over the leading
/// pieces — so the shares always sum back to `total` exactly.
fn split_bytes(total: u64, parts: usize, idx: usize) -> u64 {
    debug_assert!(idx < parts);
    let parts = parts as u64;
    total / parts + u64::from((idx as u64) < total % parts)
}

impl DistFft3d {
    /// Plan for an `n³` grid.
    pub fn new(n: usize, decomp: Decomp) -> Self {
        assert!(n >= 2);
        DistFft3d {
            n,
            decomp,
            mem_eff: 0.70,
            compute_eff: 0.18,
            overlap_chunks: None,
        }
    }

    /// Pipeline the transposes over `chunks` chunks (clamped internally so
    /// per-chunk latency can never make the pipeline slower than blocking).
    pub fn with_overlap(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.overlap_chunks = Some(chunks);
        self
    }

    /// Validate a rank count against the decomposition limit.
    pub fn supports_ranks(&self, ranks: usize) -> bool {
        ranks >= 1 && ranks <= self.decomp.max_ranks(self.n)
    }

    /// Total complex elements.
    pub fn total_points(&self) -> u64 {
        (self.n as u64).pow(3)
    }

    /// FLOPs of one full 3-D transform (three 1-D passes over every line).
    pub fn transform_flops(&self) -> f64 {
        // n² lines per axis, three axes.
        3.0 * (self.n * self.n) as f64 * fft_flops(self.n)
    }

    /// Kernel profile of one rank's local compute for a full transform.
    fn local_profile(&self, ranks: usize) -> KernelProfile {
        let local_points = (self.total_points() as f64 / ranks as f64).max(1.0);
        let flops = self.transform_flops() / ranks as f64;
        // Three passes read+write the local data each.
        let bytes = 3.0 * 2.0 * local_points * 16.0;
        KernelProfile::new("fft3d_local", LaunchConfig::cover(local_points as u64, 256))
            .flops(flops, DType::C64)
            .bytes(bytes, bytes / 2.0)
            .regs(64)
            .compute_eff(self.compute_eff)
            .mem_eff(self.mem_eff)
    }

    /// Per-partner payloads of one transpose as seen by `rank`: the rank's
    /// local volume (its share of `total × 16` bytes) repartitioned across
    /// its transpose group. Entry 0 is the share that stays resident (never
    /// crosses the network); entries `1..group` go to the remote partners.
    /// Summing every rank's entries reproduces the full grid payload exactly
    /// — no rounding loss (see the conservation test).
    pub fn transpose_pair_bytes(&self, ranks: usize, group: usize, rank: usize) -> Vec<u64> {
        assert!(group >= 1 && rank < ranks);
        let local_bytes = split_bytes(self.total_points() * 16, ranks, rank);
        (0..group)
            .map(|g| split_bytes(local_bytes, group, g))
            .collect()
    }

    /// The transpose group size for `ranks` ranks: everyone for slabs, a
    /// √p-sized row/column communicator for pencils.
    fn transpose_group(&self, ranks: usize) -> usize {
        match self.decomp {
            Decomp::Slabs => ranks,
            Decomp::Pencils => {
                let group = (ranks as f64).sqrt().round().max(1.0) as usize;
                group.min(ranks)
            }
        }
    }

    /// Chunk `i` of the remote partner list: a contiguous run of exchange
    /// rounds. Chunking by *partner* (not by slicing every payload) keeps
    /// the pipeline's total latency at the blocking schedule's `(group−1)·α`
    /// — a volume slice would re-pay every round's α per chunk and eat the
    /// overlap gain at scale.
    fn chunk_pairs(remote: &[u64], chunks: usize, i: usize) -> &[u64] {
        let lo = i * remote.len() / chunks;
        let hi = (i + 1) * remote.len() / chunks;
        &remote[lo..hi]
    }

    /// Charge one forward (or inverse — same cost) transform on `comm`,
    /// with local stages executing on `gpu`. Returns the elapsed span.
    pub fn charge_transform(&self, comm: &mut Comm, gpu: &GpuModel) -> SimTime {
        let ranks = comm.size();
        assert!(
            self.supports_ranks(ranks),
            "{:?} supports at most {} ranks for N={} (got {ranks})",
            self.decomp,
            self.decomp.max_ranks(self.n),
            self.n
        );
        let start = comm.elapsed();
        let local = gpu.kernel_time(&self.local_profile(ranks)) + gpu.launch_latency;
        let group = self.transpose_group(ranks);
        // Rank 0 carries the remainder shares, so its schedule paces the
        // transpose.
        let pairs = self.transpose_pair_bytes(ranks, group, 0);
        let remote = &pairs[1..];
        match (self.decomp, self.overlap_chunks) {
            (Decomp::Slabs, None) => {
                // 2-D FFT stage (2/3 of work), global transpose, 1-D stage.
                comm.advance_all(local * (2.0 / 3.0));
                comm.alltoallv(remote);
                comm.advance_all(local * (1.0 / 3.0));
            }
            (Decomp::Pencils, None) => {
                // Three 1-D stages with two transposes inside √p-sized
                // row/column groups.
                comm.advance_all(local * (1.0 / 3.0));
                comm.alltoallv_grouped(group, remote);
                comm.advance_all(local * (1.0 / 3.0));
                comm.alltoallv_grouped(group, remote);
                comm.advance_all(local * (1.0 / 3.0));
            }
            (Decomp::Slabs, Some(k)) => {
                // One pipeline: each chunk's partner exchanges fly while the
                // 2-D stage produces the next chunk and the 1-D stage
                // consumes the previous one.
                let k = k.min(remote.len()).max(1);
                let (produce, consume) = (
                    local * (2.0 / 3.0) / k as f64,
                    local * (1.0 / 3.0) / k as f64,
                );
                Overlap::pipeline(
                    comm,
                    k,
                    |c, _| c.advance_all(produce),
                    |c, i| c.ialltoallv(Self::chunk_pairs(remote, k, i)),
                    |c, _| c.advance_all(consume),
                );
            }
            (Decomp::Pencils, Some(k)) => {
                // First transpose overlaps stages 1 and 2; by the time the
                // second pipeline starts every chunk of its payload already
                // exists, so it only overlaps stage 3 on the consume side.
                let stage = local * (1.0 / 3.0);
                let k = k.min(remote.len()).max(1);
                let per_chunk = stage / k as f64;
                Overlap::pipeline(
                    comm,
                    k,
                    |c, _| c.advance_all(per_chunk),
                    |c, i| c.ialltoallv_grouped(group, Self::chunk_pairs(remote, k, i)),
                    |c, _| c.advance_all(per_chunk),
                );
                Overlap::pipeline(
                    comm,
                    k,
                    |_, _| {},
                    |c, i| c.ialltoallv_grouped(group, Self::chunk_pairs(remote, k, i)),
                    |c, _| c.advance_all(per_chunk),
                );
            }
        }
        comm.elapsed() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;
    use exa_mpi::Network;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    fn gpu() -> GpuModel {
        GpuModel::mi250x_gcd()
    }

    #[test]
    fn rank_limits_match_paper() {
        let n = 64;
        assert_eq!(Decomp::Slabs.max_ranks(n), 64);
        assert_eq!(Decomp::Pencils.max_ranks(n), 4096);
        assert_eq!(Decomp::Slabs.transposes(), 1);
        assert_eq!(Decomp::Pencils.transposes(), 2);
        let plan = DistFft3d::new(n, Decomp::Slabs);
        assert!(plan.supports_ranks(64));
        assert!(!plan.supports_ranks(65));
    }

    #[test]
    fn slabs_beat_pencils_at_equal_ranks() {
        // §3.3: slabs do one fewer communication cycle, so at a rank count
        // both support, slabs are faster.
        let n = 256;
        let p = 64;
        let slabs = DistFft3d::new(n, Decomp::Slabs);
        let pencils = DistFft3d::new(n, Decomp::Pencils);
        let mut c1 = comm(p);
        let mut c2 = comm(p);
        let t_slab = slabs.charge_transform(&mut c1, &gpu());
        let t_pencil = pencils.charge_transform(&mut c2, &gpu());
        assert!(t_slab < t_pencil, "slabs {t_slab} !< pencils {t_pencil}");
    }

    #[test]
    fn pencils_scale_past_the_slab_limit() {
        // Past N ranks only pencils work — and more ranks still help
        // (at production grid sizes where bandwidth, not latency, rules).
        let n = 1024;
        let pencils = DistFft3d::new(n, Decomp::Pencils);
        let mut small = comm(256);
        let mut large = comm(16384);
        let t_small = pencils.charge_transform(&mut small, &gpu());
        let t_large = pencils.charge_transform(&mut large, &gpu());
        assert!(
            t_large < t_small,
            "scaling out should still win: {t_large} vs {t_small}"
        );
        assert!(!DistFft3d::new(n, Decomp::Slabs).supports_ranks(16384));
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn overdecomposition_panics() {
        let plan = DistFft3d::new(16, Decomp::Slabs);
        let mut c = comm(32);
        plan.charge_transform(&mut c, &gpu());
    }

    #[test]
    fn transpose_bytes_are_conserved() {
        // Sum over every rank's pair list == the full grid payload, even for
        // awkward rank/group combinations that don't divide N³ evenly.
        for (n, ranks, group) in [(8, 3, 3), (8, 5, 5), (16, 7, 3), (16, 12, 4), (8, 1, 1)] {
            let plan = DistFft3d::new(n, Decomp::Pencils);
            let payload = plan.total_points() * 16;
            let total: u64 = (0..ranks)
                .flat_map(|r| plan.transpose_pair_bytes(ranks, group, r))
                .sum();
            assert_eq!(total, payload, "n={n} ranks={ranks} group={group}");
        }
    }

    #[test]
    fn overlapped_transform_is_faster_never_slower() {
        let n = 256;
        let p = 64;
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            let blocking = DistFft3d::new(n, decomp);
            let mut cb = comm(p);
            let t_blocking = blocking.charge_transform(&mut cb, &gpu());
            for k in [1, 2, 4, 8, 32] {
                let mut co = comm(p);
                let t_over = blocking
                    .clone()
                    .with_overlap(k)
                    .charge_transform(&mut co, &gpu());
                assert!(
                    t_over <= t_blocking,
                    "{decomp:?} K={k}: overlapped {t_over} > blocking {t_blocking}"
                );
            }
        }
        // At a compute-heavy scale the chunk clamp leaves room to hide real
        // communication.
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            let mut co = comm(16);
            DistFft3d::new(512, decomp)
                .with_overlap(4)
                .charge_transform(&mut co, &gpu());
            let eff = co.stats().overlap_efficiency();
            assert!(eff > 0.0 && eff <= 1.0, "{decomp:?} eff {eff}");
        }
    }

    #[test]
    fn transform_flops_match_closed_form() {
        let plan = DistFft3d::new(64, Decomp::Slabs);
        // 3 n² lines · 5 n log2 n = 15 n³ log2 n.
        let expect = 15.0 * 64f64.powi(3) * 6.0;
        assert!((plan.transform_flops() - expect).abs() / expect < 1e-12);
    }
}
