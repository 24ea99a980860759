//! α–β cost formulas for the standard collectives.
//!
//! These follow the textbook algorithms (recursive doubling / Rabenseifner /
//! ring / pairwise exchange) used by production MPIs, expressed as pure
//! functions of (ranks, bytes, network) so they can be unit-tested against
//! their analytic forms and reused by the cost-only paper-scale paths.

use crate::network::Network;
use exa_machine::SimTime;

/// ceil(log2(p)), with log2(1) = 0.
#[inline]
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p >= 1);
    (usize::BITS - (p - 1).leading_zeros()).min(63)
}

/// Barrier: dissemination algorithm, `ceil(log2 p)` rounds of α.
pub fn barrier_time(net: &Network, p: usize) -> SimTime {
    net.alpha() * ceil_log2(p) as f64
}

/// Broadcast of `bytes` from one root: binomial tree.
pub fn bcast_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    let rounds = ceil_log2(p) as f64;
    (net.alpha() + SimTime::from_secs(bytes as f64 * net.beta())) * rounds
}

/// Allreduce of `bytes` per rank: Rabenseifner
/// (reduce-scatter + allgather): `2 log2(p) α + 2 (p-1)/p n β`.
pub fn allreduce_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let lat = net.alpha() * (2.0 * ceil_log2(p) as f64);
    let vol = 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * net.beta();
    lat + SimTime::from_secs(vol)
}

/// Reduce to a root: `log2(p) α + (p-1)/p n β` (Rabenseifner half).
pub fn reduce_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let lat = net.alpha() * ceil_log2(p) as f64;
    let vol = (p as f64 - 1.0) / p as f64 * bytes as f64 * net.beta();
    lat + SimTime::from_secs(vol)
}

/// Allgather where each rank contributes `bytes`: ring algorithm,
/// `(p-1) α + (p-1) n β`.
pub fn allgather_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let rounds = p as f64 - 1.0;
    net.alpha() * rounds + SimTime::from_secs(rounds * bytes as f64 * net.beta())
}

/// All-to-all where each rank sends `bytes_per_pair` to every other rank:
/// pairwise exchange, `(p-1) α + (p-1) m β_global` — the β is derated by the
/// fabric's bisection factor because all-to-all stresses the global links.
/// This is the transpose cost at the heart of the GESTS PSDNS solver (§3.3).
pub fn alltoall_time(net: &Network, p: usize, bytes_per_pair: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let rounds = p as f64 - 1.0;
    net.alpha() * rounds + SimTime::from_secs(rounds * bytes_per_pair as f64 * net.beta_global())
}

/// All-to-all with variable per-pair payloads: pairwise exchange where
/// each of a rank's `peers` rounds moves that peer's payload, so the cost
/// is `Σ_r (α + pair_bytes[r] β_global) = peers · α + bytes · β_global`
/// with `bytes` the exact sum of the per-peer payloads. Only the peer count
/// and the sum enter, so callers price a schedule without materialising
/// its pair list. With a uniform payload this reduces exactly to
/// [`alltoall_time`]; with ragged payloads (non-square pencil grids) it
/// charges the true volume instead of rounding every round up to the
/// maximum pair.
pub fn alltoallv_time(net: &Network, peers: usize, bytes: u64) -> SimTime {
    if peers == 0 {
        return SimTime::ZERO;
    }
    net.alpha() * peers as f64 + SimTime::from_secs(bytes as f64 * net.beta_global())
}

/// Gather to a root (each rank contributes `bytes`): binomial tree with
/// doubling payloads, `log2(p) α + (p-1) n β` volume at the root link.
pub fn gather_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let lat = net.alpha() * ceil_log2(p) as f64;
    lat + SimTime::from_secs((p as f64 - 1.0) * bytes as f64 * net.beta())
}

/// Scatter from a root — same cost structure as gather.
pub fn scatter_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    gather_time(net, p, bytes)
}

/// Exclusive scan (prefix reduction): `log2(p)` rounds of (α + n β).
pub fn scan_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let rounds = ceil_log2(p) as f64;
    (net.alpha() + SimTime::from_secs(bytes as f64 * net.beta())) * rounds
}

/// Reduce-scatter: `(p-1)/p · n β` volume plus `log2(p)` α — the first half
/// of Rabenseifner's allreduce.
pub fn reduce_scatter_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    reduce_time(net, p, bytes)
}

/// Nearest-neighbour halo exchange with `neighbors` partners of `bytes`
/// each, overlapped (all partners in flight at once, NIC serialises bytes).
pub fn halo_time(net: &Network, neighbors: usize, bytes: u64) -> SimTime {
    if neighbors == 0 {
        return SimTime::ZERO;
    }
    net.alpha() + SimTime::from_secs(neighbors as f64 * bytes as f64 * net.beta())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;

    fn net() -> Network {
        Network::from_machine(&MachineModel::frontier())
    }

    #[test]
    fn log2_helper() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let n = net();
        assert_eq!(allreduce_time(&n, 1, 1 << 20), SimTime::ZERO);
        assert_eq!(alltoall_time(&n, 1, 1 << 20), SimTime::ZERO);
        assert_eq!(allgather_time(&n, 1, 1 << 20), SimTime::ZERO);
        assert_eq!(barrier_time(&n, 1), SimTime::ZERO);
    }

    #[test]
    fn allreduce_matches_rabenseifner_form() {
        let n = net();
        let p = 1024;
        let bytes = 8 << 20;
        let t = allreduce_time(&n, p, bytes);
        let expect = n.alpha().secs() * 20.0 + 2.0 * 1023.0 / 1024.0 * bytes as f64 * n.beta();
        assert!((t.secs() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn allreduce_latency_scales_logarithmically() {
        let n = net();
        let small = allreduce_time(&n, 64, 8);
        let big = allreduce_time(&n, 4096, 8);
        // 8-byte payload: latency dominated. log2 ratio = 12/6 = 2.
        let r = big / small;
        assert!(r > 1.9 && r < 2.1, "r {r}");
    }

    #[test]
    fn alltoall_grows_linearly_in_ranks() {
        let n = net();
        let t1 = alltoall_time(&n, 256, 4096);
        let t2 = alltoall_time(&n, 512, 4096);
        let r = t2 / t1;
        assert!(r > 1.9 && r < 2.1, "r {r}");
    }

    #[test]
    fn alltoall_pays_bisection_derating() {
        let n = net();
        let p = 128;
        let bytes = 1 << 20;
        let derated = alltoall_time(&n, p, bytes);
        // Rebuild with full bisection for comparison.
        let mut full = net();
        full.model.bisection_factor = 1.0;
        let ideal = alltoall_time(&full, p, bytes);
        assert!(derated > ideal);
    }

    #[test]
    fn alltoallv_uniform_matches_alltoall() {
        let n = net();
        let p = 64;
        let m = 1 << 16;
        let v = alltoallv_time(&n, p - 1, m * (p as u64 - 1));
        let fixed = alltoall_time(&n, p, m);
        assert!((v.secs() - fixed.secs()).abs() / fixed.secs() < 1e-12);
        assert_eq!(alltoallv_time(&n, 0, 0), SimTime::ZERO);
    }

    #[test]
    fn alltoallv_ragged_cheaper_than_max_rounding() {
        let n = net();
        // 63 pairs, one big and the rest small: the old max-rounding model
        // charged 63 × big.
        let mut pairs = vec![1u64 << 10; 63];
        pairs[0] = 1 << 20;
        let v = alltoallv_time(&n, pairs.len(), pairs.iter().sum());
        let rounded = alltoall_time(&n, 64, 1 << 20);
        assert!(v < rounded);
    }

    #[test]
    fn bcast_cheaper_than_allgather_for_same_payload() {
        let n = net();
        let p = 512;
        assert!(bcast_time(&n, p, 1 << 20) < allgather_time(&n, p, 1 << 20));
    }

    #[test]
    fn halo_exchange_costs_scale_with_neighbors() {
        let n = net();
        let t6 = halo_time(&n, 6, 1 << 16); // 3-D stencil
        let t26 = halo_time(&n, 26, 1 << 16); // full 3-D corner exchange
        assert!(t26 > t6);
        assert_eq!(halo_time(&n, 0, 1 << 16), SimTime::ZERO);
    }
}
