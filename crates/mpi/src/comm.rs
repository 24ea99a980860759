//! Communicators: per-rank virtual clocks plus data-carrying collectives.

use crate::collectives as coll;
use crate::network::Network;
use exa_machine::{Clock, SimTime};
use exa_telemetry::{
    MetricSource, MetricsRegistry, SpanCat, TelemetryCollector, TrackId, TrackKind,
};
use serde::Serialize;
use std::sync::Arc;

/// Aggregate communication statistics for a communicator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Total payload bytes across all operations (logical, per-rank sums).
    pub bytes: u64,
    /// Collective operations executed.
    pub collectives: u64,
    /// Total time ranks spent blocked waiting for peers to arrive at
    /// communication operations (summed over ranks) — the imbalance the
    /// critical-path analysis attributes.
    pub wait: SimTime,
    /// Nonblocking (split-phase) operations completed via `wait`.
    pub nonblocking: u64,
    /// Total in-flight time of nonblocking operations (cost × participating
    /// ranks, like `wait` a per-rank sum).
    pub inflight: SimTime,
    /// The portion of `inflight` that ranks spent computing instead of
    /// blocked — the communication the overlap engine actually hid.
    pub hidden: SimTime,
}

impl CommStats {
    /// Fraction of nonblocking communication time hidden behind compute
    /// (hidden / in-flight), in `[0, 1]`. Zero when no split-phase
    /// operation completed.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.inflight.is_zero() {
            0.0
        } else {
            (self.hidden / self.inflight).clamp(0.0, 1.0)
        }
    }
}

impl MetricSource for CommStats {
    fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_add("mpi.messages", self.messages);
        m.counter_add("mpi.bytes", self.bytes);
        m.counter_add("mpi.collectives", self.collectives);
        m.time_add("mpi.wait", self.wait);
        m.counter_add("mpi.nonblocking", self.nonblocking);
        m.time_add("mpi.inflight", self.inflight);
        m.time_add("mpi.hidden", self.hidden);
    }
}

/// Seeded multiplicative network jitter: each operation's cost is scaled
/// by `1 + amp·u`, `u ∈ [0, 1)` the next draw of a hash sequence — the
/// scenario engine's model of a noisy shared fabric. No wall-clock
/// randomness: same seed, same operation order, same costs.
#[derive(Debug, Clone, Copy)]
struct Jitter {
    amp: f64,
    seed: u64,
    seq: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A communicator's attachment to a shared [`TelemetryCollector`]: one
/// comm-rank track per rank.
#[derive(Debug)]
pub(crate) struct CommTelemetry {
    pub(crate) collector: Arc<TelemetryCollector>,
    pub(crate) tracks: Vec<TrackId>,
}

/// Per-rank virtual clocks and wait attribution.
///
/// A communicator starts in *lockstep*: one `(clock, wait)` pair stands
/// for every rank, so balanced phases, blocking collectives and
/// `Participants::All` requests cost O(1) whatever the rank count. The
/// first operation that touches a single rank (`advance(rank, _)`, `send`,
/// completing an `isend`/`irecv`) splits it into per-rank vectors copied
/// bit for bit from the shared pair; only `reset` collapses it again.
#[derive(Debug)]
pub(crate) enum Ranks {
    /// Every rank holds this clock and this accumulated wait.
    Lockstep { clock: Clock, wait: SimTime },
    /// One clock and one accumulated wait per rank.
    Split {
        clocks: Vec<Clock>,
        waits: Vec<SimTime>,
    },
}

impl Ranks {
    fn lockstep() -> Self {
        Ranks::Lockstep {
            clock: Clock::new(),
            wait: SimTime::ZERO,
        }
    }

    /// The per-rank state, materialised from the shared pair on first use.
    pub(crate) fn split(&mut self, size: usize) -> (&mut [Clock], &mut [SimTime]) {
        if let Ranks::Lockstep { clock, wait } = self {
            let (clocks, waits) = (vec![clock.clone(); size], vec![*wait; size]);
            *self = Ranks::Split { clocks, waits };
        }
        match self {
            Ranks::Split { clocks, waits } => (clocks, waits),
            Ranks::Lockstep { .. } => unreachable!("split above"),
        }
    }

    /// Apply `f` to every rank's `(clock, wait)`. In lockstep every rank
    /// would see the same update, so the shared pair takes it once.
    fn each(&mut self, mut f: impl FnMut(&mut Clock, &mut SimTime)) {
        match self {
            Ranks::Lockstep { clock, wait } => f(clock, wait),
            Ranks::Split { clocks, waits } => {
                for (c, w) in clocks.iter_mut().zip(waits.iter_mut()) {
                    f(c, w);
                }
            }
        }
    }
}

/// A simulated communicator over `size` ranks.
///
/// Every rank owns a virtual clock. Local compute is charged with
/// [`Comm::advance`]; communication operations synchronise and advance the
/// clocks of the ranks involved using the α–β formulas in
/// [`crate::collectives`]. Data-carrying variants also perform the real data
/// movement on host memory, so numerical code built on top (the distributed
/// FFT, the APSP solver, QEq CG) is exactly testable. Clocks stay in
/// lockstep (one clock shared by every rank) until an operation touches a
/// single rank, so cost-only pricing of paper-scale runs never walks the
/// ranks.
#[derive(Debug)]
pub struct Comm {
    pub(crate) net: Network,
    size: usize,
    pub(crate) ranks: Ranks,
    pub(crate) stats: CommStats,
    pub(crate) telemetry: Option<CommTelemetry>,
    /// The time the fabric finishes its last accepted operation: in-flight
    /// nonblocking traffic serialises here, and later operations cannot
    /// start before it (one injection pipe per communicator).
    pub(crate) net_free: SimTime,
    /// Optional seeded network jitter on blocking operation costs.
    jitter: Option<Jitter>,
    /// When set, every blocking collective records `straggler-wait/<op>`
    /// spans ([`SpanCat::Fault`]) on the ranks that arrived early. Off by
    /// default so clean-run traces are unchanged.
    straggler_spans: bool,
}

impl Comm {
    /// A communicator of `size` ranks over `net`.
    pub fn new(size: usize, net: Network) -> Self {
        assert!(size >= 1, "communicator needs at least one rank");
        Comm {
            net,
            size,
            ranks: Ranks::lockstep(),
            stats: CommStats::default(),
            telemetry: None,
            net_free: SimTime::ZERO,
            jitter: None,
            straggler_spans: false,
        }
    }

    /// Enable deterministic network jitter: every blocking collective and
    /// point-to-point cost is scaled by `1 + amp·u`, `u ∈ [0, 1)` drawn
    /// from a seeded hash sequence in operation order. `amp = 0` disables.
    /// (Nonblocking operations are shaped by [`Network::with_contention`]
    /// instead: their posted costs come straight from the α–β models.)
    pub fn set_jitter(&mut self, amp: f64, seed: u64) {
        assert!(
            (0.0..1.0).contains(&amp),
            "jitter amplitude must be in [0, 1)"
        );
        self.jitter = (amp > 0.0).then_some(Jitter { amp, seed, seq: 0 });
    }

    /// Toggle `straggler-wait/<op>` span recording on blocking collectives
    /// (needs attached telemetry). Off by default.
    pub fn record_straggler_spans(&mut self, on: bool) {
        self.straggler_spans = on;
    }

    /// Next jittered cost (identity when jitter is off).
    fn perturb(&mut self, cost: SimTime) -> SimTime {
        match self.jitter.as_mut() {
            Some(j) => {
                let u = unit(splitmix64(j.seed ^ j.seq.wrapping_mul(0x9e3779b97f4a7c15)));
                j.seq += 1;
                cost * (1.0 + j.amp * u)
            }
            None => cost,
        }
    }

    /// Attach a shared telemetry collector: every rank gets a comm-rank
    /// track named `<name>/rank<r>`, and collectives / point-to-point
    /// messages are recorded as spans on the ranks they involve.
    pub fn attach_telemetry(&mut self, collector: &Arc<TelemetryCollector>, name: &str) {
        let tracks = (0..self.size())
            .map(|r| collector.track(&format!("{name}/rank{r}"), TrackKind::CommRank))
            .collect();
        self.telemetry = Some(CommTelemetry {
            collector: Arc::clone(collector),
            tracks,
        });
    }

    /// Drop the collector attachment.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Pour this communicator's [`CommStats`] into the attached collector's
    /// metrics, plus the per-rank wait attribution as gauges
    /// (`mpi.wait_max_s` — the straggler signal — and `mpi.wait_mean_s`).
    /// Counters add, so call it once at the end of an instrumented run.
    pub fn absorb_telemetry(&self) {
        if let Some(t) = self.telemetry.as_ref() {
            t.collector.absorb(&self.stats);
            let max = self.max_wait().secs();
            let mean = self.stats.wait.secs() / self.size() as f64;
            let overlap = (!self.stats.inflight.is_zero()).then(|| self.stats.overlap_efficiency());
            t.collector.metrics(|m| {
                m.gauge_max("mpi.wait_max_s", max);
                m.gauge_max("mpi.wait_mean_s", mean);
                if let Some(eff) = overlap {
                    m.gauge_max("mpi.overlap_efficiency", eff);
                }
            });
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network view.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Statistics so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    fn check_rank(&self, rank: usize) {
        assert!(
            rank < self.size,
            "rank {rank} out of range for {} ranks",
            self.size
        );
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> SimTime {
        self.check_rank(rank);
        match &self.ranks {
            Ranks::Lockstep { clock, .. } => clock.now(),
            Ranks::Split { clocks, .. } => clocks[rank].now(),
        }
    }

    /// Latest clock across ranks — the job's wall time.
    pub fn elapsed(&self) -> SimTime {
        match &self.ranks {
            Ranks::Lockstep { clock, .. } => clock.now(),
            Ranks::Split { clocks, .. } => clocks
                .iter()
                .map(|c| c.now())
                .max()
                .unwrap_or(SimTime::ZERO),
        }
    }

    /// Charge local (compute) time to one rank.
    pub fn advance(&mut self, rank: usize, dt: SimTime) {
        self.ranks.split(self.size).0[rank].advance(dt);
    }

    /// Charge the same local time to every rank (perfectly balanced phase).
    pub fn advance_all(&mut self, dt: SimTime) {
        self.ranks.each(|c, _| {
            c.advance(dt);
        });
    }

    /// Time `rank` has spent blocked waiting for peers so far.
    pub fn wait(&self, rank: usize) -> SimTime {
        self.check_rank(rank);
        match &self.ranks {
            Ranks::Lockstep { wait, .. } => *wait,
            Ranks::Split { waits, .. } => waits[rank],
        }
    }

    /// The worst per-rank wait — the straggler's victims.
    pub fn max_wait(&self) -> SimTime {
        match &self.ranks {
            Ranks::Lockstep { wait, .. } => *wait,
            Ranks::Split { waits, .. } => waits.iter().copied().max().unwrap_or(SimTime::ZERO),
        }
    }

    /// Split the clocks now, as the first per-rank operation would: lets
    /// tests drive the per-rank path with lockstep-eligible operations.
    #[cfg(test)]
    pub(crate) fn force_split(&mut self) {
        self.ranks.split(self.size);
    }

    fn sync_all(&mut self) -> SimTime {
        let t = self.elapsed();
        // In lockstep every rank already stands at `t`: the single update
        // adds a zero wait, exactly what each rank's would.
        let mut total = SimTime::ZERO;
        self.ranks.each(|c, w| {
            let dt = t - c.now();
            *w += dt;
            total += dt;
            c.sync_to(t);
        });
        self.stats.wait += total;
        t
    }

    fn collective(&mut self, name: &'static str, cost: SimTime, bytes: u64) -> SimTime {
        let cost = self.perturb(cost);
        // Straggler attribution: the ranks already at the collective wait
        // for the last arrival — record that wait per early rank before the
        // clocks are synchronised away. Lockstep ranks all arrive together.
        if self.straggler_spans {
            if let (Some(tel), Ranks::Split { clocks, .. }) = (self.telemetry.as_ref(), &self.ranks)
            {
                let last = self.elapsed();
                for (r, c) in clocks.iter().enumerate() {
                    if c.now() < last {
                        tel.collector.complete(
                            tel.tracks[r],
                            format!("straggler-wait/{name}"),
                            SpanCat::Fault,
                            c.now(),
                            last,
                        );
                    }
                }
            }
        }
        let arrived = self.sync_all();
        // In-flight nonblocking traffic holds the injection pipe: a blocking
        // operation posted behind it stalls (and the stall is a wait).
        let start = arrived.max(self.net_free);
        if start > arrived {
            let dt = start - arrived;
            self.ranks.each(|c, w| {
                *w += dt;
                c.sync_to(start);
            });
            self.stats.wait += dt * self.size as f64;
        }
        let t = start + cost;
        self.ranks.each(|c, _| {
            c.sync_to(t);
        });
        self.stats.collectives += 1;
        self.stats.bytes += bytes;
        if let Some(tel) = self.telemetry.as_ref() {
            // Every rank sees the operation over the same (post-skew)
            // interval, so per-track spans stay non-overlapping.
            tel.collector
                .complete_on_tracks(&tel.tracks, name, SpanCat::Collective, start, t);
        }
        self.net_free = t;
        t
    }

    /// Point-to-point message of `bytes` from `src` to `dst`.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64) -> SimTime {
        assert!(src != dst, "self-sends are local copies, not messages");
        let p2p = self.net.p2p(bytes);
        let cost = self.perturb(p2p);
        let (clocks, waits) = self.ranks.split(self.size);
        let start = clocks[src].now().max(clocks[dst].now());
        // The endpoint that arrived first blocks until the rendezvous.
        for r in [src, dst] {
            let dt = start - clocks[r].now();
            waits[r] += dt;
            self.stats.wait += dt;
        }
        let done = start + cost;
        clocks[src].sync_to(done);
        clocks[dst].sync_to(done);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if let Some(tel) = self.telemetry.as_ref() {
            let tracks = [tel.tracks[src], tel.tracks[dst]];
            tel.collector
                .complete_on_tracks(&tracks, "send", SpanCat::Message, start, done);
        }
        done
    }

    /// Barrier across all ranks.
    pub fn barrier(&mut self) -> SimTime {
        let cost = coll::barrier_time(&self.net, self.size());
        self.collective("barrier", cost, 0)
    }

    /// Cost-only allreduce of `bytes` per rank.
    pub fn allreduce(&mut self, bytes: u64) -> SimTime {
        let cost = coll::allreduce_time(&self.net, self.size(), bytes);
        self.collective("allreduce", cost, bytes)
    }

    /// Cost-only broadcast.
    pub fn bcast(&mut self, bytes: u64) -> SimTime {
        let cost = coll::bcast_time(&self.net, self.size(), bytes);
        self.collective("bcast", cost, bytes)
    }

    /// Cost-only allgather (`bytes` contributed per rank).
    pub fn allgather(&mut self, bytes: u64) -> SimTime {
        let cost = coll::allgather_time(&self.net, self.size(), bytes);
        self.collective("allgather", cost, bytes * self.size() as u64)
    }

    /// Cost-only all-to-all (`bytes_per_pair` between every rank pair).
    pub fn alltoall(&mut self, bytes_per_pair: u64) -> SimTime {
        let p = self.size();
        let cost = coll::alltoall_time(&self.net, p, bytes_per_pair);
        self.collective(
            "alltoall",
            cost,
            bytes_per_pair * (p as u64) * (p as u64 - 1),
        )
    }

    /// Cost-only gather of `bytes` per rank to a root.
    pub fn gather(&mut self, bytes: u64) -> SimTime {
        let cost = coll::gather_time(&self.net, self.size(), bytes);
        self.collective("gather", cost, bytes * self.size() as u64)
    }

    /// Cost-only scatter of `bytes` per rank from a root.
    pub fn scatter(&mut self, bytes: u64) -> SimTime {
        let cost = coll::scatter_time(&self.net, self.size(), bytes);
        self.collective("scatter", cost, bytes * self.size() as u64)
    }

    /// Cost-only reduce of `bytes` per rank to a root.
    pub fn reduce(&mut self, bytes: u64) -> SimTime {
        let cost = coll::reduce_time(&self.net, self.size(), bytes);
        self.collective("reduce", cost, bytes)
    }

    /// Cost-only exclusive scan of `bytes` per rank.
    pub fn scan(&mut self, bytes: u64) -> SimTime {
        let cost = coll::scan_time(&self.net, self.size(), bytes);
        self.collective("scan", cost, bytes)
    }

    /// Data-carrying broadcast: copy `root`'s vector to every rank, charging
    /// the binomial-tree cost.
    pub fn bcast_data<T: Clone>(&mut self, root: usize, per_rank: &mut [Vec<T>]) {
        assert_eq!(per_rank.len(), self.size());
        assert!(root < self.size());
        let payload = per_rank[root].clone();
        let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
        for (r, v) in per_rank.iter_mut().enumerate() {
            if r != root {
                *v = payload.clone();
            }
        }
        self.bcast(bytes);
    }

    /// Data-carrying exclusive scan (sum) over per-rank scalars: rank r ends
    /// with the sum of ranks 0..r.
    pub fn exscan_sum_f64(&mut self, values: &mut [f64]) {
        assert_eq!(values.len(), self.size());
        let mut acc = 0.0;
        for v in values.iter_mut() {
            let mine = *v;
            *v = acc;
            acc += mine;
        }
        self.scan(8);
    }

    /// Broadcast happening concurrently inside disjoint groups of `group`
    /// ranks (row/column communicators of a 2-D process grid).
    pub fn bcast_grouped(&mut self, group: usize, bytes: u64) -> SimTime {
        assert!(group >= 1 && group <= self.size());
        let cost = coll::bcast_time(&self.net, group, bytes);
        let groups = (self.size() / group.max(1)) as u64;
        self.collective("bcast_grouped", cost, bytes * groups)
    }

    /// All-to-all happening concurrently inside disjoint groups of
    /// `group` ranks (the row/column communicators of a 2-D pencil
    /// decomposition, §3.3). All groups proceed in parallel, so the charge
    /// is one group's cost.
    pub fn alltoall_grouped(&mut self, group: usize, bytes_per_pair: u64) -> SimTime {
        assert!(group >= 1 && group <= self.size());
        let cost = coll::alltoall_time(&self.net, group, bytes_per_pair);
        let groups = (self.size() / group.max(1)) as u64;
        self.collective(
            "alltoall_grouped",
            cost,
            bytes_per_pair * group as u64 * (group as u64 - 1) * groups,
        )
    }

    /// Cost-only all-to-all with variable per-pair payloads as seen by one
    /// rank: it exchanges `bytes` in total (the exact sum of its per-peer
    /// payloads, resident share excluded) with `peers` remote peers. Every
    /// rank is assumed to run the same schedule, so the charge is one
    /// rank's sum of rounds and the volume is `bytes × size`.
    pub fn alltoallv(&mut self, peers: usize, bytes: u64) -> SimTime {
        assert!(peers < self.size(), "more peers than remote ranks");
        let cost = coll::alltoallv_time(&self.net, peers, bytes);
        self.collective("alltoallv", cost, bytes * self.size() as u64)
    }

    /// [`Comm::alltoallv`] running concurrently inside disjoint groups of
    /// `group` ranks (row/column communicators of a 2-D pencil grid). All
    /// groups proceed in parallel, so the charge is one group's cost.
    pub fn alltoallv_grouped(&mut self, group: usize, peers: usize, bytes: u64) -> SimTime {
        assert!(group >= 1 && group <= self.size());
        assert!(peers < group, "more peers than remote group members");
        let cost = coll::alltoallv_time(&self.net, peers, bytes);
        self.collective("alltoallv_grouped", cost, bytes * self.size() as u64)
    }

    /// Nearest-neighbour halo exchange performed by every rank at once.
    pub fn halo_exchange(&mut self, neighbors: usize, bytes: u64) -> SimTime {
        let cost = coll::halo_time(&self.net, neighbors, bytes);
        self.collective(
            "halo_exchange",
            cost,
            bytes * neighbors as u64 * self.size() as u64,
        )
    }

    // ---- data-carrying collectives --------------------------------------

    /// Elementwise sum-allreduce across per-rank vectors (all must share a
    /// length). After the call every rank holds the sum. Charges the α–β
    /// allreduce cost for the payload.
    pub fn allreduce_sum_f64(&mut self, per_rank: &mut [Vec<f64>]) {
        assert_eq!(per_rank.len(), self.size());
        let n = per_rank[0].len();
        assert!(per_rank.iter().all(|v| v.len() == n), "ragged allreduce");
        let mut acc = vec![0.0f64; n];
        for v in per_rank.iter() {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += *x;
            }
        }
        for v in per_rank.iter_mut() {
            v.copy_from_slice(&acc);
        }
        self.allreduce((n * 8) as u64);
    }

    /// Data all-to-all: `send[i][j]` is what rank `i` sends to rank `j`;
    /// returns `recv` with `recv[j][i] = send[i][j]`. Pairwise-exchange
    /// schedule: in round `r`, rank `i` exchanges with rank `(i + r) % p`,
    /// and the round finishes when its largest payload lands — so ragged
    /// payloads cost per-round maxima, not a global max times every round.
    pub fn alltoallv_data<T: Clone>(&mut self, send: Vec<Vec<Vec<T>>>) -> Vec<Vec<Vec<T>>> {
        let p = self.size();
        assert_eq!(send.len(), p);
        for row in &send {
            assert_eq!(row.len(), p, "each rank must address every rank");
        }
        let elem = std::mem::size_of::<T>() as u64;
        let mut cost = SimTime::ZERO;
        let mut volume = 0u64;
        for r in 1..p {
            let round_max = (0..p)
                .map(|i| send[i][(i + r) % p].len() as u64 * elem)
                .max()
                .unwrap_or(0);
            cost += SimTime::from_secs(
                self.net.alpha().secs() + round_max as f64 * self.net.beta_global(),
            );
        }
        for (i, row) in send.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                if i != j {
                    volume += v.len() as u64 * elem;
                }
            }
        }
        // recv[j][i] = send[i][j]
        let mut recv: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut columns: Vec<Vec<Vec<T>>> = send.into_iter().collect();
        for j in 0..p {
            for row in columns.iter_mut() {
                recv[j].push(std::mem::take(&mut row[j]));
            }
        }
        self.collective("alltoallv", cost, volume);
        recv
    }

    /// Reset all clocks and statistics (between experiment repetitions),
    /// back into lockstep.
    pub fn reset(&mut self) {
        self.ranks = Ranks::lockstep();
        self.stats = CommStats::default();
        self.net_free = SimTime::ZERO;
        // Restart the jitter draw sequence so repetitions replay the same
        // perturbations.
        if let Some(j) = self.jitter.as_mut() {
            j.seq = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    #[test]
    fn p2p_advances_both_endpoints() {
        let mut c = comm(4);
        c.advance(0, SimTime::from_micros(100.0));
        let done = c.send(0, 2, 1 << 20);
        assert_eq!(c.now(0), done);
        assert_eq!(c.now(2), done);
        assert_eq!(c.now(1), SimTime::ZERO);
        assert_eq!(c.stats().messages, 1);
    }

    #[test]
    fn collectives_synchronise_stragglers() {
        let mut c = comm(8);
        c.advance(3, SimTime::from_millis(5.0)); // straggler
        c.allreduce(1 << 10);
        let t = c.now(0);
        assert!(t > SimTime::from_millis(5.0));
        for r in 0..8 {
            assert_eq!(c.now(r), t, "rank {r} out of sync");
        }
    }

    #[test]
    fn allreduce_sum_produces_global_sum_everywhere() {
        let mut c = comm(4);
        let mut data: Vec<Vec<f64>> = (0..4).map(|r| vec![r as f64, 10.0 * r as f64]).collect();
        c.allreduce_sum_f64(&mut data);
        for v in &data {
            assert_eq!(v, &vec![6.0, 60.0]);
        }
    }

    #[test]
    fn alltoallv_is_a_transpose_and_conserves_data() {
        let mut c = comm(3);
        // send[i][j] = vec of tagged values i*10 + j
        let send: Vec<Vec<Vec<u32>>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| vec![(i * 10 + j) as u32; i + j + 1])
                    .collect()
            })
            .collect();
        let total_in: usize = send.iter().flatten().map(|v| v.len()).sum();
        let recv = c.alltoallv_data(send);
        let total_out: usize = recv.iter().flatten().map(|v| v.len()).sum();
        assert_eq!(total_in, total_out);
        for (j, row) in recv.iter().enumerate() {
            for (i, v) in row.iter().enumerate() {
                assert!(v.iter().all(|&x| x == (i * 10 + j) as u32));
                assert_eq!(v.len(), i + j + 1);
            }
        }
        assert_eq!(c.stats().collectives, 1);
    }

    #[test]
    fn grouped_alltoall_cheaper_than_global() {
        let mut a = comm(64);
        let mut b = comm(64);
        a.alltoall(1 << 16);
        b.alltoall_grouped(8, 1 << 16);
        assert!(b.elapsed() < a.elapsed());
    }

    #[test]
    fn gpu_aware_comm_is_faster() {
        let net = Network::from_machine(&MachineModel::frontier());
        let mut aware = Comm::new(16, net.clone().with_gpu_aware(true));
        let mut staged = Comm::new(16, net.with_gpu_aware(false));
        aware.alltoall(1 << 20);
        staged.alltoall(1 << 20);
        assert!(staged.elapsed() > aware.elapsed() * 1.5);
    }

    #[test]
    fn barrier_is_latency_only() {
        let mut c = comm(1024);
        c.barrier();
        let t = c.elapsed();
        assert!(
            t.micros() < 100.0,
            "barrier should be microseconds, got {t}"
        );
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_rejected() {
        comm(2).send(1, 1, 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = comm(4);
        c.allreduce(1 << 20);
        c.reset();
        assert_eq!(c.elapsed(), SimTime::ZERO);
        assert_eq!(c.stats().collectives, 0);
    }

    #[test]
    fn gather_scatter_reduce_scan_cost_sanely() {
        let mut c = comm(64);
        let t_gather = c.gather(1 << 16);
        c.reset();
        let t_bcast = c.bcast(1 << 16);
        c.reset();
        let t_scan = c.scan(1 << 16);
        c.reset();
        let t_reduce = c.reduce(1 << 16);
        // Gather moves (p-1)n through the root: costlier than a tree bcast.
        assert!(t_gather > t_bcast);
        assert!(t_scan > SimTime::ZERO && t_reduce > SimTime::ZERO);
        c.reset();
        assert!(c.scatter(1 << 16) == t_gather);
    }

    #[test]
    fn bcast_data_replicates_the_root() {
        let mut c = comm(4);
        let mut data: Vec<Vec<u32>> = vec![vec![], vec![7, 8, 9], vec![1], vec![]];
        c.bcast_data(1, &mut data);
        for v in &data {
            assert_eq!(v, &vec![7, 8, 9]);
        }
        assert_eq!(c.stats().collectives, 1);
    }

    #[test]
    fn telemetry_records_per_rank_spans_and_matching_counters() {
        let collector = TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "world");
        c.advance(1, SimTime::from_micros(50.0)); // skew one rank
        c.allreduce(1 << 12);
        c.send(0, 3, 1 << 10);
        c.barrier();
        c.absorb_telemetry();

        let snap = collector.snapshot();
        let stats = c.stats();
        assert_eq!(snap.counter("mpi.collectives"), stats.collectives);
        assert_eq!(snap.counter("mpi.messages"), stats.messages);
        assert_eq!(snap.counter("mpi.bytes"), stats.bytes);
        // Collectives land on every rank track; the send only on ranks 0, 3.
        assert_eq!(snap.tracks.len(), 4);
        for t in &snap.tracks {
            let expect = if t.name == "world/rank0" || t.name == "world/rank3" {
                3
            } else {
                2
            };
            assert_eq!(t.spans, expect, "track {}", t.name);
        }
        // Per-track spans must be well-formed Chrome trace material.
        let trace = collector.chrome_trace();
        exa_telemetry::validate_chrome_trace(&trace).expect("valid chrome trace");
    }

    #[test]
    fn wait_attribution_charges_the_punctual_ranks() {
        let collector = TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "world");
        let skew = SimTime::from_millis(5.0);
        c.advance(3, skew); // rank 3 is the straggler
        c.allreduce(1 << 10);
        // The straggler never waited; everyone else waited out the skew.
        assert_eq!(c.wait(3), SimTime::ZERO);
        for r in 0..3 {
            assert_eq!(c.wait(r), skew, "rank {r}");
        }
        assert_eq!(c.max_wait(), skew);
        assert_eq!(c.stats().wait, skew * 3.0);

        // A rendezvous send also charges the early endpoint.
        c.advance(0, SimTime::from_micros(40.0));
        let before = c.wait(1);
        c.send(0, 1, 1 << 10);
        assert!(
            (c.wait(1) - before - SimTime::from_micros(40.0))
                .secs()
                .abs()
                < 1e-12
        );
        assert_eq!(c.wait(0), skew, "the late arriver paid nothing extra");

        c.absorb_telemetry();
        let snap = collector.snapshot();
        assert!((snap.times_s["mpi.wait"] - c.stats().wait.secs()).abs() < 1e-12);
        assert_eq!(snap.gauges["mpi.wait_max_s"], c.max_wait().secs());
        assert!(snap.gauges["mpi.wait_mean_s"] > 0.0);

        c.reset();
        assert_eq!(c.max_wait(), SimTime::ZERO);
        assert_eq!(c.stats().wait, SimTime::ZERO);
    }

    #[test]
    fn jitter_inflates_costs_deterministically() {
        let run = |seed: u64| {
            let mut c = comm(8);
            c.set_jitter(0.3, seed);
            for _ in 0..16 {
                c.allreduce(1 << 12);
            }
            c.elapsed()
        };
        let calm = {
            let mut c = comm(8);
            for _ in 0..16 {
                c.allreduce(1 << 12);
            }
            c.elapsed()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay the same jitter");
        assert_ne!(a, run(43), "different seed, different noise");
        assert!(a > calm, "jitter can only slow the fabric");
        assert!(
            a < calm * 1.3 + SimTime::from_secs(1e-12),
            "bounded by the amplitude"
        );
        // reset() restarts the draw sequence.
        let mut c = comm(8);
        c.set_jitter(0.3, 42);
        for _ in 0..16 {
            c.allreduce(1 << 12);
        }
        let first = c.elapsed();
        c.reset();
        for _ in 0..16 {
            c.allreduce(1 << 12);
        }
        assert_eq!(c.elapsed(), first);
    }

    #[test]
    fn straggler_wait_spans_record_only_when_enabled() {
        let run = |enabled: bool| {
            let collector = TelemetryCollector::shared();
            let mut c = comm(4);
            c.attach_telemetry(&collector, "w");
            c.record_straggler_spans(enabled);
            c.advance(2, SimTime::from_millis(3.0)); // straggler
            c.allreduce(1 << 10);
            c.absorb_telemetry();
            collector.snapshot()
        };
        let off = run(false);
        assert!(
            off.tracks.iter().all(|t| t.spans == 1),
            "clean traces unchanged"
        );
        let on = run(true);
        // Ranks 0, 1, 3 waited on rank 2: one extra fault-cat span each.
        for t in &on.tracks {
            let expect = if t.name == "w/rank2" { 1 } else { 2 };
            assert_eq!(t.spans, expect, "track {}", t.name);
        }
    }

    #[test]
    fn lockstep_ops_never_split_and_per_rank_ops_do() {
        let mut c = comm(32_768);
        c.advance_all(SimTime::from_micros(3.0));
        c.alltoallv_grouped(181, 180, 1 << 20);
        let req = c.ialltoallv(7, 1 << 16);
        c.advance_all(SimTime::from_micros(1.0));
        req.wait(&mut c);
        c.barrier();
        assert!(matches!(c.ranks, Ranks::Lockstep { .. }));
        assert_eq!(c.now(32_767), c.elapsed());
        c.advance(5, SimTime::from_micros(1.0));
        assert!(matches!(c.ranks, Ranks::Split { .. }));
        c.reset();
        assert!(matches!(c.ranks, Ranks::Lockstep { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lockstep_still_checks_the_rank() {
        comm(4).now(4);
    }

    /// Everything a caller can observe of a communicator, as bits.
    fn observed_bits(c: &Comm) -> Vec<u64> {
        let s = c.stats();
        let mut bits = vec![
            c.elapsed().secs().to_bits(),
            c.max_wait().secs().to_bits(),
            s.messages,
            s.bytes,
            s.collectives,
            s.wait.secs().to_bits(),
            s.nonblocking,
            s.inflight.secs().to_bits(),
            s.hidden.secs().to_bits(),
            c.net_free.secs().to_bits(),
        ];
        for r in 0..c.size() {
            bits.push(c.now(r).secs().to_bits());
            bits.push(c.wait(r).secs().to_bits());
        }
        bits
    }

    /// One randomly drawn operation, applied identically to both
    /// communicators (requests are kept per communicator, in post order).
    fn apply(
        c: &mut Comm,
        pending: &mut Vec<crate::Request>,
        op: (u8, u64, usize, usize, f64),
        per_rank: bool,
    ) {
        use crate::Overlap;
        let (kind, bytes, x, y, u) = op;
        let p = c.size();
        let dt = SimTime::from_micros(500.0 * u);
        let (a, b) = (x % p, y % p);
        let group = 1 + x % p;
        match kind {
            0 => c.advance_all(dt),
            1 if per_rank => c.advance(a, dt),
            2 => match y % 5 {
                0 => drop(c.allreduce(bytes)),
                1 => drop(c.barrier()),
                2 => drop(c.alltoall(bytes)),
                3 => drop(c.bcast(bytes)),
                _ => drop(c.alltoallv(p - 1, bytes)),
            },
            3 => match y % 3 {
                0 => drop(c.alltoall_grouped(group, bytes)),
                1 => drop(c.alltoallv_grouped(group, group - 1, bytes)),
                _ => drop(c.bcast_grouped(group, bytes)),
            },
            4 => pending.push(c.ialltoallv(y % p, bytes)),
            5 => pending.push(c.ialltoallv_grouped(group, y % group, bytes)),
            6 if per_rank && a != b => {
                let req = if y % 2 == 0 {
                    c.isend(a, b, bytes)
                } else {
                    c.irecv(a, b, bytes)
                };
                pending.push(req);
            }
            7 if !pending.is_empty() => drop(pending.remove(0).wait(c)),
            8 => drop(Overlap::pipeline(
                c,
                1 + y % 4,
                |c, _| c.advance_all(dt),
                |c, _| c.ialltoall(bytes),
                |c, _| c.advance_all(dt * 0.5),
            )),
            9 if per_rank && a != b => drop(c.send(a, b, bytes)),
            _ => c.advance_all(dt * 0.25),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Lockstep is a representation, not a model: a communicator that
        /// stays in lockstep until a per-rank operation splits it observes
        /// exactly — bit for bit, trace bytes included — what one split
        /// from the start does, under jitter, contention, telemetry and
        /// straggler spans.
        #[test]
        fn lockstep_and_split_clocks_are_bit_identical(
            ranks in 1usize..12,
            flags in 0u8..32,
            amp in 0.0f64..0.5,
            ops in proptest::collection::vec(
                (0u8..11, 0u64..(1 << 20), 0usize..64, 0usize..64, 0.0f64..1.0),
                1..48,
            ),
        ) {
            let (jitter, contended, traced, stragglers, per_rank) = (
                flags & 1 != 0,
                flags & 2 != 0,
                flags & 4 != 0,
                flags & 8 != 0,
                flags & 16 != 0,
            );
            let mut net = Network::from_machine(&MachineModel::frontier());
            if contended {
                net = net.with_contention(1.0 + 4.0 * amp, 1.0 + 2.0 * amp);
            }
            let collectors = [TelemetryCollector::shared(), TelemetryCollector::shared()];
            let mut comms: Vec<Comm> = collectors
                .iter()
                .map(|col| {
                    let mut c = Comm::new(ranks, net.clone());
                    if jitter {
                        c.set_jitter(amp, 17);
                    }
                    if traced {
                        c.attach_telemetry(col, "w");
                        c.record_straggler_spans(stragglers);
                    }
                    c
                })
                .collect();
            comms[1].force_split();
            let mut pending: [Vec<crate::Request>; 2] = Default::default();
            for &op in &ops {
                for (c, q) in comms.iter_mut().zip(pending.iter_mut()) {
                    apply(c, q, op, per_rank);
                }
                proptest::prop_assert_eq!(
                    observed_bits(&comms[0]),
                    observed_bits(&comms[1]),
                    "after {:?}",
                    op
                );
            }
            for (c, q) in comms.iter_mut().zip(pending.iter_mut()) {
                for req in q.drain(..) {
                    req.wait(c);
                }
                c.absorb_telemetry();
            }
            proptest::prop_assert_eq!(observed_bits(&comms[0]), observed_bits(&comms[1]));
            if !per_rank {
                proptest::prop_assert!(matches!(comms[0].ranks, Ranks::Lockstep { .. }));
            }
            proptest::prop_assert_eq!(collectors[0].chrome_trace(), collectors[1].chrome_trace());
        }
    }

    #[test]
    fn exscan_is_exclusive_prefix_sum() {
        let mut c = comm(5);
        let mut vals = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        c.exscan_sum_f64(&mut vals);
        assert_eq!(vals, vec![0.0, 1.0, 3.0, 6.0, 10.0]);
    }
}
