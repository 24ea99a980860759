//! Split-phase (nonblocking) communication: request handles and the
//! chunked-pipeline overlap scheduler.
//!
//! The blocking collectives in [`crate::comm`] model BSP programs: every
//! operation synchronises the ranks involved and charges comm + compute.
//! Frontier-era apps (GESTS' pipelined transposes, Pele's preposted ghost
//! exchange) instead *post* communication, compute while the fabric moves
//! bytes, and pay only the residue at `wait` — max(comm, compute). This
//! module adds that model on the same per-rank virtual clocks:
//!
//! * posting is free: the operation's start is the latest participant clock
//!   at issue (or later, if earlier traffic still holds the injection pipe —
//!   in-flight operations serialise through [`Comm`]'s `net_free` cursor);
//! * `finish = start + cost` with the same α–β cost the blocking twin uses;
//! * [`Request::wait`] charges each participant only `max(0, finish − now)`
//!   — the *remaining* in-flight time — into the per-rank wait attribution,
//!   and books the hidden portion into [`crate::CommStats`]`::hidden` so
//!   `overlap_efficiency()` reports how much communication compute absorbed.

use crate::collectives as coll;
use crate::comm::{Comm, Ranks};
use exa_machine::SimTime;
use exa_telemetry::SpanCat;

/// Which ranks take part in a split-phase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participants {
    /// Every rank of the communicator (split-phase collectives).
    All,
    /// Exactly two endpoints (isend / irecv rendezvous).
    Pair(usize, usize),
}

/// A posted but not yet completed split-phase operation.
///
/// Consumed by [`Request::wait`]; dropping a request without waiting leaks
/// the operation (its cost was reserved on the fabric but never charged to
/// any clock), so completion is part of the contract, as in MPI.
#[derive(Debug)]
#[must_use = "a posted request must be completed with wait()"]
pub struct Request {
    name: &'static str,
    participants: Participants,
    start: SimTime,
    finish: SimTime,
    cost: SimTime,
}

impl Request {
    /// When the fabric begins moving this operation's bytes.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// When the operation's payload is fully delivered.
    pub fn finish(&self) -> SimTime {
        self.finish
    }

    /// The α–β cost of the operation (identical to its blocking twin).
    pub fn cost(&self) -> SimTime {
        self.cost
    }

    /// Complete the operation: each participant blocks for the *remaining*
    /// in-flight time only. Returns the completion time.
    pub fn wait(self, comm: &mut Comm) -> SimTime {
        comm.complete_request(&self);
        self.finish
    }
}

/// A batch of outstanding requests (the preposted-irecv idiom).
#[derive(Debug, Default)]
pub struct RequestSet {
    reqs: Vec<Request>,
}

impl RequestSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an outstanding request.
    pub fn push(&mut self, req: Request) {
        self.reqs.push(req);
    }

    /// Outstanding requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether no requests are outstanding.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Complete every outstanding request (in post order — completion order
    /// cannot matter because `wait` only ever moves clocks forward). Returns
    /// the latest finish time, or the comm's elapsed time when empty.
    pub fn wait_all(&mut self, comm: &mut Comm) -> SimTime {
        let mut last = SimTime::ZERO;
        for req in self.reqs.drain(..) {
            last = last.max(req.wait(comm));
        }
        last.max(comm.elapsed())
    }
}

impl Comm {
    /// Post a split-phase operation: reserve the injection pipe from the
    /// latest participant clock (posting itself is free) and return the
    /// handle. All cost/volume accounting that the blocking twin does at
    /// call time happens here; the *charging* of time happens at `wait`.
    fn post(
        &mut self,
        name: &'static str,
        participants: Participants,
        cost: SimTime,
        bytes: u64,
    ) -> Request {
        let issue = match participants {
            Participants::All => self.elapsed(),
            Participants::Pair(a, b) => {
                assert!(a != b, "self-sends are local copies, not messages");
                self.now(a).max(self.now(b))
            }
        };
        let start = issue.max(self.net_free);
        let finish = start + cost;
        self.net_free = finish;
        self.stats.bytes += bytes;
        match participants {
            Participants::All => self.stats.collectives += 1,
            Participants::Pair(..) => self.stats.messages += 1,
        }
        Request {
            name,
            participants,
            start,
            finish,
            cost,
        }
    }

    /// Complete a posted request: charge each participant the residue of
    /// the in-flight window, attribute the hidden remainder, and record the
    /// operation's span on the participant tracks.
    pub(crate) fn complete_request(&mut self, req: &Request) {
        let residue_at = |now: SimTime| {
            if req.finish > now {
                req.finish - now
            } else {
                SimTime::ZERO
            }
        };
        let size = self.size();
        let stats = &mut self.stats;
        let mut book = |residue: SimTime| {
            stats.wait += residue;
            stats.hidden += req.cost - residue.min(req.cost);
            stats.inflight += req.cost;
        };
        match (req.participants, &mut self.ranks) {
            (Participants::All, Ranks::Lockstep { clock, wait }) => {
                let now = clock.now();
                let residue = residue_at(now);
                *wait += residue;
                clock.sync_to(now.max(req.finish));
                // Book once per rank, in rank order, so the f64 sums round
                // exactly as the per-rank walk does (`residue × p` would
                // move the low bits).
                for _ in 0..size {
                    book(residue);
                }
            }
            (participants, ranks) => {
                let (clocks, waits) = ranks.split(size);
                let mut charge = |r: usize| {
                    let now = clocks[r].now();
                    let residue = residue_at(now);
                    waits[r] += residue;
                    book(residue);
                    clocks[r].sync_to(now.max(req.finish));
                };
                match participants {
                    Participants::All => (0..size).for_each(&mut charge),
                    Participants::Pair(a, b) => [a, b].into_iter().for_each(&mut charge),
                }
            }
        }
        self.stats.nonblocking += 1;
        if let Some(tel) = self.telemetry.as_ref() {
            if !req.cost.is_zero() {
                let pair;
                let (cat, tracks): (_, &[_]) = match req.participants {
                    Participants::All => (SpanCat::Collective, &tel.tracks),
                    Participants::Pair(a, b) => {
                        pair = [tel.tracks[a], tel.tracks[b]];
                        (SpanCat::Message, &pair)
                    }
                };
                tel.collector
                    .complete_on_tracks(tracks, req.name, cat, req.start, req.finish);
            }
        }
    }

    /// Nonblocking point-to-point send of `bytes` from `src` to `dst`. The
    /// simulation represents a matched isend/irecv rendezvous as a single
    /// request owned by either side — post it once, not once per endpoint.
    pub fn isend(&mut self, src: usize, dst: usize, bytes: u64) -> Request {
        let cost = self.net.p2p(bytes);
        self.post("isend", Participants::Pair(src, dst), cost, bytes)
    }

    /// Prepost the receive side of a rendezvous — cost-identical to
    /// [`Comm::isend`]; the distinct name keeps traces honest about which
    /// side drove the exchange.
    pub fn irecv(&mut self, dst: usize, src: usize, bytes: u64) -> Request {
        let cost = self.net.p2p(bytes);
        self.post("irecv", Participants::Pair(src, dst), cost, bytes)
    }

    /// Split-phase allreduce of `bytes` per rank.
    pub fn iallreduce(&mut self, bytes: u64) -> Request {
        let cost = coll::allreduce_time(&self.net, self.size(), bytes);
        self.post("iallreduce", Participants::All, cost, bytes)
    }

    /// Split-phase all-to-all (`bytes_per_pair` between every rank pair).
    pub fn ialltoall(&mut self, bytes_per_pair: u64) -> Request {
        let p = self.size();
        let cost = coll::alltoall_time(&self.net, p, bytes_per_pair);
        let vol = bytes_per_pair * p as u64 * (p as u64 - 1);
        self.post("ialltoall", Participants::All, cost, vol)
    }

    /// Split-phase all-to-all inside disjoint groups of `group` ranks.
    pub fn ialltoall_grouped(&mut self, group: usize, bytes_per_pair: u64) -> Request {
        assert!(group >= 1 && group <= self.size());
        let cost = coll::alltoall_time(&self.net, group, bytes_per_pair);
        let groups = (self.size() / group.max(1)) as u64;
        let vol = bytes_per_pair * group as u64 * (group as u64 - 1) * groups;
        self.post("ialltoall_grouped", Participants::All, cost, vol)
    }

    /// Split-phase variable-size all-to-all ([`Comm::alltoallv`]).
    pub fn ialltoallv(&mut self, peers: usize, bytes: u64) -> Request {
        assert!(peers < self.size(), "more peers than remote ranks");
        let cost = coll::alltoallv_time(&self.net, peers, bytes);
        let vol = bytes * self.size() as u64;
        self.post("ialltoallv", Participants::All, cost, vol)
    }

    /// Split-phase grouped variable-size all-to-all.
    pub fn ialltoallv_grouped(&mut self, group: usize, peers: usize, bytes: u64) -> Request {
        assert!(group >= 1 && group <= self.size());
        assert!(peers < group, "more peers than remote group members");
        let cost = coll::alltoallv_time(&self.net, peers, bytes);
        let vol = bytes * self.size() as u64;
        self.post("ialltoallv_grouped", Participants::All, cost, vol)
    }

    /// Preposted halo exchange: every rank's `neighbors` partner messages of
    /// `bytes` each go in flight at once.
    pub fn ihalo(&mut self, neighbors: usize, bytes: u64) -> Request {
        let cost = coll::halo_time(&self.net, neighbors, bytes);
        let vol = bytes * neighbors as u64 * self.size() as u64;
        self.post("ihalo", Participants::All, cost, vol)
    }
}

/// The chunked-pipeline overlap scheduler.
///
/// [`Overlap::pipeline`] splits a transpose or exchange into `K` chunks and
/// interleaves chunk `k`'s collective with chunk `k−1`'s compute, so the
/// steady state charges `max(comm, compute)` per stage plus a fill (first
/// produce, first chunk's exposed comm) and a drain (last consume).
pub struct Overlap;

impl Overlap {
    /// Run a `chunks`-deep software pipeline over `comm`:
    ///
    /// * `produce(comm, k)` charges the compute that *creates* chunk `k`'s
    ///   payload (e.g. the FFT stage feeding a transpose);
    /// * `post(comm, k)` posts chunk `k`'s split-phase operation;
    /// * `consume(comm, k)` charges the compute that *uses* chunk `k`'s
    ///   delivered payload (the stage after the transpose).
    ///
    /// Schedule: produce(0), post(0); then for each k ≥ 1 — produce(k),
    /// post(k), wait(k−1), consume(k−1) — so chunk k's bytes fly while
    /// chunk k−1 is produced and consumed. Returns the pipeline's end time.
    pub fn pipeline<P, Q, C>(
        comm: &mut Comm,
        chunks: usize,
        mut produce: P,
        mut post: Q,
        mut consume: C,
    ) -> SimTime
    where
        P: FnMut(&mut Comm, usize),
        Q: FnMut(&mut Comm, usize) -> Request,
        C: FnMut(&mut Comm, usize),
    {
        assert!(chunks >= 1, "pipeline needs at least one chunk");
        produce(comm, 0);
        let mut pending = post(comm, 0);
        for k in 1..chunks {
            produce(comm, k);
            let next = post(comm, k);
            pending.wait(comm);
            consume(comm, k - 1);
            pending = next;
        }
        pending.wait(comm);
        consume(comm, chunks - 1);
        comm.elapsed()
    }

    /// Cap the chunk count so per-chunk latency can never make the pipeline
    /// slower than the blocking schedule: with `rounds` α-charges per posted
    /// chunk, overlapped ≤ blocking holds whenever
    /// `rounds · α ≤ compute_window / K`. Always returns at least 1.
    pub fn clamp_chunks(
        chunks: usize,
        compute_window: SimTime,
        rounds: usize,
        alpha: SimTime,
    ) -> usize {
        let latency = alpha * rounds as f64;
        if latency.is_zero() {
            return chunks.max(1);
        }
        let cap = (compute_window / latency).floor() as usize;
        chunks.min(cap).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use exa_machine::MachineModel;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    #[test]
    fn immediate_wait_equals_blocking() {
        let mut nb = comm(16);
        let mut bl = comm(16);
        let req = nb.iallreduce(1 << 20);
        let t_nb = req.wait(&mut nb);
        let t_bl = bl.allreduce(1 << 20);
        assert_eq!(t_nb, t_bl);
        assert_eq!(nb.elapsed(), bl.elapsed());
        // Nothing was hidden: the whole cost is residue.
        assert_eq!(nb.stats().hidden, SimTime::ZERO);
        assert_eq!(nb.stats().overlap_efficiency(), 0.0);
        assert_eq!(nb.stats().nonblocking, 1);
    }

    #[test]
    fn full_overlap_hides_the_whole_cost() {
        let mut c = comm(16);
        let req = c.ialltoall(1 << 20);
        let cost = req.cost();
        assert!(cost > SimTime::ZERO);
        c.advance_all(cost * 2.0); // compute longer than the flight time
        let before_wait = c.elapsed();
        req.wait(&mut c);
        assert_eq!(c.elapsed(), before_wait, "wait was free");
        assert_eq!(c.stats().wait, SimTime::ZERO);
        assert_eq!(c.stats().hidden, cost * 16.0);
        assert!((c.stats().overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_charges_only_the_residue() {
        let mut c = comm(8);
        let req = c.iallreduce(8 << 20);
        let cost = req.cost();
        let compute = cost * 0.25;
        c.advance_all(compute);
        req.wait(&mut c);
        let residue = cost - compute;
        assert!((c.elapsed() - cost).secs().abs() < 1e-15);
        assert!((c.wait(0) - residue).secs().abs() < 1e-15);
        let eff = c.stats().overlap_efficiency();
        assert!((eff - 0.25).abs() < 1e-9, "eff {eff}");
    }

    #[test]
    fn inflight_operations_serialise_on_the_fabric() {
        let mut c = comm(8);
        let r1 = c.ialltoall(1 << 18);
        let r2 = c.ialltoall(1 << 18);
        assert_eq!(r2.start(), r1.finish(), "one injection pipe");
        let mut set = RequestSet::new();
        assert!(set.is_empty());
        set.push(r1);
        set.push(r2);
        assert_eq!(set.len(), 2);
        let done = set.wait_all(&mut c);
        assert!(set.is_empty());
        assert_eq!(done, c.elapsed());
    }

    #[test]
    fn blocking_collective_stalls_behind_inflight_traffic() {
        let mut c = comm(8);
        let req = c.ialltoall(1 << 20);
        let t_barrier = c.barrier(); // must queue behind the alltoall
        assert!(t_barrier > req.finish());
        assert!(c.stats().wait > SimTime::ZERO);
        let cost = req.cost();
        req.wait(&mut c); // residue is zero: the barrier already out-waited it
        assert!((c.stats().hidden - cost * 8.0).secs().abs() < 1e-15);
    }

    #[test]
    fn pipeline_beats_serial_and_respects_the_floor() {
        let p = 8;
        let chunks = 4;
        let work = SimTime::from_micros(400.0);
        let bytes = 4 << 20;

        let mut serial = comm(p);
        for _ in 0..chunks {
            serial.advance_all(work);
            serial.alltoall(bytes);
        }
        let t_serial = serial.elapsed();

        let mut over = comm(p);
        let t_over = Overlap::pipeline(
            &mut over,
            chunks,
            |c, _| c.advance_all(work),
            |c, _| c.ialltoall(bytes),
            |_, _| {},
        );
        assert!(t_over < t_serial, "overlap {t_over} vs serial {t_serial}");

        // No free lunch: the pipeline can't beat comm-only or compute-only.
        let comm_only = coll::alltoall_time(serial.network(), p, bytes) * chunks as f64;
        let compute_only = work * chunks as f64;
        assert!(t_over >= comm_only.max(compute_only));
        let eff = over.stats().overlap_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "eff {eff}");
    }

    #[test]
    fn single_chunk_pipeline_degenerates_to_blocking_order() {
        let work = SimTime::from_micros(50.0);
        let mut c = comm(4);
        let t = Overlap::pipeline(
            &mut c,
            1,
            |c, _| c.advance_all(work),
            |c, _| c.iallreduce(1 << 16),
            |c, _| c.advance_all(work),
        );
        let mut b = comm(4);
        b.advance_all(work);
        b.allreduce(1 << 16);
        b.advance_all(work);
        assert_eq!(t, b.elapsed());
    }

    #[test]
    fn clamp_caps_latency_bound_chunking() {
        let alpha = SimTime::from_micros(2.0);
        let window = SimTime::from_micros(100.0);
        // 10 rounds × 2 µs = 20 µs per chunk: at most 5 chunks fit.
        assert_eq!(Overlap::clamp_chunks(32, window, 10, alpha), 5);
        assert_eq!(Overlap::clamp_chunks(3, window, 10, alpha), 3);
        assert_eq!(Overlap::clamp_chunks(32, SimTime::ZERO, 10, alpha), 1);
        assert_eq!(Overlap::clamp_chunks(32, window, 0, SimTime::ZERO), 32);
    }

    #[test]
    fn preposted_halo_overlaps_interior_compute() {
        let mut sync = comm(27);
        let mut async_ = comm(27);
        let work = SimTime::from_micros(300.0);
        let bytes = 1 << 18;

        sync.halo_exchange(6, bytes);
        sync.advance_all(work);
        let t_sync = sync.elapsed();

        let req = async_.ihalo(6, bytes);
        async_.advance_all(work);
        req.wait(&mut async_);
        let t_async = async_.elapsed();

        assert!(t_async < t_sync);
        let halo = coll::halo_time(sync.network(), 6, bytes);
        assert!((t_async - work.max(halo)).secs().abs() < 1e-15);
    }

    #[test]
    fn isend_charges_endpoints_only() {
        let mut c = comm(4);
        let req = c.isend(0, 2, 1 << 16);
        c.advance(1, SimTime::from_micros(5.0));
        let finish = req.finish();
        req.wait(&mut c);
        assert_eq!(c.now(0), finish);
        assert_eq!(c.now(2), finish);
        assert_eq!(c.now(1), SimTime::from_micros(5.0), "bystander untouched");
        assert_eq!(c.stats().messages, 1);
        let r = c.irecv(3, 1, 1 << 16);
        r.wait(&mut c);
        assert_eq!(c.stats().messages, 2);
    }

    #[test]
    fn overlap_spans_land_on_participant_tracks() {
        let collector = exa_telemetry::TelemetryCollector::shared();
        let mut c = comm(4);
        c.attach_telemetry(&collector, "nb");
        let req = c.ialltoall(1 << 16);
        c.advance_all(SimTime::from_micros(200.0));
        req.wait(&mut c);
        c.absorb_telemetry();
        let snap = collector.snapshot();
        assert_eq!(snap.tracks.len(), 4);
        for t in &snap.tracks {
            assert_eq!(t.spans, 1, "track {}", t.name);
        }
        assert_eq!(snap.counter("mpi.nonblocking"), 1);
        assert!(snap.gauges["mpi.overlap_efficiency"] > 0.0);
        let trace = collector.chrome_trace();
        exa_telemetry::validate_chrome_trace(&trace).expect("valid chrome trace");
    }
}
