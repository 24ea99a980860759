//! Kernel graphs — capture, optimize, replay.
//!
//! The simulator's analogue of hipGraph / CUDA Graphs. E3SM-MMF's §3.5
//! campaign is a fight against per-launch latency: the per-step launch
//! sequence is *fixed*, which is exactly the precondition for recording it
//! once into a graph, optimizing the graph (kernel **fusion** merges runs of
//! small elementwise kernels into one launch and one memory sweep; kernel
//! **fission** splits register-spilling kernels into spill-free parts), and
//! then replaying the whole step for the cost of a *single* graph launch
//! plus a small per-node queue dispatch.
//!
//! The engine is not only a cost model. Elementwise kernels captured with
//! [`GraphCapture::elementwise`] carry their real host compute as chunk
//! closures; a fused node applies *all* of its stages to one cache-resident
//! chunk before moving to the next, so [`Stream::replay_on`] genuinely makes
//! one pass over the data where [`Stream::launch_eager`] makes one full
//! sweep per original kernel — a measurable memory-bandwidth win on the
//! host, mirroring the HBM-traffic win the fused profile models on the
//! simulated device (see `crates/bench/benches/graph_fusion.rs`).
//!
//! [`Stream::replay_on`]: crate::stream::Stream::replay_on
//! [`Stream::launch_eager`]: crate::stream::Stream::launch_eager

use crate::exec;
use exa_machine::{graph_node_dispatch, GpuModel, KernelProfile, SimTime};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// The real host compute of an elementwise kernel: `f(base, chunk)` applies
/// the kernel to `chunk`, whose first element has global index `base`.
/// Operating on chunks (not single elements) keeps dynamic dispatch off the
/// inner loop, so fused replay measures memory behaviour, not call overhead.
pub type ElementwiseFn = Arc<dyn Fn(usize, &mut [f64]) + Send + Sync>;

/// Chunk length for fused execution: 4096 f64s = 32 KiB, comfortably
/// cache-resident, so every stage after the first hits L1/L2 instead of DRAM.
pub const FUSED_CHUNK: usize = 4096;

/// One kernel node in a captured graph.
#[derive(Clone)]
pub struct KernelNode {
    /// Cost-model profile of the (possibly fused or fissioned) kernel.
    pub profile: KernelProfile,
    /// Whether the fusion pass may merge this node with its neighbours
    /// (true only for kernels known to be pure and elementwise).
    pub fusable: bool,
    /// How many originally-captured kernels this node represents (1 unless
    /// the node is the product of fusion).
    pub fused_from: u32,
    /// True when the node is one part of a fissioned kernel (loop fission:
    /// same iteration space, a fraction of the body).
    pub fissioned: bool,
    /// Real host compute stages, applied in order (empty for modeled-only
    /// kernels).
    pub stages: Vec<ElementwiseFn>,
}

impl fmt::Debug for KernelNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelNode")
            .field("profile", &self.profile.name)
            .field("fusable", &self.fusable)
            .field("fused_from", &self.fused_from)
            .field("fissioned", &self.fissioned)
            .field("stages", &self.stages.len())
            .finish()
    }
}

impl KernelNode {
    /// Fused execution: every stage is applied to one cache-resident chunk
    /// before the next chunk is touched — a single pass over DRAM no matter
    /// how many kernels were fused into this node.
    pub(crate) fn execute_fused(&self, data: &mut [f64]) {
        if self.stages.is_empty() {
            return;
        }
        let stages = &self.stages;
        exec::par_chunks_mut(data, FUSED_CHUNK, |c, chunk| {
            let start = c * FUSED_CHUNK;
            for stage in stages {
                stage(start, chunk);
            }
        });
    }

    /// Eager execution: one full sweep over the data per stage — what a
    /// sequence of separate kernel launches does to memory.
    pub(crate) fn execute_eager(&self, data: &mut [f64]) {
        for stage in &self.stages {
            exec::par_chunks_mut(data, FUSED_CHUNK, |c, chunk| {
                stage(c * FUSED_CHUNK, chunk);
            });
        }
    }
}

/// One recorded operation in a graph.
#[derive(Clone, Debug)]
pub enum GraphOp {
    /// A kernel launch.
    Kernel(KernelNode),
    /// Host→device transfer of `bytes`.
    Upload {
        /// Bytes moved.
        bytes: u64,
    },
    /// Device→host transfer of `bytes`.
    Download {
        /// Bytes moved.
        bytes: u64,
    },
    /// A device allocation. On replay the graph's memory plan is already
    /// instantiated (the runtime pools it), so only node dispatch is charged
    /// — the same effect the §3.5 pool allocator buys launch-by-launch code.
    Alloc {
        /// Bytes reserved.
        bytes: u64,
    },
}

/// Records a sequence of stream operations into a [`KernelGraph`].
///
/// Either build one directly (`GraphCapture::new()`, the explicit
/// graph-construction API) or let a stream record into it between
/// [`Stream::begin_capture`] and [`Stream::end_capture`].
///
/// [`Stream::begin_capture`]: crate::stream::Stream::begin_capture
/// [`Stream::end_capture`]: crate::stream::Stream::end_capture
#[derive(Debug, Default)]
pub struct GraphCapture {
    ops: Vec<GraphOp>,
}

impl GraphCapture {
    /// An empty capture.
    pub fn new() -> Self {
        GraphCapture { ops: Vec::new() }
    }

    /// Record a modeled kernel launch. Not eligible for fusion (the engine
    /// cannot prove an arbitrary kernel pure).
    pub fn kernel(&mut self, profile: KernelProfile) -> &mut Self {
        self.ops.push(GraphOp::Kernel(KernelNode {
            profile,
            fusable: false,
            fused_from: 1,
            fissioned: false,
            stages: Vec::new(),
        }));
        self
    }

    /// Record a modeled kernel launch declared safe to fuse with its
    /// neighbours (pure, elementwise — the caller vouches).
    pub fn kernel_fusable(&mut self, profile: KernelProfile) -> &mut Self {
        self.ops.push(GraphOp::Kernel(KernelNode {
            profile,
            fusable: true,
            fused_from: 1,
            fissioned: false,
            stages: Vec::new(),
        }));
        self
    }

    /// Record an elementwise kernel *with its real host compute*: `f(base,
    /// chunk)` transforms `chunk` in place, `base` being the global index of
    /// its first element. Eligible for fusion.
    pub fn elementwise(
        &mut self,
        profile: KernelProfile,
        f: impl Fn(usize, &mut [f64]) + Send + Sync + 'static,
    ) -> &mut Self {
        self.ops.push(GraphOp::Kernel(KernelNode {
            profile,
            fusable: true,
            fused_from: 1,
            fissioned: false,
            stages: vec![Arc::new(f)],
        }));
        self
    }

    /// Record a host→device transfer.
    pub fn upload(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(GraphOp::Upload { bytes });
        self
    }

    /// Record a device→host transfer.
    pub fn download(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(GraphOp::Download { bytes });
        self
    }

    /// Record a device allocation.
    pub fn alloc(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(GraphOp::Alloc { bytes });
        self
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finish capturing and produce the (unoptimized) graph.
    pub fn end(self) -> KernelGraph {
        KernelGraph { ops: self.ops }
    }
}

/// Controls for the fusion pass.
#[derive(Debug, Clone, Copy)]
pub struct FusionPolicy {
    /// Maximum number of original kernels merged into one fused node.
    pub max_fuse: u32,
    /// Only kernels below this FLOP count are considered small enough to
    /// fuse (fusing two compute monsters buys nothing and costs registers).
    pub flops_cutoff: f64,
}

impl FusionPolicy {
    /// Policy with an explicit fan-in cap and FLOP cutoff.
    pub fn new(max_fuse: u32, flops_cutoff: f64) -> Self {
        assert!(max_fuse >= 2, "fusing fewer than two kernels is a no-op");
        FusionPolicy {
            max_fuse,
            flops_cutoff,
        }
    }
}

impl Default for FusionPolicy {
    /// Fuse up to 8 kernels per node. Fusion only merges launch
    /// overheads — which kernels end up in one node never changes any
    /// computed value.
    fn default() -> Self {
        FusionPolicy {
            max_fuse: 8,
            flops_cutoff: f64::INFINITY,
        }
    }
}

/// Summary of a graph's shape, surfaced in reports and bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GraphStats {
    /// Total operations in the graph.
    pub nodes: usize,
    /// Kernel nodes (after any fusion/fission).
    pub kernels: usize,
    /// Originally captured kernels these nodes represent.
    pub captured_kernels: usize,
    /// Kernel nodes that are fusions of two or more captured kernels.
    pub fused_nodes: usize,
    /// Kernel nodes produced by the fission pass.
    pub fissioned_nodes: usize,
    /// Transfer nodes (uploads + downloads).
    pub transfers: usize,
    /// Allocation nodes.
    pub allocs: usize,
}

impl exa_telemetry::MetricSource for GraphStats {
    fn export_metrics(&self, m: &mut exa_telemetry::MetricsRegistry) {
        m.counter_add("hal.graph.nodes", self.nodes as u64);
        m.counter_add("hal.graph.kernels", self.kernels as u64);
        m.counter_add("hal.graph.captured_kernels", self.captured_kernels as u64);
        m.counter_add("hal.graph.fused_nodes", self.fused_nodes as u64);
        m.counter_add("hal.graph.fissioned_nodes", self.fissioned_nodes as u64);
        m.counter_add("hal.graph.transfers", self.transfers as u64);
        m.counter_add("hal.graph.allocs", self.allocs as u64);
    }
}

/// A captured, optimizable, replayable sequence of device operations.
#[derive(Debug, Default, Clone)]
pub struct KernelGraph {
    ops: Vec<GraphOp>,
}

impl KernelGraph {
    /// The recorded operations in order.
    pub fn ops(&self) -> &[GraphOp] {
        &self.ops
    }

    /// The kernel nodes in launch order.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelNode> {
        self.ops.iter().filter_map(|op| match op {
            GraphOp::Kernel(n) => Some(n),
            _ => None,
        })
    }

    /// Shape summary.
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats {
            nodes: self.ops.len(),
            ..GraphStats::default()
        };
        for op in &self.ops {
            match op {
                GraphOp::Kernel(n) => {
                    s.kernels += 1;
                    s.captured_kernels += n.fused_from as usize;
                    if n.fused_from > 1 {
                        s.fused_nodes += 1;
                    }
                    if n.fissioned {
                        s.fissioned_nodes += 1;
                    }
                }
                GraphOp::Upload { .. } | GraphOp::Download { .. } => s.transfers += 1,
                GraphOp::Alloc { .. } => s.allocs += 1,
            }
        }
        s
    }

    /// Fusion pass: greedily merge adjacent fusable elementwise kernels.
    ///
    /// Each merge charges one launch (dispatch) instead of two and — because
    /// the fused profile sweeps memory once ([`KernelProfile::fuse`]) — one
    /// memory sweep instead of two. Runs of up to `policy.max_fuse` captured
    /// kernels collapse into a single node; kernels at or above
    /// `policy.flops_cutoff` FLOPs are left alone. Returns the number of
    /// merges performed.
    pub fn fuse_elementwise(&mut self, policy: &FusionPolicy) -> usize {
        let mut merged = 0;
        let mut out: Vec<GraphOp> = Vec::with_capacity(self.ops.len());
        for op in self.ops.drain(..) {
            let node = match op {
                GraphOp::Kernel(node) => node,
                other => {
                    out.push(other);
                    continue;
                }
            };
            let can_merge = matches!(out.last(), Some(GraphOp::Kernel(prev))
                if prev.fusable
                    && node.fusable
                    && prev.fused_from + node.fused_from <= policy.max_fuse
                    && prev.profile.flops < policy.flops_cutoff
                    && node.profile.flops < policy.flops_cutoff);
            if can_merge {
                if let Some(GraphOp::Kernel(prev)) = out.last_mut() {
                    prev.profile = prev.profile.fuse(&node.profile);
                    prev.fused_from += node.fused_from;
                    prev.stages.extend(node.stages);
                    merged += 1;
                }
            } else {
                out.push(GraphOp::Kernel(node));
            }
        }
        self.ops = out;
        merged
    }

    /// Fission pass: split every kernel that spills registers on `gpu` into
    /// `parts` sub-kernels of `regs_per_part` registers each
    /// ([`KernelProfile::fission`]). More dispatches, but the spill traffic
    /// — the dominant cost of a register monster — disappears. Returns the
    /// number of kernels split.
    pub fn fission_spills(&mut self, gpu: &GpuModel, parts: u32, regs_per_part: u32) -> usize {
        assert!(parts >= 2, "fission needs at least two parts");
        let mut split = 0;
        let mut out: Vec<GraphOp> = Vec::with_capacity(self.ops.len());
        for op in self.ops.drain(..) {
            let node = match op {
                GraphOp::Kernel(node) => node,
                other => {
                    out.push(other);
                    continue;
                }
            };
            let (_, spilled) = gpu.occupancy(&node.profile);
            if spilled && !node.fissioned {
                split += 1;
                // Loop fission: the body's stages are dealt out across the
                // parts (contiguously, preserving order), so executing the
                // parts in sequence applies exactly the original compute.
                let n_stages = node.stages.len();
                for (p, profile) in node
                    .profile
                    .fission(parts, regs_per_part)
                    .into_iter()
                    .enumerate()
                {
                    let lo = p * n_stages / parts as usize;
                    let hi = (p + 1) * n_stages / parts as usize;
                    out.push(GraphOp::Kernel(KernelNode {
                        profile,
                        fusable: false,
                        fused_from: node.fused_from,
                        fissioned: true,
                        stages: node.stages[lo..hi].to_vec(),
                    }));
                }
            } else {
                out.push(GraphOp::Kernel(node));
            }
        }
        self.ops = out;
        split
    }

    /// Device-side time of one replay on `gpu`: modeled kernel time plus the
    /// small per-node queue dispatch. Transfer nodes contribute their
    /// dispatch here; their link time is charged by
    /// [`Stream::replay`](crate::stream::Stream::replay), which knows the
    /// host link.
    pub fn device_work(&self, gpu: &GpuModel) -> SimTime {
        self.ops
            .iter()
            .map(|op| {
                let dispatch = graph_node_dispatch(gpu.launch_latency);
                match op {
                    GraphOp::Kernel(n) => gpu.kernel_time(&n.profile) + dispatch,
                    _ => dispatch,
                }
            })
            .sum()
    }

    /// End-to-end time of one replay on an otherwise idle `gpu`: a single
    /// graph-launch latency, then the device work. This is the number that
    /// replaces `Σ kernel_time + N × launch_latency` hand arithmetic.
    pub fn total_time(&self, gpu: &GpuModel) -> SimTime {
        gpu.launch_latency + self.device_work(gpu)
    }

    /// Run every kernel node's host compute over `data`, fused (one
    /// cache-resident pass per node).
    pub(crate) fn execute_fused(&self, data: &mut [f64]) {
        for n in self.kernels() {
            n.execute_fused(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::{DType, LaunchConfig};

    fn small(name: &str) -> KernelProfile {
        KernelProfile::new(name, LaunchConfig::new(256, 128))
            .flops(1e5, DType::F64)
            .bytes(1e6, 1e6)
    }

    #[test]
    fn capture_records_ops_in_order() {
        let mut cap = GraphCapture::new();
        cap.alloc(4096)
            .upload(1024)
            .kernel(small("k0"))
            .kernel_fusable(small("k1"))
            .download(512);
        assert_eq!(cap.len(), 5);
        let g = cap.end();
        let s = g.stats();
        assert_eq!(s.nodes, 5);
        assert_eq!(s.kernels, 2);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.allocs, 1);
        assert!(matches!(g.ops()[0], GraphOp::Alloc { bytes: 4096 }));
        assert!(matches!(g.ops()[4], GraphOp::Download { bytes: 512 }));
    }

    #[test]
    fn fusion_respects_max_fuse_and_cutoff() {
        let mut cap = GraphCapture::new();
        for i in 0..6 {
            cap.kernel_fusable(small(&format!("s{i}")));
        }
        // A compute monster in the middle of the chain breaks the run.
        cap.kernel_fusable(small("big").flops(1e12, DType::F64));
        for i in 6..9 {
            cap.kernel_fusable(small(&format!("s{i}")));
        }
        let mut g = cap.end();
        let merged = g.fuse_elementwise(&FusionPolicy::new(4, 1e9));
        // 6 smalls -> 4+2 (two nodes), big untouched, 3 smalls -> 1 node.
        let s = g.stats();
        assert_eq!(s.kernels, 4, "{:?}", g.ops());
        assert_eq!(s.captured_kernels, 10);
        assert_eq!(merged, 6);
        assert_eq!(s.fused_nodes, 3);
    }

    #[test]
    fn fusion_skips_unfusable_neighbours() {
        let mut cap = GraphCapture::new();
        cap.kernel_fusable(small("a"))
            .kernel(small("opaque"))
            .kernel_fusable(small("b"));
        let mut g = cap.end();
        assert_eq!(g.fuse_elementwise(&FusionPolicy::default()), 0);
        assert_eq!(g.stats().kernels, 3);
    }

    #[test]
    fn fission_splits_only_spilling_kernels() {
        let gpu = GpuModel::mi250x_gcd();
        let mut cap = GraphCapture::new();
        cap.kernel(small("lean"));
        cap.kernel(small("monster").regs(8192));
        let mut g = cap.end();
        assert_eq!(g.fission_spills(&gpu, 4, 200), 1);
        let s = g.stats();
        assert_eq!(s.kernels, 5);
        assert_eq!(s.fissioned_nodes, 4);
        // Every surviving kernel is spill-free.
        for n in g.kernels() {
            let (_, spilled) = gpu.occupancy(&n.profile);
            assert!(!spilled, "{} still spills", n.profile.name);
        }
    }

    #[test]
    fn total_time_charges_one_launch() {
        let gpu = GpuModel::v100();
        let mut cap = GraphCapture::new();
        for i in 0..10 {
            cap.kernel(small(&format!("k{i}")));
        }
        let g = cap.end();
        let eager: SimTime = g
            .kernels()
            .map(|n| gpu.kernel_time(&n.profile) + gpu.launch_latency)
            .sum();
        let graphed = g.total_time(&gpu);
        assert!(graphed < eager, "graph {graphed} !< eager {eager}");
        // The saving is ~9 launch latencies minus 10 dispatches.
        let saved = eager - graphed;
        assert!(saved > gpu.launch_latency * 8.0, "saved {saved}");
    }

    #[test]
    fn fused_execution_matches_eager_bitwise() {
        let n = 10_000;
        let mk = |i: usize| small(&format!("e{i}"));
        let mut cap = GraphCapture::new();
        cap.elementwise(mk(0), |base, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (base + i) as f64 * 0.25;
            }
        });
        cap.elementwise(mk(1), |_, chunk| {
            for x in chunk {
                *x = *x * 1.0625 - 3.0;
            }
        });
        cap.elementwise(mk(2), |_, chunk| {
            for x in chunk {
                *x = x.abs().sqrt();
            }
        });
        let unfused = cap.end();
        let mut fused = unfused.clone();
        assert_eq!(fused.fuse_elementwise(&FusionPolicy::default()), 2);
        assert_eq!(fused.stats().kernels, 1);

        let init: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut a = init.clone();
        let mut b = init;
        for node in unfused.kernels() {
            node.execute_eager(&mut a);
        }
        fused.execute_fused(&mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn fission_deals_stages_out_without_changing_results() {
        // A fused register monster carries two stages; fission into three
        // parts must apply each stage exactly once, in order.
        let mut cap = GraphCapture::new();
        cap.elementwise(small("inc").regs(8192), |_, chunk| {
            for x in chunk {
                *x += 1.0;
            }
        });
        cap.elementwise(small("dbl").regs(8192), |_, chunk| {
            for x in chunk {
                *x *= 2.0;
            }
        });
        let mut g = cap.end();
        g.fuse_elementwise(&FusionPolicy::default());
        g.fission_spills(&GpuModel::mi250x_gcd(), 3, 200);
        let s = g.stats();
        assert_eq!(s.fissioned_nodes, 3);
        // Loop fission leaves the iteration space alone.
        for n in g.kernels() {
            assert_eq!(n.profile.launch.grid_blocks, 256);
        }
        let mut data = vec![0.0f64; 1000];
        g.execute_fused(&mut data);
        assert!(
            data.iter().all(|&x| x == 2.0),
            "each stage must run exactly once: {:?}",
            &data[..3]
        );
    }
}
