//! Machine models: node compute model + network cost model + topology.
//!
//! The presets are calibrated to the published characteristics of the
//! DARPA Touchstone series the paper references ("one of a series of DARPA
//! developed massively parallel computers"):
//!
//! | Machine | Nodes | Node peak (DP) | Machine peak | Channel | Latency |
//! |---|---|---|---|---|---|
//! | iPSC/860 "Gamma" | 128 (2^7 cube) | 60 MFLOP/s | 7.7 GF | 2.8 MB/s | ~160 µs |
//! | Touchstone Delta | 528 (16×33 mesh) | 60.6 MFLOP/s | **32 GF** | 25 MB/s | ~80 µs |
//! | Paragon XP/S | mesh | 75 MFLOP/s | — | 175 MB/s | ~40 µs |
//!
//! The Delta node peak is set so 528 nodes give **exactly the paper's 32
//! GFLOPS** (the deck's own arithmetic: "PEAK SPEED OF 32 GFLOPS USING THE
//! 528 NUMERIC PROCESSORS").

use crate::topology::Topology;
use des::time::Dur;

/// What a node is computing — selects a sustained-efficiency factor.
///
/// The i860 famously reached a high fraction of peak only in hand-tuned
/// assembly kernels (dgemm); compiled loops ran far below peak. Those
/// per-kernel efficiencies are what turn "peak 32 GFLOPS" into "13 GFLOPS
/// LINPACK", so they are first-class in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Matrix-matrix multiply (assembly-tuned BLAS3).
    Dgemm,
    /// Rank-1 / vector ops (BLAS1/2, memory bound).
    Daxpy,
    /// Triangular solve.
    Dtrsm,
    /// LU panel factorisation (blocked rank-1 updates; BLAS-2.5-like).
    Panel,
    /// Regular grid stencil sweep.
    Stencil,
    /// Sparse matrix-vector product (indirect addressing).
    Spmv,
    /// FFT butterfly passes.
    Fft,
    /// Particle-particle force evaluation.
    Nbody,
    /// Generic compiled scalar code.
    Scalar,
}

/// Node compute model.
#[derive(Debug, Clone)]
pub struct NodeModel {
    /// Peak double-precision FLOP rate, FLOP/s.
    pub peak_flops: f64,
    /// Local memory per node, bytes (Delta: 16 MB).
    pub memory_bytes: u64,
    /// Sustained fraction of peak for each kernel class.
    pub eff: KernelEff,
    /// Local memory copy bandwidth, bytes/s (self-sends, packing).
    pub mem_bw: f64,
}

/// Per-kernel sustained efficiency (fraction of peak).
#[derive(Debug, Clone)]
pub struct KernelEff {
    pub dgemm: f64,
    pub daxpy: f64,
    pub dtrsm: f64,
    pub panel: f64,
    pub stencil: f64,
    pub spmv: f64,
    pub fft: f64,
    pub nbody: f64,
    pub scalar: f64,
}

impl KernelEff {
    /// Efficiencies representative of tuned i860 libraries (NX/BLAS).
    fn i860() -> KernelEff {
        KernelEff {
            dgemm: 0.58,
            daxpy: 0.16,
            dtrsm: 0.38,
            panel: 0.30,
            stencil: 0.22,
            spmv: 0.10,
            fft: 0.30,
            nbody: 0.45,
            scalar: 0.08,
        }
    }

    /// i860XP (Paragon) — slightly better memory system.
    fn i860xp() -> KernelEff {
        KernelEff {
            dgemm: 0.62,
            daxpy: 0.20,
            dtrsm: 0.42,
            panel: 0.34,
            stencil: 0.26,
            spmv: 0.12,
            fft: 0.34,
            nbody: 0.48,
            scalar: 0.10,
        }
    }

    /// An ideal node that always sustains peak (ablation baseline).
    pub fn ideal() -> KernelEff {
        KernelEff {
            dgemm: 1.0,
            daxpy: 1.0,
            dtrsm: 1.0,
            panel: 1.0,
            stencil: 1.0,
            spmv: 1.0,
            fft: 1.0,
            nbody: 1.0,
            scalar: 1.0,
        }
    }

    fn for_kernel(&self, k: Kernel) -> f64 {
        match k {
            Kernel::Dgemm => self.dgemm,
            Kernel::Daxpy => self.daxpy,
            Kernel::Dtrsm => self.dtrsm,
            Kernel::Panel => self.panel,
            Kernel::Stencil => self.stencil,
            Kernel::Spmv => self.spmv,
            Kernel::Fft => self.fft,
            Kernel::Nbody => self.nbody,
            Kernel::Scalar => self.scalar,
        }
    }
}

impl NodeModel {
    /// Time to execute `flops` floating-point operations of kernel `k`.
    pub fn compute_time(&self, k: Kernel, flops: f64) -> Dur {
        assert!(flops >= 0.0 && flops.is_finite());
        let rate = self.peak_flops * self.eff.for_kernel(k);
        Dur::from_secs_f64(flops / rate)
    }

    /// Sustained FLOP rate for a kernel, FLOP/s.
    pub fn sustained(&self, k: Kernel) -> f64 {
        self.peak_flops * self.eff.for_kernel(k)
    }
}

/// How messages traverse the network.
///
/// The first-generation hypercubes (iPSC/1) buffered whole messages at
/// every intermediate node; the Touchstone series' wormhole routers
/// pipeline flits so transfer time is (nearly) distance-insensitive.
/// Keeping both lets the ablation benches show what the router bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Switching {
    /// Flit-pipelined; the path is held once, end to end.
    #[default]
    Wormhole,
    /// Whole message retransmitted hop by hop.
    StoreAndForward,
}

/// Network cost model (per-message, link-occupancy semantics — see
/// `fabric.rs` for how a message holds its channels).
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Message switching discipline.
    pub switching: Switching,
    /// Sender CPU overhead per message (software send path).
    pub send_overhead: Dur,
    /// Receiver CPU overhead per message.
    pub recv_overhead: Dur,
    /// Wire/router setup before the first byte moves.
    pub wire_latency: Dur,
    /// Router delay per hop (wormhole header routing).
    pub per_hop: Dur,
    /// Per-channel bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl NetModel {
    /// Uncontended one-way time for `bytes` over `hops` hops.
    pub fn transfer_time(&self, bytes: u64, hops: usize) -> Dur {
        match self.switching {
            Switching::Wormhole => self.wire_latency + self.hold(bytes, hops),
            Switching::StoreAndForward => {
                // The whole message is retransmitted at every hop.
                self.wire_latency + self.hold(bytes, 1) * hops.max(1) as u64
            }
        }
    }

    /// How long `bytes` hold a path of `hops` channels once the header
    /// is on it: the routers' per-hop delay plus the serialisation time.
    pub(crate) fn hold(&self, bytes: u64, hops: usize) -> Dur {
        self.per_hop * hops as u64 + Dur::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Conservative-simulation lookahead: a lower bound on the virtual
    /// time between a send being issued and the message arriving at any
    /// node in another lane (≥ one hop away) — the send overhead plus an
    /// empty message's one-hop transfer. A message sent at time `t` can
    /// never arrive before `t + lookahead()`, so a lane that has advanced
    /// to `T` cannot be affected by remote events until
    /// `T + lookahead()` — the window width of the sharded engine.
    ///
    /// Floored at 1 ns so the window is never empty (the `ideal` preset
    /// has near-zero overheads).
    pub fn lookahead(&self) -> Dur {
        (self.send_overhead + self.transfer_time(0, 1)).max(Dur(1))
    }
}

/// A complete machine description.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub name: String,
    pub topology: Topology,
    pub node: NodeModel,
    pub net: NetModel,
}

impl MachineConfig {
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// Aggregate peak FLOP rate — the number the deck headlines.
    pub fn peak_flops(&self) -> f64 {
        self.node.peak_flops * self.nodes() as f64
    }

    /// Bisection bandwidth in bytes/s.
    pub fn bisection_bandwidth(&self) -> f64 {
        self.topology.bisection_links() as f64 * self.net.bandwidth
    }

    /// Total memory across nodes.
    fn total_memory(&self) -> u64 {
        self.node.memory_bytes * self.nodes() as u64
    }

    /// Largest LINPACK order that fits: the n×n matrix plus workspace
    /// (factor 1.15) across aggregate memory.
    pub fn max_linpack_order(&self) -> usize {
        let usable = self.total_memory() as f64 / 1.15;
        ((usable / 8.0).sqrt()) as usize
    }
}

pub mod presets {
    //! The machines of the Concurrent Supercomputer Consortium story.

    use super::*;

    const MB: u64 = 1 << 20;

    fn i860_node(peak: f64, mem: u64, eff: KernelEff) -> NodeModel {
        NodeModel {
            peak_flops: peak,
            memory_bytes: mem,
            eff,
            mem_bw: 55.0e6,
        }
    }

    /// The Intel Touchstone Delta as installed at Caltech: 16×33 mesh of
    /// 528 numeric nodes, 32 GFLOPS peak (the exhibit's own numbers).
    pub fn delta_528() -> MachineConfig {
        delta(16, 33)
    }

    /// A Delta-class machine with an arbitrary mesh shape.
    pub fn delta(rows: usize, cols: usize) -> MachineConfig {
        MachineConfig {
            name: format!("Touchstone Delta {rows}x{cols}"),
            topology: Topology::Mesh2D { rows, cols },
            // 32e9 / 528 per node: the deck's "32 GFLOPS from 528".
            node: i860_node(32.0e9 / 528.0, 16 * MB, KernelEff::i860()),
            net: NetModel {
                switching: Switching::Wormhole,
                send_overhead: Dur::from_micros(47),
                recv_overhead: Dur::from_micros(25),
                wire_latency: Dur::from_micros(8),
                per_hop: Dur::from_nanos(300),
                bandwidth: 25.0e6,
            },
        }
    }

    /// Intel iPSC/860 ("Touchstone Gamma"): hypercube predecessor.
    pub fn ipsc860(dim: u32) -> MachineConfig {
        MachineConfig {
            name: format!("iPSC/860 d={dim}"),
            topology: Topology::Hypercube { dim },
            node: i860_node(60.0e6, 8 * MB, KernelEff::i860()),
            net: NetModel {
                switching: Switching::Wormhole,
                send_overhead: Dur::from_micros(75),
                recv_overhead: Dur::from_micros(60),
                wire_latency: Dur::from_micros(25),
                per_hop: Dur::from_micros(10),
                bandwidth: 2.8e6,
            },
        }
    }

    /// Intel Paragon XP/S — the Delta's announced production successor.
    pub fn paragon(rows: usize, cols: usize) -> MachineConfig {
        MachineConfig {
            name: format!("Paragon XP/S {rows}x{cols}"),
            topology: Topology::Mesh2D { rows, cols },
            node: i860_node(75.0e6, 32 * MB, KernelEff::i860xp()),
            net: NetModel {
                switching: Switching::Wormhole,
                send_overhead: Dur::from_micros(22),
                recv_overhead: Dur::from_micros(12),
                wire_latency: Dur::from_micros(4),
                per_hop: Dur::from_nanos(150),
                bandwidth: 175.0e6,
            },
        }
    }

    /// Ablation: the Delta with store-and-forward switching instead of
    /// wormhole routers — the first-generation-hypercube discipline on
    /// the same wires. Used to show what the Touchstone routers bought.
    pub fn delta_store_and_forward(rows: usize, cols: usize) -> MachineConfig {
        let mut m = delta(rows, cols);
        m.name = format!("Delta {rows}x{cols} (store-and-forward ablation)");
        m.net.switching = Switching::StoreAndForward;
        m
    }

    /// An idealised machine: Delta nodes on a zero-latency full crossbar
    /// at 100% kernel efficiency — the "speed of light" ablation bound.
    pub fn ideal(n: usize) -> MachineConfig {
        MachineConfig {
            name: format!("Ideal crossbar n={n}"),
            topology: Topology::Full { n },
            node: i860_node(32.0e9 / 528.0, 64 * MB, KernelEff::ideal()),
            net: NetModel {
                switching: Switching::Wormhole,
                send_overhead: Dur::from_nanos(1),
                recv_overhead: Dur::from_nanos(1),
                wire_latency: Dur::from_nanos(1),
                per_hop: Dur::ZERO,
                bandwidth: 1.0e12,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    #[test]
    fn delta_peak_is_exactly_32_gflops() {
        let m = delta_528();
        assert_eq!(m.nodes(), 528);
        assert!((m.peak_flops() - 32.0e9).abs() < 1.0, "{}", m.peak_flops());
    }

    #[test]
    fn delta_fits_order_25000() {
        // The deck's LINPACK run "OF ORDER 25,000 BY 25,000" must fit in
        // the modelled 16 MB/node × 528 memory.
        let m = delta_528();
        assert!(
            m.max_linpack_order() >= 25_000,
            "max order {}",
            m.max_linpack_order()
        );
    }

    #[test]
    fn compute_time_scales_with_efficiency() {
        let m = delta_528();
        let t_gemm = m.node.compute_time(Kernel::Dgemm, 1e9);
        let t_scalar = m.node.compute_time(Kernel::Scalar, 1e9);
        assert!(t_scalar > t_gemm * 5, "{t_scalar} vs {t_gemm}");
    }

    #[test]
    fn sustained_rate_below_peak() {
        let m = delta_528();
        for k in [
            Kernel::Dgemm,
            Kernel::Daxpy,
            Kernel::Dtrsm,
            Kernel::Panel,
            Kernel::Stencil,
            Kernel::Spmv,
            Kernel::Fft,
            Kernel::Nbody,
            Kernel::Scalar,
        ] {
            assert!(m.node.sustained(k) <= m.node.peak_flops);
            assert!(m.node.sustained(k) > 0.0);
        }
    }

    #[test]
    fn transfer_time_components() {
        let net = delta_528().net;
        let t = net.transfer_time(25_000_000, 0);
        // 25 MB at 25 MB/s is one second plus latency.
        assert!((t.as_secs_f64() - 1.0).abs() < 0.001, "{t}");
        let short = net.transfer_time(0, 10);
        assert!(short >= net.wire_latency);
    }

    #[test]
    fn lookahead_bounds_any_remote_transfer() {
        for m in [delta_528(), paragon(16, 33), ipsc860(7), ideal(64)] {
            let la = m.net.lookahead();
            assert!(la.0 >= 1, "window must be non-empty");
            // No message to a node ≥ 1 hop away beats the lookahead.
            let fastest = m.net.send_overhead + m.net.transfer_time(0, 1);
            assert!(la <= fastest, "{la} vs {fastest} on {}", m.name);
        }
    }

    #[test]
    fn machine_series_ordering() {
        // The DARPA series improves monotonically: Gamma -> Delta -> Paragon.
        let gamma = ipsc860(7);
        let delta = delta_528();
        let paragon = paragon(16, 33);
        assert!(gamma.net.bandwidth < delta.net.bandwidth);
        assert!(delta.net.bandwidth < paragon.net.bandwidth);
        assert!(gamma.net.send_overhead > delta.net.send_overhead);
        assert!(delta.net.send_overhead > paragon.net.send_overhead);
        assert!(paragon.node.peak_flops > delta.node.peak_flops);
    }

    #[test]
    fn bisection_bandwidth_mesh() {
        let m = delta_528();
        // 2*16 channels * 25 MB/s = 800 MB/s.
        assert!((m.bisection_bandwidth() - 32.0 * 25.0e6).abs() < 1.0);
    }
}
