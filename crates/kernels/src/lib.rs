//! `hpcc-kernels` — the computational workloads of the 1992 HPCC program.
//!
//! One crate, three execution styles for each kernel family:
//! * **sequential** reference implementations (correctness anchors),
//! * **host-parallel** variants (today's shared-memory testbed): the
//!   same loop as the sequential one, its chunks dealt out by the
//!   `par` fork-join helper over [`des::host_cores`] workers, with the
//!   same bits at every worker count,
//! * **simulator-hosted** variants in [`sim`] that run as `delta-mesh`
//!   node programs to reproduce the paper's Touchstone Delta numbers.
//!
//! Kernel families and the Grand Challenge lines they stand in for:
//! * [`lu`] — the LINPACK benchmark's factor and solve (the Delta
//!   exhibit runs them as [`sim::lu1d`] / [`sim::lu2d`]),
//! * [`cfd`]/[`multigrid`] — computational aerosciences (NASA/CAS),
//! * [`shallow`] — ocean/atmosphere modelling (NOAA),
//! * [`nbody`] — space sciences,
//! * [`fft`] — signal/earth-and-space-science transforms,
//! * [`cg`] — energy research sparse solvers (DOE).

pub mod cfd;
pub mod cg;
pub mod fft;
pub mod gemm;
pub mod lu;
pub mod mat;
pub mod matmul;
pub mod multigrid;
pub mod nbody;
pub mod shallow;
pub mod sim;
pub mod simd;

/// The worker count behind a kernel's `parallel` flag: every CPU this
/// process may run on, or the calling thread alone.
fn workers(parallel: bool) -> usize {
    parallel.then(des::host_cores).unwrap_or(1)
}
