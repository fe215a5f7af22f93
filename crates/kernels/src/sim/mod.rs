//! Simulator-hosted kernels: the Grand Challenge workloads expressed as
//! `delta-mesh` node programs.
//!
//! * [`lu1d`] — real-arithmetic distributed LU (verified numerics),
//! * [`lu2d`] — paper-scale 2-D block-cyclic LINPACK timing model (the
//!   "13 GFLOPS at order 25,000" reproduction),
//! * [`stencil`] — halo-exchange Jacobi, verified bit-for-bit against
//!   the host solver, plus a timing-only variant,
//! * [`fftsim`] — transpose-based distributed FFT timing model,
//! * [`summa`] — SUMMA dense matmul timing model,
//! * [`cgsim`] — distributed conjugate gradient (the allreduce-tax story).

pub mod cgsim;
pub mod fftsim;
pub mod lu1d;
pub mod lu2d;
pub mod stencil;
pub mod summa;
