//! `hpcc` — umbrella crate for the reproduction of *High Performance
//! Computing and Communications Program* (Holcomb, 1992).
//!
//! The paper is a programmatic overview of the Federal HPCC Program; this
//! workspace rebuilds the systems it describes:
//!
//! | Component | Crate | What it is |
//! |---|---|---|
//! | HPCS | [`delta_mesh`] | Simulator of the Intel Touchstone Delta and its DARPA siblings |
//! | ASTA | [`hpcc_kernels`] | Grand Challenge kernels: LINPACK, CFD, shallow water, N-body, FFT, CG |
//! | NREN | [`nren_netsim`] | Flow-level simulator of the 1992 research WANs (NSFnet, CASA, consortium) |
//! | program | [`hpcc_core`] | Agencies, components, budgets, consortia, exhibit registry |
//! | substrate | [`des`] | Deterministic discrete-event engine + cooperative async executor |
//! | telemetry | [`hpcc_trace`] | Recorders the simulators report into: Chrome trace export, text summary, live `/metrics` + `/trace` server |
//!
//! ```
//! // One line per layer: machine, program, network, workload.
//! use hpcc::prelude::*;
//!
//! let delta = Machine::new(presets::delta_528());
//! assert_eq!(delta.config().nodes(), 528);
//! assert_eq!(FundingTable::fy1992_93().total(FiscalYear::Fy1992).to_string(), "654.8");
//! ```

pub use delta_mesh;
pub use des;
pub use hpcc_core;
pub use hpcc_kernels;
pub use hpcc_trace;
pub use nren_netsim;

/// Most-used items across the workspace.
pub mod prelude {
    pub use delta_mesh::{presets, Comm, Kernel, Machine, Node, Payload, RunReport};
    pub use des::time::{Dur, SimTime};
    pub use hpcc_core::{Agency, Component, FiscalYear, FundingTable};
    pub use nren_netsim::{topologies, FlowSim, LinkClass, TransferSpec};
}
