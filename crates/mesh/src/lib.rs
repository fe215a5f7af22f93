//! `delta-mesh` — a deterministic simulator of Touchstone Delta-class
//! message-passing multicomputers.
//!
//! This crate is the hardware substrate for the HPCC 1992 reproduction:
//! the paper's Concurrent Supercomputer Consortium exhibit claims a
//! 528-processor Intel Touchstone Delta with a 32 GFLOPS peak and a
//! 13 GFLOPS LINPACK run at order 25,000. We do not have a Delta, so we
//! model one: a 16×33 wormhole-routed 2-D mesh of i860-class nodes with
//! an NX-style tagged message-passing API and collective operations.
//!
//! Quick tour:
//!
//! ```
//! use delta_mesh::{presets, Machine, Kernel};
//!
//! let machine = Machine::new(presets::delta(2, 2));
//! let (sums, report) = machine.run(|node| async move {
//!     let comm = delta_mesh::Comm::world(&node);
//!     node.compute(Kernel::Dgemm, 1.0e6).await;
//!     comm.allreduce_sum(&[node.rank() as f64]).await[0]
//! });
//! assert!(sums.iter().all(|&s| s == 6.0));
//! assert!(report.elapsed.nanos() > 0);
//! ```

pub mod collective;
mod fabric;
pub mod machine;
pub mod partition;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod topology;

pub use collective::Comm;
pub use des::faults::{FaultEvent, FaultKind, FaultPlan};
pub use machine::{presets, Kernel, KernelEff, MachineConfig, NetModel, NodeModel, Switching};
pub use partition::{LaneMap, MeshSpace, SubMesh};
pub use sched::service::{
    service_workload, AdmissionError, Outcome, Priority, ServiceConfig, ServiceReport,
    ServiceTrace, Submission,
};
pub use sched::{consortium_workload, Job, JobRecord, KilledAttempt, Policy, SchedReport};
pub use shard::LaneStats;
pub use sim::{CommError, F64s, FaultStats, Machine, Msg, Node, Payload, RunReport};
pub use topology::{LinkId, Topology};
