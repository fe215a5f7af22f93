//! `des` — a small, deterministic discrete-event simulation engine.
//!
//! This crate is the substrate under both simulators in the HPCC 1992
//! reproduction:
//!
//! * `delta-mesh` — the Touchstone Delta-class multicomputer simulator —
//!   uses the [`exec`] cooperative executor to run hundreds of simulated
//!   node programs as `async fn`s, and the [`queue`] event calendar to
//!   order message/compute events.
//! * `nren-netsim` — the NREN-era WAN flow simulator — uses the event
//!   calendar and [`rng`] workload generators.
//!
//! Everything here is single-threaded and bit-reproducible: integer virtual
//! time, FIFO tie-breaking, a locally implemented Xoshiro256** generator.
//! The one exception is [`barrier`], the meeting point of the threads
//! that each drive such an engine as one lane of a parallel run.

pub mod backoff;
pub mod barrier;
pub mod exec;
pub mod faults;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use backoff::Backoff;
pub use barrier::{host_cores, WindowBarrier};
pub use exec::{yield_now, LaneTasks, TaskId};
pub use faults::{seed_from_env, FaultEvent, FaultKind, FaultPlan};
pub use queue::EventQueue;
pub use rng::Rng;
pub use stats::{Histogram, Summary};
pub use time::{Dur, SimTime};
