//! `nren-netsim` — a flow-level simulator of early-1990s research WANs.
//!
//! The paper's NREN component and the Delta Consortium figure describe a
//! network nobody can dial into anymore: 56 kb/s regional tails, the
//! NSFnet T1/T3 backbones, ESnet, and the CASA HIPPI/SONET gigabit
//! testbed. This crate reconstructs them: named sites, duplex links with
//! era-accurate line rates, latency-shortest static routing, and fluid
//! transfers sharing capacity under max-min fairness with an optional
//! TCP-window rate cap.
//!
//! ```
//! use nren_netsim::{topologies, FlowSim, TransferSpec};
//! use des::time::SimTime;
//!
//! let net = topologies::delta_consortium();
//! let delta = net.site(topologies::DELTA_SITE).unwrap();
//! let jpl = net.site("JPL").unwrap();
//! let sim = FlowSim::new(&net);
//! let recs = sim.run(vec![TransferSpec::new(jpl, delta, 100 << 20, SimTime::ZERO)]);
//! // 100 MB over HIPPI/SONET arrives in about a second.
//! assert!(recs[0].duration().as_secs_f64() < 2.0);
//! ```

pub mod engine;
pub mod flow;
pub mod graph;
pub mod link;
pub mod topologies;
pub mod workload;

pub use engine::{FlowConfig, SolverStats};
pub use flow::{
    maxmin_rates, FlowError, FlowOutcome, FlowRecord, FlowSim, LinkFault, NetStats, TransferSpec,
};
pub use graph::{DirLinkId, Net, Route, RouteCache, RouteStats};
pub use link::{Link, LinkClass, SiteId};
pub use topologies::{dragonfly, fat_tree, Fabric};
