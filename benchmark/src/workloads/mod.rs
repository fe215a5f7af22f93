//! The seven workloads. Each is a fixed, seeded, deterministic pass
//! over one or more layers; the harness decides how often it runs.

pub mod campaign;
pub mod kernels;
pub mod mesh;
pub mod sched;
pub mod telemetry;
pub mod wan;

use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::collections::BTreeMap;

/// What one pass produced: a digest of its outputs, which must be the
/// same for every pass of a run; the operations it performed (the unit
/// `ops_attempted` / `ops_failed` count in); and whether every operation
/// that reports its own success did succeed (an HTTP status, say).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOut {
    pub digest: u64,
    pub ops: u64,
    pub ok: bool,
}

/// Per-pass self times of the traced run, by span name.
#[derive(Default)]
pub struct LayerTimes {
    /// Median over the traced passes, seconds.
    pub median: BTreeMap<&'static str, f64>,
    /// Fastest traced pass, seconds.
    pub min: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// Median self time per pass of span `name`; 0 if never entered.
    pub fn s(&self, name: &str) -> f64 {
        self.median.get(name).copied().unwrap_or(0.0)
    }

    pub fn min_s(&self, name: &str) -> f64 {
        self.min.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload {
    /// One pass. Every call into the repository sits inside a
    /// `t.span("layer/call", …)`.
    fn pass(&mut self, t: &mut Tracer) -> PassOut;

    /// Untimed, once per run: check the last pass's outputs against an
    /// independent reference. Returns what failed.
    fn verify(&mut self) -> Result<(), String>;

    /// Untimed, traced run only: the layer metrics this workload owns,
    /// from the span self times, the report structs of the last pass,
    /// and direct probes.
    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics);

    /// The frozen sizes, for the provenance block.
    fn sizes(&self) -> String;
}

pub struct Entry {
    pub name: &'static str,
    pub why: &'static str,
    pub build: fn(u64) -> Box<dyn Workload>,
}

/// Name, reason and constructor of every workload, in `BENCHMARK.json`
/// order. A constructor takes the seed and returns freshly built
/// objects: generated inputs plus whatever the pass keeps between calls.
pub const ALL: &[Entry] = &[
    Entry {
        name: "campaign",
        why: "scheduler -> mesh LU -> WAN staging feed each other; the only end-to-end path, no layer above about half the pass",
        build: |s| Box::new(campaign::Campaign::new(s)),
    },
    Entry {
        name: "mesh_halo",
        why: "many tiny messages over 2 event lanes: mesh::shard windows, mailboxes and des do the work; bypasses route walks and collectives",
        build: |s| Box::new(mesh::Halo::new(s)),
    },
    Entry {
        name: "mesh_lu2d",
        why: "same des/mesh layer used the other way: single-queue Machine::run, broadcast collectives, O(hops) route walk and link occupancy",
        build: |s| Box::new(mesh::Lu2d::new(s)),
    },
    Entry {
        name: "sched_stream",
        why: "sched::service alone on three regimes (admit/backfill, shed/quota, crash retry); mesh sim, netsim and kernels do nothing",
        build: |s| Box::new(sched::Stream::new(s)),
    },
    Entry {
        name: "wan_flows",
        why: "netsim engine alone: fat-tree fan-out (fill-dominated) and NSFnet churn with an outage (re-key, re-route), halves of equal cost",
        build: |s| Box::new(wan::Flows::new(s)),
    },
    Entry {
        name: "kernels",
        why: "real arithmetic only (gemm, LU, FFT, CG, shallow water, all cache-resident); the simulators do nothing",
        build: |s| Box::new(kernels::Kernels::new(s)),
    },
    Entry {
        name: "telemetry_live",
        why: "trace::stream writes beside trace::http reads on a live server, ring at steady state; the only workload that records",
        build: |s| Box::new(telemetry::Live::new(s)),
    },
];

pub fn find(name: &str) -> Option<&'static Entry> {
    ALL.iter().find(|e| e.name == name)
}
