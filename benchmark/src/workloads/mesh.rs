//! The two mesh workloads: the same `des` + `mesh` layer used in the two
//! ways the repository uses it. `mesh_halo` runs the sharded window
//! engine (2 lanes, cross-lane mailboxes, O(1) analytic cross-lane
//! timing); `mesh_lu2d` runs the single-queue engine (collectives,
//! O(hops) route walks, link occupancy). An engine change that helps one
//! and costs the other shows as such.
//!
//! The seeded input of both is the channel bandwidth, within ±2 %: it
//! moves every virtual timestamp and no event count.

use super::{LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{unit_scale, Digest, Gen};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// `des` probes at the depth the pass keeps pending: a hold model on
/// `EventQueue` and a yield loop on `LaneTasks`.
fn des_probes(depth: usize, m: &mut Metrics) {
    const OPS: usize = 400_000;
    let mut g = Gen::new(depth as u64);
    let delays: Vec<u64> = (0..4096).map(|_| g.next_u64() % 1_000_000).collect();
    let best = |f: &dyn Fn() -> u64| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let q = best(&|| api::des_queue_hold(depth, OPS, &delays));
    m.set("des.queue.ns_per_op", q * 1e9 / OPS as f64);
    let yields = OPS / depth;
    let polls = api::des_exec_polls(depth, yields);
    let e = best(&|| api::des_exec_polls(depth, yields));
    m.set("des.exec.ns_per_poll", e * 1e9 / polls as f64);
}

/// `mesh.sim.*` from the single-queue runs of one pass.
pub fn mesh_sim_metrics(run_s: f64, reports: &[&api::RunReport], m: &mut Metrics) {
    let events: u64 = reports.iter().map(|r| r.events).sum();
    m.set("mesh.sim.run_s", run_s);
    m.set("mesh.sim.events", events as f64);
    m.set("mesh.sim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    m.set(
        "mesh.sim.messages",
        reports.iter().map(|r| r.messages).sum::<u64>() as f64,
    );
    m.set(
        "mesh.sim.bytes",
        reports.iter().map(|r| r.bytes).sum::<u64>() as f64,
    );
}

pub fn digest_report(d: &mut Digest, r: &api::RunReport) {
    d.u64(r.elapsed.nanos());
    d.u64(r.events);
    d.u64(r.messages);
    d.u64(r.bytes);
}

// ------------------------------------------------------------ mesh_halo

const HALO_ROWS: usize = api::DELTA_ROWS;
const HALO_COLS: usize = api::DELTA_COLS;
const HALO_STEPS: usize = 8;
const HALO_LANES: usize = 2;

pub struct Halo {
    machine: api::Machine,
    values: Arc<[f64]>,
    last: Option<(Vec<f64>, api::RunReport, api::LaneStats)>,
}

impl Halo {
    pub fn new(seed: u64) -> Halo {
        let mut g = Gen::new(seed);
        let machine = api::delta_machine(HALO_ROWS, HALO_COLS, unit_scale(&mut g));
        let values = (0..HALO_ROWS * HALO_COLS).map(|_| g.signed()).collect();
        Halo {
            machine,
            values,
            last: None,
        }
    }
}

impl Workload for Halo {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let (out, report, stats) = t.span("mesh.shard/halo", |_| {
            api::halo_sharded(&self.machine, HALO_LANES, HALO_STEPS, &self.values)
        });
        let mut d = Digest::new();
        d.f64s(&out);
        d.u64(report.events);
        d.u64(report.messages);
        let ops = report.events;
        self.last = Some((out, report, stats));
        PassOut {
            digest: d.finish(),
            ops,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let (out, report, stats) = self.last.as_ref().ok_or("no pass ran")?;
        let (reference, ref_report) = api::halo_single(&self.machine, HALO_STEPS, &self.values);
        if *out != reference {
            return Err("sharded outputs differ from Machine::run".into());
        }
        if report.messages != ref_report.messages {
            return Err(format!(
                "sharded run moved {} messages, Machine::run {}",
                report.messages, ref_report.messages
            ));
        }
        if stats.lanes != HALO_LANES {
            return Err(format!("ran on {} lanes, not {HALO_LANES}", stats.lanes));
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some((_, report, stats)) = self.last.as_ref() else {
            return;
        };
        let run_s = times.s("mesh.shard/halo");
        m.set("mesh.shard.run_s", run_s);
        m.set("mesh.shard.events", report.events as f64);
        m.set(
            "mesh.shard.ns_per_event",
            run_s * 1e9 / report.events.max(1) as f64,
        );
        m.set("mesh.shard.rounds", stats.rounds as f64);
        m.set("mesh.shard.events_per_round", stats.events_per_round());
        m.set("mesh.shard.mail_msgs", stats.mail_msgs as f64);
        let max = stats.per_lane_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = stats.events as f64 / stats.lanes.max(1) as f64;
        m.set("mesh.shard.lane_imbalance", max / mean.max(1.0));
        // One lane is the single-queue engine on the same program; fastest
        // of a few against the fastest traced sharded pass.
        let one_lane = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(api::halo_single(&self.machine, HALO_STEPS, &self.values));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        m.set(
            "mesh.shard.speedup_vs_1lane",
            one_lane / times.min_s("mesh.shard/halo").max(1e-9),
        );
        des_probes(HALO_ROWS * HALO_COLS / HALO_LANES, m);
    }

    fn sizes(&self) -> String {
        format!(
            "delta({HALO_ROWS},{HALO_COLS}) halo+transpose, {HALO_STEPS} steps, {HALO_LANES} lanes"
        )
    }
}

// ------------------------------------------------------------ mesh_lu2d

const LU_MESH: (usize, usize) = (8, 8);
const LU_N: usize = 1024;
const LU_NB: usize = 32;

pub struct Lu2d {
    machine: api::Machine,
    last: Option<api::Lu2dResult>,
}

impl Lu2d {
    pub fn new(seed: u64) -> Lu2d {
        let mut g = Gen::new(seed);
        Lu2d {
            machine: api::delta_machine(LU_MESH.0, LU_MESH.1, unit_scale(&mut g)),
            last: None,
        }
    }
}

impl Workload for Lu2d {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let r = t.span("mesh.sim/lu2d", |_| api::lu2d(&self.machine, LU_N, LU_NB));
        let mut d = Digest::new();
        d.f64(r.seconds);
        digest_report(&mut d, &r.report);
        let ops = r.report.events;
        self.last = Some(r);
        PassOut {
            digest: d.finish(),
            ops,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let r = self.last.as_ref().ok_or("no pass ran")?;
        // The timing model moves no real data; what can be checked is
        // that the run it reports is the factorisation it was asked for.
        let want = api::lu_flops(LU_N);
        if (r.report.flops - want).abs() > 0.01 * want {
            return Err(format!(
                "lu2d charged {:.4e} flops for order {LU_N}, LINPACK counts {want:.4e}",
                r.report.flops
            ));
        }
        if !(r.efficiency > 0.0 && r.efficiency <= 1.0) {
            return Err(format!("efficiency {} outside (0, 1]", r.efficiency));
        }
        if r.report.faults.any() {
            return Err("fault-free run reports faults".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some(r) = self.last.as_ref() else {
            return;
        };
        mesh_sim_metrics(times.s("mesh.sim/lu2d"), &[&r.report], m);
        m.set("kernels.sim.lu2d.sim_gflops", r.gflops);
        des_probes(LU_MESH.0 * LU_MESH.1, m);
    }

    fn sizes(&self) -> String {
        format!(
            "delta({},{}) lu2d n={LU_N} nb={LU_NB}",
            LU_MESH.0, LU_MESH.1
        )
    }
}
