//! Every call the benchmark makes into the repository, and nothing else.
//!
//! The workloads and the harness see the simulators and kernels only
//! through the functions and re-exports of this file, so a change to a
//! crate's run API (ROADMAP item 2) is absorbed here and the benchmark's
//! inputs, pass sizes and checks stay as they are. Only public entry
//! points are used, configured as the exhibits configure them: no env
//! side-channels, no solver-mode or block-size overrides. The one
//! recorded call is `lu2d_recorded`, for the workload that measures
//! recording.

use std::rc::Rc;
use std::sync::Arc;

pub use delta_mesh::sched::service::{ServiceConfig, ServiceReport, ServiceTrace, Submission};
pub use delta_mesh::{FaultPlan, JobRecord, LaneStats, Machine, Outcome, RunReport};
pub use des::{Dur, SimTime};
pub use hpcc_kernels::cg::{CgResult, Csr, SpmvPlan};
pub use hpcc_kernels::fft::Cpx;
pub use hpcc_kernels::mat::Mat;
pub use hpcc_kernels::shallow::Shallow;
pub use hpcc_kernels::sim::lu2d::Lu2dResult;
pub use hpcc_trace::{StreamRecorder, TelemetryServer};
pub use nren_netsim::{
    Fabric, FlowConfig, FlowOutcome, FlowRecord, LinkFault, Net, NetStats, SiteId, TransferSpec,
};

use delta_mesh::{presets, FaultEvent, FaultKind, Kernel, Node, Priority};
use hpcc_trace::Recorder;
use nren_netsim::{topologies, FlowSim, LinkClass};

// ---------------------------------------------------------------- des

/// Hold-model probe of `des::EventQueue` at a steady pending depth:
/// every operation pops the earliest event and schedules a successor
/// `delays[i]` later (cycled), which is what a simulator's dispatch loop
/// does. Returns a checksum of the popped times.
pub fn des_queue_hold(depth: usize, ops: usize, delays: &[u64]) -> u64 {
    let mut q: des::EventQueue<u32> = des::EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule(SimTime(delays[i % delays.len()]), i as u32);
    }
    let mut sum = 0u64;
    for i in 0..ops {
        let (t, e) = q.pop().expect("hold model keeps the queue non-empty");
        sum = sum.wrapping_add(t.nanos());
        q.schedule_in(Dur(1 + delays[i % delays.len()]), e);
    }
    sum
}

/// Probe of `des::LaneTasks`: `tasks` cooperative tasks that each yield
/// `yields` times. Returns the polls the executor performed.
pub fn des_exec_polls(tasks: usize, yields: usize) -> u64 {
    let mut ex = des::LaneTasks::with_capacity(tasks);
    for _ in 0..tasks {
        ex.spawn(async move {
            for _ in 0..yields {
                des::yield_now().await;
            }
        });
    }
    while !ex.all_done() {
        ex.run_ready();
    }
    ex.polls()
}

// --------------------------------------------------------------- mesh

/// The simulated Delta at `rows × cols`, with the channel bandwidth
/// scaled by `bw_scale` (the seeded input of the mesh workloads: it
/// moves every virtual timestamp and leaves the event count alone).
pub fn delta_machine(rows: usize, cols: usize, bw_scale: f64) -> Machine {
    let mut cfg = presets::delta(rows, cols);
    cfg.net.bandwidth *= bw_scale;
    Machine::new(cfg)
}

fn far_partner(me: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (me / cols, me % cols);
    ((r + rows / 2) % rows) * cols + (c + cols / 2) % cols
}

fn far_inverse(me: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (me / cols, me % cols);
    ((r + rows - rows / 2) % rows) * cols + (c + cols - cols / 2) % cols
}

/// Halo exchange with the four mesh neighbours plus one transpose
/// partner half the mesh away, `steps` times; each node sends its own
/// seeded value and returns the sum of what it received. Receives name
/// their source and tag, so the result does not depend on event order.
async fn halo_program(
    node: Node,
    rows: usize,
    cols: usize,
    steps: usize,
    values: Arc<[f64]>,
) -> f64 {
    let me = node.rank();
    let (r, c) = (me / cols, me % cols);
    let mut nbrs = [0usize; 4];
    let mut n = 0;
    let mut push = |x| {
        nbrs[n] = x;
        n += 1;
    };
    if r > 0 {
        push(me - cols);
    }
    if r + 1 < rows {
        push(me + cols);
    }
    if c > 0 {
        push(me - 1);
    }
    if c + 1 < cols {
        push(me + 1);
    }
    let nbrs = &nbrs[..n];
    let far = far_partner(me, rows, cols);
    let near = far_inverse(me, rows, cols);
    let mine = values[me];
    let mut acc = 0.0;
    for s in 0..steps as u64 {
        node.compute(Kernel::Stencil, 2.0e4).await;
        for &nb in nbrs {
            node.send_f64s(nb, s, &[mine]).await;
        }
        node.send_f64s(far, 1_000 + s, &[mine * 3.0]).await;
        for &nb in nbrs {
            acc += node.recv_f64s(Some(nb), Some(s)).await[0];
        }
        acc += node.recv_f64s(Some(near), Some(1_000 + s)).await[0];
    }
    acc
}

/// The halo program on the sharded engine with `lanes` event lanes.
pub fn halo_sharded(
    m: &Machine,
    lanes: usize,
    steps: usize,
    values: &Arc<[f64]>,
) -> (Vec<f64>, RunReport, LaneStats) {
    let (rows, cols) = mesh_shape(m);
    let (out, report, stats) = m.run_sharded_stats(lanes, &FaultPlan::none(), |node| {
        halo_program(node, rows, cols, steps, Arc::clone(values))
    });
    let out = out
        .into_iter()
        .map(|o| o.expect("fault-free node completes"))
        .collect();
    (out, report, stats)
}

/// The halo program on the single-queue engine (`Machine::run`): the
/// reference the sharded outputs are checked against, and the one-lane
/// time behind `mesh.shard.speedup_vs_1lane`.
pub fn halo_single(m: &Machine, steps: usize, values: &Arc<[f64]>) -> (Vec<f64>, RunReport) {
    let (rows, cols) = mesh_shape(m);
    m.run(|node| halo_program(node, rows, cols, steps, Arc::clone(values)))
}

fn mesh_shape(m: &Machine) -> (usize, usize) {
    match m.config().topology {
        delta_mesh::Topology::Mesh2D { rows, cols } => (rows, cols),
        ref other => panic!("halo program needs a 2-D mesh, got {other:?}"),
    }
}

/// The 2-D block-cyclic LU timing model of order `n`, panel width `nb`.
pub fn lu2d(m: &Machine, n: usize, nb: usize) -> Lu2dResult {
    hpcc_kernels::sim::lu2d::run(m, n, nb)
}

/// `lu2d` with every node interval, channel window and queue-depth
/// sample sent to the streaming recorder (the trace regime).
pub fn lu2d_recorded(m: &Machine, n: usize, nb: usize, rec: &Arc<StreamRecorder>) -> Lu2dResult {
    let rec: Rc<dyn Recorder> = Rc::new(Arc::clone(rec));
    hpcc_kernels::sim::lu2d::run_traced(m, n, nb, &FaultPlan::none(), rec).result
}

// -------------------------------------------------------------- sched

pub const DELTA_ROWS: usize = 16;
pub const DELTA_COLS: usize = 33;

/// Service defaults on the 16×33 Delta.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::new(DELTA_ROWS, DELTA_COLS)
}

/// One generated submission. `priority` is 0 (low), 1 (normal), 2 (high).
pub fn submission(
    id: usize,
    tenant: usize,
    priority: usize,
    shape: (usize, usize),
    runtime_s: f64,
    arrival_s: f64,
) -> Submission {
    Submission {
        id,
        tenant,
        priority: Priority::ALL[priority],
        shape,
        runtime: Dur::from_secs_f64(runtime_s),
        arrival: SimTime::from_secs_f64(arrival_s),
    }
}

pub fn service_trace(subs: Vec<Submission>) -> ServiceTrace {
    ServiceTrace {
        subs,
        quota_updates: Vec::new(),
    }
}

/// A scripted plan of permanent node crashes, `(seconds, node)` each.
pub fn crash_plan(crashes: &[(f64, usize)]) -> FaultPlan {
    FaultPlan::scripted(
        crashes
            .iter()
            .map(|&(at_s, node)| FaultEvent {
                at: SimTime::from_secs_f64(at_s),
                kind: FaultKind::NodeCrash { node },
            })
            .collect(),
    )
}

pub fn service_run(trace: &ServiceTrace, cfg: &ServiceConfig, plan: &FaultPlan) -> ServiceReport {
    delta_mesh::sched::service::run_with_faults(trace, cfg, plan)
}

// ------------------------------------------------------------- netsim

pub fn fat_tree8() -> Fabric {
    topologies::fat_tree(8, LinkClass::Gigabit, LinkClass::Gig100, "f.")
}

pub fn nsfnet_t3() -> Net {
    topologies::nsfnet(LinkClass::T3)
}

/// The Delta Consortium WAN, the Delta's site and the partner sites.
pub fn consortium() -> (Net, SiteId, Vec<SiteId>) {
    let net = topologies::delta_consortium();
    let delta = net
        .site(topologies::DELTA_SITE)
        .expect("consortium has the Delta");
    let partners = topologies::partner_sites(&net);
    (net, delta, partners)
}

/// Fault-free batch with the default flow configuration.
pub fn flows_run(net: &Net, specs: Vec<TransferSpec>) -> (Vec<FlowRecord>, NetStats) {
    FlowSim::new(net).run_with_stats(specs)
}

/// Batch under link outages with the given flow configuration.
pub fn flows_run_faulted(
    net: &Net,
    cfg: FlowConfig,
    specs: Vec<TransferSpec>,
    faults: &[LinkFault],
) -> (Vec<FlowOutcome>, NetStats) {
    FlowSim::with_config(net, cfg)
        .run_with_faults(specs, faults)
        .expect("generated transfers join distinct connected sites")
}

// ------------------------------------------------------------ kernels

/// A dense matrix from row-major `data`.
pub fn mat(rows: usize, cols: usize, data: &[f64]) -> Mat {
    assert_eq!(data.len(), rows * cols);
    Mat::from_fn(rows, cols, |i, j| data[i * cols + j])
}

pub fn gemm(a: &Mat, b: &Mat) -> Mat {
    hpcc_kernels::gemm::gemm(a, b)
}

pub fn gemm_flops(n: usize) -> f64 {
    hpcc_kernels::gemm::gemm_flops(n, n, n)
}

/// In-place blocked LU at the default panel width; returns the pivots.
pub fn lu_factor(a: &mut Mat) -> Vec<usize> {
    hpcc_kernels::lu::lu_factor(a, hpcc_kernels::lu::DEFAULT_NB)
        .expect("a random dense matrix is not singular")
}

pub fn lu_solve(lu: &Mat, piv: &[usize], b: &[f64]) -> Vec<f64> {
    hpcc_kernels::lu::lu_solve(lu, piv, b)
}

pub fn lu_flops(n: usize) -> f64 {
    hpcc_kernels::lu::linpack_flops(n)
}

pub fn fft(x: &mut [Cpx]) {
    hpcc_kernels::fft::fft(x)
}

pub fn ifft(x: &mut [Cpx]) {
    hpcc_kernels::fft::ifft(x)
}

pub fn fft_flops(n: usize) -> f64 {
    hpcc_kernels::fft::fft_flops(n)
}

pub fn poisson2d(g: usize) -> Csr {
    Csr::poisson2d(g)
}

/// Sequential CG (its products run through an `SpmvPlan`).
pub fn cg(a: &Csr, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> CgResult {
    hpcc_kernels::cg::cg(a, b, x, tol, max_iters, false)
}

pub fn spmv_plan(a: &Csr) -> SpmvPlan {
    SpmvPlan::new(a)
}

// -------------------------------------------------------------- trace

/// A streaming recorder with a ring of `chunks` chunks of `chunk_events`
/// events, and its HTTP endpoint on an ephemeral loopback port.
pub fn telemetry_start(
    chunk_events: usize,
    chunks: usize,
) -> (Arc<StreamRecorder>, TelemetryServer) {
    let rec = Arc::new(StreamRecorder::with_ring(chunk_events, chunks));
    let srv = TelemetryServer::start(Arc::clone(&rec), "127.0.0.1:0")
        .expect("bind a loopback port for the telemetry server");
    (rec, srv)
}

/// Handles for `tracks` recorder tracks.
pub fn telemetry_tracks(rec: &StreamRecorder, tracks: usize) -> Vec<u32> {
    (0..tracks)
        .map(|i| rec.track(hpcc_trace::names::MESH_NODES, &format!("node {i}")))
        .collect()
}

pub fn telemetry_span(rec: &StreamRecorder, track: u32, start_ns: u64, end_ns: u64) {
    rec.span(track, "compute", "pump", start_ns, end_ns);
}

pub fn telemetry_counter(rec: &StreamRecorder, track: u32, at_ns: u64, value: f64) {
    rec.counter(track, "queue_depth", at_ns, value);
}

/// The `next` cursor of a `/trace` chunk body.
pub fn chunk_cursor(body: &str) -> Option<u64> {
    let doc = hpcc_trace::json::parse(body).ok()?;
    Some(doc.get("next")?.as_f64()? as u64)
}
