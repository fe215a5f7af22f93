//! `sched::service` — the batch scheduler grown into a long-running,
//! multi-tenant service with admission control and graceful degradation.
//!
//! The batch path ([`super::run_with_faults`]) assumes a finite job list
//! and an unbounded queue: overload just grows the queue and stretches
//! waits. A shared facility (the consortium's actual operating mode —
//! the Cluster Computing White Paper catalogs the same concerns) needs
//! the opposite: a sustained submission stream from thousands of
//! tenants, *bounded* queues with typed backpressure, per-tenant
//! quotas, and deterministic retry when the fault layer kills work.
//!
//! The pipeline, per submission:
//!
//! ```text
//!  Arrive ──▶ admission ──▶ pending queue ──▶ placement
//!              │ Unrunnable    (bounded,         │ first-fit
//!              │ QuotaExceeded  arrival order)   │ + backfill
//!              │ QueueFull /                     ▼
//!              ▼ shed tiers                   running ──▶ Completed
//!           Rejected                             │ fault
//!                                                ▼
//!                               backoff timer ◀─ killed
//!                               (capped, jittered,
//!                                budgeted) ──▶ Failed
//! ```
//!
//! Determinism: the service is a plain DES on the shared calendar —
//! every decision is a pure function of `(trace, config, fault plan)`,
//! retry jitter included ([`des::backoff::Backoff`] is seeded).
//! Admission happens at arrival and adds no calendar entry, so
//! under-capacity zero-fault runs replay the batch scheduler's event
//! sequence exactly: [`assert_batch_equivalent`] checks the schedules
//! bit-for-bit and is run by the property tests (`service_props.rs`).
//!
//! Accounting is exact: node-time is integrated in integer node-ns over
//! every event, so `useful + lost_to_kills + dead + idle == total` is an
//! equality of `u128`s, not an approximation (see [`NodeTime`]).

use super::{Job, JobRecord, KilledAttempt, Policy};
use crate::partition::{MeshSpace, SubMesh};
use des::backoff::Backoff;
use des::faults::FaultPlan;
use des::queue::EventQueue;
use des::rng::Rng;
use des::stats::{Histogram, Summary};
use des::time::{Dur, SimTime};
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};

/// Scheduling class; the load shedder rejects the lowest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One job submission on the service's ingest stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    /// Dense index; doubles as the job id.
    pub id: usize,
    pub tenant: usize,
    pub priority: Priority,
    /// Requested sub-mesh shape (rows, cols).
    pub shape: (usize, usize),
    pub runtime: Dur,
    pub arrival: SimTime,
}

impl Submission {
    pub fn nodes(&self) -> usize {
        self.shape.0 * self.shape.1
    }

    /// The batch-scheduler view of this submission (`partner` = tenant).
    fn as_job(&self) -> Job {
        Job {
            id: self.id,
            shape: self.shape,
            runtime: self.runtime,
            arrival: self.arrival,
            partner: self.tenant,
        }
    }
}

/// Typed backpressure: why admission refused a submission. These are
/// returned to the tenant instead of growing any queue without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pending queue refused the submission: it is full, or deep
    /// enough that the submission's priority class is shed. `depth` is
    /// the queue's occupancy observed (0 under a `shard_cap` of 0).
    QueueFull { depth: usize },
    /// Admitting would push the tenant past its in-flight node quota.
    QuotaExceeded { tenant: usize, quota: usize },
    /// The requested shape can never fit the machine (even rotated).
    Unrunnable { shape: (usize, usize) },
}

/// Exactly-one terminal state per submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Ran to completion (possibly after fault-kill retries).
    Completed,
    /// Killed by faults more times than the retry budget allows.
    Failed,
    /// Refused at admission with the given typed error.
    Rejected(AdmissionError),
}

/// Pending-queue occupancy, as a fraction of `pending_cap`, from which
/// each priority class is shed: `Low` from half full, `Normal` from
/// three quarters, `High` only when the queue is full.
const SHED_TIERS: [f64; 3] = [0.50, 0.75, 1.0];

/// Kills a job survives: each of the first three sends it back to the
/// queue after a backoff, the fourth retires it as [`Outcome::Failed`].
const RETRY_BUDGET: u32 = 3;

/// The wait before a killed job re-enters the queue: 1 s doubling to a
/// 60 s cap, ±20 % jitter, streamed by job id so co-killed jobs do not
/// retry in lockstep.
const RETRY_BACKOFF: Backoff = Backoff {
    base: Dur::from_secs(1),
    cap: Dur::from_secs(60),
    jitter: 0.20,
    seed: 0x5EED,
};

/// Service configuration. [`ServiceConfig::new`] gives production-style
/// bounds; [`ServiceConfig::batch_equivalent`] removes every limit so
/// the service reduces exactly to the batch scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    pub rows: usize,
    pub cols: usize,
    /// Placement scan policy (FCFS head-blocking vs aggressive backfill).
    pub policy: Policy,
    /// Ingest bound. Admission happens at arrival, so nothing ever
    /// waits for it: the one value with an effect is 0, which refuses
    /// every arrival as `QueueFull { depth: 0 }`.
    pub shard_cap: usize,
    /// Bound on admissions into the pending queue (the shed tiers key
    /// off it). A fault-killed job re-enters the queue without the
    /// check, and a crash kills at most one job, so the queue's
    /// high-water mark is at most `pending_cap + nodes_failed`.
    pub pending_cap: usize,
    /// Failed placement probes per scan before giving up (bounds the
    /// cost of one `try_start` pass under deep queues). Only real
    /// allocator probes count; entries skipped via the shape cache or
    /// the free-node check are free.
    pub backfill_depth: usize,
    /// Default per-tenant in-flight node quota (pending + running +
    /// awaiting retry). Override per tenant via quota updates.
    pub quota_default: usize,
    /// Keep full per-job [`JobRecord`]s (memory ∝ jobs; tests and the
    /// equivalence gate need them, million-job benches do not).
    pub keep_records: bool,
}

impl ServiceConfig {
    /// Production-style defaults on a `rows × cols` mesh.
    pub fn new(rows: usize, cols: usize) -> ServiceConfig {
        ServiceConfig {
            rows,
            cols,
            policy: Policy::Backfill,
            shard_cap: 4096,
            pending_cap: 4096,
            backfill_depth: 64,
            quota_default: usize::MAX,
            keep_records: false,
        }
    }

    /// No bounds, no quotas: the configuration under which
    /// a zero-fault run is bit-identical to [`super::run_with_faults`].
    pub fn batch_equivalent(rows: usize, cols: usize, policy: Policy) -> ServiceConfig {
        ServiceConfig {
            policy,
            shard_cap: usize::MAX,
            pending_cap: usize::MAX,
            backfill_depth: usize::MAX,
            keep_records: true,
            ..ServiceConfig::new(rows, cols)
        }
    }
}

/// The replayable input stream: submissions plus mid-run quota changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceTrace {
    pub subs: Vec<Submission>,
    /// `(at, tenant, new_quota)` — applied at simulated time `at`.
    pub quota_updates: Vec<(SimTime, usize, usize)>,
}

impl ServiceTrace {
    /// The equivalent batch-scheduler job list.
    pub fn as_jobs(&self) -> Vec<Job> {
        self.subs.iter().map(Submission::as_job).collect()
    }
}

/// Exact node-time ledger in integer node-nanoseconds, integrated over
/// every event up to the last one (`span`). The conservation identity
/// `useful + lost_to_kills + dead + idle == total` holds as a `u128`
/// equality on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeTime {
    /// `nodes × span` — everything there was.
    pub total: u128,
    /// Node-time of runs that completed.
    pub useful: u128,
    /// Partial work thrown away by fault kills.
    pub lost_to_kills: u128,
    /// Node-time spent permanently failed.
    pub dead: u128,
    /// The remainder: allocatable but unallocated.
    pub idle: u128,
}

impl NodeTime {
    /// The conservation identity, exactly.
    pub fn balanced(&self) -> bool {
        self.useful + self.lost_to_kills + self.dead + self.idle == self.total
    }
}

/// Aggregate outcome of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub submitted: usize,
    pub completed: usize,
    /// Retired after exhausting the retry budget.
    pub failed: usize,
    /// QueueFull rejections per priority class (shed tiers + full queues).
    pub shed: [u64; 3],
    pub quota_rejects: u64,
    pub unrunnable: u64,
    /// Retries scheduled after fault kills.
    pub retries: u64,
    /// Placements killed by node crashes.
    pub jobs_killed: u64,
    pub nodes_failed: usize,
    /// Last Finish/Fault event (batch-compatible makespan).
    pub makespan: Dur,
    /// Last event of any kind (service lifetime; node-time integrates
    /// to here).
    pub span: Dur,
    /// `useful / (nodes × makespan)`.
    pub utilization: f64,
    pub utilization_lost_to_faults: f64,
    pub mean_wait: Dur,
    pub p99_wait: Dur,
    pub max_wait: Dur,
    /// High-water mark of the pending queue — proof it stayed bounded
    /// (by `pending_cap + nodes_failed`, see [`ServiceConfig::pending_cap`]).
    pub max_pending: usize,
    /// Events handled: one Arrive per submission (arrivals are a cursor
    /// beside the calendar, but count) plus every calendar pop. Each
    /// placement schedules one Finish, popped even when a kill has made
    /// it stale, and each retry one Retry; each node crash in the fault
    /// plan and each quota update in the trace is one event. So every
    /// run has `events == submitted + completed + jobs_killed +
    /// retries + crashes + quota updates`.
    pub events: u64,
    pub node_time: NodeTime,
    /// Terminal state per submission, indexed by submission id.
    pub outcomes: Vec<Outcome>,
    /// Full per-job records (only when `keep_records`), in id order.
    pub records: Vec<JobRecord>,
}

impl ServiceReport {
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    pub fn rejected_total(&self) -> u64 {
        self.shed_total() + self.quota_rejects + self.unrunnable
    }
}

enum Ev {
    /// Never on the calendar: the trace is sorted, so arrivals are a
    /// cursor beside it (see [`Svc::next_event`]).
    Arrive(usize),
    /// Job index + attempt; stale attempts are ignored.
    Finish(usize, u32),
    Fault(usize),
    /// Backoff expired: re-queue the job for another attempt.
    Retry(usize, u32),
    QuotaSet(usize, usize),
}

struct RunningJob {
    idx: usize,
    started: SimTime,
    placement: SubMesh,
}

/// `slot_of` value of a job that is not running.
const NOT_RUNNING: u32 = u32::MAX;
/// `shape_of` value of a shape that cannot fit the empty machine.
const UNFIT: u32 = u32::MAX;

/// The distinct normalized shapes of one run that fit the machine,
/// interned to small ids so the per-shape scheduling state is flat
/// vectors indexed by id instead of hashed sets of `(rows, cols)`.
struct ShapeTable {
    /// Normalized `(rows, cols)` per id.
    dims: Vec<(usize, usize)>,
    /// Pending entries carrying the shape.
    pending: Vec<usize>,
    /// Proven not to fit since the last free. Occupancy only grows
    /// between frees, so a blocked shape stays blocked until then.
    blocked: Vec<bool>,
    /// Proven unable to *ever* fit the surviving mesh. Fail-stop nodes
    /// never return, so this only grows.
    dead: Vec<bool>,
}

impl ShapeTable {
    /// Shape ids of `subs` (`UNFIT` for a shape the empty `rows × cols`
    /// machine cannot hold) and the table they index.
    fn intern(subs: &[Submission], rows: usize, cols: usize) -> (Vec<u32>, ShapeTable) {
        // A normalized shape that fits has its short side within the
        // machine's short side and its long side within the long one, so
        // a dense table of that size maps shapes to ids without hashing.
        let (short, long) = (rows.min(cols), rows.max(cols));
        let mut id_of = vec![UNFIT; short * long];
        let mut dims = Vec::new();
        let shape_of = subs
            .iter()
            .map(|sub| {
                let (r, c) = norm_shape(sub.shape);
                if r == 0 || r > short || c > long {
                    return UNFIT;
                }
                let id = &mut id_of[(r - 1) * long + c - 1];
                if *id == UNFIT {
                    *id = dims.len() as u32;
                    dims.push((r, c));
                }
                *id
            })
            .collect();
        let table = ShapeTable {
            pending: vec![0; dims.len()],
            blocked: vec![false; dims.len()],
            dead: vec![false; dims.len()],
            dims,
        };
        (shape_of, table)
    }

    /// How many shapes have a pending entry that could be placed right
    /// now: not proven blocked since the last free, and within `free`
    /// nodes.
    fn startable(&self, free: usize) -> usize {
        (0..self.dims.len())
            .filter(|&id| self.pending[id] > 0 && self.may_fit(id, free))
            .count()
    }

    fn may_fit(&self, id: usize, free: usize) -> bool {
        let (r, c) = self.dims[id];
        r * c <= free && !self.blocked[id]
    }
}

struct Svc<'a> {
    cfg: &'a ServiceConfig,
    subs: &'a [Submission],
    /// Shape id per submission index.
    shape_of: Vec<u32>,
    shapes: ShapeTable,
    q: EventQueue<Ev>,
    /// Submissions `..arrived` have arrived; the rest are the cursor's.
    arrived: usize,
    /// Timestamp of the event being handled. Node-time is integrated up
    /// to here.
    now: SimTime,
    space: MeshSpace,
    /// Pending submission indices in ascending order. `subs` is sorted
    /// by `(arrival, id)`, so this is arrival order, ties by id.
    pending: Vec<usize>,
    running: Vec<RunningJob>,
    /// Job index → its position in `running`.
    slot_of: Vec<u32>,
    attempt_of: Vec<u32>,
    outcome: Vec<Option<Outcome>>,
    killed: Vec<Vec<KilledAttempt>>,
    records: Vec<Option<JobRecord>>,
    /// Per-tenant state (dense by tenant id).
    quota: Vec<usize>,
    inflight_nodes: Vec<usize>,
    /// Exact node-time integral up to `now`.
    acc: NodeTime,
    // --- counters ---
    completed: usize,
    failed: usize,
    shed: [u64; 3],
    quota_rejects: u64,
    unrunnable: u64,
    retries: u64,
    jobs_killed: u64,
    makespan: Dur,
    max_pending: usize,
    waits: Summary,
    wait_hist: Histogram,
    max_wait: Dur,
    // --- tracing ---
    rec: &'a dyn Recorder,
    rec_on: bool,
    svc_track: TrackId,
    tenant_track: Vec<Option<TrackId>>,
    tenant_admits: Vec<u64>,
    tenant_rejects: Vec<u64>,
    tenant_retries: Vec<u64>,
}

#[inline]
fn norm_shape(shape: (usize, usize)) -> (usize, usize) {
    let (r, c) = shape;
    (r.min(c), r.max(c))
}

impl<'a> Svc<'a> {
    /// Advance the clock to `at`, integrating node-time over the step
    /// (call before mutating state). Busy time is attributed to
    /// useful/lost at Finish/Fault; its integral is implicit as
    /// `total - dead - idle`.
    fn integrate_to(&mut self, at: SimTime) {
        let dt = (at - self.now).nanos() as u128;
        self.acc.total += (self.space.total_nodes() as u128) * dt;
        self.acc.dead += (self.space.failed_nodes() as u128) * dt;
        self.acc.idle += (self.space.free_nodes() as u128) * dt;
        self.now = at;
    }

    /// The next event in `(time, sequence)` order. An arrival wins every
    /// timestamp tie: pre-loaded into the calendar, the arrivals would
    /// hold sequence numbers `0..n`, below every other event's.
    fn next_event(&mut self) -> Option<(SimTime, Ev)> {
        match (self.subs.get(self.arrived), self.q.peek_time()) {
            (Some(sub), other) if other.is_none_or(|t| sub.arrival <= t) => {
                self.q.advance_to(sub.arrival);
                self.arrived += 1;
                Some((sub.arrival, Ev::Arrive(self.arrived - 1)))
            }
            _ => self.q.pop(),
        }
    }

    fn settle(&mut self, idx: usize, outcome: Outcome) {
        assert!(
            self.outcome[idx].is_none(),
            "submission {idx} reached a second terminal state {outcome:?}"
        );
        self.outcome[idx] = Some(outcome);
    }

    fn tenant_track(&mut self, tenant: usize) -> TrackId {
        match self.tenant_track[tenant] {
            Some(t) => t,
            None => {
                let t = self
                    .rec
                    .track(names::SCHED_SVC, &format!("tenant {tenant}"));
                self.tenant_track[tenant] = Some(t);
                t
            }
        }
    }

    fn trace_tenant(&mut self, tenant: usize) {
        if !self.rec_on {
            return;
        }
        let now = self.now.nanos();
        let track = self.tenant_track(tenant);
        self.rec
            .counter(track, "admits", now, self.tenant_admits[tenant] as f64);
        self.rec
            .counter(track, "rejects", now, self.tenant_rejects[tenant] as f64);
        self.rec
            .counter(track, "retries", now, self.tenant_retries[tenant] as f64);
    }

    fn reject(&mut self, idx: usize, err: AdmissionError) {
        let sub = &self.subs[idx];
        match err {
            AdmissionError::QueueFull { .. } => self.shed[sub.priority.index()] += 1,
            AdmissionError::QuotaExceeded { .. } => self.quota_rejects += 1,
            AdmissionError::Unrunnable { .. } => self.unrunnable += 1,
        }
        let tenant = sub.tenant;
        self.tenant_rejects[tenant] += 1;
        self.settle(idx, Outcome::Rejected(err));
        if self.rec_on {
            let now = self.now.nanos();
            let track = self.svc_track;
            self.rec.instant(track, "reject", "rejected", now);
            self.trace_tenant(tenant);
        }
    }

    /// Ordered insert into the pending queue.
    fn enqueue_pending(&mut self, idx: usize) {
        let at = self.pending.partition_point(|&i| i < idx);
        self.shapes.pending[self.shape_of[idx] as usize] += 1;
        self.pending.insert(at, idx);
        self.max_pending = self.max_pending.max(self.pending.len());
    }

    /// Retire every pending entry `fits` turns down as `Unrunnable`,
    /// releasing its quota; the rest keep their order.
    fn retire_unrunnable(&mut self, fits: impl Fn(&Self, usize) -> bool) {
        let mut kept = 0;
        for at in 0..self.pending.len() {
            let idx = self.pending[at];
            if fits(self, idx) {
                self.pending[kept] = idx;
                kept += 1;
            } else {
                let sub = self.subs[idx];
                self.shapes.pending[self.shape_of[idx] as usize] -= 1;
                self.inflight_nodes[sub.tenant] -= sub.nodes();
                self.reject(idx, AdmissionError::Unrunnable { shape: sub.shape });
            }
        }
        self.pending.truncate(kept);
    }

    /// Admit an arrival into pending, or reject it with a typed error.
    fn admit_one(&mut self, idx: usize) {
        let sub = self.subs[idx];
        let sid = self.shape_of[idx];
        if sid == UNFIT || self.shapes.dead[sid as usize] {
            self.reject(idx, AdmissionError::Unrunnable { shape: sub.shape });
            return;
        }
        let quota = self.quota[sub.tenant];
        let nodes = sub.nodes();
        if self.inflight_nodes[sub.tenant].saturating_add(nodes) > quota {
            self.reject(
                idx,
                AdmissionError::QuotaExceeded {
                    tenant: sub.tenant,
                    quota,
                },
            );
            return;
        }
        // Shed tiers: lowest priority is turned away first as the
        // pending queue fills; a full queue refuses every class.
        let depth = self.pending.len();
        let full = depth >= self.cfg.pending_cap;
        let tiered = !full
            && self.cfg.pending_cap != usize::MAX
            && (depth as f64 / self.cfg.pending_cap as f64) >= SHED_TIERS[sub.priority.index()];
        if full || tiered {
            self.reject(idx, AdmissionError::QueueFull { depth });
            return;
        }
        self.inflight_nodes[sub.tenant] += nodes;
        self.tenant_admits[sub.tenant] += 1;
        self.enqueue_pending(idx);
        if self.rec_on {
            self.trace_tenant(sub.tenant);
        }
    }

    /// Start every pending job the policy allows. Faithful to the batch
    /// scheduler's scan (front-first, restart on success, FCFS breaks at
    /// the first refusal) with pure optimizations that cannot change
    /// placements: a free-node quick reject, a cache of shapes that
    /// failed a full probe since the last free (occupancy only grows
    /// between frees, so a failed shape stays failed), and an early exit
    /// once no shape remaining in the queue could start.
    fn try_start(&mut self) {
        let now = self.now;
        // Only real allocator probes consume the backfill budget; entries
        // whose shape already failed this epoch (or exceeds the free-node
        // count) are skipped in O(1), and the scan ends outright once no
        // shape left in the queue could start. Without this, a run of
        // un-placeable entries at the front of a deep queue exhausts the
        // budget and wedges the machine even when placeable work waits
        // just behind them.
        //
        // `startable` counts the shapes a probe could still succeed for.
        // It is taken when a scan starts — nothing it reads changes
        // before the next success except `blocked`, and a failed probe
        // that blocks a shape takes it out of the count — so "this
        // entry's shape is among them" is `may_fit` read live.
        let mut free = self.space.free_nodes();
        let mut startable = self.shapes.startable(free);
        let mut i = 0;
        let mut probes = 0usize;
        while i < self.pending.len() && probes < self.cfg.backfill_depth && startable > 0 {
            let idx = self.pending[i];
            let (r, c) = self.subs[idx].shape;
            let sid = self.shape_of[idx] as usize;
            if !self.shapes.may_fit(sid, free) {
                // Known not to fit right now. FCFS still stops at the
                // head — a refused head is the policy's break signal.
                match self.cfg.policy {
                    Policy::Fcfs => break,
                    Policy::Backfill => {
                        i += 1;
                        continue;
                    }
                }
            }
            match self.space.allocate(r, c) {
                Some(sm) => {
                    self.pending.remove(i);
                    self.shapes.pending[sid] -= 1;
                    let attempt = self.attempt_of[idx];
                    self.q
                        .schedule(now + self.subs[idx].runtime, Ev::Finish(idx, attempt));
                    self.slot_of[idx] = self.running.len() as u32;
                    self.running.push(RunningJob {
                        idx,
                        started: now,
                        placement: sm,
                    });
                    i = 0;
                    probes = 0;
                    free = self.space.free_nodes();
                    startable = self.shapes.startable(free);
                }
                None => {
                    self.shapes.blocked[sid] = true;
                    startable -= 1;
                    probes += 1;
                    match self.cfg.policy {
                        Policy::Fcfs => break,
                        Policy::Backfill => i += 1,
                    }
                }
            }
        }
    }

    /// Take the job at `pos` out of `running`, keeping `slot_of` exact.
    fn stop_running(&mut self, pos: usize) -> RunningJob {
        let entry = self.running.swap_remove(pos);
        self.slot_of[entry.idx] = NOT_RUNNING;
        if let Some(moved) = self.running.get(pos) {
            self.slot_of[moved.idx] = pos as u32;
        }
        entry
    }

    /// Free a placement; every shape gets a fresh chance to fit.
    fn release(&mut self, placement: SubMesh) {
        self.space.free(placement);
        self.shapes.blocked.fill(false);
    }

    fn on_finish(&mut self, idx: usize, attempt: u32) {
        if attempt != self.attempt_of[idx] {
            return; // this placement was killed; a retry owns the job now
        }
        let now = self.now;
        let slot = self.slot_of[idx];
        assert!(slot != NOT_RUNNING, "finishing job is running");
        let entry = self.stop_running(slot as usize);
        let sub = self.subs[idx];
        let nodes = sub.nodes();
        let work = (nodes as u128) * (sub.runtime.nanos() as u128);
        self.acc.useful += work;
        self.inflight_nodes[sub.tenant] -= nodes;
        self.makespan = self.makespan.max(now - SimTime::ZERO);
        self.release(entry.placement);
        let wait = entry.started - sub.arrival;
        self.waits.add_dur(wait);
        self.wait_hist.add(wait.as_secs_f64());
        self.max_wait = self.max_wait.max(wait);
        self.completed += 1;
        self.settle(idx, Outcome::Completed);
        if self.cfg.keep_records {
            self.records[idx] = Some(JobRecord {
                job: sub.as_job(),
                attempts: std::mem::take(&mut self.killed[idx]),
                started: entry.started,
                finished: now,
                placement: entry.placement,
            });
        }
    }

    fn on_fault(&mut self, node: usize) {
        if self.space.is_failed(node) {
            return; // scripted plans may repeat a crash; fail-stop is once
        }
        let now = self.now;
        let victim = self.space.allocation_containing(node);
        self.space.fail_node(node);
        self.makespan = self.makespan.max(now - SimTime::ZERO);
        if let Some(sm) = victim {
            let pos = self
                .running
                .iter()
                .position(|rj| rj.placement == sm)
                .expect("allocated sub-mesh has a running job");
            let entry = self.stop_running(pos);
            let idx = entry.idx;
            let sub = self.subs[idx];
            let nodes = sub.nodes();
            self.acc.lost_to_kills += (nodes as u128) * ((now - entry.started).nanos() as u128);
            self.release(sm);
            self.jobs_killed += 1;
            self.attempt_of[idx] += 1;
            if self.cfg.keep_records {
                self.killed[idx].push(KilledAttempt {
                    started: entry.started,
                    killed: now,
                    placement: sm,
                });
            }
            let kills = self.attempt_of[idx];
            if kills > RETRY_BUDGET {
                // Retry budget exhausted: retire, release the quota.
                self.inflight_nodes[sub.tenant] -= nodes;
                self.failed += 1;
                self.settle(idx, Outcome::Failed);
                if self.rec_on {
                    self.rec
                        .instant(self.svc_track, "fault", "job_failed", now.nanos());
                }
            } else {
                self.retries += 1;
                self.tenant_retries[sub.tenant] += 1;
                let delay = RETRY_BACKOFF.delay(idx as u64, kills);
                self.q.schedule(now + delay, Ev::Retry(idx, kills));
                if self.rec_on {
                    self.rec
                        .instant(self.svc_track, "fault", "retry_scheduled", now.nanos());
                    self.trace_tenant(sub.tenant);
                }
            }
        }
        // Retire pending work the shrunken mesh can never host again —
        // left queued it would hold its slot and quota forever, and a
        // run of such entries at the queue front starves everything
        // behind it. Dead shapes also reject at admission from here on.
        let mut newly_dead = false;
        for sid in 0..self.shapes.dims.len() {
            let (r, c) = self.shapes.dims[sid];
            if self.shapes.pending[sid] > 0 && !self.space.fits_survivors(r, c) {
                self.shapes.dead[sid] = true;
                newly_dead = true;
            }
        }
        if newly_dead {
            self.retire_unrunnable(|svc, idx| !svc.shapes.dead[svc.shape_of[idx] as usize]);
        }
        if self.rec_on {
            self.rec
                .instant(self.svc_track, "fault", "node_fault", now.nanos());
        }
    }

    fn on_retry(&mut self, idx: usize, attempt: u32) {
        if attempt != self.attempt_of[idx] {
            return;
        }
        debug_assert!(self.outcome[idx].is_none());
        // Retries re-enter pending directly: the job already holds
        // quota, and the retry population is bounded by machine capacity
        // (only running jobs can be killed), so this cannot grow the
        // queue without bound.
        self.enqueue_pending(idx);
    }

    fn on_arrive(&mut self, idx: usize) {
        if self.cfg.shard_cap == 0 {
            self.reject(idx, AdmissionError::QueueFull { depth: 0 });
        } else {
            self.admit_one(idx);
        }
    }

    fn trace_queues(&self) {
        if !self.rec_on {
            return;
        }
        let now = self.now.nanos();
        let t = self.svc_track;
        self.rec
            .counter(t, "pending_jobs", now, self.pending.len() as f64);
        self.rec
            .counter(t, "running_jobs", now, self.running.len() as f64);
        self.rec
            .counter(t, "shed_total", now, self.shed.iter().sum::<u64>() as f64);
        self.rec.counter(t, "retries", now, self.retries as f64);
    }
}

/// Run the service over a trace with no faults.
pub fn run(trace: &ServiceTrace, cfg: &ServiceConfig) -> ServiceReport {
    run_with_faults(trace, cfg, &FaultPlan::none())
}

/// Run the service over a trace under a [`FaultPlan`].
pub fn run_with_faults(
    trace: &ServiceTrace,
    cfg: &ServiceConfig,
    plan: &FaultPlan,
) -> ServiceReport {
    run_recorded(trace, cfg, plan, &NullRecorder)
}

/// Run the service with a trace recorder attached (pure observer:
/// recorded runs are bit-identical to unrecorded ones). The recorder
/// carries service-level counters (queue depths, running jobs, sheds,
/// retries) and per-tenant admit/reject/retry counters.
pub fn run_recorded(
    trace: &ServiceTrace,
    cfg: &ServiceConfig,
    plan: &FaultPlan,
    rec: &dyn Recorder,
) -> ServiceReport {
    let mut subs = trace.subs.clone();
    subs.sort_by_key(|s| (s.arrival, s.id));
    let n = subs.len();
    let nodes_total = cfg.rows * cfg.cols;
    assert!(nodes_total > 0, "service needs a machine");
    // Outcomes are reported by id, so the ids must be a permutation of
    // `0..n`; a bad trace is refused before anything is simulated.
    let mut id_seen = vec![false; n];
    for s in &subs {
        assert!(
            s.id < n && !std::mem::replace(&mut id_seen[s.id], true),
            "submission ids must be dense and unique: {}",
            s.id
        );
    }
    let n_tenants = subs
        .iter()
        .map(|s| s.tenant)
        .chain(trace.quota_updates.iter().map(|&(_, t, _)| t))
        .max()
        .map_or(0, |t| t + 1);

    let rec_on = rec.is_enabled();
    let svc_track = if rec_on {
        rec.track(names::SCHED_SVC, "service")
    } else {
        0
    };

    // The calendar holds quota updates, faults and whatever the run
    // schedules (a Finish per placement, Retry) — never arrivals.
    let mut q: EventQueue<Ev> =
        EventQueue::with_capacity(trace.quota_updates.len() + plan.len() + nodes_total.min(n));
    let mut quota_updates = trace.quota_updates.clone();
    quota_updates.sort_by_key(|&(at, t, _)| (at, t));
    for &(at, tenant, quota) in &quota_updates {
        q.schedule(at, Ev::QuotaSet(tenant, quota));
    }
    for (at, node) in plan.node_crashes() {
        assert!(node < nodes_total, "fault plan targets node {node}");
        q.schedule(at, Ev::Fault(node));
    }

    let (shape_of, shapes) = ShapeTable::intern(&subs, cfg.rows, cfg.cols);
    let mut svc = Svc {
        cfg,
        subs: &subs,
        shape_of,
        shapes,
        q,
        arrived: 0,
        now: SimTime::ZERO,
        space: MeshSpace::new(cfg.rows, cfg.cols),
        pending: Vec::new(),
        running: Vec::new(),
        slot_of: vec![NOT_RUNNING; n],
        attempt_of: vec![0; n],
        outcome: vec![None; n],
        killed: vec![Vec::new(); if cfg.keep_records { n } else { 0 }],
        records: vec![None; if cfg.keep_records { n } else { 0 }],
        quota: vec![cfg.quota_default; n_tenants],
        inflight_nodes: vec![0; n_tenants],
        acc: NodeTime::default(),
        completed: 0,
        failed: 0,
        shed: [0; 3],
        quota_rejects: 0,
        unrunnable: 0,
        retries: 0,
        jobs_killed: 0,
        makespan: Dur::ZERO,
        max_pending: 0,
        waits: Summary::new(),
        // 10-second buckets out to 4 simulated hours of queueing; the
        // overflow bucket catches pathological waits.
        wait_hist: Histogram::new(0.0, 14_400.0, 1_440),
        max_wait: Dur::ZERO,
        rec,
        rec_on,
        svc_track,
        tenant_track: vec![None; if rec_on { n_tenants } else { 0 }],
        tenant_admits: vec![0; n_tenants],
        tenant_rejects: vec![0; n_tenants],
        tenant_retries: vec![0; n_tenants],
    };

    loop {
        while let Some((at, ev)) = svc.next_event() {
            svc.integrate_to(at);
            match ev {
                Ev::Arrive(i) => svc.on_arrive(i),
                Ev::Finish(i, a) => svc.on_finish(i, a),
                Ev::Fault(node) => svc.on_fault(node),
                Ev::Retry(i, a) => svc.on_retry(i, a),
                Ev::QuotaSet(tenant, quota) => svc.quota[tenant] = quota,
            }
            svc.try_start();
            svc.trace_queues();
        }
        // Trace and calendar drained. Anything still pending cannot be
        // waiting on a Finish — nothing is running — so it either fits
        // (start it) or no longer fits the fault-shrunk mesh (retire it
        // as Unrunnable instead of blocking the queue forever).
        if svc.pending.is_empty() {
            break;
        }
        debug_assert!(svc.running.is_empty() && svc.space.allocations().is_empty());
        svc.retire_unrunnable(|svc, idx| {
            let (r, c) = svc.subs[idx].shape;
            svc.space.can_allocate(r, c)
        });
        if svc.pending.is_empty() {
            break;
        }
        svc.shapes.blocked.fill(false);
        svc.try_start();
    }

    // Close the ledger: idle absorbs what is neither busy nor dead, and
    // busy splits exactly into useful + lost.
    let span = svc.now - SimTime::ZERO;
    debug_assert_eq!(
        svc.acc.total - svc.acc.dead - svc.acc.idle,
        svc.acc.useful + svc.acc.lost_to_kills,
        "busy node-time must equal useful + lost"
    );
    let node_time = svc.acc;
    assert!(node_time.balanced(), "node-time ledger out of balance");

    // Re-index terminal states by submission id (subs were sorted by
    // arrival above; the ids were checked to be a permutation).
    let mut outcomes = vec![Outcome::Failed; n];
    for (i, o) in svc.outcome.iter().enumerate() {
        outcomes[subs[i].id] = o.unwrap_or_else(|| panic!("submission {i} has no terminal state"));
    }
    let denom = (nodes_total as f64) * svc.makespan.as_secs_f64();
    let frac = |num: f64| if denom > 0.0 { num / denom } else { 0.0 };
    ServiceReport {
        submitted: n,
        completed: svc.completed,
        failed: svc.failed,
        shed: svc.shed,
        quota_rejects: svc.quota_rejects,
        unrunnable: svc.unrunnable,
        retries: svc.retries,
        jobs_killed: svc.jobs_killed,
        nodes_failed: svc.space.failed_nodes(),
        makespan: svc.makespan,
        span,
        utilization: frac(node_time.useful as f64 / 1e9),
        utilization_lost_to_faults: frac(node_time.lost_to_kills as f64 / 1e9),
        mean_wait: Dur::from_secs_f64(svc.waits.mean()),
        p99_wait: Dur::from_secs_f64(svc.wait_hist.quantile(0.99).unwrap_or(0.0)),
        max_wait: svc.max_wait,
        max_pending: svc.max_pending,
        // One Arrive per submission, though none went through the calendar.
        events: svc.q.events_processed() + svc.arrived as u64,
        node_time,
        outcomes,
        records: svc.records.into_iter().flatten().collect(),
    }
}

/// A sustained multi-tenant stream: `n` submissions from `tenants`
/// tenants at `load` times the machine's service capacity, heavy-tailed
/// in every dimension — Pareto inter-arrivals (bursts), Pareto-indexed
/// shapes (most jobs small, a fat tail of large frames), Pareto
/// runtimes, and a skewed tenant-activity distribution. Deterministic
/// in `(n, tenants, load, rows, cols, seed)`.
pub fn service_workload(
    n: usize,
    tenants: usize,
    load: f64,
    rows: usize,
    cols: usize,
    seed: u64,
) -> ServiceTrace {
    assert!(n > 0 && tenants > 0 && load > 0.0);
    let mut rng = Rng::new(seed);
    let shapes: [(usize, usize); 9] = [
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 4),
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
        (16, 16),
    ];
    // Draw shapes and runtimes first so the arrival clock can be scaled
    // to hit the requested load exactly.
    let mut drawn: Vec<((usize, usize), Dur, usize, Priority)> = Vec::with_capacity(n);
    let mut total_work = 0.0f64;
    for _ in 0..n {
        let tail = rng.pareto(1.0, 1.1);
        let mut si = tail.log2().floor() as usize;
        si = si.min(shapes.len() - 1);
        let shape = shapes[si];
        let runtime = rng.pareto(30.0, 1.5).min(4.0 * 3600.0);
        // Quadratic skew: low tenant ids submit most of the traffic.
        let tenant = ((tenants as f64) * rng.next_f64().powi(2)) as usize % tenants;
        let priority = match rng.below(20) {
            0..=9 => Priority::Low,
            10..=16 => Priority::Normal,
            _ => Priority::High,
        };
        total_work += (shape.0 * shape.1) as f64 * runtime;
        drawn.push((shape, Dur::from_secs_f64(runtime), tenant, priority));
    }
    // Horizon such that offered work = load × capacity over the stream.
    let capacity = (rows * cols) as f64;
    let horizon = total_work / (load * capacity);
    let mean_gap = horizon / n as f64;
    // Pareto(α=1.5) gaps with the right mean: xm = mean × (α−1)/α.
    let xm = (mean_gap / 3.0).max(1e-9);
    let mut t = 0.0f64;
    let subs = drawn
        .into_iter()
        .enumerate()
        .map(|(id, (shape, runtime, tenant, priority))| {
            t += rng.pareto(xm, 1.5);
            Submission {
                id,
                tenant,
                priority,
                shape,
                runtime,
                arrival: SimTime::from_secs_f64(t),
            }
        })
        .collect();
    ServiceTrace {
        subs,
        quota_updates: Vec::new(),
    }
}

/// The batch-equivalence gate: on `trace` with no faults and no limits,
/// the service must produce bit-for-bit the schedule the batch
/// scheduler produces on the equivalent job list — same starts, same
/// finishes, same placements, same makespan. Panics on any divergence.
/// Run by the property tests (`service_props.rs`).
pub fn assert_batch_equivalent(trace: &ServiceTrace, rows: usize, cols: usize, policy: Policy) {
    let cfg = ServiceConfig::batch_equivalent(rows, cols, policy);
    let svc = run(trace, &cfg);
    let batch = super::run_with_faults(rows, cols, trace.as_jobs(), policy, &FaultPlan::none());
    assert_eq!(
        svc.completed, batch.jobs,
        "service completed {} jobs, batch {}",
        svc.completed, batch.jobs
    );
    assert_eq!(svc.makespan, batch.makespan, "makespan diverged");
    assert_eq!(svc.max_wait, batch.max_wait, "max wait diverged");
    assert_eq!(
        svc.records.len(),
        batch.records.len(),
        "record counts diverged"
    );
    for (s, b) in svc.records.iter().zip(&batch.records) {
        assert_eq!(s, b, "schedule diverged on job {}", b.job.id);
    }
    assert!(
        svc.outcomes.iter().all(|o| *o == Outcome::Completed),
        "under-capacity zero-fault run must complete everything"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::faults::FaultKind;

    fn sub(
        id: usize,
        tenant: usize,
        shape: (usize, usize),
        run_s: u64,
        arrive_s: u64,
    ) -> Submission {
        Submission {
            id,
            tenant,
            priority: Priority::Normal,
            shape,
            runtime: Dur::from_secs(run_s),
            arrival: SimTime(arrive_s * 1_000_000_000),
        }
    }

    fn trace(subs: Vec<Submission>) -> ServiceTrace {
        ServiceTrace {
            subs,
            quota_updates: Vec::new(),
        }
    }

    #[test]
    fn single_job_completes_like_batch() {
        let tr = trace(vec![sub(0, 0, (2, 2), 100, 5)]);
        let r = run(&tr, &ServiceConfig::new(4, 4));
        assert_eq!(r.completed, 1);
        assert_eq!(r.outcomes, vec![Outcome::Completed]);
        assert_eq!(r.makespan, Dur::from_secs(105));
        assert!(r.node_time.balanced());
        assert_eq!(r.node_time.useful, 4 * 100 * 1_000_000_000u128);
    }

    #[test]
    fn batch_equivalence_on_consortium_style_stream() {
        for policy in [Policy::Fcfs, Policy::Backfill] {
            let tr = service_workload(300, 14, 0.6, 16, 33, 1992);
            assert_batch_equivalent(&tr, 16, 33, policy);
        }
    }

    #[test]
    fn deterministic_replay() {
        let tr = service_workload(2_000, 50, 1.4, 16, 33, 7);
        let cfg = ServiceConfig::new(16, 33);
        let plan = FaultPlan::seeded(11, Dur::from_secs(50_000), 528, Dur::from_secs(200_000));
        let a = run_with_faults(&tr, &cfg, &plan);
        let b = run_with_faults(&tr, &cfg, &plan);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.node_time, b.node_time);
    }

    #[test]
    fn overload_sheds_low_priority_first_and_bounds_queues() {
        let tr = service_workload(20_000, 200, 2.0, 16, 33, 3);
        let mut cfg = ServiceConfig::new(16, 33);
        cfg.pending_cap = 512;
        let r = run(&tr, &cfg);
        assert!(r.shed_total() > 0, "2x overload must shed");
        assert!(
            r.shed[Priority::Low.index()] >= r.shed[Priority::High.index()],
            "low priority shed at least as much as high: {:?}",
            r.shed
        );
        assert!(r.max_pending <= 512, "pending stayed bounded");
        // Conservation under shedding.
        let rejected = r
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Rejected(_)))
            .count() as u64;
        assert_eq!(rejected, r.rejected_total());
        assert_eq!(
            r.completed + r.failed + rejected as usize,
            r.submitted,
            "every submission reaches exactly one terminal state"
        );
    }

    #[test]
    fn shed_tiers_refuse_low_then_normal_then_high() {
        // One long job holds the 1x1 machine, so `depth` queued High
        // fillers put the pending queue at that depth when the probe
        // arrives.
        let mut cfg = ServiceConfig::new(1, 1);
        cfg.pending_cap = 8;
        let probe = |depth: usize, priority: Priority| {
            let mut subs = vec![sub(0, 0, (1, 1), 1_000, 0)];
            for i in 1..=depth {
                let filler = sub(i, 0, (1, 1), 1, i as u64);
                subs.push(Submission {
                    priority: Priority::High,
                    ..filler
                });
            }
            let id = depth + 1;
            let probe = sub(id, 0, (1, 1), 1, id as u64);
            subs.push(Submission { priority, ..probe });
            run(&trace(subs), &cfg).outcomes[id]
        };
        for (priority, refused_from) in [
            (Priority::Low, 4),
            (Priority::Normal, 6),
            (Priority::High, 8),
        ] {
            for depth in 0..=8 {
                let expect = if depth < refused_from {
                    Outcome::Completed
                } else {
                    Outcome::Rejected(AdmissionError::QueueFull { depth })
                };
                assert_eq!(
                    probe(depth, priority),
                    expect,
                    "{priority:?} at depth {depth}"
                );
            }
        }
        // A zero ingest bound refuses every arrival before admission.
        cfg.shard_cap = 0;
        let r = run(&trace(vec![sub(0, 0, (1, 1), 10, 0)]), &cfg);
        assert_eq!(
            r.outcomes,
            vec![Outcome::Rejected(AdmissionError::QueueFull { depth: 0 })]
        );
    }

    #[test]
    fn retry_after_kill_then_failed_after_budget() {
        // A 1x1 job on a 1x5 strip: first-fit restarts it on the next
        // surviving node after each kill, and we crash that node too. The
        // budget of 3 retries is spent on the first three kills; the
        // fourth retires the job.
        let cfg = ServiceConfig::new(1, 5);
        let tr = trace(vec![sub(0, 0, (1, 1), 1_000, 0)]);
        let mut plan = FaultPlan::none();
        for node in 0..4 {
            let at = SimTime((node as u64 + 1) * 10 * 1_000_000_000);
            plan.push(at, FaultKind::NodeCrash { node });
        }
        let r = run_with_faults(&tr, &cfg, &plan);
        assert_eq!(r.jobs_killed, 4);
        assert_eq!(r.retries, 3, "budget of 3 retries consumed");
        assert_eq!(r.failed, 1);
        assert_eq!(r.completed, 0);
        assert_eq!(r.outcomes, vec![Outcome::Failed]);
        assert!(r.node_time.balanced());
        assert!(r.node_time.lost_to_kills > 0);
        assert_eq!(r.nodes_failed, 4);
    }

    #[test]
    fn retry_backoff_is_capped_and_seeded() {
        // The same strip with three kills, within the budget: the job
        // completes on node 3, each restart exactly one seeded backoff
        // after its kill.
        let mut cfg = ServiceConfig::new(1, 5);
        cfg.keep_records = true;
        let tr = trace(vec![sub(0, 0, (1, 1), 1_000, 0)]);
        let mut plan = FaultPlan::none();
        for node in 0..3 {
            let at = SimTime((node as u64 + 1) * 10 * 1_000_000_000);
            plan.push(at, FaultKind::NodeCrash { node });
        }
        let a = run_with_faults(&tr, &cfg, &plan);
        let b = run_with_faults(&tr, &cfg, &plan);
        assert_eq!(a.outcomes, vec![Outcome::Completed]);
        assert_eq!(a.records, b.records, "seeded jitter replays");
        let rec = &a.records[0];
        assert_eq!(rec.attempts.len(), 3);
        assert_eq!(rec.placement.col, 3);
        let mut starts = rec.attempts.iter().map(|k| k.started).skip(1);
        for (k, killed) in (1..).zip(rec.attempts.iter().map(|k| k.killed)) {
            let wait = RETRY_BACKOFF.delay(0, k);
            let raw = RETRY_BACKOFF.raw_delay(k);
            assert!(wait >= raw.mul_f64(0.8) && wait <= raw.mul_f64(1.2));
            assert_eq!(starts.next().unwrap_or(rec.started), killed + wait);
        }
        // Within the budget the waits double from 1 s; a longer chain
        // would stop doubling at the 60 s cap.
        assert_eq!(RETRY_BACKOFF.raw_delay(RETRY_BUDGET), Dur::from_secs(4));
        assert_eq!(RETRY_BACKOFF.raw_delay(7), Dur::from_secs(60));
    }

    #[test]
    fn zero_quota_tenant_rejects_instead_of_hanging() {
        let mut cfg = ServiceConfig::new(4, 4);
        cfg.quota_default = 0;
        let tr = trace(vec![sub(0, 3, (1, 1), 10, 0), sub(1, 3, (2, 2), 10, 1)]);
        let r = run(&tr, &cfg);
        assert_eq!(r.completed, 0);
        assert_eq!(r.quota_rejects, 2);
        assert!(r
            .outcomes
            .iter()
            .all(|o| matches!(o, Outcome::Rejected(AdmissionError::QuotaExceeded { .. }))));
    }

    #[test]
    fn tenant_at_exactly_quota_is_admitted() {
        let mut cfg = ServiceConfig::new(4, 4);
        cfg.quota_default = 4; // nodes
        let tr = trace(vec![
            sub(0, 0, (2, 2), 100, 0),  // exactly the quota: admitted
            sub(1, 0, (1, 1), 10, 1),   // would exceed while 0 runs: rejected
            sub(2, 0, (2, 2), 10, 200), // after 0 finishes: admitted again
        ]);
        let r = run(&tr, &cfg);
        assert_eq!(r.outcomes[0], Outcome::Completed);
        assert_eq!(
            r.outcomes[1],
            Outcome::Rejected(AdmissionError::QuotaExceeded {
                tenant: 0,
                quota: 4
            })
        );
        assert_eq!(r.outcomes[2], Outcome::Completed);
        assert_eq!(r.quota_rejects, 1);
    }

    #[test]
    fn quota_raised_mid_run_takes_effect() {
        let mut cfg = ServiceConfig::new(4, 4);
        cfg.quota_default = 4;
        let tr = ServiceTrace {
            subs: vec![
                sub(0, 0, (2, 2), 100, 0), // fills the quota
                sub(1, 0, (1, 1), 10, 5),  // rejected: quota still 4
                sub(2, 0, (1, 1), 10, 60), // admitted: quota raised to 8 at t=50
            ],
            quota_updates: vec![(SimTime(50 * 1_000_000_000), 0, 8)],
        };
        let r = run(&tr, &cfg);
        assert_eq!(r.outcomes[0], Outcome::Completed);
        assert!(matches!(
            r.outcomes[1],
            Outcome::Rejected(AdmissionError::QuotaExceeded { quota: 4, .. })
        ));
        assert_eq!(r.outcomes[2], Outcome::Completed, "raise applied");
        assert_eq!(r.quota_rejects, 1);
    }

    #[test]
    fn impossible_shape_is_unrunnable_not_queued() {
        let tr = trace(vec![sub(0, 0, (20, 20), 10, 0), sub(1, 0, (1, 1), 10, 1)]);
        let r = run(&tr, &ServiceConfig::new(4, 4));
        assert_eq!(
            r.outcomes[0],
            Outcome::Rejected(AdmissionError::Unrunnable { shape: (20, 20) })
        );
        assert_eq!(r.outcomes[1], Outcome::Completed);
        assert_eq!(r.unrunnable, 1);
    }

    #[test]
    fn empty_shape_is_unrunnable() {
        let tr = trace(vec![sub(0, 0, (0, 3), 10, 0), sub(1, 0, (1, 1), 10, 1)]);
        let r = run(&tr, &ServiceConfig::new(4, 4));
        assert_eq!(
            r.outcomes[0],
            Outcome::Rejected(AdmissionError::Unrunnable { shape: (0, 3) })
        );
        assert_eq!(r.outcomes[1], Outcome::Completed);
    }

    #[test]
    #[should_panic(expected = "submission ids must be dense and unique: 0")]
    fn duplicate_ids_are_refused_before_the_run() {
        // The second submission can never be placed: had the run started,
        // it would have ended on a different complaint or none at all.
        let tr = trace(vec![sub(0, 0, (1, 1), 10, 0), sub(0, 0, (1, 1), 10, 1)]);
        run(&tr, &ServiceConfig::new(4, 4));
    }

    #[test]
    fn arrival_wins_timestamp_ties() {
        let at = |s: u64| SimTime(s * 1_000_000_000);
        // Quota update at the arrival's instant: the arrival is judged
        // under the old quota.
        let mut cfg = ServiceConfig::new(4, 4);
        cfg.quota_default = 0;
        let tr = ServiceTrace {
            subs: vec![sub(0, 0, (1, 1), 10, 50), sub(1, 0, (1, 1), 10, 51)],
            quota_updates: vec![(at(50), 0, 8)],
        };
        let r = run(&tr, &cfg);
        assert!(matches!(
            r.outcomes[0],
            Outcome::Rejected(AdmissionError::QuotaExceeded { quota: 0, .. })
        ));
        assert_eq!(r.outcomes[1], Outcome::Completed);
        // Crash at the arrival's instant: the job is placed on node 0
        // first and the crash kills it.
        let mut plan = FaultPlan::none();
        plan.push(at(50), FaultKind::NodeCrash { node: 0 });
        let tr = trace(vec![sub(0, 0, (1, 1), 10, 50)]);
        let r = run_with_faults(&tr, &ServiceConfig::new(4, 4), &plan);
        assert_eq!((r.jobs_killed, r.retries, r.completed), (1, 1, 1));
        // Finish at the arrival's instant: the queue is still full when
        // the arrival is admitted, so it is shed.
        let mut cfg = ServiceConfig::new(1, 1);
        cfg.pending_cap = 1;
        let tr = trace(vec![
            sub(0, 0, (1, 1), 50, 0), // runs 0..50
            sub(1, 0, (1, 1), 10, 1), // fills the queue until 50
            sub(2, 0, (1, 1), 10, 50),
        ]);
        let r = run(&tr, &cfg);
        assert!(matches!(
            r.outcomes[2],
            Outcome::Rejected(AdmissionError::QueueFull { depth: 1 })
        ));
        assert_eq!(
            r.events,
            3 + 2,
            "one Arrive each, one Finish per completion"
        );
    }

    #[test]
    fn fault_shrunk_mesh_retires_pending_as_unrunnable() {
        // 2x2 machine; node dies before the full-frame job can start.
        let mut plan = FaultPlan::none();
        plan.push(SimTime(1_000_000_000), FaultKind::NodeCrash { node: 0 });
        let tr = trace(vec![sub(0, 0, (2, 2), 10, 2), sub(1, 1, (1, 1), 5, 3)]);
        let mut cfg = ServiceConfig::new(2, 2);
        cfg.policy = Policy::Fcfs;
        let r = run_with_faults(&tr, &cfg, &plan);
        assert_eq!(
            r.outcomes[0],
            Outcome::Rejected(AdmissionError::Unrunnable { shape: (2, 2) })
        );
        assert_eq!(r.outcomes[1], Outcome::Completed);
        assert_eq!(r.nodes_failed, 1);
    }

    #[test]
    fn recorded_run_is_bit_identical_and_counts_tenants() {
        use hpcc_trace::MemRecorder;
        let tr = service_workload(3_000, 12, 1.6, 16, 33, 5);
        let mut cfg = ServiceConfig::new(16, 33);
        cfg.pending_cap = 256;
        let plan = FaultPlan::seeded(4, Dur::from_secs(40_000), 528, Dur::from_secs(80_000));
        let plain = run_with_faults(&tr, &cfg, &plan);
        let rec = MemRecorder::new();
        let traced = run_recorded(&tr, &cfg, &plan, &rec);
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.node_time, traced.node_time);
        assert!(!rec.is_empty(), "counters were emitted");
        assert!(
            rec.tracks()
                .iter()
                .any(|t| t.process == names::SCHED_SVC && t.thread.starts_with("tenant ")),
            "per-tenant tracks exist"
        );
    }

    #[test]
    fn workload_is_deterministic_and_heavy_tailed() {
        let a = service_workload(10_000, 100, 1.0, 16, 33, 42);
        let b = service_workload(10_000, 100, 1.0, 16, 33, 42);
        assert_eq!(a, b);
        let small = a.subs.iter().filter(|s| s.nodes() <= 4).count();
        let big = a.subs.iter().filter(|s| s.nodes() >= 128).count();
        assert!(small > 6_000, "most jobs are small: {small}");
        assert!(big > 0, "a fat tail of big jobs exists: {big}");
        assert!(a.subs.iter().all(|s| s.tenant < 100));
        // Arrivals are sorted and bursty (max gap >> mean gap).
        let gaps: Vec<f64> = a
            .subs
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 10.0 * mean,
            "heavy-tailed gaps: max {max} mean {mean}"
        );
    }
}
