//! Conservative window-synchronized parallel DES: the lane runtime.
//!
//! The machine is split into contiguous node blocks ("lanes", one per
//! group of mesh rows — [`LaneMap`]). Each lane owns an event calendar,
//! an executor ([`LaneTasks`]) and the futures of its node programs, so
//! within a lane the simulation is exactly the legacy engine. Lanes are
//! synchronized with the classic bounded-lag (CMB/YAWNS-style) rule:
//!
//! 1. `T` = minimum next-event time across all lanes,
//! 2. every lane processes its local events in `[T, T + L)` where `L`
//!    is the network's cross-lane lookahead
//!    ([`crate::machine::NetModel::lookahead`]) — a message sent at `t`
//!    can never arrive in another lane before `t + L`, so no event in
//!    the window can be invalidated by a peer lane,
//! 3. cross-lane messages buffered during the window are exchanged
//!    through a per-(destination, source) mailbox and scheduled into the
//!    destination calendars, and the next window begins.
//!
//! ## Determinism contract
//!
//! A sharded run is a pure function of (machine config, fault plan,
//! program, lane count) — thread scheduling cannot change results:
//! lanes only interact at window boundaries, each mailbox slot carries
//! messages from exactly one source lane in that lane's deterministic
//! send order, and every lane drains slots in source-lane order, so the
//! destination calendar's tie-breaking sequence numbers are assigned
//! identically on every run. Remote failure checks read a crash
//! schedule precomputed from the fault plan instead of shared mutable
//! state. The inline (single-thread) and threaded modes produce the
//! same answer; the host's core count picks one, and the unit test at
//! the bottom of this file forces both and compares them.
//!
//! Changing the lane *count* changes cross-lane message timing (see
//! below), so only final results of timing-insensitive programs are
//! lane-count-invariant, not per-event timestamps.
//!
//! ## Modelling concession
//!
//! Intra-lane messages keep the full link-occupancy contention model.
//! Cross-lane messages are timed analytically (sender overhead plus the
//! uncontended transfer time) and ignore link outages: boundary traffic
//! sees no channel contention. With row-block lanes and XY routing,
//! every route between same-lane nodes stays on same-lane channels, so
//! the concession applies exactly to the traffic that crosses a lane
//! boundary and to nothing else.

use crate::machine::MachineConfig;
use crate::partition::LaneMap;
use crate::sim::{Counters, Dispatched, Event, Msg, Node, RunReport, ShardState, SimCore};
use crate::topology::Topology;
use des::faults::{FaultKind, FaultPlan};
use des::time::{Dur, SimTime};
use des::{LaneTasks, TaskId};
use hpcc_trace::{NullRecorder, Recorder};
use std::cell::RefCell;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

#[derive(Clone, Copy, PartialEq)]
pub(crate) enum LaneMode {
    /// All lanes round-robin on the calling thread. Deterministic and
    /// barrier-free; the right choice on a single-CPU host where OS
    /// threads would only add context switches.
    Inline,
    /// One OS thread per lane, three barriers per window.
    Threads,
}

fn pick_mode() -> LaneMode {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 1 {
        LaneMode::Threads
    } else {
        LaneMode::Inline
    }
}

/// First crash instant per node (`SimTime::MAX` = never). Crashes are
/// fail-stop and scripted, so the schedule is known before the run
/// starts — this is what lets a lane answer "is that remote node dead?"
/// without asking the lane that owns it.
fn crash_times(n: usize, plan: &FaultPlan) -> std::sync::Arc<[SimTime]> {
    let mut t = vec![SimTime::MAX; n];
    for e in plan.events() {
        if let FaultKind::NodeCrash { node } = e.kind {
            t[node] = t[node].min(e.at);
        }
    }
    t.into()
}

/// Lane owning each directed channel: the lane of the channel's source
/// node. Only built when the plan contains link faults.
fn link_owners(topo: &Topology, map: &LaneMap) -> Vec<usize> {
    let mut owner = vec![0usize; topo.links()];
    let mut nbrs = Vec::new();
    for node in 0..topo.nodes() {
        nbrs.clear();
        topo.neighbours(node, &mut nbrs);
        for &(_, link) in &nbrs {
            owner[link] = map.lane_of(node);
        }
    }
    owner
}

/// One mailbox slot: messages bound for a single destination lane from
/// a single source lane, each tagged with the receiving node's rank.
type MailSlot = Mutex<Vec<(usize, Msg)>>;

/// Cross-lane coordination state. Everything here is only touched at
/// window boundaries; the hot path never takes a lock.
struct Shared {
    /// `mail[dst][src]`: messages from lane `src` to lane `dst`, in
    /// `src`'s send order. Sharded mutexes — no two writers contend on
    /// a slot, and readers drain after the barrier.
    mail: Vec<Vec<MailSlot>>,
    /// Each lane's next local event time (`u64::MAX` = empty calendar).
    next: Vec<AtomicU64>,
    /// Each lane's count of unfinished node programs.
    live: Vec<AtomicUsize>,
    /// Some lane has applied a hardware fault (orphaned survivors are
    /// then casualties, not deadlocks).
    faulted: AtomicBool,
    /// Synchronization rounds (windows) executed — a diagnostic for the
    /// window/event ratio, surfaced through [`LaneStats`].
    rounds: AtomicU64,
    /// Cross-lane messages exchanged through the mailboxes — boundary
    /// traffic volume, surfaced through [`LaneStats`].
    mail_msgs: AtomicU64,
    /// Blocked-node diagnostics, filled only on the deadlock path.
    stuck: Mutex<Vec<String>>,
}

impl Shared {
    fn new(lanes: usize) -> Shared {
        Shared {
            mail: (0..lanes)
                .map(|_| (0..lanes).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            next: (0..lanes).map(|_| AtomicU64::new(u64::MAX)).collect(),
            live: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
            faulted: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            mail_msgs: AtomicU64::new(0),
            stuck: Mutex::new(Vec::new()),
        }
    }
}

/// What every lane decides (identically) at a window boundary.
enum Decision {
    /// Process local events strictly below this horizon.
    Run(SimTime),
    /// Calendars are empty but programs survive a faulted run: abort
    /// them as orphans and finish.
    Orphans,
    Done,
    Deadlock,
}

fn decide(shared: &Shared, lookahead: Dur) -> Decision {
    let t = shared
        .next
        .iter()
        .map(|a| a.load(Ordering::SeqCst))
        .min()
        .expect("at least one lane");
    if t != u64::MAX {
        return Decision::Run(SimTime(t) + lookahead);
    }
    let live: usize = shared.live.iter().map(|a| a.load(Ordering::SeqCst)).sum();
    if live == 0 {
        Decision::Done
    } else if shared.faulted.load(Ordering::SeqCst) {
        Decision::Orphans
    } else {
        Decision::Deadlock
    }
}

pub(crate) fn deadlock_panic(machine: &str, live: usize, stuck: &[String]) -> ! {
    panic!(
        "deadlock on {machine}: {live} tasks parked, no events\n{}",
        stuck.join("\n")
    )
}

/// One lane: a [`SimCore`], its executor, and the task handles of the
/// node programs it owns. The single-queue engine ([`Machine::run`]) is
/// one unsharded lane over every node.
///
/// [`Machine::run`]: crate::sim::Machine::run
pub(crate) struct Lane<T> {
    lane: usize,
    range: Range<usize>,
    pub(crate) core: Rc<RefCell<SimCore>>,
    pub(crate) tasks: LaneTasks,
    task_of: Vec<TaskId>,
    results: Rc<RefCell<Vec<Option<T>>>>,
}

/// Build a lane up to its first quiescent point: core, this lane's share
/// of the fault plan, one task per owned node, boot-time crashes applied.
/// `sharding` is `(map, crash schedule, lane index)`; `None` builds the
/// unsharded lane that owns every node and every fault.
pub(crate) fn setup<T, F, Fut>(
    cfg: Rc<MachineConfig>,
    rec: Rc<dyn Recorder>,
    sharding: Option<(&LaneMap, &std::sync::Arc<[SimTime]>, usize)>,
    link_owner: &[usize],
    plan: &FaultPlan,
    program: &F,
) -> Lane<T>
where
    T: 'static,
    F: Fn(Node) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let n = cfg.nodes();
    let nlinks = cfg.topology.links();
    let (lane, range) = match sharding {
        Some((map, _, lane)) => (lane, map.range(lane)),
        None => (0, 0..n),
    };
    // Steady state holds at most a wake or delivery per owned node;
    // pre-size so the calendar never regrows mid-run.
    let mut core = SimCore::with_queue_capacity(cfg, rec, 2 * range.len());
    core.shard = sharding.map(|(map, crash, lane)| ShardState {
        lane,
        map: map.clone(),
        crash_time: std::sync::Arc::clone(crash),
        outbox: Vec::new(),
    });

    // This lane's share of the fault plan: node faults by owner lane,
    // link faults by the channel's source-node lane. Faults at t=0 take
    // effect before any program instruction runs (the machine was
    // already broken at boot); later ones become calendar events racing
    // the programs.
    let mut boot = Vec::new();
    for e in plan.events() {
        let mine = match e.kind {
            FaultKind::NodeCrash { node } | FaultKind::NodeSlow { node, .. } => {
                assert!(node < n, "fault plan targets node {node} of {n}");
                range.contains(&node)
            }
            FaultKind::LinkDown { link, .. } => {
                assert!(link < nlinks, "fault plan targets link {link} of {nlinks}");
                sharding.is_none() || link_owner[link] == lane
            }
        };
        if !mine {
            continue;
        }
        if e.at == SimTime::ZERO {
            boot.extend(core.apply_fault(e.kind));
        } else {
            core.q.schedule(e.at, Event::Fault(e.kind));
        }
    }

    let core = Rc::new(RefCell::new(core));
    let mut tasks = LaneTasks::with_capacity(range.len());
    let results: Rc<RefCell<Vec<Option<T>>>> =
        Rc::new(RefCell::new((0..range.len()).map(|_| None).collect()));
    let mut task_of = Vec::with_capacity(range.len());
    for rank in range.clone() {
        let node = Node::new_in(Rc::clone(&core), rank, n);
        let fut = program(node);
        let sink = Rc::clone(&results);
        let slot = rank - range.start;
        task_of.push(tasks.spawn(async move {
            let out = fut.await;
            sink.borrow_mut()[slot] = Some(out);
        }));
    }
    for node in boot {
        tasks.abort(task_of[node - range.start]);
    }
    tasks.run_ready();
    Lane {
        lane,
        range,
        core,
        tasks,
        task_of,
        results,
    }
}

impl<T> Lane<T> {
    /// Pop the next calendar event — strictly below `horizon`, if one is
    /// given — apply it, and queue or abort the task it names. False
    /// when there is no such event. Callers run the executor after every
    /// event: see [`SimCore::dispatch`] for why that order matters.
    pub(crate) fn dispatch_one(&mut self, horizon: Option<SimTime>) -> bool {
        let step = {
            let mut core = self.core.borrow_mut();
            let ev = match horizon {
                Some(h) => core.q.pop_before(h),
                None => core.q.pop(),
            };
            ev.map(|(_, ev)| core.dispatch(ev))
        };
        match step {
            Some(Dispatched::Resume(rank)) => {
                self.tasks.wake(self.task_of[rank - self.range.start]);
            }
            Some(Dispatched::Abort(rank)) => {
                self.tasks.abort(self.task_of[rank - self.range.start]);
            }
            Some(Dispatched::Nothing) => {}
            None => return false,
        }
        true
    }

    /// Process every local event strictly below `horizon`, running the
    /// executor after each. Completion is checked *before* each pop:
    /// once every program on this lane has finished, leftover calendar
    /// entries (pending faults, stale timers) are abandoned.
    fn process_window(&mut self, horizon: SimTime) {
        while !self.tasks.all_done() && self.dispatch_one(Some(horizon)) {
            self.tasks.run_ready();
        }
    }

    /// Hand this window's cross-lane sends to their destination slots.
    fn flush(&mut self, shared: &Shared) {
        let mut core = self.core.borrow_mut();
        let sh = core.shard.as_mut().expect("lane core is sharded");
        if sh.outbox.is_empty() {
            return;
        }
        shared
            .mail_msgs
            .fetch_add(sh.outbox.len() as u64, Ordering::Relaxed);
        for (dst, msg) in sh.outbox.drain(..) {
            let dlane = sh.map.lane_of(dst);
            shared.mail[dlane][self.lane]
                .lock()
                .expect("mail slot")
                .push((dst, msg));
        }
    }

    /// Schedule everything other lanes sent us; arrivals land at or past
    /// the horizon by the lookahead argument, so the calendar never sees
    /// a past timestamp.
    fn drain(&mut self, shared: &Shared) {
        let mut core = self.core.borrow_mut();
        for src in 0..shared.mail.len() {
            let mut slot = shared.mail[self.lane][src].lock().expect("mail slot");
            for (dst, msg) in slot.drain(..) {
                let at = msg.arrived_at;
                core.q.schedule(at, Event::Deliver { dst, msg });
            }
        }
    }

    fn publish(&self, shared: &Shared) {
        let core = self.core.borrow();
        // A finished lane reports an empty calendar even if events are
        // still queued — the legacy engine stops dispatching the moment
        // its last task completes, and the abandoned events must not
        // keep dragging the global horizon (or the elapsed clock)
        // forward.
        let next = if self.tasks.all_done() {
            u64::MAX
        } else {
            core.q.peek_time().map_or(u64::MAX, |t| t.0)
        };
        shared.next[self.lane].store(next, Ordering::SeqCst);
        shared.live[self.lane].store(self.tasks.live(), Ordering::SeqCst);
        if core.counters.faults.any() {
            shared.faulted.store(true, Ordering::SeqCst);
        }
    }

    /// Abort every unfinished program on this lane (fault aftermath).
    pub(crate) fn abort_orphans(&mut self) {
        let mut orphans = 0;
        for &t in &self.task_of {
            if self.tasks.abort(t) {
                orphans += 1;
            }
        }
        self.core.borrow_mut().counters.faults.orphaned_tasks += orphans;
    }
}

/// Per-lane scalar outcome, merged by [`assemble`].
pub(crate) struct LaneOut<T> {
    range: Range<usize>,
    results: Vec<Option<T>>,
    counters: Counters,
    now: SimTime,
    events: u64,
}

pub(crate) fn finish<T>(lane: Lane<T>) -> LaneOut<T> {
    // Drop the executor first: completed/aborted futures are gone, so
    // the lane core and result sink are uniquely held again.
    drop(lane.tasks);
    let core = Rc::try_unwrap(lane.core)
        .unwrap_or_else(|_| unreachable!("lane tasks done"))
        .into_inner();
    let results = Rc::try_unwrap(lane.results)
        .unwrap_or_else(|_| unreachable!("lane tasks done"))
        .into_inner();
    LaneOut {
        range: lane.range,
        results,
        counters: core.counters.clone(),
        now: core.q.now(),
        events: core.q.events_processed(),
    }
}

pub(crate) fn assemble<T>(
    cfg: &MachineConfig,
    outs: Vec<LaneOut<T>>,
) -> (Vec<Option<T>>, RunReport) {
    let n = cfg.nodes();
    let nlinks = cfg.topology.links();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut counters = Counters::default();
    let mut end = SimTime::ZERO;
    let mut events = 0u64;
    for out in outs {
        let start = out.range.start;
        for (i, r) in out.results.into_iter().enumerate() {
            results[start + i] = r;
        }
        counters.absorb(&out.counters);
        end = end.max(out.now);
        events += out.events;
    }
    let elapsed = end - SimTime::ZERO;
    let denom = elapsed.as_secs_f64().max(1e-30);
    let report = RunReport {
        machine: cfg.name.clone(),
        nodes: n,
        elapsed,
        messages: counters.messages,
        bytes: counters.bytes,
        flops: counters.flops,
        events,
        compute_fraction: counters.compute_time.as_secs_f64() / (n as f64 * denom),
        link_utilization: counters.link_busy.as_secs_f64() / (nlinks.max(1) as f64 * denom),
        unexpected_messages: counters.unexpected,
        faults: counters.faults,
    };
    (results, report)
}

/// Lane-runtime diagnostics for one sharded run: window count, event
/// throughput per lane, and cross-lane mailbox traffic. Returned by
/// [`crate::sim::Machine::run_sharded_stats`] and exportable as
/// [`hpcc_trace::names::DES_LANES`] track counters via
/// [`LaneStats::emit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Lanes the machine was split into (1 = legacy single-queue run).
    pub lanes: usize,
    /// Synchronization windows executed (0 on the legacy engine).
    pub rounds: u64,
    /// Events processed, summed over lanes.
    pub events: u64,
    /// Messages exchanged through the cross-lane mailboxes.
    pub mail_msgs: u64,
    /// Events processed by each lane, in lane order.
    pub per_lane_events: Vec<u64>,
}

impl LaneStats {
    /// Mean events per synchronization window — the conservative-parallel
    /// efficiency figure (higher = less barrier overhead per event).
    pub fn events_per_round(&self) -> f64 {
        self.events as f64 / self.rounds.max(1) as f64
    }

    /// Record the lane diagnostics as counters at `at_ns`: an aggregate
    /// `engine` track (rounds, events, mailbox traffic, events/round)
    /// plus one track per lane, all under
    /// [`hpcc_trace::names::DES_LANES`].
    pub fn emit(&self, rec: &dyn hpcc_trace::Recorder, at_ns: u64) {
        if !rec.is_enabled() {
            return;
        }
        let agg = rec.track(hpcc_trace::names::DES_LANES, "engine");
        rec.counter(agg, "lanes", at_ns, self.lanes as f64);
        rec.counter(agg, "rounds", at_ns, self.rounds as f64);
        rec.counter(agg, "events", at_ns, self.events as f64);
        rec.counter(agg, "mail_msgs", at_ns, self.mail_msgs as f64);
        rec.counter(agg, "events_per_round", at_ns, self.events_per_round());
        for (lane, &ev) in self.per_lane_events.iter().enumerate() {
            let t = rec.track(hpcc_trace::names::DES_LANES, &format!("lane {lane}"));
            rec.counter(t, "events", at_ns, ev as f64);
        }
    }
}

/// Entry point used by [`crate::sim::Machine`]: run `program` on every
/// node across `lanes` event-engine shards, on threads when the host has
/// more than one CPU and inline otherwise.
pub(crate) fn run<T, F, Fut>(
    cfg: &MachineConfig,
    lanes: usize,
    plan: &FaultPlan,
    program: &F,
) -> (Vec<Option<T>>, RunReport, LaneStats)
where
    T: Send + 'static,
    F: Fn(Node) -> Fut + Sync,
    Fut: Future<Output = T> + 'static,
{
    run_in(pick_mode(), cfg, lanes, plan, program)
}

/// [`run`] with the lane mode chosen by the caller. A single lane has
/// nobody to synchronize with and always runs inline.
pub(crate) fn run_in<T, F, Fut>(
    mode: LaneMode,
    cfg: &MachineConfig,
    lanes: usize,
    plan: &FaultPlan,
    program: &F,
) -> (Vec<Option<T>>, RunReport, LaneStats)
where
    T: Send + 'static,
    F: Fn(Node) -> Fut + Sync,
    Fut: Future<Output = T> + 'static,
{
    let map = LaneMap::new(&cfg.topology, lanes);
    let lanes = map.lanes();
    let lookahead = cfg.net.lookahead();
    let crash = crash_times(cfg.nodes(), plan);
    let link_owner = if plan
        .events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
    {
        link_owners(&cfg.topology, &map)
    } else {
        Vec::new()
    };
    let shared = Shared::new(lanes);
    let mode = if lanes > 1 { mode } else { LaneMode::Inline };
    let outs = match mode {
        LaneMode::Inline => run_inline(
            cfg,
            &map,
            &crash,
            &link_owner,
            plan,
            lanes,
            lookahead,
            &shared,
            program,
        ),
        LaneMode::Threads => run_threads(
            cfg,
            &map,
            &crash,
            &link_owner,
            plan,
            lanes,
            lookahead,
            &shared,
            program,
        ),
    };
    let stats = LaneStats {
        lanes,
        rounds: shared.rounds.load(Ordering::Relaxed),
        events: outs.iter().map(|o| o.events).sum(),
        mail_msgs: shared.mail_msgs.load(Ordering::Relaxed),
        per_lane_events: outs.iter().map(|o| o.events).collect(),
    };
    let (results, report) = assemble(cfg, outs);
    (results, report, stats)
}

#[allow(clippy::too_many_arguments)]
fn run_inline<T, F, Fut>(
    cfg: &MachineConfig,
    map: &LaneMap,
    crash: &std::sync::Arc<[SimTime]>,
    link_owner: &[usize],
    plan: &FaultPlan,
    lanes: usize,
    lookahead: Dur,
    shared: &Shared,
    program: &F,
) -> Vec<LaneOut<T>>
where
    T: 'static,
    F: Fn(Node) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let shared_cfg = Rc::new(cfg.clone());
    let mut ls: Vec<Lane<T>> = (0..lanes)
        .map(|l| {
            let (cfg, rec) = (Rc::clone(&shared_cfg), Rc::new(NullRecorder));
            setup(cfg, rec, Some((map, crash, l)), link_owner, plan, program)
        })
        .collect();
    for l in &mut ls {
        l.flush(shared);
    }
    for l in &mut ls {
        l.drain(shared);
        l.publish(shared);
    }
    loop {
        match decide(shared, lookahead) {
            Decision::Done => break,
            Decision::Deadlock => {
                let stuck: Vec<String> = ls
                    .iter()
                    .flat_map(|l| l.core.borrow().stuck_report())
                    .collect();
                let live = ls.iter().map(|l| l.tasks.live()).sum();
                deadlock_panic(&cfg.name, live, &stuck);
            }
            Decision::Orphans => {
                for l in &mut ls {
                    l.abort_orphans();
                    l.publish(shared);
                }
            }
            Decision::Run(horizon) => {
                shared.rounds.fetch_add(1, Ordering::Relaxed);
                for l in &mut ls {
                    l.process_window(horizon);
                    l.flush(shared);
                }
                for l in &mut ls {
                    l.drain(shared);
                    l.publish(shared);
                }
            }
        }
    }
    ls.into_iter().map(finish).collect()
}

#[allow(clippy::too_many_arguments)]
fn run_threads<T, F, Fut>(
    cfg: &MachineConfig,
    map: &LaneMap,
    crash: &std::sync::Arc<[SimTime]>,
    link_owner: &[usize],
    plan: &FaultPlan,
    lanes: usize,
    lookahead: Dur,
    shared: &Shared,
    program: &F,
) -> Vec<LaneOut<T>>
where
    T: Send + 'static,
    F: Fn(Node) -> Fut + Sync,
    Fut: Future<Output = T> + 'static,
{
    let barrier = Barrier::new(lanes);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (barrier, shared, link_owner) = (&barrier, shared, link_owner);
                s.spawn(move || {
                    let (cfg_rc, rec) = (Rc::new(cfg.clone()), Rc::new(NullRecorder));
                    let sharding = Some((map, crash, lane));
                    let mut l: Lane<T> = setup(cfg_rc, rec, sharding, link_owner, plan, program);
                    // Round structure: work -> flush -> barrier ->
                    // drain + publish -> barrier -> decide. Writes to
                    // `shared` happen strictly between the two barriers,
                    // reads strictly after the second, so every lane
                    // decides on the same snapshot.
                    l.flush(shared);
                    barrier.wait();
                    l.drain(shared);
                    l.publish(shared);
                    barrier.wait();
                    loop {
                        match decide(shared, lookahead) {
                            Decision::Done => break,
                            Decision::Deadlock => {
                                shared
                                    .stuck
                                    .lock()
                                    .expect("stuck list")
                                    .extend(l.core.borrow().stuck_report());
                                let leader = barrier.wait().is_leader();
                                if leader {
                                    let stuck =
                                        std::mem::take(&mut *shared.stuck.lock().expect("stuck"));
                                    let live =
                                        shared.live.iter().map(|a| a.load(Ordering::SeqCst)).sum();
                                    deadlock_panic(&cfg.name, live, &stuck);
                                }
                                break;
                            }
                            Decision::Orphans => {
                                l.abort_orphans();
                                barrier.wait();
                                l.publish(shared);
                                barrier.wait();
                            }
                            Decision::Run(horizon) => {
                                if lane == 0 {
                                    shared.rounds.fetch_add(1, Ordering::Relaxed);
                                }
                                l.process_window(horizon);
                                l.flush(shared);
                                barrier.wait();
                                l.drain(shared);
                                l.publish(shared);
                                barrier.wait();
                            }
                        }
                    }
                    finish(l)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{presets, Kernel};
    use des::faults::MtbfModel;

    /// Ring exchange with a compute phase per step: every lane boundary
    /// carries mailbox traffic both ways (the rank wrap-around included).
    /// Receives carry a deadline, so a crashed neighbour costs a timeout
    /// instead of a deadlock.
    async fn ring_step(node: Node, n: usize) -> f64 {
        let me = node.rank();
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let mut acc = 0.0;
        for s in 0..3u64 {
            node.compute(Kernel::Stencil, 2.0e4).await;
            node.send_f64s(right, s, &[me as f64]).await;
            let wait = Dur::from_millis(40);
            acc += match node.recv_f64s_timeout(Some(left), Some(s), wait).await {
                Ok(v) => v[0],
                Err(_) => -1.0,
            };
        }
        acc
    }

    /// The determinism contract's last clause: inline and threaded lanes
    /// agree on results, report and lane diagnostics, fault-free and with
    /// nodes crashing mid-run. The host's core count never picks both, so
    /// nothing else in the suite compares them.
    #[test]
    fn inline_and_threaded_lanes_are_bit_identical() {
        let cfg = presets::delta(8, 4);
        let n = cfg.nodes();
        let program = |node| ring_step(node, n);
        // Crashes land inside the fault-free run's span: about one node
        // in five dies while its neighbours are still exchanging.
        let clean = FaultPlan::none();
        let span = run_in(LaneMode::Inline, &cfg, 2, &clean, &program)
            .1
            .elapsed;
        let crashes = FaultPlan::seeded(0xC0FFEE, &MtbfModel::node_crashes(span * 4), n, 0, span);
        assert!(!crashes.events().is_empty(), "crash plan is empty");
        for plan in [clean, crashes] {
            for lanes in [2usize, 4] {
                let inline = run_in(LaneMode::Inline, &cfg, lanes, &plan, &program);
                let threads = run_in(LaneMode::Threads, &cfg, lanes, &plan, &program);
                assert_eq!(inline.2.lanes, lanes);
                assert!(inline.2.mail_msgs > 0, "no cross-lane traffic");
                assert_eq!(inline.1.faults.node_crashes > 0, !plan.events().is_empty());
                assert_eq!(inline, threads, "lanes={lanes}");
            }
        }
    }
}
