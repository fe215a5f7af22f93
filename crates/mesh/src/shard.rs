//! Conservative window-synchronized parallel DES: the lane runtime.
//!
//! The machine is split into contiguous node blocks ("lanes", one per
//! group of mesh rows — [`LaneMap`]). Each lane owns an event calendar,
//! an executor ([`LaneTasks`]) and the futures of its node programs.
//! Lanes are synchronized with the classic bounded-lag (CMB/YAWNS-style)
//! rule:
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
//! ## One loop
//!
//! Every run of the mesh engine is `drive`: a worker owns a slice of
//! lanes and takes them through the round *work → flush → barrier →
//! drain + publish → barrier → decide* — two barrier waits per window.
//! The host's core count picks the worker count (`workers_for`): all
//! lanes on the calling thread on one CPU (a one-party barrier never
//! blocks); otherwise one thread per lane — the calling thread drives
//! lane 0 and a scoped thread each of the others, so a run never has
//! more runnable threads than lanes. The single-queue
//! engine ([`Machine::run`]) is the same loop over one *unsharded* lane
//! with no horizon: a lone lane has no peer to wait for, so its one
//! window is the whole run and it counts no synchronization round.
//!
//! ## The barrier protocol
//!
//! A window is tens of microseconds of events, so the workers meet at a
//! [`des::WindowBarrier`]: a waiter spins on a generation counter and
//! sleeps in the kernel only when its peer is more than a window or so
//! late — or at once when there are more workers than CPUs, or while
//! the peers keep coming late (somebody else is using the cores).
//! Nothing in a round but the barrier orders one worker against
//! another, and the barrier is enough: everything a worker wrote before
//! a wait happens-before everything any worker reads after that wait
//! returns. So
//!
//! * *flush* (push into the peers' mailbox slots) → first wait →
//!   *drain* (take this lane's slots): a drain sees every message of the
//!   window, and the slot locks are never contended;
//! * *publish* (store this lane's next event time and live count) →
//!   second wait → *decide* (read every lane's): all workers decide on
//!   the same snapshot;
//! * the next round's writes cannot overtake this round's reads: a
//!   flush comes after the second wait, which every drain of this round
//!   precedes, and a publish after the next first wait, which every
//!   decide of this round precedes.
//!
//! A worker that unwinds — a node program panicked — poisons the
//! barrier on its way out; its peers panic out of their wait instead of
//! waiting for ever, the scope joins, and the original panic is resumed
//! on the caller.
//!
//! The loop also holds the liveness rule: the run is over the moment no
//! program is live, whatever is left on the calendars (pending faults,
//! stale timers); until then every lane keeps dispatching, so a fault
//! owned by a lane whose own programs are done still strikes.
//!
//! [`Machine::run`]: crate::sim::Machine::run
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
//! state. The worker count cannot change the answer either: the unit
//! tests at the bottom of this file force one worker and one per lane
//! and compare them.
//!
//! Changing the lane *count* changes cross-lane message timing (see
//! below), so only final results of timing-insensitive programs are
//! lane-count-invariant, not per-event timestamps.
//!
//! ## Modelling concession
//!
//! Each lane's fabric (`fabric.rs`) times a message between two of its
//! nodes with the full link-occupancy model. A message to another lane
//! is timed as an idle fabric would time it, with no channel contention
//! and no link outage; alone on the machine, it arrives as it would at
//! one lane. Fault-free, a route between two nodes of a lane uses only
//! channels that lane owns ([`LaneMap`]), so the concession applies
//! exactly to the traffic that crosses a lane boundary. Under link
//! faults it does not: a same-lane detour may cross another lane's
//! channels, whose outages this lane does not see and whose reservations
//! it does not share. Hence every lane's fabric keeps every channel.

use crate::machine::MachineConfig;
use crate::partition::LaneMap;
use crate::sim::{Counters, Dispatched, Event, Msg, Node, RunReport, ShardState, SimCore};
use crate::topology::Topology;
use des::faults::{FaultKind, FaultPlan};
use des::time::{Dur, SimTime};
use des::{LaneTasks, TaskId, WindowBarrier};
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};
use std::cell::RefCell;
use std::future::Future;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Workers for `lanes` lanes: one thread per lane when the host has more
/// than one CPU, everything on the calling thread otherwise (OS threads
/// would only add context switches there). The core count is
/// [`des::host_cores`], read once per process.
fn workers_for(lanes: usize) -> usize {
    if des::host_cores() > 1 {
        lanes
    } else {
        1
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
    /// Blocked-node diagnostics by lane, filled only on the deadlock path.
    stuck: Mutex<Vec<(usize, Vec<String>)>>,
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

    /// Unfinished node programs, machine-wide, at the last publish.
    fn live(&self) -> usize {
        self.live.iter().map(|a| a.load(Ordering::SeqCst)).sum()
    }
}

/// What every worker decides (identically) at a window boundary.
enum Decision {
    /// Process local events strictly below this horizon (`None`: the
    /// lone unsharded lane, which runs to completion).
    Run(Option<SimTime>),
    /// Calendars are empty but programs survive a faulted run: abort
    /// them as orphans and finish.
    Orphans,
    Done,
    Deadlock,
}

fn decide(shared: &Shared, lookahead: Option<Dur>) -> Decision {
    if shared.live() == 0 {
        return Decision::Done;
    }
    let t = shared
        .next
        .iter()
        .map(|a| a.load(Ordering::SeqCst))
        .min()
        .expect("at least one lane");
    if t != u64::MAX {
        Decision::Run(lookahead.map(|l| SimTime(t) + l))
    } else if shared.faulted.load(Ordering::SeqCst) {
        Decision::Orphans
    } else {
        Decision::Deadlock
    }
}

/// The one dispatch loop of the mesh engine. A worker takes its lanes
/// through the round *work → flush → barrier → drain + publish → barrier
/// → decide*; the lanes arrive from [`setup`] at their first quiescent
/// point, which is the first round's work. Mailboxes are written before
/// the first wait and read after it, `next` / `live` / `faulted` written
/// between the two and read after the second, so every worker decides on
/// the same snapshot (the module doc has the ordering argument).
///
/// Liveness rule: the run is over the moment no program is live,
/// whatever is left on the calendars; until then a lane dispatches below
/// the horizon while it, or any peer at the last publish, has a live
/// program — a fault owned by a lane whose own programs are done still
/// strikes, as it would on one calendar.
fn drive<T>(ls: &mut [Lane<T>], shared: &Shared, barrier: &WindowBarrier, lookahead: Option<Dur>) {
    loop {
        for l in ls.iter_mut() {
            l.flush(shared);
        }
        barrier.wait();
        for l in ls.iter_mut() {
            l.drain(shared);
            l.publish(shared);
        }
        barrier.wait();
        match decide(shared, lookahead) {
            Decision::Done => return,
            Decision::Deadlock => {
                for l in ls.iter() {
                    let report = (l.lane, l.core.borrow().stuck_report());
                    shared.stuck.lock().expect("stuck list").push(report);
                }
                if barrier.wait() {
                    // Lanes own ascending rank blocks: lane order is rank
                    // order, whichever worker got to the list first.
                    let mut stuck = std::mem::take(&mut *shared.stuck.lock().expect("stuck list"));
                    stuck.sort_by_key(|&(lane, _)| lane);
                    let stuck: Vec<String> = stuck.into_iter().flat_map(|(_, s)| s).collect();
                    panic!(
                        "deadlock on {}: {} tasks parked, no events\n{}",
                        ls[0].core.borrow().cfg.name,
                        shared.live(),
                        stuck.join("\n")
                    );
                }
                return;
            }
            // Graceful degradation: survivors blocked forever on dead
            // peers are casualties of the fault, not a program bug.
            Decision::Orphans => ls.iter_mut().for_each(Lane::abort_orphans),
            Decision::Run(horizon) => {
                // A round is a synchronization; the lone lane has none.
                if horizon.is_some() && ls[0].lane == 0 {
                    shared.rounds.fetch_add(1, Ordering::Relaxed);
                }
                let live = shared.live();
                for l in ls.iter_mut() {
                    let peers_live = live > l.tasks.live();
                    l.process_window(horizon, peers_live);
                }
            }
        }
    }
}

/// One lane: a [`SimCore`], its executor, and the task handles of the
/// node programs it owns. The single-queue engine ([`Machine::run`]) is
/// one unsharded lane over every node.
///
/// [`Machine::run`]: crate::sim::Machine::run
struct Lane<T> {
    lane: usize,
    range: Range<usize>,
    core: Rc<RefCell<SimCore>>,
    tasks: LaneTasks,
    task_of: Vec<TaskId>,
    results: Rc<RefCell<Vec<Option<T>>>>,
    /// The recorder's "des" track when tracing, and the dispatches made
    /// so far: executor/calendar depth is sampled onto it.
    des: Option<(Rc<dyn Recorder>, TrackId)>,
    dispatches: u64,
}

/// Build a lane up to its first quiescent point: core, this lane's share
/// of the fault plan, one task per owned node, boot-time crashes applied.
/// `sharding` is `(map, crash schedule, lane index)`; `None` builds the
/// unsharded lane that owns every node and every fault.
fn setup<T, F, Fut>(
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
    let des = rec
        .is_enabled()
        .then(|| (Rc::clone(&rec), rec.track(names::DES, "executor")));
    // Steady state holds at most a wake or delivery per owned node;
    // pre-size so the calendar never regrows mid-run.
    let mut core = SimCore::with_queue_capacity(cfg, rec, 2 * range.len());
    core.shard = sharding.map(|(map, crash, lane)| ShardState {
        lane,
        map: map.clone(),
        crash_time: std::sync::Arc::clone(crash),
        outbox: vec![Vec::new(); map.lanes()],
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
        des,
        dispatches: 0,
    }
}

/// Sample executor/event-queue depth every this many dispatches —
/// frequent enough to see backlog build-up, sparse enough not to
/// dominate the trace.
const SAMPLE_EVERY: u64 = 64;

impl<T> Lane<T> {
    /// Pop the next calendar event — strictly below `horizon`, if one is
    /// given — apply it, and queue or abort the task it names. False
    /// when there is no such event. Callers run the executor after every
    /// event: see [`SimCore::dispatch`] for why that order matters.
    fn dispatch_one(&mut self, horizon: Option<SimTime>) -> bool {
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

    /// Process local events below `horizon`, running the executor after
    /// each, while this lane or a peer has a live program (see [`drive`]).
    /// Checked *before* each pop, so the lone lane stops the moment its
    /// last program finishes.
    fn process_window(&mut self, horizon: Option<SimTime>, peers_live: bool) {
        while (peers_live || !self.tasks.all_done()) && self.dispatch_one(horizon) {
            if let Some((rec, track)) = &self.des {
                self.dispatches += 1;
                if self.dispatches.is_multiple_of(SAMPLE_EVERY) {
                    let (c, tasks) = (self.core.borrow(), &self.tasks);
                    let ts = c.q.now().nanos();
                    rec.counter(*track, "event_queue_depth", ts, c.q.len() as f64);
                    rec.counter(*track, "ready_tasks", ts, tasks.ready_len() as f64);
                    rec.counter(*track, "live_tasks", ts, tasks.live() as f64);
                    rec.counter(*track, "task_polls", ts, tasks.polls() as f64);
                }
            }
            self.tasks.run_ready();
        }
    }

    /// Hand this window's cross-lane sends to their destination slots,
    /// one lock per destination lane that has mail (the unsharded lane
    /// has none).
    fn flush(&mut self, shared: &Shared) {
        let mut core = self.core.borrow_mut();
        let Some(sh) = core.shard.as_mut() else {
            return;
        };
        for (dlane, out) in sh.outbox.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            shared
                .mail_msgs
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            shared.mail[dlane][self.lane]
                .lock()
                .expect("mail slot")
                .append(out);
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
        let next = core.q.peek_time().map_or(u64::MAX, |t| t.0);
        shared.next[self.lane].store(next, Ordering::SeqCst);
        shared.live[self.lane].store(self.tasks.live(), Ordering::SeqCst);
        if core.counters.faults.any() {
            shared.faulted.store(true, Ordering::SeqCst);
        }
    }

    /// Abort every unfinished program on this lane (fault aftermath).
    fn abort_orphans(&mut self) {
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
struct LaneOut<T> {
    range: Range<usize>,
    results: Vec<Option<T>>,
    counters: Counters,
    now: SimTime,
    events: u64,
}

fn finish<T>(lane: Lane<T>) -> LaneOut<T> {
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
        counters: Counters {
            link_busy: core.fabric.busy,
            ..core.counters
        },
        now: core.q.now(),
        events: core.q.events_processed(),
    }
}

/// Merge the lanes' outcomes into one machine-wide result, report and
/// lane diagnostics.
fn assemble<T>(
    cfg: &MachineConfig,
    shared: &Shared,
    outs: Vec<LaneOut<T>>,
) -> (Vec<Option<T>>, RunReport, LaneStats) {
    let stats = LaneStats {
        lanes: outs.len(),
        rounds: shared.rounds.load(Ordering::Relaxed),
        events: outs.iter().map(|o| o.events).sum(),
        mail_msgs: shared.mail_msgs.load(Ordering::Relaxed),
        per_lane_events: outs.iter().map(|o| o.events).collect(),
    };
    let n = cfg.nodes();
    let nlinks = cfg.topology.links();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut counters = Counters::default();
    let mut end = SimTime::ZERO;
    for out in outs {
        let start = out.range.start;
        for (i, r) in out.results.into_iter().enumerate() {
            results[start + i] = r;
        }
        counters.absorb(&out.counters);
        end = end.max(out.now);
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
        events: stats.events,
        compute_fraction: counters.compute_time.as_secs_f64() / (n as f64 * denom),
        link_utilization: counters.link_busy.as_secs_f64() / (nlinks.max(1) as f64 * denom),
        unexpected_messages: counters.unexpected,
        faults: counters.faults,
    };
    (results, report, stats)
}

/// Lane-runtime diagnostics for one run: window count, event
/// throughput per lane, and cross-lane mailbox traffic. Returned by
/// [`crate::sim::Machine::run_sharded_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Lanes the machine was split into (1 = the single-queue engine).
    pub lanes: usize,
    /// Synchronization windows executed (0 at one unsharded lane: its
    /// one window is the whole run and synchronizes with nobody).
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
}

/// The single-queue engine: one unsharded lane that owns every node and
/// every fault, driven without a horizon on the calling thread.
pub(crate) fn run_lone<T, F, Fut>(
    cfg: &Rc<MachineConfig>,
    rec: Rc<dyn Recorder>,
    plan: &FaultPlan,
    program: &F,
) -> (Vec<Option<T>>, RunReport, LaneStats)
where
    T: 'static,
    F: Fn(Node) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let shared = Shared::new(1);
    let mut lane = [setup(Rc::clone(cfg), rec, None, &[], plan, program)];
    drive(&mut lane, &shared, &WindowBarrier::new(1), None);
    assemble(cfg, &shared, lane.into_iter().map(finish).collect())
}

/// Run `program` on every node across `lanes` event-engine shards, with
/// the worker count the host's core count picks.
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
    run_in(workers_for(lanes), cfg, lanes, plan, program)
}

/// [`run`] with the worker count chosen by the caller: 1 (the calling
/// thread drives every lane) or `lanes` (the calling thread drives lane
/// 0, a scoped thread each of the others — a run never has more runnable
/// threads than lanes).
fn run_in<T, F, Fut>(
    workers: usize,
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
    let lookahead = Some(cfg.net.lookahead());
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
    let workers = workers.min(lanes);
    assert!(workers == 1 || workers == lanes, "{workers} workers");
    let barrier = WindowBarrier::new(workers);
    // A lane is built, driven and finished by one worker: its `Rc`s never
    // leave the thread.
    let work = |mine: Range<usize>| -> Vec<LaneOut<T>> {
        // A worker that unwinds (a node program panicked, a fault plan
        // named a node that is not there) will not reach the next wait.
        let _poison = barrier.poison_on_panic();
        let cfg = Rc::new(cfg.clone());
        let mut ls: Vec<Lane<T>> = mine
            .map(|l| {
                let (cfg, rec, sharding) =
                    (Rc::clone(&cfg), Rc::new(NullRecorder), (&map, &crash, l));
                setup(cfg, rec, Some(sharding), &link_owner, plan, program)
            })
            .collect();
        drive(&mut ls, &shared, &barrier, lookahead);
        ls.into_iter().map(finish).collect()
    };
    let outs = if workers == 1 {
        work(0..lanes)
    } else {
        let joined: Vec<_> = std::thread::scope(|s| {
            let work = &work;
            let spawned: Vec<_> = (1..lanes)
                .map(|l| s.spawn(move || work(l..l + 1)))
                .collect();
            let mine = catch_unwind(AssertUnwindSafe(|| work(0..1)));
            let theirs = spawned.into_iter().map(|h| h.join());
            std::iter::once(mine).chain(theirs).collect()
        });
        // One worker's panic becomes every worker's: resume the one that
        // is not the barrier's echo of it.
        let mut outs = Vec::with_capacity(lanes);
        let mut panic = None;
        for worker in joined {
            match worker {
                Ok(out) => outs.extend(out),
                Err(e) if panic.as_deref().is_none_or(WindowBarrier::is_peer_panic) => {
                    panic = Some(e)
                }
                Err(_) => {}
            }
        }
        if let Some(e) = panic {
            resume_unwind(e);
        }
        outs
    };
    assemble(cfg, &shared, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{presets, Kernel};
    use crate::sim::{FaultStats, Machine};
    use des::rng::Rng;

    /// Ring exchange with a compute phase per step: every lane boundary
    /// carries mailbox traffic both ways (the rank wrap-around included).
    /// Receives carry a deadline, so a crashed neighbour costs a timeout
    /// instead of a deadlock — except the closing hand-off from the last
    /// rank to rank 0, lanes away, which a dead sender strands for good.
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
        if me == n - 1 {
            node.send_f64s(0, 99, &[acc]).await;
        } else if me == 0 {
            acc += node.recv_f64s(Some(n - 1), Some(99)).await[0];
        }
        acc
    }

    /// The determinism contract's last clause: one worker and one worker
    /// per lane agree on results, report and lane diagnostics — fault-free,
    /// with nodes crashing mid-run, with lane-owned link outages, and with
    /// a crash that leaves a receiver in another lane to be aborted as an
    /// orphan. The host's core count only ever picks one worker count, so
    /// nothing else in the suite compares them.
    #[test]
    fn worker_counts_are_bit_identical() {
        let cfg = presets::delta(8, 4);
        let (n, links) = (cfg.nodes(), cfg.topology.links());
        let program = |node| ring_step(node, n);
        // Faults land inside the fault-free run's span: about one node in
        // five dies while its neighbours are still exchanging, and in
        // another plan a few links go down for a quarter of it.
        let clean = FaultPlan::none();
        let span = run_in(1, &cfg, 2, &clean, &program).1.elapsed;
        let mut rng = Rng::new(0xC0FFEE);
        let mut crashes = FaultPlan::none();
        for _ in 0..n / 5 {
            let at = SimTime::ZERO + span.mul_f64(rng.next_f64());
            let node = rng.below(n as u64) as usize;
            crashes.push(at, FaultKind::NodeCrash { node });
        }
        let mut outages = FaultPlan::none();
        for _ in 0..links / 8 {
            let at = SimTime::ZERO + span.mul_f64(rng.next_f64());
            let link = rng.below(links as u64) as usize;
            outages.push(
                at,
                FaultKind::LinkDown {
                    link,
                    until: at + span / 4,
                },
            );
        }
        let mut stranding = FaultPlan::none();
        stranding.push(
            SimTime::ZERO + span / 2,
            FaultKind::NodeCrash { node: n - 1 },
        );
        type Struck = fn(&FaultStats) -> bool;
        let plans: [(FaultPlan, Struck); 4] = [
            (clean, |f| !f.any()),
            (crashes, |f| f.node_crashes > 0),
            (outages, |f| f.link_faults > 0 && f.node_crashes == 0),
            (stranding, |f| f.node_crashes == 1 && f.orphaned_tasks == 1),
        ];
        for (i, (plan, struck)) in plans.iter().enumerate() {
            for lanes in [2usize, 3, 4] {
                let one = run_in(1, &cfg, lanes, plan, &program);
                assert_eq!(one.2.lanes, lanes);
                assert!(one.2.mail_msgs > 0, "no cross-lane traffic");
                assert!(struck(&one.1.faults), "plan {i}: {:?}", one.1.faults);
                let per_lane = run_in(lanes, &cfg, lanes, plan, &program);
                assert_eq!(one, per_lane, "plan {i}, lanes={lanes}");
            }
        }
    }

    /// The liveness rule: a fault owned by a lane whose own programs are
    /// done still strikes while a peer lane has a live program, exactly as
    /// on the single-queue engine. Here it turns rank 0's wait on node 7
    /// from a deadlock into an orphan.
    #[test]
    fn fault_in_a_finished_lane_still_strikes() {
        let m = Machine::new(presets::delta(4, 2));
        let mut plan = FaultPlan::none();
        plan.push(SimTime(1_000), FaultKind::NodeCrash { node: 7 });
        let program = |node: Node| async move {
            if node.rank() == 0 {
                node.recv(Some(7), None).await;
            }
            node.rank()
        };
        let (out, report) = m.run_with_faults(&plan, program);
        assert_eq!(out[0], None);
        assert_eq!(report.faults.node_crashes, 1);
        assert_eq!(report.faults.orphaned_tasks, 1);
        assert_eq!(report.elapsed, Dur::from_micros(1));
        for workers in [1, 2] {
            let (lane_out, lane_report, _) = run_in(workers, m.config(), 2, &plan, &program);
            assert_eq!(lane_out, out, "workers={workers}");
            assert_eq!(lane_report.faults, report.faults, "workers={workers}");
            assert_eq!(lane_report.elapsed, report.elapsed, "workers={workers}");
        }
    }

    /// The modelling concession costs a lone message nothing: timed as an
    /// idle fabric would time it, a send to another lane arrives when it
    /// would at one lane, in both switching modes.
    #[test]
    fn lone_cross_lane_message_arrives_as_at_one_lane() {
        for cfg in [presets::delta(8, 4), presets::delta_store_and_forward(8, 4)] {
            let m = Machine::new(cfg);
            // Rows 4..8: another lane than rank 0's at two and four lanes.
            for dst in [16, 22, 31] {
                let program = |node: Node| async move {
                    match node.rank() {
                        0 => node.send_virtual(dst, 1, 4096).await,
                        r if r == dst => return node.recv(Some(0), Some(1)).await.arrived_at,
                        _ => {}
                    }
                    SimTime::ZERO
                };
                let (one, _, _) = m.run_sharded_stats(1, &FaultPlan::none(), program);
                for lanes in [2, 4] {
                    let (out, _, stats) = m.run_sharded_stats(lanes, &FaultPlan::none(), program);
                    assert_eq!(
                        stats.mail_msgs,
                        1,
                        "{}: 0->{dst} crosses lanes",
                        m.config().name
                    );
                    assert_eq!(out, one, "{} at {lanes} lanes: 0->{dst}", m.config().name);
                }
            }
        }
    }

    /// A multi-lane deadlock names every parked node in rank order,
    /// whichever worker reaches the report first.
    #[test]
    fn deadlock_report_is_rank_ordered_at_any_worker_count() {
        let cfg = presets::delta(4, 2);
        let message = |workers: usize, lanes: usize| {
            let everyone_waits = |node: Node| async move {
                node.recv(None, None).await;
            };
            let run = || run_in(workers, &cfg, lanes, &FaultPlan::none(), &everyone_waits);
            let panic = std::panic::catch_unwind(run).expect_err("deadlock goes unnoticed");
            panic.downcast_ref::<String>().expect("message").clone()
        };
        let nodes: Vec<String> = (0..cfg.nodes())
            .map(|r| format!("  node {r}: recv(src=None, tag=None)"))
            .collect();
        let expected = format!(
            "deadlock on {}: 8 tasks parked, no events\n{}",
            cfg.name,
            nodes.join("\n")
        );
        for lanes in [2, 3] {
            assert_eq!(message(1, lanes), expected);
            for _ in 0..20 {
                assert_eq!(message(lanes, lanes), expected);
            }
        }
    }

    /// A node program that panics takes the run down with its own panic,
    /// whichever worker was driving it: the peers, who would otherwise
    /// wait at the window barrier for a lane that is gone, are released
    /// and their echo of the panic is not what the caller sees.
    #[test]
    fn node_program_panic_propagates_at_any_worker_count() {
        let cfg = presets::delta(4, 2);
        let n = cfg.nodes();
        // The culprit on the calling thread's lane, then on a spawned one.
        for culprit in [0, n - 1] {
            let program = move |node: Node| async move {
                if node.rank() == culprit {
                    node.delay(Dur::from_micros(50)).await;
                    panic!("node {culprit} gives up");
                }
                node.recv(Some(culprit), None).await;
            };
            for workers in [1, 2] {
                let run = || run_in(workers, &cfg, 2, &FaultPlan::none(), &program);
                let panic = std::panic::catch_unwind(run).expect_err("panic swallowed");
                assert_eq!(
                    panic.downcast_ref::<String>().map(String::as_str),
                    Some(format!("node {culprit} gives up").as_str()),
                    "workers={workers}"
                );
            }
        }
    }
}
