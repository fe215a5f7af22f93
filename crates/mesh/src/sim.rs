//! The multicomputer simulator: node programs as async tasks over a
//! discrete-event core.
//!
//! ## Network model
//!
//! Messages are timed with a *link-occupancy* approximation of wormhole
//! switching: a message from `src` to `dst` follows the topology's
//! deterministic route; it starts when every channel on the path is free
//! (and the wire latency has elapsed), then holds the whole path for
//! `per_hop·hops + bytes/bandwidth`. This captures the two behaviours that
//! matter at the scale of the paper's claims — pipelined transfers whose
//! time is dominated by `bytes/bw`, and head-of-line contention when
//! routes share channels — while staying fast enough to sweep 1000-node
//! machines.
//!
//! ## Compute model
//!
//! `Node::compute(kernel, flops)` advances virtual time by
//! `flops / (peak · eff(kernel))`. Programs may move real `f64` data
//! (validated numerics at small scale) or `Payload::Virtual` byte counts
//! (paper-scale runs where only timing matters).

use crate::machine::{Kernel, MachineConfig};
use crate::partition::LaneMap;
use crate::topology::LinkId;
use bytes::Bytes;
use des::backoff::{mix64, Backoff};
use des::faults::{FaultKind, FaultPlan};
use des::time::{Dur, SimTime};
use des::EventQueue;
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll};

/// Typed NX communication error. The pre-fault simulator turned every
/// one of these conditions into a panic; with fault injection they are
/// ordinary outcomes a node program recovers from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommError {
    /// The peer has suffered a permanent fail-stop crash.
    NodeFailed(usize),
    /// Every route between the two nodes crosses a failed channel.
    Unreachable { from: usize, to: usize },
    /// A `recv_timeout` deadline expired with no matching message.
    Timeout { after: Dur },
    /// The message carried the wrong payload kind for the requested
    /// conversion (a protocol error surfaced as data, not a crash).
    PayloadType { got_bytes: u64 },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CommError::NodeFailed(n) => write!(f, "node {n} has failed"),
            CommError::Unreachable { from, to } => {
                write!(f, "no live route from node {from} to node {to}")
            }
            CommError::Timeout { after } => write!(f, "receive timed out after {after}"),
            CommError::PayloadType { got_bytes } => {
                write!(f, "expected F64 payload, got {got_bytes} bytes")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// The doubles of a [`Payload::F64`]. Up to [`F64s::INLINE`] of them are
/// held in place — the halo values, pivots and partial sums that make up
/// most messages cost no heap allocation to send, clone or hand across a
/// lane boundary — and longer ones sit behind an `Arc`, so a clone is a
/// reference count whatever the length. Reads as a `[f64]`.
#[derive(Clone)]
pub struct F64s(Doubles);

#[derive(Clone)]
enum Doubles {
    Inline { len: u8, buf: [f64; F64s::INLINE] },
    Shared(Arc<[f64]>),
}

impl F64s {
    /// Longest slice held without a heap allocation. Two keeps [`Msg`]
    /// inside one cache line.
    pub const INLINE: usize = 2;
}

impl std::ops::Deref for F64s {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match &self.0 {
            Doubles::Inline { len, buf } => &buf[..usize::from(*len)],
            Doubles::Shared(xs) => xs,
        }
    }
}

impl PartialEq for F64s {
    fn eq(&self, other: &F64s) -> bool {
        **self == **other
    }
}

impl fmt::Debug for F64s {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl From<&[f64]> for F64s {
    fn from(xs: &[f64]) -> F64s {
        if xs.len() <= F64s::INLINE {
            let mut buf = [0.0; F64s::INLINE];
            buf[..xs.len()].copy_from_slice(xs);
            F64s(Doubles::Inline {
                len: xs.len() as u8,
                buf,
            })
        } else {
            F64s(Doubles::Shared(Arc::from(xs)))
        }
    }
}

/// Shares the allocation the caller already made, whatever its length.
impl From<Arc<[f64]>> for F64s {
    fn from(xs: Arc<[f64]>) -> F64s {
        F64s(Doubles::Shared(xs))
    }
}

/// Free for doubles that arrived behind an `Arc`; allocates for inline
/// ones.
impl From<F64s> for Arc<[f64]> {
    fn from(xs: F64s) -> Arc<[f64]> {
        match xs.0 {
            Doubles::Inline { .. } => Arc::from(&*xs),
            Doubles::Shared(xs) => xs,
        }
    }
}

/// Message contents: real doubles, raw bytes, or a timing-only byte count.
#[derive(Debug, Clone)]
pub enum Payload {
    F64(F64s),
    Bytes(Bytes),
    Virtual(u64),
}

impl Payload {
    pub fn from_f64s(xs: &[f64]) -> Payload {
        Payload::F64(xs.into())
    }

    /// On-the-wire size in bytes.
    pub fn len_bytes(&self) -> u64 {
        match self {
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::Bytes(b) => b.len() as u64,
            Payload::Virtual(n) => *n,
        }
    }

    /// Borrow the doubles, or report the mismatched payload kind.
    pub fn try_as_f64s(&self) -> Result<&[f64], CommError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(CommError::PayloadType {
                got_bytes: other.len_bytes(),
            }),
        }
    }

    /// Take the doubles, or report the mismatched payload kind.
    pub fn try_into_f64s(self) -> Result<F64s, CommError> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(CommError::PayloadType {
                got_bytes: other.len_bytes(),
            }),
        }
    }

    /// Borrow the doubles; panics on a non-F64 payload. Use
    /// [`Payload::try_as_f64s`] where the caller can recover.
    pub fn as_f64s(&self) -> &[f64] {
        match self.try_as_f64s() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Take the doubles; panics on a non-F64 payload. Use
    /// [`Payload::try_into_f64s`] where the caller can recover.
    pub fn into_f64s(self) -> F64s {
        match self.try_into_f64s() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Msg {
    pub src: usize,
    pub tag: u64,
    pub payload: Payload,
    pub sent_at: SimTime,
    pub arrived_at: SimTime,
}

pub(crate) enum Event {
    Deliver {
        dst: usize,
        msg: Msg,
    },
    /// Timer `slot` of `SimCore::timers`, armed by `rank`, fires.
    Wake {
        rank: usize,
        slot: u32,
    },
    /// A scripted or seeded hardware fault fires.
    Fault(FaultKind),
    /// A failed channel comes back up (scheduled by its `LinkDown`).
    LinkUp {
        link: LinkId,
    },
    /// A `recv_timeout` deadline expires.
    RecvDeadline {
        dst: usize,
        token: u64,
        after: Dur,
    },
}

type RecvResult = Result<Msg, CommError>;

struct PendingRecv {
    src: Option<usize>,
    tag: Option<u64>,
    /// The posting task's wait in `SimCore::recvs`.
    slot: u32,
    /// Identifies this posted recv to its `RecvDeadline`, if any.
    token: u64,
}

/// One single-shot wait of a node program on the simulator: a timer
/// (`T = ()`) or a posted receive (`T = RecvResult`).
enum Wait<T> {
    Free,
    /// Outstanding; the owning task is not suspended on it (yet).
    Armed,
    /// Outstanding and polled: completing it must resume the task.
    Parked,
    Done(T),
    /// The waiting future was dropped (its task aborted) before the wait
    /// completed; the completer frees the slot instead of filling it.
    Abandoned,
}

/// A free-listed table of [`Wait`]s, so that a send, recv, compute or
/// delay allocates nothing to suspend on. Every tenancy of a slot has
/// exactly one completer (a calendar entry or a `PendingRecv`)
/// and one [`WaitFuture`], and the slot is recycled only when both are
/// finished with it, so a stale completer can never resume a later
/// tenant and the table never outgrows the peak number of live waits.
struct Waits<T> {
    slots: Vec<Wait<T>>,
    free: Vec<u32>,
}

/// Shared by the [`SimCore`] (completer) and its [`WaitFuture`]s.
type WaitTable<T> = Rc<RefCell<Waits<T>>>;

impl<T> Waits<T> {
    fn table() -> WaitTable<T> {
        Rc::new(RefCell::new(Waits {
            slots: Vec::new(),
            free: Vec::new(),
        }))
    }

    /// A fresh wait and the future that awaits it.
    fn arm(table: &WaitTable<T>) -> WaitFuture<T> {
        let mut w = table.borrow_mut();
        let slot = match w.free.pop() {
            Some(slot) => {
                w.slots[slot as usize] = Wait::Armed;
                slot
            }
            None => {
                w.slots.push(Wait::Armed);
                (w.slots.len() - 1) as u32
            }
        };
        WaitFuture {
            table: Rc::clone(table),
            slot,
            taken: false,
        }
    }

    fn release(&mut self, slot: u32) {
        self.slots[slot as usize] = Wait::Free;
        self.free.push(slot);
    }

    /// Completer side. True when a task is parked on the wait and must
    /// be resumed.
    fn complete(&mut self, slot: u32, value: T) -> bool {
        match std::mem::replace(&mut self.slots[slot as usize], Wait::Done(value)) {
            Wait::Armed => false,
            Wait::Parked => true,
            Wait::Abandoned => {
                self.release(slot);
                false
            }
            Wait::Free | Wait::Done(_) => unreachable!("wait slot {slot} completed twice"),
        }
    }

    /// Waiter side: take the value if the wait is complete (recycling the
    /// slot), else park on it.
    fn poll(&mut self, slot: u32) -> Poll<T> {
        match std::mem::replace(&mut self.slots[slot as usize], Wait::Parked) {
            Wait::Done(value) => {
                self.release(slot);
                Poll::Ready(value)
            }
            Wait::Armed | Wait::Parked => Poll::Pending,
            Wait::Free | Wait::Abandoned => unreachable!("wait slot {slot} polled after release"),
        }
    }

    /// Waiter side: the future is dropped without having taken a value.
    fn abandon(&mut self, slot: u32) {
        match self.slots[slot as usize] {
            Wait::Armed | Wait::Parked => self.slots[slot as usize] = Wait::Abandoned,
            Wait::Done(_) => self.release(slot),
            Wait::Free | Wait::Abandoned => {}
        }
    }

    fn is_done(&self, slot: u32) -> bool {
        matches!(self.slots[slot as usize], Wait::Done(_))
    }
}

/// The task's end of a [`Wait`]. It registers no waker: the dispatch
/// loop resumes the owning rank when [`Waits::complete`] says a task is
/// parked ([`SimCore::dispatch`]).
struct WaitFuture<T> {
    table: WaitTable<T>,
    slot: u32,
    taken: bool,
}

impl<T> Future for WaitFuture<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let polled = self.table.borrow_mut().poll(self.slot);
        self.taken = polled.is_ready();
        polled
    }
}

impl<T> Drop for WaitFuture<T> {
    fn drop(&mut self) {
        if self.taken {
            return;
        }
        // Dropped mid-wait: the task was aborted (node crash, orphan
        // sweep). `Drop` must not panic, so should the table be borrowed
        // right now the slot is simply never reused.
        if let Ok(mut waits) = self.table.try_borrow_mut() {
            waits.abandon(self.slot);
        }
    }
}

/// What the executor owes the event [`SimCore::dispatch`] just applied.
pub(crate) enum Dispatched {
    Nothing,
    /// The program of this rank was parked on the event: run it.
    Resume(usize),
    /// This rank's node crashed: abort its program.
    Abort(usize),
}

impl Dispatched {
    fn resume(parked: bool, rank: usize) -> Dispatched {
        if parked {
            Dispatched::Resume(rank)
        } else {
            Dispatched::Nothing
        }
    }
}

fn matches(want_src: Option<usize>, want_tag: Option<u64>, src: usize, tag: u64) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub messages: u64,
    pub bytes: u64,
    pub flops: f64,
    /// Sum over nodes of time spent in `compute`.
    pub compute_time: Dur,
    /// Sum over channels of reserved time.
    pub link_busy: Dur,
    /// Messages delivered to a node with no matching recv posted yet.
    pub unexpected: u64,
    pub faults: FaultStats,
}

/// What the injected faults did to one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Nodes permanently crashed.
    pub node_crashes: u64,
    /// Transient slowdown episodes applied.
    pub slowdowns: u64,
    /// Link outage events applied (flaps included).
    pub link_faults: u64,
    /// Messages dropped: destination dead, or every route down.
    pub messages_lost: u64,
    /// `recv_timeout` deadlines that expired.
    pub timeouts: u64,
    /// Retries performed by `send_with_retry`.
    pub retries: u64,
    /// Survivor tasks aborted at shutdown because faults left them
    /// waiting on peers that can no longer answer.
    pub orphaned_tasks: u64,
}

impl FaultStats {
    /// Any hardware fault was actually applied this run.
    pub fn any(&self) -> bool {
        self.node_crashes + self.slowdowns + self.link_faults > 0
    }
}

impl Counters {
    /// Fold another lane's counters into this aggregate (the sharded
    /// runtime sums per-lane counters into one machine-wide report).
    pub(crate) fn absorb(&mut self, o: &Counters) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.flops += o.flops;
        self.compute_time += o.compute_time;
        self.link_busy += o.link_busy;
        self.unexpected += o.unexpected;
        self.faults.node_crashes += o.faults.node_crashes;
        self.faults.slowdowns += o.faults.slowdowns;
        self.faults.link_faults += o.faults.link_faults;
        self.faults.messages_lost += o.faults.messages_lost;
        self.faults.timeouts += o.faults.timeouts;
        self.faults.retries += o.faults.retries;
        self.faults.orphaned_tasks += o.faults.orphaned_tasks;
    }
}

/// Per-lane view of the machine held by the sharded runtime. A lane owns
/// a contiguous block of node ids ([`LaneMap`]); messages between two
/// nodes of the same lane go through the full link-occupancy model,
/// messages to another lane are timed analytically (contention-free) and
/// handed over through the lane mailbox at the end of the window.
pub(crate) struct ShardState {
    /// This core's lane index.
    pub(crate) lane: usize,
    pub(crate) map: LaneMap,
    /// First crash instant per node (`SimTime::MAX` = never), precomputed
    /// from the fault plan so remote-failure checks need no shared state.
    pub(crate) crash_time: Arc<[SimTime]>,
    /// Cross-lane messages generated this window, by destination lane,
    /// each in send order and tagged with the receiving rank. Each `Msg`
    /// already carries its arrival time.
    pub(crate) outbox: Vec<Vec<(usize, Msg)>>,
}

pub(crate) struct SimCore {
    pub(crate) q: EventQueue<Event>,
    /// Shared with the owning [`Machine`] and every [`Node`] handle —
    /// the config is immutable for the whole run, so nobody clones it.
    pub(crate) cfg: Rc<MachineConfig>,
    link_busy_until: Vec<SimTime>,
    mailbox: Vec<VecDeque<Msg>>,
    pending: Vec<VecDeque<PendingRecv>>,
    /// The blocking recv each rank is parked in, as `(src, tag)` — only
    /// ever formatted by [`SimCore::stuck_report`].
    blocked: Vec<Option<(Option<usize>, Option<u64>)>>,
    timers: WaitTable<()>,
    recvs: WaitTable<RecvResult>,
    route_buf: Vec<LinkId>,
    /// Reused buffer for formatted trace-span names.
    label: String,
    pub(crate) counters: Counters,
    /// Fail-stop state per node.
    failed: Vec<bool>,
    /// Active slowdown per node: `(factor, until)`.
    slow: Vec<(f64, SimTime)>,
    /// Channels currently out of service. `down_links` counts them so
    /// the fault-free fast path is a single integer compare.
    down: Vec<bool>,
    down_until: Vec<SimTime>,
    down_links: usize,
    next_token: u64,
    /// Trace sink. Pure observer: it is handed timestamps the simulator
    /// already computed and never feeds anything back, so a disabled
    /// recorder leaves the run bit-identical.
    rec: Rc<dyn Recorder>,
    /// Cached `rec.is_enabled()` — the fast path is one bool test.
    rec_on: bool,
    /// Trace track per node rank / per channel (empty when disabled).
    node_track: Vec<TrackId>,
    link_track: Vec<TrackId>,
    /// `Some` when this core is one lane of a sharded run; `None` for the
    /// lone lane of the single-queue engine, which owns every node and
    /// never takes a cross-lane branch.
    pub(crate) shard: Option<ShardState>,
}

impl SimCore {
    /// `cap` pre-sizes the calendar (its heap and each fixed-delay FIFO):
    /// a lane only ever holds events for its own node block, so sizing by
    /// the whole machine would waste a heap per lane.
    pub(crate) fn with_queue_capacity(
        cfg: Rc<MachineConfig>,
        rec: Rc<dyn Recorder>,
        cap: usize,
    ) -> SimCore {
        let n = cfg.nodes();
        let links = cfg.topology.links();
        let rec_on = rec.is_enabled();
        let node_track = if rec_on {
            (0..n)
                .map(|r| rec.track(names::MESH_NODES, &format!("node {r}")))
                .collect()
        } else {
            Vec::new()
        };
        let link_track = if rec_on {
            (0..links)
                .map(|l| rec.track(names::MESH_LINKS, &format!("chan {l}")))
                .collect()
        } else {
            Vec::new()
        };
        // A send, and a receive that found no buffered copy to pay for,
        // arm the node's one timer at exactly the configured overhead:
        // those wakes take the calendar's FIFO lanes instead of its heap.
        let q = EventQueue::with_capacity(cap)
            .with_fixed_delays(&[cfg.net.send_overhead, cfg.net.recv_overhead]);
        SimCore {
            q,
            cfg,
            link_busy_until: vec![SimTime::ZERO; links],
            mailbox: (0..n).map(|_| VecDeque::new()).collect(),
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            blocked: vec![None; n],
            timers: Waits::table(),
            recvs: Waits::table(),
            route_buf: Vec::new(),
            label: String::new(),
            counters: Counters::default(),
            failed: vec![false; n],
            slow: vec![(1.0, SimTime::ZERO); n],
            down: vec![false; links],
            down_until: vec![SimTime::ZERO; links],
            down_links: 0,
            next_token: 0,
            rec,
            rec_on,
            node_track,
            link_track,
            shard: None,
        }
    }

    /// The active compute-slowdown factor for `node` at virtual `now`.
    fn slow_factor(&self, node: usize) -> f64 {
        let (factor, until) = self.slow[node];
        if self.q.now() < until {
            factor
        } else {
            1.0
        }
    }

    /// Compute the arrival time of a message injected now and reserve the
    /// channels along its route. A message addressed to a dead node, or
    /// with every route crossing a failed channel, is dropped (fail-stop
    /// hardware gives the sender no synchronous acknowledgement; the
    /// returned error models the NX failure-detector oracle).
    fn inject(
        &mut self,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Payload,
    ) -> Result<(), CommError> {
        if let Some(sh) = &self.shard {
            let dlane = sh.map.lane_of(dst);
            if dlane != sh.lane {
                return self.inject_remote(dlane, src, dst, tag, payload);
            }
        }
        let now = self.q.now();
        let bytes = payload.len_bytes();
        self.counters.messages += 1;
        self.counters.bytes += bytes;

        if self.failed[dst] {
            self.counters.faults.messages_lost += 1;
            if self.rec_on {
                self.rec
                    .instant(self.node_track[src], "fault", "msg_lost", now.nanos());
            }
            return Err(CommError::NodeFailed(dst));
        }

        let arrival = if src == dst {
            // Local copy through memory; never touches the network.
            now + Dur::from_micros(1) + Dur::from_secs_f64(bytes as f64 / self.cfg.node.mem_bw)
        } else {
            let net = &self.cfg.net;
            let mut route = std::mem::take(&mut self.route_buf);
            if self.down_links == 0 {
                self.cfg.topology.route(src, dst, &mut route);
            } else if !self
                .cfg
                .topology
                .route_avoiding(src, dst, &self.down, &mut route)
            {
                self.route_buf = route;
                self.counters.faults.messages_lost += 1;
                if self.rec_on {
                    self.rec
                        .instant(self.node_track[src], "fault", "msg_lost", now.nanos());
                }
                return Err(CommError::Unreachable { from: src, to: dst });
            }
            // The first byte reaches the wire only after the sender's
            // software send path and the router setup have run.
            let injected = now + net.send_overhead + net.wire_latency;
            let serial = Dur::from_secs_f64(bytes as f64 / net.bandwidth);
            if self.rec_on {
                // One name for every channel-occupancy span of the message.
                self.label.clear();
                let _ = write!(self.label, "{src}->{dst}");
            }
            let end = match net.switching {
                crate::machine::Switching::Wormhole => {
                    // The whole path is reserved once and held for the
                    // pipelined transfer.
                    let mut start = injected;
                    for &l in &route {
                        if self.link_busy_until[l] > start {
                            start = self.link_busy_until[l];
                        }
                    }
                    let dur = net.per_hop * route.len() as u64 + serial;
                    let end = start + dur;
                    for &l in &route {
                        self.link_busy_until[l] = end;
                    }
                    self.counters.link_busy += dur * route.len() as u64;
                    if self.rec_on {
                        // Channel-occupancy spans: the whole path holds the
                        // reservation window the model just computed.
                        for &l in &route {
                            self.rec.span(
                                self.link_track[l],
                                "link",
                                &self.label,
                                start.nanos(),
                                end.nanos(),
                            );
                        }
                    }
                    end
                }
                crate::machine::Switching::StoreAndForward => {
                    // The message is fully buffered and retransmitted at
                    // every hop; each channel is held for its own copy.
                    let mut at = injected;
                    for &l in &route {
                        let start = at.max(self.link_busy_until[l]);
                        let end = start + net.per_hop + serial;
                        self.link_busy_until[l] = end;
                        self.counters.link_busy += net.per_hop + serial;
                        if self.rec_on {
                            self.rec.span(
                                self.link_track[l],
                                "link",
                                &self.label,
                                start.nanos(),
                                end.nanos(),
                            );
                        }
                        at = end;
                    }
                    at
                }
            };
            self.route_buf = route;
            end
        };

        let msg = Msg {
            src,
            tag,
            payload,
            sent_at: now,
            arrived_at: arrival,
        };
        self.q.schedule(arrival, Event::Deliver { dst, msg });
        Ok(())
    }

    /// Inject a message whose destination lives in another lane. The
    /// arrival time is computed analytically — sender overhead plus the
    /// uncontended transfer time — rather than through link reservation:
    /// cross-lane traffic sees no channel contention and ignores link
    /// outages, the modelling concession that buys lane independence
    /// (the send-side latency floor is exactly the engine's lookahead,
    /// so the arrival always lands at or past the window horizon). The
    /// message is buffered in the lane outbox; the window runtime moves
    /// it to the destination lane's calendar at the next horizon.
    fn inject_remote(
        &mut self,
        dlane: usize,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Payload,
    ) -> Result<(), CommError> {
        let now = self.q.now();
        let bytes = payload.len_bytes();
        self.counters.messages += 1;
        self.counters.bytes += bytes;
        let sh = self.shard.as_mut().expect("remote inject on sharded core");
        if sh.crash_time[dst] <= now {
            // Same fail-stop oracle as the local path: the destination is
            // already dead, the message is dropped on the floor.
            self.counters.faults.messages_lost += 1;
            return Err(CommError::NodeFailed(dst));
        }
        let net = &self.cfg.net;
        let hops = self.cfg.topology.hops(src, dst);
        let arrival = now + net.send_overhead + net.transfer_time(bytes, hops);
        sh.outbox[dlane].push((
            dst,
            Msg {
                src,
                tag,
                payload,
                sent_at: now,
                arrived_at: arrival,
            },
        ));
        Ok(())
    }

    /// Apply one calendar event and say what the executor must do next.
    ///
    /// Ordering invariant: the dispatch loop applies exactly one event
    /// between two `run_ready` passes, and a pass ends with the ready
    /// queue empty. The at most one task an event resumes is therefore
    /// queued alone, by id ([`des::LaneTasks::wake`]), and everything it then
    /// wakes queues behind it — the same global FIFO poll order as when
    /// each wait held a `Waker`, which is what makes a run a pure
    /// function of its inputs.
    pub(crate) fn dispatch(&mut self, ev: Event) -> Dispatched {
        match ev {
            Event::Deliver { dst, msg } => self.deliver(dst, msg),
            Event::Wake { rank, slot } => {
                Dispatched::resume(self.timers.borrow_mut().complete(slot, ()), rank)
            }
            Event::Fault(kind) => match self.apply_fault(kind) {
                Some(node) => Dispatched::Abort(node),
                None => Dispatched::Nothing,
            },
            Event::LinkUp { link } => {
                self.link_up(link);
                Dispatched::Nothing
            }
            Event::RecvDeadline { dst, token, after } => self.deadline(dst, token, after),
        }
    }

    /// Hand an arrived message to a posted recv or queue it. A message
    /// reaching a node that crashed while it was in flight is dropped.
    fn deliver(&mut self, dst: usize, msg: Msg) -> Dispatched {
        if self.failed[dst] {
            self.counters.faults.messages_lost += 1;
            return Dispatched::Nothing;
        }
        let pend = &mut self.pending[dst];
        if let Some(pos) = pend
            .iter()
            .position(|p| matches(p.src, p.tag, msg.src, msg.tag))
        {
            let p = pend.remove(pos).unwrap();
            self.blocked[dst] = None;
            Dispatched::resume(self.recvs.borrow_mut().complete(p.slot, Ok(msg)), dst)
        } else {
            self.counters.unexpected += 1;
            self.mailbox[dst].push_back(msg);
            Dispatched::Nothing
        }
    }

    /// A timer that resumes `rank` `delay` from now.
    fn timer(&mut self, rank: usize, delay: Dur) -> WaitFuture<()> {
        let wait = Waits::arm(&self.timers);
        let slot = wait.slot;
        self.q.schedule_in(delay, Event::Wake { rank, slot });
        wait
    }

    /// Post a receive for `rank`: the wait a matching delivery will
    /// complete, and the token a deadline can withdraw it by.
    fn post_recv(
        &mut self,
        rank: usize,
        src: Option<usize>,
        tag: Option<u64>,
    ) -> (WaitFuture<RecvResult>, u64) {
        let wait = Waits::arm(&self.recvs);
        let (slot, token) = (wait.slot, self.next_token);
        self.next_token += 1;
        self.pending[rank].push_back(PendingRecv {
            src,
            tag,
            slot,
            token,
        });
        (wait, token)
    }

    /// The deadlock report's per-node wait list.
    pub(crate) fn stuck_report(&self) -> Vec<String> {
        self.blocked
            .iter()
            .enumerate()
            .filter_map(|(r, b)| {
                b.map(|(src, tag)| format!("  node {r}: recv(src={src:?}, tag={tag:?})"))
            })
            .collect()
    }

    /// Apply one fault event. Returns the rank whose program must be
    /// aborted, for the executor-side half of a node crash.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) -> Option<usize> {
        match kind {
            FaultKind::NodeCrash { node } => {
                if self.failed[node] {
                    return None;
                }
                self.failed[node] = true;
                self.counters.faults.node_crashes += 1;
                if self.rec_on {
                    self.rec.instant(
                        self.node_track[node],
                        "fault",
                        "crash",
                        self.q.now().nanos(),
                    );
                }
                // The node's queued and matched-but-unconsumed messages
                // die with it; failing its posted recvs hands their wait
                // slots back once the aborted program drops its futures.
                self.mailbox[node].clear();
                for p in std::mem::take(&mut self.pending[node]) {
                    let failed = Err(CommError::NodeFailed(node));
                    self.recvs.borrow_mut().complete(p.slot, failed);
                }
                self.blocked[node] = None;
                Some(node)
            }
            FaultKind::NodeSlow {
                node,
                factor,
                until,
            } => {
                if !self.failed[node] {
                    self.slow[node] = (factor, until);
                    self.counters.faults.slowdowns += 1;
                    if self.rec_on {
                        self.rec.instant(
                            self.node_track[node],
                            "fault",
                            "slowdown",
                            self.q.now().nanos(),
                        );
                    }
                }
                None
            }
            FaultKind::LinkDown { link, until } => {
                self.counters.faults.link_faults += 1;
                if self.rec_on {
                    self.rec
                        .instant(self.link_track[link], "fault", "down", self.q.now().nanos());
                }
                // Overlapping outages: keep the latest repair time; the
                // LinkUp for the earlier outage then arrives early and is
                // ignored by the `down_until` check.
                self.down_until[link] = self.down_until[link].max(until);
                if !self.down[link] {
                    self.down[link] = true;
                    self.down_links += 1;
                }
                self.q.schedule(until, Event::LinkUp { link });
                None
            }
        }
    }

    fn link_up(&mut self, link: LinkId) {
        if self.down[link] && self.q.now() >= self.down_until[link] {
            self.down[link] = false;
            self.down_links -= 1;
            if self.rec_on {
                self.rec
                    .instant(self.link_track[link], "fault", "up", self.q.now().nanos());
            }
        }
    }

    /// Expire a `recv_timeout` deadline: if the posted recv is still
    /// outstanding, withdraw it and fail its waiter.
    fn deadline(&mut self, dst: usize, token: u64, after: Dur) -> Dispatched {
        let pend = &mut self.pending[dst];
        let Some(pos) = pend.iter().position(|p| p.token == token) else {
            return Dispatched::Nothing;
        };
        let p = pend.remove(pos).unwrap();
        self.blocked[dst] = None;
        self.counters.faults.timeouts += 1;
        if self.rec_on {
            self.rec.instant(
                self.node_track[dst],
                "fault",
                "timeout",
                self.q.now().nanos(),
            );
        }
        let timed_out = Err(CommError::Timeout { after });
        Dispatched::resume(self.recvs.borrow_mut().complete(p.slot, timed_out), dst)
    }
}

/// Handle a node program uses to talk to the simulator. Cheap to clone.
pub struct Node {
    core: Rc<RefCell<SimCore>>,
    rank: usize,
    nranks: usize,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            core: Rc::clone(&self.core),
            rank: self.rank,
            nranks: self.nranks,
        }
    }
}

impl Node {
    pub(crate) fn new_in(core: Rc<RefCell<SimCore>>, rank: usize, nranks: usize) -> Node {
        Node { core, rank, nranks }
    }

    /// This node's rank in `0..nranks()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Machine size.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().q.now()
    }

    /// Emit the interval `[t0, now]` on this node's trace track.
    fn trace_span(&self, cat: &'static str, name: &str, t0: SimTime) {
        let core = self.core.borrow();
        if core.rec_on {
            core.rec.span(
                core.node_track[self.rank],
                cat,
                name,
                t0.nanos(),
                core.q.now().nanos(),
            );
        }
    }

    /// Emit a point event on this node's trace track, stamped now.
    fn trace_instant(&self, cat: &'static str, name: &str) {
        let core = self.core.borrow();
        if core.rec_on {
            core.rec
                .instant(core.node_track[self.rank], cat, name, core.q.now().nanos());
        }
    }

    /// The machine this program is running on. A refcount bump, not a
    /// deep copy — node programs may call this per query.
    pub fn machine(&self) -> Rc<MachineConfig> {
        Rc::clone(&self.core.borrow().cfg)
    }

    /// Blocking tagged send (NX `csend` semantics: returns once the local
    /// send path is done; the transfer proceeds in the background). Like
    /// the hardware, this gives no failure feedback: a message to a dead
    /// node or across a partition is silently dropped — use
    /// [`Node::try_send`] to observe delivery errors.
    pub async fn send(&self, dst: usize, tag: u64, payload: Payload) {
        let _ = self.try_send(dst, tag, payload).await;
    }

    /// Tagged send with delivery-error reporting: `Err` when the
    /// destination has crashed or no live route exists. The local send
    /// overhead is charged either way (the kernel ran its send path
    /// before the failure detector answered).
    pub async fn try_send(&self, dst: usize, tag: u64, payload: Payload) -> Result<(), CommError> {
        assert!(dst < self.nranks, "send to rank {dst} of {}", self.nranks);
        let (timer, sent, t0) = {
            let mut core = self.core.borrow_mut();
            let t0 = core.q.now();
            let sent = core.inject(self.rank, dst, tag, payload);
            let ov = core.cfg.net.send_overhead;
            (core.timer(self.rank, ov), sent, t0)
        };
        timer.await;
        let mut core = self.core.borrow_mut();
        let core = &mut *core;
        if core.rec_on {
            core.label.clear();
            let _ = write!(core.label, "send->{dst}");
            let (track, t1) = (core.node_track[self.rank], core.q.now().nanos());
            core.rec.span(track, "send", &core.label, t0.nanos(), t1);
        }
        sent
    }

    /// Retrying send with capped, jittered exponential backoff in
    /// virtual time. Transient errors (partition — a detour may appear
    /// when a link is repaired) are retried; a crashed destination is
    /// permanent and returned immediately.
    ///
    /// The backoff is deterministic: jitter streams are keyed on
    /// `(rank, dst, tag)`, so the same run replays bit-for-bit while
    /// distinct senders caught by the same outage decorrelate instead
    /// of retrying in lockstep.
    pub async fn send_with_retry(
        &self,
        dst: usize,
        tag: u64,
        payload: Payload,
        policy: RetryPolicy,
    ) -> Result<(), CommError> {
        let stream = mix64(&[self.rank as u64, dst as u64, tag]);
        let mut last = CommError::Unreachable {
            from: self.rank,
            to: dst,
        };
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                self.core.borrow_mut().counters.faults.retries += 1;
                self.trace_instant("fault", "retry");
                self.delay(policy.backoff.delay(stream, attempt)).await;
            }
            match self.try_send(dst, tag, payload.clone()).await {
                Ok(()) => return Ok(()),
                Err(e @ CommError::NodeFailed(_)) => return Err(e),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Has `rank` suffered a permanent crash? (The NX failure-detector
    /// oracle: fail-stop faults are detected immediately and reliably.)
    pub fn peer_failed(&self, rank: usize) -> bool {
        let core = self.core.borrow();
        if let Some(sh) = &core.shard {
            if sh.map.lane_of(rank) != sh.lane {
                // A remote peer's fail-stop state is a pure function of
                // the fault plan and the clock — no cross-lane traffic
                // needed to answer the oracle deterministically.
                return sh.crash_time[rank] <= core.q.now();
            }
        }
        core.failed[rank]
    }

    /// Convenience: send a slice of doubles.
    pub async fn send_f64s(&self, dst: usize, tag: u64, data: &[f64]) {
        self.send(dst, tag, Payload::from_f64s(data)).await;
    }

    /// Convenience: timing-only send of `bytes` bytes.
    pub async fn send_virtual(&self, dst: usize, tag: u64, bytes: u64) {
        self.send(dst, tag, Payload::Virtual(bytes)).await;
    }

    /// Blocking tagged receive. `src`/`tag` of `None` are wildcards.
    /// Matches the earliest-arrived queued message first (NX `crecv`).
    pub async fn recv(&self, src: Option<usize>, tag: Option<u64>) -> Msg {
        match self.recv_inner(src, tag, None).await {
            Ok(msg) => msg,
            Err(e) => unreachable!("recv without deadline cannot fail: {e}"),
        }
    }

    /// Blocking tagged receive with a deadline: `Err(Timeout)` if no
    /// matching message lands within `timeout` of virtual time. This is
    /// the primitive fault-tolerant node programs use to detect dead
    /// peers instead of deadlocking.
    pub async fn recv_timeout(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        timeout: Dur,
    ) -> Result<Msg, CommError> {
        self.recv_inner(src, tag, Some(timeout)).await
    }

    async fn recv_inner(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        timeout: Option<Dur>,
    ) -> Result<Msg, CommError> {
        let (waited, t0) = {
            let mut core = self.core.borrow_mut();
            let t0 = core.q.now();
            let mbox = &mut core.mailbox[self.rank];
            let waited =
                if let Some(pos) = mbox.iter().position(|m| matches(src, tag, m.src, m.tag)) {
                    Ok(mbox.remove(pos).unwrap())
                } else {
                    let (wait, token) = core.post_recv(self.rank, src, tag);
                    if let Some(after) = timeout {
                        core.q.schedule_in(
                            after,
                            Event::RecvDeadline {
                                dst: self.rank,
                                token,
                                after,
                            },
                        );
                    }
                    core.blocked[self.rank] = Some((src, tag));
                    Err(wait)
                };
            (waited, t0)
        };
        let (msg, buffered) = match waited {
            Ok(m) => (m, true),
            Err(wait) => {
                let res = wait.await;
                // The wait ended either at delivery or at the deadline;
                // both are blocked time.
                self.trace_span("blocked", "recv", t0);
                (res?, false)
            }
        };
        // Receiver software overhead; an unexpected (buffered) message
        // also pays the system-buffer copy — the reason NX programmers
        // preposted their receives.
        let (timer, t1) = {
            let mut core = self.core.borrow_mut();
            let mut ov = core.cfg.net.recv_overhead;
            if buffered {
                ov += Dur::from_secs_f64(msg.payload.len_bytes() as f64 / core.cfg.node.mem_bw);
            }
            let t1 = core.q.now();
            (core.timer(self.rank, ov), t1)
        };
        timer.await;
        self.trace_span("recv", "recv", t1);
        Ok(msg)
    }

    /// Receive and unwrap a doubles payload.
    pub async fn recv_f64s(&self, src: Option<usize>, tag: Option<u64>) -> F64s {
        self.recv(src, tag).await.payload.into_f64s()
    }

    /// Receive a doubles payload with a deadline; surfaces both timeouts
    /// and payload-kind mismatches as typed errors.
    pub async fn recv_f64s_timeout(
        &self,
        src: Option<usize>,
        tag: Option<u64>,
        timeout: Dur,
    ) -> Result<F64s, CommError> {
        self.recv_timeout(src, tag, timeout)
            .await?
            .payload
            .try_into_f64s()
    }

    /// Post a non-blocking receive (NX `irecv`): the match is armed
    /// immediately, so a message arriving while the node computes is
    /// captured without the unexpected-message queue. Await the returned
    /// request to take the message (receiver overhead is charged then).
    pub fn irecv(&self, src: Option<usize>, tag: Option<u64>) -> RecvRequest {
        let mut core = self.core.borrow_mut();
        let mbox = &mut core.mailbox[self.rank];
        let early = mbox
            .iter()
            .position(|m| matches(src, tag, m.src, m.tag))
            .map(|pos| mbox.remove(pos).unwrap());
        let buffered = early.is_some();
        let done = match early {
            Some(msg) => {
                let done = Waits::arm(&core.recvs);
                core.recvs.borrow_mut().complete(done.slot, Ok(msg));
                done
            }
            None => core.post_recv(self.rank, src, tag).0,
        };
        RecvRequest {
            node: self.clone(),
            done,
            buffered,
        }
    }

    /// Non-blocking mailbox check (NX `iprobe`): is a matching message
    /// already waiting? Never consumes the message.
    pub fn probe(&self, src: Option<usize>, tag: Option<u64>) -> bool {
        self.core.borrow().mailbox[self.rank]
            .iter()
            .any(|m| matches(src, tag, m.src, m.tag))
    }

    /// Advance virtual time by the cost of `flops` operations of `kernel`.
    /// An active slowdown fault on the node stretches the cost; the
    /// factor-1.0 path is taken untouched so fault-free timing is exact.
    pub async fn compute(&self, kernel: Kernel, flops: f64) {
        let (timer, t0) = {
            let mut core = self.core.borrow_mut();
            let mut d = core.cfg.node.compute_time(kernel, flops);
            let factor = core.slow_factor(self.rank);
            if factor != 1.0 {
                d = d.mul_f64(factor);
            }
            core.counters.flops += flops;
            core.counters.compute_time += d;
            let t0 = core.q.now();
            (core.timer(self.rank, d), t0)
        };
        timer.await;
        self.trace_span("compute", kernel_label(kernel), t0);
    }

    /// Advance virtual time by an explicit duration (I/O, OS, modelling).
    pub async fn delay(&self, d: Dur) {
        let (timer, t0) = {
            let mut core = self.core.borrow_mut();
            let t0 = core.q.now();
            (core.timer(self.rank, d), t0)
        };
        timer.await;
        self.trace_span("delay", "delay", t0);
    }
}

/// Static trace label for a compute kernel (no per-span allocation).
fn kernel_label(k: Kernel) -> &'static str {
    match k {
        Kernel::Dgemm => "dgemm",
        Kernel::Daxpy => "daxpy",
        Kernel::Dtrsm => "dtrsm",
        Kernel::Panel => "panel",
        Kernel::Stencil => "stencil",
        Kernel::Spmv => "spmv",
        Kernel::Fft => "fft",
        Kernel::Nbody => "nbody",
        Kernel::Scalar => "scalar",
    }
}

/// Backoff schedule for [`Node::send_with_retry`]: a capped exponential
/// [`Backoff`] with deterministic seeded jitter. The old uncapped
/// doubling schedule could sleep past any simulated horizon once
/// `max_attempts` grew; the cap bounds every single delay and the
/// seeded jitter keeps retry storms decorrelated without sacrificing
/// replayability.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    /// 4 attempts; 1 ms doubling to a 100 ms cap with 10% jitter.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: Backoff {
                base: Dur::from_millis(1),
                cap: Dur::from_millis(100),
                jitter: 0.10,
                seed: 0x5EED,
            },
        }
    }
}

/// Handle to a posted non-blocking receive. Await [`RecvRequest::wait`]
/// to take the message; [`RecvRequest::ready`] polls without blocking.
pub struct RecvRequest {
    node: Node,
    done: WaitFuture<RecvResult>,
    /// The message had already arrived unexpected and was system-buffered
    /// when this request was posted (extra copy charged at wait).
    buffered: bool,
}

impl RecvRequest {
    /// Has the matching message arrived yet?
    pub fn ready(&self) -> bool {
        self.done.table.borrow().is_done(self.done.slot)
    }

    /// Block until the message is in, then charge the receive overhead
    /// (plus the buffer copy when the message pre-dated the post).
    pub async fn wait(self) -> Msg {
        let t0 = self.node.now();
        let msg = match self.done.await {
            Ok(msg) => msg,
            // irecv posts no deadline, so only a Deliver fulfils it.
            Err(e) => unreachable!("irecv cannot fail: {e}"),
        };
        let (timer, t1) = {
            let mut core = self.node.core.borrow_mut();
            let mut ov = core.cfg.net.recv_overhead;
            if self.buffered {
                ov += Dur::from_secs_f64(msg.payload.len_bytes() as f64 / core.cfg.node.mem_bw);
            }
            let t1 = core.q.now();
            (core.timer(self.node.rank, ov), t1)
        };
        if t1 > t0 {
            // Only the tail of the wait that actually parked the task is
            // blocked time (an already-fulfilled request costs nothing).
            self.node.trace_span("blocked", "irecv", t0);
        }
        timer.await;
        self.node.trace_span("recv", "recv", t1);
        msg
    }
}

/// Per-run report: virtual elapsed time plus traffic/compute aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub machine: String,
    pub nodes: usize,
    pub elapsed: Dur,
    pub messages: u64,
    pub bytes: u64,
    pub flops: f64,
    pub events: u64,
    /// Mean fraction of the run each node spent computing.
    pub compute_fraction: f64,
    /// Mean fraction of each channel's time spent occupied.
    pub link_utilization: f64,
    /// Messages that arrived before a matching recv was posted.
    pub unexpected_messages: u64,
    /// What injected faults did to this run (all zero when fault-free).
    pub faults: FaultStats,
}

impl RunReport {
    /// Achieved FLOP rate over the whole run.
    pub fn gflops(&self) -> f64 {
        if self.elapsed == Dur::ZERO {
            0.0
        } else {
            self.flops / self.elapsed.as_secs_f64() / 1e9
        }
    }
}

/// A configured machine ready to run node programs.
pub struct Machine {
    cfg: Rc<MachineConfig>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        Machine { cfg: Rc::new(cfg) }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run one program per node to completion; collect each node's result.
    ///
    /// Panics (with a per-node wait list) on communication deadlock —
    /// tasks still parked with an empty event calendar.
    pub fn run<T, F, Fut>(&self, program: F) -> (Vec<T>, RunReport)
    where
        T: 'static,
        F: Fn(Node) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let (results, report) = self.run_with_faults(&FaultPlan::none(), program);
        let results = results
            .into_iter()
            .map(|o| o.expect("node completed"))
            .collect();
        (results, report)
    }

    /// Run one program per node under an injected [`FaultPlan`].
    ///
    /// A crashed node's program is aborted at the crash instant and its
    /// result slot stays `None`. With a non-empty plan, survivors left
    /// parked forever by a fault (waiting on a dead peer without a
    /// timeout) are aborted at shutdown and counted as orphaned rather
    /// than panicking; a fault-free run still panics on deadlock, which
    /// is a program bug. An empty plan schedules no events and is
    /// bit-identical to [`Machine::run`].
    pub fn run_with_faults<T, F, Fut>(
        &self,
        plan: &FaultPlan,
        program: F,
    ) -> (Vec<Option<T>>, RunReport)
    where
        T: 'static,
        F: Fn(Node) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        self.run_recorded(plan, Rc::new(NullRecorder), program)
    }

    /// Run one program per node under a [`FaultPlan`] with a trace
    /// recorder attached. The recorder is a pure observer — with a
    /// disabled recorder this is exactly [`Machine::run_with_faults`]
    /// (which routes through here with a [`NullRecorder`]); with an
    /// enabled one, every node gets a trace track of its
    /// compute/send/recv/blocked/delay intervals, every channel a track
    /// of its occupancy windows, faults and retries land as instants,
    /// and the dispatch loop samples event-queue/executor depth onto a
    /// "des" track.
    pub fn run_recorded<T, F, Fut>(
        &self,
        plan: &FaultPlan,
        rec: Rc<dyn Recorder>,
        program: F,
    ) -> (Vec<Option<T>>, RunReport)
    where
        T: 'static,
        F: Fn(Node) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let (results, report, _) = crate::shard::run_lone(&self.cfg, rec, plan, &program);
        (results, report)
    }

    /// Run one program per node on the sharded conservative-parallel
    /// engine under a [`FaultPlan`] (`FaultPlan::none()` for a clean
    /// run): the mesh is split into `lanes` contiguous row blocks
    /// ([`crate::partition::LaneMap`]), each with its own event calendar
    /// and executor, synchronized by bounded-lag windows whose width is
    /// the network's cross-lane [`crate::machine::NetModel::lookahead`].
    ///
    /// `lanes <= 1` (or a machine too small to split) is the single-queue
    /// engine — bit-identical to [`Machine::run`] by construction, since
    /// it *is* that call: one unsharded lane, no horizon. Multi-lane runs
    /// go through the same dispatch loop ([`crate::shard`]); they keep
    /// exact link-occupancy timing inside each lane and time cross-lane
    /// messages analytically (uncontended), so final results are
    /// lane-count-invariant for timing-insensitive programs while
    /// per-event timestamps may differ from the single-lane schedule.
    /// One thread per lane drives them when the host has more than one
    /// CPU (the calling thread takes lane 0), the calling thread drives
    /// them all otherwise; the worker count cannot change the answer. A
    /// node program that panics takes the run down with that panic on
    /// either.
    ///
    /// This is the lane-parallel counterpart of
    /// [`Machine::run_with_faults`]: node crashes and slowdowns are
    /// applied by the lane owning the node, link outages by the lane
    /// owning the channel's source node; cross-lane messages check the
    /// destination's precomputed crash schedule instead of shared state.
    ///
    /// Also returns the lane-runtime diagnostics
    /// ([`crate::shard::LaneStats`]): windows executed, per-lane event
    /// throughput, cross-lane mailbox traffic. At one lane they are one
    /// lane carrying every event, zero rounds (nobody to synchronize
    /// with) and zero mailbox traffic.
    pub fn run_sharded_stats<T, F, Fut>(
        &self,
        lanes: usize,
        plan: &FaultPlan,
        program: F,
    ) -> (Vec<Option<T>>, RunReport, crate::shard::LaneStats)
    where
        T: Send + 'static,
        F: Fn(Node) -> Fut + Sync,
        Fut: Future<Output = T> + 'static,
    {
        let lanes = LaneMap::new(&self.cfg.topology, lanes).lanes();
        if lanes <= 1 {
            return crate::shard::run_lone(&self.cfg, Rc::new(NullRecorder), plan, &program);
        }
        crate::shard::run(&self.cfg, lanes, plan, &program)
    }

    /// Test hook: one *sharded* lane under the lookahead horizon, where
    /// the windowed event order must reproduce [`Machine::run_with_faults`]
    /// exactly. Not part of the public API contract.
    #[doc(hidden)]
    pub fn run_windowed_exact<T, F, Fut>(
        &self,
        lanes: usize,
        plan: &FaultPlan,
        program: F,
    ) -> (Vec<Option<T>>, RunReport)
    where
        T: Send + 'static,
        F: Fn(Node) -> Fut + Sync,
        Fut: Future<Output = T> + 'static,
    {
        let (results, report, _) = crate::shard::run(&self.cfg, lanes, plan, &program);
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::presets;

    fn tiny() -> Machine {
        Machine::new(presets::delta(2, 2))
    }

    #[test]
    fn pingpong_latency_matches_model() {
        let m = tiny();
        let bytes = 8_000u64;
        let (_out, report) = m.run(|node| async move {
            match node.rank() {
                0 => {
                    node.send_virtual(1, 7, bytes).await;
                    node.recv(Some(1), Some(8)).await;
                }
                1 => {
                    node.recv(Some(0), Some(7)).await;
                    node.send_virtual(0, 8, bytes).await;
                }
                _ => {}
            }
        });
        let cfg = m.config();
        let one_way =
            cfg.net.send_overhead + cfg.net.transfer_time(bytes, 1) + cfg.net.recv_overhead;
        let expect = one_way * 2;
        let got = report.elapsed;
        let err = (got.as_secs_f64() - expect.as_secs_f64()).abs() / expect.as_secs_f64();
        assert!(err < 0.05, "got {got}, expected ~{expect}");
        assert_eq!(report.messages, 2);
        assert_eq!(report.bytes, 2 * bytes);
    }

    #[test]
    fn contention_serialises_shared_link() {
        // 1x3 mesh: 0->2 and 1->2 share the link 1->2; the two 1 MB
        // transfers must take ~2x the bandwidth time, not 1x.
        let m = Machine::new(presets::delta(1, 3));
        let bytes = 1_000_000u64;
        let (_, report) = m.run(move |node| async move {
            match node.rank() {
                0 | 1 => node.send_virtual(2, node.rank() as u64, bytes).await,
                2 => {
                    node.recv(None, None).await;
                    node.recv(None, None).await;
                }
                _ => {}
            }
        });
        let bw_time = bytes as f64 / m.config().net.bandwidth;
        let got = report.elapsed.as_secs_f64();
        assert!(
            got > 1.9 * bw_time && got < 2.3 * bw_time,
            "elapsed {got}s vs serialised {:.4}s",
            2.0 * bw_time
        );
    }

    #[test]
    fn disjoint_routes_run_in_parallel() {
        // 1x4 mesh: 0->1 and 3->2 use disjoint links; elapsed ~1x.
        let m = Machine::new(presets::delta(1, 4));
        let bytes = 1_000_000u64;
        let (_, report) = m.run(move |node| async move {
            match node.rank() {
                0 => node.send_virtual(1, 0, bytes).await,
                3 => node.send_virtual(2, 0, bytes).await,
                1 | 2 => {
                    node.recv(None, None).await;
                }
                _ => {}
            }
        });
        let bw_time = bytes as f64 / m.config().net.bandwidth;
        let got = report.elapsed.as_secs_f64();
        assert!(got < 1.2 * bw_time, "elapsed {got}s vs parallel {bw_time}s");
    }

    #[test]
    fn tag_and_src_matching() {
        let m = tiny();
        let (out, _) = m.run(|node| async move {
            match node.rank() {
                0 => {
                    // Send out of order; receiver selects by tag.
                    node.send_f64s(1, 20, &[2.0]).await;
                    node.send_f64s(1, 10, &[1.0]).await;
                    0.0
                }
                1 => {
                    let a = node.recv_f64s(Some(0), Some(10)).await;
                    let b = node.recv_f64s(Some(0), Some(20)).await;
                    a[0] * 10.0 + b[0]
                }
                _ => 0.0,
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn wildcard_recv_takes_earliest() {
        let m = Machine::new(presets::delta(1, 3));
        let (out, _) = m.run(|node| async move {
            match node.rank() {
                0 => {
                    node.send_f64s(2, 1, &[5.0]).await;
                    0.0
                }
                1 => {
                    // Delay so node 0's message definitely arrives first.
                    node.delay(Dur::from_millis(10)).await;
                    node.send_f64s(2, 1, &[7.0]).await;
                    0.0
                }
                2 => {
                    let first = node.recv(None, None).await;
                    let second = node.recv(None, None).await;
                    assert_eq!(first.src, 0);
                    assert_eq!(second.src, 1);
                    first.payload.as_f64s()[0] + second.payload.as_f64s()[0]
                }
                _ => 0.0,
            }
        });
        assert_eq!(out[2], 12.0);
    }

    #[test]
    fn self_send_works() {
        let m = tiny();
        let (out, _) = m.run(|node| async move {
            if node.rank() == 0 {
                node.send_f64s(0, 3, &[4.5]).await;
                node.recv_f64s(Some(0), Some(3)).await[0]
            } else {
                0.0
            }
        });
        assert_eq!(out[0], 4.5);
    }

    #[test]
    fn compute_advances_time_by_model() {
        let m = tiny();
        let flops = 1.0e9;
        let (_, report) = m.run(move |node| async move {
            if node.rank() == 0 {
                node.compute(Kernel::Dgemm, flops).await;
            }
        });
        let expect = m.config().node.compute_time(Kernel::Dgemm, flops);
        assert_eq!(report.elapsed, expect);
        assert_eq!(report.flops, flops);
    }

    #[test]
    fn gflops_accounting() {
        let m = tiny();
        let (_, report) = m.run(|node| async move {
            // All 4 nodes compute 1 GFLOP of dgemm concurrently.
            node.compute(Kernel::Dgemm, 1.0e9).await;
        });
        let per_node = m.config().node.sustained(Kernel::Dgemm);
        let expect_gflops = 4.0 * per_node / 1e9;
        assert!(
            (report.gflops() - expect_gflops).abs() / expect_gflops < 1e-6,
            "got {} expected {}",
            report.gflops(),
            expect_gflops
        );
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let m = Machine::new(presets::delta(2, 3));
            let (_, r) = m.run(|node| async move {
                let n = node.nranks();
                let next = (node.rank() + 1) % n;
                let prev = (node.rank() + n - 1) % n;
                node.send_virtual(next, 1, 4096).await;
                node.recv(Some(prev), Some(1)).await;
                node.compute(Kernel::Stencil, 1e7).await;
            });
            (r.elapsed, r.messages, r.bytes, r.events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(
        expected = "4 tasks parked, no events\n  node 0: recv(src=None, tag=None)\n  node 1:"
    )]
    fn deadlock_is_detected() {
        let m = tiny();
        let (_, _) = m.run(|node| async move {
            // Everyone waits; nobody sends.
            node.recv(None, None).await;
        });
    }

    #[test]
    fn unexpected_messages_counted() {
        let m = tiny();
        let (_, report) = m.run(|node| async move {
            match node.rank() {
                0 => node.send_virtual(1, 1, 64).await,
                1 => {
                    // Post the recv long after arrival.
                    node.delay(Dur::from_millis(50)).await;
                    node.recv(Some(0), Some(1)).await;
                }
                _ => {}
            }
        });
        assert_eq!(report.unexpected_messages, 1);
    }

    #[test]
    fn irecv_overlaps_compute() {
        // Blocking style: recv happens after the compute finishes, so
        // total = compute + full message path. irecv style: the message
        // flies while the node computes.
        let bytes = 2_000_000u64;
        let flops = 4.0e6; // ~115 ms of dgemm on a Delta node
        let run = |overlap: bool| {
            let m = tiny();
            let (_, r) = m.run(move |node| async move {
                match node.rank() {
                    0 => node.send_virtual(1, 9, bytes).await,
                    1 => {
                        if overlap {
                            let req = node.irecv(Some(0), Some(9));
                            node.compute(Kernel::Dgemm, flops).await;
                            req.wait().await;
                        } else {
                            node.compute(Kernel::Dgemm, flops).await;
                            node.recv(Some(0), Some(9)).await;
                        }
                    }
                    _ => {}
                }
            });
            r.elapsed.as_secs_f64()
        };
        let blocking = run(false);
        let overlapped = run(true);
        assert!(
            overlapped < blocking,
            "overlap {overlapped} !< blocking {blocking}"
        );
        // Both paths still end after max(compute, transfer) at least.
        assert!(overlapped > 0.9 * (bytes as f64 / 25.0e6));
    }

    #[test]
    fn irecv_ready_and_unexpected_bypass() {
        let m = tiny();
        let (_, report) = m.run(|node| async move {
            match node.rank() {
                0 => node.send_virtual(1, 5, 64).await,
                1 => {
                    let req = node.irecv(Some(0), Some(5));
                    assert!(!req.ready(), "nothing arrived yet");
                    node.delay(Dur::from_millis(10)).await;
                    assert!(req.ready(), "message should have landed");
                    req.wait().await;
                }
                _ => {}
            }
        });
        // The posted irecv caught the message before it became
        // "unexpected".
        assert_eq!(report.unexpected_messages, 0);
    }

    #[test]
    fn probe_sees_but_does_not_consume() {
        let m = tiny();
        let (out, _) = m.run(|node| async move {
            match node.rank() {
                0 => {
                    node.send_f64s(1, 3, &[8.0]).await;
                    0.0
                }
                1 => {
                    assert!(!node.probe(Some(0), Some(3)));
                    node.delay(Dur::from_millis(5)).await;
                    assert!(node.probe(Some(0), Some(3)));
                    assert!(node.probe(Some(0), Some(3)), "probe is repeatable");
                    assert!(!node.probe(Some(0), Some(99)), "tag filter");
                    node.recv_f64s(Some(0), Some(3)).await[0]
                }
                _ => 0.0,
            }
        });
        assert_eq!(out[1], 8.0);
    }

    #[test]
    fn store_and_forward_is_distance_sensitive() {
        // 1x9 line, 1 MB end to end (8 hops): wormhole pays the serial
        // time once; store-and-forward pays it per hop.
        let bytes = 1_000_000u64;
        let elapsed = |cfg: crate::machine::MachineConfig| {
            let m = Machine::new(cfg);
            let (_, r) = m.run(move |node| async move {
                match node.rank() {
                    0 => node.send_virtual(8, 1, bytes).await,
                    8 => {
                        node.recv(Some(0), Some(1)).await;
                    }
                    _ => {}
                }
            });
            r.elapsed.as_secs_f64()
        };
        let wh = elapsed(presets::delta(1, 9));
        let sf = elapsed(presets::delta_store_and_forward(1, 9));
        let serial = bytes as f64 / presets::delta(1, 9).net.bandwidth;
        assert!(wh < 1.2 * serial, "wormhole {wh} vs serial {serial}");
        assert!(
            sf > 7.5 * serial && sf < 8.5 * serial,
            "S&F {sf} vs 8x serial {}",
            8.0 * serial
        );
    }

    #[test]
    fn switching_disciplines_agree_at_one_hop() {
        let bytes = 500_000u64;
        let one_hop = |cfg: crate::machine::MachineConfig| {
            let m = Machine::new(cfg);
            let (_, r) = m.run(move |node| async move {
                match node.rank() {
                    0 => node.send_virtual(1, 1, bytes).await,
                    1 => {
                        node.recv(Some(0), Some(1)).await;
                    }
                    _ => {}
                }
            });
            r.elapsed
        };
        let wh = one_hop(presets::delta(1, 2));
        let sf = one_hop(presets::delta_store_and_forward(1, 2));
        assert_eq!(wh, sf, "single hop: no pipelining advantage");
    }

    #[test]
    fn machine_query_shares_config() {
        let m = tiny();
        let (out, _) = m.run(|node| async move {
            // Many queries from one program: every handle must point at
            // the same allocation (no per-query deep clone).
            let a = node.machine();
            let b = node.machine();
            assert!(Rc::ptr_eq(&a, &b));
            a.nodes()
        });
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn results_collected_per_rank() {
        let m = Machine::new(presets::delta(2, 4));
        let (out, _) = m.run(|node| async move { node.rank() * 10 });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_plain_run() {
        let program = |node: Node| async move {
            let n = node.nranks();
            let next = (node.rank() + 1) % n;
            let prev = (node.rank() + n - 1) % n;
            node.send_virtual(next, 1, 4096).await;
            node.recv(Some(prev), Some(1)).await;
            node.compute(Kernel::Dgemm, 1e7).await;
            node.rank()
        };
        let m = Machine::new(presets::delta(2, 3));
        let (out_a, a) = m.run(program);
        let (out_b, b) = m.run_with_faults(&FaultPlan::none(), program);
        assert_eq!(
            out_a,
            out_b.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.messages, b.messages);
        assert_eq!(b.faults, FaultStats::default());
    }

    #[test]
    fn node_crash_aborts_its_program() {
        let m = tiny();
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_secs_f64(0.01),
            FaultKind::NodeCrash { node: 3 },
        );
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            node.delay(Dur::from_millis(100)).await;
            node.rank()
        });
        assert_eq!(out, vec![Some(0), Some(1), Some(2), None]);
        assert_eq!(report.faults.node_crashes, 1);
    }

    #[test]
    fn wait_slots_survive_a_crash_and_recycle() {
        // Node 3 posts a recv and is killed 5 ms into a 100 ms compute:
        // its timer is abandoned with the calendar entry still pending,
        // its posted recv is failed. The survivors then run 150x more
        // timers and recvs than the tables ever hold slots. The stale
        // entry fires at 100 ms, mid-run; it must free the slot and
        // resume nobody, so every delay still ends exactly on time.
        const ROUNDS: u64 = 200;
        let m = tiny();
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_secs_f64(0.005),
            FaultKind::NodeCrash { node: 3 },
        );
        let long = m.config().node.compute_time(Kernel::Dgemm, 3.5e6);
        assert!(long > Dur::from_millis(50) && long < Dur::from_millis(150));
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            if node.rank() == 3 {
                let _posted = node.irecv(None, Some(9));
                node.compute(Kernel::Dgemm, 3.5e6).await;
                unreachable!("node 3 dies mid-compute");
            }
            let (next, prev) = ((node.rank() + 1) % 3, (node.rank() + 2) % 3);
            let mut resumes = 0;
            for round in 0..ROUNDS {
                let t0 = node.now();
                node.delay(Dur::from_millis(1)).await;
                assert_eq!(node.now(), t0 + Dur::from_millis(1), "resumed on time");
                node.send_virtual(next, round, 64).await;
                node.recv(Some(prev), Some(round)).await;
                resumes += 1;
            }
            let core = node.core.borrow();
            let slots = (
                core.timers.borrow().slots.len(),
                core.recvs.borrow().slots.len(),
            );
            (resumes, slots.0, slots.1)
        });
        assert_eq!(out[3], None);
        for survivor in &out[..3] {
            let (resumes, timer_slots, recv_slots) = survivor.expect("survivor finished");
            assert_eq!(resumes, ROUNDS);
            // Peak live waits: one timer per node, one recv per node.
            assert!(timer_slots <= 4, "{timer_slots} timer slots");
            assert!(recv_slots <= 4, "{recv_slots} recv slots");
        }
        assert!(report.elapsed > long, "the stale timer fired mid-run");
        assert_eq!(report.faults.node_crashes, 1);
        assert_eq!(report.faults.orphaned_tasks, 0);
    }

    #[test]
    fn wait_table_frees_an_abandoned_slot_only_at_its_completion() {
        let table: WaitTable<u32> = Waits::table();
        let a = Waits::arm(&table);
        let slot_a = a.slot;
        assert_eq!(table.borrow_mut().poll(slot_a), Poll::Pending);
        drop(a);
        // Still owned by its completer: a new wait must not share it.
        let b = Waits::arm(&table);
        assert_ne!(b.slot, slot_a);
        assert!(!table.borrow_mut().complete(slot_a, 1), "nobody to resume");
        let c = Waits::arm(&table);
        assert_eq!(c.slot, slot_a, "freed by the stale completion, reused now");
        let mut w = table.borrow_mut();
        assert!(
            !w.complete(b.slot, 2),
            "armed, never polled: no task parked"
        );
        assert!(w.is_done(b.slot));
        assert!(w.poll(c.slot).is_pending());
        assert!(w.complete(c.slot, 3), "polled: its task must be resumed");
        assert_eq!(w.slots.len(), 2);
    }

    #[test]
    fn recv_timeout_detects_dead_peer() {
        let m = tiny();
        let mut plan = FaultPlan::none();
        plan.push(SimTime::ZERO, FaultKind::NodeCrash { node: 0 });
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            match node.rank() {
                1 => {
                    match node
                        .recv_timeout(Some(0), Some(1), Dur::from_millis(5))
                        .await
                    {
                        Err(CommError::Timeout { after }) => {
                            assert_eq!(after, Dur::from_millis(5));
                            assert!(node.peer_failed(0));
                            1
                        }
                        other => panic!("expected timeout, got {other:?}"),
                    }
                }
                _ => 0,
            }
        });
        assert_eq!(out[1], Some(1));
        assert_eq!(report.faults.timeouts, 1);
    }

    #[test]
    fn recv_timeout_still_delivers_in_time() {
        let m = tiny();
        let (out, report) = m.run(|node| async move {
            match node.rank() {
                0 => {
                    node.send_f64s(1, 7, &[3.5]).await;
                    0.0
                }
                1 => node
                    .recv_f64s_timeout(Some(0), Some(7), Dur::from_secs(1))
                    .await
                    .expect("arrives well before the deadline")[0],
                _ => 0.0,
            }
        });
        assert_eq!(out[1], 3.5);
        assert_eq!(report.faults.timeouts, 0);
    }

    #[test]
    fn try_send_to_crashed_node_errors() {
        let m = tiny();
        let mut plan = FaultPlan::none();
        plan.push(SimTime::ZERO, FaultKind::NodeCrash { node: 1 });
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            if node.rank() == 0 {
                node.delay(Dur::from_millis(1)).await;
                node.try_send(1, 1, Payload::Virtual(64)).await
            } else {
                Ok(())
            }
        });
        assert_eq!(out[0], Some(Err(CommError::NodeFailed(1))));
        assert_eq!(report.faults.messages_lost, 1);
    }

    #[test]
    fn message_routes_around_downed_link() {
        // 1x3 line: kill the east channel 0->1 for the whole run. With no
        // detour on a line this partitions 0 from the rest.
        let m = Machine::new(presets::delta(1, 3));
        let topo = m.config().topology.clone();
        let mut r = Vec::new();
        topo.route(0, 1, &mut r);
        let dead = r[0];
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::ZERO,
            FaultKind::LinkDown {
                link: dead,
                until: SimTime::MAX,
            },
        );
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            if node.rank() == 0 {
                node.delay(Dur::from_millis(1)).await;
                node.try_send(2, 1, Payload::Virtual(64)).await
            } else {
                Ok(())
            }
        });
        assert_eq!(
            out[0],
            Some(Err(CommError::Unreachable { from: 0, to: 2 })),
            "a 1-D line has no detour"
        );
        assert_eq!(report.faults.link_faults, 1);

        // Same fault on a 2x3 mesh: the detour through row 1 delivers.
        let m = Machine::new(presets::delta(2, 3));
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            match node.rank() {
                0 => {
                    node.delay(Dur::from_millis(1)).await;
                    node.try_send(2, 1, Payload::Virtual(64)).await.is_ok()
                }
                2 => {
                    node.recv(Some(0), Some(1)).await;
                    true
                }
                _ => true,
            }
        });
        assert_eq!(out[0], Some(true));
        assert_eq!(out[2], Some(true));
        assert_eq!(report.faults.messages_lost, 0);
    }

    #[test]
    fn send_with_retry_survives_a_flap() {
        // Link 0->1 flaps down for 2 ms on a 1x2 line; the retrying
        // sender backs off past the repair and gets through.
        let m = Machine::new(presets::delta(1, 2));
        let mut r = Vec::new();
        m.config().topology.route(0, 1, &mut r);
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::ZERO,
            FaultKind::LinkDown {
                link: r[0],
                until: SimTime::from_secs_f64(0.002),
            },
        );
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            match node.rank() {
                0 => node
                    .send_with_retry(1, 1, Payload::Virtual(64), RetryPolicy::default())
                    .await
                    .is_ok(),
                1 => {
                    node.recv(Some(0), Some(1)).await;
                    true
                }
                _ => true,
            }
        });
        assert_eq!(out, vec![Some(true), Some(true)]);
        assert!(report.faults.retries >= 1);
        assert!(
            report.faults.messages_lost >= 1,
            "first attempt was dropped"
        );
    }

    #[test]
    fn send_with_retry_backoff_is_capped() {
        // Destination crashed from t=0... no: a crashed node returns
        // immediately. Keep the link down for the whole run instead, so
        // every attempt fails Unreachable and the full backoff schedule
        // is consumed. With jitter off, the elapsed time is exactly the
        // sum of capped delays — the uncapped schedule would sleep
        // 1+2+4+...+2^9 ms, the capped one 1+2+4+4+... ms.
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff: Backoff::exponential(Dur::from_millis(1), Dur::from_millis(4)),
        };
        let m = Machine::new(presets::delta(1, 2));
        let mut r = Vec::new();
        m.config().topology.route(0, 1, &mut r);
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::ZERO,
            FaultKind::LinkDown {
                link: r[0],
                until: SimTime::MAX,
            },
        );
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            match node.rank() {
                0 => {
                    let t0 = node.now();
                    let res = node
                        .send_with_retry(1, 1, Payload::Virtual(64), policy)
                        .await;
                    assert!(matches!(res, Err(CommError::Unreachable { .. })));
                    (node.now() - t0).nanos()
                }
                _ => 0,
            }
        });
        // 9 backoffs: 1 + 2 + then seven capped at 4 ms = 31 ms, plus
        // 10 local send-overhead charges; no jitter, so exact.
        let backoffs: u64 = (1..10u32)
            .map(|a| policy.backoff.delay(mix64(&[0, 1, 1]), a).nanos())
            .sum();
        assert_eq!(backoffs, Dur::from_millis(31).nanos());
        let overhead = 10 * m.config().net.send_overhead.nanos();
        assert_eq!(out[0], Some(backoffs + overhead));
        assert_eq!(report.faults.retries, 9);
    }

    #[test]
    fn send_with_retry_jitter_is_deterministic() {
        // Same machine, same flap, jittered policy: two runs must agree
        // bit-for-bit, and a different seed must move the retry clock.
        let elapsed = |seed: u64| {
            let policy = RetryPolicy {
                max_attempts: 6,
                backoff: Backoff {
                    base: Dur::from_millis(1),
                    cap: Dur::from_millis(8),
                    jitter: 0.40,
                    seed,
                },
            };
            let m = Machine::new(presets::delta(1, 2));
            let mut r = Vec::new();
            m.config().topology.route(0, 1, &mut r);
            let mut plan = FaultPlan::none();
            plan.push(
                SimTime::ZERO,
                FaultKind::LinkDown {
                    link: r[0],
                    until: SimTime::from_secs_f64(0.003),
                },
            );
            let (out, report) = m.run_with_faults(&plan, |node| async move {
                match node.rank() {
                    0 => {
                        let ok = node
                            .send_with_retry(1, 1, Payload::Virtual(64), policy)
                            .await
                            .is_ok();
                        assert!(ok, "flap repaired within the schedule");
                        node.now().nanos()
                    }
                    1 => {
                        node.recv(Some(0), Some(1)).await;
                        node.now().nanos()
                    }
                    _ => 0,
                }
            });
            assert!(report.faults.retries >= 1);
            out
        };
        let a = elapsed(7);
        let b = elapsed(7);
        assert_eq!(a, b, "seeded jitter replays bit-for-bit");
        let c = elapsed(8);
        assert_ne!(a, c, "a different seed shifts the retry schedule");
    }

    #[test]
    fn slowdown_stretches_compute() {
        let flops = 1.0e9;
        let m = tiny();
        let base = m.config().node.compute_time(Kernel::Dgemm, flops);
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::ZERO,
            FaultKind::NodeSlow {
                node: 0,
                factor: 3.0,
                until: SimTime::MAX,
            },
        );
        let (_, report) = m.run_with_faults(&plan, move |node| async move {
            if node.rank() == 0 {
                node.compute(Kernel::Dgemm, flops).await;
            }
        });
        assert_eq!(report.elapsed, base.mul_f64(3.0));
        assert_eq!(report.faults.slowdowns, 1);
    }

    #[test]
    fn survivors_blocked_on_dead_peer_are_orphaned_not_deadlocked() {
        let m = tiny();
        let mut plan = FaultPlan::none();
        plan.push(SimTime::ZERO, FaultKind::NodeCrash { node: 0 });
        let (out, report) = m.run_with_faults(&plan, |node| async move {
            if node.rank() == 1 {
                // Blocking recv from the dead node, no timeout: orphaned.
                node.recv(Some(0), None).await;
            }
            node.rank()
        });
        assert_eq!(out[0], None, "crashed");
        assert_eq!(out[1], None, "orphaned");
        assert_eq!(out[2], Some(2));
        assert_eq!(report.faults.orphaned_tasks, 1);
    }

    #[test]
    fn fault_run_replays_bit_identically() {
        let model = des::MtbfModel {
            node_mtbf: Some(Dur::from_secs(2)),
            slow_mtbf: Some(Dur::from_secs(3)),
            slow_factor: 2.0,
            slow_duration: Dur::from_millis(500),
            link_mtbf: Some(Dur::from_secs(4)),
            link_repair: Dur::from_millis(200),
            flap_mtbf: None,
            flap_duration: Dur::ZERO,
        };
        let run = |seed: u64| {
            let m = Machine::new(presets::delta(2, 3));
            let plan = des::FaultPlan::seeded(
                seed,
                &model,
                m.config().nodes(),
                m.config().topology.links(),
                Dur::from_secs(10),
            );
            let (out, r) = m.run_with_faults(&plan, |node| async move {
                let n = node.nranks();
                for round in 0..50u64 {
                    let next = (node.rank() + 1) % n;
                    node.send(next, round, Payload::Virtual(4096)).await;
                    let got = node
                        .recv_timeout(None, Some(round), Dur::from_millis(50))
                        .await;
                    if got.is_err() {
                        break;
                    }
                    node.compute(Kernel::Stencil, 1e6).await;
                }
                node.now()
            });
            (out, r.elapsed, r.events, r.faults)
        };
        assert_eq!(run(1234), run(1234), "same seed, same trace");
        let (_, _, _, faults) = run(1234);
        assert!(faults.any(), "the plan actually injected something");
    }

    #[test]
    fn recorded_run_is_bit_identical_and_breakdown_sums_to_elapsed() {
        let program = |node: Node| async move {
            let n = node.nranks();
            let next = (node.rank() + 1) % n;
            let prev = (node.rank() + n - 1) % n;
            for round in 0..4u64 {
                node.send_virtual(next, round, 4096).await;
                node.recv(Some(prev), Some(round)).await;
                node.compute(Kernel::Dgemm, 1e7).await;
                node.delay(Dur::from_micros(3)).await;
            }
            node.now()
        };
        let m = Machine::new(presets::delta(2, 3));
        let (out_plain, plain) = m.run(program);
        let rec = Rc::new(hpcc_trace::MemRecorder::new());
        let (out_rec, recd) = m.run_recorded(&FaultPlan::none(), rec.clone(), program);

        assert_eq!(
            out_plain,
            out_rec.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        );
        assert_eq!(plain.elapsed, recd.elapsed);
        assert_eq!(plain.events, recd.events);
        assert_eq!(plain.messages, recd.messages);
        assert!(!rec.is_empty(), "recording produced events");

        // Acceptance: each node's busy-time breakdown (plus idle) sums to
        // total sim time. Everything is integer nanoseconds, so "within
        // 1e-9 seconds" is exact equality here.
        let rows = rec.node_breakdown(recd.elapsed.nanos());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(row.total_ns(), recd.elapsed.nanos());
            assert!(row.compute_ns > 0, "{} computed", row.thread);
        }
    }

    #[test]
    fn recorded_faulted_run_matches_unrecorded() {
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_secs_f64(0.0005),
            FaultKind::NodeCrash { node: 2 },
        );
        let program = |node: Node| async move {
            let n = node.nranks();
            for round in 0..10u64 {
                let next = (node.rank() + 1) % n;
                node.send(next, round, Payload::Virtual(2048)).await;
                if node
                    .recv_timeout(None, Some(round), Dur::from_millis(2))
                    .await
                    .is_err()
                {
                    break;
                }
            }
            node.now()
        };
        let m = Machine::new(presets::delta(2, 2));
        let (out_a, a) = m.run_with_faults(&plan, program);
        let rec = Rc::new(hpcc_trace::MemRecorder::new());
        let (out_b, b) = m.run_recorded(&plan, rec.clone(), program);
        assert_eq!(out_a, out_b);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
        // The crash and the timeouts show up as trace instants.
        let instants: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                hpcc_trace::Event::Instant { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(instants.iter().any(|n| n == "crash"));
        assert!(instants.iter().any(|n| n == "timeout"));
    }

    #[test]
    fn recorded_span_names_are_formatted_per_message() {
        // The link and send labels come out of one reused buffer; two
        // interleaved messages over both switching disciplines must
        // still name every hop and every send after their own endpoints.
        for cfg in [presets::delta(1, 4), presets::delta_store_and_forward(1, 4)] {
            let rec = Rc::new(hpcc_trace::MemRecorder::new());
            let m = Machine::new(cfg);
            m.run_recorded(&FaultPlan::none(), rec.clone(), |node| async move {
                match node.rank() {
                    0 => node.send_virtual(3, 1, 4096).await,
                    2 => node.send_virtual(1, 1, 4096).await,
                    3 => drop(node.recv(Some(0), Some(1)).await),
                    1 => drop(node.recv(Some(2), Some(1)).await),
                    _ => {}
                }
            });
            let mut spans: Vec<(&'static str, String)> = rec
                .events()
                .iter()
                .filter_map(|e| match e {
                    hpcc_trace::Event::Span { cat, name, .. }
                        if *cat == "link" || *cat == "send" =>
                    {
                        Some((*cat, name.clone()))
                    }
                    _ => None,
                })
                .collect();
            spans.sort();
            let want = [
                ("link", "0->3"),
                ("link", "0->3"),
                ("link", "0->3"),
                ("link", "2->1"),
                ("send", "send->1"),
                ("send", "send->3"),
            ];
            let got: Vec<(&str, &str)> = spans.iter().map(|(c, n)| (*c, n.as_str())).collect();
            assert_eq!(got, want);
        }
    }

    /// Property: attaching a recorder never perturbs the simulation —
    /// sim time, event count, and message count are bit-identical for
    /// any machine shape and message size (16 cases; case `c` draws from
    /// `Rng::new(0x2EC0_002D ^ c)` and prints its inputs first).
    #[test]
    fn recorded_run_never_perturbs_simulation() {
        for case in 0..16 {
            let mut rng = des::rng::Rng::new(0x2EC0_002D ^ case);
            let rows = rng.range_u64(1, 2) as usize;
            let cols = rng.range_u64(2, 4) as usize;
            let kb = rng.range_u64(1, 63);
            println!("case {case}: rows {rows} cols {cols} kb {kb}");
            let program = move |node: Node| async move {
                let n = node.nranks();
                let next = (node.rank() + 1) % n;
                let prev = (node.rank() + n - 1) % n;
                node.send_virtual(next, 1, kb * 1024).await;
                node.recv(Some(prev), Some(1)).await;
                node.compute(Kernel::Stencil, 1e6).await;
                node.now()
            };
            let m = Machine::new(presets::delta(rows, cols));
            let (out_a, a) = m.run(program);
            let rec = Rc::new(hpcc_trace::MemRecorder::new());
            let (out_b, b) = m.run_recorded(&FaultPlan::none(), rec.clone(), program);
            assert_eq!(
                out_a,
                out_b.into_iter().map(Option::unwrap).collect::<Vec<_>>()
            );
            assert_eq!(a.elapsed, b.elapsed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.bytes, b.bytes);
            assert!(!rec.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "expected F64 payload, got 64 bytes")]
    fn payload_type_panic_message_preserved() {
        let _ = Payload::Virtual(64).into_f64s();
    }

    #[test]
    fn payload_type_error_is_typed() {
        assert_eq!(
            Payload::Virtual(64).try_into_f64s(),
            Err(CommError::PayloadType { got_bytes: 64 })
        );
        assert_eq!(
            Payload::from_f64s(&[1.0]).try_as_f64s().unwrap(),
            &[1.0][..]
        );
    }

    /// `F64s` reads as its source slice at every length around the inline
    /// limit; up to the limit the doubles live inside the value (so a
    /// clone cannot allocate), past it a clone shares the allocation, as
    /// does a conversion from and back to an `Arc`.
    #[test]
    fn f64s_equals_its_source_slice_inline_or_shared() {
        let source = [1.5, -2.0, 3.25, 4.0, 5.5];
        for len in 0..=source.len() {
            let xs = F64s::from(&source[..len]);
            assert_eq!(*xs, source[..len]);
            assert_eq!(Payload::F64(xs.clone()).len_bytes(), 8 * len as u64);
            let copy = xs.clone();
            assert_eq!(copy, xs);
            let value = std::ptr::from_ref(&copy) as usize;
            let held_in_place =
                (value..value + size_of::<F64s>()).contains(&(copy.as_ptr() as usize));
            assert_eq!(held_in_place, len <= F64s::INLINE, "len {len}");
            if len > F64s::INLINE {
                assert_eq!(copy.as_ptr(), xs.as_ptr(), "a clone shares");
            }
            let arc: Arc<[f64]> = Arc::from(&source[..len]);
            let back: Arc<[f64]> = F64s::from(Arc::clone(&arc)).into();
            assert!(Arc::ptr_eq(&arc, &back), "len {len}");
            assert_eq!(*Arc::<[f64]>::from(xs), source[..len]);
        }
    }

    /// A message, inline doubles included, is one cache line: it is moved
    /// through the calendar, the mailboxes and the wait slots by value.
    #[test]
    fn msg_fits_a_cache_line() {
        assert!(size_of::<Msg>() <= 64, "{} bytes", size_of::<Msg>());
    }
}
