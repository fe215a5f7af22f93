//! Flow-level dynamics: transfers share the network under max-min
//! fairness, recomputed at every arrival and completion.
//!
//! This is the standard fluid approximation for long file transfers —
//! appropriate for the consortium's workload (staging input decks and
//! retrieving result fields from the Delta). An optional per-flow TCP
//! window cap (`rate ≤ window / RTT`) models the era's protocol limit,
//! which is what made "gigabit testbeds" a research program rather than
//! a procurement.

use crate::engine::{Engine, EntryId, FlowConfig, SolverStats};
use crate::graph::{Net, Route, RouteCache, RouteStats};
use crate::link::SiteId;
use des::time::{Dur, SimTime};
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};
use std::collections::HashMap;
use std::fmt;

/// One requested transfer.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    pub src: SiteId,
    pub dst: SiteId,
    pub bytes: u64,
    pub start: SimTime,
    /// TCP window in bytes; `None` disables the protocol cap.
    pub window: Option<u64>,
}

impl TransferSpec {
    pub fn new(src: SiteId, dst: SiteId, bytes: u64, start: SimTime) -> TransferSpec {
        TransferSpec {
            src,
            dst,
            bytes,
            start,
            window: None,
        }
    }

    pub fn with_window(mut self, window: u64) -> TransferSpec {
        self.window = Some(window);
        self
    }
}

/// Outcome of one transfer.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    pub spec: TransferSpec,
    pub hops: usize,
    pub path_latency: Dur,
    pub started: SimTime,
    pub finished: SimTime,
}

impl FlowRecord {
    pub fn duration(&self) -> Dur {
        self.finished - self.started
    }
}

/// A scheduled outage of one (undirected) link: down at `down_at`,
/// repaired at `up_at`. An `up_at` of [`SimTime::MAX`] means the link
/// is never repaired.
#[derive(Debug, Clone, Copy)]
pub struct LinkFault {
    pub link: usize,
    pub down_at: SimTime,
    pub up_at: SimTime,
}

/// A transfer batch rejected before simulation started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// No path exists between the endpoints even on the healthy network.
    Unroutable {
        index: usize,
        src: String,
        dst: String,
    },
    /// Source and destination are the same site.
    SelfTransfer { index: usize, site: String },
    /// Link fault `index` names a link the net does not have, or is not
    /// repaired after it goes down.
    InvalidFault { index: usize },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Unroutable { index, src, dst } => write!(
                f,
                "transfer #{index} is unroutable: no path between {src} and {dst}"
            ),
            FlowError::SelfTransfer { index, site } => {
                write!(f, "transfer #{index} is a self-transfer at {site}")
            }
            FlowError::InvalidFault { index } => write!(
                f,
                "link fault #{index} names no link of the net or is not repaired after its outage"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

/// Outcome of one transfer under a fault schedule.
#[derive(Debug, Clone)]
pub enum FlowOutcome {
    Completed(FlowRecord),
    /// The flow's endpoints were partitioned and no later repair
    /// reconnected them before the run ended.
    Stalled {
        spec: TransferSpec,
        /// When the flow first started moving bytes, if it ever did.
        started: Option<SimTime>,
        /// Bytes delivered before the partition.
        delivered: f64,
        /// When the flow (last) lost its route.
        stalled_at: SimTime,
    },
}

impl FlowOutcome {
    pub fn completed(&self) -> Option<&FlowRecord> {
        match self {
            FlowOutcome::Completed(r) => Some(r),
            FlowOutcome::Stalled { .. } => None,
        }
    }

    pub fn is_stalled(&self) -> bool {
        matches!(self, FlowOutcome::Stalled { .. })
    }
}

struct Parked {
    id: usize,
    remaining: f64,
    started: Option<SimTime>,
    since: SimTime,
}

/// One link state transition derived from a [`LinkFault`].
struct Transition {
    at: SimTime,
    link: usize,
    down: bool,
}

/// Max-min fair rates via progressive filling with per-flow caps.
///
/// `flows` supplies each flow's directed-link list and its rate cap.
/// Returns one rate per flow. Runs in O(rounds × flows × hops): every
/// round walks each unfrozen flow's links (and every link once) and
/// freezes at least one flow, so there are at most `flows` rounds.
pub fn maxmin_rates(net: &Net, flows: &[(&[usize], f64)]) -> Vec<f64> {
    let n = flows.len();
    let mut rate = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut residual = vec![0.0f64; net.dir_links()];
    for (d, r) in residual.iter_mut().enumerate() {
        *r = net.capacity(d);
    }
    // Flows with no links (degenerate) are frozen at their cap.
    for (i, (dirs, cap)) in flows.iter().enumerate() {
        if dirs.is_empty() {
            rate[i] = *cap;
            frozen[i] = true;
        }
    }
    let mut unfrozen = frozen.iter().filter(|&&f| !f).count();
    let mut counts = vec![0u32; net.dir_links()];
    while unfrozen > 0 {
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, (dirs, _)) in flows.iter().enumerate() {
            if !frozen[i] {
                for &d in *dirs {
                    counts[d] += 1;
                }
            }
        }
        // The uniform increment every unfrozen flow can still take.
        let mut inc = f64::INFINITY;
        for d in 0..net.dir_links() {
            if counts[d] > 0 {
                inc = inc.min(residual[d].max(0.0) / counts[d] as f64);
            }
        }
        for (i, (_, cap)) in flows.iter().enumerate() {
            if !frozen[i] {
                inc = inc.min(cap - rate[i]);
            }
        }
        if !inc.is_finite() {
            break;
        }
        let inc = inc.max(0.0);
        for (i, (dirs, _)) in flows.iter().enumerate() {
            if !frozen[i] {
                rate[i] += inc;
                for &d in *dirs {
                    residual[d] -= inc;
                }
            }
        }
        // Freeze flows at their cap or on a saturated link.
        let mut any = false;
        for (i, (dirs, cap)) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let capped = rate[i] >= cap - 1e-9 * cap.max(1.0);
            let saturated = dirs
                .iter()
                .any(|&d| residual[d] <= 1e-9 * net.capacity(d).max(1.0));
            if capped || saturated {
                frozen[i] = true;
                unfrozen -= 1;
                any = true;
            }
        }
        if !any {
            // Numerical stall: freeze everything rather than loop.
            break;
        }
    }
    rate
}

/// Network-side statistics of one simulated batch.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Bytes carried per directed link over the run.
    pub carried: Vec<f64>,
    /// Time of the last completion.
    pub makespan: des::time::SimTime,
    /// How hard the incremental solver worked.
    pub solver: SolverStats,
    /// Route lookups and Dijkstra runs, validation included.
    pub routing: RouteStats,
}

impl NetStats {
    /// Mean utilisation of a directed link over the run.
    pub fn utilization(&self, net: &Net, dir: usize) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.carried[dir] / (net.capacity(dir) * secs)
    }
}

/// Indexed min-heap of entry completion timers: one node per armed
/// entry, updated in place when the solver re-rates it. An append-only
/// heap with lazy invalidation grows by the affected-set size on every
/// event — across a million-flow run that is 10^8 stale nodes and
/// gigabytes of dead timers — while this one stays O(live entries).
///
/// Nodes order by (due, epoch, entry): the epoch tie-break reproduces
/// the pop order of the lazy heap this replaced, so schedules are
/// unchanged bit for bit.
struct DueHeap {
    nodes: Vec<(SimTime, u64, EntryId)>,
    /// Entry slot -> node index; `usize::MAX` when unarmed.
    pos: Vec<usize>,
}

impl DueHeap {
    fn new() -> DueHeap {
        DueHeap {
            nodes: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn peek(&self) -> Option<(SimTime, u64, EntryId)> {
        self.nodes.first().copied()
    }

    /// Arm (or re-arm) entry `e` at due time `t`.
    fn set(&mut self, e: EntryId, t: SimTime, ep: u64) {
        if e >= self.pos.len() {
            self.pos.resize(e + 1, usize::MAX);
        }
        let i = self.pos[e];
        if i == usize::MAX {
            self.pos[e] = self.nodes.len();
            self.nodes.push((t, ep, e));
            self.sift_up(self.nodes.len() - 1);
        } else {
            self.nodes[i] = (t, ep, e);
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    /// Disarm entry `e`, if armed.
    fn remove(&mut self, e: EntryId) {
        let Some(&i) = self.pos.get(e) else { return };
        if i == usize::MAX {
            return;
        }
        self.pos[e] = usize::MAX;
        self.nodes.swap_remove(i);
        if i < self.nodes.len() {
            self.pos[self.nodes[i].2] = i;
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let p = (i - 1) / 2;
            if self.nodes[i] < self.nodes[p] {
                self.nodes.swap(i, p);
                self.pos[self.nodes[i].2] = i;
                self.pos[self.nodes[p].2] = p;
                i = p;
            } else {
                break;
            }
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= self.nodes.len() {
                break;
            }
            let c = if l + 1 < self.nodes.len() && self.nodes[l + 1] < self.nodes[l] {
                l + 1
            } else {
                l
            };
            if self.nodes[c] < self.nodes[i] {
                self.nodes.swap(c, i);
                self.pos[self.nodes[i].2] = i;
                self.pos[self.nodes[c].2] = c;
                i = c;
            } else {
                break;
            }
        }
    }
}

/// Event-driven fluid simulation of a batch of transfers.
pub struct FlowSim<'a> {
    net: &'a Net,
    cfg: FlowConfig,
}

impl<'a> FlowSim<'a> {
    pub fn new(net: &'a Net) -> FlowSim<'a> {
        FlowSim {
            net,
            cfg: FlowConfig::default(),
        }
    }

    /// Pick the full re-solve fraction, the short-flow aggregation
    /// threshold and the reference cross-check (see [`FlowConfig`]).
    pub fn with_config(net: &'a Net, cfg: FlowConfig) -> FlowSim<'a> {
        FlowSim { net, cfg }
    }

    /// Closed-form time for a single transfer on an idle network:
    /// propagation + bytes over the (possibly window-capped) bottleneck.
    pub fn single_flow_time(&self, spec: &TransferSpec) -> Option<Dur> {
        let route = self.net.route(spec.src, spec.dst)?;
        let mut rate = self.net.bottleneck(&route);
        if let Some(w) = spec.window {
            let rtt = (route.latency * 2).as_secs_f64().max(1e-9);
            rate = rate.min(w as f64 / rtt);
        }
        Some(route.latency + Dur::from_secs_f64(spec.bytes as f64 / rate))
    }

    /// Validate a batch against the healthy network: every spec must
    /// join two distinct, connected sites. Returns the first offender
    /// with both site names spelled out.
    pub fn check(&self, specs: &[TransferSpec]) -> Result<(), FlowError> {
        self.check_cached(specs, &mut RouteCache::new())
    }

    /// [`FlowSim::check`] through `cache`, which it leaves holding every
    /// spec's healthy-network route.
    fn check_cached(
        &self,
        specs: &[TransferSpec],
        cache: &mut RouteCache,
    ) -> Result<(), FlowError> {
        for (index, s) in specs.iter().enumerate() {
            if s.src == s.dst {
                return Err(FlowError::SelfTransfer {
                    index,
                    site: self.net.name(s.src).to_string(),
                });
            }
            if cache.route(self.net, s.src, s.dst, &[]).is_none() {
                return Err(FlowError::Unroutable {
                    index,
                    src: self.net.name(s.src).to_string(),
                    dst: self.net.name(s.dst).to_string(),
                });
            }
        }
        Ok(())
    }

    /// Run the transfer batch to completion; records are returned in the
    /// order the specs were given. Panics (with the [`FlowError`]
    /// message) if any spec is unroutable — [`FlowSim::run_with_faults`]
    /// with no outages returns the error instead.
    pub fn run(&self, specs: Vec<TransferSpec>) -> Vec<FlowRecord> {
        self.run_with_stats(specs).0
    }

    /// Like [`FlowSim::run`], also returning per-link carriage stats.
    pub fn run_with_stats(&self, specs: Vec<TransferSpec>) -> (Vec<FlowRecord>, NetStats) {
        self.try_run_with_stats(specs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_run_with_stats(
        &self,
        specs: Vec<TransferSpec>,
    ) -> Result<(Vec<FlowRecord>, NetStats), FlowError> {
        let (outcomes, stats) = self.run_with_faults(specs, &[])?;
        let records = outcomes
            .into_iter()
            .map(|o| match o {
                FlowOutcome::Completed(r) => r,
                FlowOutcome::Stalled { .. } => unreachable!("no faults, no stalls"),
            })
            .collect();
        Ok((records, stats))
    }

    /// Run the batch under a schedule of link outages. Flows whose route
    /// crosses a failing link are re-routed (Dijkstra over the surviving
    /// links); flows whose endpoints are partitioned park until a repair
    /// reconnects them, and finish as [`FlowOutcome::Stalled`] if none
    /// does. Active flows keep their detour after a repair — routes stay
    /// pinned, as 1992 static routing did. A spec that [`FlowSim::check`]
    /// rejects, or a fault on a link the net does not have or repaired
    /// no later than it goes down, is an `Err` before any event runs.
    pub fn run_with_faults(
        &self,
        specs: Vec<TransferSpec>,
        faults: &[LinkFault],
    ) -> Result<(Vec<FlowOutcome>, NetStats), FlowError> {
        self.run_with_faults_recorded(specs, faults, &NullRecorder)
    }

    /// [`FlowSim::run_with_faults`] under a [`Recorder`]: each flow gets a
    /// lifecycle track ("wan flows"), each directed link a rate-counter
    /// track ("wan links"). The recorder observes timestamps the solver
    /// already computed, so recorded runs are bit-identical to plain ones.
    pub fn run_with_faults_recorded(
        &self,
        mut specs: Vec<TransferSpec>,
        faults: &[LinkFault],
        rec: &dyn Recorder,
    ) -> Result<(Vec<FlowOutcome>, NetStats), FlowError> {
        // The one validation of the batch; the routes it finds stay in
        // the cache, whose mask (all links up) is the loop's initial one.
        let mut cache = RouteCache::new();
        self.check_cached(&specs, &mut cache)?;
        let links = self.net.links().len();
        if let Some(index) = faults
            .iter()
            .position(|f| f.link >= links || f.down_at >= f.up_at)
        {
            return Err(FlowError::InvalidFault { index });
        }
        let rec_on = rec.is_enabled();
        let flow_track: Vec<TrackId> = if rec_on {
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    rec.track(
                        names::WAN_FLOWS,
                        &format!(
                            "flow {i} {}->{}",
                            self.net.name(s.src),
                            self.net.name(s.dst)
                        ),
                    )
                })
                .collect()
        } else {
            vec![0; specs.len()]
        };
        let link_track: Vec<TrackId> = if rec_on {
            (0..self.net.dir_links())
                .map(|d| {
                    let l = &self.net.links()[d / 2];
                    let (from, to) = if d % 2 == 0 { (l.a, l.b) } else { (l.b, l.a) };
                    rec.track(
                        names::WAN_LINKS,
                        &format!("{}->{}", self.net.name(from), self.net.name(to)),
                    )
                })
                .collect()
        } else {
            vec![0; self.net.dir_links()]
        };
        let mut last_rate = vec![0.0f64; self.net.dir_links()];
        let solver_track = if rec_on {
            rec.track(names::WAN_SOLVER, "dirty set")
        } else {
            0
        };
        let mut last_full_resolves = 0u64;
        let mut trans: Vec<Transition> = Vec::with_capacity(2 * faults.len());
        for f in faults {
            trans.push(Transition {
                at: f.down_at,
                link: f.link,
                down: true,
            });
            if f.up_at != SimTime::MAX {
                trans.push(Transition {
                    at: f.up_at,
                    link: f.link,
                    down: false,
                });
            }
        }
        // Repairs before outages at equal times, then by link id: the
        // schedule is a total order, so replays are bit-identical.
        trans.sort_by_key(|t| (t.at, t.down, t.link));
        let mut down = vec![false; self.net.links().len()];
        let mut down_count = vec![0u32; self.net.links().len()];

        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..specs.len()).collect();
            idx.sort_by_key(|&i| (specs[i].start, i));
            idx
        };
        let mut records: Vec<Option<FlowRecord>> = specs.iter().map(|_| None).collect();
        let mut parked: Vec<Parked> = Vec::new();
        let mut next = 0usize;
        let mut ti = 0usize;
        let mut now;
        let mut engine = Engine::new(self.net, &self.cfg);
        let mut open_aggs: HashMap<(SiteId, SiteId, Option<u64>), EntryId> = HashMap::new();
        let mut heap = DueHeap::new();
        let mut out_scratch: Vec<EntryId> = Vec::new();
        let mut repush: Vec<EntryId> = Vec::new();
        let mut on_link: Vec<EntryId> = Vec::new();
        let mut events: u64 = 0;

        let window_cap = |window: Option<u64>, route: &Route| match window {
            Some(w) => {
                let rtt = (route.latency * 2).as_secs_f64().max(1e-9);
                w as f64 / rtt
            }
            None => f64::INFINITY,
        };

        loop {
            if engine.live_entries() == 0 && next >= order.len() && ti >= trans.len() {
                break;
            }
            // Earliest completion under current (constant) rates. Heap
            // nodes are kept current in place, so the head is valid.
            let finish = heap.peek().map(|(t, _, _)| t);
            let arrival = (next < order.len()).then(|| specs[order[next]].start);
            let transition = (ti < trans.len()).then(|| trans[ti].at);

            // Tie-break at equal times: transition, then arrival, then
            // finish — an outage is in effect before a flow routes over
            // it. (With no faults this is the original arrival<=finish
            // rule, so zero-fault runs are bit-identical.)
            #[derive(PartialEq)]
            enum Kind {
                Finish,
                Arrival,
                Transition,
            }
            let mut pick: Option<(SimTime, Kind)> = finish.map(|f| (f, Kind::Finish));
            if let Some(a) = arrival {
                if pick.as_ref().is_none_or(|(t, _)| a <= *t) {
                    pick = Some((a, Kind::Arrival));
                }
            }
            if let Some(tr) = transition {
                if pick.as_ref().is_none_or(|(t, _)| tr <= *t) {
                    pick = Some((tr, Kind::Transition));
                }
            }
            let (t, kind) = match pick {
                Some(p) => p,
                None => break,
            };

            // No eager drain: entries sync lazily when their rate or
            // membership changes, so an event costs O(affected set).
            now = t;
            events += 1;

            match kind {
                Kind::Transition => {
                    while ti < trans.len() && trans[ti].at <= now {
                        let tr = &trans[ti];
                        ti += 1;
                        if tr.down {
                            down_count[tr.link] += 1;
                            down[tr.link] = true;
                        } else {
                            down_count[tr.link] -= 1;
                            down[tr.link] = down_count[tr.link] > 0;
                        }
                        // Memoized routes and open aggregates assume a
                        // fixed outage mask.
                        cache.invalidate();
                        open_aggs.clear();
                        if rec_on {
                            let name = if tr.down { "down" } else { "up" };
                            rec.instant(link_track[2 * tr.link], "fault", name, now.nanos());
                        }
                        if tr.down {
                            // Re-route live flows off the dead link; park
                            // the ones the outage partitions.
                            engine.entries_on_link(tr.link, &mut on_link);
                            for &e in on_link.iter() {
                                let (src, dst, window) = engine.key(e);
                                match cache.route(self.net, src, dst, &down) {
                                    Some(route) => {
                                        let cap = window_cap(window, &route);
                                        engine.reroute(e, route, cap, now);
                                        if rec_on {
                                            for m in engine.members(e) {
                                                rec.instant(
                                                    flow_track[m.flow as usize],
                                                    "fault",
                                                    "reroute",
                                                    now.nanos(),
                                                );
                                            }
                                        }
                                    }
                                    None => {
                                        if rec_on {
                                            for m in engine.members(e) {
                                                rec.instant(
                                                    flow_track[m.flow as usize],
                                                    "fault",
                                                    "parked",
                                                    now.nanos(),
                                                );
                                            }
                                        }
                                        engine.drain_members(e, now, |flow, rem, started| {
                                            parked.push(Parked {
                                                id: flow as usize,
                                                remaining: rem,
                                                started: Some(started),
                                                since: now,
                                            });
                                        });
                                        heap.remove(e);
                                        engine.remove_entry(e, now);
                                    }
                                }
                            }
                        } else {
                            // A repair may reconnect parked flows: one
                            // stable pass, reviving in parked order (entry
                            // ids and the roster order depend on it).
                            parked.retain(|p| {
                                let spec = &specs[p.id];
                                match cache.route(self.net, spec.src, spec.dst, &down) {
                                    Some(route) => {
                                        if rec_on {
                                            rec.span(
                                                flow_track[p.id],
                                                "parked",
                                                "parked",
                                                p.since.nanos(),
                                                now.nanos(),
                                            );
                                            rec.instant(
                                                flow_track[p.id],
                                                "fault",
                                                "revive",
                                                now.nanos(),
                                            );
                                        }
                                        let cap = window_cap(spec.window, &route);
                                        engine.insert(
                                            route,
                                            spec.src,
                                            spec.dst,
                                            spec.window,
                                            cap,
                                            p.remaining,
                                            p.id as u32,
                                            p.started.unwrap_or(now),
                                            now,
                                        );
                                        false
                                    }
                                    None => true,
                                }
                            });
                        }
                    }
                }
                Kind::Arrival => {
                    while next < order.len() && specs[order[next]].start <= now {
                        let id = order[next];
                        next += 1;
                        let spec = &specs[id];
                        match cache.route(self.net, spec.src, spec.dst, &down) {
                            Some(route) => {
                                if rec_on {
                                    rec.instant(flow_track[id], "fault", "start", now.nanos());
                                }
                                let cap = window_cap(spec.window, &route);
                                let key = (spec.src, spec.dst, spec.window);
                                let agg = spec.bytes < self.cfg.aggregate_below;
                                // Short flows pile into the open aggregate
                                // for their route, if one is live.
                                let joined = agg
                                    && match open_aggs.get(&key) {
                                        Some(&e) if engine.alive(e) => {
                                            engine.join(e, spec.bytes as f64, id as u32, now, now);
                                            true
                                        }
                                        _ => false,
                                    };
                                if !joined {
                                    let e = engine.insert(
                                        route,
                                        spec.src,
                                        spec.dst,
                                        spec.window,
                                        cap,
                                        spec.bytes as f64,
                                        id as u32,
                                        now,
                                        now,
                                    );
                                    if agg {
                                        open_aggs.insert(key, e);
                                    }
                                }
                            }
                            None => {
                                if rec_on {
                                    rec.instant(flow_track[id], "fault", "parked", now.nanos());
                                }
                                parked.push(Parked {
                                    id,
                                    remaining: spec.bytes as f64,
                                    started: None,
                                    since: now,
                                });
                            }
                        }
                    }
                }
                Kind::Finish => {
                    // Record and drop every due member (remaining ~ 0).
                    while let Some((t, _ep, e)) = heap.peek() {
                        if t > now {
                            break;
                        }
                        heap.remove(e);
                        engine.sync(e, now);
                        let (hops, path_latency) = engine.route_info(e);
                        let mut popped = false;
                        while let Some(rem) = engine.peek_rem(e) {
                            // Done when less than ~2 ns of work remains at
                            // the current rate (sub-clock-tick residue).
                            let done_below = (engine.rate(e) * 2e-9).max(1e-6);
                            if rem > done_below {
                                break;
                            }
                            let m = engine.pop_member(e);
                            popped = true;
                            let id = m.flow as usize;
                            records[id] = Some(FlowRecord {
                                spec: specs[id].clone(),
                                hops,
                                path_latency,
                                started: m.started,
                                // Last byte still has to propagate.
                                finished: now + path_latency,
                            });
                            if rec_on {
                                rec.span(
                                    flow_track[id],
                                    "flow",
                                    "xfer",
                                    m.started.nanos(),
                                    (now + path_latency).nanos(),
                                );
                            }
                        }
                        if engine.member_count(e) == 0 {
                            let key = engine.key(e);
                            if open_aggs.get(&key) == Some(&e) {
                                open_aggs.remove(&key);
                            }
                            engine.remove_entry(e, now);
                        } else if !popped {
                            // Timer fired a hair early (float residue):
                            // re-arm without touching the allocation.
                            repush.push(e);
                        }
                    }
                }
            }

            // Re-solve the fair allocation for the affected subset and
            // re-arm completion timers for everything that changed.
            engine.resolve(self.net, now, &mut out_scratch);
            for &e in out_scratch.iter().chain(&repush) {
                match engine.due(e) {
                    Some((t, ep)) => heap.set(e, t, ep),
                    None => heap.remove(e),
                }
            }
            repush.clear();
            // Sample per-link aggregate rate whenever the allocation
            // changed: Perfetto renders these as step counters. Only
            // links the solver touched can have moved.
            if rec_on {
                if engine.stats.last_dirty > 0 {
                    rec.counter(
                        solver_track,
                        "dirty",
                        now.nanos(),
                        engine.stats.last_dirty as f64,
                    );
                }
                // Step the cumulative fallback counter only when a full
                // resolve actually happened — a flat line would drown
                // the interesting edges in Perfetto.
                if engine.stats.full_resolves != last_full_resolves {
                    last_full_resolves = engine.stats.full_resolves;
                    rec.counter(
                        solver_track,
                        "full_resolves",
                        now.nanos(),
                        last_full_resolves as f64,
                    );
                }
                for &d in engine.touched_dirs() {
                    let a = engine.load(d);
                    if (a - last_rate[d]).abs() > 1e-6 {
                        rec.counter(link_track[d], "rate_mbps", now.nanos(), a / 1e6);
                        last_rate[d] = a;
                    }
                }
            }
        }
        let makespan = records
            .iter()
            .flatten()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        // Exactly the unfinished flows are parked, each once: sorted by
        // id, the parked list lines up with the unfinished records.
        parked.sort_unstable_by_key(|p| p.id);
        let mut parked = parked.into_iter();
        let outcomes: Vec<FlowOutcome> = records
            .into_iter()
            .enumerate()
            .map(|(id, r)| match r {
                Some(rec) => FlowOutcome::Completed(rec),
                None => {
                    let p = parked.next().expect("unfinished flow is parked");
                    assert_eq!(p.id, id, "unfinished flow is parked");
                    if rec_on {
                        rec.instant(flow_track[id], "fault", "stalled", p.since.nanos());
                    }
                    FlowOutcome::Stalled {
                        spec: specs[id].clone(),
                        started: p.started,
                        delivered: specs[id].bytes as f64 - p.remaining,
                        stalled_at: p.since,
                    }
                }
            })
            .collect();
        specs.clear();
        let mut solver = engine.stats;
        solver.events = events;
        let carried = engine.into_carried();
        Ok((
            outcomes,
            NetStats {
                carried,
                makespan,
                solver,
                routing: cache.stats(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    impl NetStats {
        /// The `k` busiest directed links as (dir, bytes), descending.
        fn busiest(&self, k: usize) -> Vec<(usize, f64)> {
            let mut v: Vec<(usize, f64)> = self
                .carried
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, b)| *b > 0.0)
                .collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1));
            v.truncate(k);
            v
        }
    }

    fn dumbbell() -> (Net, SiteId, SiteId, SiteId, SiteId) {
        // a --\            /-- c
        //      m1 == T1 == m2
        // b --/            \-- d
        let mut net = Net::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        let c = net.add_site("c");
        let d = net.add_site("d");
        let m1 = net.add_site("m1");
        let m2 = net.add_site("m2");
        let fast = LinkClass::Fddi;
        net.add_link(a, m1, fast, Dur::from_millis(1));
        net.add_link(b, m1, fast, Dur::from_millis(1));
        net.add_link(c, m2, fast, Dur::from_millis(1));
        net.add_link(d, m2, fast, Dur::from_millis(1));
        net.add_link(m1, m2, LinkClass::T1, Dur::from_millis(20));
        (net, a, b, c, d)
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let (net, a, _, c, _) = dumbbell();
        let sim = FlowSim::new(&net);
        let bytes = 1_000_000;
        let recs = sim.run(vec![TransferSpec::new(a, c, bytes, SimTime::ZERO)]);
        let expect = bytes as f64 / LinkClass::T1.bytes_per_sec();
        let got = recs[0].duration().as_secs_f64();
        // duration includes path latency (22 ms both ways of measurement)
        assert!(
            (got - expect).abs() / expect < 0.02,
            "got {got} want ~{expect}"
        );
    }

    #[test]
    fn closed_form_matches_simulation_for_single_flow() {
        let (net, a, _, c, _) = dumbbell();
        let sim = FlowSim::new(&net);
        let spec = TransferSpec::new(a, c, 5_000_000, SimTime::ZERO);
        let analytic = sim.single_flow_time(&spec).unwrap();
        let recs = sim.run(vec![spec]);
        let simd = recs[0].finished - recs[0].started;
        let err = (analytic.as_secs_f64() - simd.as_secs_f64()).abs() / analytic.as_secs_f64();
        assert!(err < 0.01, "analytic {analytic} vs sim {simd}");
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let bytes = 2_000_000;
        let recs = sim.run(vec![
            TransferSpec::new(a, c, bytes, SimTime::ZERO),
            TransferSpec::new(b, d, bytes, SimTime::ZERO),
        ]);
        // Equal demands on the shared T1: both take ~2x the solo time.
        let solo = bytes as f64 / LinkClass::T1.bytes_per_sec();
        for r in &recs {
            let got = r.duration().as_secs_f64();
            assert!(
                (got - 2.0 * solo).abs() / (2.0 * solo) < 0.05,
                "got {got}, want ~{}",
                2.0 * solo
            );
        }
    }

    #[test]
    fn finished_flow_releases_bandwidth() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let small = 500_000;
        let big = 4_000_000;
        let recs = sim.run(vec![
            TransferSpec::new(a, c, small, SimTime::ZERO),
            TransferSpec::new(b, d, big, SimTime::ZERO),
        ]);
        // While both run, each gets half; after the small one drains the
        // big one speeds up. Expected drain time for big flow:
        // small drains at t1 = 2*small/C; big then has big - small left at C.
        let cap = LinkClass::T1.bytes_per_sec();
        let expect = (2.0 * small as f64 / cap) + (big - small) as f64 / cap;
        let got = recs[1].duration().as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got} want {expect}"
        );
    }

    #[test]
    fn window_cap_limits_long_fat_pipe() {
        // HIPPI coast-to-coast: 800 Mb/s but 30 ms one-way. A 64 KB TCP
        // window caps the rate at w/RTT ~= 1.09 MB/s — the era's lesson.
        let mut net = Net::new();
        let x = net.add_site("x");
        let y = net.add_site("y");
        net.add_link(x, y, LinkClass::HippiSonet800, Dur::from_millis(30));
        let sim = FlowSim::new(&net);
        let bytes = 10_000_000;
        let capped = sim.run(vec![
            TransferSpec::new(x, y, bytes, SimTime::ZERO).with_window(64 * 1024)
        ]);
        let uncapped = sim.run(vec![TransferSpec::new(x, y, bytes, SimTime::ZERO)]);
        let w_rate = 64.0 * 1024.0 / 0.060;
        let capped_expect = bytes as f64 / w_rate;
        let got = capped[0].duration().as_secs_f64();
        assert!(
            (got - capped_expect).abs() / capped_expect < 0.05,
            "got {got} want {capped_expect}"
        );
        assert!(
            capped[0].duration().as_secs_f64() > 50.0 * uncapped[0].duration().as_secs_f64(),
            "window cap must dominate on a long fat pipe"
        );
    }

    #[test]
    fn staggered_arrivals() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let cap = LinkClass::T1.bytes_per_sec();
        // Flow 1 alone for 5 s, then flow 2 joins.
        let recs = sim.run(vec![
            TransferSpec::new(a, c, (10.0 * cap) as u64, SimTime::ZERO),
            TransferSpec::new(b, d, (1.0 * cap) as u64, SimTime::from_secs_f64(5.0)),
        ]);
        // Flow 2 shares: rate cap/2 -> 2 s to move 1 s worth.
        let d2 = recs[1].duration().as_secs_f64();
        assert!((d2 - 2.0).abs() < 0.1, "flow2 {d2}");
        // Flow 1: 5 s alone (5 cap) + 2 s shared (1 cap) + 4 s alone = 11 s.
        let d1 = recs[0].duration().as_secs_f64();
        assert!((d1 - 11.0).abs() < 0.2, "flow1 {d1}");
    }

    #[test]
    fn maxmin_respects_caps_and_capacity() {
        let (net, a, b, c, d) = dumbbell();
        let ra = net.route(a, c).unwrap();
        let rb = net.route(b, d).unwrap();
        let cap_t1 = LinkClass::T1.bytes_per_sec();
        // Flow A capped well below fair share; flow B takes the rest.
        let rates = maxmin_rates(
            &net,
            &[
                (ra.dirs.as_slice(), cap_t1 * 0.1),
                (rb.dirs.as_slice(), f64::INFINITY),
            ],
        );
        assert!((rates[0] - cap_t1 * 0.1).abs() < 1.0);
        assert!((rates[1] - cap_t1 * 0.9).abs() / cap_t1 < 0.01);
        // Total never exceeds capacity.
        assert!(rates[0] + rates[1] <= cap_t1 * 1.0001);
    }

    #[test]
    fn stats_account_all_bytes() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let (recs, stats) = sim.run_with_stats(vec![
            TransferSpec::new(a, c, 1_000_000, SimTime::ZERO),
            TransferSpec::new(b, d, 500_000, SimTime::ZERO),
        ]);
        assert_eq!(recs.len(), 2);
        // Both flows cross the shared T1 in the same direction: the link
        // must have carried the sum (allowing sub-ns residue).
        let (busiest, bytes) = stats.busiest(1)[0];
        assert!((bytes - 1_500_000.0).abs() < 1.0, "carried {bytes}");
        let util = stats.utilization(&net, busiest);
        assert!(util > 0.9 && util <= 1.0001, "bottleneck util {util}");
    }

    #[test]
    fn background_traffic_slows_staging() {
        // The consortium staging story under load: background flows on
        // the shared backbone stretch a foreground transfer.
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let fg = TransferSpec::new(a, c, 2_000_000, SimTime::ZERO);
        let quiet = sim.run(vec![fg.clone()])[0].duration();
        let bg: Vec<TransferSpec> = (0..3)
            .map(|_| TransferSpec::new(b, d, 50_000_000, SimTime::ZERO))
            .collect();
        let mut all = vec![fg];
        all.extend(bg);
        let busy = sim.run(all)[0].duration();
        let ratio = busy.as_secs_f64() / quiet.as_secs_f64();
        assert!(
            (3.5..4.5).contains(&ratio),
            "4 equal flows on one pipe: expected ~4x, got {ratio}"
        );
    }

    #[test]
    fn unroutable_spec_is_rejected_up_front() {
        let mut net = Net::new();
        let a = net.add_site("CalTech");
        let b = net.add_site("island");
        let c = net.add_site("JPL");
        net.add_link(a, c, LinkClass::T1, Dur::from_millis(1));
        let sim = FlowSim::new(&net);
        let err = sim
            .try_run_with_stats(vec![
                TransferSpec::new(a, c, 100, SimTime::ZERO),
                TransferSpec::new(a, b, 100, SimTime::ZERO),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            FlowError::Unroutable {
                index: 1,
                src: "CalTech".into(),
                dst: "island".into(),
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("CalTech") && msg.contains("island"), "{msg}");
        let err = sim
            .try_run_with_stats(vec![TransferSpec::new(c, c, 100, SimTime::ZERO)])
            .unwrap_err();
        assert!(matches!(err, FlowError::SelfTransfer { index: 0, .. }));
    }

    #[test]
    fn invalid_fault_is_rejected_up_front() {
        let mut net = Net::new();
        let a = net.add_site("CalTech");
        let c = net.add_site("JPL");
        net.add_link(a, c, LinkClass::T1, Dur::from_millis(1));
        let sim = FlowSim::new(&net);
        let spec = || vec![TransferSpec::new(a, c, 100, SimTime::ZERO)];
        let t = SimTime::from_secs_f64;
        let ok = LinkFault {
            link: 0,
            down_at: t(1.0),
            up_at: t(2.0),
        };
        let no_link = LinkFault { link: 1, ..ok };
        let backwards = LinkFault {
            up_at: t(1.0),
            ..ok
        };
        for (faults, index) in [([ok, no_link], 1), ([backwards, ok], 0)] {
            let err = sim.run_with_faults(spec(), &faults).unwrap_err();
            assert_eq!(err, FlowError::InvalidFault { index });
            assert!(err.to_string().contains(&format!("#{index}")), "{err}");
        }
        assert!(sim.run_with_faults(spec(), &[ok]).is_ok());
    }

    #[test]
    #[should_panic(expected = "no path between CalTech and island")]
    fn run_panics_with_site_names() {
        let mut net = Net::new();
        let a = net.add_site("CalTech");
        let b = net.add_site("island");
        net.add_site("JPL");
        let sim = FlowSim::new(&net);
        sim.run(vec![TransferSpec::new(a, b, 100, SimTime::ZERO)]);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let specs = vec![
            TransferSpec::new(a, c, 3_000_000, SimTime::ZERO),
            TransferSpec::new(b, d, 1_000_000, SimTime::from_secs_f64(1.5)),
        ];
        let (plain, stats_a) = sim.run_with_stats(specs.clone());
        let (outcomes, stats_b) = sim.run_with_faults(specs, &[]).unwrap();
        for (p, o) in plain.iter().zip(&outcomes) {
            let r = o.completed().expect("no faults, no stalls");
            assert_eq!(p.started, r.started);
            assert_eq!(p.finished, r.finished);
            assert_eq!(p.hops, r.hops);
        }
        assert_eq!(stats_a.makespan, stats_b.makespan);
        assert_eq!(stats_a.carried, stats_b.carried);
    }

    #[test]
    fn outage_reroutes_a_live_flow() {
        // Square: A-B direct (fast), A-C-B detour. Cut A-B mid-flight.
        let mut net = Net::new();
        let a = net.add_site("A");
        let b = net.add_site("B");
        let c = net.add_site("C");
        net.add_link(a, b, LinkClass::T1, Dur::from_millis(1)); // link 0
        net.add_link(a, c, LinkClass::T1, Dur::from_millis(5)); // link 1
        net.add_link(c, b, LinkClass::T1, Dur::from_millis(5)); // link 2
        let sim = FlowSim::new(&net);
        let cap = LinkClass::T1.bytes_per_sec();
        let spec = TransferSpec::new(a, b, (10.0 * cap) as u64, SimTime::ZERO);
        let fault = LinkFault {
            link: 0,
            down_at: SimTime::from_secs_f64(4.0),
            up_at: SimTime::from_secs_f64(1000.0),
        };
        let (outcomes, _) = sim.run_with_faults(vec![spec], &[fault]).unwrap();
        let r = outcomes[0].completed().expect("rerouted, not stalled");
        // Same T1 rate on the detour: ~10 s of transfer either way.
        let d = r.duration().as_secs_f64();
        assert!((d - 10.0).abs() < 0.1, "duration {d}");
        assert_eq!(r.hops, 2, "record carries the final (detour) route");
    }

    #[test]
    fn partition_stalls_then_repair_revives() {
        let (net, a, _, c, _) = dumbbell();
        let sim = FlowSim::new(&net);
        let cap = LinkClass::T1.bytes_per_sec();
        let spec = TransferSpec::new(a, c, (10.0 * cap) as u64, SimTime::ZERO);
        // The backbone (link 4) is the only path; 20 s outage at t=2 s.
        let fault = LinkFault {
            link: 4,
            down_at: SimTime::from_secs_f64(2.0),
            up_at: SimTime::from_secs_f64(22.0),
        };
        let (outcomes, _) = sim.run_with_faults(vec![spec.clone()], &[fault]).unwrap();
        let r = outcomes[0].completed().expect("repair revived the flow");
        let d = r.duration().as_secs_f64();
        assert!((d - 30.0).abs() < 0.2, "2 s moved + 20 s parked + 8 s: {d}");

        // Without a repair the flow stalls.
        let forever = LinkFault {
            link: 4,
            down_at: SimTime::from_secs_f64(2.0),
            up_at: SimTime::MAX,
        };
        let (outcomes, _) = sim.run_with_faults(vec![spec], &[forever]).unwrap();
        match &outcomes[0] {
            FlowOutcome::Stalled {
                delivered,
                stalled_at,
                started,
                ..
            } => {
                assert_eq!(*started, Some(SimTime::ZERO));
                assert_eq!(*stalled_at, SimTime::from_secs_f64(2.0));
                assert!((delivered / cap - 2.0).abs() < 0.01, "2 s of bytes moved");
            }
            FlowOutcome::Completed(_) => panic!("must stall across the horizon"),
        }
    }

    /// A hub with two T1 spokes, both cut at 1 s; only the Y spoke comes
    /// back, at 4 s. Hand-checked schedule of the small batch:
    /// f0 (S→Y, 2 C bytes) and f1 (S→X, 10 C) share S–H at C/2 until
    /// both park at 1 s; f2 (S→Y, 1 C) and f3 (S→X, 1 C) arrive at 2 s
    /// and park on arrival; the repair revives f0 (1.5 C left) and f2,
    /// which share S–H at C/2: f2 is done at 6 s, f0 at 6.5 s, each plus
    /// 2 ms of path latency; f1 and f3 stall. Adding 20,000 S→X flows
    /// that arrive while X is cut, some before f2 and some after, changes
    /// none of that, and each of them stalls where it arrived.
    #[test]
    fn many_parked_flows_stall_and_a_partial_repair_revives_the_rest() {
        let mut net = Net::new();
        let s = net.add_site("S");
        let h = net.add_site("H");
        let x = net.add_site("X");
        let y = net.add_site("Y");
        for far in [h, x, y] {
            let near = if far == h { s } else { h };
            net.add_link(near, far, LinkClass::T1, Dur::from_millis(1));
        }
        let at = SimTime::from_secs_f64;
        let faults = [
            LinkFault {
                link: 1,
                down_at: at(1.0),
                up_at: SimTime::MAX,
            },
            LinkFault {
                link: 2,
                down_at: at(1.0),
                up_at: at(4.0),
            },
        ];
        let c = LinkClass::T1.bytes_per_sec();
        let small = vec![
            TransferSpec::new(s, y, (2.0 * c) as u64, SimTime::ZERO),
            TransferSpec::new(s, x, (10.0 * c) as u64, SimTime::ZERO),
            TransferSpec::new(s, y, c as u64, at(2.0)),
            TransferSpec::new(s, x, c as u64, at(2.0)),
        ];
        // (completed, started, finished or stalled_at, delivered)
        let summary = |o: &FlowOutcome| match o {
            FlowOutcome::Completed(r) => (true, Some(r.started), r.finished, 0.0),
            FlowOutcome::Stalled {
                started,
                delivered,
                stalled_at,
                ..
            } => (false, *started, *stalled_at, *delivered),
        };
        let sim = FlowSim::new(&net);
        let (alone, _) = sim.run_with_faults(small.clone(), &faults).unwrap();
        let alone: Vec<_> = alone.iter().map(summary).collect();
        let near = |t: SimTime, secs: f64| (t.as_secs_f64() - secs).abs() < 1e-3;
        assert!(alone[0].0 && alone[0].1 == Some(SimTime::ZERO) && near(alone[0].2, 6.502));
        assert_eq!(alone[1], (false, Some(SimTime::ZERO), at(1.0), c / 2.0));
        assert!(alone[2].0 && alone[2].1 == Some(at(4.0)) && near(alone[2].2, 6.002));
        assert_eq!(alone[3], (false, None, at(2.0), 0.0));

        let extra = |k: u64| {
            let start = at(1.5) + Dur::from_micros(100 * k);
            TransferSpec::new(s, x, c as u64, start)
        };
        let mut big: Vec<TransferSpec> = small[..2].to_vec();
        big.extend((0..10_000).map(extra));
        big.extend_from_slice(&small[2..]);
        big.extend((10_000..20_000).map(extra));
        let (outcomes, _) = sim.run_with_faults(big.clone(), &faults).unwrap();
        let small_ids = [0, 1, 10_002, 10_003];
        for (want, &id) in alone.iter().zip(&small_ids) {
            assert_eq!(summary(&outcomes[id]), *want, "flow {id}");
        }
        for (id, (o, spec)) in outcomes.iter().zip(&big).enumerate() {
            if !small_ids.contains(&id) {
                assert_eq!(summary(o), (false, None, spec.start, 0.0), "flow {id}");
            }
        }
    }

    #[test]
    fn fault_runs_replay_bit_identically() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let mk = || {
            let specs = vec![
                TransferSpec::new(a, c, 5_000_000, SimTime::ZERO),
                TransferSpec::new(b, d, 5_000_000, SimTime::from_secs_f64(3.0)),
            ];
            let faults = [LinkFault {
                link: 4,
                down_at: SimTime::from_secs_f64(5.0),
                up_at: SimTime::from_secs_f64(9.0),
            }];
            sim.run_with_faults(specs, &faults).unwrap()
        };
        let (oa, sa) = mk();
        let (ob, sb) = mk();
        assert_eq!(sa.makespan, sb.makespan);
        assert_eq!(sa.carried, sb.carried);
        for (x, y) in oa.iter().zip(&ob) {
            match (x, y) {
                (FlowOutcome::Completed(p), FlowOutcome::Completed(q)) => {
                    assert_eq!(p.finished, q.finished);
                }
                (
                    FlowOutcome::Stalled { stalled_at: p, .. },
                    FlowOutcome::Stalled { stalled_at: q, .. },
                ) => {
                    assert_eq!(p, q);
                }
                _ => panic!("outcome kinds diverged"),
            }
        }
    }

    #[test]
    fn recorded_flows_are_bit_identical_and_emit_lifecycle() {
        use hpcc_trace::{Event, MemRecorder};
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let specs = vec![
            TransferSpec::new(a, c, 5_000_000, SimTime::ZERO),
            TransferSpec::new(b, d, 5_000_000, SimTime::from_secs_f64(3.0)),
        ];
        // Backbone outage + repair mid-run: reroute is impossible on the
        // dumbbell, so flow 0 parks and revives.
        let faults = [LinkFault {
            link: 4,
            down_at: SimTime::from_secs_f64(2.0),
            up_at: SimTime::from_secs_f64(6.0),
        }];
        let (plain, stats_p) = sim.run_with_faults(specs.clone(), &faults).unwrap();
        let rec = MemRecorder::new();
        let (traced, stats_t) = sim.run_with_faults_recorded(specs, &faults, &rec).unwrap();
        assert_eq!(stats_p.makespan, stats_t.makespan);
        assert_eq!(stats_p.carried, stats_t.carried);
        for (x, y) in plain.iter().zip(&traced) {
            match (x, y) {
                (FlowOutcome::Completed(p), FlowOutcome::Completed(q)) => {
                    assert_eq!(p.started, q.started);
                    assert_eq!(p.finished, q.finished);
                }
                _ => panic!("outcome kinds diverged"),
            }
        }
        // One lifecycle span per completed flow; a parked span for the
        // partition interval; rate counters on the backbone.
        let (mut xfers, mut parked_spans, mut counters) = (0usize, 0usize, 0usize);
        let mut instants: Vec<String> = Vec::new();
        rec.with(|_, events| {
            for e in events {
                match e {
                    Event::Span { name, .. } if name == "xfer" => xfers += 1,
                    Event::Span { name, .. } if name == "parked" => parked_spans += 1,
                    Event::Instant { name, .. } => instants.push(name.clone()),
                    Event::Counter { .. } => counters += 1,
                    _ => {}
                }
            }
        });
        assert_eq!(xfers, 2);
        // Flow 0 parks mid-flight; flow 1 arrives during the outage and
        // parks on arrival — both revive at the repair.
        assert_eq!(parked_spans, 2, "both flows parked across the outage");
        assert!(counters > 0, "rate counters sampled");
        for want in ["start", "down", "up", "parked", "revive"] {
            assert!(instants.iter().any(|n| n == want), "missing instant {want}");
        }
    }

    #[test]
    fn records_keep_spec_order() {
        let (net, a, b, c, d) = dumbbell();
        let sim = FlowSim::new(&net);
        let recs = sim.run(vec![
            TransferSpec::new(b, d, 100, SimTime::from_secs_f64(3.0)),
            TransferSpec::new(a, c, 100, SimTime::ZERO),
        ]);
        assert_eq!(recs[0].spec.src, b, "order preserved despite later start");
        assert_eq!(recs[1].spec.src, a);
        assert!(recs[0].started > recs[1].started);
    }
}
