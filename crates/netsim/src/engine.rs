//! Incremental max-min fair-share solver.
//!
//! The legacy engine re-ran global progressive filling on every flow
//! event — O(flows × links) per arrival or completion, which caps the
//! simulator around 10⁴ concurrent flows. This module keeps the fair
//! allocation *materialised* between events: per-directed-link load and
//! saturation state, plus per-entry rates, are updated in place and only
//! the entries whose fair share can actually change are re-solved.
//!
//! On each event the solver:
//!
//! 1. seeds a worklist with the changed entries and the directed links
//!    they touch (an arrival, completion, reroute or link flap),
//! 2. closes the set transitively: any *pre-event saturated* link pulls
//!    every entry crossing it into the affected set `A`, and those
//!    entries' links join the frontier — rate changes can only propagate
//!    through saturated links, so the closure is exact,
//! 3. re-runs weighted progressive filling over `A` with the boundary
//!    (all other entries) frozen at their current rates — their load is
//!    subtracted from link capacity up front,
//! 4. post-checks every touched link that ended saturated: a boundary
//!    entry running *above* the fill level of such a link would have had
//!    to cede bandwidth, so it is pulled into `A` and the closure/fill
//!    repeats. The loop terminates because `A` only grows.
//!
//! When `A` exceeds a configured fraction of the live roster *and* its
//! links exceed the same fraction of the directed links, the solver
//! falls back to one full re-solve (same code path, `A` = everyone,
//! residual reset from raw capacity). A fill costs about rounds × links
//! over its links, and the full one walks every directed link in set-up
//! and commit: a closure that spreads over the network costs what the
//! full fill costs, and taking the full fill keeps the worst case no
//! worse than a full re-solve on every event and flushes accumulated
//! float drift. A crowd behind one slow bottleneck — however many
//! entries — touches a few links and fills in a round or two, so it
//! stays partial.
//!
//! Entries are *aggregates*: flows below a byte threshold on the same
//! (src, dst, window) collapse into one entry with an integer weight.
//! Weighted filling treats an entry as `weight` identical flows, which
//! yields exactly the rates the expanded flow list would get — the
//! per-dir weight sums equal the per-dir flow counts of the expanded
//! list, so the increments (and freeze order) are identical.
//!
//! Completion times use lazy drains: each entry keeps a cumulative
//! `drained` bytes-per-member counter synced on rate changes only, and
//! members are a min-heap keyed by `bytes + drained-at-join`, so an
//! event touches O(|A|) entries instead of every live flow.

use crate::flow::maxmin_rates;
use crate::graph::{Net, Route};
use crate::link::SiteId;
use des::time::{Dur, SimTime};
use std::rc::Rc;

/// Configuration for [`crate::flow::FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// The solver updates the allocation incrementally, falling back to
    /// one full re-solve whenever the affected set exceeds this fraction
    /// of the live entries and its links exceed it of the directed links
    /// (0.0 = full whenever the closure crosses a link, 1.0 = never fall
    /// back).
    pub full_fraction: f64,
    /// Flows strictly smaller than this many bytes aggregate with other
    /// small flows on the same (src, dst, window). 0 disables.
    pub aggregate_below: u64,
    /// After every resolve, re-derive the allocation with the reference
    /// [`maxmin_rates`] and assert each flow matches within 1e-9
    /// relative. Expensive — for tests and the benchmark workloads'
    /// verification.
    pub verify: bool,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            full_fraction: 0.25,
            aggregate_below: 0,
            verify: false,
        }
    }
}

/// Counters describing how hard the solver worked during a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Simulation events processed (arrivals, completions, transitions).
    pub events: u64,
    /// Resolves that had a non-empty affected set.
    pub resolves: u64,
    /// Resolves that fell back to a full re-solve.
    pub full_resolves: u64,
    /// Sum of affected-set sizes across resolves.
    pub entries_touched: u64,
    /// Affected-set size of the most recent resolve.
    pub last_dirty: usize,
    /// High-water mark of live solver entries (post-aggregation).
    pub peak_entries: usize,
    /// High-water mark of live flows (aggregate members).
    pub peak_flows: usize,
    /// Flows that joined an existing aggregate instead of opening one.
    pub aggregated_joins: u64,
}

impl SolverStats {
    /// Mean affected-set size per resolve.
    pub fn mean_dirty(&self) -> f64 {
        if self.resolves == 0 {
            0.0
        } else {
            self.entries_touched as f64 / self.resolves as f64
        }
    }
}

pub(crate) type EntryId = usize;

/// One flow inside an aggregate entry. `key` is the member's bytes plus
/// the entry's `drained` at join time, so `key - drained` is always the
/// bytes it has left.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub key: f64,
    pub flow: u32,
    pub started: SimTime,
}

struct Entry {
    route: Rc<Route>,
    src: SiteId,
    dst: SiteId,
    window: Option<u64>,
    /// Per-member rate cap (window / RTT), `INFINITY` when uncapped.
    cap: f64,
    /// Live member count as a float (exact for < 2^53 members).
    weight: f64,
    /// Current per-member rate, bytes/s.
    rate: f64,
    /// Cumulative bytes drained per member since the entry was created.
    drained: f64,
    /// Last time `drained` (and carried-bytes) were brought current.
    synced: SimTime,
    /// Min-heap on (key, flow).
    members: Vec<Member>,
    /// For each dir in `route.dirs`, this entry's index in `on[dir]`.
    pos: Vec<u32>,
    /// Bumped on any rate or membership change; stale heap handles
    /// carry the epoch they were issued under.
    epoch: u64,
    alive: bool,
}

fn member_lt(a: &Member, b: &Member) -> bool {
    match a.key.total_cmp(&b.key) {
        std::cmp::Ordering::Equal => a.flow < b.flow,
        o => o == std::cmp::Ordering::Less,
    }
}

fn heap_push(v: &mut Vec<Member>, m: Member) {
    v.push(m);
    let mut i = v.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if member_lt(&v[i], &v[p]) {
            v.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

fn heap_pop(v: &mut Vec<Member>) -> Member {
    let n = v.len();
    v.swap(0, n - 1);
    let out = v.pop().expect("pop from empty member heap");
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut s = i;
        if l < v.len() && member_lt(&v[l], &v[s]) {
            s = l;
        }
        if r < v.len() && member_lt(&v[r], &v[s]) {
            s = r;
        }
        if s == i {
            break;
        }
        v.swap(i, s);
        i = s;
    }
    out
}

/// Link `d`'s slot in `Engine::ln`: `ln[off..off + len]` holds the
/// affected entries crossing it that were unfrozen at its last
/// compaction, in `dirty` order; `live` of them are still unfrozen.
#[derive(Debug, Clone, Copy, Default)]
struct LinkList {
    off: usize,
    len: u32,
    live: u32,
}

/// The materialised allocation state for one simulation run.
pub(crate) struct Engine {
    full_fraction: f64,
    verify: bool,
    ndirs: usize,
    /// Directed-link capacity, bytes/s (mirrors `Net::capacity`).
    cap_v: Vec<f64>,
    /// Current total allocated rate per directed link.
    load: Vec<f64>,
    /// Saturation under the same tolerance `maxmin_rates` freezes with.
    sat: Vec<bool>,
    /// Live entries crossing each directed link, each beside the index
    /// of this link in its route — the `pos` slot to patch when a
    /// swap-remove moves it.
    on: Vec<Vec<(u32, u32)>>,
    entries: Vec<Entry>,
    free: Vec<EntryId>,
    /// Live entries in a stable order (swap-removed); full re-solves and
    /// verification walk this, so results are deterministic.
    roster: Vec<EntryId>,
    roster_pos: Vec<usize>,
    live_members: usize,
    /// Bytes carried per directed link, accrued at sync points.
    carried: Vec<f64>,
    // Event-scoped seeds: entries/links whose state changed since the
    // last resolve. Deduplicated by stamp at resolve time.
    seeds_e: Vec<EntryId>,
    seeds_d: Vec<usize>,
    seed_stamp: Vec<u64>,
    seed_no: u64,
    // Resolve-scoped scratch, reused across events.
    stamp: u64,
    e_stamp: Vec<u64>,
    d_stamp: Vec<u64>,
    dirty: Vec<EntryId>,
    touched_d: Vec<usize>,
    fr_rate: Vec<f64>,
    // The affected set flattened for `fill`, indexed like `dirty`.
    fr_w: Vec<f64>,
    /// Whether the entry is still unfrozen (at the common water level).
    fr_live: Vec<bool>,
    /// Unfrozen entries with a finite cap, in `dirty` order, with the cap.
    fr_capped: Vec<(usize, f64)>,
    /// Entries frozen in the current round.
    fr_frz: Vec<usize>,
    /// Touched links still carrying unfrozen entries, in `touched_d` order.
    fr_links: Vec<usize>,
    /// Per-link lists of `dirty` indices, in `dirty` order, one slot per
    /// touched link (see [`LinkList`]). Slots are sized from `on[d].len()`
    /// and the array only grows.
    ln: Vec<u32>,
    lists: Vec<LinkList>,
    residual: Vec<f64>,
    wsum: Vec<f64>,
    lvl: Vec<f64>,
    pub(crate) stats: SolverStats,
}

impl Engine {
    pub(crate) fn new(net: &Net, cfg: &FlowConfig) -> Engine {
        let ndirs = net.dir_links();
        let cap_v: Vec<f64> = (0..ndirs).map(|d| net.capacity(d)).collect();
        Engine {
            full_fraction: cfg.full_fraction,
            verify: cfg.verify,
            ndirs,
            cap_v,
            load: vec![0.0; ndirs],
            sat: vec![false; ndirs],
            on: vec![Vec::new(); ndirs],
            entries: Vec::new(),
            free: Vec::new(),
            roster: Vec::new(),
            roster_pos: Vec::new(),
            live_members: 0,
            carried: vec![0.0; ndirs],
            seeds_e: Vec::new(),
            seeds_d: Vec::new(),
            seed_stamp: Vec::new(),
            seed_no: 1,
            stamp: 0,
            e_stamp: Vec::new(),
            d_stamp: vec![0; ndirs],
            dirty: Vec::new(),
            touched_d: Vec::new(),
            fr_rate: Vec::new(),
            fr_w: Vec::new(),
            fr_live: Vec::new(),
            fr_capped: Vec::new(),
            fr_frz: Vec::new(),
            fr_links: Vec::new(),
            ln: Vec::new(),
            lists: vec![LinkList::default(); ndirs],
            residual: vec![0.0; ndirs],
            wsum: vec![0.0; ndirs],
            lvl: vec![0.0; ndirs],
            stats: SolverStats::default(),
        }
    }

    pub(crate) fn live_entries(&self) -> usize {
        self.roster.len()
    }

    pub(crate) fn alive(&self, e: EntryId) -> bool {
        self.entries[e].alive
    }

    pub(crate) fn rate(&self, e: EntryId) -> f64 {
        self.entries[e].rate
    }

    pub(crate) fn load(&self, d: usize) -> f64 {
        self.load[d]
    }

    pub(crate) fn key(&self, e: EntryId) -> (SiteId, SiteId, Option<u64>) {
        let ent = &self.entries[e];
        (ent.src, ent.dst, ent.window)
    }

    pub(crate) fn route_info(&self, e: EntryId) -> (usize, Dur) {
        let r = &self.entries[e].route;
        (r.hops(), r.latency)
    }

    pub(crate) fn members(&self, e: EntryId) -> &[Member] {
        &self.entries[e].members
    }

    pub(crate) fn member_count(&self, e: EntryId) -> usize {
        self.entries[e].members.len()
    }

    pub(crate) fn touched_dirs(&self) -> &[usize] {
        &self.touched_d
    }

    pub(crate) fn into_carried(self) -> Vec<f64> {
        self.carried
    }

    /// When the entry's head member finishes at current rates, with the
    /// epoch a heap handle must match to still be valid.
    pub(crate) fn due(&self, e: EntryId) -> Option<(SimTime, u64)> {
        let ent = &self.entries[e];
        if !ent.alive || ent.members.is_empty() || ent.rate <= 0.0 {
            return None;
        }
        let rem = (ent.members[0].key - ent.drained).max(0.0);
        Some((
            ent.synced + Dur::from_secs_f64(rem / ent.rate).max(Dur(1)),
            ent.epoch,
        ))
    }

    /// Bytes left for the head member (after a `sync`), if any.
    pub(crate) fn peek_rem(&self, e: EntryId) -> Option<f64> {
        let ent = &self.entries[e];
        ent.members.first().map(|m| m.key - ent.drained)
    }

    /// Bring the entry's drained-bytes and per-link carriage current.
    pub(crate) fn sync(&mut self, e: EntryId, now: SimTime) {
        let ent = &mut self.entries[e];
        if ent.synced >= now {
            return;
        }
        let dt = (now - ent.synced).as_secs_f64();
        ent.synced = now;
        if ent.rate > 0.0 && dt > 0.0 {
            ent.drained += ent.rate * dt;
            let add = ent.weight * ent.rate * dt;
            for &d in &ent.route.dirs {
                self.carried[d] += add;
            }
        }
    }

    fn seed_entry(&mut self, e: EntryId) {
        self.seed_stamp[e] = self.seed_no;
        self.seeds_e.push(e);
    }

    fn link_into_lists(&mut self, e: EntryId) {
        let ent = &mut self.entries[e];
        ent.pos.clear();
        for (slot, &d) in ent.route.dirs.iter().enumerate() {
            ent.pos.push(self.on[d].len() as u32);
            self.on[d].push((e as u32, slot as u32));
        }
    }

    fn unlink_from_lists(&mut self, e: EntryId) {
        for slot in 0..self.entries[e].pos.len() {
            let ent = &self.entries[e];
            let (d, p) = (ent.route.dirs[slot], ent.pos[slot] as usize);
            debug_assert_eq!(self.on[d][p], (e as u32, slot as u32));
            self.on[d].swap_remove(p);
            if let Some(&(moved, ms)) = self.on[d].get(p) {
                self.entries[moved as usize].pos[ms as usize] = p as u32;
            }
        }
    }

    /// Open a new entry with one member. The entry starts at rate 0 (so
    /// it contributes no load) and is seeded for the next resolve.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert(
        &mut self,
        route: Rc<Route>,
        src: SiteId,
        dst: SiteId,
        window: Option<u64>,
        cap: f64,
        bytes: f64,
        flow: u32,
        started: SimTime,
        now: SimTime,
    ) -> EntryId {
        let e = match self.free.pop() {
            Some(e) => e,
            None => {
                self.entries.push(Entry {
                    route: route.clone(),
                    src: 0,
                    dst: 0,
                    window: None,
                    cap: 0.0,
                    weight: 0.0,
                    rate: 0.0,
                    drained: 0.0,
                    synced: SimTime::ZERO,
                    members: Vec::new(),
                    pos: Vec::new(),
                    epoch: 0,
                    alive: false,
                });
                self.e_stamp.push(0);
                self.seed_stamp.push(0);
                self.roster_pos.push(usize::MAX);
                self.entries.len() - 1
            }
        };
        let ent = &mut self.entries[e];
        debug_assert!(!ent.alive);
        ent.route = route;
        ent.src = src;
        ent.dst = dst;
        ent.window = window;
        ent.cap = cap;
        ent.weight = 1.0;
        ent.rate = 0.0;
        ent.drained = 0.0;
        ent.synced = now;
        ent.members.clear();
        ent.members.push(Member {
            key: bytes,
            flow,
            started,
        });
        ent.epoch += 1;
        ent.alive = true;
        self.link_into_lists(e);
        self.roster_pos[e] = self.roster.len();
        self.roster.push(e);
        self.live_members += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.roster.len());
        self.stats.peak_flows = self.stats.peak_flows.max(self.live_members);
        self.seed_entry(e);
        e
    }

    /// Add a member to an open aggregate. The joining flow's remaining
    /// bytes are keyed relative to the entry's drain counter.
    pub(crate) fn join(
        &mut self,
        e: EntryId,
        bytes: f64,
        flow: u32,
        started: SimTime,
        now: SimTime,
    ) {
        self.sync(e, now);
        let ent = &mut self.entries[e];
        let key = bytes + ent.drained;
        ent.weight += 1.0;
        ent.epoch += 1;
        heap_push(&mut ent.members, Member { key, flow, started });
        for &d in &ent.route.dirs {
            self.load[d] += ent.rate;
        }
        self.live_members += 1;
        self.stats.peak_flows = self.stats.peak_flows.max(self.live_members);
        self.stats.aggregated_joins += 1;
        self.seed_entry(e);
    }

    /// Pop the head member (the one with the least bytes left). The
    /// caller must have `sync`ed the entry to `now`.
    pub(crate) fn pop_member(&mut self, e: EntryId) -> Member {
        let ent = &mut self.entries[e];
        let m = heap_pop(&mut ent.members);
        ent.weight -= 1.0;
        ent.epoch += 1;
        for &d in &ent.route.dirs {
            self.load[d] -= ent.rate;
        }
        self.live_members -= 1;
        self.seed_entry(e);
        m
    }

    /// Drain every member out (for parking), least-remaining first.
    pub(crate) fn drain_members(
        &mut self,
        e: EntryId,
        now: SimTime,
        mut f: impl FnMut(u32, f64, SimTime),
    ) {
        self.sync(e, now);
        let ent = &mut self.entries[e];
        while !ent.members.is_empty() {
            let m = heap_pop(&mut ent.members);
            self.live_members -= 1;
            f(m.flow, (m.key - ent.drained).max(0.0), m.started);
        }
        let w = std::mem::replace(&mut ent.weight, 0.0);
        for &d in &ent.route.dirs {
            self.load[d] -= w * ent.rate;
        }
        ent.epoch += 1;
    }

    /// Retire an entry (all members completed or parked), releasing its
    /// load and seeding its links so survivors can claim the capacity.
    pub(crate) fn remove_entry(&mut self, e: EntryId, now: SimTime) {
        self.sync(e, now);
        let ent = &self.entries[e];
        debug_assert!(ent.alive && ent.members.is_empty());
        for &d in &ent.route.dirs {
            self.load[d] -= ent.weight * ent.rate;
            self.seeds_d.push(d);
        }
        self.unlink_from_lists(e);
        let p = self.roster_pos[e];
        let last = self.roster.pop().expect("roster holds e");
        if last != e {
            self.roster[p] = last;
            self.roster_pos[last] = p;
        }
        self.roster_pos[e] = usize::MAX;
        self.entries[e].alive = false;
        self.entries[e].epoch += 1;
        self.free.push(e);
    }

    /// Move the entry to a new pinned route (link flap), keeping its
    /// members and rate; both old and new links are seeded.
    pub(crate) fn reroute(&mut self, e: EntryId, route: Rc<Route>, cap: f64, now: SimTime) {
        self.sync(e, now);
        let ent = &self.entries[e];
        let wr = ent.weight * ent.rate;
        for &d in &ent.route.dirs {
            self.load[d] -= wr;
            self.seeds_d.push(d);
        }
        self.unlink_from_lists(e);
        self.entries[e].route = route;
        self.entries[e].cap = cap;
        self.link_into_lists(e);
        let ent = &mut self.entries[e];
        for &d in &ent.route.dirs {
            self.load[d] += wr;
        }
        ent.epoch += 1;
        self.seed_entry(e);
    }

    /// Live entries crossing either direction of undirected link `l`,
    /// in roster order (deterministic).
    pub(crate) fn entries_on_link(&self, l: usize, out: &mut Vec<EntryId>) {
        out.clear();
        let both = self.on[2 * l].iter().chain(&self.on[2 * l + 1]);
        out.extend(both.map(|&(e, _)| e as usize));
        out.sort_unstable_by_key(|&e| self.roster_pos[e]);
    }

    /// Re-solve the allocation for everything the seeds can affect.
    /// Entries whose rate or membership changed this event are appended
    /// to `out` (the caller re-arms their completion timers).
    pub(crate) fn resolve(&mut self, net: &Net, now: SimTime, out: &mut Vec<EntryId>) {
        out.clear();
        if self.seeds_e.is_empty() && self.seeds_d.is_empty() {
            self.touched_d.clear();
            self.stats.last_dirty = 0;
            return;
        }
        self.stats.resolves += 1;
        self.stamp += 1;
        let st = self.stamp;
        self.dirty.clear();
        self.touched_d.clear();
        for i in 0..self.seeds_e.len() {
            let e = self.seeds_e[i];
            if self.entries[e].alive && self.e_stamp[e] != st {
                self.e_stamp[e] = st;
                self.dirty.push(e);
            }
        }
        for i in 0..self.seeds_d.len() {
            let d = self.seeds_d[i];
            if self.d_stamp[d] != st {
                self.d_stamp[d] = st;
                self.touched_d.push(d);
            }
        }
        self.seeds_e.clear();
        self.seeds_d.clear();

        let mut full = false;
        let limit = self.full_fraction * self.roster.len() as f64;
        let dir_limit = self.full_fraction * self.ndirs as f64;
        let (mut scan, mut lscan) = (0usize, 0usize);
        loop {
            // Closure: pull in everything a rate change can reach through
            // links that were saturated before the event. Entries and
            // links are two FIFO queues, so the order they are drained in
            // does not change either sequence. `A` and its links only
            // grow: once both pass the fallback threshold the decision is
            // final, and the full path below overwrites `dirty` and
            // `touched_d`.
            while !full && (scan < self.dirty.len() || lscan < self.touched_d.len()) {
                if scan < self.dirty.len() {
                    let e = self.dirty[scan];
                    scan += 1;
                    for &d in &self.entries[e].route.dirs {
                        if self.d_stamp[d] != st {
                            self.d_stamp[d] = st;
                            self.touched_d.push(d);
                        }
                    }
                } else {
                    let d = self.touched_d[lscan];
                    lscan += 1;
                    if self.sat[d] {
                        for &(m, _) in &self.on[d] {
                            let m = m as usize;
                            if self.e_stamp[m] != st {
                                self.e_stamp[m] = st;
                                self.dirty.push(m);
                            }
                        }
                    }
                }
                full = self.dirty.len() as f64 > limit && self.touched_d.len() as f64 > dir_limit;
            }
            if full {
                // Bounded fallback: one re-solve of everyone from raw
                // capacity. Also flushes incremental float drift.
                self.stats.full_resolves += 1;
                self.dirty.clear();
                self.dirty.extend_from_slice(&self.roster);
                self.touched_d.clear();
                self.touched_d.extend(0..self.ndirs);
                for d in 0..self.ndirs {
                    self.residual[d] = self.cap_v[d];
                }
            } else {
                // Frozen boundary: subtract everyone-not-in-A's load
                // from capacity before filling.
                for k in 0..self.touched_d.len() {
                    let d = self.touched_d[k];
                    self.residual[d] = self.load[d];
                }
                for i in 0..self.dirty.len() {
                    let e = self.dirty[i];
                    let wr = self.entries[e].weight * self.entries[e].rate;
                    let nd = self.entries[e].route.dirs.len();
                    for k in 0..nd {
                        let d = self.entries[e].route.dirs[k];
                        self.residual[d] -= wr;
                    }
                }
                for k in 0..self.touched_d.len() {
                    let d = self.touched_d[k];
                    self.residual[d] = (self.cap_v[d] - self.residual[d].max(0.0)).max(0.0);
                }
            }
            #[cfg(not(test))]
            self.fill();
            #[cfg(test)]
            self.fill_checked();
            if full {
                break;
            }
            if !self.post_check(st) {
                break;
            }
        }
        self.commit(now, out);
        if self.verify {
            self.verify_against_reference(net);
        }
    }

    /// Weighted progressive filling over the affected set, mirroring
    /// [`maxmin_rates`] step for step (weight sums stand in for flow
    /// counts; both are exact integers in f64, so the increments — and
    /// therefore the freeze order — are identical to the expanded list).
    ///
    /// The fill is link-major, and three facts keep it bit-equal to the
    /// entry-by-entry sweep:
    ///
    /// * every entry starts at `0.0` and every round adds the same `inc`
    ///   to each unfrozen one, so all unfrozen entries hold one rate —
    ///   `level` — bit for bit; an entry's rate is written once, when it
    ///   freezes;
    /// * the cap term is a min of `cap − level` over the finite caps (an
    ///   infinite cap never lowers it) and keeps its place after the
    ///   link terms;
    /// * the only order-sensitive float operation is the sequence of
    ///   `residual[d] -= w * inc` on one link, and each link runs it over
    ///   its own list, which holds its entries in `dirty` order.
    ///
    /// A link is tested for saturation once per round, right after its
    /// subtraction, and its list is compacted (stably) only when it lost
    /// an entry. `wsum` loses a frozen entry's weight by subtraction,
    /// which is exact on integers.
    fn fill(&mut self) {
        let n = self.dirty.len();
        self.fr_rate.clear();
        self.fr_rate.resize(n, 0.0);
        self.fr_w.clear();
        self.fr_live.clear();
        self.fr_capped.clear();
        // `on[d]` holds every live entry crossing `d`, so its length
        // bounds the affected entries that can land in `d`'s list.
        let mut end = 0;
        for &d in &self.touched_d {
            self.wsum[d] = 0.0;
            self.lists[d] = LinkList {
                off: end,
                len: 0,
                live: 0,
            };
            end += self.on[d].len();
        }
        if self.ln.len() < end {
            self.ln.resize(end, 0);
        }
        let mut live = 0usize;
        for (i, &e) in self.dirty.iter().enumerate() {
            let ent = &self.entries[e];
            self.fr_w.push(ent.weight);
            let linked = !ent.route.dirs.is_empty();
            self.fr_live.push(linked);
            if !linked {
                self.fr_rate[i] = ent.cap;
                continue;
            }
            live += 1;
            if ent.cap.is_finite() {
                self.fr_capped.push((i, ent.cap));
            }
            for &d in &ent.route.dirs {
                self.wsum[d] += ent.weight;
                let l = &mut self.lists[d];
                self.ln[l.off + l.len as usize] = i as u32;
                l.len += 1;
                l.live += 1;
            }
        }
        self.fr_links.clear();
        let crossed = self.touched_d.iter().filter(|&&d| self.lists[d].len > 0);
        self.fr_links.extend(crossed);
        let mut level = 0.0f64;
        while live > 0 {
            let mut inc = f64::INFINITY;
            for &d in &self.fr_links {
                inc = inc.min(self.residual[d].max(0.0) / self.wsum[d]);
            }
            for &(_, cap) in &self.fr_capped {
                inc = inc.min(cap - level);
            }
            if !inc.is_finite() {
                break;
            }
            let inc = inc.max(0.0);
            level += inc;
            self.fr_frz.clear();
            for &d in &self.fr_links {
                let l = self.lists[d];
                let list = &self.ln[l.off..l.off + l.len as usize];
                let mut r = self.residual[d];
                for &i in list {
                    r -= self.fr_w[i as usize] * inc;
                }
                self.residual[d] = r;
                if r <= 1e-9 * self.cap_v[d].max(1.0) {
                    for &i in list {
                        let i = i as usize;
                        if self.fr_live[i] {
                            self.fr_live[i] = false;
                            self.fr_rate[i] = level;
                            self.fr_frz.push(i);
                        }
                    }
                }
            }
            for &(i, cap) in &self.fr_capped {
                if self.fr_live[i] && level >= cap - 1e-9 * cap.max(1.0) {
                    self.fr_live[i] = false;
                    self.fr_rate[i] = level;
                    self.fr_frz.push(i);
                }
            }
            live -= self.fr_frz.len();
            if self.fr_frz.is_empty() || live == 0 {
                break;
            }
            for &i in &self.fr_frz {
                let w = self.fr_w[i];
                for &d in &self.entries[self.dirty[i]].route.dirs {
                    self.wsum[d] -= w;
                    self.lists[d].live -= 1;
                }
            }
            self.fr_capped.retain(|&(i, _)| self.fr_live[i]);
            self.fr_links.retain(|&d| {
                let l = &mut self.lists[d];
                if l.live < l.len {
                    let mut kept = l.off;
                    for k in l.off..l.off + l.len as usize {
                        let i = self.ln[k];
                        if self.fr_live[i as usize] {
                            self.ln[kept] = i;
                            kept += 1;
                        }
                    }
                    l.len = l.live;
                }
                l.live > 0
            });
        }
        for (rate, &unfrozen) in self.fr_rate.iter_mut().zip(&self.fr_live) {
            if unfrozen {
                *rate = level;
            }
        }
    }

    /// A boundary entry running above the fill level of a link that
    /// ended saturated would have to cede bandwidth in the true global
    /// allocation — pull it (and, transitively, its neighbours on the
    /// next closure pass) into the affected set. Returns whether any
    /// entry was added.
    fn post_check(&mut self, st: u64) -> bool {
        for k in 0..self.touched_d.len() {
            let d = self.touched_d[k];
            self.lvl[d] = f64::NEG_INFINITY;
        }
        for (&e, &r) in self.dirty.iter().zip(&self.fr_rate) {
            for &d in &self.entries[e].route.dirs {
                if r > self.lvl[d] {
                    self.lvl[d] = r;
                }
            }
        }
        let mut added = false;
        for k in 0..self.touched_d.len() {
            let d = self.touched_d[k];
            if self.residual[d] > 1e-9 * self.cap_v[d].max(1.0) {
                continue;
            }
            let level = self.lvl[d];
            let tol = 1e-9 * level.abs().max(1.0);
            for j in 0..self.on[d].len() {
                let m = self.on[d][j].0 as usize;
                if self.e_stamp[m] != st && self.entries[m].rate > level + tol {
                    self.e_stamp[m] = st;
                    self.dirty.push(m);
                    added = true;
                }
            }
        }
        added
    }

    /// Write the fill results back: sync and re-rate changed entries,
    /// refresh per-link load and saturation from the fill residuals.
    fn commit(&mut self, now: SimTime, out: &mut Vec<EntryId>) {
        let n = self.dirty.len();
        self.stats.entries_touched += n as u64;
        self.stats.last_dirty = n;
        for i in 0..n {
            let e = self.dirty[i];
            let new = self.fr_rate[i];
            if !self.entries[e].members.is_empty() {
                assert!(new > 0.0, "flow starved");
            }
            if new != self.entries[e].rate {
                self.sync(e, now);
                self.entries[e].rate = new;
                self.entries[e].epoch += 1;
                out.push(e);
            } else if self.seed_stamp[e] == self.seed_no {
                // Membership changed but the fair share didn't: the
                // completion timer still needs re-arming (epoch moved).
                out.push(e);
            }
        }
        for k in 0..self.touched_d.len() {
            let d = self.touched_d[k];
            self.load[d] = (self.cap_v[d] - self.residual[d]).max(0.0);
            self.sat[d] = self.residual[d] <= 1e-9 * self.cap_v[d].max(1.0);
        }
        self.seed_no += 1;
    }

    /// Cross-check the materialised allocation against the reference
    /// global solver, member by member.
    fn verify_against_reference(&self, net: &Net) {
        let mut flows: Vec<(&[usize], f64)> = Vec::new();
        let mut want: Vec<f64> = Vec::new();
        for &e in &self.roster {
            let ent = &self.entries[e];
            for _ in 0..ent.members.len() {
                flows.push((ent.route.dirs.as_slice(), ent.cap));
                want.push(ent.rate);
            }
        }
        let reference = maxmin_rates(net, &flows);
        for (i, (&w, &r)) in want.iter().zip(&reference).enumerate() {
            let tol = 1e-9 * r.abs().max(1.0);
            assert!(
                (w - r).abs() <= tol,
                "incremental rate diverged at flow {i}: {w} vs reference {r}"
            );
        }
    }
}

#[cfg(test)]
impl Engine {
    /// The fill as it stood before the working-set rewrite: every round
    /// re-derives `wsum` and scans the whole affected set, frozen or
    /// not. The oracle [`Engine::fill`] must match bit for bit.
    #[allow(clippy::needless_range_loop)] // kept loop for loop as it was
    fn fill_reference(&mut self) {
        let n = self.dirty.len();
        self.fr_rate.clear();
        self.fr_rate.resize(n, 0.0);
        let mut frozen = vec![false; n];
        let mut unfrozen = 0usize;
        for i in 0..n {
            let e = self.dirty[i];
            if self.entries[e].route.dirs.is_empty() {
                self.fr_rate[i] = self.entries[e].cap;
                frozen[i] = true;
            } else {
                unfrozen += 1;
            }
        }
        while unfrozen > 0 {
            for k in 0..self.touched_d.len() {
                let d = self.touched_d[k];
                self.wsum[d] = 0.0;
            }
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let e = self.dirty[i];
                let w = self.entries[e].weight;
                let nd = self.entries[e].route.dirs.len();
                for k in 0..nd {
                    let d = self.entries[e].route.dirs[k];
                    self.wsum[d] += w;
                }
            }
            let mut inc = f64::INFINITY;
            for k in 0..self.touched_d.len() {
                let d = self.touched_d[k];
                if self.wsum[d] > 0.0 {
                    inc = inc.min(self.residual[d].max(0.0) / self.wsum[d]);
                }
            }
            for i in 0..n {
                if !frozen[i] {
                    let e = self.dirty[i];
                    inc = inc.min(self.entries[e].cap - self.fr_rate[i]);
                }
            }
            if !inc.is_finite() {
                break;
            }
            let inc = inc.max(0.0);
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let e = self.dirty[i];
                let w = self.entries[e].weight;
                self.fr_rate[i] += inc;
                let nd = self.entries[e].route.dirs.len();
                for k in 0..nd {
                    let d = self.entries[e].route.dirs[k];
                    self.residual[d] -= w * inc;
                }
            }
            let mut any = false;
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let e = self.dirty[i];
                let cap = self.entries[e].cap;
                let capped = self.fr_rate[i] >= cap - 1e-9 * cap.max(1.0);
                let mut saturated = false;
                let nd = self.entries[e].route.dirs.len();
                for k in 0..nd {
                    let d = self.entries[e].route.dirs[k];
                    if self.residual[d] <= 1e-9 * self.cap_v[d].max(1.0) {
                        saturated = true;
                        break;
                    }
                }
                if capped || saturated {
                    frozen[i] = true;
                    unfrozen -= 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Both fills from the same residuals, rates and residuals compared
    /// bit for bit. Every resolve of a unit-test build goes through here.
    fn fill_checked(&mut self) {
        let touched = self.touched_d.clone();
        let residual_bits = |eng: &Engine| -> Vec<u64> {
            touched.iter().map(|&d| eng.residual[d].to_bits()).collect()
        };
        let rate_bits =
            |eng: &Engine| -> Vec<u64> { eng.fr_rate.iter().map(|r| r.to_bits()).collect() };
        let before: Vec<f64> = touched.iter().map(|&d| self.residual[d]).collect();
        self.fill_reference();
        let want = (rate_bits(self), residual_bits(self));
        for (&d, &r) in touched.iter().zip(&before) {
            self.residual[d] = r;
        }
        self.fill();
        assert_eq!(rate_bits(self), want.0, "fill rates diverged");
        assert_eq!(residual_bits(self), want.1, "fill residuals diverged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    fn line() -> (Net, Rc<Route>, Rc<Route>) {
        let mut net = Net::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        let c = net.add_site("c");
        net.add_link(a, b, LinkClass::T1, Dur::from_millis(1));
        net.add_link(b, c, LinkClass::T1, Dur::from_millis(1));
        let r_ac = Rc::new(net.route(a, c).unwrap());
        let r_ab = Rc::new(net.route(a, b).unwrap());
        (net, r_ac, r_ab)
    }

    #[test]
    fn incremental_matches_reference_on_insert_and_remove() {
        let (net, r_ac, r_ab) = line();
        let cfg = FlowConfig {
            verify: true,
            ..FlowConfig::default()
        };
        let mut eng = Engine::new(&net, &cfg);
        let mut out = Vec::new();
        let t0 = SimTime::ZERO;
        let e1 = eng.insert(r_ac, 0, 2, None, f64::INFINITY, 1e6, 0, t0, t0);
        eng.resolve(&net, t0, &mut out);
        let cap = LinkClass::T1.bytes_per_sec();
        assert!((eng.rate(e1) - cap).abs() / cap < 1e-9);
        // Second flow shares the first hop: both drop to cap/2.
        let t1 = SimTime::from_secs_f64(0.5);
        let e2 = eng.insert(r_ab, 0, 1, None, f64::INFINITY, 1e6, 1, t1, t1);
        eng.sync(e1, t1);
        eng.resolve(&net, t1, &mut out);
        assert!((eng.rate(e1) - cap / 2.0).abs() / cap < 1e-9);
        assert!((eng.rate(e2) - cap / 2.0).abs() / cap < 1e-9);
        // Removing e2 hands the full link back to e1.
        let t2 = SimTime::from_secs_f64(1.0);
        eng.sync(e2, t2);
        while eng.member_count(e2) > 0 {
            eng.pop_member(e2);
        }
        eng.remove_entry(e2, t2);
        eng.resolve(&net, t2, &mut out);
        assert!((eng.rate(e1) - cap).abs() / cap < 1e-9);
        assert!(out.contains(&e1));
    }

    #[test]
    fn aggregate_weight_equals_member_count_rates() {
        let (net, r_ac, _) = line();
        let cfg = FlowConfig {
            verify: true,
            ..FlowConfig::default()
        };
        let mut eng = Engine::new(&net, &cfg);
        let mut out = Vec::new();
        let t0 = SimTime::ZERO;
        let e = eng.insert(r_ac.clone(), 0, 2, None, f64::INFINITY, 500.0, 0, t0, t0);
        for f in 1..4u32 {
            eng.join(e, 500.0, f, t0, t0);
        }
        eng.resolve(&net, t0, &mut out);
        // Four members share the bottleneck: per-member rate is cap/4,
        // exactly what four separate flows would get.
        let cap = LinkClass::T1.bytes_per_sec();
        assert!((eng.rate(e) - cap / 4.0).abs() / cap < 1e-9);
        assert_eq!(eng.member_count(e), 4);
        assert_eq!(eng.stats.aggregated_joins, 3);
    }

    #[test]
    fn lazy_drain_tracks_carried_bytes() {
        let (net, r_ac, _) = line();
        let mut eng = Engine::new(&net, &FlowConfig::default());
        let mut out = Vec::new();
        let t0 = SimTime::ZERO;
        let e = eng.insert(r_ac, 0, 2, None, f64::INFINITY, 1e9, 0, t0, t0);
        eng.resolve(&net, t0, &mut out);
        let t1 = SimTime::from_secs_f64(2.0);
        eng.sync(e, t1);
        let cap = LinkClass::T1.bytes_per_sec();
        let rem = eng.peek_rem(e).unwrap();
        assert!((1e9 - rem - 2.0 * cap).abs() < 1.0, "2 s of drain");
        let carried = eng.into_carried();
        let total: f64 = carried.iter().sum();
        // Two hops, each carried 2 s at the bottleneck rate.
        assert!((total - 2.0 * 2.0 * cap).abs() < 1.0);
    }

    /// Opens an uncapped entry of `weight` members on `route`.
    fn open(eng: &mut Engine, route: &Rc<Route>, weight: u32) -> EntryId {
        let t0 = SimTime::ZERO;
        let e = eng.insert(route.clone(), 0, 0, None, f64::INFINITY, 1e9, 0, t0, t0);
        for f in 1..weight {
            eng.join(e, 1e9, f, t0, t0);
        }
        e
    }

    /// Link a→b carries weights 3, 1, 2 in `dirty` order and 1, 2, 3 in
    /// `on` order (a swap-remove reordered the roster, not the link's
    /// list). At T1 capacity the residual's bits tell the orders apart,
    /// so a fill that walked `on[d]` would fail `fill_checked` here.
    #[test]
    fn fill_subtracts_in_dirty_order() {
        let (net, _, r_ab) = line();
        let r_bc = Rc::new(net.route(1, 2).unwrap());
        let cfg = FlowConfig {
            full_fraction: 0.0,
            verify: true,
            ..FlowConfig::default()
        };
        let mut eng = Engine::new(&net, &cfg);
        let x = open(&mut eng, &r_bc, 1);
        let a = open(&mut eng, &r_ab, 1);
        let b = open(&mut eng, &r_ab, 2);
        let c = open(&mut eng, &r_ab, 3);
        eng.pop_member(x);
        eng.remove_entry(x, SimTime::ZERO);
        eng.resolve(&net, SimTime::ZERO, &mut Vec::new());

        let d = r_ab.dirs[0];
        let on: Vec<EntryId> = eng.on[d].iter().map(|&(e, _)| e as usize).collect();
        assert_eq!(
            (eng.dirty.as_slice(), on.as_slice()),
            (&[c, a, b][..], &[a, b, c][..])
        );
        let cap = eng.cap_v[d];
        let along = |ws: [f64; 3]| ws.iter().fold(cap, |r, w| r - w * (cap / 6.0)).to_bits();
        assert_eq!(eng.residual[d].to_bits(), along([3.0, 1.0, 2.0]));
        assert_ne!(along([3.0, 1.0, 2.0]), along([1.0, 2.0, 3.0]), "`on` order");
        assert_ne!(along([3.0, 1.0, 2.0]), along([2.0, 1.0, 3.0]), "reversed");
    }

    /// Opens one single-member entry per route of `roster` and resolves,
    /// then opens `arrival` and resolves again, every resolve checked
    /// against the reference solver: whether the arrival's resolve fell
    /// back to a full re-solve.
    fn arrival_falls_back(
        net: &Net,
        roster: &[&Rc<Route>],
        arrival: &Rc<Route>,
        full_fraction: f64,
    ) -> bool {
        let cfg = FlowConfig {
            full_fraction,
            verify: true,
            ..FlowConfig::default()
        };
        let mut eng = Engine::new(net, &cfg);
        for route in roster {
            open(&mut eng, route, 1);
        }
        eng.resolve(net, SimTime::ZERO, &mut Vec::new());
        let before = eng.stats.full_resolves;
        open(&mut eng, arrival, 1);
        eng.resolve(net, SimTime::ZERO, &mut Vec::new());
        eng.stats.full_resolves > before
    }

    /// The fallback needs a closure wide in links as well as in entries.
    /// `crowd`: eight flows share a 56 kb/s access link behind a gigabit
    /// hub with six idle T3 spokes; a ninth arriving there pulls in all
    /// of them (9 of 9 live entries) over 2 of 16 directed links, and
    /// resolves partially. `spread`: on the a–b–c line an a→b arrival
    /// reaches both saturated hops through the a→c flow (4 of 4 entries
    /// over 2 of 4 directed links) and falls back. 0.0 still falls back
    /// on both and 1.0 on neither.
    #[test]
    fn fallback_needs_a_closure_wide_in_links_too() {
        let mut star = Net::new();
        let d = star.add_site("d");
        let h = star.add_site("h");
        let p = star.add_site("p");
        star.add_link(d, h, LinkClass::Gigabit, Dur::from_millis(1));
        star.add_link(h, p, LinkClass::Regional56k, Dur::from_millis(1));
        for i in 0..6 {
            let x = star.add_site(format!("x{i}"));
            star.add_link(h, x, LinkClass::T3, Dur::from_millis(1));
        }
        let r_dp = Rc::new(star.route(d, p).unwrap());
        let crowd = [&r_dp; 8];
        let (path, r_ac, r_ab) = line();
        let r_bc = Rc::new(path.route(1, 2).unwrap());
        let spread = [&r_ac, &r_ab, &r_bc];
        for (frac, crowd_full, spread_full) in
            [(0.25, false, true), (0.0, true, true), (1.0, false, false)]
        {
            let got = (
                arrival_falls_back(&star, &crowd, &r_dp, frac),
                arrival_falls_back(&path, &spread, &r_ab, frac),
            );
            assert_eq!(got, (crowd_full, spread_full), "full_fraction {frac}");
        }
    }

    /// ≥ 200 seeded rosters through `resolve` (whose fill is
    /// `fill_checked` here): weights > 1, window caps, empty routes,
    /// `full_fraction` 1.0 (never fall back), 0.25 (the default) and 0.0
    /// (fall back whenever the closure crosses a link). The
    /// last 80 open with a tie: entries on one route, one of them capped
    /// at exactly the route's fair share, so the cap and the saturating
    /// bottleneck freeze in the same round.
    #[test]
    fn fill_matches_the_reference_on_seeded_rosters() {
        use crate::topologies;
        use des::rng::Rng;
        let nets = [
            topologies::nsfnet(LinkClass::T3),
            topologies::delta_consortium(),
            topologies::fat_tree(4, LinkClass::Gigabit, LinkClass::Gig100, "t.").net,
        ];
        let fractions = [1.0, 0.25, 0.0];
        let (mut full, mut partial) = (0, 0);
        for seed in 0..320u64 {
            let mut rng = Rng::new(seed);
            let net = &nets[seed as usize % nets.len()];
            let cfg = FlowConfig {
                full_fraction: fractions[(seed / 3) as usize % fractions.len()],
                verify: true,
                ..FlowConfig::default()
            };
            let mut eng = Engine::new(net, &cfg);
            let mut out = Vec::new();
            let mut live: Vec<EntryId> = Vec::new();
            let mut flow = 0u32;
            if seed >= 240 {
                let (src, dst) = loop {
                    let s = rng.below(net.sites() as u64) as SiteId;
                    let d = rng.below(net.sites() as u64) as SiteId;
                    if s != d {
                        break (s, d);
                    }
                };
                let route = Rc::new(net.route(src, dst).expect("connected"));
                let weights: Vec<u32> = (0..rng.range_u64(2, 5))
                    .map(|_| rng.range_u64(1, 3) as u32)
                    .collect();
                let share = net.bottleneck(&route) / weights.iter().sum::<u32>() as f64;
                let capped = rng.below(weights.len() as u64) as usize;
                for (k, &w) in weights.iter().enumerate() {
                    let cap = if k == capped { share } else { f64::INFINITY };
                    let t0 = SimTime::ZERO;
                    let e = eng.insert(route.clone(), src, dst, None, cap, 1e12, flow, t0, t0);
                    for _ in 1..w {
                        flow += 1;
                        eng.join(e, 1e12, flow, t0, t0);
                    }
                    flow += 1;
                    live.push(e);
                }
                eng.resolve(net, SimTime::ZERO, &mut out);
                assert!(live.iter().all(|&e| eng.rate(e) == share), "seed {seed}");
            }
            for step in 0..6u64 {
                let now = SimTime::from_secs_f64(step as f64 * 0.25);
                for _ in 0..rng.range_u64(1, 12) {
                    let src = rng.below(net.sites() as u64) as SiteId;
                    // One in eight is a self-route: no links, frozen at its cap.
                    let dst = if rng.chance(0.125) {
                        src
                    } else {
                        rng.below(net.sites() as u64) as SiteId
                    };
                    let route = Rc::new(net.route(src, dst).expect("connected"));
                    let cap = if src == dst || rng.chance(0.4) {
                        rng.range_f64(1e3, 1e6)
                    } else {
                        f64::INFINITY
                    };
                    let e = eng.insert(route, src, dst, None, cap, 1e12, flow, now, now);
                    flow += 1;
                    for _ in 0..rng.below(4) {
                        eng.join(e, 1e12, flow, now, now);
                        flow += 1;
                    }
                    live.push(e);
                }
                // Retire a few, so later resolves start from a loaded net.
                for _ in 0..rng.below(3) {
                    if live.len() > 1 {
                        let e = live.swap_remove(rng.below(live.len() as u64) as usize);
                        eng.sync(e, now);
                        while eng.member_count(e) > 0 {
                            eng.pop_member(e);
                        }
                        eng.remove_entry(e, now);
                    }
                }
                eng.resolve(net, now, &mut out);
            }
            full += eng.stats.full_resolves;
            partial += eng.stats.resolves - eng.stats.full_resolves;
        }
        assert!(
            full > 100 && partial > 100,
            "{full} full, {partial} partial"
        );
    }
}
