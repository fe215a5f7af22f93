//! `StreamRecorder` — online, thread-safe aggregation for live telemetry.
//!
//! [`crate::MemRecorder`] buffers every event and exports post-hoc, which
//! cannot serve concurrent dashboard readers against a hot simulation: the
//! buffer grows without bound and a reader would have to copy all of it.
//! `StreamRecorder` instead aggregates *online* and keeps only a bounded
//! tail of raw events:
//!
//! * **Span cells** — one per (process, category) group, the only level
//!   `/metrics` serves, written by every track of the process: a
//!   log-linear histogram of span durations held in plain `AtomicU64`
//!   bucket counters, plus count/sum/min/max. Readers load the counters
//!   without ever stopping the writer. At scrape time one cumulative
//!   scan of a group's bucket counts finds p50, p90 and p99 by the edge
//!   rule of [`des::stats::Histogram::quantile`], and each bucket decodes
//!   back to nanoseconds.
//! * **Counter cells** — one per (track, name): last sampled value (bit
//!   cast through `AtomicU64`), sample count, running max.
//! * **Instant cells** — one per (track, category, name): occurrence count.
//! * **Event ring** — a bounded deque of immutable chunks of recent events
//!   for live trace tailing (`/trace?since=<seq>`). The writer appends to
//!   an active chunk and publishes it when full; readers only ever touch
//!   published (frozen) chunks, so a slow reader can never block or
//!   corrupt the simulation thread. When the deque is full the oldest
//!   chunk is *evicted* and its events counted in
//!   [`RingLedger::evicted_events`] — drops are counted, never silent.
//!
//! ## Perturbation budget
//!
//! An event costs one `Mutex`: the writer lock, which guards the ring's
//! active chunk and the writer's own per-track index of the cells. Under
//! it the writer probes its index (≤ 8 entries a track; a span's entry
//! points at its group's cell), updates the cell and the totals with
//! relaxed loads and stores — the lock serialises writers, so no
//! read-modify-write is needed — and appends the event. The cells are
//! `Arc`s held by the index and by the registry the readers scan; the
//! writer only dereferences its own, so no `Arc` is cloned or dropped per
//! event. Only a (track, key)'s first event takes the registry's write
//! lock, to find its cell (a span's group's) or insert it, and never
//! while it holds the writer lock. Every `chunk_cap` events the active
//! chunk is published and the next one starts in the buffer of an
//! evicted chunk no reader still holds, when there is one, so the
//! steady-state writer allocates one `Arc` a chunk and nothing else (ring
//! names are inlined up to `SmallName::CAP` = 31 bytes, then truncated).
//!
//! Readers take the registry's read lock, load atomics and clone `Arc`s
//! of frozen chunks. Of the writer lock they take only the moment
//! `ring_ledger` needs to count; the lock on the published chunks, which
//! `/trace` takes, the writer takes once a chunk. A reader holds the
//! registry lock only while it builds its answer in memory (≈ 0.1 ms per
//! 1,024 `/trace` events, 0.04 ms a `/metrics` on `telemetry_live`), never
//! across socket I/O, so all it can delay is the insertion of a new cell
//! or track. Like every recorder, it is a pure observer — recorded runs
//! stay bit-identical to unrecorded ones (asserted in exhibit OBS-2).
//!
//! ## Accounting ledger
//!
//! Every emitted event is aggregated exactly once and lands in the ring
//! exactly once; nothing is silently lost:
//!
//! ```text
//! events_total == spans + counters + instants          (aggregation)
//! events_total == retained + evicted + active          (ring)
//! ```
//!
//! Both identities are exposed on `/metrics` and property-tested.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::{chrome, Recorder, Track, TrackId, Tracks};

/// Sub-buckets per power of two in the log-linear histogram.
const MINOR_BITS: u32 = 3;
const MINORS: usize = 1 << MINOR_BITS;
/// Total buckets: values `0..MINORS` get exact buckets, then every power
/// of two from `2^MINOR_BITS` to `2^63` gets `MINORS` linear sub-buckets
/// (61 majors × `MINORS` minors after the exact range).
/// Covers all of `u64` — a duration can neither under- nor overflow.
pub const NBUCKETS: usize = (64 - MINOR_BITS as usize + 1) * MINORS;

/// Bucket index for a nanosecond duration. Monotone in `v`; relative
/// bucket width is at most `1/MINORS` (12.5%), the quantile resolution.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < MINORS as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - MINOR_BITS;
    let minor = ((v >> shift) & (MINORS as u64 - 1)) as usize;
    ((top - MINOR_BITS) as usize + 1) * MINORS + minor
}

/// Inclusive upper bound of bucket `i` — the value reported for a
/// quantile landing in it (mirrors `Histogram::quantile` returning the
/// bucket's upper edge). Saturates at `u64::MAX` for the last bucket.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i < MINORS {
        return i as u64;
    }
    let major = i / MINORS - 1;
    let minor = i % MINORS;
    let hi = ((MINORS + minor + 1) as u128) << major;
    (hi - 1).min(u64::MAX as u128) as u64
}

/// The bucket holding each quantile `ps[j]` (ascending) of the bucket
/// counts `counts`, in one cumulative scan: the first bucket whose
/// running count reaches `⌈p · total⌉`, the rule of
/// [`des::stats::Histogram::quantile`]. Empty counts read bucket 0.
fn quantile_buckets<const K: usize>(counts: &[u64], ps: [f64; K]) -> [usize; K] {
    let total = counts.iter().sum::<u64>() as f64;
    let mut found = [counts.len() - 1; K];
    let (mut j, mut acc) = (0, 0);
    for (i, &c) in counts.iter().enumerate() {
        acc += c;
        while j < K && acc >= (ps[j] * total).ceil() as u64 {
            found[j] = i;
            j += 1;
        }
    }
    found
}

/// `a += by` where only the writer lock's holder writes `a`: a relaxed
/// load and store, no read-modify-write. Readers still see every value
/// whole, and each counter only moves forward (wrapping on overflow, as
/// an atomic add would).
#[inline]
fn bump(a: &AtomicU64, by: u64) {
    a.store(
        a.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// Inline string for ring events and instant keys: the hot path must not
/// allocate. Longer names are truncated at a char boundary — the span and
/// counter cells (which key on category and counter name) are unaffected.
#[derive(Clone, Copy, PartialEq)]
pub struct SmallName {
    len: u8,
    bytes: [u8; SmallName::CAP],
}

impl SmallName {
    pub(crate) const CAP: usize = 31;

    pub(crate) fn new(s: &str) -> SmallName {
        let mut end = s.len().min(Self::CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; Self::CAP];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallName {
            len: end as u8,
            bytes,
        }
    }

    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("truncated on char boundary")
    }
}

impl std::fmt::Debug for SmallName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

/// One recent event in the ring, fixed-size (no heap).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingEvent {
    track: TrackId,
    cat: &'static str,
    name: SmallName,
    kind: RingKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum RingKind {
    Span { start_ns: u64, end_ns: u64 },
    Instant { at_ns: u64 },
    Counter { at_ns: u64, value: f64 },
}

/// A run of consecutive events: the writer's active buffer, then frozen
/// and published. `base_seq` is the global sequence number of `events[0]`.
pub(crate) struct Chunk {
    base_seq: u64,
    events: Vec<RingEvent>,
}

/// Everything an event changes that is not an atomic, behind the one
/// lock a writer takes per event.
struct Writer {
    /// The ring's active chunk; readers never see it until it is frozen.
    chunk: Chunk,
    /// The writer's own index of the registry's cells, by track id.
    cells: Vec<TrackCells>,
    /// The emptied buffer of an evicted chunk no reader held, for the
    /// next chunk.
    spare: Option<Vec<RingEvent>>,
}

/// The frozen chunks, oldest first, and how many events were evicted
/// before them. Chunks are evicted in sequence order from 0, so
/// `evicted` is also the oldest retained sequence number.
struct Published {
    chunks: VecDeque<Arc<Chunk>>,
    evicted: u64,
}

struct Ring {
    /// Readers clone `Arc`s out under this briefly-held lock; the writer
    /// takes it once per `chunk_cap` events to publish.
    published: Mutex<Published>,
    chunk_cap: usize,
    max_chunks: usize,
}

/// Ring accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLedger {
    /// Events currently in published (reader-visible) chunks.
    pub retained_events: u64,
    /// Events in the writer's active (not yet visible) chunk.
    pub active_events: u64,
    /// Events lost to eviction of the oldest chunk — the drop counter.
    pub evicted_events: u64,
    /// Next sequence number to be assigned (== total events ever rung).
    pub next_seq: u64,
    /// Oldest retained sequence number.
    pub oldest_seq: u64,
}

impl Ring {
    fn new(chunk_cap: usize, max_chunks: usize) -> Ring {
        Ring {
            published: Mutex::new(Published {
                chunks: VecDeque::with_capacity(max_chunks + 1),
                evicted: 0,
            }),
            chunk_cap,
            max_chunks,
        }
    }

    /// Publish the writer's active chunk and start the next one in the
    /// spare buffer, or a new one; chunks past `max_chunks` are evicted,
    /// oldest first, and counted. Runs under the writer lock, which is
    /// taken before `published` here as in `ledger`.
    fn freeze(&self, w: &mut Writer) {
        let events = w
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(self.chunk_cap));
        let next = Chunk {
            base_seq: w.chunk.base_seq + w.chunk.events.len() as u64,
            events,
        };
        let chunk = Arc::new(std::mem::replace(&mut w.chunk, next));
        let mut pubs = self.published.lock().expect("ring published");
        pubs.chunks.push_back(chunk);
        while pubs.chunks.len() > self.max_chunks {
            let gone = pubs.chunks.pop_front().expect("nonempty");
            pubs.evicted += gone.events.len() as u64;
            if let Ok(Chunk { mut events, .. }) = Arc::try_unwrap(gone) {
                events.clear();
                w.spare = Some(events);
            }
        }
    }

    /// Snapshot the published chunks overlapping `since..`, and the
    /// oldest retained sequence number, from one critical section.
    fn read_since(&self, since: u64) -> (Vec<Arc<Chunk>>, u64) {
        let pubs = self.published.lock().expect("ring published");
        let chunks = pubs
            .chunks
            .iter()
            .filter(|c| c.base_seq + c.events.len() as u64 > since)
            .cloned()
            .collect();
        (chunks, pubs.evicted)
    }

    /// The ledger, counted under the writer lock `w` comes from, so the
    /// active and published counts come from one consistent cut.
    fn ledger(&self, w: &Writer) -> RingLedger {
        let pubs = self.published.lock().expect("ring published");
        let retained: u64 = pubs.chunks.iter().map(|c| c.events.len() as u64).sum();
        RingLedger {
            retained_events: retained,
            active_events: w.chunk.events.len() as u64,
            evicted_events: pubs.evicted,
            next_seq: w.chunk.base_seq + w.chunk.events.len() as u64,
            oldest_seq: pubs.evicted,
        }
    }
}

/// Online histogram + scalar moments for one (process, category) group.
struct SpanCell {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for SpanCell {
    fn default() -> SpanCell {
        SpanCell {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl SpanCell {
    /// Only the writer lock's holder calls this (see [`bump`]).
    #[inline]
    fn add(&self, dur_ns: u64) {
        bump(&self.buckets[bucket_of(dur_ns)], 1);
        bump(&self.count, 1);
        bump(&self.sum_ns, dur_ns);
        if dur_ns < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.store(dur_ns, Ordering::Relaxed);
        }
        if dur_ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.store(dur_ns, Ordering::Relaxed);
        }
    }
}

/// Last-value + sample-count cell for one (track, counter-name).
struct CounterCell {
    last_bits: AtomicU64,
    samples: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for CounterCell {
    fn default() -> CounterCell {
        CounterCell {
            last_bits: AtomicU64::new(0f64.to_bits()),
            samples: AtomicU64::new(0),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl CounterCell {
    /// Only the writer lock's holder calls this (see [`bump`]).
    #[inline]
    fn sample(&self, value: f64) {
        self.last_bits.store(value.to_bits(), Ordering::Relaxed);
        bump(&self.samples, 1);
        if value > f64::from_bits(self.max_bits.load(Ordering::Relaxed)) {
            self.max_bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Per-track cell directory. Categories/counter names per track are few
/// (≤ ~8), so a linear probe over a small Vec beats hashing. The registry
/// and the writer's index each keep one per track, holding the same
/// `Arc`s; the registry's `spans` stay empty (its span cells are groups).
#[derive(Default)]
struct TrackCells {
    spans: Vec<(&'static str, Arc<SpanCell>)>,
    counters: Vec<(&'static str, Arc<CounterCell>)>,
    instants: Vec<((&'static str, SmallName), Arc<AtomicU64>)>,
}

/// Picks one kind's directory out of a track's cells.
type Dir<K, C> = fn(&mut TrackCells) -> &mut Vec<(K, Arc<C>)>;

/// The registry's cell for a (track, key), inserted when there is none
/// (`true`): [`Registry::own`] or [`Registry::group`].
type Home<K, C> = fn(&mut Registry, TrackId, K, Dir<K, C>) -> (Arc<C>, bool);

/// The cell keyed `key` in `dir` of `track`'s cells, if there is one.
fn find<K: PartialEq + 'static, C: 'static>(
    cells: &mut [TrackCells],
    track: TrackId,
    key: K,
    dir: Dir<K, C>,
) -> Option<&C> {
    let dir = dir(cells.get_mut(track as usize)?);
    dir.iter().find(|(k, _)| *k == key).map(|(_, cell)| &**cell)
}

/// The cell keyed `key` in `dir` of `track`'s cells, inserting `make()`
/// when there is none; `true` when it was inserted.
fn find_or_insert<K: PartialEq + 'static, C: 'static>(
    cells: &mut Vec<TrackCells>,
    track: TrackId,
    key: K,
    dir: Dir<K, C>,
    make: impl FnOnce() -> Arc<C>,
) -> (&Arc<C>, bool) {
    let idx = track as usize;
    if cells.len() <= idx {
        cells.resize_with(idx + 1, TrackCells::default);
    }
    let dir = dir(&mut cells[idx]);
    let (at, fresh) = match dir.iter().position(|(k, _)| *k == key) {
        Some(at) => (at, false),
        None => {
            dir.push((key, make()));
            (dir.len() - 1, true)
        }
    };
    (&dir[at].1, fresh)
}

#[derive(Default)]
struct Registry {
    tracks: Tracks,
    /// Indexed by track id; a track's entry appears with its first event.
    cells: Vec<TrackCells>,
    /// One span cell per (process, category), the only level `/metrics`
    /// serves, in first-event order.
    groups: Vec<(Arc<str>, &'static str, Arc<SpanCell>)>,
}

impl Registry {
    /// A counter's or an instant's cell: its track's own.
    fn own<K: PartialEq + 'static, C: Default + 'static>(
        &mut self,
        track: TrackId,
        key: K,
        dir: Dir<K, C>,
    ) -> (Arc<C>, bool) {
        let (cell, fresh) = find_or_insert(&mut self.cells, track, key, dir, Arc::default);
        (Arc::clone(cell), fresh)
    }

    /// A span's cell: the one its track's process shares for `cat`. Spans
    /// on a track id nobody registered (yet) get a cell no group holds:
    /// they count in the totals and are served in no group.
    fn group(
        &mut self,
        track: TrackId,
        cat: &'static str,
        _: Dir<&str, SpanCell>,
    ) -> (Arc<SpanCell>, bool) {
        let Some(row) = self.tracks.rows().get(track as usize) else {
            return (Arc::default(), true);
        };
        let key = (&*row.process, cat);
        if let Some((_, _, cell)) = self.groups.iter().find(|(p, c, _)| (&**p, *c) == key) {
            return (Arc::clone(cell), false);
        }
        let cell = Arc::<SpanCell>::default();
        let group = (Arc::clone(&row.process), cat, Arc::clone(&cell));
        self.groups.push(group);
        (cell, true)
    }
}

/// Aggregated view of one (process, category) span group, as served on
/// `/metrics`.
#[derive(Debug, Clone)]
pub struct SpanGroup {
    pub process: Arc<str>,
    pub category: &'static str,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

/// One counter series on `/metrics`.
#[derive(Debug, Clone)]
pub struct CounterSeries {
    pub process: Arc<str>,
    pub thread: Arc<str>,
    pub name: &'static str,
    pub last: f64,
    pub max: f64,
    pub samples: u64,
}

/// One instant-count series on `/metrics`.
#[derive(Debug, Clone)]
pub struct InstantSeries {
    pub process: Arc<str>,
    pub thread: Arc<str>,
    pub category: &'static str,
    pub name: SmallName,
    pub count: u64,
}

/// Full scrape snapshot (also the structured form behind `/metrics`).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub spans: Vec<SpanGroup>,
    pub counters: Vec<CounterSeries>,
    pub instants: Vec<InstantSeries>,
    pub events_total: u64,
    pub spans_total: u64,
    pub counters_total: u64,
    pub instants_total: u64,
    pub ring: RingLedger,
    pub tracks: u64,
}

/// The streaming recorder. `Sync`: share it as `Arc<StreamRecorder>`
/// between the simulation thread and any number of HTTP reader threads.
pub struct StreamRecorder {
    reg: RwLock<Registry>,
    writer: Mutex<Writer>,
    ring: Ring,
    events_total: AtomicU64,
    spans_total: AtomicU64,
    counters_total: AtomicU64,
    instants_total: AtomicU64,
}

impl Default for StreamRecorder {
    fn default() -> StreamRecorder {
        StreamRecorder::new()
    }
}

impl StreamRecorder {
    /// Default ring: 64 chunks × 1024 events ≈ the last 65k events.
    pub fn new() -> StreamRecorder {
        StreamRecorder::with_ring(1024, 64)
    }

    /// `chunk_cap` events per chunk, at most `max_chunks` published
    /// chunks retained for tail readers.
    pub fn with_ring(chunk_cap: usize, max_chunks: usize) -> StreamRecorder {
        assert!(chunk_cap > 0 && max_chunks > 0);
        StreamRecorder {
            reg: RwLock::new(Registry::default()),
            writer: Mutex::new(Writer {
                chunk: Chunk {
                    base_seq: 0,
                    events: Vec::with_capacity(chunk_cap),
                },
                cells: Vec::new(),
                spare: None,
            }),
            ring: Ring::new(chunk_cap, max_chunks),
            events_total: AtomicU64::new(0),
            spans_total: AtomicU64::new(0),
            counters_total: AtomicU64::new(0),
            instants_total: AtomicU64::new(0),
        }
    }

    /// Writer-side: publish the partially-filled active chunk so tail
    /// readers catch up to the latest event (call at phase boundaries;
    /// chunk publication is otherwise automatic every `chunk_cap`
    /// events).
    pub fn flush_ring(&self) {
        let mut w = self.writer.lock().expect("writer");
        if !w.chunk.events.is_empty() {
            self.ring.freeze(&mut w);
        }
    }

    /// Total events emitted through the recorder so far.
    pub fn events_total(&self) -> u64 {
        self.events_total.load(Ordering::Relaxed)
    }

    /// Ring accounting (retained / active / evicted / seq window).
    pub fn ring_ledger(&self) -> RingLedger {
        self.ring.ledger(&self.writer.lock().expect("writer"))
    }

    /// Registered tracks, in id order.
    pub fn tracks(&self) -> Vec<Track> {
        self.reg.read().expect("registry").tracks.rows().to_vec()
    }

    /// Record one event under the writer lock: apply `update` to the cell
    /// keyed `key` in `dir` of `track`'s cells, which `home` finds in the
    /// registry on the key's first event, count the event in `total` and
    /// `events_total`, and append `ev` to the ring.
    #[allow(clippy::too_many_arguments)]
    fn record<K: Copy + PartialEq + 'static, C: Default + 'static>(
        &self,
        track: TrackId,
        key: K,
        dir: Dir<K, C>,
        home: Home<K, C>,
        update: impl Fn(&C),
        total: &AtomicU64,
        ev: RingEvent,
    ) {
        let mut w = self.writer.lock().expect("writer");
        if let Some(cell) = find(&mut w.cells, track, key, dir) {
            update(cell);
        } else {
            // A key's first event. Its cell is found or inserted in the
            // registry with the writer lock dropped, since `trace_chunk`
            // takes the registry before the ring; a racing writer may
            // insert it first. A cell this event inserts is updated before
            // the registry shows it: no reader sees it empty, and no other
            // writer can reach it yet.
            drop(w);
            let (cell, fresh) = {
                let mut reg = self.reg.write().expect("registry");
                let (cell, fresh) = home(&mut reg, track, key, dir);
                if fresh {
                    update(&cell);
                }
                (cell, fresh)
            };
            w = self.writer.lock().expect("writer");
            let (cell, _) = find_or_insert(&mut w.cells, track, key, dir, || cell);
            if !fresh {
                update(cell);
            }
        }
        bump(total, 1);
        bump(&self.events_total, 1);
        w.chunk.events.push(ev);
        if w.chunk.events.len() >= self.ring.chunk_cap {
            self.ring.freeze(&mut w);
        }
    }

    /// Aggregate snapshot: per-(process, category) span quantiles (from
    /// the group cell's bucket counts), counter and instant series, the
    /// self-accounting totals, and the ring ledger. Labels share the
    /// registry's names: no series allocates a string.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let reg = self.reg.read().expect("registry");
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        // One array of bucket counts, refilled for each group.
        let mut counts = [0; NBUCKETS];
        let mut spans: Vec<SpanGroup> = reg
            .groups
            .iter()
            .map(|(process, category, cell)| {
                for (n, b) in counts.iter_mut().zip(cell.buckets.iter()) {
                    *n = load(b);
                }
                let [p50_ns, p90_ns, p99_ns] =
                    quantile_buckets(&counts, [0.50, 0.90, 0.99]).map(bucket_hi);
                let count = load(&cell.count);
                SpanGroup {
                    process: Arc::clone(process),
                    category,
                    count,
                    sum_ns: load(&cell.sum_ns),
                    min_ns: if count == 0 { 0 } else { load(&cell.min_ns) },
                    max_ns: load(&cell.max_ns),
                    p50_ns,
                    p90_ns,
                    p99_ns,
                }
            })
            .collect();
        spans.sort_by(|a, b| (&a.process, a.category).cmp(&(&b.process, b.category)));
        let mut counters = Vec::new();
        let mut instants = Vec::new();
        // A track's cells appear with its first event; cells under an id
        // nobody registered have no (process, thread) to be served as.
        for (track, tc) in reg.tracks.rows().iter().zip(&reg.cells) {
            for (name, cell) in &tc.counters {
                counters.push(CounterSeries {
                    process: Arc::clone(&track.process),
                    thread: Arc::clone(&track.thread),
                    name,
                    last: f64::from_bits(load(&cell.last_bits)),
                    max: f64::from_bits(load(&cell.max_bits)),
                    samples: load(&cell.samples),
                });
            }
            for &((category, name), ref cell) in &tc.instants {
                instants.push(InstantSeries {
                    process: Arc::clone(&track.process),
                    thread: Arc::clone(&track.thread),
                    category,
                    name,
                    count: load(cell),
                });
            }
        }

        let tracks = reg.tracks.rows().len() as u64;
        drop(reg);
        MetricsSnapshot {
            spans,
            counters,
            instants,
            events_total: self.events_total.load(Ordering::Relaxed),
            spans_total: self.spans_total.load(Ordering::Relaxed),
            counters_total: self.counters_total.load(Ordering::Relaxed),
            instants_total: self.instants_total.load(Ordering::Relaxed),
            ring: self.ring_ledger(),
            tracks,
        }
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — what `GET /metrics` serves. Labels and values
    /// are written straight into the answer, not built as strings first.
    pub fn prometheus_text(&self) -> String {
        let snap = self.metrics_snapshot();
        let mut out = String::with_capacity(4096);
        let secs = |ns: u64| Sample(ns as f64 / 1e9);

        out.push_str(
            "# HELP hpcc_span_latency_seconds Span durations per (process, category).\n\
             # TYPE hpcc_span_latency_seconds summary\n",
        );
        for g in &snap.spans {
            let labels = Labels([("process", &g.process), ("category", g.category)]);
            for (q, v) in [(0.5, g.p50_ns), (0.9, g.p90_ns), (0.99, g.p99_ns)] {
                let _ = writeln!(
                    out,
                    "hpcc_span_latency_seconds{{{labels},quantile=\"{q}\"}} {}",
                    secs(v)
                );
            }
            let _ = writeln!(
                out,
                "hpcc_span_latency_seconds_sum{{{labels}}} {}",
                secs(g.sum_ns)
            );
            let _ = writeln!(
                out,
                "hpcc_span_latency_seconds_count{{{labels}}} {}",
                g.count
            );
        }

        out.push_str(
            "# HELP hpcc_counter_last Last sampled value per counter track.\n\
             # TYPE hpcc_counter_last gauge\n",
        );
        for c in &snap.counters {
            let _ = writeln!(
                out,
                "hpcc_counter_last{{{}}} {}",
                counter_labels(c),
                Sample(c.last)
            );
        }
        out.push_str(
            "# HELP hpcc_counter_max High-water mark per counter track.\n\
             # TYPE hpcc_counter_max gauge\n",
        );
        for c in snap.counters.iter().filter(|c| c.samples > 0) {
            let _ = writeln!(
                out,
                "hpcc_counter_max{{{}}} {}",
                counter_labels(c),
                Sample(c.max)
            );
        }

        out.push_str(
            "# HELP hpcc_instants_total Point events per (process, category, name).\n\
             # TYPE hpcc_instants_total counter\n",
        );
        for i in &snap.instants {
            let labels = Labels([
                ("process", &i.process),
                ("track", &i.thread),
                ("category", i.category),
                ("name", i.name.as_str()),
            ]);
            let _ = writeln!(out, "hpcc_instants_total{{{labels}}} {}", i.count);
        }

        out.push_str(
            "# HELP hpcc_recorder_events_total Events emitted through the recorder.\n\
             # TYPE hpcc_recorder_events_total counter\n",
        );
        let _ = writeln!(out, "hpcc_recorder_events_total {}", snap.events_total);
        for (name, v) in [
            ("hpcc_recorder_spans_total", snap.spans_total),
            ("hpcc_recorder_counters_total", snap.counters_total),
            ("hpcc_recorder_instants_total", snap.instants_total),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        out.push_str(
            "# HELP hpcc_recorder_ring_evicted_total Ring events dropped by eviction.\n\
             # TYPE hpcc_recorder_ring_evicted_total counter\n",
        );
        let _ = writeln!(
            out,
            "hpcc_recorder_ring_evicted_total {}",
            snap.ring.evicted_events
        );
        for (name, v) in [
            ("hpcc_recorder_ring_retained", snap.ring.retained_events),
            ("hpcc_recorder_ring_active", snap.ring.active_events),
            ("hpcc_recorder_ring_next_seq", snap.ring.next_seq),
            ("hpcc_recorder_ring_oldest_seq", snap.ring.oldest_seq),
            ("hpcc_recorder_tracks", snap.tracks),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        out
    }

    /// Incremental Chrome `trace_event` chunk: every retained ring event
    /// with sequence number ≥ `since` (capped at `max_events`), wrapped
    /// as a standalone Perfetto-loadable JSON object with track metadata.
    /// Returns the JSON and the `next` cursor to poll from. Events the
    /// reader missed to eviction are reported in the `lagged` field, not
    /// silently skipped: `lagged` + the events sent == `next` − `since`.
    pub fn trace_chunk(&self, since: u64, max_events: usize) -> (String, u64) {
        let reg = self.reg.read().expect("registry");
        let (chunks, oldest) = self.ring.read_since(since);
        let lagged = oldest.saturating_sub(since);

        let held: usize = chunks.iter().map(|chunk| chunk.events.len()).sum();
        let mut out = String::with_capacity(chrome::capacity(&reg.tracks, held.min(max_events)));
        let mut next = since.max(oldest);
        let _ = write!(
            out,
            "{{\"since\":{since},\"oldest\":{oldest},\"lagged\":{lagged},\"traceEvents\":["
        );
        // Track metadata first, so every chunk is independently loadable.
        chrome::tracks(&mut out, &reg.tracks);
        let retained = chunks.iter().flat_map(|chunk| {
            let seqs = chunk.base_seq..;
            seqs.zip(&chunk.events).filter(|&(seq, _)| seq >= since)
        });
        for (seq, ev) in retained.take(max_events) {
            let id = reg.tracks.chrome_id(ev.track);
            let name = ev.name.as_str();
            match ev.kind {
                RingKind::Span { start_ns, end_ns } => {
                    chrome::span(&mut out, id, ev.cat, name, start_ns, end_ns)
                }
                RingKind::Instant { at_ns } => chrome::instant(&mut out, id, ev.cat, name, at_ns),
                RingKind::Counter { at_ns, value } => {
                    chrome::counter(&mut out, id, name, at_ns, value)
                }
            }
            next = seq + 1;
        }
        let _ = write!(out, "\n],\"next\":{next}}}\n");
        (out, next)
    }
}

impl Recorder for StreamRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn track(&self, process: &str, thread: &str) -> TrackId {
        let reg = self.reg.read().expect("registry");
        if let Some(id) = reg.tracks.get(process, thread) {
            return id;
        }
        drop(reg);
        let mut reg = self.reg.write().expect("registry");
        reg.tracks.intern(process, thread)
    }

    fn span(&self, track: TrackId, cat: &'static str, name: &str, start_ns: u64, end_ns: u64) {
        debug_assert!(start_ns <= end_ns, "span ends before it starts");
        let dur_ns = end_ns - start_ns;
        self.record(
            track,
            cat,
            |tc| &mut tc.spans,
            Registry::group,
            |cell: &SpanCell| cell.add(dur_ns),
            &self.spans_total,
            RingEvent {
                track,
                cat,
                name: SmallName::new(name),
                kind: RingKind::Span { start_ns, end_ns },
            },
        );
    }

    fn instant(&self, track: TrackId, cat: &'static str, name: &str, at_ns: u64) {
        let name = SmallName::new(name);
        self.record(
            track,
            (cat, name),
            |tc| &mut tc.instants,
            Registry::own,
            |count: &AtomicU64| bump(count, 1),
            &self.instants_total,
            RingEvent {
                track,
                cat,
                name,
                kind: RingKind::Instant { at_ns },
            },
        );
    }

    fn counter(&self, track: TrackId, name: &'static str, at_ns: u64, value: f64) {
        self.record(
            track,
            name,
            |tc| &mut tc.counters,
            Registry::own,
            |cell: &CounterCell| cell.sample(value),
            &self.counters_total,
            RingEvent {
                track,
                cat: "counter",
                name: SmallName::new(name),
                kind: RingKind::Counter { at_ns, value },
            },
        );
    }
}

/// `Arc<StreamRecorder>` is itself a recorder, so call sites that take
/// `Rc<dyn Recorder>` can wrap a shared recorder without an adapter
/// type: `Rc::new(Arc::clone(&rec)) as Rc<dyn Recorder>`.
impl Recorder for Arc<StreamRecorder> {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
    fn track(&self, process: &str, thread: &str) -> TrackId {
        (**self).track(process, thread)
    }
    fn span(&self, track: TrackId, cat: &'static str, name: &str, start_ns: u64, end_ns: u64) {
        (**self).span(track, cat, name, start_ns, end_ns)
    }
    fn instant(&self, track: TrackId, cat: &'static str, name: &str, at_ns: u64) {
        (**self).instant(track, cat, name, at_ns)
    }
    fn counter(&self, track: TrackId, name: &'static str, at_ns: u64, value: f64) {
        (**self).counter(track, name, at_ns, value)
    }
}

/// Prometheus label pairs `key="value",…`, each value escaped as it is
/// written (backslash, double quote, newline): no string is built per
/// label.
struct Labels<'a, const N: usize>([(&'static str, &'a str); N]);

impl<const N: usize> fmt::Display for Labels<'_, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (key, value)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(f, "{key}=\"")?;
            let mut rest = *value;
            while let Some(at) = rest.bytes().position(|b| matches!(b, b'\\' | b'"' | b'\n')) {
                f.write_str(&rest[..at])?;
                f.write_str(match rest.as_bytes()[at] {
                    b'\\' => "\\\\",
                    b'"' => "\\\"",
                    _ => "\\n",
                })?;
                rest = &rest[at + 1..];
            }
            f.write_str(rest)?;
            f.write_char('"')?;
        }
        Ok(())
    }
}

/// The labels of one counter series.
fn counter_labels(c: &CounterSeries) -> Labels<'_, 3> {
    Labels([
        ("process", &c.process),
        ("track", &c.thread),
        ("name", c.name),
    ])
}

/// A Prometheus sample value: Rust's `{}` for a finite `f64`, and NaN and
/// the infinities spelled the Prometheus way.
struct Sample(f64);

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.is_nan() {
            f.write_str("NaN")
        } else if v == f64::INFINITY {
            f.write_str("+Inf")
        } else if v == f64::NEG_INFINITY {
            f.write_str("-Inf")
        } else {
            write!(f, "{v}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_encode_decode_invariants() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|s: u32| {
                let base = 1u64 << s;
                [
                    base.saturating_sub(1),
                    base,
                    base.saturating_add(1),
                    base.saturating_mul(3) / 2,
                ]
            })
            .chain([0, 1, 7, 8, 9, 1000, u64::MAX])
            .collect();
        values.sort_unstable();
        let mut prev_bucket = 0usize;
        for v in values {
            let b = bucket_of(v);
            assert!(b < NBUCKETS, "bucket {b} out of range for {v}");
            // decode is an upper bound and within 12.5% + 1 of v.
            let hi = bucket_hi(b);
            assert!(hi >= v, "hi({b})={hi} < {v}");
            assert!(
                hi as u128 <= v as u128 + v as u128 / 8 + 1,
                "hi({b})={hi} too far above {v}"
            );
            assert!(b >= prev_bucket, "bucket_of not monotone at {v}");
            prev_bucket = b;
        }
        // Strict monotonicity of bucket_hi over all buckets.
        for i in 1..NBUCKETS {
            assert!(bucket_hi(i) > bucket_hi(i - 1), "bucket_hi plateau at {i}");
        }
    }

    /// The scan against `Histogram::quantile` over bucket-index space
    /// (bucket `i` is `[i, i + 1)`, its quantile edge `i + 1`), on seeded
    /// bucket vectors: empty, one bucket, sparse and dense ones, and
    /// counts whose running total lands exactly on a quantile's target.
    #[test]
    fn quantile_scan_matches_histogram_quantile() {
        use des::stats::Histogram;
        const PS: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];
        let mut rng = des::rng::Rng::new(0x9_5CA7);
        for case in 0..64u64 {
            let len = 1 + rng.below(40) as usize;
            let mut counts = vec![0u64; len];
            match case % 4 {
                0 => {}
                1 => counts[rng.below(len as u64) as usize] = 1 + rng.below(5),
                2 => counts
                    .iter_mut()
                    .for_each(|c| *c = rng.below(3) * rng.below(4)),
                // Ten in each of ten buckets: p50 and p90 land exactly on
                // a bucket's last count, with empty buckets after it.
                _ => (0..len.min(10)).for_each(|i| counts[i * len / 10] = 10),
            }
            let mut hist = Histogram::new(0.0, len as f64, len);
            for (i, &c) in counts.iter().enumerate() {
                (0..c).for_each(|_| hist.add(i as f64 + 0.5));
            }
            let want = PS.map(|p| {
                hist.quantile(p)
                    .map_or(0, |edge| (edge as usize).saturating_sub(1).min(len - 1))
            });
            assert_eq!(
                quantile_buckets(&counts, PS),
                want,
                "case {case}: {counts:?}"
            );
        }
    }

    #[test]
    fn span_quantiles_track_known_distribution() {
        let r = StreamRecorder::new();
        let t = r.track("mesh nodes", "node 0");
        // 1000 spans of duration 1..=1000 µs.
        for i in 1..=1000u64 {
            r.span(t, "compute", "k", 0, i * 1000);
        }
        let snap = r.metrics_snapshot();
        assert_eq!(snap.spans.len(), 1);
        let g = &snap.spans[0];
        assert_eq!(g.count, 1000);
        assert_eq!(g.min_ns, 1000);
        assert_eq!(g.max_ns, 1_000_000);
        // Log-linear resolution is 12.5%: p50 ≈ 500 µs.
        let p50 = g.p50_ns as f64;
        assert!(
            (430_000.0..=580_000.0).contains(&p50),
            "p50 {p50} out of tolerance"
        );
        assert!(g.p50_ns <= g.p90_ns && g.p90_ns <= g.p99_ns);
    }

    #[test]
    fn ledger_identities_hold() {
        let r = StreamRecorder::with_ring(8, 2);
        let t = r.track("p", "t");
        for i in 0..100u64 {
            r.span(t, "c", "s", i, i + 1);
            r.counter(t, "q", i, i as f64);
        }
        r.instant(t, "f", "crash", 7);
        let snap = r.metrics_snapshot();
        assert_eq!(snap.events_total, 201);
        assert_eq!(
            snap.events_total,
            snap.spans_total + snap.counters_total + snap.instants_total
        );
        let ring = snap.ring;
        assert_eq!(
            snap.events_total,
            ring.retained_events + ring.active_events + ring.evicted_events
        );
        assert_eq!(ring.next_seq, snap.events_total);
        // 2 chunks × 8 events retained, the rest evicted.
        assert_eq!(ring.retained_events, 16);
        assert!(ring.evicted_events > 0);
    }

    #[test]
    fn trace_chunk_pages_by_sequence_number() {
        let r = StreamRecorder::with_ring(4, 16);
        let t = r.track("mesh nodes", "node 0");
        for i in 0..10u64 {
            r.span(t, "compute", "s", i * 10, i * 10 + 5);
        }
        r.flush_ring();
        let (json, next) = r.trace_chunk(0, 1000);
        assert_eq!(next, 10);
        let doc = crate::json::parse(&json).expect("chunk is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        let xs = events
            .filter(|e| e.get("ph").and_then(crate::json::Value::as_str).as_deref() == Some("X"))
            .count();
        assert_eq!(xs, 10);
        // Page from the cursor: nothing new.
        let (json2, next2) = r.trace_chunk(next, 1000);
        assert_eq!(next2, next);
        let doc2 = crate::json::parse(&json2).unwrap();
        let xs2 = doc2
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap()
            .filter(|e| e.get("ph").and_then(crate::json::Value::as_str).as_deref() == Some("X"))
            .count();
        assert_eq!(xs2, 0);
        // Mid-stream cursor sees only the tail.
        let (json3, _) = r.trace_chunk(7, 1000);
        let doc3 = crate::json::parse(&json3).unwrap();
        let xs3 = doc3
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap()
            .filter(|e| e.get("ph").and_then(crate::json::Value::as_str).as_deref() == Some("X"))
            .count();
        assert_eq!(xs3, 3);
    }

    #[test]
    fn evicted_tail_is_reported_as_lagged() {
        let r = StreamRecorder::with_ring(4, 2);
        let t = r.track("p", "t");
        for i in 0..40u64 {
            r.instant(t, "c", "i", i);
        }
        // 2×4 retained; oldest retained seq is 32.
        let (json, _) = r.trace_chunk(0, 1000);
        let doc = crate::json::parse(&json).unwrap();
        let lagged = doc
            .get("lagged")
            .and_then(crate::json::Value::as_f64)
            .unwrap();
        assert_eq!(lagged as u64, 32);
    }

    #[test]
    fn prometheus_text_has_series_and_ledger() {
        let r = StreamRecorder::new();
        let t = r.track("sched service", "service");
        r.span(t, "wait", "job 1", 0, 1_000_000);
        r.counter(t, "pending_jobs", 0, 17.0);
        r.instant(t, "fault", "node_fault", 5);
        let text = r.prometheus_text();
        assert!(text.contains(
            "hpcc_span_latency_seconds{process=\"sched service\",category=\"wait\",quantile=\"0.5\"}"
        ));
        assert!(text.contains(
            "hpcc_span_latency_seconds_count{process=\"sched service\",category=\"wait\"} 1"
        ));
        assert!(text
            .contains("hpcc_counter_last{process=\"sched service\",track=\"service\",name=\"pending_jobs\"} 17"));
        assert!(text.contains("name=\"node_fault\"} 1"));
        assert!(text.contains("hpcc_recorder_events_total 3"));
        assert!(text.contains("hpcc_recorder_ring_evicted_total 0"));
        // Exposition lint: every non-comment line is `name{labels} value`
        // or `name value` with a parseable float.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
                "bad sample value in line: {line}"
            );
        }
    }

    /// Writers serialised by the writer lock lose no update: three
    /// writers on one cell leave bucket counts that sum to its count, and
    /// an exact count, sum, min and max.
    #[test]
    fn many_writers_keep_every_bucket() {
        const WRITERS: u64 = 3;
        const N: u64 = 400_000;
        let dur = |w: u64, i: u64| 1 + (i * 31 + w) % 5_000;
        let r = StreamRecorder::with_ring(64, 4);
        let t = r.track("p", "t");
        let start = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (r, start) = (&r, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        r.span(t, "c", "s", 0, dur(w, i));
                    }
                });
            }
        });
        let w = r.writer.lock().unwrap();
        let cell = &w.cells[t as usize].spans[0].1;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let buckets: u64 = cell.buckets.iter().map(load).sum();
        let sum: u64 = (0..WRITERS)
            .flat_map(|w| (0..N).map(move |i| dur(w, i)))
            .sum();
        assert_eq!(
            (buckets, load(&cell.count), load(&cell.sum_ns)),
            (WRITERS * N, WRITERS * N, sum)
        );
        assert_eq!((load(&cell.min_ns), load(&cell.max_ns)), (1, 5_000));
    }

    #[test]
    fn labels_are_escaped_as_written() {
        let labels = Labels([("process", "a\\b"), ("name", "say \"hi\"\n")]);
        assert_eq!(labels.to_string(), r#"process="a\\b",name="say \"hi\"\n""#);
    }

    #[test]
    fn small_name_truncates_on_char_boundary() {
        let s = "é".repeat(40);
        let n = SmallName::new(&s);
        assert!(n.as_str().len() <= SmallName::CAP);
        assert!(n.as_str().chars().all(|c| c == 'é'));
        assert_eq!(SmallName::new("short").as_str(), "short");
    }
}
