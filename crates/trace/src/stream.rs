//! `StreamRecorder` — online, thread-safe aggregation for live telemetry.
//!
//! [`crate::MemRecorder`] buffers every event and exports post-hoc, which
//! cannot serve concurrent dashboard readers against a hot simulation: the
//! buffer grows without bound and a reader would have to copy all of it.
//! `StreamRecorder` instead aggregates *online* and keeps only a bounded
//! tail of raw events:
//!
//! * **Span cells** — one per (track, category): a log-linear histogram of
//!   span durations held in plain `AtomicU64` bucket counters, plus
//!   count/sum/min/max. The writer does a handful of relaxed `fetch_add`s
//!   per span; readers load the counters without ever stopping the writer.
//!   At scrape time the cells of one (process, category) group are
//!   materialized as [`des::stats::Histogram`]s over bucket-index space
//!   (via `Histogram::from_counts`) and combined with
//!   `Histogram::try_merge` — same geometry by construction, and the typed
//!   [`des::stats::GeometryMismatch`] error surfaces any drift instead of
//!   silently misfiling counts.
//! * **Counter cells** — one per (track, name): last sampled value (bit
//!   cast through `AtomicU64`), sample count, running min/max.
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
//! The writer-side cost per event is: one `RwLock` read lock held across
//! a ≤8-entry linear cell probe and the cell's 1–5 relaxed atomic RMWs
//! (the cells live in the registry, so the update runs under the guard
//! that found them — no `Arc` to clone and drop), two more for the
//! totals, and one uncontended `Mutex` push into the active ring chunk.
//! Only the first event of a (track, category) takes the write lock, to
//! insert its cell. There are no allocations on the hot path (ring names
//! are inlined up to `SmallName::CAP` = 31 bytes, then truncated) and
//! readers never take a lock the writer's per-event path needs
//! exclusively: scrapes share the registry's read lock, load atomics and
//! clone `Arc`s of frozen chunks. A reader holds that lock only while it
//! builds its answer in memory (≈ 0.2 ms per 1,024 `/trace` events),
//! never across socket I/O, so all it can delay is the insertion of a new
//! cell or track. Like every recorder, it is a pure observer — recorded
//! runs stay bit-identical to unrecorded ones (asserted in exhibit OBS-2).
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

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use des::stats::Histogram;

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

/// Inline string for ring events: the hot path must not allocate. Longer
/// names are truncated at a char boundary — the aggregation cells (which
/// key on category, not name) are unaffected.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct SmallName {
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

    pub(crate) fn as_str(&self) -> &str {
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

struct Ring {
    /// Writer-side buffer; readers never lock it.
    active: Mutex<Chunk>,
    /// Frozen chunks, oldest first. Readers clone `Arc`s out under a
    /// briefly-held lock; the writer locks it once per `chunk_cap`
    /// events to publish.
    published: Mutex<VecDeque<Arc<Chunk>>>,
    chunk_cap: usize,
    max_chunks: usize,
    evicted: AtomicU64,
    /// Sequence number of the oldest event still retained (first
    /// published chunk, or the active chunk when none are published).
    oldest: AtomicU64,
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
            active: Mutex::new(Chunk {
                base_seq: 0,
                events: Vec::with_capacity(chunk_cap),
            }),
            published: Mutex::new(VecDeque::with_capacity(max_chunks + 1)),
            chunk_cap,
            max_chunks,
            evicted: AtomicU64::new(0),
            oldest: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: RingEvent) {
        let mut active = self.active.lock().expect("ring active");
        active.events.push(ev);
        if active.events.len() >= self.chunk_cap {
            self.freeze(active);
        }
    }

    /// Publish the active chunk even if partially full (phase boundaries,
    /// end of run) so tail readers see everything emitted so far.
    fn flush(&self) {
        let active = self.active.lock().expect("ring active");
        if !active.events.is_empty() {
            self.freeze(active);
        }
    }

    /// Swap a fresh buffer in for the active chunk and publish the old
    /// one; chunks past `max_chunks` are evicted, oldest first, and counted.
    fn freeze(&self, mut active: MutexGuard<'_, Chunk>) {
        let next = Chunk {
            base_seq: active.base_seq + active.events.len() as u64,
            events: Vec::with_capacity(self.chunk_cap),
        };
        let chunk = Arc::new(std::mem::replace(&mut *active, next));
        drop(active);
        let mut pubs = self.published.lock().expect("ring published");
        pubs.push_back(chunk);
        while pubs.len() > self.max_chunks {
            let gone = pubs.pop_front().expect("nonempty");
            self.evicted
                .fetch_add(gone.events.len() as u64, Ordering::Relaxed);
            self.oldest
                .store(gone.base_seq + gone.events.len() as u64, Ordering::Relaxed);
        }
    }

    /// Snapshot the published chunks overlapping `since..`.
    fn read_since(&self, since: u64) -> Vec<Arc<Chunk>> {
        let pubs = self.published.lock().expect("ring published");
        pubs.iter()
            .filter(|c| c.base_seq + c.events.len() as u64 > since)
            .cloned()
            .collect()
    }

    fn ledger(&self) -> RingLedger {
        // Lock order: active then published — same as the writer's
        // `freeze`, so a concurrent snapshot cannot deadlock and the
        // two counts come from one consistent cut.
        let active = self.active.lock().expect("ring active");
        let pubs = self.published.lock().expect("ring published");
        let retained: u64 = pubs.iter().map(|c| c.events.len() as u64).sum();
        RingLedger {
            retained_events: retained,
            active_events: active.events.len() as u64,
            evicted_events: self.evicted.load(Ordering::Relaxed),
            next_seq: active.base_seq + active.events.len() as u64,
            oldest_seq: self.oldest.load(Ordering::Relaxed),
        }
    }
}

/// Online histogram + scalar moments for one (track, category).
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
    #[inline]
    fn add(&self, dur_ns: u64) {
        self.buckets[bucket_of(dur_ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(dur_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
    }

    /// Materialize the atomic buckets as a `des::stats::Histogram` over
    /// bucket-index space `[0, NBUCKETS)` — fixed geometry, so every
    /// cell's histogram merges with every other's.
    fn to_histogram(&self) -> Histogram {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Histogram::from_counts(0.0, NBUCKETS as f64, &counts)
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
    #[inline]
    fn sample(&self, value: f64) {
        self.last_bits.store(value.to_bits(), Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        // Monotone max via CAS: counters are sampled rarely enough that
        // the loop almost never retries.
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while value > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }
}

/// Per-track cell directory. Categories/counter names per track are few
/// (≤ ~8), so a linear probe over a small Vec beats hashing.
#[derive(Default)]
struct TrackCells {
    spans: Vec<(&'static str, SpanCell)>,
    counters: Vec<(&'static str, CounterCell)>,
    instants: Vec<((&'static str, SmallName), AtomicU64)>,
}

#[derive(Default)]
struct Registry {
    tracks: Tracks,
    /// Indexed by track id; a track's entry appears with its first event.
    cells: Vec<TrackCells>,
}

/// Aggregated view of one (process, category) span group, as served on
/// `/metrics`.
#[derive(Debug, Clone)]
pub struct SpanGroup {
    pub process: String,
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
    pub process: String,
    pub thread: String,
    pub name: &'static str,
    pub last: f64,
    pub max: f64,
    pub samples: u64,
}

/// One instant-count series on `/metrics`.
#[derive(Debug, Clone)]
pub struct InstantSeries {
    pub process: String,
    pub thread: String,
    pub category: &'static str,
    pub name: String,
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
        self.ring.flush();
    }

    /// Total events emitted through the recorder so far.
    pub fn events_total(&self) -> u64 {
        self.events_total.load(Ordering::Relaxed)
    }

    /// Ring accounting (retained / active / evicted / seq window).
    pub fn ring_ledger(&self) -> RingLedger {
        self.ring.ledger()
    }

    /// Registered tracks, in id order.
    pub fn tracks(&self) -> Vec<Track> {
        self.reg.read().expect("registry").tracks.rows().to_vec()
    }

    /// Apply `update` to the cell keyed `key` in the directory `dir` picks
    /// out of `track`'s cells, under the registry guard: the read guard
    /// when the cell exists (every event but a key's first), the write
    /// guard to insert it.
    fn with_cell<K: Copy + PartialEq, C: Default>(
        &self,
        track: TrackId,
        key: K,
        dir: impl Fn(&TrackCells) -> &Vec<(K, C)>,
        dir_mut: impl Fn(&mut TrackCells) -> &mut Vec<(K, C)>,
        update: impl Fn(&C),
    ) {
        let idx = track as usize;
        let hit = |dir: &Vec<(K, C)>| {
            let cell = dir.iter().find(|(k, _)| *k == key);
            cell.map(|(_, cell)| update(cell)).is_some()
        };
        let reg = self.reg.read().expect("registry");
        if reg.cells.get(idx).is_some_and(|tc| hit(dir(tc))) {
            return;
        }
        drop(reg);
        let mut reg = self.reg.write().expect("registry");
        if reg.cells.len() <= idx {
            reg.cells.resize_with(idx + 1, TrackCells::default);
        }
        let dir = dir_mut(&mut reg.cells[idx]);
        // Probe again: another writer may have inserted it in between.
        if !hit(dir) {
            dir.push((key, C::default()));
            hit(dir);
        }
    }

    /// Aggregate snapshot: per-(process, category) span quantiles (via
    /// `Histogram::try_merge` across that group's cells), counter and
    /// instant series, the self-accounting totals, and the ring ledger.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let reg = self.reg.read().expect("registry");
        struct Group {
            hist: Histogram,
            count: u64,
            sum_ns: u64,
            min_ns: u64,
            max_ns: u64,
        }
        let mut groups: HashMap<(String, &'static str), Group> = HashMap::new();
        let mut counters = Vec::new();
        let mut instants = Vec::new();
        // A track's cells appear with its first event; cells under an id
        // nobody registered have no (process, thread) to be served as.
        for (track, tc) in reg.tracks.rows().iter().zip(&reg.cells) {
            for (cat, cell) in &tc.spans {
                let g = groups
                    .entry((track.process.clone(), cat))
                    .or_insert_with(|| Group {
                        hist: Histogram::from_counts(0.0, NBUCKETS as f64, &vec![0; NBUCKETS]),
                        count: 0,
                        sum_ns: 0,
                        min_ns: u64::MAX,
                        max_ns: 0,
                    });
                g.hist
                    .try_merge(&cell.to_histogram())
                    .expect("stream cells share one geometry");
                g.count += cell.count.load(Ordering::Relaxed);
                g.sum_ns += cell.sum_ns.load(Ordering::Relaxed);
                g.min_ns = g.min_ns.min(cell.min_ns.load(Ordering::Relaxed));
                g.max_ns = g.max_ns.max(cell.max_ns.load(Ordering::Relaxed));
            }
            for (name, cell) in &tc.counters {
                counters.push(CounterSeries {
                    process: track.process.clone(),
                    thread: track.thread.clone(),
                    name,
                    last: f64::from_bits(cell.last_bits.load(Ordering::Relaxed)),
                    max: f64::from_bits(cell.max_bits.load(Ordering::Relaxed)),
                    samples: cell.samples.load(Ordering::Relaxed),
                });
            }
            for ((cat, name), cell) in &tc.instants {
                instants.push(InstantSeries {
                    process: track.process.clone(),
                    thread: track.thread.clone(),
                    category: cat,
                    name: name.as_str().to_string(),
                    count: cell.load(Ordering::Relaxed),
                });
            }
        }
        let mut spans: Vec<SpanGroup> = groups
            .into_iter()
            .map(|((process, category), g)| {
                let q = |p: f64| -> u64 {
                    g.hist
                        .quantile(p)
                        .map(|edge| bucket_hi((edge as usize).saturating_sub(1).min(NBUCKETS - 1)))
                        .unwrap_or(0)
                };
                SpanGroup {
                    process,
                    category,
                    count: g.count,
                    sum_ns: g.sum_ns,
                    min_ns: if g.count == 0 { 0 } else { g.min_ns },
                    max_ns: g.max_ns,
                    p50_ns: q(0.50),
                    p90_ns: q(0.90),
                    p99_ns: q(0.99),
                }
            })
            .collect();
        spans.sort_by(|a, b| (&a.process, a.category).cmp(&(&b.process, b.category)));

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
            ring: self.ring.ledger(),
            tracks,
        }
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — what `GET /metrics` serves.
    pub fn prometheus_text(&self) -> String {
        let snap = self.metrics_snapshot();
        let mut out = String::with_capacity(4096);
        let secs = |ns: u64| ns as f64 / 1e9;

        out.push_str(
            "# HELP hpcc_span_latency_seconds Span durations per (process, category).\n\
             # TYPE hpcc_span_latency_seconds summary\n",
        );
        for g in &snap.spans {
            let labels = format!(
                "process=\"{}\",category=\"{}\"",
                escape_label(&g.process),
                escape_label(g.category)
            );
            for (q, v) in [(0.5, g.p50_ns), (0.9, g.p90_ns), (0.99, g.p99_ns)] {
                let _ = writeln!(
                    out,
                    "hpcc_span_latency_seconds{{{labels},quantile=\"{q}\"}} {}",
                    fmt_f64(secs(v))
                );
            }
            let _ = writeln!(
                out,
                "hpcc_span_latency_seconds_sum{{{labels}}} {}",
                fmt_f64(secs(g.sum_ns))
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
            let labels = format!(
                "process=\"{}\",track=\"{}\",name=\"{}\"",
                escape_label(&c.process),
                escape_label(&c.thread),
                escape_label(c.name)
            );
            let _ = writeln!(out, "hpcc_counter_last{{{labels}}} {}", fmt_f64(c.last));
        }
        out.push_str(
            "# HELP hpcc_counter_max High-water mark per counter track.\n\
             # TYPE hpcc_counter_max gauge\n",
        );
        for c in &snap.counters {
            if c.samples == 0 {
                continue;
            }
            let labels = format!(
                "process=\"{}\",track=\"{}\",name=\"{}\"",
                escape_label(&c.process),
                escape_label(&c.thread),
                escape_label(c.name)
            );
            let _ = writeln!(out, "hpcc_counter_max{{{labels}}} {}", fmt_f64(c.max));
        }

        out.push_str(
            "# HELP hpcc_instants_total Point events per (process, category, name).\n\
             # TYPE hpcc_instants_total counter\n",
        );
        for i in &snap.instants {
            let _ = writeln!(
                out,
                "hpcc_instants_total{{process=\"{}\",track=\"{}\",category=\"{}\",name=\"{}\"}} {}",
                escape_label(&i.process),
                escape_label(&i.thread),
                escape_label(i.category),
                escape_label(&i.name),
                i.count
            );
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
    /// silently skipped.
    pub fn trace_chunk(&self, since: u64, max_events: usize) -> (String, u64) {
        let reg = self.reg.read().expect("registry");
        let chunks = self.ring.read_since(since);
        let oldest = self.ring.ledger().oldest_seq;
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
        self.with_cell(
            track,
            cat,
            |tc| &tc.spans,
            |tc| &mut tc.spans,
            |cell: &SpanCell| cell.add(dur_ns),
        );
        self.spans_total.fetch_add(1, Ordering::Relaxed);
        self.events_total.fetch_add(1, Ordering::Relaxed);
        self.ring.push(RingEvent {
            track,
            cat,
            name: SmallName::new(name),
            kind: RingKind::Span { start_ns, end_ns },
        });
    }

    fn instant(&self, track: TrackId, cat: &'static str, name: &str, at_ns: u64) {
        let name = SmallName::new(name);
        self.with_cell(
            track,
            (cat, name),
            |tc| &tc.instants,
            |tc| &mut tc.instants,
            |count: &AtomicU64| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        self.instants_total.fetch_add(1, Ordering::Relaxed);
        self.events_total.fetch_add(1, Ordering::Relaxed);
        self.ring.push(RingEvent {
            track,
            cat,
            name,
            kind: RingKind::Instant { at_ns },
        });
    }

    fn counter(&self, track: TrackId, name: &'static str, at_ns: u64, value: f64) {
        self.with_cell(
            track,
            name,
            |tc| &tc.counters,
            |tc| &mut tc.counters,
            |cell: &CounterCell| cell.sample(value),
        );
        self.counters_total.fetch_add(1, Ordering::Relaxed);
        self.events_total.fetch_add(1, Ordering::Relaxed);
        self.ring.push(RingEvent {
            track,
            cat: "counter",
            name: SmallName::new(name),
            kind: RingKind::Counter { at_ns, value },
        });
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

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus sample value: decimal, never scientific with a bare `e`
/// issue — Rust's `{}` for f64 is fine, but NaN/inf must be spelled the
/// Prometheus way.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
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

    #[test]
    fn small_name_truncates_on_char_boundary() {
        let s = "é".repeat(40);
        let n = SmallName::new(&s);
        assert!(n.as_str().len() <= SmallName::CAP);
        assert!(n.as_str().chars().all(|c| c == 'é'));
        assert_eq!(SmallName::new("short").as_str(), "short");
    }
}
