//! `hpcc-trace` — structured tracing & metrics for the HPCC simulators.
//!
//! The simulators (the Delta mesh, the NREN flow model, the scheduler)
//! emit *spans* (an interval on a track), *instants* (a point event) and
//! *counters* (a sampled value) through the [`Recorder`] trait. Three
//! recorders ship here:
//!
//! * [`NullRecorder`] — every hook is a no-op behind a single `is_enabled()`
//!   branch. All pre-existing entry points route through it, so an
//!   uninstrumented run is bit-identical to the pre-trace code: the recorder
//!   only *observes* timestamps the simulator already computed; it never
//!   schedules events, draws randomness, or touches simulator state.
//! * [`MemRecorder`] — buffers everything in memory, then exports either a
//!   Chrome `trace_event` JSON ([`MemRecorder::to_chrome_json`], loadable in
//!   Perfetto / `chrome://tracing`, one track per mesh node and link) or a
//!   plain-text metrics summary ([`MemRecorder::metrics_summary`]: p50/p99
//!   latency histograms, top-k hottest links, per-node blocked-time
//!   breakdown).
//! * [`StreamRecorder`] — aggregates online, one lock per event, into
//!   atomic cells readers load without waiting, and keeps a bounded ring
//!   of recent events, so a [`TelemetryServer`] can serve `/metrics` and
//!   `/trace` while the simulation is hot (see [`stream`]).
//!
//! The two enabled recorders share one data model: the private `Tracks`
//! registry interns tracks and assigns their Chrome rows, and [`chrome`]
//! is the only writer of `trace_event` rows. They stay two because they
//! keep different things: `MemRecorder` every event with its whole name
//! (the ground truth `StreamRecorder` is tested against, and what the
//! summary's per-group histograms need), `StreamRecorder` a bounded tail
//! with names cut at 31 bytes.
//!
//! A *track* is a (process, thread) pair — e.g. `("mesh nodes", "node 12")`
//! — and maps onto a Chrome pid/tid so each mesh node and each channel gets
//! its own row in the viewer. Track-name conventions used by the simulators
//! live in [`names`]; the summary exporter keys off them.
//!
//! Timestamps are exact integer nanoseconds of virtual time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

pub mod chrome;
pub mod http;
pub mod json;
pub mod stream;
pub mod summary;

pub use http::TelemetryServer;
pub use stream::{MetricsSnapshot, RingLedger, StreamRecorder};
pub use summary::NodeBreakdown;

/// Handle for one (process, thread) row. Dense, allocated by the recorder.
pub type TrackId = u32;

/// Sink for trace events. Object-safe so simulators can hold
/// `Rc<dyn Recorder>` without being generic over the sink.
///
/// Contract: implementations must be pure observers — no panics, no
/// interaction with simulation state. Callers should gate any allocation
/// needed to *format* an event name on [`Recorder::is_enabled`].
pub trait Recorder {
    /// Fast path: when `false`, callers skip all event construction.
    fn is_enabled(&self) -> bool;

    /// Intern a (process, thread) pair; returns the same id for the same
    /// pair. Disabled recorders return a dummy id.
    fn track(&self, process: &str, thread: &str) -> TrackId;

    /// A closed interval `[start_ns, end_ns]` on a track.
    fn span(&self, track: TrackId, cat: &'static str, name: &str, start_ns: u64, end_ns: u64);

    /// A point event.
    fn instant(&self, track: TrackId, cat: &'static str, name: &str, at_ns: u64);

    /// A sampled counter value.
    fn counter(&self, track: TrackId, name: &'static str, at_ns: u64, value: f64);
}

/// The default sink: discards everything, reports disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn track(&self, _process: &str, _thread: &str) -> TrackId {
        0
    }
    fn span(&self, _t: TrackId, _c: &'static str, _n: &str, _s: u64, _e: u64) {}
    fn instant(&self, _t: TrackId, _c: &'static str, _n: &str, _a: u64) {}
    fn counter(&self, _t: TrackId, _n: &'static str, _a: u64, _v: f64) {}
}

/// Track-name conventions shared by the instrumented simulators and the
/// summary exporter. Process names group tracks into Chrome "processes".
pub mod names {
    /// One track per mesh node; spans are compute/send/recv/blocked/delay.
    pub const MESH_NODES: &str = "mesh nodes";
    /// One track per mesh channel; spans are message occupancy windows.
    pub const MESH_LINKS: &str = "mesh links";
    /// Event-queue / executor counters sampled from the dispatch loop.
    pub const DES: &str = "des";
    /// One track per scheduler job; spans are wait/run/killed.
    pub const SCHED: &str = "sched";
    /// Scheduler-service tracks: aggregate queue counters plus one track
    /// per tenant (admits/rejects/retries).
    pub const SCHED_SVC: &str = "sched service";
    /// One track per WAN flow; spans are the transfer lifetime.
    pub const WAN_FLOWS: &str = "wan flows";
    /// One track per directed WAN link; counters are allocated rate.
    pub const WAN_LINKS: &str = "wan links";
    /// The WAN flow solver; counters are affected-set (dirty) sizes
    /// per incremental resolve plus cumulative full-resolve fallbacks.
    pub const WAN_SOLVER: &str = "wan solver";
}

/// One buffered event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Interval `[start_ns, end_ns]` on `track`.
    Span {
        track: TrackId,
        cat: &'static str,
        name: String,
        start_ns: u64,
        end_ns: u64,
    },
    /// Point event on `track`.
    Instant {
        track: TrackId,
        cat: &'static str,
        name: String,
        at_ns: u64,
    },
    /// Counter sample on `track`.
    Counter {
        track: TrackId,
        name: &'static str,
        at_ns: u64,
        value: f64,
    },
}

impl Event {
    /// Timestamp the event sorts by within its track (span start).
    pub fn ts_ns(&self) -> u64 {
        match *self {
            Event::Span { start_ns, .. } => start_ns,
            Event::Instant { at_ns, .. } => at_ns,
            Event::Counter { at_ns, .. } => at_ns,
        }
    }

    /// Track the event belongs to.
    pub fn track(&self) -> TrackId {
        match *self {
            Event::Span { track, .. } => track,
            Event::Instant { track, .. } => track,
            Event::Counter { track, .. } => track,
        }
    }
}

/// A registered (process, thread) row. Copies share the two names, so a
/// `/metrics` series labelled with them allocates none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    pub process: Arc<str>,
    pub thread: Arc<str>,
}

/// The track registry of both enabled recorders: interns (process,
/// thread) pairs and assigns each track its Chrome row when it registers —
/// pids number distinct process names in first-appearance order, tids
/// number the tracks within their process, both from 1 — so live chunks
/// and post-hoc exports agree on row identity and no export recomputes it.
#[derive(Default)]
pub(crate) struct Tracks {
    rows: Vec<Track>,
    /// Chrome (pid, tid) of each row.
    ids: Vec<(u32, u32)>,
    /// process → (pid, thread → track). Nested, so looking a track up
    /// borrows both names and allocates nothing.
    index: HashMap<String, (u32, HashMap<String, TrackId>)>,
}

impl Tracks {
    pub(crate) fn get(&self, process: &str, thread: &str) -> Option<TrackId> {
        self.index.get(process)?.1.get(thread).copied()
    }

    /// The id of `(process, thread)`, registered now if it is new.
    pub(crate) fn intern(&mut self, process: &str, thread: &str) -> TrackId {
        if let Some(id) = self.get(process, thread) {
            return id;
        }
        let id = self.rows.len() as TrackId;
        let next_pid = self.index.len() as u32 + 1;
        let (pid, threads) = self
            .index
            .entry(process.to_string())
            .or_insert_with(|| (next_pid, HashMap::new()));
        threads.insert(thread.to_string(), id);
        self.ids.push((*pid, threads.len() as u32));
        self.rows.push(Track {
            process: process.into(),
            thread: thread.into(),
        });
        id
    }

    /// The registered tracks, in id order.
    pub(crate) fn rows(&self) -> &[Track] {
        &self.rows
    }

    /// Chrome (pid, tid) of `track`. An event on an unregistered track (a
    /// disabled recorder's dummy id) lands on a synthetic (0, 0) row
    /// rather than panicking.
    pub(crate) fn chrome_id(&self, track: TrackId) -> (u32, u32) {
        self.ids.get(track as usize).copied().unwrap_or((0, 0))
    }
}

#[derive(Default)]
struct MemInner {
    tracks: Tracks,
    events: Vec<Event>,
}

/// In-memory recorder. Interior mutability so the simulators can share it
/// as `Rc<MemRecorder>` coerced to `Rc<dyn Recorder>`.
#[derive(Default)]
pub struct MemRecorder {
    inner: RefCell<MemInner>,
}

impl MemRecorder {
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of registered tracks.
    pub fn track_count(&self) -> usize {
        self.inner.borrow().tracks.rows().len()
    }

    /// Snapshot of the registered tracks, in registration (id) order.
    pub fn tracks(&self) -> Vec<Track> {
        self.inner.borrow().tracks.rows().to_vec()
    }

    /// Snapshot of the buffered events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.clone()
    }

    /// Run `f` over the buffered state without cloning it.
    pub fn with<R>(&self, f: impl FnOnce(&[Track], &[Event]) -> R) -> R {
        let inner = self.inner.borrow();
        f(inner.tracks.rows(), &inner.events)
    }
}

impl Recorder for MemRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn track(&self, process: &str, thread: &str) -> TrackId {
        self.inner.borrow_mut().tracks.intern(process, thread)
    }

    fn span(&self, track: TrackId, cat: &'static str, name: &str, start_ns: u64, end_ns: u64) {
        debug_assert!(start_ns <= end_ns, "span ends before it starts");
        self.inner.borrow_mut().events.push(Event::Span {
            track,
            cat,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    fn instant(&self, track: TrackId, cat: &'static str, name: &str, at_ns: u64) {
        self.inner.borrow_mut().events.push(Event::Instant {
            track,
            cat,
            name: name.to_string(),
            at_ns,
        });
    }

    fn counter(&self, track: TrackId, name: &'static str, at_ns: u64, value: f64) {
        self.inner.borrow_mut().events.push(Event::Counter {
            track,
            name,
            at_ns,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.is_enabled());
        assert_eq!(r.track("p", "t"), 0);
        r.span(0, "c", "n", 0, 1);
        r.instant(0, "c", "n", 0);
        r.counter(0, "n", 0, 1.0);
    }

    #[test]
    fn mem_recorder_interns_tracks() {
        let r = MemRecorder::new();
        let a = r.track("mesh nodes", "node 0");
        let b = r.track("mesh nodes", "node 1");
        let a2 = r.track("mesh nodes", "node 0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.track_count(), 2);
        assert_eq!(&*r.tracks()[a as usize].thread, "node 0");
    }

    /// Interleaved process registration: pids follow first appearance,
    /// tids count within the process, an unknown id maps to row (0, 0).
    #[test]
    fn tracks_number_chrome_rows_in_first_appearance_order() {
        let mut t = Tracks::default();
        let names = [
            ("a", "x"),
            ("b", "y"),
            ("a", "z"),
            ("c", "w"),
            ("b", "v"),
            ("a", "x"),
        ];
        let ids = names.map(|(process, thread)| t.intern(process, thread));
        assert_eq!(ids, [0, 1, 2, 3, 4, 0]);
        let rows: Vec<(u32, u32)> = (0..6).map(|id| t.chrome_id(id)).collect();
        assert_eq!(rows, [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (0, 0)]);
        assert_eq!(t.get("b", "v"), Some(4));
        assert_eq!(t.get("b", "x"), None);
    }

    #[test]
    fn mem_recorder_buffers_events_in_order() {
        let r = MemRecorder::new();
        let t = r.track("p", "t");
        r.span(t, "cat", "s", 10, 20);
        r.instant(t, "cat", "i", 15);
        r.counter(t, "c", 16, 2.5);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].ts_ns(), 10);
        assert!(matches!(ev[1], Event::Instant { at_ns: 15, .. }));
        assert!(matches!(ev[2], Event::Counter { value, .. } if value == 2.5));
    }
}
