//! Plain-text metrics summary exporter.
//!
//! Reduces a buffered trace to the aggregates a terminal reader wants:
//! span-latency histograms (p50/p90/p99 per process/category, built with
//! [`des::stats::Histogram`] and combined via `Histogram::merge`), the
//! top-k hottest mesh links by occupancy, and a per-node busy-time
//! breakdown whose rows sum exactly to total sim time (compute + send +
//! recv + blocked + delay + idle = elapsed).

use std::collections::HashMap;
use std::fmt::Write as _;

use des::stats::Histogram;

use crate::{names, Event, MemRecorder, Track, TrackId};

/// Busy-time decomposition of one mesh-node track. All figures are exact
/// integer nanoseconds of virtual time; `idle_ns` is defined as
/// `elapsed - busy`, so the row sums to `elapsed_ns` by construction —
/// the summary asserts `busy <= elapsed` rather than clamping silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBreakdown {
    pub track: TrackId,
    pub thread: String,
    pub compute_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub blocked_ns: u64,
    pub delay_ns: u64,
    pub other_ns: u64,
    pub idle_ns: u64,
    pub elapsed_ns: u64,
}

impl NodeBreakdown {
    /// Sum of the non-idle interval categories.
    fn busy_ns(&self) -> u64 {
        self.compute_ns
            + self.send_ns
            + self.recv_ns
            + self.blocked_ns
            + self.delay_ns
            + self.other_ns
    }

    /// Sum of every category including idle; equals `elapsed_ns`.
    pub fn total_ns(&self) -> u64 {
        self.busy_ns() + self.idle_ns
    }
}

impl MemRecorder {
    /// Per-node busy-time breakdown for the mesh-node tracks, against a
    /// known run length (virtual ns). Panics if a node's recorded busy
    /// time exceeds `elapsed_ns` — that would mean overlapping spans, a
    /// recorder-integration bug.
    pub fn node_breakdown(&self, elapsed_ns: u64) -> Vec<NodeBreakdown> {
        self.with(|tracks, events| node_breakdown(tracks, events, elapsed_ns))
    }

    /// Render the plain-text metrics summary. `sim_elapsed_ns` is the mesh
    /// run length; when `None` it is inferred from the latest mesh event.
    pub fn metrics_summary(&self, sim_elapsed_ns: Option<u64>) -> String {
        self.with(|tracks, events| render(tracks, events, sim_elapsed_ns))
    }
}

fn node_breakdown(tracks: &[Track], events: &[Event], elapsed_ns: u64) -> Vec<NodeBreakdown> {
    let mut rows: Vec<NodeBreakdown> = tracks
        .iter()
        .enumerate()
        .filter(|(_, t)| &*t.process == names::MESH_NODES)
        .map(|(id, t)| NodeBreakdown {
            track: id as TrackId,
            thread: t.thread.to_string(),
            compute_ns: 0,
            send_ns: 0,
            recv_ns: 0,
            blocked_ns: 0,
            delay_ns: 0,
            other_ns: 0,
            idle_ns: 0,
            elapsed_ns,
        })
        .collect();
    let index: HashMap<TrackId, usize> =
        rows.iter().enumerate().map(|(i, r)| (r.track, i)).collect();
    for e in events {
        if let Event::Span {
            track,
            cat,
            start_ns,
            end_ns,
            ..
        } = e
        {
            let Some(&i) = index.get(track) else { continue };
            let d = end_ns - start_ns;
            let row = &mut rows[i];
            match *cat {
                "compute" => row.compute_ns += d,
                "send" => row.send_ns += d,
                "recv" => row.recv_ns += d,
                "blocked" => row.blocked_ns += d,
                "delay" => row.delay_ns += d,
                _ => row.other_ns += d,
            }
        }
    }
    for row in &mut rows {
        let busy = row.busy_ns();
        assert!(
            busy <= elapsed_ns,
            "node track '{}' busy {}ns exceeds elapsed {}ns (overlapping spans?)",
            row.thread,
            busy,
            elapsed_ns
        );
        row.idle_ns = elapsed_ns - busy;
    }
    rows
}

/// Latest event end timestamp on simulator-time tracks (mesh + des).
fn inferred_elapsed(tracks: &[Track], events: &[Event]) -> u64 {
    let sim = |id: TrackId| {
        tracks.get(id as usize).is_some_and(|t| {
            matches!(
                &*t.process,
                names::MESH_NODES | names::MESH_LINKS | names::DES
            )
        })
    };
    events
        .iter()
        .filter(|e| sim(e.track()))
        .map(|e| match *e {
            Event::Span { end_ns, .. } => end_ns,
            Event::Instant { at_ns, .. } => at_ns,
            Event::Counter { at_ns, .. } => at_ns,
        })
        .max()
        .unwrap_or(0)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn render(tracks: &[Track], events: &[Event], sim_elapsed_ns: Option<u64>) -> String {
    let mut out = String::new();
    let elapsed = sim_elapsed_ns.unwrap_or_else(|| inferred_elapsed(tracks, events));
    let _ = writeln!(out, "== trace metrics summary ==");
    let _ = writeln!(
        out,
        "events: {}   tracks: {}   mesh elapsed: {:.6} s",
        events.len(),
        tracks.len(),
        elapsed as f64 / 1e9
    );

    // --- span latency histograms per (process, category) ----------------
    // One histogram per track/category, merged across tracks of the same
    // process — this is the Histogram::merge consumer. Geometry is per
    // (process, category): [0, that group's max span), 256 buckets, µs.
    // A single global ceiling would flatten µs-scale mesh spans into
    // bucket 0 next to hour-scale scheduler waits.
    type Key = (std::sync::Arc<str>, &'static str);
    let key_of = |track: TrackId, cat: &'static str| -> Option<Key> {
        tracks.get(track as usize).map(|t| (t.process.clone(), cat))
    };
    let mut group_max: HashMap<Key, f64> = HashMap::new();
    for e in events {
        if let Event::Span {
            track,
            cat,
            start_ns,
            end_ns,
            ..
        } = e
        {
            if let Some(k) = key_of(*track, cat) {
                let us = (end_ns - start_ns) as f64 / 1e3;
                let hi = group_max.entry(k).or_insert(0.0);
                *hi = hi.max(us);
            }
        }
    }
    let geom = |k: &Key| -> f64 {
        let m = group_max.get(k).copied().unwrap_or(0.0);
        if m > 0.0 {
            m * 1.0001
        } else {
            1.0
        }
    };
    let mut per_track: HashMap<(TrackId, &'static str), Histogram> = HashMap::new();
    let mut totals: HashMap<Key, (u64, u64)> = HashMap::new(); // count, total ns
    for e in events {
        if let Event::Span {
            track,
            cat,
            start_ns,
            end_ns,
            ..
        } = e
        {
            let Some(k) = key_of(*track, cat) else {
                continue;
            };
            per_track
                .entry((*track, cat))
                .or_insert_with(|| Histogram::new(0.0, geom(&k), 256))
                .add((end_ns - start_ns) as f64 / 1e3);
            let entry = totals.entry(k).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += end_ns - start_ns;
        }
    }
    let mut merged: HashMap<Key, Histogram> = HashMap::new();
    for ((track, cat), h) in &per_track {
        let Some(k) = key_of(*track, cat) else {
            continue;
        };
        let hi = geom(&k);
        merged
            .entry(k)
            .or_insert_with(|| Histogram::new(0.0, hi, 256))
            .merge(h);
    }
    let mut keys: Vec<&Key> = merged.keys().collect();
    keys.sort();
    let _ = writeln!(out, "\n-- span latencies (µs) --");
    let _ = writeln!(
        out,
        "{:<12} {:<9} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "process", "category", "count", "p50", "p90", "p99", "total_s"
    );
    for key in keys {
        let h = &merged[key];
        let (count, total_ns) = totals[key];
        let q = |p: f64| match h.quantile(p) {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<12} {:<9} {:>8} {:>12} {:>12} {:>12} {:>12.6}",
            key.0,
            key.1,
            count,
            q(0.50),
            q(0.90),
            q(0.99),
            total_ns as f64 / 1e9
        );
    }

    // --- top-k hottest mesh links ---------------------------------------
    let mut link_busy: HashMap<TrackId, u64> = HashMap::new();
    for e in events {
        if let Event::Span {
            track,
            start_ns,
            end_ns,
            ..
        } = e
        {
            if tracks
                .get(*track as usize)
                .is_some_and(|t| &*t.process == names::MESH_LINKS)
            {
                *link_busy.entry(*track).or_insert(0) += end_ns - start_ns;
            }
        }
    }
    let mut hottest: Vec<(TrackId, u64)> = link_busy.into_iter().collect();
    hottest.sort_by_key(|&(id, busy)| (std::cmp::Reverse(busy), id));
    let _ = writeln!(
        out,
        "\n-- hottest mesh links (top {}) --",
        hottest.len().min(10)
    );
    let _ = writeln!(out, "{:<24} {:>12} {:>10}", "link", "busy_s", "occupancy");
    for &(id, busy) in hottest.iter().take(10) {
        let _ = writeln!(
            out,
            "{:<24} {:>12.6} {:>9.2}%",
            tracks[id as usize].thread,
            busy as f64 / 1e9,
            pct(busy, elapsed)
        );
    }

    // --- per-node busy-time breakdown -----------------------------------
    let rows = node_breakdown(tracks, events, elapsed);
    let _ = writeln!(out, "\n-- per-node busy time (% of elapsed) --");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "node", "compute", "send", "recv", "blocked", "delay", "other", "idle", "total_s"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>12.6}",
            row.thread,
            pct(row.compute_ns, elapsed),
            pct(row.send_ns, elapsed),
            pct(row.recv_ns, elapsed),
            pct(row.blocked_ns, elapsed),
            pct(row.delay_ns, elapsed),
            pct(row.other_ns, elapsed),
            pct(row.idle_ns, elapsed),
            row.total_ns() as f64 / 1e9
        );
    }
    if !rows.is_empty() {
        let blocked: u64 = rows.iter().map(|r| r.blocked_ns).sum();
        let compute: u64 = rows.iter().map(|r| r.compute_ns).sum();
        let whole = elapsed * rows.len() as u64;
        let _ = writeln!(
            out,
            "fleet: compute {:.2}%  blocked {:.2}%  ({} nodes)",
            pct(compute, whole),
            pct(blocked, whole),
            rows.len()
        );
    }

    // --- instant counts (faults, retries, reroutes, ...) ----------------
    let mut instants: HashMap<(&'static str, String), u64> = HashMap::new();
    for e in events {
        if let Event::Instant { cat, name, .. } = e {
            *instants.entry((cat, name.clone())).or_insert(0) += 1;
        }
    }
    if !instants.is_empty() {
        let mut rows: Vec<((&'static str, String), u64)> = instants.into_iter().collect();
        rows.sort();
        let _ = writeln!(out, "\n-- instant events --");
        for ((cat, name), n) in rows {
            let _ = writeln!(out, "{cat:<10} {name:<20} x{n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn mesh_recorder() -> MemRecorder {
        let r = MemRecorder::new();
        let n0 = r.track(names::MESH_NODES, "node 0");
        let n1 = r.track(names::MESH_NODES, "node 1");
        let l0 = r.track(names::MESH_LINKS, "link 0");
        r.span(n0, "compute", "dgemm", 0, 600);
        r.span(n0, "send", "send->1", 600, 650);
        r.span(n0, "blocked", "recv", 650, 900);
        r.span(n1, "compute", "dgemm", 0, 400);
        r.span(n1, "recv", "recv", 400, 450);
        r.span(l0, "link", "0->1", 600, 640);
        r.instant(n1, "fault", "crash", 800);
        r
    }

    #[test]
    fn breakdown_rows_sum_exactly_to_elapsed() {
        let r = mesh_recorder();
        let rows = r.node_breakdown(1_000);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.total_ns(),
                1_000,
                "row {} must sum to elapsed",
                row.thread
            );
        }
        assert_eq!(rows[0].compute_ns, 600);
        assert_eq!(rows[0].idle_ns, 100);
        assert_eq!(rows[1].idle_ns, 550);
    }

    #[test]
    #[should_panic(expected = "exceeds elapsed")]
    fn breakdown_rejects_busy_beyond_elapsed() {
        let r = mesh_recorder();
        let _ = r.node_breakdown(500);
    }

    #[test]
    fn summary_mentions_links_nodes_and_instants() {
        let r = mesh_recorder();
        let text = r.metrics_summary(Some(1_000));
        assert!(text.contains("hottest mesh links"));
        assert!(text.contains("link 0"));
        assert!(text.contains("per-node busy time"));
        assert!(text.contains("crash"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn summary_infers_elapsed_from_latest_mesh_event() {
        let r = mesh_recorder();
        let text = r.metrics_summary(None);
        // Latest mesh-node event is the blocked span ending at 900 ns.
        assert!(
            text.contains("0.000001 s") || text.contains("9.00e-7") || text.contains("0.0000009")
        );
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let r = MemRecorder::new();
        let text = r.metrics_summary(None);
        assert!(text.contains("events: 0"));
    }
}
