//! Looking up a known track, and recording on a known cell, allocate
//! nothing; a ring at steady state allocates once a chunk; a `/metrics`
//! answer allocates per span group, not per series or label; reading the
//! cursor of a `/trace` chunk allocates the tape and little else. One test
//! per file: the counting allocator is process-wide.

use hpcc_trace::{json, MemRecorder, Recorder, StreamRecorder};

#[path = "../../mesh/tests/common/mod.rs"]
mod common;

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

#[test]
fn allocation_budgets() {
    known_tracks_and_cells_allocate_nothing();
    a_steady_ring_allocates_once_a_chunk();
    metrics_text_allocates_per_group();
    reading_a_chunk_cursor_allocates_at_most_four_times();
}

fn known_tracks_and_cells_allocate_nothing() {
    let mem = MemRecorder::new();
    // Default ring: the 300 events below stay inside the first chunk.
    let stream = StreamRecorder::new();
    let touch = |r: &dyn Recorder| {
        r.track("mesh nodes", "node 0");
        r.track("mesh links", "link 0");
        r.track("mesh nodes", "node 1")
    };
    let record = |t| {
        stream.span(t, "compute", "dgemm", 10, 20);
        stream.counter(t, "queue_depth", 10, 3.0);
        stream.instant(t, "fault", "crash", 20);
    };
    assert_eq!((touch(&mem), touch(&stream)), (2, 2));
    record(2);

    let before = common::allocs();
    for _ in 0..99 {
        assert_eq!((touch(&mem), touch(&stream)), (2, 2));
        record(2);
    }
    assert_eq!(common::allocs() - before, 0);
}

/// Once the ring has evicted a chunk no reader holds, each new chunk
/// reuses that chunk's buffer and allocates only its `Arc`: 200
/// allocations for these 100 chunks when every chunk took a new buffer.
fn a_steady_ring_allocates_once_a_chunk() {
    const CAP: u64 = 64;
    let stream = StreamRecorder::with_ring(CAP as usize, 4);
    let t = stream.track("mesh nodes", "node 0");
    let mut at = 0;
    let mut record = |chunks: u64| {
        for _ in 0..chunks * CAP {
            stream.span(t, "compute", "pump", at, at + 7);
            at += 10;
        }
    };
    record(8);

    let before = common::allocs();
    record(100);
    let allocs = common::allocs() - before;
    assert!(allocs <= 100, "{allocs} allocations for 100 chunks");
}

/// `/metrics` on `telemetry_live`'s geometry: 64 pump tracks, the
/// recorded `delta(4,4)` LU's 16 nodes (on the same tracks as the first
/// 16 pump tracks), 48 channels and its executor — 113 tracks, 7 span
/// groups and 36 counter series. It takes 9 allocations, growing the
/// snapshot's vectors and the answer: quantiles come from one scan of a
/// stack array of bucket counts, and no series allocates a label. It
/// took 16 when each span group built a histogram to read its quantiles
/// from and the bucket counts lived on the heap, 101 when every counter
/// series owned copies of its two names and each group summed one cell
/// per track into an array of its own, and 1,104 when every label and
/// value was a string of its own and every span cell brought two bucket
/// vectors and a key.
fn metrics_text_allocates_per_group() {
    let stream = StreamRecorder::with_ring(256, 16);
    let nodes: Vec<u32> = (0..64)
        .map(|i| stream.track("mesh nodes", &format!("node {i}")))
        .collect();
    let chans: Vec<u32> = (0..48)
        .map(|l| stream.track("mesh links", &format!("chan {l}")))
        .collect();
    let executor = stream.track("des", "executor");
    for i in 0..10_000u64 {
        let track = nodes[i as usize % nodes.len()];
        stream.span(track, "compute", "pump", i, i + 1 + i * 7_919 % 1_000_000);
        if i % 10 == 0 {
            stream.counter(track, "queue_depth", i, (i % 97) as f64);
        }
    }
    for (i, &node) in nodes[..16].iter().enumerate() {
        for cat in ["blocked", "delay", "recv", "send"] {
            stream.span(node, cat, "lu", 0, 1_000 * i as u64);
        }
    }
    for &chan in &chans {
        stream.span(chan, "link", "msg", 0, 420);
    }
    for name in [
        "event_queue_depth",
        "ready_tasks",
        "live_tasks",
        "task_polls",
    ] {
        stream.counter(executor, name, 0, 1.0);
    }

    let before = common::allocs();
    let text = stream.prometheus_text();
    let allocs = common::allocs() - before;
    assert!(text.contains("hpcc_recorder_tracks 113\n"));
    assert!(allocs <= 10, "{allocs} allocations for one /metrics answer");
}

/// A tailing client's per-chunk work, on a chunk of `telemetry_live`'s
/// geometry (1,024 events over 64 tracks): 13,246 allocations when `parse`
/// built a tree of owned nodes.
fn reading_a_chunk_cursor_allocates_at_most_four_times() {
    let stream = StreamRecorder::with_ring(256, 16);
    let tracks: Vec<u32> = (0..64)
        .map(|i| stream.track("mesh nodes", &format!("node {i}")))
        .collect();
    for i in 0..1_024u64 {
        let track = tracks[i as usize % tracks.len()];
        stream.span(
            track,
            "compute",
            "pump",
            i * 1_000,
            i * 1_000 + 1 + i * 7_919,
        );
        if i % 10 == 0 {
            stream.counter(track, "queue_depth", i * 1_000, (i % 97) as f64);
        }
    }
    stream.flush_ring();
    let (body, next) = stream.trace_chunk(0, 1_024);
    assert_eq!(next, 1_024);

    let before = common::allocs();
    let doc = json::parse(&body).expect("a chunk is valid JSON");
    let cursor = doc.get("next").and_then(json::Value::as_f64);
    let allocs = common::allocs() - before;
    assert_eq!(cursor, Some(1_024.0));
    assert!(allocs <= 4, "{allocs} allocations to read one cursor");
}
