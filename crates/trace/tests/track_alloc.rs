//! Looking up a known track, and recording on a known cell, allocate
//! nothing; reading the cursor of a `/trace` chunk allocates the tape and
//! little else. One test per file: the counting allocator is process-wide.

use hpcc_trace::{json, MemRecorder, Recorder, StreamRecorder};

#[path = "../../mesh/tests/common/mod.rs"]
mod common;

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

#[test]
fn allocation_budgets() {
    known_tracks_and_cells_allocate_nothing();
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
