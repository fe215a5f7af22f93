//! Looking up a known track, and recording on a known cell, allocate
//! nothing. One test per file: the counting allocator is process-wide.

use hpcc_trace::{MemRecorder, Recorder, StreamRecorder};

#[path = "../../mesh/tests/common/mod.rs"]
mod common;

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

#[test]
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
