//! The Chrome `trace_event` rows have one writer: a post-hoc
//! `MemRecorder::to_chrome_json` document and a live
//! `StreamRecorder::trace_chunk` body fed the same events carry the same
//! metadata and event rows, byte for byte, and differ only in envelope
//! and sort order. The literal goldens pin both formats.

use hpcc_trace::{MemRecorder, Recorder, StreamRecorder};

/// Names that need every escape (`"`, `\`, a newline, a control byte),
/// non-finite counter samples, processes registered interleaved, and an
/// event on a track nobody registered. Names stay under the ring's
/// 31-byte inline limit so both recorders keep them whole.
fn feed(r: &dyn Recorder) {
    let n0 = r.track("mesh nodes", "node 0");
    let l0 = r.track("mesh links", "link \"east\"");
    let n1 = r.track("mesh nodes", "node\\1");
    r.span(n0, "compute", "dgemm", 2_500, 4_000);
    r.span(n0, "send", "send->1\u{1}", 1_000, 1_250);
    r.instant(n1, "fault", "crash\n", 3_000);
    r.counter(l0, "occupancy", 2_000, 0.5);
    r.counter(l0, "occupancy", 1_500, f64::NAN);
    r.counter(l0, "depth", 1_600, f64::INFINITY);
    r.span(9, "x", "unregistered", 1, 2);
}

fn mem_document() -> String {
    let mem = MemRecorder::new();
    feed(&mem);
    mem.to_chrome_json()
}

fn stream_chunk() -> String {
    let stream = StreamRecorder::with_ring(4, 8);
    feed(&stream);
    stream.flush_ring();
    let (body, next) = stream.trace_chunk(0, usize::MAX);
    assert_eq!(next, 7);
    body
}

/// The rows between the envelope's first and last line, separators
/// stripped, split into (metadata, events).
fn rows(doc: &str) -> (Vec<&str>, Vec<&str>) {
    let lines: Vec<&str> = doc.lines().collect();
    let (head, tail) = (lines[0], lines[lines.len() - 1]);
    assert!(head.ends_with("\"traceEvents\":["), "envelope head: {head}");
    assert!(tail.starts_with("],"), "envelope tail: {tail}");
    lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.strip_suffix(',').unwrap_or(l))
        .partition(|l| l.starts_with(r#"{"ph":"M""#))
}

#[test]
fn both_recorders_write_the_same_rows() {
    let (mem_doc, chunk) = (mem_document(), stream_chunk());
    let (mem_meta, mut mem_events) = rows(&mem_doc);
    let (stream_meta, mut stream_events) = rows(&chunk);
    assert_eq!(mem_meta, stream_meta);
    assert_eq!(mem_meta.len(), 2 + 3, "two processes, three tracks");
    // The document is sorted by (pid, tid, ts), the chunk is in emission
    // order: same rows, different order.
    assert_ne!(mem_events, stream_events);
    mem_events.sort_unstable();
    stream_events.sort_unstable();
    assert_eq!(mem_events, stream_events);
    assert_eq!(mem_events.len(), 7);
}

const GOLDEN_ROWS_META: &str = r#"
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"mesh nodes"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"node 0"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"mesh links"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"link \"east\""}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"node\\1"}},"#;

#[test]
fn to_chrome_json_golden() {
    let want = format!(
        "{}{GOLDEN_ROWS_META}{}",
        r#"{"traceEvents":["#,
        r#"
{"ph":"X","pid":0,"tid":0,"ts":0.001,"dur":0.001,"cat":"x","name":"unregistered"},
{"ph":"X","pid":1,"tid":1,"ts":1.000,"dur":0.250,"cat":"send","name":"send->1\u0001"},
{"ph":"X","pid":1,"tid":1,"ts":2.500,"dur":1.500,"cat":"compute","name":"dgemm"},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":3.000,"cat":"fault","name":"crash\n"},
{"ph":"C","pid":2,"tid":1,"ts":1.500,"name":"occupancy","args":{"value":0}},
{"ph":"C","pid":2,"tid":1,"ts":1.600,"name":"depth","args":{"value":0}},
{"ph":"C","pid":2,"tid":1,"ts":2.000,"name":"occupancy","args":{"value":0.5}}
],"displayTimeUnit":"ms"}
"#
    );
    assert_eq!(mem_document(), want);
}

#[test]
fn trace_chunk_golden() {
    let want = format!(
        "{}{GOLDEN_ROWS_META}{}",
        r#"{"since":0,"oldest":0,"lagged":0,"traceEvents":["#,
        r#"
{"ph":"X","pid":1,"tid":1,"ts":2.500,"dur":1.500,"cat":"compute","name":"dgemm"},
{"ph":"X","pid":1,"tid":1,"ts":1.000,"dur":0.250,"cat":"send","name":"send->1\u0001"},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":3.000,"cat":"fault","name":"crash\n"},
{"ph":"C","pid":2,"tid":1,"ts":2.000,"name":"occupancy","args":{"value":0.5}},
{"ph":"C","pid":2,"tid":1,"ts":1.500,"name":"occupancy","args":{"value":0}},
{"ph":"C","pid":2,"tid":1,"ts":1.600,"name":"depth","args":{"value":0}},
{"ph":"X","pid":0,"tid":0,"ts":0.001,"dur":0.001,"cat":"x","name":"unregistered"}
],"next":7}
"#
    );
    assert_eq!(stream_chunk(), want);
}
