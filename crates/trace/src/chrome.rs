//! Chrome `trace_event` JSON writer — the only one in the crate.
//!
//! Emits the "JSON object format" (`{"traceEvents": [...]}`) understood by
//! Perfetto and `chrome://tracing`. Each recorded process becomes a Chrome
//! pid, each track a tid, so every mesh node and every channel renders as
//! its own row. Spans are complete events (`ph:"X"`), instants `ph:"i"`,
//! counters `ph:"C"`; `process_name` / `thread_name` metadata events label
//! the rows.
//!
//! The row functions (`tracks`, `span`, `instant`, `counter`)
//! append to the caller's `String` and allocate nothing per row or per
//! field. [`MemRecorder::to_chrome_json`] and
//! [`crate::StreamRecorder::trace_chunk`] are envelopes around them, so a
//! post-hoc document and a live chunk spell every row the same way.
//!
//! Timestamps are microseconds. Simulator times are exact integer
//! nanoseconds, so they are written as exact decimals (`ns/1000` with a
//! three-digit fraction) rather than routed through floating point. The
//! post-hoc export sorts events by (pid, tid, ts), which makes per-track
//! timestamps monotonically non-decreasing — the property the golden test
//! and the CI check assert.

use std::fmt::{self, Write as _};

use crate::{Event, MemRecorder, Tracks};

impl MemRecorder {
    /// Serialize the buffered trace to Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(128 + inner.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        tracks(&mut out, &inner.tracks);
        // Sort events by (pid, tid, ts); the sort is stable, so simultaneous
        // events keep emission order.
        let mut ordered: Vec<&Event> = inner.events.iter().collect();
        ordered.sort_by_key(|e| (inner.tracks.chrome_id(e.track()), e.ts_ns()));
        for e in ordered {
            let id = inner.tracks.chrome_id(e.track());
            match e {
                Event::Span {
                    cat,
                    name,
                    start_ns,
                    end_ns,
                    ..
                } => span(&mut out, id, cat, name, *start_ns, *end_ns),
                Event::Instant {
                    cat, name, at_ns, ..
                } => instant(&mut out, id, cat, name, *at_ns),
                Event::Counter {
                    name, at_ns, value, ..
                } => counter(&mut out, id, name, *at_ns, *value),
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Start the next row of the `traceEvents` array `out` ends in: every row
/// but the one right after the opening bracket follows a comma.
fn next_row(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('\n');
}

/// Metadata rows: name each process once, each thread (track) once. A
/// process is named ahead of its first track, which is the one with tid 1.
pub(crate) fn tracks(out: &mut String, tracks: &Tracks) {
    for (id, track) in tracks.rows().iter().enumerate() {
        let (pid, tid) = tracks.chrome_id(id as u32);
        let (process, thread) = (Quote(&track.process), Quote(&track.thread));
        if tid == 1 {
            next_row(out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{process}}}}}"
            );
        }
        next_row(out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{thread}}}}}"
        );
    }
}

/// A complete event: the interval `[start_ns, end_ns]` on row `(pid, tid)`.
pub(crate) fn span(
    out: &mut String,
    (pid, tid): (u32, u32),
    cat: &str,
    name: &str,
    start_ns: u64,
    end_ns: u64,
) {
    let (ts, dur, cat, name) = (Us(start_ns), Us(end_ns - start_ns), Quote(cat), Quote(name));
    next_row(out);
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
         \"cat\":{cat},\"name\":{name}}}"
    );
}

/// A thread-scoped instant event.
pub(crate) fn instant(out: &mut String, (pid, tid): (u32, u32), cat: &str, name: &str, at_ns: u64) {
    let (ts, cat, name) = (Us(at_ns), Quote(cat), Quote(name));
    next_row(out);
    let _ = write!(
        out,
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
         \"cat\":{cat},\"name\":{name}}}"
    );
}

/// A counter sample; a non-finite value is written as 0.
pub(crate) fn counter(
    out: &mut String,
    (pid, tid): (u32, u32),
    name: &str,
    at_ns: u64,
    value: f64,
) {
    let (ts, name) = (Us(at_ns), Quote(name));
    let value = if value.is_finite() { value } else { 0.0 };
    next_row(out);
    let _ = write!(
        out,
        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":{name},\
         \"args\":{{\"value\":{value}}}}}"
    );
}

/// Exact microsecond rendering of an integer nanosecond count.
struct Us(u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// JSON string literal with escaping. Everything that needs an escape is
/// one ASCII byte, so the runs between them are written whole.
struct Quote<'a>(&'a str);

impl fmt::Display for Quote<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                b => write!(f, "\\u{b:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::Recorder;

    fn sample_recorder() -> MemRecorder {
        let r = MemRecorder::new();
        let n0 = r.track("mesh nodes", "node 0");
        let n1 = r.track("mesh nodes", "node 1");
        let l0 = r.track("mesh links", "link 0 \"east\"");
        // Deliberately out of order per track: the exporter must sort.
        r.span(n0, "compute", "dgemm", 2_500, 4_000);
        r.span(n0, "send", "send->1", 1_000, 1_250);
        r.instant(n1, "fault", "crash", 3_000);
        r.span(n1, "blocked", "recv", 500, 3_000);
        r.counter(l0, "occupancy", 2_000, 1.0);
        r.counter(l0, "occupancy", 1_500, 0.0);
        r
    }

    /// Golden test: the export is valid JSON and per-track `ts` values are
    /// monotonically non-decreasing.
    #[test]
    fn chrome_export_is_valid_json_with_monotonic_ts_per_track() {
        let json = sample_recorder().to_chrome_json();
        let doc = parse(&json).expect("exporter must emit valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut last_ts: std::collections::HashMap<(u64, u64), f64> = Default::default();
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(matches!(ph, "X" | "i" | "C" | "M"), "unexpected ph {ph}");
            if ph == "M" {
                continue;
            }
            let pid = e.get("pid").and_then(Json::as_f64).unwrap() as u64;
            let tid = e.get("tid").and_then(Json::as_f64).unwrap() as u64;
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let prev = last_ts.insert((pid, tid), ts);
            if let Some(prev) = prev {
                assert!(
                    ts >= prev,
                    "ts regressed on track ({pid},{tid}): {prev} -> {ts}"
                );
            }
        }
    }

    #[test]
    fn chrome_export_names_every_track() {
        let json = sample_recorder().to_chrome_json();
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(thread_names, ["node 0", "node 1", "link 0 \"east\""]);
        let process_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(process_names, ["mesh nodes", "mesh links"]);
    }

    #[test]
    fn timestamps_are_exact_microsecond_decimals() {
        assert_eq!(Us(0).to_string(), "0.000");
        assert_eq!(Us(999).to_string(), "0.999");
        assert_eq!(Us(1_000).to_string(), "1.000");
        assert_eq!(Us(1_234_567).to_string(), "1234.567");
    }

    #[test]
    fn empty_recorder_exports_valid_json() {
        let r = MemRecorder::new();
        let doc = parse(&r.to_chrome_json()).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            0
        );
    }
}
