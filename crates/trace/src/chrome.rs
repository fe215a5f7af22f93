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
//! field. Integers and timestamps go through the decimal writers below
//! and a name that needs no escape is pushed whole; only a counter's
//! `f64` value is formatted by `fmt`. [`MemRecorder::to_chrome_json`] and
//! [`crate::StreamRecorder::trace_chunk`] are envelopes around them, so a
//! post-hoc document and a live chunk spell every row the same way.
//!
//! Timestamps are microseconds. Simulator times are exact integer
//! nanoseconds, so they are written as exact decimals (`ns/1000` with a
//! three-digit fraction) rather than routed through floating point. The
//! post-hoc export sorts events by (pid, tid, ts), which makes per-track
//! timestamps monotonically non-decreasing — the property the golden test
//! and the CI check assert.

use std::fmt::Write as _;

use crate::{Event, MemRecorder, Tracks};

impl MemRecorder {
    /// Serialize the buffered trace to Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(capacity(&inner.tracks, inner.events.len()));
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

/// Bytes to reserve for an envelope, the rows of `tracks` and `events`
/// event rows: a row with names of ordinary length stays under 96 bytes,
/// and a track may bring a process row with it.
pub(crate) fn capacity(tracks: &Tracks, events: usize) -> usize {
    128 + (2 * tracks.rows().len() + events) * 96
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
        if tid == 1 {
            next_row(out);
            out.push_str("{\"ph\":\"M\",\"pid\":");
            push_int(out, pid.into());
            out.push_str(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":");
            push_quoted(out, &track.process);
            out.push_str("}}");
        }
        next_row(out);
        out.push_str("{\"ph\":\"M\"");
        push_id(out, (pid, tid));
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        push_quoted(out, &track.thread);
        out.push_str("}}");
    }
}

/// A complete event: the interval `[start_ns, end_ns]` on row `(pid, tid)`.
pub(crate) fn span(
    out: &mut String,
    id: (u32, u32),
    cat: &str,
    name: &str,
    start_ns: u64,
    end_ns: u64,
) {
    next_row(out);
    out.push_str("{\"ph\":\"X\"");
    push_id(out, id);
    out.push_str(",\"ts\":");
    push_us(out, start_ns);
    out.push_str(",\"dur\":");
    push_us(out, end_ns - start_ns);
    push_cat_name(out, cat, name);
    out.push('}');
}

/// A thread-scoped instant event.
pub(crate) fn instant(out: &mut String, id: (u32, u32), cat: &str, name: &str, at_ns: u64) {
    next_row(out);
    out.push_str("{\"ph\":\"i\",\"s\":\"t\"");
    push_id(out, id);
    out.push_str(",\"ts\":");
    push_us(out, at_ns);
    push_cat_name(out, cat, name);
    out.push('}');
}

/// A counter sample; a non-finite value is written as 0.
pub(crate) fn counter(out: &mut String, id: (u32, u32), name: &str, at_ns: u64, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    next_row(out);
    out.push_str("{\"ph\":\"C\"");
    push_id(out, id);
    out.push_str(",\"ts\":");
    push_us(out, at_ns);
    out.push_str(",\"name\":");
    push_quoted(out, name);
    // The shortest decimal that reads back as `value` is `fmt`'s to find.
    let _ = write!(out, ",\"args\":{{\"value\":{value}}}}}");
}

fn push_id(out: &mut String, (pid, tid): (u32, u32)) {
    out.push_str(",\"pid\":");
    push_int(out, pid.into());
    out.push_str(",\"tid\":");
    push_int(out, tid.into());
}

fn push_cat_name(out: &mut String, cat: &str, name: &str) {
    out.push_str(",\"cat\":");
    push_quoted(out, cat);
    out.push_str(",\"name\":");
    push_quoted(out, name);
}

/// `v` in decimal.
fn push_int(out: &mut String, mut v: u64) {
    // u64::MAX has twenty digits.
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Exact microsecond rendering of an integer nanosecond count: `ns / 1000`
/// and a three-digit fraction.
fn push_us(out: &mut String, ns: u64) {
    push_int(out, ns / 1_000);
    let frac = ns % 1_000;
    out.push('.');
    for div in [100, 10, 1] {
        out.push((b'0' + (frac / div % 10) as u8) as char);
    }
}

/// JSON string literal with escaping. Everything that needs an escape is
/// one ASCII byte, so the runs between them (the whole string, for almost
/// every name) are pushed whole.
fn push_quoted(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < b' ')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
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
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        let mut last_ts: std::collections::HashMap<(u64, u64), f64> = Default::default();
        assert_ne!(events.len(), 0);
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert!(matches!(&*ph, "X" | "i" | "C" | "M"), "unexpected ph {ph}");
            if ph == "M" {
                continue;
            }
            let pid = e.get("pid").and_then(Value::as_f64).unwrap() as u64;
            let tid = e.get("tid").and_then(Value::as_f64).unwrap() as u64;
            let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
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
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let thread_names: Vec<_> = events
            .clone()
            .filter(|e| e.get("name").and_then(Value::as_str).as_deref() == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(thread_names, ["node 0", "node 1", "link 0 \"east\""]);
        let process_names: Vec<_> = events
            .filter(|e| e.get("name").and_then(Value::as_str).as_deref() == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(process_names, ["mesh nodes", "mesh links"]);
    }

    /// The decimal writers against `fmt`, at the edges of each.
    #[test]
    fn integers_and_timestamps_spell_as_fmt_spells_them() {
        let written = |write: fn(&mut String, u64), v| {
            let mut out = String::new();
            write(&mut out, v);
            out
        };
        let edges = [0, 9, 10, 99, 100, 999, 1_000, 1_001, 1_234_567];
        for v in edges
            .into_iter()
            .chain([u32::MAX.into(), u64::MAX - 1, u64::MAX])
        {
            assert_eq!(written(push_int, v), v.to_string());
            let us = format!("{}.{:03}", v / 1_000, v % 1_000);
            assert_eq!(written(push_us, v), us);
        }
        assert_eq!(written(push_us, 999), "0.999");
        assert_eq!(written(push_us, u64::MAX), "18446744073709551.615");
    }

    /// One row of each kind with every field at an extreme: `ts` 0, 999,
    /// 1,000 and `u64::MAX` ns, pid / tid 0 and `u32::MAX`, names that
    /// need every escape and none.
    #[test]
    fn rows_at_the_extremes_of_each_field() {
        let mut out = String::from("[");
        span(
            &mut out,
            (0, u32::MAX),
            "c\"\\",
            "n\n\r\t\u{1}\u{1f}µ/",
            0,
            u64::MAX,
        );
        instant(&mut out, (u32::MAX, 0), "fault", "", 999);
        counter(&mut out, (1, 1), "\u{0}q", 1_000, -2.5e-7);
        counter(&mut out, (1, 1), "q", u64::MAX, f64::NEG_INFINITY);
        out.push_str("\n]");
        let want = r#"[
{"ph":"X","pid":0,"tid":4294967295,"ts":0.000,"dur":18446744073709551.615,"cat":"c\"\\","name":"n\n\r\t\u0001\u001fµ/"},
{"ph":"i","s":"t","pid":4294967295,"tid":0,"ts":0.999,"cat":"fault","name":""},
{"ph":"C","pid":1,"tid":1,"ts":1.000,"name":"\u0000q","args":{"value":-0.00000025}},
{"ph":"C","pid":1,"tid":1,"ts":18446744073709551.615,"name":"q","args":{"value":0}}
]"#;
        assert_eq!(out, want);
        let doc = parse(&out).expect("rows are valid JSON");
        let names: Vec<_> = doc
            .root()
            .as_arr()
            .unwrap()
            .map(|row| row.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, ["n\n\r\t\u{1}\u{1f}µ/", "", "\u{0}q", "q"]);
    }

    #[test]
    fn empty_recorder_exports_valid_json() {
        let json = MemRecorder::new().to_chrome_json();
        let doc = parse(&json).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Value::as_arr)
                .unwrap()
                .len(),
            0
        );
    }
}
