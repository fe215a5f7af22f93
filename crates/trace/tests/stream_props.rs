//! Property and concurrency tests for the streaming recorder.
//!
//! * Quantile fidelity: `StreamRecorder`'s online p50/p90/p99 against the
//!   exact quantile computed from a `MemRecorder` fed the same events —
//!   equal to the enclosing bucket's upper edge and within the 12.5%
//!   log-linear bucket resolution.
//! * Accounting: every emitted event is aggregated exactly once and is in
//!   the ring exactly once (retained, active, or counted as evicted).
//! * Scrape-while-write: concurrent readers see monotone totals and
//!   internally consistent snapshots while the writer is hot.
//!
//! The first two are plain loops over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use des::rng::Rng;
use hpcc_trace::stream::{bucket_hi, bucket_of};
use hpcc_trace::{Event, MemRecorder, Recorder, StreamRecorder};

/// Exact quantile with `des::stats::Histogram`'s rank rule: the
/// `ceil(q*n)`-th smallest value (1-indexed).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let target = (q * sorted.len() as f64).ceil() as usize;
    sorted[target.max(1) - 1]
}

/// Durations spanning the full dynamic range: mantissa scaled into an
/// exponent sampled from `0..=max_exp`.
fn durations(rng: &mut Rng, n: usize, max_exp: u32) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let exp = rng.below(max_exp as u64 + 1);
            let mantissa = rng.below(1000);
            (1u64 << exp).saturating_add(mantissa * (1u64 << exp) / 1000)
        })
        .collect()
}

/// The streamed quantile is the upper edge of the bucket holding the
/// exact quantile (MemRecorder ground truth), hence within one
/// log-linear bucket — ≤12.5% relative error (48 cases).
#[test]
fn stream_quantiles_match_mem_recorder_within_bucket_resolution() {
    for case in 0..48 {
        let mut rng = Rng::new(0x9A47_0001 ^ case);
        let n = rng.range_u64(1, 399) as usize;
        let max_exp = rng.below(50) as u32;
        println!("case {case}: n {n} max_exp {max_exp}");
        let durs = durations(&mut rng, n, max_exp);

        let stream = StreamRecorder::new();
        let mem = MemRecorder::new();
        let ts = stream.track("mesh nodes", "node 0");
        let tm = mem.track("mesh nodes", "node 0");
        for &d in &durs {
            stream.span(ts, "compute", "k", 0, d);
            mem.span(tm, "compute", "k", 0, d);
        }

        // Ground truth from the buffered recorder's own event log.
        let mut sorted: Vec<u64> = mem.with(|_, events| {
            events
                .iter()
                .map(|e| match e {
                    Event::Span {
                        start_ns, end_ns, ..
                    } => end_ns - start_ns,
                    _ => unreachable!("only spans were emitted"),
                })
                .collect()
        });
        sorted.sort_unstable();
        assert_eq!(sorted.len(), durs.len());

        let snap = stream.metrics_snapshot();
        assert_eq!(snap.spans.len(), 1);
        let g = &snap.spans[0];
        assert_eq!(g.count, n as u64);
        assert_eq!(g.min_ns, *sorted.first().unwrap());
        assert_eq!(g.max_ns, *sorted.last().unwrap());

        for (q, got) in [(0.5, g.p50_ns), (0.9, g.p90_ns), (0.99, g.p99_ns)] {
            let exact = exact_quantile(&sorted, q);
            let edge = bucket_hi(bucket_of(exact));
            assert_eq!(got, edge, "q={q} exact={exact} got={got}");
            // Bucket resolution: upper edge overshoots by <= 12.5% + 1.
            assert!(got >= exact);
            let over = (got - exact) as f64;
            assert!(
                over <= 0.125 * exact as f64 + 1.0,
                "q={q} exact={exact} got={got} overshoots a bucket"
            );
        }
    }
}

/// Ledger identities hold for any mix of event kinds and any ring
/// geometry, with eviction forced by tiny rings (48 cases).
#[test]
fn ledger_balances_for_any_mix_and_ring_geometry() {
    for case in 0..48 {
        let mut rng = Rng::new(0x1ED6_0002 ^ case);
        let spans = rng.below(300);
        let counters = rng.below(300);
        let instants = rng.below(300);
        let chunk_cap = rng.range_u64(1, 32) as usize;
        let max_chunks = rng.range_u64(1, 4) as usize;
        println!(
            "case {case}: spans {spans} counters {counters} instants {instants} \
             chunk_cap {chunk_cap} max_chunks {max_chunks}"
        );
        let rec = StreamRecorder::with_ring(chunk_cap, max_chunks);
        let t = rec.track("p", "t");
        for i in 0..spans {
            rec.span(t, "c", "s", i, i + 1);
        }
        for i in 0..counters {
            rec.counter(t, "q", i, i as f64);
        }
        for i in 0..instants {
            rec.instant(t, "f", "x", i);
        }
        let snap = rec.metrics_snapshot();
        let total = spans + counters + instants;
        assert_eq!(snap.events_total, total);
        // Aggregation ledger: every event aggregated exactly once.
        assert_eq!(
            snap.spans_total + snap.counters_total + snap.instants_total,
            total
        );
        // Ring ledger: emitted == retained + active + evicted (dropped).
        assert_eq!(
            snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events,
            total
        );
        // Sequence window is consistent with the ledger.
        assert_eq!(snap.ring.next_seq, total);
        assert_eq!(snap.ring.oldest_seq, snap.ring.evicted_events);
        // A ring this small under this load must have dropped something.
        if total > (chunk_cap * (max_chunks + 1)) as u64 {
            assert!(snap.ring.evicted_events > 0);
        }
    }
}

/// Concurrent scrape-while-write: readers hammer every read surface while
/// a writer streams events. Totals must be monotone across scrapes and
/// the final ledger exact.
#[test]
fn concurrent_scrapes_see_monotone_consistent_state() {
    const N: u64 = 30_000;
    let rec = Arc::new(StreamRecorder::with_ring(256, 8));
    let t = rec.track("mesh nodes", "node 0");
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let rec = Arc::clone(&rec);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for i in 0..N {
                    match i % 3 {
                        0 => rec.span(t, "compute", "k", i, i + 10),
                        1 => rec.counter(t, "q", i, i as f64),
                        _ => rec.instant(t, "f", "x", i),
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let rec = Arc::clone(&rec);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_total = 0u64;
                let mut cursor = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let snap = rec.metrics_snapshot();
                    assert!(
                        snap.events_total >= last_total,
                        "events_total regressed: {} -> {}",
                        last_total,
                        snap.events_total
                    );
                    last_total = snap.events_total;
                    // Prometheus text renders without panicking mid-write.
                    let text = rec.prometheus_text();
                    assert!(text.contains("hpcc_recorder_events_total"));
                    // Trace cursor only moves forward.
                    let (_, next) = rec.trace_chunk(cursor, 1024);
                    assert!(next >= cursor);
                    cursor = next;
                }
            });
        }
    });

    let snap = rec.metrics_snapshot();
    assert_eq!(snap.events_total, N);
    assert_eq!(
        snap.spans_total + snap.counters_total + snap.instants_total,
        N
    );
    assert_eq!(
        snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events,
        N
    );
}

/// The pure-observer contract at the API level: a recorded lu2d-style
/// span stream leaves the recorder with exactly the aggregates the inputs
/// dictate, independent of scrape interleavings (scrapes are read-only).
#[test]
fn scrapes_do_not_perturb_aggregates() {
    let rec = StreamRecorder::new();
    let t = rec.track("p", "t");
    rec.span(t, "c", "a", 0, 100);
    let before = rec.metrics_snapshot();
    for _ in 0..50 {
        let _ = rec.prometheus_text();
        let _ = rec.trace_chunk(0, 10_000);
        let _ = rec.metrics_snapshot();
    }
    rec.span(t, "c", "a", 0, 100);
    let after = rec.metrics_snapshot();
    assert_eq!(after.spans[0].count, before.spans[0].count + 1);
    assert_eq!(after.spans[0].sum_ns, before.spans[0].sum_ns + 100);
    assert_eq!(after.events_total, before.events_total + 1);
}
