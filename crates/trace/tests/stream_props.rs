//! Property and concurrency tests for the streaming recorder.
//!
//! * Quantile fidelity: `StreamRecorder`'s online p50/p90/p99 against the
//!   exact quantile computed from a `MemRecorder` fed the same events —
//!   equal to the enclosing bucket's upper edge and within the 12.5%
//!   log-linear bucket resolution.
//! * Accounting: every emitted event is aggregated exactly once and is in
//!   the ring exactly once (retained, active, or counted as evicted).
//! * Scrape-while-write: concurrent readers see monotone totals and
//!   internally consistent snapshots while several writers are hot, and
//!   every cell ends exact; a `/trace` tail counts each event once while
//!   the ring evicts under it.
//!
//! The first two are plain loops over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use des::rng::Rng;
use hpcc_trace::stream::{bucket_hi, bucket_of};
use hpcc_trace::{json, Event, MemRecorder, Recorder, StreamRecorder};

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

/// One span cell per (process, category) serves every track of the
/// process: for random tracks spread over three processes and four
/// categories, each group's count, sum, min and max equal the exact ones
/// of a `MemRecorder` fed the same events, and its p50/p90/p99 the upper
/// edge of the bucket holding the exact quantile. Spans on a track id
/// nobody registered count in `spans_total` and `events_total` and in no
/// group, and make no group of an empty process name (32 cases).
#[test]
fn span_groups_match_mem_recorder_across_tracks() {
    const PROCS: [&str; 3] = ["mesh nodes", "mesh links", "sched"];
    const CATS: [&str; 4] = ["compute", "send", "recv", "wait"];
    for case in 0..32 {
        let mut rng = Rng::new(0x62_0003 ^ case);
        let ntracks = rng.range_u64(1, 12);
        let nspans = rng.range_u64(1, 600);
        let orphans = rng.below(20);
        let max_exp = rng.below(40) as u32;
        println!(
            "case {case}: tracks {ntracks} spans {nspans} orphans {orphans} max_exp {max_exp}"
        );
        let stream = StreamRecorder::with_ring(64, 4);
        let mem = MemRecorder::new();
        let tracks: Vec<(u32, u32)> = (0..ntracks)
            .map(|i| {
                let process = *rng.choose(&PROCS);
                let thread = format!("track {i}");
                (stream.track(process, &thread), mem.track(process, &thread))
            })
            .collect();
        for d in durations(&mut rng, nspans as usize, max_exp) {
            let &(ts, tm) = rng.choose(&tracks);
            let cat = *rng.choose(&CATS);
            stream.span(ts, cat, "k", 0, d);
            mem.span(tm, cat, "k", 0, d);
        }
        let unregistered = ntracks as u32 + 3;
        for i in 0..orphans {
            stream.span(unregistered, "compute", "k", 0, 1 + i);
        }

        // Ground truth: the buffered events grouped by (process, category),
        // in the order `/metrics` serves them.
        let mut want: BTreeMap<(String, &str), Vec<u64>> = BTreeMap::new();
        mem.with(|rows, events| {
            for e in events {
                if let Event::Span {
                    track,
                    cat,
                    start_ns,
                    end_ns,
                    ..
                } = e
                {
                    let process = rows[*track as usize].process.to_string();
                    want.entry((process, *cat))
                        .or_default()
                        .push(end_ns - start_ns);
                }
            }
        });
        let snap = stream.metrics_snapshot();
        assert_eq!(
            (snap.spans_total, snap.events_total),
            (nspans + orphans, nspans + orphans)
        );
        assert_eq!(snap.spans.len(), want.len());
        for (g, ((process, cat), durs)) in snap.spans.iter().zip(&mut want) {
            durs.sort_unstable();
            assert_eq!((&*g.process, g.category), (process.as_str(), *cat));
            assert_eq!(
                (g.count, g.sum_ns, g.min_ns, g.max_ns),
                (
                    durs.len() as u64,
                    durs.iter().sum(),
                    durs[0],
                    durs[durs.len() - 1]
                ),
                "group ({process}, {cat})"
            );
            for (q, got) in [(0.5, g.p50_ns), (0.9, g.p90_ns), (0.99, g.p99_ns)] {
                let exact = exact_quantile(durs, q);
                assert_eq!(got, bucket_hi(bucket_of(exact)), "({process}, {cat}) q={q}");
            }
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

/// One writer's share of the concurrent tests: span, counter and instant
/// in turn, then the next track. Every writer takes the same cells in the
/// same order, so concurrent writers keep meeting on one cell. The shares
/// are deterministic, so a single-threaded replay of all writers gives
/// the aggregates a concurrent run must end with.
fn write_share(rec: &StreamRecorder, tracks: &[u32], writer: u64, n: u64) {
    for i in 0..n {
        let t = tracks[(i / 3 % tracks.len() as u64) as usize];
        let x = (i * 7_919 + writer * 104_729) % 1_000_003;
        match i % 3 {
            0 => rec.span(t, "compute", "k", i, i + x),
            1 => rec.counter(t, "q", i, x as f64),
            _ => rec.instant(t, "f", "x", i),
        }
    }
}

/// Concurrent scrape-while-write: three writers share every cell while
/// readers hammer every read surface. Totals must be monotone across
/// scrapes, and at the end each cell must hold exactly what a
/// single-threaded replay of the same events holds — count, sum, min,
/// max and quantiles of every span cell, samples and max of every
/// counter, every instant count — and both ledgers must balance.
#[test]
fn concurrent_scrapes_see_monotone_consistent_state() {
    const WRITERS: u64 = 3;
    const PER_WRITER: u64 = 50_000;
    const N: u64 = WRITERS * PER_WRITER;
    // One process per track, so each span group is one cell.
    let procs = ["p0", "p1", "p2", "p3"];
    let rec = Arc::new(StreamRecorder::with_ring(256, 8));
    let tracks: Vec<u32> = procs.iter().map(|p| rec.track(p, "t")).collect();
    let writing = Arc::new(AtomicUsize::new(WRITERS as usize));
    let start = Barrier::new(WRITERS as usize);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (rec, tracks, writing) = (Arc::clone(&rec), &tracks, Arc::clone(&writing));
            let start = &start;
            scope.spawn(move || {
                start.wait();
                write_share(&rec, tracks, w, PER_WRITER);
                writing.fetch_sub(1, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let rec = Arc::clone(&rec);
            let writing = Arc::clone(&writing);
            scope.spawn(move || {
                let mut last_total = 0u64;
                let mut cursor = 0u64;
                while writing.load(Ordering::SeqCst) > 0 {
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
    assert_eq!(snap.ring.next_seq, N);

    let replay = StreamRecorder::with_ring(256, 8);
    let replay_tracks: Vec<u32> = procs.iter().map(|p| replay.track(p, "t")).collect();
    for w in 0..WRITERS {
        write_share(&replay, &replay_tracks, w, PER_WRITER);
    }
    let want = replay.metrics_snapshot();
    assert_eq!(snap.spans.len(), procs.len());
    for (got, want) in snap.spans.iter().zip(&want.spans) {
        assert_eq!(
            (got.count, got.sum_ns, got.min_ns, got.max_ns),
            (want.count, want.sum_ns, want.min_ns, want.max_ns),
            "span cell of {}",
            want.process
        );
        assert_eq!(
            (got.p50_ns, got.p90_ns, got.p99_ns),
            (want.p50_ns, want.p90_ns, want.p99_ns),
            "span quantiles of {}",
            want.process
        );
    }
    assert_eq!(snap.counters.len(), procs.len());
    for (got, want) in snap.counters.iter().zip(&want.counters) {
        assert_eq!(
            (got.samples, got.max),
            (want.samples, want.max),
            "{}",
            want.process
        );
    }
    assert_eq!(snap.instants.len(), procs.len());
    for (got, want) in snap.instants.iter().zip(&want.instants) {
        assert_eq!(got.count, want.count, "{}", want.process);
    }
}

/// `/trace` sends each event once: on every read, the events it sends
/// plus the events it reports `lagged` are exactly `next - since`, while
/// a writer streams through a ring so small that it evicts a chunk every
/// 16 events. The reader makes a fixed number of reads; the writer runs
/// until the reader is done or has failed.
#[test]
fn trace_chunks_count_each_event_once_while_the_ring_evicts() {
    /// Stops the writer when the reader ends, also by a failed assertion.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    const READS: u64 = 10_000;
    let rec = StreamRecorder::with_ring(16, 2);
    let t = rec.track("p", "t");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0;
            while !done.load(Ordering::Relaxed) {
                rec.span(t, "c", "s", i, i + 1);
                i += 1;
            }
        });
        let _stop = Stop(&done);
        let mut since = 0u64;
        for read in 0..READS {
            let (body, next) = rec.trace_chunk(since, 1024);
            let doc = json::parse(&body).expect("a chunk is valid JSON");
            let lagged = doc.get("lagged").and_then(json::Value::as_f64).unwrap() as u64;
            let rows = doc
                .get("traceEvents")
                .and_then(json::Value::as_arr)
                .unwrap()
                .filter(|e| e.get("ph").and_then(json::Value::as_str).as_deref() == Some("X"))
                .count() as u64;
            assert_eq!(
                lagged + rows,
                next - since,
                "read {read}: since {since} next {next} lagged {lagged} rows {rows}"
            );
            since = next;
        }
    });
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
