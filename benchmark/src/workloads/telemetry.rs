//! `telemetry_live`: the streaming recorder written to while its HTTP
//! endpoint is read, against one recorder and one server that live for
//! the whole run. A pass pumps synthetic spans and counters (write
//! path), records one simulated LU in the trace regime (a span per
//! message), then scrapes from the same thread (read path). After
//! warm-up the event ring is full, so every pass also evicts.

use super::{LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{pareto, stratified, unit_scale, Digest, Gen};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PUMP_SPANS: usize = 10_000;
const PUMP_COUNTERS: usize = 1_000;
const TRACKS: usize = 64;
const LU_MESH: (usize, usize) = (4, 4);
const LU_N: usize = 512;
const LU_NB: usize = 32;
/// Event ring of 16 chunks x 256 events: small enough to stay in the L2
/// cache, and every pass still wraps it several times.
const RING: (usize, usize) = (256, 16);
const SCRAPES: usize = 2;
const CHUNKS: usize = 2;
const CHUNK_MAX: usize = 1024;

/// Blocking `GET`; the connection is closed by the server after the
/// response, so at most one is open at a time.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))?;
    sock.set_write_timeout(Some(Duration::from_secs(10)))?;
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    sock.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

pub struct Live {
    rec: Arc<api::StreamRecorder>,
    /// Dropping the server stops it and joins its accept thread.
    server: api::TelemetryServer,
    tracks: Vec<u32>,
    /// Span lengths in ns: Pareto (1 µs, α 1.2, capped at 1 s), so the
    /// histogram cells of every decade are hit.
    durations: Vec<u64>,
    machine: api::Machine,
    clock_ns: u64,
    cursor: u64,
    last: Option<Last>,
}

struct Last {
    events_before: u64,
    events_after: u64,
    evicted_before: u64,
    metrics_body: String,
    lu: api::Lu2dResult,
}

impl Live {
    pub fn new(seed: u64) -> Live {
        let mut g = Gen::new(seed);
        let (rec, server) = api::telemetry_start(RING.0, RING.1);
        let tracks = api::telemetry_tracks(&rec, TRACKS);
        let durations = stratified(PUMP_SPANS, &mut g.fork(), pareto(1e3, 1.2, 1e9))
            .into_iter()
            .map(|d| d as u64)
            .collect();
        Live {
            rec,
            server,
            tracks,
            durations,
            machine: api::delta_machine(LU_MESH.0, LU_MESH.1, unit_scale(&mut g)),
            clock_ns: 0,
            cursor: 0,
            last: None,
        }
    }

    fn unaccounted(&self) -> u64 {
        let snap = self.rec.metrics_snapshot();
        let aggregated = snap.spans_total + snap.counters_total + snap.instants_total;
        let ring = snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events;
        snap.events_total.abs_diff(aggregated) + snap.events_total.abs_diff(ring)
    }
}

impl Workload for Live {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let events_before = self.rec.events_total();
        let evicted_before = self.rec.ring_ledger().evicted_events;
        let mut ok = true;

        t.span("trace/pump", |_| {
            let every = PUMP_SPANS / PUMP_COUNTERS;
            for (i, &d) in self.durations.iter().enumerate() {
                let track = self.tracks[i % TRACKS];
                self.clock_ns += 1_000;
                api::telemetry_span(&self.rec, track, self.clock_ns, self.clock_ns + d);
                if i % every == 0 {
                    api::telemetry_counter(&self.rec, track, self.clock_ns, (i % 97) as f64);
                }
            }
            self.rec.flush_ring();
        });

        let lu = t.span("trace/lu2d", |_| {
            api::lu2d_recorded(&self.machine, LU_N, LU_NB, &self.rec)
        });
        let events_after = self.rec.events_total();

        let addr = self.server.addr();
        let mut metrics_body = String::new();
        t.span("trace/scrape", |_| {
            for _ in 0..SCRAPES {
                match http_get(addr, "/metrics") {
                    Ok((200, body)) => metrics_body = body,
                    _ => ok = false,
                }
            }
        });
        t.span("trace/chunk", |_| {
            for _ in 0..CHUNKS {
                let path = format!("/trace?since={}&max={CHUNK_MAX}", self.cursor);
                match http_get(addr, &path) {
                    Ok((200, body)) => match api::chunk_cursor(&body) {
                        Some(next) => self.cursor = next,
                        None => ok = false,
                    },
                    _ => ok = false,
                }
            }
        });
        t.span("trace/healthz", |_| {
            ok &= matches!(http_get(addr, "/healthz"), Ok((200, _)));
        });

        let mut d = Digest::new();
        d.u64(events_after - events_before);
        d.f64(lu.seconds);
        d.u64(lu.report.events);
        d.u64(ok as u64);
        self.last = Some(Last {
            events_before,
            events_after,
            evicted_before,
            metrics_body,
            lu,
        });
        PassOut {
            digest: d.finish(),
            ops: events_after - events_before + (SCRAPES + CHUNKS + 1) as u64,
            ok,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no pass ran")?;
        let lost = self.unaccounted();
        if lost != 0 {
            return Err(format!("recorder ledger is off by {lost} events"));
        }
        let pumped = (PUMP_SPANS + PUMP_COUNTERS) as u64;
        if last.events_after - last.events_before <= pumped {
            return Err("the recorded lu2d emitted no events".into());
        }
        if !last.metrics_body.contains("hpcc_recorder_events_total") {
            return Err("/metrics does not report hpcc_recorder_events_total".into());
        }
        // Recording must not perturb the simulation it observes.
        let plain = api::lu2d(&self.machine, LU_N, LU_NB);
        if plain.seconds != last.lu.seconds || plain.report != last.lu.report {
            return Err("recorded lu2d differs from the unrecorded run".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some(last) = self.last.as_ref() else {
            return;
        };
        m.set(
            "trace.stream.ns_per_event",
            times.s("trace/pump") * 1e9 / (PUMP_SPANS + PUMP_COUNTERS) as f64,
        );
        m.set(
            "trace.stream.events",
            (last.events_after - last.events_before) as f64,
        );
        m.set(
            "trace.stream.evicted",
            (self.rec.ring_ledger().evicted_events - last.evicted_before) as f64,
        );
        m.set("trace.stream.unaccounted", self.unaccounted() as f64);
        m.set(
            "trace.http.scrape_s",
            times.s("trace/scrape") / SCRAPES as f64,
        );
        m.set("trace.http.chunk_s", times.s("trace/chunk") / CHUNKS as f64);
        m.set(
            "trace.http.bytes_per_scrape",
            last.metrics_body.len() as f64,
        );
        let unrecorded = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(api::lu2d(&self.machine, LU_N, LU_NB));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        m.set(
            "trace.lu2d_overhead",
            times.min_s("trace/lu2d") / unrecorded.max(1e-9),
        );
    }

    fn sizes(&self) -> String {
        format!(
            "pump {PUMP_SPANS} spans + {PUMP_COUNTERS} counters on {TRACKS} tracks; recorded lu2d delta({},{}) n={LU_N} nb={LU_NB}; {SCRAPES}x /metrics, {CHUNKS}x /trace max {CHUNK_MAX}, 1x /healthz",
            LU_MESH.0, LU_MESH.1
        )
    }
}
