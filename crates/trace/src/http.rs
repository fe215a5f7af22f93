//! `TelemetryServer` — the HTTP front door for a live [`StreamRecorder`].
//!
//! A tiny, dependency-free HTTP/1.1 server on `std::net::TcpListener`
//! serving three read-only endpoints against a running simulation:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4):
//!   p50/p90/p99 span summaries per (process, category), counter gauges,
//!   instant counts, and the recorder's own accounting (events seen,
//!   ring eviction drops, sequence window).
//! * `GET /trace?since=<seq>[&max=<n>]` — incremental Chrome
//!   `trace_event` JSON chunks from the recorder's event ring. Each
//!   response is independently Perfetto-loadable and carries a `next`
//!   cursor; poll with `since=next` to tail the trace live. Readers that
//!   fall behind the ring window get a `lagged` count, never silent gaps.
//! * `GET /healthz` — liveness probe (`200 ok`).
//!
//! The accept thread hands each `Connection: close` connection to a
//! reused worker, a free one or else a new one: sequential scrapes keep
//! one worker, and none waits behind another's idle peer. Workers only
//! read: a scrape loads atomic cells and clones `Arc`s of frozen ring
//! chunks, so concurrent readers leave the simulation thread's fast path
//! untouched. At most `MAX_CONNECTIONS` connections, and so workers, are
//! in flight; the accept thread answers `503` past that. Stopping closes
//! the queued connections, shuts down the ones being served and joins
//! every thread, so nothing holds the recorder afterwards.
//!
//! Parsing is apart from socket I/O: `route` maps the bytes of a request
//! head to an endpoint or a refusal, so hostile heads are fuzzed without a
//! socket. [`get`] is the matching minimal client.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stream::StreamRecorder;

/// Handle for a running telemetry endpoint. Dropping the handle stops
/// the server just as [`TelemetryServer::stop`] does.
pub struct TelemetryServer {
    addr: SocketAddr,
    pool: Arc<Pool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `rec`. Returns once the listener is live, so a scrape
    /// issued right after `start` cannot race the bind.
    pub fn start(rec: Arc<StreamRecorder>, addr: &str) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(Pool::default());
        let pool2 = Arc::clone(&pool);
        let accept = std::thread::Builder::new()
            .name("hpcc-telemetry".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if pool2.jobs.lock().expect("pool").stop {
                        break;
                    }
                    let Ok(sock) = conn else { continue };
                    if let Err(sock) = pool2.hand_off(sock, &rec) {
                        refuse(sock);
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr: local,
            pool,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: close the queued connections, shut down the ones
    /// being served (an idle peer is not waited out), and join the accept
    /// thread and every worker. Once this returns no thread of the server
    /// holds the recorder.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let mut jobs = self.pool.jobs.lock().expect("pool");
        jobs.stop = true;
        jobs.queue.clear();
        for sock in jobs.serving.iter().flatten() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        drop(jobs);
        self.pool.ready.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No worker is spawned once `stop` is set, so the list is whole.
        let workers = std::mem::take(&mut self.pool.jobs.lock().expect("pool").workers);
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

/// Connections in flight (queued or being served) at once, at most. A
/// worker serves one for as long as its peer keeps it waiting (up to the
/// socket timeouts), so without the cap idle peers could pile up workers.
const MAX_CONNECTIONS: usize = 64;

/// The accepted connections no worker has taken yet, and the workers.
#[derive(Default)]
struct Pool {
    jobs: Mutex<Jobs>,
    /// Signalled once per queued connection, and for every worker at stop.
    ready: Condvar,
}

#[derive(Default)]
struct Jobs {
    queue: VecDeque<TcpStream>,
    /// Workers serving a connection; with the queue, the slots taken.
    busy: usize,
    /// Workers waiting, or spawned and not yet waiting: never fewer than
    /// the queued connections.
    free: usize,
    stop: bool,
    /// Per worker, by spawn order: a handle on the socket it is serving,
    /// for `stop` to shut down.
    serving: Vec<Option<TcpStream>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Queue `sock` for a free worker, or for a new one when every worker
    /// is serving, so a connection never waits behind another's peer.
    /// Past the cap or once stopped, `sock` comes back to be refused.
    fn hand_off(
        self: &Arc<Pool>,
        sock: TcpStream,
        rec: &Arc<StreamRecorder>,
    ) -> Result<(), TcpStream> {
        let mut jobs = self.jobs.lock().expect("pool");
        if jobs.stop || jobs.queue.len() + jobs.busy >= MAX_CONNECTIONS {
            return Err(sock);
        }
        jobs.queue.push_back(sock);
        if jobs.free >= jobs.queue.len() {
            self.ready.notify_one();
            return Ok(());
        }
        let (pool, rec, id) = (Arc::clone(self), Arc::clone(rec), jobs.workers.len());
        let worker = std::thread::Builder::new()
            .name("hpcc-telemetry-conn".into())
            .spawn(move || pool.work(id, &rec));
        match worker {
            Ok(worker) => {
                jobs.free += 1;
                jobs.workers.push(worker);
                jobs.serving.push(None);
            }
            Err(_) => drop(jobs.queue.pop_back()),
        }
        Ok(())
    }

    /// Worker `id`: serve queued connections one at a time until the
    /// server stops.
    fn work(&self, id: usize, rec: &StreamRecorder) {
        let mut jobs = self.jobs.lock().expect("pool");
        loop {
            let waiting = |jobs: &mut Jobs| jobs.queue.is_empty() && !jobs.stop;
            jobs = self.ready.wait_while(jobs, waiting).expect("pool");
            let Some(mut sock) = jobs.queue.pop_front() else {
                return;
            };
            (jobs.free, jobs.busy) = (jobs.free - 1, jobs.busy + 1);
            jobs.serving[id] = sock.try_clone().ok();
            drop(jobs);
            let _ = catch_unwind(AssertUnwindSafe(|| handle(&mut sock, rec)));
            // Free again and the slot given back, also after a panic,
            // before the socket closes: a client that has seen its
            // connection end finds both, so sequential ones keep one worker.
            jobs = self.jobs.lock().expect("pool");
            (jobs.free, jobs.busy) = (jobs.free + 1, jobs.busy - 1);
            jobs.serving[id] = None;
            drop(sock);
        }
    }
}

/// Longest request head read; a head that reaches it unterminated is
/// answered `431`.
const MAX_HEAD: usize = 16 * 1024;

/// What a well-formed request asks for.
#[derive(Debug, PartialEq)]
enum Route {
    Healthz,
    Metrics,
    Trace { since: u64, max: usize },
}

fn terminated(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n")
}

/// The endpoint the request head `head` (the bytes read so far) names, or
/// the status and body that refuse it. Only a `GET` is ever routed.
fn route(head: &[u8]) -> Result<Route, (u16, &'static str)> {
    if head.len() > MAX_HEAD && !terminated(head) {
        return Err((431, "request head too large\n"));
    }
    let head = String::from_utf8_lossy(head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err((400, "bad request\n"));
    };
    if method != "GET" {
        return Err((405, "method not allowed\n"));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/healthz" => Ok(Route::Healthz),
        "/metrics" => Ok(Route::Metrics),
        "/trace" => {
            let (mut since, mut max) = (0, 100_000);
            for kv in query.split('&') {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                match k {
                    "since" => since = v.parse().map_err(|_| (400, "bad since\n"))?,
                    "max" => max = v.parse().map_err(|_| (400, "bad max\n"))?,
                    _ => {}
                }
            }
            Ok(Route::Trace { since, max })
        }
        _ => Err((404, "not found\n")),
    }
}

/// Answer `503` from the accept thread and close. Closing on unread data
/// resets the connection and the peer may never see the status, so what
/// a client that sends its request in one write has sent is read first;
/// an idle peer is waited for only briefly, this being the accept thread.
fn refuse(mut sock: TcpStream) {
    let brief = Some(Duration::from_millis(10));
    let _ = sock.set_read_timeout(brief);
    let _ = sock.set_write_timeout(brief);
    let _ = sock.read(&mut [0u8; 512]);
    let _ = respond(&mut sock, 503, "text/plain", "too many connections\n");
}

fn handle(sock: &mut TcpStream, rec: &StreamRecorder) -> std::io::Result<()> {
    sock.set_write_timeout(Some(Duration::from_secs(5)))?;
    // The whole head has one deadline: a peer trickling a byte at a time
    // gives up its slot as soon as an idle one does.
    let buf = match read_head(sock, Instant::now() + Duration::from_secs(5)) {
        Ok(buf) => buf,
        Err(e) if timed_out(&e) => return respond(sock, 408, "text/plain", "request timeout\n"),
        Err(e) => return Err(e),
    };
    match route(&buf) {
        Ok(Route::Healthz) => respond(sock, 200, "text/plain", "ok\n"),
        Ok(Route::Metrics) => respond(
            sock,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &rec.prometheus_text(),
        ),
        Ok(Route::Trace { since, max }) => {
            let (body, _next) = rec.trace_chunk(since, max);
            respond(sock, 200, "application/json", &body)
        }
        Err((status, body)) => respond(sock, status, "text/plain", body),
    }
}

/// Read until the end of the request head, the peer's end of stream, or
/// past [`MAX_HEAD`] bytes; every read waits only for the time left
/// before `deadline`. Bodies are ignored: every endpoint is a GET.
fn read_head(sock: &mut TcpStream, deadline: Instant) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !terminated(&buf) && buf.len() <= MAX_HEAD {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        sock.set_read_timeout(Some(left))?;
        let n = sock.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(buf)
}

/// A read that ran out of time: Unix reports a socket timeout as
/// `WouldBlock`, Windows as `TimedOut`.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn respond(sock: &mut TcpStream, status: u16, ctype: &str, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes())?;
    sock.write_all(body.as_bytes())?;
    sock.flush()
}

/// Blocking `GET` against a telemetry server — the minimal client the
/// tests and the `report telemetry` scrapers share. Returns (status, body);
/// a response without a parseable status line reads as status 0.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))?;
    // One write: a server refusing the connection reads it in one piece.
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: hpcc\r\nConnection: close\r\n\r\n").as_bytes(),
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
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn server_with_data() -> (TelemetryServer, Arc<StreamRecorder>) {
        let rec = Arc::new(StreamRecorder::new());
        let t = rec.track("mesh nodes", "node 0");
        rec.span(t, "compute", "dgemm", 0, 1500);
        rec.counter(t, "queue_depth", 10, 3.0);
        rec.instant(t, "fault", "crash", 20);
        rec.flush_ring();
        let srv = TelemetryServer::start(Arc::clone(&rec), "127.0.0.1:0").expect("bind");
        (srv, rec)
    }

    #[test]
    fn healthz_metrics_and_trace_round_trip() {
        let (srv, _rec) = server_with_data();
        let addr = srv.addr();

        let (code, body) = get(addr, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("hpcc_span_latency_seconds_count"));
        assert!(body.contains("hpcc_recorder_events_total 3"));

        let (code, body) = get(addr, "/trace?since=0").unwrap();
        assert_eq!(code, 200);
        let doc = crate::json::parse(&body).expect("trace chunk is valid JSON");
        let next = doc
            .get("next")
            .and_then(crate::json::Value::as_f64)
            .unwrap() as u64;
        assert_eq!(next, 3);

        // Tail from the cursor: empty chunk, same cursor.
        let (code, body) = get(addr, &format!("/trace?since={next}")).unwrap();
        assert_eq!(code, 200);
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("next")
                .and_then(crate::json::Value::as_f64)
                .unwrap() as u64,
            next
        );

        let (code, _) = get(addr, "/nope").unwrap();
        assert_eq!(code, 404);
        let (code, _) = get(addr, "/trace?since=xyz").unwrap();
        assert_eq!(code, 400);

        srv.stop();
    }

    #[test]
    fn route_maps_heads_to_endpoints_and_refusals() {
        assert_eq!(route(b"GET /healthz HTTP/1.1\r\n\r\n"), Ok(Route::Healthz));
        assert_eq!(
            route(b"GET /metrics?x=1 HTTP/1.1\r\n\r\n"),
            Ok(Route::Metrics)
        );
        assert_eq!(
            route(b"GET /trace HTTP/1.1\r\n\r\n"),
            Ok(Route::Trace {
                since: 0,
                max: 100_000
            })
        );
        assert_eq!(
            route(b"GET /trace?&max=7&since=42&other HTTP/1.1\r\n\r\n"),
            Ok(Route::Trace { since: 42, max: 7 })
        );
        let status = |head: &[u8]| route(head).map_err(|(status, _)| status);
        assert_eq!(status(b""), Err(400));
        assert_eq!(status(b"GET\r\n\r\n"), Err(400));
        assert_eq!(status(b"POST /metrics HTTP/1.1\r\n\r\n"), Err(405));
        assert_eq!(status(b"GET /nope HTTP/1.1\r\n\r\n"), Err(404));
        assert_eq!(status(b"GET /trace?since=-1 HTTP/1.1\r\n\r\n"), Err(400));
        // One past u64::MAX.
        assert_eq!(
            status(b"GET /trace?since=18446744073709551616 HTTP/1.1\r\n\r\n"),
            Err(400)
        );
        assert_eq!(
            status(b"GET /trace?max=99999999999999999999999 HTTP/1.1\r\n\r\n"),
            Err(400)
        );
        // A head cut off at the cap is refused, not parsed as if complete;
        // one that ends within it is served.
        let mut long = b"GET /healthz?".to_vec();
        long.resize(MAX_HEAD + 1, b'&');
        assert_eq!(status(&long), Err(431));
        long.truncate(MAX_HEAD - 3);
        long.extend_from_slice(b" \r\n\r\n");
        assert_eq!(route(&long), Ok(Route::Healthz));
    }

    /// Seeded fuzz of the request parser, no sockets: hostile heads never
    /// panic it, and nothing but a `GET` is ever routed.
    #[test]
    fn fuzzed_heads_never_panic_and_only_get_is_routed() {
        const METHODS: &[&[u8]] = &[b"GET", b"GET", b"POST", b"get", b"GETGET", b"", b"\xff"];
        const SEPS: &[&[u8]] = &[b" ", b" ", b"\t", b"", b"\r\n", b"\0"];
        const PATHS: &[&[u8]] = &[b"/healthz", b"/metrics", b"/trace", b"/trace", b"/", b""];
        const QUERY: &[&[u8]] = &[
            b"?",
            b"&",
            b"=",
            b"since=",
            b"max=",
            b"7",
            b"-1",
            b"18446744073709551615",
            b"18446744073709551616",
            b"\xc3",
            b"\xff\xfe",
            b" ",
        ];
        const TAILS: &[&[u8]] = &[b" HTTP/1.1\r\n\r\n", b"\r\n\r\n", b"\r\n", b"\n", b""];
        let mut rng = des::rng::Rng::new(1992);
        let mut routed = 0;
        for case in 0..10_000 {
            let mut head = Vec::new();
            match case % 8 {
                0 => {} // empty
                1 => head.resize(MAX_HEAD + 1, *rng.choose(b"?&=")),
                shape => {
                    head.extend_from_slice(rng.choose::<&[u8]>(METHODS));
                    head.extend_from_slice(rng.choose::<&[u8]>(SEPS));
                    head.extend_from_slice(rng.choose::<&[u8]>(PATHS));
                    if rng.chance(0.75) {
                        head.push(b'?');
                    }
                    for _ in 0..rng.below(8) {
                        head.extend_from_slice(rng.choose::<&[u8]>(QUERY));
                    }
                    if shape == 2 {
                        // Padded to either side of the cap.
                        let len = rng.range_u64(MAX_HEAD as u64 - 8, MAX_HEAD as u64 + 8);
                        head.resize(len as usize, *rng.choose(b"?&=a"));
                    }
                    head.extend_from_slice(rng.choose::<&[u8]>(TAILS));
                }
            }
            if route(&head).is_ok() {
                routed += 1;
                let text = String::from_utf8_lossy(&head);
                assert_eq!(
                    text.split_whitespace().next(),
                    Some("GET"),
                    "routed a non-GET: {text:?}"
                );
            }
        }
        assert!(routed > 500, "only {routed} heads reached an endpoint");
    }

    /// The cap over a socket: exactly one byte past it and no terminator,
    /// so the server has read all that was sent before it answers.
    #[test]
    fn oversized_head_is_answered_431() {
        let (srv, _rec) = server_with_data();
        let mut sock = TcpStream::connect(srv.addr()).unwrap();
        sock.write_all(&vec![b'a'; MAX_HEAD + 1]).unwrap();
        let mut raw = String::new();
        sock.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
        srv.stop();
    }

    /// The cap over sockets: connections are accepted in order, so the one
    /// after `MAX_CONNECTIONS` idle ones is the one refused.
    #[test]
    fn connections_past_the_cap_are_answered_503() {
        let (srv, _rec) = server_with_data();
        let addr = srv.addr();
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let mut raw = String::new();
        let mut over = TcpStream::connect(addr).unwrap();
        over.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");

        // One held connection is served to its end, which frees its slot...
        let mut held = idle.pop().unwrap();
        held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        raw.clear();
        held.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        let (code, body) = get(addr, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        // ...which the next connection takes, and the one after is refused.
        idle.push(TcpStream::connect(addr).unwrap());
        raw.clear();
        let mut over = TcpStream::connect(addr).unwrap();
        over.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
        drop(idle);
        srv.stop();
    }

    /// A peer that connects and sends nothing keeps its worker for up to
    /// the 5 s head deadline; the connection after it is served at once,
    /// by a worker of its own.
    #[test]
    fn an_idle_peer_does_not_hold_up_the_next_connection() {
        let (srv, _rec) = server_with_data();
        let idle = TcpStream::connect(srv.addr()).unwrap();
        let start = Instant::now();
        let (code, body) = get(srv.addr(), "/healthz").unwrap();
        let took = start.elapsed();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        assert!(
            took < Duration::from_secs(1),
            "{took:?} behind an idle peer"
        );
        drop(idle);
        srv.stop();
    }

    /// `stop` with a silent peer being served: its socket is shut down,
    /// not waited out, and every worker is joined before `stop` returns.
    #[test]
    fn stop_waits_for_the_workers_and_not_for_idle_peers() {
        let (srv, rec) = server_with_data();
        let idle = TcpStream::connect(srv.addr()).unwrap();
        // Connections are accepted in order: once this one is answered,
        // the silent one has been handed to a worker.
        let (code, _) = get(srv.addr(), "/healthz").unwrap();
        assert_eq!(code, 200);
        let start = Instant::now();
        srv.stop();
        let took = start.elapsed();
        assert_eq!(
            Arc::strong_count(&rec),
            1,
            "a server thread still holds the recorder"
        );
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
        drop(idle);
    }

    #[test]
    fn many_concurrent_readers_against_live_writes() {
        let (srv, rec) = server_with_data();
        let addr = srv.addr();
        let writer_done = Arc::new(AtomicBool::new(false));
        let t = rec.track("mesh nodes", "node 1");

        std::thread::scope(|scope| {
            let done = Arc::clone(&writer_done);
            let rec2 = Arc::clone(&rec);
            scope.spawn(move || {
                for i in 0u64..20_000 {
                    rec2.span(t, "compute", "k", i, i + 3);
                }
                rec2.flush_ring();
                done.store(true, Ordering::SeqCst);
            });
            for _ in 0..4 {
                let done = Arc::clone(&writer_done);
                scope.spawn(move || {
                    let mut cursor = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        let (code, body) = get(addr, "/metrics").expect("scrape");
                        assert_eq!(code, 200);
                        assert!(body.contains("hpcc_recorder_events_total"));
                        let (code, body) =
                            get(addr, &format!("/trace?since={cursor}&max=4096")).expect("tail");
                        assert_eq!(code, 200);
                        let doc = crate::json::parse(&body).expect("valid chunk");
                        cursor = doc
                            .get("next")
                            .and_then(crate::json::Value::as_f64)
                            .unwrap() as u64;
                    }
                });
            }
        });
        // After the dust settles the ledger must balance exactly.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.events_total, 3 + 20_000);
        assert_eq!(
            snap.events_total,
            snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events
        );
        srv.stop();
    }

    #[test]
    fn trickled_head_times_out_at_one_deadline() {
        // A byte every 50 ms never trips a per-read timeout of 300 ms;
        // the head's one deadline ends the read all the same.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) && client.write_all(b"G").is_ok() {
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        let start = Instant::now();
        let err = read_head(&mut server, start + Duration::from_millis(300)).unwrap_err();
        let took = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickler.join().unwrap();
        assert!(timed_out(&err), "{err:?}");
        assert!(took >= Duration::from_millis(300), "{took:?}");
        assert!(took < Duration::from_secs(3), "{took:?}");

        // A whole head within the deadline reads as before.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let head = read_head(&mut server, Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(route(&head), Ok(Route::Healthz));
    }
}
