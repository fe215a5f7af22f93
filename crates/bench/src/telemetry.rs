//! Exhibit OBS-2, the live-telemetry scale table: the streaming
//! recorder and its HTTP front door under load. `report telemetry`
//! prints it and the verdict of each gate below, and fails when one
//! fails. The recorder at steady state beside live readers, sized for
//! repeated passes, is the `telemetry_live` workload of `benchmark/`.
//!
//! * the synthetic pump sustains the target recorder events/sec with
//!   four concurrent `/metrics` + `/trace` scrapers attached,
//! * every scenario's accounting ledger balances exactly — an event is
//!   aggregated once and is in the ring once (retained, active, or
//!   counted as evicted); nothing is silently dropped,
//! * recorded engine runs are bit-identical to their NullRecorder
//!   twins (the pure-observer contract, checked on the full `Debug`
//!   rendering of results and reports),
//! * recording overhead vs the NullRecorder baseline stays within 10%
//!   for the metrics regime (counters + coarse lifecycle spans: the
//!   scheduler, the WAN solver, the sharded lane diagnostics). The
//!   trace regime — LU-2D emitting a span per message on a simulator
//!   whose events cost ~200ns — pays per event by design and is
//!   reported and bounded (≤2.5x) rather than held to the 10% budget.
//!
//! Scenarios: a synthetic span pump (throughput headline), faulted
//! LU-2D on the mesh, the multi-tenant scheduler service under MTBF
//! crashes, a WAN transfer through a link outage, and the sharded DES
//! runtime exporting its lane diagnostics as first-class
//! [`hpcc_trace::names::DES_LANES`] counters.

use crate::exhibits::{crash_burst, faulted_lu2d, staging_outage, staging_path};
use crate::{best_of, gated, timed, Gate};
use delta_mesh::{presets, FaultPlan, Kernel, Machine, Node};
use des::time::SimTime;
use hpcc_core::{fnum, Table};
use hpcc_trace::{http, names, NullRecorder, Recorder, StreamRecorder, TelemetryServer};
use nren_netsim::{topologies, FlowSim};
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured scenario.
pub struct TelemetryRow {
    pub scenario: &'static str,
    /// Recorder events the scenario emitted.
    pub events: u64,
    /// Wall time of the recorded run, milliseconds.
    pub wall_ms: f64,
    /// Recorder events per wall second — the pump's figure of merit.
    pub events_per_sec: f64,
    /// Concurrent HTTP scrapers attached during the recorded run.
    pub scrapers: usize,
    /// Scrape round-trips completed across all scrapers.
    pub scrapes: u64,
    pub scrape_p50_ms: f64,
    pub scrape_p99_ms: f64,
    /// Ring-tail events evicted past the retention window (counted
    /// drops — the only place the recorder is allowed to lose data).
    pub ring_evicted: u64,
    /// Ledger imbalance: events that are neither aggregated nor
    /// accounted for in the ring. Must be zero.
    pub unaccounted: u64,
    /// Recorded-vs-NullRecorder wall overhead, percent (engine
    /// scenarios; 0 for the pump, which has no unrecorded twin).
    pub overhead_pct: f64,
    /// Recorded run produced bit-identical results to the unrecorded
    /// one (`true` for the pump, which simulates nothing).
    pub identical: bool,
}

/// Run `work` with `nscrapers` HTTP readers polling `/metrics` and
/// tailing `/trace` against `rec` the whole time. Returns the work's
/// value plus (scrapes, p50 ms, p99 ms) of the scrape round-trips, by
/// `Histogram`'s ceil-rank rule.
fn with_scrapers<R>(
    rec: &Arc<StreamRecorder>,
    nscrapers: usize,
    work: impl FnOnce() -> R,
) -> (R, u64, f64, f64) {
    let srv = TelemetryServer::start(Arc::clone(rec), "127.0.0.1:0").expect("bind telemetry");
    let addr = srv.addr();
    let done = AtomicBool::new(false);
    let scrape_until_done = || {
        let (mut cursor, mut lat_ms) = (0u64, Vec::new());
        loop {
            let t = Instant::now();
            let (code, body) = http::get(addr, "/metrics").expect("scrape /metrics");
            assert_eq!(code, 200, "scrape failed");
            assert!(body.contains("hpcc_recorder_events_total"));
            let (code, chunk) =
                http::get(addr, &format!("/trace?since={cursor}&max=2048")).expect("tail /trace");
            assert_eq!(code, 200, "tail failed");
            let doc = hpcc_trace::json::parse(&chunk).expect("chunk is valid JSON");
            cursor = doc
                .get("next")
                .and_then(hpcc_trace::json::Value::as_f64)
                .expect("chunk cursor") as u64;
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if done.load(Ordering::SeqCst) {
                return lat_ms;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let (out, mut lat_ms) = std::thread::scope(|scope| {
        let scrapers: Vec<_> = (0..nscrapers)
            .map(|_| scope.spawn(scrape_until_done))
            .collect();
        let out = work();
        done.store(true, Ordering::SeqCst);
        let lat_ms: Vec<f64> = scrapers
            .into_iter()
            .flat_map(|h| h.join().expect("scraper"))
            .collect();
        (out, lat_ms)
    });
    srv.stop();
    lat_ms.sort_by(f64::total_cmp);
    let q = |p: f64| lat_ms[((p * lat_ms.len() as f64).ceil() as usize).max(1) - 1];
    (out, lat_ms.len() as u64, q(0.5), q(0.99))
}

/// Ledger residue of a snapshot: events neither aggregated nor in the
/// ring's retained/active/evicted accounting. Zero when nothing leaked.
fn unaccounted(snap: &hpcc_trace::MetricsSnapshot) -> u64 {
    let agg = snap
        .events_total
        .abs_diff(snap.spans_total + snap.counters_total + snap.instants_total);
    let ring = snap
        .events_total
        .abs_diff(snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events);
    agg + ring
}

/// The throughput headline: one simulation-thread stand-in emitting
/// `n` spans flat out while four scrapers poll. The recorder keeps a
/// realistic ring (64k-event window) so eviction — the counted drop
/// path — is actually exercised at rate.
fn pump(n: u64) -> TelemetryRow {
    let scrapers = 4;
    let rec = Arc::new(StreamRecorder::with_ring(1024, 64));
    let track = rec.track(names::MESH_NODES, "node 0");
    let (wall, scrapes, p50, p99) = with_scrapers(&rec, scrapers, || {
        let t = Instant::now();
        for i in 0..n {
            rec.span(track, "compute", "pump", i, i + 1 + (i & 0x3ff));
        }
        t.elapsed().as_secs_f64()
    });
    rec.flush_ring();
    let snap = rec.metrics_snapshot();
    assert_eq!(snap.events_total, n, "pump lost events");
    TelemetryRow {
        scenario: "pump",
        events: n,
        wall_ms: wall * 1e3,
        events_per_sec: n as f64 / wall,
        scrapers,
        scrapes,
        scrape_p50_ms: p50,
        scrape_p99_ms: p99,
        ring_evicted: snap.ring.evicted_events,
        unaccounted: unaccounted(&snap),
        overhead_pct: 0.0,
        identical: true,
    }
}

/// Reps per side of an engine scenario's overhead figure.
const OVERHEAD_REPS: usize = 5;

/// Measure one engine scenario: `run(recorder)` must be a deterministic
/// simulation returning a `Debug`-comparable outcome. Times the
/// NullRecorder baseline and the recorded run (no scrapers, for a fair
/// overhead figure), fastest of [`OVERHEAD_REPS`] each, then repeats the
/// recorded run under `scrapers` concurrent readers for the scrape
/// stats and the identity assertion.
fn engine_scenario(name: &'static str, run: impl Fn(Rc<dyn Recorder>) -> String) -> TelemetryRow {
    // Every run, recorded or not, must reproduce the first one's outcome.
    let base = OnceCell::new();
    let timed_run = |recorder: fn() -> Rc<dyn Recorder>| {
        let (t, out) = timed(|| run(recorder()));
        if let Err(out) = base.set(out) {
            assert_eq!(
                base.get(),
                Some(&out),
                "{name}: recording perturbed the simulation"
            );
        }
        t
    };
    let mut null = || timed_run(|| Rc::new(NullRecorder));
    let mut recorded = || timed_run(|| Rc::new(Arc::new(StreamRecorder::new())));
    let [t_null, t_rec] = best_of(OVERHEAD_REPS, [&mut null, &mut recorded]);
    let base = base.into_inner().expect("at least one rep");

    let scrapers = 2;
    let rec = Arc::new(StreamRecorder::new());
    let ((scraped, wall), scrapes, p50, p99) = with_scrapers(&rec, scrapers, || {
        let t = Instant::now();
        let out = run(Rc::new(Arc::clone(&rec)) as Rc<dyn Recorder>);
        (out, t.elapsed().as_secs_f64())
    });
    rec.flush_ring();
    let identical = scraped == base;
    let snap = rec.metrics_snapshot();
    TelemetryRow {
        scenario: name,
        events: snap.events_total,
        wall_ms: wall * 1e3,
        events_per_sec: snap.events_total as f64 / wall,
        scrapers,
        scrapes,
        scrape_p50_ms: p50,
        scrape_p99_ms: p99,
        ring_evicted: snap.ring.evicted_events,
        unaccounted: unaccounted(&snap),
        overhead_pct: (t_rec - t_null) / t_null * 100.0,
        identical,
    }
}

/// OBS-1's faulted LU-2D of order `n`, panel width `nb`, on a
/// `mesh.0`×`mesh.1` Delta through the streaming recorder.
fn lu2d_scenario(mesh: (usize, usize), n: usize, nb: usize) -> TelemetryRow {
    engine_scenario("lu2d-faulted", move |rec| {
        format!("{:?}", faulted_lu2d(mesh, n, nb, rec))
    })
}

/// OBS-1's scheduler crash burst at fault seed 1992. Sized so the
/// placement-search work per job dwarfs the handful of counters and
/// lifecycle spans each job records — one-time track interning
/// amortizes away above ~100 jobs.
fn sched_scenario(njobs: usize) -> TelemetryRow {
    engine_scenario("sched-faulted", move |rec| {
        format!("{:?}", crash_burst(njobs, 1992, &*rec))
    })
}

/// WAN background traffic through a first-hop outage: a Poisson flow
/// mix large enough that the max-min solver's resolve work dominates
/// the per-flow lifecycle spans and rate counters it records.
fn wan_scenario(horizon_s: f64) -> TelemetryRow {
    engine_scenario("wan-faulted", move |rec| {
        let net = topologies::delta_consortium();
        let sim = FlowSim::new(&net);
        let mut rng = des::rng::Rng::new(0x1992);
        let specs = nren_netsim::workload::poisson_traffic(&net, &mut rng, 12.0, 80.0e6, horizon_s);
        let (_, _, first_link) = staging_path(&net);
        let fault = staging_outage(first_link, SimTime::from_secs_f64(30.0));
        format!(
            "{:?}",
            sim.run_with_faults_recorded(specs, &[fault], &*rec)
                .unwrap()
        )
    })
}

/// The sharded conservative-parallel DES runtime: a halo + long-range
/// workload across 4 event lanes, with the lane diagnostics (windows,
/// per-lane events, mailbox traffic) exported as `DES_LANES` counters.
fn sharded_scenario(rows: usize, cols: usize, steps: usize) -> TelemetryRow {
    engine_scenario("sharded-mesh", move |rec| {
        let m = Machine::new(presets::delta(rows, cols));
        let (results, report, stats) =
            m.run_sharded_stats(4, &FaultPlan::none(), move |node: Node| async move {
                let me = node.rank();
                let right = (me + 1) % (rows * cols);
                let left = (me + rows * cols - 1) % (rows * cols);
                let mut acc = 0.0;
                for s in 0..steps {
                    node.compute(Kernel::Stencil, 2.0e4).await;
                    node.send_f64s(right, s as u64, &[me as f64]).await;
                    acc += node.recv_f64s(Some(left), Some(s as u64)).await[0];
                }
                acc
            });
        stats.emit(&*rec, report.elapsed.nanos());
        format!("{results:?} {report:?} {stats:?}")
    })
}

/// The five scenarios at full size: a 4M-span pump, and engine runs
/// long enough that their overhead figures are above timer noise.
pub fn snapshot() -> Vec<TelemetryRow> {
    vec![
        pump(4_000_000),
        lu2d_scenario((4, 4), 2_500, 32),
        sched_scenario(400),
        wan_scenario(160.0),
        sharded_scenario(32, 33, 2),
    ]
}

/// The acceptance gates, one verdict each.
fn gates(rows: &[TelemetryRow]) -> Vec<Gate> {
    let pump = rows
        .iter()
        .find(|r| r.scenario == "pump")
        .expect("pump row");
    let floor = 1.0e6;
    let unaccounted: u64 = rows.iter().map(|r| r.unaccounted).sum();
    // Overhead budget. Two regimes, gated separately:
    //
    // * metrics regime (sched, wan, sharded lanes) — counters and
    //   coarse lifecycle spans, the always-on live-service mode. The
    //   mean must stay within 10% of the NullRecorder baseline (the
    //   mean, because the shortest scenario's wall jitters by a few
    //   percent while the mean is stable).
    // * trace regime (lu2d) — a span for every message and compute
    //   interval on a simulator whose events cost ~200ns each, i.e. a
    //   deliberate pay-per-event Perfetto capture. Recording roughly
    //   doubles the wall by construction; the gate only bounds it from
    //   drifting past 2.5x.
    let metrics: Vec<&TelemetryRow> = rows
        .iter()
        .filter(|r| !matches!(r.scenario, "pump" | "lu2d-faulted"))
        .collect();
    let agg: f64 = metrics.iter().map(|r| r.overhead_pct).sum::<f64>() / metrics.len() as f64;
    let lu = rows
        .iter()
        .find(|r| r.scenario == "lu2d-faulted")
        .expect("lu2d row");
    vec![
        (
            pump.events_per_sec >= floor && pump.scrapes >= pump.scrapers as u64,
            format!(
                "pump {:.2} M events/s with {} live scrapers, {} scrapes (floor {:.2} M, a scrape each)",
                pump.events_per_sec / 1e6,
                pump.scrapers,
                pump.scrapes,
                floor / 1e6
            ),
        ),
        (
            unaccounted == 0,
            format!("every scenario balanced its ledger ({unaccounted} unaccounted events)"),
        ),
        (
            rows.iter().all(|r| r.identical),
            "recorded engine runs bit-identical to NullRecorder twins".into(),
        ),
        (
            agg <= 10.0,
            format!("metrics-regime overhead {agg:.1}% (mean of sched/wan/sharded) <= 10%"),
        ),
        (
            lu.overhead_pct <= 150.0,
            format!(
                "trace-regime (per-message spans) overhead {:.1}% <= 150%",
                lu.overhead_pct
            ),
        ),
    ]
}

/// The table `report telemetry` prints.
pub fn table(rows: &[TelemetryRow]) -> Table {
    let mut t = Table::new(
        "Exhibit OBS-2 — live telemetry service (StreamRecorder + HTTP scrape)",
        &[
            "Scenario",
            "Events",
            "ms",
            "events/s",
            "Scrapers",
            "Scrapes",
            "p50 ms",
            "p99 ms",
            "Evicted",
            "Overhead %",
            "Identical",
        ],
    );
    for r in rows {
        t.row(&[
            r.scenario.to_string(),
            r.events.to_string(),
            fnum(r.wall_ms, 1),
            fnum(r.events_per_sec, 0),
            r.scrapers.to_string(),
            r.scrapes.to_string(),
            fnum(r.scrape_p50_ms, 2),
            fnum(r.scrape_p99_ms, 2),
            r.ring_evicted.to_string(),
            fnum(r.overhead_pct, 1),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// `report telemetry`: measure, print the table and every gate's
/// verdict, fail if a gate failed.
pub fn report() -> String {
    let rows = snapshot();
    gated(table(&rows).to_string(), gates(&rows))
}

/// `report prom-sample`: one deterministic `/metrics` exposition from a
/// small recorded scenario — exactly what a live `TelemetryServer` would
/// serve. Two node tracks share the `mesh nodes` process, so its span
/// group sums both. CI lints this output for Prometheus text-format
/// essentials and pins its bytes (`scripts/prom_sample.sha256`).
pub fn prom_sample() -> String {
    let rec = StreamRecorder::new();
    let compute = rec.track(names::MESH_NODES, "node 0");
    let solver = rec.track(names::WAN_SOLVER, "engine");
    let peer = rec.track(names::MESH_NODES, "node 1");
    let mut t = 0u64;
    for i in 0u64..64 {
        let dur = 1_000 + i * i * 500;
        rec.span(compute, "compute", "dgefa panel", t, t + dur);
        rec.span(peer, "compute", "dgefa panel", t, t + dur / 3);
        rec.span(peer, "send", "panel bcast", t + dur / 3, t + dur / 2);
        t += dur + 250;
    }
    rec.counter(solver, "full_resolves", t, 17.0);
    rec.counter(solver, "dirty", t, 3.0);
    rec.instant(compute, "fault", "node crash", t);
    rec.prometheus_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::panic_text;

    /// Rows that pass every gate but the trace regime's (160%): the
    /// failure carries the whole table and every other gate's line.
    #[test]
    fn a_failed_gate_still_prints_the_table_and_every_gate() {
        let row = |scenario, events_per_sec, overhead_pct| TelemetryRow {
            scenario,
            events: 1_000,
            wall_ms: 1.0,
            events_per_sec,
            scrapers: 2,
            scrapes: 40,
            scrape_p50_ms: 0.5,
            scrape_p99_ms: 2.0,
            ring_evicted: 0,
            unaccounted: 0,
            overhead_pct,
            identical: true,
        };
        let rows = vec![
            row("pump", 9.0e6, 0.0),
            row("lu2d-faulted", 1e6, 160.0),
            row("sched-faulted", 1e5, 4.0),
            row("wan-faulted", 1e5, 6.0),
            row("sharded-mesh", 1e5, 5.0),
        ];
        let text = panic_text(|| gated(table(&rows).to_string(), gates(&rows)));
        assert!(text.starts_with(&table(&rows).to_string()), "{text}");
        assert!(text.contains("Exhibit OBS-2"));
        for line in [
            "gate pump 9.00 M events/s with 2 live scrapers, 40 scrapes (floor 1.00 M, a scrape each): ok",
            "gate every scenario balanced its ledger (0 unaccounted events): ok",
            "gate recorded engine runs bit-identical to NullRecorder twins: ok",
            "gate metrics-regime overhead 5.0% (mean of sched/wan/sharded) <= 10%: ok",
            "gate trace-regime (per-message spans) overhead 160.0% <= 150%: FAILED",
        ] {
            assert!(text.contains(&format!("\n{line}\n")), "no `{line}` in:\n{text}");
        }
        assert_eq!(text.matches("\ngate ").count(), 5);
    }

    /// The scrape harness measures and the ledger check catches nothing
    /// on a quiet recorder.
    #[test]
    fn scrape_harness_round_trips() {
        let rec = Arc::new(StreamRecorder::new());
        let t = rec.track("p", "t");
        rec.span(t, "c", "x", 0, 10);
        let ((), scrapes, p50, p99) = with_scrapers(&rec, 2, || {
            std::thread::sleep(Duration::from_millis(20));
        });
        assert!(scrapes >= 2);
        assert!(p50 > 0.0 && p99 >= p50);
        let snap = rec.metrics_snapshot();
        assert_eq!(unaccounted(&snap), 0);
    }

    /// A Delta-sized sharded scenario exports the DES_LANES counters and
    /// stays deterministic.
    #[test]
    fn sharded_scenario_exports_lane_counters() {
        let row = sharded_scenario(16, 33, 2);
        assert!(row.identical);
        assert_eq!(row.unaccounted, 0);
        // engine track counters + one per lane.
        assert!(row.events >= 5 + 4);
    }

    /// Every scenario builder at a size that runs in milliseconds: the
    /// correctness half of the gates (ledger, identity) holds and the
    /// table carries one line per scenario.
    #[test]
    fn small_scenarios_balance_and_stay_identical() {
        let rows = vec![
            pump(20_000),
            lu2d_scenario((2, 2), 256, 32),
            sched_scenario(40),
            wan_scenario(10.0),
        ];
        for r in &rows {
            assert_eq!(r.unaccounted, 0, "{}", r.scenario);
            assert!(r.identical, "{}", r.scenario);
            assert!(
                r.events > 0 && r.scrapes >= r.scrapers as u64,
                "{}",
                r.scenario
            );
        }
        assert_eq!(rows[0].events, 20_000);
        assert_eq!(table(&rows).n_rows(), 4);
    }
}
