//! Regenerate the paper's exhibits: `report <cmd>` or `report all`.
//!
//! Commands mirror `hpcc_core::exhibits` registry entries:
//! goals, responsibilities, funding, components, delta-peak,
//! delta-linpack, linpack-sweep, mpp-series, consortium-net,
//! nren-upgrade, casa, cas, grand-challenges, fft-scaling,
//! resilience (accepts `--smoke` for a fast sweep),
//! trace (accepts `--smoke`; writes TRACE_chrome.json +
//! TRACE_summary.txt), telemetry (accepts `--smoke`; writes
//! BENCH_telemetry.json), prom-sample (prints one `/metrics`
//! exposition for lint checks), index.
//!
//! `report all --out <path>` writes the concatenated exhibits to a file
//! instead of stdout (used to regenerate `report_all.txt`).

use hpcc_bench::{desperf, exhibits as ex, netperf, perf, schedperf, telemetry};

/// Measure the host kernels, enforce the perf gates (lu_factor_par is
/// never slower than lu_factor; the v2 SIMD kernels hold their speedups
/// — see `perf::gates`), print the table, and drop the machine-readable
/// snapshot next to the working directory. `--smoke` shrinks every size
/// for CI.
fn bench_kernels(smoke: bool) -> String {
    let rows = perf::snapshot(smoke);
    let gates = perf::gates(&rows);
    let json = perf::json(&rows);
    let path = "BENCH_kernels.json";
    match std::fs::write(path, &json) {
        Ok(()) => format!("{}\n{gates}\nwrote {path}", perf::table(&rows)),
        Err(e) => format!(
            "{}\n{gates}\ncould not write {path}: {e}",
            perf::table(&rows)
        ),
    }
}

/// Measure DES engine throughput across mesh sizes and lane counts,
/// print the table, and drop the machine-readable snapshot.
fn bench_des(smoke: bool) -> String {
    let rows = desperf::snapshot(smoke);
    let json = desperf::json(&rows);
    let path = "BENCH_des.json";
    match std::fs::write(path, &json) {
        Ok(()) => format!("{}\nwrote {path}", desperf::table(&rows)),
        Err(e) => format!("{}\ncould not write {path}: {e}", desperf::table(&rows)),
    }
}

/// Drive the scheduler service through the steady / overload / faulted
/// scenarios, print the table, and drop the machine-readable snapshot.
/// `--smoke` shrinks the streams, runs the batch-equivalence gate and
/// writes under `target/`, leaving the committed full-run file alone.
fn bench_sched(smoke: bool) -> String {
    let rows = schedperf::snapshot(smoke);
    let json = schedperf::json(&rows);
    let path = if smoke {
        "target/BENCH_sched.smoke.json"
    } else {
        "BENCH_sched.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => format!("{}\nwrote {path}", schedperf::table(&rows)),
        Err(e) => format!("{}\ncould not write {path}: {e}", schedperf::table(&rows)),
    }
}

/// Replay the WAN upgrade story on modern fabrics and sweep the flow
/// engine to 1M concurrent flows, print the tables, and drop the
/// machine-readable snapshot. `--smoke` shrinks the scales and runs
/// every resolve through the incremental-vs-reference equivalence gate.
fn bench_net(smoke: bool) -> String {
    let rows = netperf::snapshot(smoke);
    let json = netperf::json(&rows);
    let path = "BENCH_net.json";
    match std::fs::write(path, &json) {
        Ok(()) => format!("{}\nwrote {path}", netperf::table(&rows)),
        Err(e) => format!("{}\ncould not write {path}: {e}", netperf::table(&rows)),
    }
}

/// Exhibit OBS-2: drive the streaming recorder through the synthetic
/// pump and the faulted engine scenarios with live HTTP scrapers,
/// enforce the gates (throughput floor, balanced ledgers, bit-identity,
/// overhead budget), print the table, and drop the machine-readable
/// snapshot. `--smoke` shrinks every scenario for CI.
fn bench_telemetry(smoke: bool) -> String {
    let rows = telemetry::snapshot(smoke);
    let gates = telemetry::gates(&rows, smoke);
    let json = telemetry::json(&rows);
    let path = "BENCH_telemetry.json";
    match std::fs::write(path, &json) {
        Ok(()) => format!("{}\n{gates}\nwrote {path}", telemetry::table(&rows)),
        Err(e) => format!(
            "{}\n{gates}\ncould not write {path}: {e}",
            telemetry::table(&rows)
        ),
    }
}

/// Print one deterministic `/metrics` exposition from a small recorded
/// scenario — exactly what a live `TelemetryServer` would serve. CI
/// lints this output for Prometheus text-format essentials.
fn prom_sample() -> String {
    use hpcc_trace::{names, Recorder, StreamRecorder};
    let rec = StreamRecorder::new();
    let compute = rec.track(names::MESH_NODES, "node 0");
    let solver = rec.track(names::WAN_SOLVER, "engine");
    let mut t = 0u64;
    for i in 0u64..64 {
        let dur = 1_000 + i * i * 500;
        rec.span(compute, "compute", "dgefa panel", t, t + dur);
        t += dur + 250;
    }
    rec.counter(solver, "full_resolves", t, 17.0);
    rec.counter(solver, "dirty", t, 3.0);
    rec.instant(compute, "fault", "node crash", t);
    rec.prometheus_text()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("index");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let run = |name: &str| -> Option<String> {
        Some(match name {
            "goals" => ex::goals(),
            "responsibilities" => ex::responsibilities(),
            "funding" => ex::funding(),
            "components" => ex::components(),
            "delta-peak" => ex::delta_peak(),
            "delta-linpack" => ex::delta_linpack(),
            "linpack-sweep" => ex::linpack_sweep(),
            "mpp-series" => ex::mpp_series(),
            "consortium-net" => ex::consortium_net(),
            "nren-upgrade" => ex::nren_upgrade(),
            "casa" => ex::casa(),
            "cas" => ex::cas(),
            "grand-challenges" => ex::grand_challenges(),
            "fft-scaling" => ex::fft_scaling(),
            "scheduler" => ex::scheduler(),
            "sched-service" => ex::sched_service(),
            "resilience" => ex::resilience(smoke),
            "trace" => ex::trace(smoke),
            "ablations" => ex::ablations(),
            "kernel-profile" => ex::kernel_profile(),
            "timeline" => ex::timeline(),
            "bench-kernels" => bench_kernels(smoke),
            "bench-des" => bench_des(smoke),
            "bench-sched" => bench_sched(smoke),
            "bench-net" => bench_net(smoke),
            "telemetry" => bench_telemetry(smoke),
            "prom-sample" => prom_sample(),
            "index" => ex::index(),
            _ => return None,
        })
    };

    if cmd == "all" {
        // `trace` is excluded (it writes artifact files; same precedent
        // as `bench-kernels` and `bench-des`).
        let mut buf = String::new();
        for name in [
            "index",
            "goals",
            "responsibilities",
            "funding",
            "components",
            "delta-peak",
            "delta-linpack",
            "linpack-sweep",
            "mpp-series",
            "consortium-net",
            "nren-upgrade",
            "casa",
            "cas",
            "grand-challenges",
            "fft-scaling",
            "scheduler",
            "sched-service",
            "resilience",
            "ablations",
            "kernel-profile",
            "timeline",
        ] {
            buf.push_str(&format!("=== {name} ===\n\n{}\n", run(name).unwrap()));
        }
        match out_path {
            Some(path) => match std::fs::write(&path, &buf) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
            },
            None => print!("{buf}"),
        }
    } else {
        match run(cmd) {
            Some(s) => println!("{s}"),
            None => {
                eprintln!(
                    "unknown exhibit command '{cmd}'; try: all [--out <path>], index, goals, \
                     responsibilities, funding, components, delta-peak, delta-linpack, \
                     linpack-sweep, mpp-series, consortium-net, nren-upgrade, casa, cas, \
                     grand-challenges, fft-scaling, \
                     scheduler, sched-service, resilience [--smoke], trace [--smoke], \
                     ablations, kernel-profile, timeline, bench-kernels [--smoke], \
                     bench-des [--smoke], bench-sched [--smoke], bench-net [--smoke], \
                     telemetry [--smoke], prom-sample"
                );
                std::process::exit(2);
            }
        }
    }
}
