//! The repository's one repeatable benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hpcc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! hpcc-benchmark --selfcheck [--seed N] [--seconds S]
//! hpcc-benchmark --describe        # BENCHMARK.json, from the tables in the code
//! hpcc-benchmark --list            # workload names, one a line
//! ```
//!
//! The last line of standard output of a workload run is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod api;
mod harness;
mod inputs;
mod meta;
mod metrics;
mod spans;
mod workloads;

use meta::quote;
use metrics::{Def, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;
const DEFAULT_SEED: u64 = 1992;
/// The benchmark's directory, relative to the checkout the command is
/// run from; `paths` of `BENCHMARK.json`.
const DIR: &str = "benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    describe: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hpcc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         hpcc-benchmark --selfcheck [--seed N] [--seconds S]\n       \
         hpcc-benchmark --describe | --list\nworkloads:"
    );
    for e in workloads::ALL {
        eprintln!("  {:<15} {}", e.name, e.why);
    }
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        selfcheck: false,
        describe: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            "--describe" => a.describe = true,
            "--list" => a.list = true,
            _ => usage(),
        }
    }
    a
}

fn metric_defs(defs: &[Def], bounded: bool) -> String {
    let rows: Vec<String> = defs
        .iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = if bounded {
                format!(", \"bound\": {}", d.bound)
            } else {
                String::new()
            };
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                quote(d.name),
                quote(d.unit),
                quote(better)
            )
        })
        .collect();
    rows.join(",\n")
}

/// `BENCHMARK.json` as the tables in this binary define it.
fn describe() -> String {
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(e.name),
                quote(e.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{DIR}/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"{DIR}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metric_defs(END_TO_END, true),
        metric_defs(PER_LAYER, false)
    )
}

/// The value of metric `name` in a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let after = line
        .split_once(&format!("{}: {{\"value\": ", quote(name)))?
        .1;
    after.split_once(',')?.0.trim().parse().ok()
}

/// Run every workload twice as child processes (peak RSS is per process)
/// and fail if an end-to-end metric of the second run is worse than the
/// first by more than its bound.
fn selfcheck(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    println!(
        "selfcheck: two runs per workload, seed {}, {} s each",
        a.seed, a.seconds
    );
    for e in workloads::ALL {
        let mut lines = Vec::new();
        for _ in 0..2 {
            let out = std::process::Command::new(&exe)
                .args(["--workload", e.name, "--trace", "0"])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .output()
                .expect("re-run this binary");
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let line = text.lines().last().unwrap_or("").to_string();
            if !out.status.success() || !line.contains("\"correct\": true") {
                println!("{:<15} run failed: {line}", e.name);
                ok = false;
            }
            lines.push(line);
        }
        for d in END_TO_END {
            let (Some(first), Some(second)) =
                (metric_in(&lines[0], d.name), metric_in(&lines[1], d.name))
            else {
                println!("{:<15} {:<16} missing", e.name, d.name);
                ok = false;
                continue;
            };
            let worse = (second - first) / first.max(1e-12);
            let verdict = if worse > d.bound { "WORSE" } else { "ok" };
            ok &= worse <= d.bound;
            println!(
                "{:<15} {:<16} {first:>14.6} {second:>14.6} {:>+7.2} % (bound {:>2.0} %)  {verdict}",
                e.name,
                d.name,
                worse * 100.0,
                d.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let a = parse_args();
    if a.describe {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    if a.list {
        for e in workloads::ALL {
            println!("{}", e.name);
        }
        return ExitCode::SUCCESS;
    }
    if a.selfcheck {
        return selfcheck(&a);
    }
    let Some(entry) = a.workload.as_deref().and_then(workloads::find) else {
        usage()
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let opt = harness::Options {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: root.join(DIR).join("out"),
        root,
    };
    let outcome = harness::run(entry, &opt);
    println!("{}", outcome.line);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {} failed: {} of {} operations",
            entry.name, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
