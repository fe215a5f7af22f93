//! Runs one workload the way every workload is run: closed loop, one
//! client thread, set-up timed on freshly built objects, untimed warm-up,
//! then timed passes for `--seconds`; or, with `--trace 1`, untraced and
//! traced passes in turn for the per-layer numbers.
//!
//! End-to-end time is the *fastest* timed pass. On a small shared VM the
//! slower passes measure the neighbours: the median of identical passes
//! moved by 7 to 13 % between back-to-back runs while the fastest moved
//! by 1 to 2 % (see README). Median, p90 and the pass count are printed
//! beside it.

use crate::alloc;
use crate::meta::{minor_faults, peak_rss_mb, quote, Meta};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::spans::{layer_of, Tracer, ROOT};
use crate::workloads::{Entry, LayerTimes, PassOut, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The checkout: where `.git` is looked for.
    pub root: PathBuf,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The one-line result the driver reads.
    pub line: String,
}

const WARMUP_PASSES: usize = 20;
const SETUP_REPS: usize = 21;
const MIN_TIMED_PASSES: usize = 10;
const TRACE_PAIRS: usize = 50;
const SMOKE_PASSES: usize = 10;

/// `p`-quantile by the ceil-rank rule; `xs` must be sorted.
fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs[((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_u64(xs: &[u64]) -> f64 {
    let v = sorted(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>());
    quantile(&v, 0.5)
}

/// What the passes of a run added up to.
#[derive(Default)]
struct Tally {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    secs: Vec<f64>,
    allocs: Vec<u64>,
    alloc_bytes: Vec<u64>,
}

impl Tally {
    /// Book one pass: its operations count as failed if it reported a
    /// failure or its digest is not the run's first.
    fn book(&mut self, out: PassOut) {
        let first = *self.digest.get_or_insert(out.digest);
        self.attempted += out.ops;
        if !out.ok || out.digest != first {
            self.failed += out.ops;
            if self.failures.len() < 5 {
                self.failures.push(if out.ok {
                    format!(
                        "pass digest {:016x} differs from the first pass's {first:016x}",
                        out.digest
                    )
                } else {
                    "a pass reported a failed operation".to_string()
                });
            }
        }
    }

    /// Run and book one pass with its time and allocation counts.
    fn timed(&mut self, w: &mut dyn Workload, t: &mut Tracer) {
        let (a0, b0) = alloc::snapshot();
        let start = Instant::now();
        // The root span of a traced pass; one branch when tracing is off.
        let out = t.span(ROOT, |t| w.pass(t));
        let dt = start.elapsed();
        let (a1, b1) = alloc::snapshot();
        self.secs.push(dt.as_secs_f64());
        self.allocs.push(a1 - a0);
        self.alloc_bytes.push(b1 - b0);
        self.book(out);
    }
}

/// Seed → first verified result on freshly built objects, `reps` times;
/// returns the fastest and the workload of the last repetition.
fn set_up(
    entry: &Entry,
    seed: u64,
    reps: usize,
    budget: Duration,
    tally: &mut Tally,
) -> (f64, usize, Box<dyn Workload>) {
    let began = Instant::now();
    let mut off = Tracer::new();
    let mut best = f64::MAX;
    let mut done = 0;
    loop {
        let start = Instant::now();
        let mut w = (entry.build)(seed);
        let out = w.pass(&mut off);
        let dt = start.elapsed().as_secs_f64();
        tally.book(out);
        best = best.min(dt);
        done += 1;
        if done >= reps || (done >= 3 && began.elapsed() > budget) {
            return (best, done, w);
        }
    }
}

pub fn run(entry: &Entry, opt: &Options) -> Outcome {
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(opt.seconds);
    let mut tracer = Tracer::new();

    // ---- set-up (its own metric, so work moved into constructors shows)
    let reps = if opt.smoke { 3 } else { SETUP_REPS };
    let (setup_s, setup_reps, mut w) = if opt.trace {
        let start = Instant::now();
        let w = (entry.build)(opt.seed);
        (start.elapsed().as_secs_f64(), 1, w)
    } else {
        set_up(entry, opt.seed, reps, budget / 4, &mut tally)
    };

    // ---- warm-up: caches, lazy tables, the recorder's ring
    let warmup = if opt.smoke { 2 } else { WARMUP_PASSES };
    let warm_began = Instant::now();
    let mut warmed = 0;
    while warmed < warmup && (warmed < 2 || warm_began.elapsed() < budget / 8) {
        let out = w.pass(&mut tracer);
        tally.book(out);
        warmed += 1;
    }

    // ---- timed passes
    let mut traced = Tally::default();
    let began = Instant::now();
    if opt.trace {
        let pairs = if opt.smoke { SMOKE_PASSES } else { TRACE_PAIRS };
        tracer.reserve(pairs * 16);
        for pair in 0..pairs {
            if pair >= 5 && began.elapsed() > budget {
                break;
            }
            tracer.set(false, 0);
            tally.timed(&mut *w, &mut tracer);
            tracer.set(true, pair as u32);
            traced.timed(&mut *w, &mut tracer);
        }
        tracer.set(false, 0);
    } else if opt.smoke {
        for _ in 0..SMOKE_PASSES {
            tally.timed(&mut *w, &mut tracer);
        }
    } else {
        while tally.secs.len() < MIN_TIMED_PASSES || began.elapsed() < budget {
            tally.timed(&mut *w, &mut tracer);
        }
    }
    let rss_mb = peak_rss_mb();

    // ---- verification, untimed
    let mut failures = std::mem::take(&mut tally.failures);
    failures.append(&mut traced.failures);
    if let Err(e) = w.verify() {
        failures.push(e);
        // A result that is wrong makes every operation behind it suspect.
        tally.failed = tally.attempted;
    }
    let attempted = tally.attempted + traced.attempted;
    let failed = (tally.failed + traced.failed).min(attempted);
    let correct = failed == 0 && failures.is_empty();

    // ---- metrics
    let secs = sorted(&tally.secs);
    let mut extras: Vec<(&str, String)> = vec![
        ("ops_attempted", attempted.to_string()),
        ("ops_failed", failed.to_string()),
        (
            "result_digest",
            quote(&format!("{:016x}", tally.digest.unwrap_or(0))),
        ),
        ("pass_median_s", quantile(&secs, 0.5).to_string()),
        ("pass_p90_s", quantile(&secs, 0.9).to_string()),
        ("passes", secs.len().to_string()),
        ("minor_faults", minor_faults().to_string()),
    ];
    let mut metrics;
    let mut shares = BTreeMap::new();
    if opt.trace {
        metrics = Metrics::new(PER_LAYER);
        let mut times = LayerTimes::default();
        for (name, per_pass) in tracer.self_times() {
            let per_pass = sorted(&per_pass);
            times.median.insert(name, quantile(&per_pass, 0.5));
            times.min.insert(name, quantile(&per_pass, 0.0));
        }
        w.layer_metrics(&times, &mut metrics);
        let traced_secs = sorted(&traced.secs);
        metrics.set("bench.pass_median_s", quantile(&secs, 0.5));
        metrics.set("bench.pass_p90_s", quantile(&secs, 0.9));
        metrics.set("bench.passes", traced_secs.len() as f64);
        metrics.set(
            "bench.trace_overhead",
            quantile(&traced_secs, 0.0) / quantile(&secs, 0.0).max(1e-12) - 1.0,
        );
        metrics.set("bench.alloc_bytes_per_pass", median_u64(&tally.alloc_bytes));
        let total: f64 = times.median.values().sum();
        for (name, s) in &times.median {
            let layer = if *name == ROOT {
                "bench"
            } else {
                layer_of(name)
            };
            *shares.entry(layer.to_string()).or_insert(0.0) += s / total.max(1e-12);
        }
    } else {
        metrics = Metrics::new(END_TO_END);
        metrics.set("wall_s", quantile(&secs, 0.0));
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", rss_mb);
        metrics.set("allocs_per_pass", median_u64(&tally.allocs));
        extras.push((
            "alloc_bytes_per_pass",
            median_u64(&tally.alloc_bytes).to_string(),
        ));
    }

    // ---- report
    let meta = Meta {
        workload: entry.name,
        sizes: w.sizes(),
        seed: opt.seed,
        seconds: opt.seconds,
        smoke: opt.smoke,
        traced: opt.trace,
        warmup_passes: warmed,
        timed_passes: secs.len(),
        traced_passes: traced.secs.len(),
        setup_reps,
    }
    .json(&opt.root);
    drop(w);

    println!("workload  {}  seed {}", entry.name, opt.seed);
    println!("meta      {meta}");
    for (d, v) in metrics.all() {
        println!("{:<34} {:>18.9} {}", d.name, v, d.unit);
    }
    for (k, v) in &extras {
        println!("{k:<34} {v:>18}");
    }
    for (layer, share) in &shares {
        println!(
            "share of pass self time: {layer:<12} {:>6.1} %",
            share * 100.0
        );
    }
    for f in &failures {
        println!("FAILED: {f}");
    }

    let metric_json = join(metrics.all().map(|(d, v)| {
        format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            quote(d.name),
            quote(d.unit)
        )
    }));
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metric_json}}}}}",
        attempted.max(1)
    );

    let doc = format!(
        "{{\n\"meta\": {meta},\n\"correct\": {correct},\n\"metrics\": {{{metric_json}}},\n\
         \"extras\": {{{}}},\n\"layer_share\": {{{}}},\n\"failures\": [{}]\n}}\n",
        join(extras.iter().map(|(k, v)| format!("{}: {v}", quote(k)))),
        join(shares.iter().map(|(k, v)| format!("{}: {v}", quote(k)))),
        join(failures.iter().map(|f| quote(f))),
    );

    let stem = format!("{}{}", entry.name, if opt.smoke { ".smoke" } else { "" });
    let kind = if opt.trace { "layers" } else { "result" };
    write_out(&opt.out_dir, &format!("{stem}.{kind}.json"), &doc);
    if opt.trace {
        write_out(
            &opt.out_dir,
            &format!("{stem}.trace.json"),
            &tracer.chrome_json(&meta),
        );
    }

    Outcome {
        correct,
        attempted,
        failed,
        line,
    }
}

fn join(parts: impl Iterator<Item = String>) -> String {
    parts.collect::<Vec<_>>().join(", ")
}

/// Result files are a convenience; a read-only tree must not fail a run.
fn write_out(dir: &std::path::Path, name: &str, body: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
}
