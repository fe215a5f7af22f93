//! `sched_stream`: the scheduler service alone, in its three regimes —
//! a steady stream under capacity (admit / backfill), a 2× overload
//! against bounded queues and tenant quotas (shed / quota), and a stream
//! under node crashes (kill / retry / unrunnable).

use super::{LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{pareto, proportioned, stratified, unit_scale, Digest, Gen, SCENARIO_SEED};
use crate::metrics::Metrics;
use crate::spans::Tracer;

/// Sub-mesh shapes a submission may ask for, small to large.
const SHAPES: [(usize, usize); 9] = [
    (1, 1),
    (1, 2),
    (2, 2),
    (2, 4),
    (4, 4),
    (4, 8),
    (8, 8),
    (8, 16),
    (16, 16),
];

/// A multi-tenant stream of `n` submissions at `load` × the Delta's
/// capacity, heavy-tailed in shape (P(class ≥ k) = 2^-1.1k), runtime
/// (Pareto 30 s, α 1.5, capped at 4 h), inter-arrival gap (Pareto, α 1.5)
/// and tenant activity (quadratic skew); half low, 35 % normal, 15 % high
/// priority. Runtimes are stratified within each shape class, so the
/// total node-seconds — and with it the stream's span — is the same for
/// every draw. `time_unit` rescales every runtime and gap: the same
/// schedule in other units.
pub fn stream(
    n: usize,
    tenants: usize,
    load: f64,
    time_unit: f64,
    g: &mut Gen,
) -> api::ServiceTrace {
    let classes = stratified(n, &mut g.fork(), pareto(1.0, 1.1, 511.0));
    let mut per_class = [0usize; SHAPES.len()];
    for x in &classes {
        per_class[(x.log2().floor() as usize).min(SHAPES.len() - 1)] += 1;
    }
    let mut jobs: Vec<((usize, usize), f64)> = Vec::with_capacity(n);
    let mut g_run = g.fork();
    for (k, &count) in per_class.iter().enumerate() {
        let runtimes = stratified(count, &mut g_run, pareto(30.0, 1.5, 4.0 * 3600.0));
        jobs.extend(runtimes.into_iter().map(|r| (SHAPES[k], r)));
    }
    g.fork().shuffle(&mut jobs);
    let tenant_of = stratified(n, &mut g.fork(), |u| (tenants as f64 * u * u).floor());
    let priority_of = proportioned(n, &[10, 7, 3], &mut g.fork());

    let work: f64 = jobs.iter().map(|&((r, c), s)| (r * c) as f64 * s).sum();
    let capacity = (api::DELTA_ROWS * api::DELTA_COLS) as f64;
    let mean_gap = work / (load * capacity) / n as f64;
    let gaps = stratified(n, &mut g.fork(), pareto(mean_gap / 3.0, 1.5, f64::MAX));

    let mut at = 0.0;
    let subs = jobs
        .into_iter()
        .enumerate()
        .map(|(id, (shape, runtime))| {
            at += gaps[id];
            let tenant = (tenant_of[id] as usize).min(tenants - 1);
            api::submission(
                id,
                tenant,
                priority_of[id],
                shape,
                runtime * time_unit,
                at * time_unit,
            )
        })
        .collect();
    api::service_trace(subs)
}

/// `crashes` permanent node crashes spread over the stream's arrival
/// span: one node from each cell of an even grid over the mesh, at
/// stratified times, so the loss is even in space and in time.
fn crash_plan(trace: &api::ServiceTrace, g: &mut Gen) -> api::FaultPlan {
    const BANDS: (usize, usize) = (2, 13);
    let span_s = trace
        .subs
        .last()
        .map_or(0.0, |s| s.arrival.nanos() as f64 / 1e9);
    let crashes = BANDS.0 * BANDS.1;
    let times = stratified(crashes, &mut g.fork(), |u| u * span_s);
    let mut plan = Vec::with_capacity(crashes);
    for br in 0..BANDS.0 {
        for bc in 0..BANDS.1 {
            let rows = api::DELTA_ROWS * br / BANDS.0..api::DELTA_ROWS * (br + 1) / BANDS.0;
            let cols = api::DELTA_COLS * bc / BANDS.1..api::DELTA_COLS * (bc + 1) / BANDS.1;
            let r = rows.start + g.below(rows.len());
            let c = cols.start + g.below(cols.len());
            plan.push((times[plan.len()], r * api::DELTA_COLS + c));
        }
    }
    api::crash_plan(&plan)
}

pub struct Scenario {
    pub span: &'static str,
    pub trace: api::ServiceTrace,
    pub cfg: api::ServiceConfig,
    pub plan: api::FaultPlan,
}

/// Digest of what a tenant could observe of a run.
pub fn digest_service(d: &mut Digest, r: &api::ServiceReport) {
    d.u64(r.completed as u64);
    d.u64(r.failed as u64);
    d.u64(r.shed_total());
    d.u64(r.quota_rejects);
    d.u64(r.unrunnable);
    d.u64(r.retries);
    d.u64(r.makespan.nanos());
    d.u64(r.events);
    for (i, o) in r.outcomes.iter().enumerate() {
        if !matches!(o, api::Outcome::Completed) {
            d.u64(i as u64);
        }
    }
}

/// Every submission reached exactly one terminal state and the
/// node-time ledger balances.
pub fn check_service(name: &str, sc: &Scenario, r: &api::ServiceReport) -> Result<(), String> {
    let n = sc.trace.subs.len();
    if r.outcomes.len() != n || r.submitted != n {
        return Err(format!(
            "{name}: {} outcomes for {n} submissions",
            r.outcomes.len()
        ));
    }
    let terminal = r.completed as u64 + r.failed as u64 + r.rejected_total();
    if terminal != n as u64 {
        return Err(format!(
            "{name}: {terminal} terminal states for {n} submissions"
        ));
    }
    if !r.node_time.balanced() {
        return Err(format!("{name}: node-time ledger does not balance"));
    }
    if r.max_pending > sc.cfg.pending_cap {
        return Err(format!(
            "{name}: pending queue reached {} past its cap {}",
            r.max_pending, sc.cfg.pending_cap
        ));
    }
    Ok(())
}

/// `sched.service.*` from the service runs of one pass.
pub fn sched_metrics(run_s: f64, reports: &[&api::ServiceReport], m: &mut Metrics) {
    let subs: usize = reports.iter().map(|r| r.submitted).sum();
    let sum = |f: &dyn Fn(&api::ServiceReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    m.set("sched.service.run_s", run_s);
    m.set("sched.service.events", sum(&|r| r.events) as f64);
    m.set("sched.service.ns_per_sub", run_s * 1e9 / subs.max(1) as f64);
    m.set(
        "sched.service.complete_ratio",
        sum(&|r| r.completed as u64) as f64 / subs.max(1) as f64,
    );
    m.set("sched.service.shed", sum(&|r| r.shed_total()) as f64);
    m.set(
        "sched.service.quota_rejects",
        sum(&|r| r.quota_rejects) as f64,
    );
    m.set("sched.service.retries", sum(&|r| r.retries) as f64);
    m.set(
        "sched.service.max_pending",
        reports.iter().map(|r| r.max_pending).max().unwrap_or(0) as f64,
    );
}

const STEADY_SUBS: usize = 3_000;
const OVERLOAD_SUBS: usize = 1_000;
const OVERLOAD_CAP: usize = 128;
const FAULTED_SUBS: usize = 2_000;

pub struct Stream {
    scenarios: Vec<Scenario>,
    last: Vec<api::ServiceReport>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let time_unit = unit_scale(&mut Gen::new(seed));
        let mut g = Gen::new(SCENARIO_SEED);
        let steady = Scenario {
            span: "sched/steady",
            trace: stream(STEADY_SUBS, 4096, 0.6, time_unit, &mut g),
            cfg: api::service_config(),
            plan: api::FaultPlan::none(),
        };
        // Bounded queues and finite quotas: at 2× the backlog must hit
        // the caps and be shed with typed errors.
        let mut cfg = api::service_config();
        cfg.pending_cap = OVERLOAD_CAP;
        cfg.shard_cap = OVERLOAD_CAP;
        cfg.quota_default = 256;
        let overload = Scenario {
            span: "sched/overload",
            trace: stream(OVERLOAD_SUBS, 1024, 2.0, time_unit, &mut g),
            cfg,
            plan: api::FaultPlan::none(),
        };
        let trace = stream(FAULTED_SUBS, 512, 0.6, time_unit, &mut g);
        let faulted = Scenario {
            span: "sched/faulted",
            plan: crash_plan(&trace, &mut g),
            trace,
            cfg: api::service_config(),
        };
        Stream {
            scenarios: vec![steady, overload, faulted],
            last: Vec::new(),
        }
    }
}

impl Workload for Stream {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let mut d = Digest::new();
        let mut ops = 0;
        self.last.clear();
        for sc in &self.scenarios {
            let r = t.span(sc.span, |_| api::service_run(&sc.trace, &sc.cfg, &sc.plan));
            digest_service(&mut d, &r);
            ops += r.submitted as u64;
            self.last.push(r);
        }
        PassOut {
            digest: d.finish(),
            ops,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        if self.last.len() != self.scenarios.len() {
            return Err("no pass ran".into());
        }
        for (sc, r) in self.scenarios.iter().zip(&self.last) {
            check_service(sc.span, sc, r)?;
        }
        let (steady, overload, faulted) = (&self.last[0], &self.last[1], &self.last[2]);
        if steady.completed != STEADY_SUBS {
            return Err(format!(
                "steady stream under capacity completed {} of {STEADY_SUBS}",
                steady.completed
            ));
        }
        if overload.shed_total() == 0 {
            return Err("2x overload shed nothing".into());
        }
        if faulted.jobs_killed == 0 || faulted.retries == 0 {
            return Err("crash plan killed or retried nothing".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let run_s: f64 = self.scenarios.iter().map(|sc| times.s(sc.span)).sum();
        let reports: Vec<&api::ServiceReport> = self.last.iter().collect();
        sched_metrics(run_s, &reports, m);
    }

    fn sizes(&self) -> String {
        format!(
            "16x33 service: {STEADY_SUBS} subs @0.6x, {OVERLOAD_SUBS} @2x cap {OVERLOAD_CAP}, {FAULTED_SUBS} @0.6x with 26 crashes"
        )
    }
}
