//! `wan_flows`: the max-min flow engine alone, in two halves of about
//! equal cost that lean on different parts of it. The fan-out half puts
//! every flow on a fat-tree at t = 0, so affected sets are large and
//! progressive filling dominates; the churn half trickles short flows
//! onto the NSFnet T3 backbone through a link outage, so aggregation,
//! completion-heap re-keying and re-routing dominate.

use super::{LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{pareto, stratified, unit_scale, Digest, Gen, SCENARIO_SEED};
use crate::metrics::Metrics;
use crate::spans::Tracer;

const FANOUT_FLOWS: usize = 300;
const FANOUT_SENDERS: usize = 16;
const CHURN_FLOWS: usize = 620;
const CHURN_SPAN_S: f64 = 40.0;
/// Lincoln – Champaign, the middle of the backbone's northern path.
const OUTAGE_LINK: usize = 7;
const OUTAGE_S: (f64, f64) = (10.0, 25.0);
/// Short-flow aggregation threshold of the engine as exhibits run it.
const AGGREGATE_BELOW: u64 = 16 << 20;

fn time(s: f64) -> api::SimTime {
    api::SimTime::from_secs_f64(s)
}

/// `flows` transfers at t = 0 from 16 sender hosts, taken in
/// turn, to the other 112 hosts of the fat-tree in a generated order;
/// Pareto sizes (mean 1 MB, α 1.5, capped at 100 MB), stratified.
pub fn fanout_specs(
    fab: &api::Fabric,
    flows: usize,
    byte_unit: f64,
    g: &mut Gen,
) -> Vec<api::TransferSpec> {
    let receivers = fab.hosts.len() - FANOUT_SENDERS;
    let mut dst: Vec<usize> = (0..flows).map(|i| i % receivers).collect();
    g.fork().shuffle(&mut dst);
    let bytes = stratified(flows, &mut g.fork(), pareto(1e6 / 3.0, 1.5, 1e8));
    (0..flows)
        .map(|i| {
            api::TransferSpec::new(
                fab.hosts[i % FANOUT_SENDERS],
                fab.hosts[FANOUT_SENDERS + dst[i]],
                (bytes[i] * byte_unit) as u64,
                api::SimTime::ZERO,
            )
        })
        .collect()
}

/// `flows` transfers, one per slot of an even grid over 40 s with
/// jitter inside the slot; every ordered site pair used equally often,
/// in a generated order; Pareto sizes (mean 2 MB, α 1.5, capped at
/// 200 MB), stratified. `unit` rescales sizes and arrival times alike,
/// so the mix keeps its shape and only path latencies weigh differently.
pub fn churn_specs(net: &api::Net, flows: usize, unit: f64, g: &mut Gen) -> Vec<api::TransferSpec> {
    let sites = net.sites();
    let mut pairs: Vec<(usize, usize)> = (0..sites)
        .flat_map(|a| (0..sites).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let distinct = pairs.len();
    pairs = (0..flows).map(|i| pairs[i % distinct]).collect();
    g.fork().shuffle(&mut pairs);
    let bytes = stratified(flows, &mut g.fork(), pareto(2e6 / 3.0, 1.5, 2e8));
    let slot = CHURN_SPAN_S / flows as f64;
    let mut jitter = g.fork();
    (0..flows)
        .map(|i| {
            let (a, b) = pairs[i];
            let at = (i as f64 + jitter.unit()) * slot;
            api::TransferSpec::new(a, b, (bytes[i] * unit) as u64, time(at * unit))
        })
        .collect()
}

/// `netsim.*` from the flow runs of one pass.
pub fn netsim_metrics(run_s: f64, stats: &[&api::NetStats], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&api::NetStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
    let events = sum(&|s| s.solver.events);
    let resolves = sum(&|s| s.solver.resolves);
    m.set("netsim.flow.run_s", run_s);
    m.set("netsim.engine.events", events as f64);
    m.set(
        "netsim.engine.ns_per_event",
        run_s * 1e9 / events.max(1) as f64,
    );
    m.set("netsim.engine.resolves", resolves as f64);
    m.set(
        "netsim.engine.full_resolves",
        sum(&|s| s.solver.full_resolves) as f64,
    );
    m.set(
        "netsim.engine.mean_dirty",
        sum(&|s| s.solver.entries_touched) as f64 / resolves.max(1) as f64,
    );
    m.set(
        "netsim.engine.aggregated_joins",
        sum(&|s| s.solver.aggregated_joins) as f64,
    );
    m.set(
        "netsim.engine.peak_entries",
        stats
            .iter()
            .map(|s| s.solver.peak_entries)
            .max()
            .unwrap_or(0) as f64,
    );
}

pub struct Flows {
    fabric: api::Fabric,
    fanout: Vec<api::TransferSpec>,
    backbone: api::Net,
    churn: Vec<api::TransferSpec>,
    outage: [api::LinkFault; 1],
    last: Option<Last>,
}

struct Last {
    fanout: (Vec<api::FlowRecord>, api::NetStats),
    churn: (Vec<api::FlowOutcome>, api::NetStats),
}

fn churn_config(verify: bool) -> api::FlowConfig {
    api::FlowConfig {
        aggregate_below: AGGREGATE_BELOW,
        verify,
        ..api::FlowConfig::default()
    }
}

fn finish_times(outcomes: &[api::FlowOutcome]) -> Vec<Option<u64>> {
    outcomes
        .iter()
        .map(|o| o.completed().map(|r| r.finished.nanos()))
        .collect()
}

impl Flows {
    pub fn new(seed: u64) -> Flows {
        let unit = unit_scale(&mut Gen::new(seed));
        let mut g = Gen::new(SCENARIO_SEED);
        let fabric = api::fat_tree8();
        let fanout = fanout_specs(&fabric, FANOUT_FLOWS, unit, &mut g);
        let backbone = api::nsfnet_t3();
        let churn = churn_specs(&backbone, CHURN_FLOWS, unit, &mut g);
        Flows {
            fabric,
            fanout,
            backbone,
            churn,
            outage: [api::LinkFault {
                link: OUTAGE_LINK,
                down_at: time(OUTAGE_S.0 * unit),
                up_at: time(OUTAGE_S.1 * unit),
            }],
            last: None,
        }
    }
}

impl Workload for Flows {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let fanout = t.span("netsim/fanout", |_| {
            api::flows_run(&self.fabric.net, self.fanout.clone())
        });
        let churn = t.span("netsim/churn", |_| {
            api::flows_run_faulted(
                &self.backbone,
                churn_config(false),
                self.churn.clone(),
                &self.outage,
            )
        });
        let mut d = Digest::new();
        for r in &fanout.0 {
            d.u64(r.finished.nanos());
        }
        for f in finish_times(&churn.0) {
            d.u64(f.unwrap_or(u64::MAX));
        }
        d.u64(fanout.1.solver.events);
        d.u64(churn.1.solver.events);
        self.last = Some(Last { fanout, churn });
        PassOut {
            digest: d.finish(),
            ops: (FANOUT_FLOWS + CHURN_FLOWS) as u64,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no pass ran")?;
        if last.fanout.0.len() != FANOUT_FLOWS {
            return Err(format!("fan-out lost flows: {}", last.fanout.0.len()));
        }
        if let Some(i) = last.churn.0.iter().position(api::FlowOutcome::is_stalled) {
            return Err(format!("churn flow {i} stalled; the outage is repaired"));
        }
        // `verify: true` re-derives every allocation with the reference
        // max-min solver and panics on a mismatch beyond 1e-9; the
        // schedule it produces must be the one the pass produced.
        let verify = api::FlowConfig {
            verify: true,
            ..api::FlowConfig::default()
        };
        let (checked, _) =
            api::flows_run_faulted(&self.fabric.net, verify, self.fanout.clone(), &[]);
        let fanout_times: Vec<Option<u64>> = last
            .fanout
            .0
            .iter()
            .map(|r| Some(r.finished.nanos()))
            .collect();
        if finish_times(&checked) != fanout_times {
            return Err("fan-out schedule differs from the verified run".into());
        }
        let (checked, _) = api::flows_run_faulted(
            &self.backbone,
            churn_config(true),
            self.churn.clone(),
            &self.outage,
        );
        if finish_times(&checked) != finish_times(&last.churn.0) {
            return Err("churn schedule differs from the verified run".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some(last) = self.last.as_ref() else {
            return;
        };
        let (fanout_s, churn_s) = (times.s("netsim/fanout"), times.s("netsim/churn"));
        netsim_metrics(fanout_s + churn_s, &[&last.fanout.1, &last.churn.1], m);
        m.set("netsim.fanout_s", fanout_s);
        m.set("netsim.churn_s", churn_s);
    }

    fn sizes(&self) -> String {
        format!(
            "fat_tree(8) fan-out {FANOUT_FLOWS} flows @t=0; nsfnet T3 churn {CHURN_FLOWS} flows / {CHURN_SPAN_S} s, link {OUTAGE_LINK} down {}-{} s",
            OUTAGE_S.0, OUTAGE_S.1
        )
    }
}
