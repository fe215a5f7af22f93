//! `campaign`: one Grand Challenge campaign end to end, the only path
//! on which the scheduler, the mesh simulator and the WAN feed each
//! other. Tenants submit a stream of jobs to the scheduler service on
//! the 16×33 Delta; each job belongs to one of three classes by the
//! sub-mesh it asked for, and the class's LINPACK run is simulated on
//! that sub-mesh shape; every completed job then stages its result — one
//! n × nb panel of the class's matrix, ready one LU time after the job
//! finished — from the Delta to its tenant's consortium site over the WAN.

use super::sched::{check_service, digest_service, sched_metrics, stream, Scenario};
use super::wan::netsim_metrics;
use super::{mesh, LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{unit_scale, Digest, Gen, SCENARIO_SEED};
use crate::metrics::Metrics;
use crate::spans::Tracer;

const SUBS: usize = 2_000;
const TENANTS: usize = 64;
const LOAD: f64 = 0.9;
const LU_NB: usize = 32;

/// A job class: jobs of up to `max_nodes` nodes run LU of order `n` on
/// a `mesh` sub-mesh.
struct Class {
    max_nodes: usize,
    mesh: (usize, usize),
    n: usize,
}

const CLASSES: [Class; 3] = [
    Class {
        max_nodes: 16,
        mesh: (4, 4),
        n: 512,
    },
    Class {
        max_nodes: 64,
        mesh: (6, 6),
        n: 768,
    },
    Class {
        max_nodes: usize::MAX,
        mesh: (8, 8),
        n: 1024,
    },
];

fn class_of(shape: (usize, usize)) -> usize {
    CLASSES
        .iter()
        .position(|c| shape.0 * shape.1 <= c.max_nodes)
        .expect("the last class takes every shape")
}

pub struct Campaign {
    service: Scenario,
    machines: Vec<api::Machine>,
    wan: api::Net,
    delta: api::SiteId,
    partners: Vec<api::SiteId>,
    last: Option<Last>,
}

struct Last {
    service: api::ServiceReport,
    lus: Vec<api::Lu2dResult>,
    specs: Vec<api::TransferSpec>,
    flows: (Vec<api::FlowRecord>, api::NetStats),
}

impl Campaign {
    pub fn new(seed: u64) -> Campaign {
        let mut seeded = Gen::new(seed);
        let mut g = Gen::new(SCENARIO_SEED);
        let mut cfg = api::service_config();
        // The staging step needs each job's finish time.
        cfg.keep_records = true;
        let service = Scenario {
            span: "sched/campaign",
            trace: stream(SUBS, TENANTS, LOAD, unit_scale(&mut seeded), &mut g),
            cfg,
            plan: api::FaultPlan::none(),
        };
        let machines = CLASSES
            .iter()
            .map(|c| api::delta_machine(c.mesh.0, c.mesh.1, unit_scale(&mut seeded)))
            .collect();
        let (wan, delta, partners) = api::consortium();
        Campaign {
            service,
            machines,
            wan,
            delta,
            partners,
            last: None,
        }
    }

    /// One transfer per completed job, Delta → the tenant's site.
    fn staging(
        &self,
        records: &[api::JobRecord],
        lus: &[api::Lu2dResult],
    ) -> Vec<api::TransferSpec> {
        records
            .iter()
            .map(|rec| {
                let c = class_of(rec.job.shape);
                let ready = rec.finished.as_secs_f64() + lus[c].seconds;
                api::TransferSpec::new(
                    self.delta,
                    self.partners[rec.job.partner % self.partners.len()],
                    (8 * CLASSES[c].n * LU_NB) as u64,
                    api::SimTime::from_secs_f64(ready),
                )
            })
            .collect()
    }
}

impl Workload for Campaign {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let sc = &self.service;
        let service = t.span(sc.span, |_| api::service_run(&sc.trace, &sc.cfg, &sc.plan));
        let lus: Vec<api::Lu2dResult> = CLASSES
            .iter()
            .zip(&self.machines)
            .map(|(c, m)| t.span("mesh.sim/lu2d", |_| api::lu2d(m, c.n, LU_NB)))
            .collect();
        let specs = self.staging(&service.records, &lus);
        let flows = t.span("netsim/staging", |_| {
            api::flows_run(&self.wan, specs.clone())
        });

        let mut d = Digest::new();
        digest_service(&mut d, &service);
        for lu in &lus {
            d.f64(lu.seconds);
            mesh::digest_report(&mut d, &lu.report);
        }
        for r in &flows.0 {
            d.u64(r.finished.nanos());
        }
        let ops = (service.submitted + lus.len() + specs.len()) as u64;
        self.last = Some(Last {
            service,
            lus,
            specs,
            flows,
        });
        PassOut {
            digest: d.finish(),
            ops,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no pass ran")?;
        check_service("campaign", &self.service, &last.service)?;
        if last.service.records.len() != last.service.completed {
            return Err(format!(
                "{} job records for {} completed jobs",
                last.service.records.len(),
                last.service.completed
            ));
        }
        if last.flows.0.len() != last.service.completed {
            return Err(format!(
                "{} results staged for {} completed jobs",
                last.flows.0.len(),
                last.service.completed
            ));
        }
        for (i, (rec, f)) in last.service.records.iter().zip(&last.flows.0).enumerate() {
            if f.started < rec.finished || f.finished <= f.started {
                return Err(format!("result {i} left the Delta before its job finished"));
            }
        }
        let verify = api::FlowConfig {
            verify: true,
            ..api::FlowConfig::default()
        };
        let (checked, _) = api::flows_run_faulted(&self.wan, verify, last.specs.clone(), &[]);
        let same = checked
            .iter()
            .zip(&last.flows.0)
            .all(|(c, f)| c.completed().map(|r| r.finished) == Some(f.finished));
        if !same || checked.len() != last.flows.0.len() {
            return Err("staging schedule differs from the verified run".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some(last) = self.last.as_ref() else {
            return;
        };
        sched_metrics(times.s(self.service.span), &[&last.service], m);
        let reports: Vec<&api::RunReport> = last.lus.iter().map(|l| &l.report).collect();
        mesh::mesh_sim_metrics(times.s("mesh.sim/lu2d"), &reports, m);
        let flops: f64 = reports.iter().map(|r| r.flops).sum();
        let secs: f64 = last.lus.iter().map(|l| l.seconds).sum();
        m.set("kernels.sim.lu2d.sim_gflops", flops / secs.max(1e-12) / 1e9);
        netsim_metrics(times.s("netsim/staging"), &[&last.flows.1], m);
    }

    fn sizes(&self) -> String {
        let classes: Vec<String> = CLASSES
            .iter()
            .map(|c| format!("{}x{} n={}", c.mesh.0, c.mesh.1, c.n))
            .collect();
        format!(
            "{SUBS} subs from {TENANTS} tenants @{LOAD}x on 16x33; lu2d nb={LU_NB} on {}; one staged result per completed job on delta_consortium",
            classes.join(", ")
        )
    }
}
