//! Exhibit reproductions: one function per table/figure of the deck,
//! each returning a printable report comparing "paper" with "measured".
//!
//! Sizes are chosen so the full `report all` run completes in minutes on
//! a laptop while still exercising the paper-scale configuration (528
//! nodes, order 25,000) for the headline exhibit.

use delta_mesh::sched::{consortium_workload, run_recorded, Policy};
use delta_mesh::{presets, FaultKind, FaultPlan, Machine, MachineConfig};
use hpcc_core::consortium::delta_facts::LINPACK_ORDER;
use hpcc_core::{fnum, Agency, Component, FiscalYear, FundingTable, Table};
use hpcc_kernels::sim::lu2d::{self, Lu2dResult};
use hpcc_kernels::sim::{fftsim, stencil};
use hpcc_trace::{names, Recorder, StreamRecorder};
use nren_netsim::{topologies, FlowSim, LinkClass, LinkFault, Net, SiteId, TransferSpec};
use std::rc::Rc;
use std::sync::OnceLock;

use des::time::{Dur, SimTime};

/// T4-1: goals, authority, approach.
pub fn goals() -> String {
    let mut out = String::new();
    out.push_str("Exhibit T4-1 — Federal program goal and objectives\n");
    for g in hpcc_core::GOALS {
        out.push_str(&format!("  o {g}\n"));
    }
    out.push_str(&format!("\nAuthority: {}\n", hpcc_core::AUTHORITY));
    out.push_str("\nExhibit T4-3c — Approach\n");
    for a in hpcc_core::APPROACH {
        out.push_str(&format!("  [] {a}\n"));
    }
    out
}

/// T4-2: the responsibilities matrix.
pub fn responsibilities() -> String {
    let mut t = Table::new(
        "Exhibit T4-2 — Federal HPCC program responsibilities (activity counts)",
        &["Agency", "HPCS", "ASTA", "NREN", "BRHR"],
    );
    for a in Agency::ALL {
        let cells: Vec<String> = Component::ALL
            .iter()
            .map(|&c| {
                let n = hpcc_core::responsibilities::activities(a, c).len();
                if n == 0 {
                    "-".to_string()
                } else {
                    n.to_string()
                }
            })
            .collect();
        t.row(&[vec![a.label().to_string()], cells].concat());
    }
    let mut out = t.to_string();
    out.push_str(&format!("\n* {}\n", hpcc_core::responsibilities::FOOTNOTE));
    out.push_str("\nDARPA/HPCS detail (lead agency):\n");
    for act in hpcc_core::responsibilities::activities(Agency::Darpa, Component::Hpcs) {
        out.push_str(&format!("  - {act}\n"));
    }
    out
}

/// T4-3a: the funding table, regenerated digit for digit.
pub fn funding() -> String {
    let f = FundingTable::fy1992_93();
    let mut t = Table::new(
        "Exhibit T4-3a — Federal HPCC program funding FY 92-93 ($M)",
        &["Agency", "FY 1992", "FY 1993", "Growth %", "FY93 share %"],
    );
    for a in f.agencies().collect::<Vec<_>>() {
        t.row(&[
            a.label().to_string(),
            f.budget(a, FiscalYear::Fy1992).to_string(),
            f.budget(a, FiscalYear::Fy1993).to_string(),
            fnum(f.growth_pct(a), 1),
            fnum(f.share_pct(a, FiscalYear::Fy1993), 1),
        ]);
    }
    t.begin_footer();
    t.row(&[
        "Total".to_string(),
        f.total(FiscalYear::Fy1992).to_string(),
        f.total(FiscalYear::Fy1993).to_string(),
        fnum(f.total_growth_pct(), 1),
        "100.0".to_string(),
    ]);
    format!(
        "{t}\nPaper totals: 654.8 / 802.9  — regenerated: {} / {}  (exact match required)\n",
        f.total(FiscalYear::Fy1992),
        f.total(FiscalYear::Fy1993)
    )
}

/// T4-3b: component split (documented reconstruction).
pub fn components() -> String {
    let f = FundingTable::fy1992_93();
    let mut t = Table::new(
        "Exhibit T4-3b — Funding by program component ($M, reconstruction)",
        &["Component", "FY 1992", "FY 1993", "FY93 share %"],
    );
    let total93 = f.total(FiscalYear::Fy1993).0 as f64;
    let split92 = f.component_split(FiscalYear::Fy1992);
    let split93 = f.component_split(FiscalYear::Fy1993);
    for (i, c) in Component::ALL.iter().enumerate() {
        t.row(&[
            format!("{} ({})", c.label(), c.full_name()),
            split92[i].1.to_string(),
            split93[i].1.to_string(),
            fnum(split93[i].1 .0 as f64 / total93 * 100.0, 1),
        ]);
    }
    format!(
        "{t}\nNote: the deck's pie chart carries no printed numerals; weights are a\n\
         documented reconstruction (see hpcc_core::funding::component_weights).\n"
    )
}

/// T4-4a: Delta peak — derived from the machine model, not hard-coded.
pub fn delta_peak() -> String {
    use hpcc_core::consortium::delta_facts as facts;
    let m = presets::delta_528();
    let mut t = Table::new(
        "Exhibit T4-4a — Intel Touchstone Delta (model vs paper)",
        &["Quantity", "Paper", "Model"],
    );
    t.row(&[
        "Numeric processors".into(),
        facts::NUMERIC_PROCESSORS.to_string(),
        m.nodes().to_string(),
    ]);
    t.row(&[
        "Peak speed (GFLOPS)".into(),
        fnum(facts::PEAK_GFLOPS, 1),
        fnum(m.peak_flops() / 1e9, 1),
    ]);
    t.row(&[
        "Mesh".into(),
        "16 x 33 (2-D wormhole)".into(),
        format!("{:?}", m.topology),
    ]);
    t.row(&[
        "Max LINPACK order (memory)".into(),
        ">= 25,000".into(),
        m.max_linpack_order().to_string(),
    ]);
    t.row(&[
        "Bisection bandwidth (MB/s)".into(),
        "-".into(),
        fnum(m.bisection_bandwidth() / 1e6, 0),
    ]);
    t.to_string()
}

/// LU-2D at order `n`, panel width 32, on the 528-node Delta. The
/// paper's order is simulated once per process: T4-4b, F-T4-4c's 25,000
/// row and F-T4-4d's Delta row all print that one run.
fn delta_lu2d(n: usize) -> Lu2dResult {
    static PAPER_ORDER: OnceLock<Lu2dResult> = OnceLock::new();
    let run = || lu2d::run(&Machine::new(presets::delta_528()), n, 32);
    if n == LINPACK_ORDER {
        PAPER_ORDER.get_or_init(run).clone()
    } else {
        run()
    }
}

/// T4-4b: the headline — simulated LINPACK at order 25,000 on 528 nodes.
pub fn delta_linpack() -> String {
    use hpcc_core::consortium::delta_facts as facts;
    let r = delta_lu2d(LINPACK_ORDER);
    let mut t = Table::new(
        "Exhibit T4-4b — LINPACK on the Touchstone Delta (simulated)",
        &["Quantity", "Paper", "Simulated"],
    );
    t.row(&["Order".into(), "25,000".into(), r.n.to_string()]);
    t.row(&[
        "LINPACK speed (GFLOPS)".into(),
        fnum(facts::LINPACK_GFLOPS, 1),
        fnum(r.gflops, 1),
    ]);
    t.row(&[
        "Fraction of 32 GFLOPS peak".into(),
        fnum(facts::LINPACK_GFLOPS / facts::PEAK_GFLOPS, 2),
        fnum(r.efficiency, 2),
    ]);
    t.row(&["Run time (s)".into(), "-".into(), fnum(r.seconds, 0)]);
    t.row(&[
        "Process grid".into(),
        "-".into(),
        format!("{} x {}", r.grid.0, r.grid.1),
    ]);
    t.row(&["Messages".into(), "-".into(), r.report.messages.to_string()]);
    t.to_string()
}

/// F-T4-4c: GFLOPS vs order sweep on the 528-node Delta.
pub fn linpack_sweep() -> String {
    let mut t = Table::new(
        "Figure F-T4-4c — Simulated Delta LINPACK vs matrix order",
        &["Order", "GFLOPS", "Efficiency %", "Time (s)"],
    );
    for n in [2_000, 5_000, 10_000, 15_000, 20_000, 25_000, 30_000] {
        let r = delta_lu2d(n);
        t.row(&[
            n.to_string(),
            fnum(r.gflops, 2),
            fnum(r.efficiency * 100.0, 1),
            fnum(r.seconds, 1),
        ]);
    }
    format!("{t}\nShape check: efficiency must rise monotonically with order\n(communication amortised), passing ~40% at order 25,000.\n")
}

/// F-T4-4d: the DARPA Touchstone series.
pub fn mpp_series() -> String {
    let mut t = Table::new(
        "Figure F-T4-4d — 'One of a series of DARPA developed massively parallel computers'",
        &[
            "Machine",
            "Nodes",
            "Peak GF",
            "LINPACK GF",
            "Eff %",
            "Order",
        ],
    );
    let lu = |cfg: MachineConfig, n| (lu2d::run(&Machine::new(cfg.clone()), n, 32), cfg);
    let runs = [
        lu(presets::ipsc860(7), 8_000),
        (delta_lu2d(LINPACK_ORDER), presets::delta_528()),
        lu(presets::paragon(16, 33), LINPACK_ORDER),
        lu(presets::ideal(528), LINPACK_ORDER),
    ];
    for (r, cfg) in runs {
        t.row(&[
            cfg.name.clone(),
            cfg.nodes().to_string(),
            fnum(cfg.peak_flops() / 1e9, 1),
            fnum(r.gflops, 1),
            fnum(r.efficiency * 100.0, 1),
            r.n.to_string(),
        ]);
    }
    t.to_string()
}

/// T4-5a: the consortium network — per-partner connectivity to the Delta.
pub fn consortium_net() -> String {
    let net = topologies::delta_consortium();
    let delta = site(&net, topologies::DELTA_SITE);
    let sim = FlowSim::new(&net);
    let mut t = Table::new(
        "Exhibit T4-5a — Delta Consortium partners: connectivity to the Delta",
        &[
            "Partner site",
            "Hops",
            "RTT (ms)",
            "Bottleneck",
            "100 MB stage (s)",
        ],
    );
    let bytes = 100 << 20;
    for p in topologies::partner_sites(&net) {
        let route = net.route(p, delta).unwrap();
        let bw = net.bottleneck(&route);
        let class = [
            LinkClass::Regional56k,
            LinkClass::T1,
            LinkClass::T3,
            LinkClass::HippiSonet800,
        ]
        .into_iter()
        .find(|c| (c.bytes_per_sec() - bw).abs() < 1.0)
        .map(|c| c.label())
        .unwrap_or("mixed");
        let single = sim
            .single_flow_time(&TransferSpec::new(p, delta, bytes, SimTime::ZERO))
            .unwrap();
        t.row(&[
            net.name(p).to_string(),
            route.hops().to_string(),
            fnum((route.latency * 2).as_millis_f64(), 1),
            class.to_string(),
            fnum(single.as_secs_f64(), 1),
        ]);
    }
    // Concurrent staging: everyone pushes 100 MB at once.
    let partners = topologies::partner_sites(&net);
    let (staging, _) = nren_netsim::workload::stage_and_retrieve(&partners, delta, bytes, bytes);
    let recs = sim.run(staging);
    let makespan = recs.iter().map(|r| r.finished).max().unwrap().as_secs_f64();
    let mut out = t.to_string();
    out.push_str(&format!(
        "\nConcurrent staging of 100 MB from all {} partners: makespan {:.0} s\n\
         ({} members on the roster; figure legend classes reproduced above)\n",
        partners.len(),
        makespan,
        hpcc_core::consortium::CSC_MEMBERS.len(),
    ));
    out
}

/// F-T4-5b: the NREN upgrade path.
pub fn nren_upgrade() -> String {
    let mut t = Table::new(
        "Figure F-T4-5b — NREN backbone upgrade (coast-to-coast, 100 MB field)",
        &[
            "Backbone",
            "Single flow (s)",
            "w/ 64 KB TCP window (s)",
            "Speedup vs T1",
        ],
    );
    let bytes = 100 << 20;
    let mut base = None;
    for class in [LinkClass::T1, LinkClass::T3, LinkClass::Gigabit] {
        let net = topologies::nsfnet(class);
        let sim = FlowSim::new(&net);
        let a = site(&net, "Palo Alto");
        let b = site(&net, "College Park");
        let plain = sim
            .single_flow_time(&TransferSpec::new(a, b, bytes, SimTime::ZERO))
            .unwrap()
            .as_secs_f64();
        let windowed = sim
            .single_flow_time(&TransferSpec::new(a, b, bytes, SimTime::ZERO).with_window(64 * 1024))
            .unwrap()
            .as_secs_f64();
        let speedup = base.map_or(1.0, |b: f64| b / plain);
        if base.is_none() {
            base = Some(plain);
        }
        t.row(&[
            format!("NSFnet {}", class.label()),
            fnum(plain, 1),
            fnum(windowed, 1),
            fnum(speedup, 1),
        ]);
    }
    format!(
        "{t}\nShape check: T3 ~29x over T1 (line-rate ratio); the 64 KB TCP window\n\
         erases the gigabit gain — the reason NREN funds protocol research.\n"
    )
}

/// T4-5c: the CASA gigabit testbed.
pub fn casa() -> String {
    let net = topologies::casa_testbed();
    let sim = FlowSim::new(&net);
    let caltech = site(&net, topologies::DELTA_SITE);
    let lanl = site(&net, "Los Alamos");
    let bytes: u64 = 1 << 30; // a 1 GB remote-visualisation field
    let mut t = Table::new(
        "Exhibit T4-5c — CASA HIPPI/SONET (800 Mb/s) testbed: Caltech -> Los Alamos, 1 GB",
        &["TCP window", "Achieved MB/s", "Transfer (s)"],
    );
    for w in [
        Some(64u64 * 1024),
        Some(512 * 1024),
        Some(4 * 1024 * 1024),
        None,
    ] {
        let mut spec = TransferSpec::new(caltech, lanl, bytes, SimTime::ZERO);
        if let Some(w) = w {
            spec = spec.with_window(w);
        }
        let d = sim.single_flow_time(&spec).unwrap().as_secs_f64();
        t.row(&[
            w.map_or("unlimited".into(), |w| format!("{} KB", w / 1024)),
            fnum(bytes as f64 / d / 1e6, 1),
            fnum(d, 1),
        ]);
    }
    format!(
        "{t}\nThe 800 Mb/s pipe only fills once windows reach megabytes — the 1992\n\
         gigabit-testbed research agenda in one table.\n"
    )
}

/// T4-6: the CAS consortium + its workload.
pub fn cas() -> String {
    let mut out = String::new();
    out.push_str("Exhibit T4-5b/6 — Computational Aerosciences Consortium\n\nPurposes:\n");
    for p in hpcc_core::consortium::CAS_PURPOSES {
        out.push_str(&format!("  o {p}\n"));
    }
    out.push_str(&format!(
        "\nIndustry ({}): {}\n",
        hpcc_core::consortium::CAS_INDUSTRY.len(),
        hpcc_core::consortium::CAS_INDUSTRY.join(", ")
    ));
    out.push_str(&format!(
        "Academia ({}): {}\n",
        hpcc_core::consortium::CAS_ACADEMIA.len(),
        hpcc_core::consortium::CAS_ACADEMIA.join(", ")
    ));

    // The CAS workload on the testbed: an aerosciences stencil solve.
    let machine = Machine::new(presets::delta_528());
    let r = stencil::run_model(&machine, 4096, 50);
    out.push_str(&format!(
        "\nCAS-class workload on the simulated Delta: 4096^2 transport grid,\n\
         50 sweeps on {} nodes ({} x {} decomposition): {:.2} s virtual,\n\
         {:.2} GFLOPS sustained, {} messages.\n",
        machine.config().nodes(),
        r.grid.0,
        r.grid.1,
        r.seconds,
        r.gflops,
        r.report.messages
    ));
    out
}

/// A simulated-FFT appendix for the ASTA communication-bound story.
pub fn fft_scaling() -> String {
    let mut t = Table::new(
        "ASTA appendix — distributed FFT on the simulated Delta (transpose algorithm)",
        &["Nodes", "N", "Time (ms)", "GFLOPS", "Compute fraction %"],
    );
    for (r, c) in [(4, 8), (8, 8), (8, 16), (16, 33)] {
        let m = Machine::new(presets::delta(r, c));
        let n = 1 << 20;
        let res = fftsim::run(&m, n);
        t.row(&[
            m.config().nodes().to_string(),
            "2^20".to_string(),
            fnum(res.seconds * 1e3, 1),
            fnum(res.gflops, 2),
            fnum(res.compute_fraction * 100.0, 1),
        ]);
    }
    format!("{t}\nShape check: compute fraction falls as nodes rise — FFT scaling is\ncommunication-limited on a 25 MB/s mesh.\n")
}

/// T4-4e: "ACQUIRE AND UTILIZE" — space-sharing the Delta among the
/// consortium partners: FCFS vs backfill on the 16×33 mesh.
pub fn scheduler() -> String {
    use delta_mesh::sched::run;
    let jobs = consortium_workload(300, 14, 90.0, 1992);
    let mut t = Table::new(
        "Exhibit T4-4e — Space-sharing the Delta (300 consortium jobs, 14 partners)",
        &[
            "Policy",
            "Utilization %",
            "Mean wait (min)",
            "Max wait (min)",
            "Frag. refusals",
            "Makespan (h)",
        ],
    );
    for policy in [Policy::Fcfs, Policy::Backfill] {
        let r = run(16, 33, jobs.clone(), policy);
        t.row(&[
            format!("{policy:?}"),
            fnum(r.utilization * 100.0, 1),
            fnum(r.mean_wait.as_secs_f64() / 60.0, 1),
            fnum(r.max_wait.as_secs_f64() / 60.0, 1),
            r.fragmentation_refusals.to_string(),
            fnum(r.makespan.as_secs_f64() / 3600.0, 2),
        ]);
    }
    format!(
        "{t}\nShape check: backfill lifts utilisation and cuts waits on the same\n\
         job stream — how the CSC actually kept 528 nodes busy.\n"
    )
}

/// Seeded node crashes on the 16x33 Delta at an MTBF of `k ×` the
/// arrival span of `tr`, over that span: about `528 / k` nodes die while
/// the stream is live, not in the drain tail.
fn crashes_over_span(tr: &delta_mesh::sched::service::ServiceTrace, k: f64) -> FaultPlan {
    let span_s = tr
        .subs
        .last()
        .map_or(0.0, |s| s.arrival.nanos() as f64 / 1e9);
    let mtbf = Dur::from_secs_f64(k * span_s);
    FaultPlan::seeded(1992, mtbf, 16 * 33, Dur::from_secs_f64(span_s))
}

/// SCHED-1: the long-running scheduler *service* on the same 528-node
/// Delta — admission control, per-tenant quotas, priority shed tiers,
/// and seeded retry/backoff across three operating regimes. Every
/// number is deterministic (fixed seeds). The same three regimes, timed
/// and checked on every pass, are the `sched_stream` workload of
/// `benchmark/`.
pub fn sched_service() -> String {
    use delta_mesh::sched::service::{self, ServiceConfig};
    use delta_mesh::service_workload;

    let mut t = Table::new(
        "Exhibit SCHED-1 — Scheduler service under steady load, 2x overload, and faults",
        &[
            "Scenario",
            "Submitted",
            "Completed",
            "Shed",
            "Quota rej.",
            "Retries",
            "Failed",
            "Util %",
            "p99 wait (min)",
            "Max queue",
        ],
    );
    // `mtbf_factor`: MTBF as a multiple of the stream's arrival span
    // (~528/k of the machine dies mid-run); `None` runs fault-free.
    let mut run = |name: &str, n: usize, load: f64, cfg: &ServiceConfig, mtbf: Option<f64>| {
        let tr = service_workload(n, 64, load, 16, 33, 1992);
        let plan = mtbf.map_or_else(FaultPlan::none, |k| crashes_over_span(&tr, k));
        let r = service::run_with_faults(&tr, cfg, &plan);
        t.row(&[
            name.into(),
            r.submitted.to_string(),
            r.completed.to_string(),
            r.shed_total().to_string(),
            r.quota_rejects.to_string(),
            r.retries.to_string(),
            r.failed.to_string(),
            fnum(r.utilization * 100.0, 1),
            fnum(r.p99_wait.nanos() as f64 / 60e9, 1),
            r.max_pending.to_string(),
        ]);
    };
    // The heavy-tailed shape mix caps packable utilization near two
    // thirds of the mesh, so 0.6x offered is "under capacity" and 2.0x
    // is a ~3x overload of the packable rate.
    run(
        "steady 0.6x",
        12_000,
        0.6,
        &ServiceConfig::new(16, 33),
        None,
    );
    let mut bounded = ServiceConfig::new(16, 33);
    bounded.pending_cap = 128;
    bounded.quota_default = 128;
    run("overload 2x", 8_000, 2.0, &bounded, None);
    run(
        "faulted 0.6x",
        12_000,
        0.6,
        &ServiceConfig::new(16, 33),
        Some(20.0),
    );
    format!(
        "{t}\nShape check: at 2x offered load the pending queue holds its 128-entry\n\
         cap and the excess is shed lowest-tier-first with typed errors; under\n\
         node crashes killed jobs retry on capped seeded backoff until the\n\
         budget ends. Zero-fault, unlimited-config runs replay the batch\n\
         scheduler bit-for-bit (`service_props::service_matches_batch_bit_for_bit`).\n"
    )
}

/// Ablation: what the Touchstone wormhole routers bought, and what the
/// long-message broadcast algorithm bought.
pub fn ablations() -> String {
    use delta_mesh::Comm;
    let mut t = Table::new(
        "Ablation — router and collective design choices on the Delta model",
        &[
            "Configuration",
            "1 MB bcast, 64 nodes (ms)",
            "LINPACK n=4000, 64n (GF)",
        ],
    );
    let bcast_ms = |cfg: MachineConfig| {
        let m = Machine::new(cfg);
        let (_, r) = m.run(|node| async move {
            let comm = Comm::world(&node);
            comm.bcast_virtual(0, 1 << 20).await;
        });
        r.elapsed.as_secs_f64() * 1e3
    };
    let lu_gf = |cfg: MachineConfig| lu2d::run(&Machine::new(cfg), 4_000, 32).gflops;
    t.row(&[
        "wormhole (production)".into(),
        fnum(bcast_ms(presets::delta(8, 8)), 2),
        fnum(lu_gf(presets::delta(8, 8)), 2),
    ]);
    t.row(&[
        "store-and-forward (ablated)".into(),
        fnum(bcast_ms(presets::delta_store_and_forward(8, 8)), 2),
        fnum(lu_gf(presets::delta_store_and_forward(8, 8)), 2),
    ]);
    format!(
        "{t}\nShape check: store-and-forward pays the serial message time per hop,\n\
         so both the broadcast and the factorisation degrade on the same wires.\n"
    )
}

/// The fault seed of RES-1 and OBS-1: `HPCC_FAULT_SEED`, 1992 when unset.
/// A value that is not a seed stops the command with the error and exit
/// status 2 rather than run a plan nobody asked for.
fn fault_seed() -> u64 {
    des::faults::seed_from_env(1992).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// RES-1: the fault model exercised end to end — Young's optimal
/// checkpoint interval on the LU run, scheduler utilization under node
/// crashes, and WAN flows surviving (or stalling on) link outages.
/// Every number replays from the printed seed (`HPCC_FAULT_SEED`).
pub fn resilience() -> String {
    use delta_mesh::sched::{run, run_with_faults};
    use nren_netsim::FlowOutcome;

    let seed = fault_seed();
    let mut out = String::new();
    out.push_str(&format!(
        "Exhibit RES-1 — Fault injection and recovery (seed {seed}; set HPCC_FAULT_SEED to vary)\n\n"
    ));

    // --- 1. Checkpoint interval vs MTBF on the LU run (Young 1974). ---
    let (mesh, n, nb, trials) = ((4, 4), 4_000, 64, 48);
    let machine = Machine::new(presets::delta(mesh.0, mesh.1));
    // Price one checkpoint, then sweep intervals around Young's optimum.
    let probe = lu2d::run_checkpointed(&machine, n, nb, 4);
    let base = lu2d::run(&machine, n, nb);
    let cost = (probe.result.seconds - base.seconds) / probe.ckpt_times_s.len().max(1) as f64;
    let mtbf_s = base.seconds * 0.4; // failures are a real hazard, not a tail event
    let opt = lu2d::young_optimal_interval(mtbf_s, cost);
    let factors = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let intervals: Vec<f64> = factors.iter().map(|f| f * opt).collect();
    let sweep = lu2d::resilience_sweep(&machine, n, nb, mtbf_s, &intervals, seed, trials);

    let mut t = Table::new(
        format!(
            "Checkpoint interval sweep — LU n={n} on {}x{} Delta model, MTBF {:.0} s, \
             ckpt cost {:.2} s",
            mesh.0, mesh.1, mtbf_s, cost
        ),
        &[
            "Interval (s)",
            "x Young opt",
            "Ckpts",
            "Fault-free (s)",
            "Mean w/ faults (s)",
            "Mean failures",
        ],
    );
    let best = sweep
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.mean_completion_s.total_cmp(&b.1.mean_completion_s))
        .map(|(i, _)| i)
        .unwrap();
    for (i, p) in sweep.iter().enumerate() {
        let mark = if i == best { " <- min" } else { "" };
        t.row(&[
            fnum(p.interval_s, 1),
            fnum(factors[i], 3),
            p.checkpoints.to_string(),
            fnum(p.run_seconds, 1),
            format!("{}{mark}", fnum(p.mean_completion_s, 1)),
            fnum(p.mean_failures, 2),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "\nShape check: expected completion has an interior minimum near Young's\n\
         sqrt(2 x MTBF x cost) = {opt:.1} s — checkpoint too often and the I/O\n\
         dominates, too rarely and each failure rolls back too much work.\n\n"
    ));

    // --- 2. Space-sharing under node crashes. ---
    // Per-node MTBF chosen so the 528-node machine sees a crash every
    // half hour or so — a Delta-era hazard rate, not a meltdown.
    let njobs = 300;
    let jobs = consortium_workload(njobs, 14, 90.0, 1992);
    let plan = FaultPlan::seeded(
        seed,
        Dur::from_secs(4_000_000),
        16 * 33,
        Dur::from_secs(12 * 3_600),
    );
    let mut t = Table::new(
        format!("Scheduler under node crashes — {njobs} consortium jobs, 16x33 mesh"),
        &[
            "Policy",
            "Utilization %",
            "Util lost %",
            "Jobs killed",
            "Nodes failed",
            "Unrunnable",
        ],
    );
    for policy in [Policy::Fcfs, Policy::Backfill] {
        let clean = run(16, 33, jobs.clone(), policy);
        let faulty = run_with_faults(16, 33, jobs.clone(), policy, &plan);
        assert!(
            faulty.utilization < clean.utilization,
            "faults must cost utilization"
        );
        t.row(&[
            format!("{policy:?} (fault-free {:.1}%)", clean.utilization * 100.0),
            fnum(faulty.utilization * 100.0, 1),
            fnum(faulty.utilization_lost_to_faults * 100.0, 2),
            faulty.jobs_killed.to_string(),
            faulty.nodes_failed.to_string(),
            faulty.unrunnable.len().to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: killed placements re-queue and re-run, so throughput survives\n\
         but utilization lands strictly below the fault-free run.\n\n",
    );

    // --- 3. WAN link outages: re-route or stall. ---
    let net = topologies::delta_consortium();
    let (jpl, delta, first_link) = staging_path(&net);
    let sim = FlowSim::new(&net);
    let spec = TransferSpec::new(jpl, delta, 200 << 20, SimTime::ZERO);
    let quiet = sim.run(vec![spec.clone()])[0].duration().as_secs_f64();
    let mut t = Table::new(
        "WAN outage on the JPL -> Delta staging path (200 MB transfer)",
        &["Scenario", "Outcome", "Time (s)"],
    );
    t.row(&["healthy".into(), "completed".into(), fnum(quiet, 2)]);
    for (label, up_at) in [
        ("outage, repaired at 30 s", SimTime::from_secs_f64(30.0)),
        ("outage, never repaired", SimTime::MAX),
    ] {
        let fault = staging_outage(first_link, up_at);
        let (outcomes, _) = sim.run_with_faults(vec![spec.clone()], &[fault]).unwrap();
        match &outcomes[0] {
            FlowOutcome::Completed(r) => {
                t.row(&[
                    label.into(),
                    format!("completed via {} hops", r.hops),
                    fnum(r.duration().as_secs_f64(), 2),
                ]);
            }
            FlowOutcome::Stalled {
                delivered,
                stalled_at,
                ..
            } => {
                t.row(&[
                    label.into(),
                    format!("STALLED ({:.0} MB through)", delivered / (1 << 20) as f64),
                    format!("at {}", fnum(stalled_at.as_secs_f64(), 2)),
                ]);
            }
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: live flows re-route around a cut when the graph allows it\n\
         and report Stalled — not a crash — when it partitions them.\n",
    );
    out
}

/// Site `name` of `net`, one of the built-in topologies.
fn site(net: &Net, name: &str) -> SiteId {
    // Every name looked up here is a site of the built-in topology it is
    // looked up in, so a miss is a typo in this file.
    net.site(name).expect("built-in topology has the site")
}

/// The JPL -> Delta staging path of RES-1 and OBS-1 on `net` (the
/// built-in `delta_consortium`): the two sites and the link its first
/// hop crosses.
fn staging_path(net: &Net) -> (SiteId, SiteId, usize) {
    let path = (|| {
        let (jpl, delta) = (net.site("JPL")?, net.site(topologies::DELTA_SITE)?);
        Some((jpl, delta, net.route(jpl, delta)?.dirs[0] / 2))
    })();
    // The consortium topology is built in: both sites exist and JPL
    // reaches the Delta in one or more hops.
    path.expect("delta_consortium links JPL to the Delta")
}

/// The outage RES-1 and OBS-1 put on the staging path's first-hop
/// `link` (the third value of [`staging_path`]): down at 0.5 s, up at
/// `up_at`.
fn staging_outage(link: usize, up_at: SimTime) -> LinkFault {
    LinkFault {
        link,
        down_at: SimTime::from_secs_f64(0.5),
        up_at,
    }
}

/// OBS-1: the tracing layer exercised end to end — a faulted LU-2D on
/// the mesh, the JPL -> Delta staging transfer under a WAN outage, and a
/// scheduler burst under node crashes, all recorded into one trace.
/// Writes `TRACE_chrome.json` (load in Perfetto / chrome://tracing: one
/// row per mesh node, channel, WAN flow, and link) and
/// `TRACE_summary.txt` (latency histograms, hottest links, per-node
/// busy-time breakdown).
pub fn trace() -> String {
    use hpcc_trace::MemRecorder;

    let seed = fault_seed();
    let rec = Rc::new(MemRecorder::new());
    let mut out = String::new();
    out.push_str(&format!(
        "Exhibit OBS-1 — End-to-end trace (seed {seed}; load TRACE_chrome.json in Perfetto)\n\n"
    ));

    // --- 1. Faulted LU-2D on the mesh under full recording: link 0 down
    // from 0.01 to 0.05 s, the last node 4x slow from 0.02 to 0.2 s. ---
    let (mesh, n, nb) = ((4, 4), 2_500, 32);
    let machine = Machine::new(presets::delta(mesh.0, mesh.1));
    let mut plan = FaultPlan::none();
    plan.push(
        SimTime::from_secs_f64(0.01),
        FaultKind::LinkDown {
            link: 0,
            until: SimTime::from_secs_f64(0.05),
        },
    );
    plan.push(
        SimTime::from_secs_f64(0.02),
        FaultKind::NodeSlow {
            node: mesh.0 * mesh.1 - 1,
            factor: 4.0,
            until: SimTime::from_secs_f64(0.2),
        },
    );
    let lu = lu2d::run_traced(&machine, n, nb, &plan, Rc::clone(&rec) as Rc<dyn Recorder>);
    let elapsed_ns = lu.result.report.elapsed.nanos();
    // The invariant the acceptance test pins: every node's busy + idle
    // time sums exactly to the simulated elapsed time.
    for row in rec.node_breakdown(elapsed_ns) {
        assert_eq!(row.total_ns(), elapsed_ns, "node {} breakdown", row.thread);
    }
    out.push_str(&format!(
        "LU-2D n={n} nb={nb} on {}x{} mesh with a transient link outage and a\n\
         4x node slowdown: {:.2} GFLOPS over {:.3} s simulated.\n",
        mesh.0, mesh.1, lu.result.gflops, lu.result.seconds
    ));

    // --- 2. WAN staging transfer under an outage (repaired at 30 s). ---
    let net = topologies::delta_consortium();
    let (jpl, delta, first_link) = staging_path(&net);
    let sim = FlowSim::new(&net);
    let spec = TransferSpec::new(jpl, delta, 200 << 20, SimTime::ZERO);
    let fault = staging_outage(first_link, SimTime::from_secs_f64(30.0));
    let (outcomes, _) = sim
        .run_with_faults_recorded(vec![spec], &[fault], &*rec)
        .unwrap();
    match &outcomes[0] {
        nren_netsim::FlowOutcome::Completed(r) => out.push_str(&format!(
            "WAN: 200 MB JPL -> Delta with the first-hop link cut at 0.5 s,\n\
             repaired at 30 s: completed via {} hops in {:.2} s.\n",
            r.hops,
            r.duration().as_secs_f64()
        )),
        nren_netsim::FlowOutcome::Stalled { .. } => out.push_str("WAN: transfer stalled.\n"),
    }

    // --- 3. Scheduler burst under node crashes: consortium jobs (14
    // partners, 60 s apart on average) backfilled on the 16x33 Delta,
    // per-node MTBF 1,500,000 s over 4 h. ---
    let njobs = 200;
    let jobs = consortium_workload(njobs, 14, 60.0, 1992);
    let plan = FaultPlan::seeded(
        seed,
        Dur::from_secs(1_500_000),
        16 * 33,
        Dur::from_secs(4 * 3_600),
    );
    let sr = run_recorded(16, 33, jobs, Policy::Backfill, &plan, &*rec);
    out.push_str(&format!(
        "Scheduler: {njobs} jobs, backfill, {} killed by crashes, \
         utilization {:.1}%.\n\n",
        sr.jobs_killed,
        sr.utilization * 100.0
    ));

    // --- Export both artifacts. ---
    let chrome = rec.to_chrome_json();
    hpcc_trace::json::parse(&chrome).expect("chrome exporter must emit valid JSON");
    let summary = rec.metrics_summary(Some(elapsed_ns));
    out.push_str(&summary);
    out.push('\n');
    for (path, content) in [
        ("TRACE_chrome.json", &chrome),
        ("TRACE_summary.txt", &summary),
    ] {
        match std::fs::write(path, content) {
            Ok(()) => out.push_str(&format!("wrote {path}\n")),
            Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
        }
    }
    out.push_str(&format!(
        "({} events on {} tracks)\n",
        rec.len(),
        rec.track_count()
    ));
    out
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

/// ASTA kernel profile: efficiency of each simulated kernel class on the
/// same 64-node Delta — the "not all codes scale" summary figure.
pub fn kernel_profile() -> String {
    use hpcc_kernels::sim::{cgsim, summa};
    let machine = Machine::new(presets::delta(8, 8));
    let peak = machine.config().peak_flops() / 1e9;
    let mut t = Table::new(
        "ASTA kernel profile — 64-node Delta model, % of machine peak sustained",
        &["Kernel", "GFLOPS", "% of peak", "Binding constraint"],
    );
    let summa = summa::run(&machine, 4_000, 64);
    t.row(&[
        "SUMMA matmul".into(),
        fnum(summa.gflops, 2),
        fnum(summa.efficiency * 100.0, 1),
        "dgemm kernel rate".into(),
    ]);
    let lu = lu2d::run(&machine, 4_000, 32);
    t.row(&[
        "LINPACK LU".into(),
        fnum(lu.gflops, 2),
        fnum(lu.efficiency * 100.0, 1),
        "panel critical path".into(),
    ]);
    let st = stencil::run_model(&machine, 2048, 50);
    t.row(&[
        "Jacobi stencil".into(),
        fnum(st.gflops, 2),
        fnum(st.gflops / peak * 100.0, 1),
        "memory-bound sweeps".into(),
    ]);
    let cg = cgsim::run(&machine, 1024, 50);
    t.row(&[
        "Conjugate gradient".into(),
        fnum(cg.gflops, 2),
        fnum(cg.gflops / peak * 100.0, 1),
        "allreduce latency".into(),
    ]);
    let ff = fftsim::run(&machine, 1 << 18);
    t.row(&[
        "Distributed FFT".into(),
        fnum(ff.gflops, 2),
        fnum(ff.gflops / peak * 100.0, 1),
        "all-to-all transpose".into(),
    ]);
    format!(
        "{t}\nShape check: a strict ordering SUMMA > LU >> stencil/CG/FFT — the\n\
         spread the ASTA software programme existed to attack.\n"
    )
}

/// The program timeline with the out-year gaps quantified.
pub fn timeline() -> String {
    use hpcc_core::timeline::{goals_1996, MILESTONES};
    let mut out = String::from("Program timeline (reconstructed from the deck's narrative):\n");
    for m in MILESTONES {
        out.push_str(&format!("  {}  [{:?}] {}\n", m.year, m.thread, m.what));
    }
    out.push_str(&format!(
        "\nDistance to the out-year goals at the time of the talk:\n  \
         teraops: {:.0}x beyond the Delta's 13 GFLOPS LINPACK\n  \
         gigabit NREN: {:.0}x beyond the NSFnet T3 backbone\n",
        goals_1996::compute_gap_from_delta(),
        goals_1996::network_gap_from_t3()
    ));
    out
}

/// The full exhibit list with reproduction status.
pub fn index() -> String {
    let mut t = Table::new(
        "Exhibit index (hpcc_core::exhibits registry)",
        &["Id", "Kind", "Report cmd", "Title"],
    );
    for e in hpcc_core::registry() {
        t.row(&[
            e.id.to_string(),
            format!("{:?}", e.kind),
            e.report_cmd.to_string(),
            e.title.chars().take(58).collect(),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funding_report_is_exact() {
        let s = funding();
        assert!(s.contains("654.8"));
        assert!(s.contains("802.9"));
        assert!(s.contains("232.2"));
        assert!(s.contains("exact match required"));
    }

    #[test]
    fn goals_and_responsibilities_render() {
        assert!(goals().contains("Extend U.S. leadership"));
        let r = responsibilities();
        assert!(r.contains("DARPA"));
        assert!(r.contains("teraops"));
    }

    #[test]
    fn delta_peak_matches_paper() {
        let s = delta_peak();
        assert!(s.contains("528"));
        assert!(s.contains("32.0"), "{s}");
    }

    #[test]
    fn components_sum_visible() {
        let s = components();
        assert!(s.contains("HPCS"));
        assert!(s.contains("reconstruction"));
    }

    #[test]
    fn index_covers_registry() {
        let s = index();
        for e in hpcc_core::registry() {
            assert!(s.contains(e.id), "{} missing", e.id);
        }
    }

    #[test]
    fn casa_table_shows_window_effect() {
        let s = casa();
        assert!(s.contains("64 KB"));
        assert!(s.contains("unlimited"));
    }

    #[test]
    fn nren_upgrade_monotone() {
        let s = nren_upgrade();
        assert!(s.contains("T1"));
        assert!(s.contains("Gigabit"));
    }

    // The heavyweight exhibits (delta_linpack, linpack_sweep, mpp_series,
    // consortium_net, cas) are covered by integration
    // tests and the report binary to keep unit-test time bounded.
}
