//! Cross-crate integration: the simulated machine, the kernels, and the
//! network stack working together — and agreeing with host-side
//! reference implementations.

use delta_mesh::{presets, Comm, Kernel, Machine, Payload};
use des::rng::Rng;
use hpcc_kernels::lu::{lu_factor, lu_solve};
use hpcc_kernels::mat::vecops::norm_inf;
use hpcc_kernels::mat::Mat;
use hpcc_kernels::sim::{lu1d, stencil};

/// The distributed LU on the simulated mesh solves the same systems the
/// host LU does, to LINPACK accuracy, across machine shapes and block
/// sizes.
#[test]
fn simulated_lu_verified_across_shapes() {
    for (rows, cols, n, nb) in [
        (1usize, 2usize, 20usize, 2usize),
        (2, 2, 40, 4),
        (2, 3, 36, 8),
    ] {
        let m = Machine::new(presets::delta(rows, cols));
        let r = lu1d::run(&m, n, nb, 2026);
        assert!(
            r.residual < 16.0,
            "{rows}x{cols} n={n} nb={nb}: residual {}",
            r.residual
        );
    }
}

/// Simulated halo-exchange Jacobi equals the host solver bit-for-bit on
/// every process-grid shape (including shapes that don't divide the grid).
#[test]
fn simulated_stencil_bitwise_matches_host() {
    for (rows, cols) in [(1usize, 2usize), (2, 2), (2, 3), (1, 5)] {
        let m = Machine::new(presets::delta(rows, cols));
        let r = stencil::run_verified(&m, 19, 35);
        assert_eq!(r.max_error, Some(0.0), "{rows}x{cols}");
    }
}

/// A full mini-workflow: factor on the simulated machine, then check the
/// same matrix against the host factorisation's solution.
#[test]
fn host_and_simulated_agree_on_the_answer() {
    // Build the deterministic matrix the simulated nodes generate, on
    // the host, and solve both ways.
    let n = 32;
    let seed = 77u64;
    let entry = |i: usize, j: usize| {
        let mut r = Rng::new(seed ^ ((i as u64) << 32) ^ j as u64);
        r.range_f64(-1.0, 1.0)
    };
    let a = Mat::from_fn(n, n, entry);
    let b: Vec<f64> = (0..n)
        .map(|i| {
            let mut r = Rng::new((seed + 1) ^ ((i as u64) << 32));
            r.range_f64(-1.0, 1.0)
        })
        .collect();

    // Host solution.
    let mut f = a.clone();
    let piv = lu_factor(&mut f, 4).unwrap();
    let x_host = lu_solve(&f, &piv, &b);
    let r_host = {
        let ax = a.matvec(&x_host);
        norm_inf(&ax.iter().zip(&b).map(|(p, q)| p - q).collect::<Vec<_>>())
    };

    // Simulated machine solves the same system (same generator).
    let m = Machine::new(presets::delta(2, 2));
    let r_sim = lu1d::run(&m, n, 4, seed);

    assert!(r_host < 1e-10, "host residual {r_host}");
    assert!(r_sim.residual < 16.0, "sim residual {}", r_sim.residual);
}

/// Collectives compose with compute across a realistic program: parallel
/// dot product of distributed vectors, checked against the host value.
#[test]
fn distributed_dot_product_matches_host() {
    let p = 6;
    let len = 300; // 50 elements per node
    let host: f64 = (0..len).map(|i| (i as f64) * (i as f64 + 1.0)).sum();
    let m = Machine::new(presets::delta(2, 3));
    let (outs, report) = m.run(move |node| async move {
        let comm = Comm::world(&node);
        let chunk = len / p;
        let lo = node.rank() * chunk;
        let local: f64 = (lo..lo + chunk)
            .map(|i| (i as f64) * (i as f64 + 1.0))
            .sum();
        node.compute(Kernel::Daxpy, 2.0 * chunk as f64).await;
        comm.allreduce_sum(&[local]).await[0]
    });
    for v in outs {
        assert_eq!(v, host);
    }
    assert!(report.elapsed.nanos() > 0);
}

/// The same node program produces identical *virtual-time* results on
/// repeated runs, but different machines disagree (they must — that is
/// the point of modelling three generations).
#[test]
fn virtual_time_depends_on_machine_not_host() {
    // Communication-heavy on identical i860 nodes: only the network
    // generation differs between the machines.
    let program = |node: delta_mesh::Node| async move {
        let comm = Comm::world(&node);
        node.compute(Kernel::Dgemm, 1.0e6).await;
        for _ in 0..4 {
            comm.bcast_virtual(0, 1 << 22).await;
        }
        comm.barrier().await;
    };
    let run = |m: &Machine| {
        let (_, r) = m.run(program);
        r.elapsed
    };
    let gamma = Machine::new(presets::ipsc860(4));
    let delta = Machine::new(presets::delta(4, 4));
    let t_gamma = run(&gamma);
    let t_delta = run(&delta);
    assert_eq!(t_gamma, run(&gamma), "deterministic replay");
    assert_eq!(t_delta, run(&delta), "deterministic replay");
    assert!(
        t_gamma > t_delta * 2,
        "iPSC {t_gamma} should be much slower than Delta {t_delta}"
    );
}

/// Payload variants interoperate: real data arrives intact while virtual
/// payloads only cost time.
#[test]
fn payload_kinds_roundtrip() {
    let m = Machine::new(presets::delta(1, 2));
    let (outs, report) = m.run(|node| async move {
        match node.rank() {
            0 => {
                node.send_f64s(1, 1, &[1.5, 2.5]).await;
                node.send(1, 2, Payload::Bytes(bytes::Bytes::from_static(b"hpcc")))
                    .await;
                node.send_virtual(1, 3, 1 << 20).await;
                0.0
            }
            1 => {
                let d = node.recv_f64s(Some(0), Some(1)).await;
                let b = node.recv(Some(0), Some(2)).await;
                let v = node.recv(Some(0), Some(3)).await;
                assert_eq!(b.payload.len_bytes(), 4);
                assert_eq!(v.payload.len_bytes(), 1 << 20);
                d[0] + d[1]
            }
            _ => 0.0,
        }
    });
    assert_eq!(outs[1], 4.0);
    assert_eq!(report.bytes, 16 + 4 + (1 << 20));
}

/// End-to-end consortium scenario: compute on the Delta model + network
/// staging composes into one number, and the network dominates for the
/// T1-attached partner (the cas_cfd example's claim).
#[test]
fn network_dominates_t1_partner_workflow() {
    use des::time::SimTime;
    use nren_netsim::{topologies, FlowSim, TransferSpec};

    let net = topologies::delta_consortium();
    let delta_site = net.site(topologies::DELTA_SITE).unwrap();
    let seat = net.site("NASA Ames").unwrap();
    let sim = FlowSim::new(&net);
    let field = 8 * 1024 * 1024u64;
    let stage = sim
        .single_flow_time(&TransferSpec::new(seat, delta_site, field, SimTime::ZERO))
        .unwrap()
        .as_secs_f64();

    let machine = Machine::new(presets::delta(8, 8));
    let solve = stencil::run_model(&machine, 1024, 50).seconds;
    assert!(
        stage > 5.0 * solve,
        "staging {stage}s vs solve {solve}s — T1 must dominate"
    );
}

/// The WAN engine's fast paths are invisible in its schedule: a fat-tree
/// fan-out (routing-heavy) and an NSFnet churn through a mid-run outage
/// (fill-, re-key- and re-route-heavy) finish every flow at the same
/// nanosecond under the default config, with every resolve checked
/// against the reference solver, and with a full re-solve whenever a
/// closure crosses a link (`full_fraction` 0.0).
#[test]
fn wan_engine_schedule_is_independent_of_solver_path() {
    use des::time::SimTime;
    use nren_netsim::{
        fat_tree, topologies, workload, FlowConfig, FlowOutcome, FlowSim, LinkClass, LinkFault,
        Net, TransferSpec,
    };

    let fab = fat_tree(4, LinkClass::Gigabit, LinkClass::Gig100, "t.");
    let fanout =
        workload::fan_out_traffic(&fab.hosts, 4, &mut Rng::new(14), 200, 1e6, SimTime::ZERO);
    let backbone = topologies::nsfnet(LinkClass::T3);
    let churn = workload::poisson_traffic(&backbone, &mut Rng::new(15), 12.0, 4e6, 30.0);
    let outage = [LinkFault {
        link: 7,
        down_at: SimTime::from_secs_f64(8.0),
        up_at: SimTime::from_secs_f64(20.0),
    }];

    let finishes = |net: &Net, cfg: FlowConfig, specs: &[TransferSpec], faults: &[LinkFault]| {
        let (outcomes, stats) = FlowSim::with_config(net, cfg)
            .run_with_faults(specs.to_vec(), faults)
            .unwrap();
        assert!(stats.routing.trees <= (net.sites() * (2 * faults.len() + 1)) as u64);
        outcomes
            .iter()
            .map(|o| match o {
                FlowOutcome::Completed(r) => r.finished,
                FlowOutcome::Stalled { .. } => panic!("the outage is repaired"),
            })
            .collect::<Vec<SimTime>>()
    };
    let default = FlowConfig::default();
    let verified = FlowConfig {
        verify: true,
        ..default
    };
    let fallback = FlowConfig {
        full_fraction: 0.0,
        ..default
    };
    for (net, specs, faults) in [
        (&fab.net, &fanout, &[][..]),
        (&backbone, &churn, &outage[..]),
    ] {
        let want = finishes(net, default, specs, faults);
        assert!(want.len() >= 200);
        assert_eq!(finishes(net, verified, specs, faults), want);
        assert_eq!(finishes(net, fallback, specs, faults), want);
    }
}

/// The netsim crate's tier-1 smoke, on the traffic `campaign` stages:
/// ~300 results leave the Delta for the partner sites, staggered, one
/// LINPACK panel each. Dozens crowd each 56 kb/s partner link, but a
/// closure behind one such link touches a few of the 38 directed links,
/// so the default solver never falls back; at `full_fraction` 0.05 it
/// takes both paths. Every flow finishes at the same nanosecond under
/// the default config, with every resolve checked against the reference
/// solver and at 0.05 — and checking changes none of the solver's
/// counters.
#[test]
fn consortium_staging_matches_the_reference_solver() {
    use des::time::SimTime;
    use nren_netsim::{topologies, FlowConfig, FlowSim, TransferSpec};

    let net = topologies::delta_consortium();
    let delta = net.site(topologies::DELTA_SITE).unwrap();
    let partners = topologies::partner_sites(&net);
    let mut rng = Rng::new(1992);
    let mut t = 0.0;
    let specs: Vec<TransferSpec> = (0..300)
        .map(|k| {
            t += rng.exp(0.05);
            let n = [512, 768, 1024][rng.below(3) as usize];
            let dst = partners[k % partners.len()];
            TransferSpec::new(delta, dst, 8 * 32 * n, SimTime::from_secs_f64(t))
        })
        .collect();
    let run = |cfg: FlowConfig| {
        let (records, stats) = FlowSim::with_config(&net, cfg).run_with_stats(specs.clone());
        let finished: Vec<u64> = records.iter().map(|r| r.finished.nanos()).collect();
        (finished, stats.solver)
    };
    let default = FlowConfig::default();
    let (want, stats) = run(default);
    let (verified, verified_stats) = run(FlowConfig {
        verify: true,
        ..default
    });
    let (eager, eager_stats) = run(FlowConfig {
        full_fraction: 0.05,
        ..default
    });
    assert_eq!(verified, want);
    assert_eq!(eager, want);
    assert_eq!(format!("{verified_stats:?}"), format!("{stats:?}"));
    assert_eq!(stats.full_resolves, 0, "{stats:?}");
    assert!(
        eager_stats.full_resolves > 0 && eager_stats.full_resolves < eager_stats.resolves,
        "{eager_stats:?}"
    );
}

/// One dispatch loop behind every mesh entry point: a halo exchange gives
/// the same outputs from `Machine::run`, from one lane and from two
/// lanes; the one-lane call *is* the single-queue engine (same results,
/// same report, no synchronization round, no mailbox traffic).
#[test]
fn mesh_entry_points_agree_at_one_and_two_lanes() {
    use delta_mesh::{FaultPlan, LaneStats, Node};

    const COLS: usize = 6;
    /// What `rank` sends each neighbour: one double from an even rank
    /// (held inside the message), three from an odd one (behind an
    /// `Arc`). Both kinds cross the lane cut, in both directions.
    fn body(rank: usize) -> Vec<f64> {
        vec![(rank * 10 + 1) as f64; 1 + 2 * (rank % 2)]
    }
    async fn halo(node: Node) -> f64 {
        let (me, n) = (node.rank(), node.nranks());
        let mut nbrs = Vec::new();
        if me >= COLS {
            nbrs.push(me - COLS);
        }
        if me + COLS < n {
            nbrs.push(me + COLS);
        }
        if me % COLS > 0 {
            nbrs.push(me - 1);
        }
        if (me + 1) % COLS > 0 {
            nbrs.push(me + 1);
        }
        node.compute(Kernel::Stencil, 1.0e5).await;
        for &nb in &nbrs {
            node.send_f64s(nb, me as u64, &body(me)).await;
        }
        let mut acc = 0.0;
        for &nb in &nbrs {
            let got = node.recv_f64s(Some(nb), Some(nb as u64)).await;
            assert_eq!(*got, body(nb)[..], "{nb} -> {me}");
            acc += got[0];
        }
        acc
    }

    let m = Machine::new(presets::delta(8, COLS));
    let clean = FaultPlan::none();
    let (base, _) = m.run(halo);
    let base: Vec<Option<f64>> = base.into_iter().map(Some).collect();
    let single = m.run_with_faults(&clean, halo);
    let (out1, report1, stats1) = m.run_sharded_stats(1, &clean, halo);
    let (out2, report2, stats2) = m.run_sharded_stats(2, &clean, halo);

    assert_eq!(base, single.0);
    assert_eq!((out1, report1.clone()), single);
    assert_eq!(
        stats1,
        LaneStats {
            lanes: 1,
            rounds: 0,
            events: report1.events,
            mail_msgs: 0,
            per_lane_events: vec![report1.events],
        }
    );
    assert_eq!(out2, base);
    assert_eq!(report2.messages, report1.messages);
    assert_eq!(stats2.lanes, 2);
    // One row of six columns sends up and one sends down across the cut.
    assert_eq!(stats2.mail_msgs, 2 * COLS as u64);
    assert!(stats2.rounds > 0);
}

/// The trace crate's tier-1 smoke: the same small LU under each of the
/// three recorders. Recording observes without perturbing (equal
/// results), the buffered recorder's Chrome export parses and its
/// per-node breakdown sums to the elapsed time, and the streaming
/// recorder's ledger accounts for every event.
#[test]
fn recorders_observe_without_perturbing() {
    use delta_mesh::FaultPlan;
    use hpcc_kernels::sim::lu2d;
    use hpcc_trace::{json, MemRecorder, NullRecorder, Recorder, StreamRecorder};
    use std::rc::Rc;
    use std::sync::Arc;

    let machine = Machine::new(presets::delta(2, 2));
    let run =
        |rec: Rc<dyn Recorder>| lu2d::run_traced(&machine, 128, 16, &FaultPlan::none(), rec).result;
    let mem = Rc::new(MemRecorder::new());
    let stream = Arc::new(StreamRecorder::with_ring(16, 4));
    let plain = run(Rc::new(NullRecorder));
    for rec in [
        Rc::clone(&mem) as Rc<dyn Recorder>,
        Rc::new(Arc::clone(&stream)),
    ] {
        assert_eq!(format!("{:?}", run(rec)), format!("{plain:?}"));
    }

    let chrome = mem.to_chrome_json();
    let doc = json::parse(&chrome).expect("the Chrome export is valid JSON");
    let rows = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .unwrap();
    assert!(
        rows.len() > mem.len(),
        "every event plus the track metadata"
    );
    let elapsed_ns = plain.report.elapsed.nanos();
    let breakdown = mem.node_breakdown(elapsed_ns);
    assert_eq!(breakdown.len(), 4);
    for row in breakdown {
        assert_eq!(row.total_ns(), elapsed_ns, "{}", row.thread);
    }

    let snap = stream.metrics_snapshot();
    assert_eq!(snap.events_total, mem.len() as u64);
    assert_eq!(
        snap.events_total,
        snap.spans_total + snap.counters_total + snap.instants_total
    );
    assert_eq!(
        snap.events_total,
        snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events
    );
    assert!(snap.ring.evicted_events > 0, "a 64-event ring must wrap");
}

/// The host kernels' fast paths against their references, at sizes the
/// crate's own tests do not share: the packed SpMV plan equals the CSR
/// row loop bit for bit, and CG agrees with a dense LU solve.
#[test]
fn kernels_fast_paths_agree_with_their_references() {
    use hpcc_kernels::cg::{cg, Csr, SpmvPlan};
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let a = Csr::poisson2d(13);
    let mut rng = Rng::new(22);
    let x: Vec<f64> = (0..a.n()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let (mut y_csr, mut y_plan) = (vec![0.0; a.n()], vec![0.0; a.n()]);
    a.spmv(&x, &mut y_csr);
    SpmvPlan::new(&a).spmv(&x, &mut y_plan);
    assert_eq!(bits(&y_csr), bits(&y_plan));

    let g = 5;
    let a = Csr::poisson2d(g);
    let b: Vec<f64> = (0..a.n()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let mut x = vec![0.0; a.n()];
    assert!(cg(&a, &b, &mut x, 1e-13, 1_000, false).converged);
    let mut dense = Mat::from_fn(a.n(), a.n(), |i, j| {
        let (di, dj) = ((i / g).abs_diff(j / g), (i % g).abs_diff(j % g));
        match di + dj {
            0 => 4.0,
            1 => -1.0,
            _ => 0.0,
        }
    });
    let piv = lu_factor(&mut dense, 8).unwrap();
    for (p, q) in x.iter().zip(&lu_solve(&dense, &piv, &b)) {
        assert!((p - q).abs() < 1e-10, "{p} vs {q}");
    }
}

/// The scheduler's two implementations on one small stream: under
/// `ServiceConfig::batch_equivalent` and no faults, the service places
/// every job where and when the batch scheduler does, under both
/// policies, and its node-time ledger balances exactly, its useful share
/// being the batch schedule's node-seconds.
#[test]
fn scheduler_service_matches_batch_on_a_small_stream() {
    use delta_mesh::sched::{self, service};
    use delta_mesh::{FaultPlan, Policy};
    let (rows, cols) = (16, 33);
    let stream = service::service_workload(40, 6, 0.7, rows, cols, 1992);
    for policy in [Policy::Fcfs, Policy::Backfill] {
        let none = FaultPlan::none();
        let batch = sched::run_with_faults(rows, cols, stream.as_jobs(), policy, &none);
        let cfg = service::ServiceConfig::batch_equivalent(rows, cols, policy);
        let svc = service::run_with_faults(&stream, &cfg, &none);
        assert_eq!((svc.completed, batch.jobs), (40, 40), "{policy:?}");
        assert_eq!(svc.makespan, batch.makespan, "{policy:?}");
        assert_eq!(svc.records, batch.records, "{policy:?}");
        let ledger = svc.node_time;
        assert!(ledger.balanced(), "{policy:?}: {ledger:?}");
        let useful: u128 = batch
            .records
            .iter()
            .map(|r| r.job.nodes() as u128 * u128::from(r.job.runtime.nanos()))
            .sum();
        assert_eq!(ledger.useful, useful, "{policy:?}");
        assert_eq!(
            ledger.total,
            (rows * cols) as u128 * u128::from(svc.span.nanos())
        );
        assert_eq!(ledger.lost_to_kills + ledger.dead, 0, "{policy:?}");
    }
}
