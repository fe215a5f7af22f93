//! Property-based tests (proptest) over the core invariants promised in
//! DESIGN.md: solver correctness, transform identities, conservation
//! laws, fairness axioms, and routing legality.

use delta_mesh::Topology;
use hpcc_kernels::cfd;
use hpcc_kernels::cg::{cg, Csr};
use hpcc_kernels::fft::{fft, ifft, Cpx};
use hpcc_kernels::lu::{lu_factor, lu_solve};
use hpcc_kernels::mat::Mat;
use hpcc_kernels::nbody;
use hpcc_kernels::shallow::Shallow;
use nren_netsim::{maxmin_rates, Net};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LU with partial pivoting solves every diagonally dominant system
    /// to near machine precision, at any block size.
    #[test]
    fn lu_solves_spd_systems(seed in 0u64..1000, n in 2usize..40, nb in 1usize..12) {
        let mut rng = des::rng::Rng::new(seed);
        let a = Mat::random_spd(n, &mut rng);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&xtrue);
        let mut f = a.clone();
        let piv = lu_factor(&mut f, nb).unwrap();
        let x = lu_solve(&f, &piv, &b);
        let err = x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        prop_assert!(err < 1e-8, "err {err}");
    }

    /// Blocked and unblocked LU produce identical pivots and factors.
    #[test]
    fn lu_block_size_invariance(seed in 0u64..500, n in 2usize..32) {
        let mut rng = des::rng::Rng::new(seed);
        let a = Mat::random(n, n, &mut rng);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        let (p1, p2) = (lu_factor(&mut f1, 1), lu_factor(&mut f2, 7));
        prop_assert_eq!(p1.is_ok(), p2.is_ok());
        if let (Ok(p1), Ok(p2)) = (p1, p2) {
            prop_assert_eq!(p1, p2);
            prop_assert!(f1.dist(&f2) < 1e-9);
        }
    }

    /// FFT∘IFFT is the identity for any power-of-two length and data.
    #[test]
    fn fft_roundtrip(logn in 1u32..10, seed in 0u64..1000) {
        let n = 1usize << logn;
        let mut rng = des::rng::Rng::new(seed);
        let orig: Vec<Cpx> = (0..n)
            .map(|_| Cpx::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0)))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    /// Parseval: the transform preserves energy (up to 1/n).
    #[test]
    fn fft_parseval(logn in 1u32..10, seed in 0u64..1000) {
        let n = 1usize << logn;
        let mut rng = des::rng::Rng::new(seed);
        let x: Vec<Cpx> = (0..n)
            .map(|_| Cpx::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect();
        let te: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let mut f = x;
        fft(&mut f);
        let fe: f64 = f.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() <= 1e-9 * te.max(1.0));
    }

    /// Shallow water conserves total mass for any grid size and horizon.
    #[test]
    fn shallow_mass_conservation(m in 4usize..40, steps in 1usize..60) {
        let mut sw = Shallow::new(m);
        let m0 = sw.total_mass();
        sw.run(steps, false);
        let drift = ((sw.total_mass() - m0) / m0).abs();
        prop_assert!(drift < 1e-11, "drift {drift}");
    }

    /// Direct N-body conserves momentum over any short run.
    #[test]
    fn nbody_momentum_conserved(n in 2usize..60, seed in 0u64..500, steps in 1usize..10) {
        let mut bodies = nbody::random_cluster(n, seed);
        let (px0, py0) = nbody::momentum(&bodies);
        for _ in 0..steps {
            nbody::step(&mut bodies, 1e-3, 0.05, nbody::Forces::Direct);
        }
        let (px1, py1) = nbody::momentum(&bodies);
        prop_assert!((px1 - px0).abs() < 1e-10 && (py1 - py0).abs() < 1e-10);
    }

    /// CG agrees with LU on arbitrary SPD systems.
    #[test]
    fn cg_matches_lu(seed in 0u64..300, n in 2usize..25) {
        let mut rng = des::rng::Rng::new(seed);
        let a_dense = Mat::random_spd(n, &mut rng);
        let triplets: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j, 0.0)))
            .map(|(i, j, _)| (i, j, a_dense[(i, j)]))
            .collect();
        let a_sparse = Csr::from_triplets(n, &triplets);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();

        let mut f = a_dense.clone();
        let piv = lu_factor(&mut f, 4).unwrap();
        let x_lu = lu_solve(&f, &piv, &b);

        let mut x_cg = vec![0.0; n];
        let res = cg(&a_sparse, &b, &mut x_cg, 1e-13, 10_000, false);
        prop_assert!(res.converged);
        for (p, q) in x_cg.iter().zip(&x_lu) {
            prop_assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }

    /// Jacobi and SOR agree on the solution of random Poisson problems.
    #[test]
    fn jacobi_sor_same_fixed_point(n in 4usize..16, seed in 0u64..200) {
        let mut rng = des::rng::Rng::new(seed);
        let mut rhs = cfd::Grid::new(n);
        for i in 1..=n {
            for j in 1..=n {
                rhs.set(i, j, rng.range_f64(-10.0, 10.0));
            }
        }
        let mut uj = cfd::Grid::new(n);
        let mut us = cfd::Grid::new(n);
        let cj = cfd::jacobi(&mut uj, &rhs, 1e-11, 200_000, false);
        let cs = cfd::sor(&mut us, &rhs, None, 1e-12, 200_000);
        prop_assert!(cj.converged && cs.converged);
        prop_assert!(uj.dist(&us) < 1e-6, "dist {}", uj.dist(&us));
    }

    /// Mesh/hypercube routing: the deterministic route always has
    /// hop-count length, stays within the link table, and never repeats
    /// a channel.
    #[test]
    fn routing_legality(rows in 1usize..8, cols in 1usize..8, a in 0usize..64, b in 0usize..64) {
        let topo = Topology::Mesh2D { rows, cols };
        let n = topo.nodes();
        let (a, b) = (a % n, b % n);
        let mut route = Vec::new();
        topo.route(a, b, &mut route);
        prop_assert_eq!(route.len(), topo.hops(a, b));
        let mut seen = std::collections::HashSet::new();
        for &l in &route {
            prop_assert!(l < topo.links());
            prop_assert!(seen.insert(l), "repeated channel");
        }
    }

    /// Max-min fairness axioms on random dumbbell-ish topologies:
    /// no link oversubscribed, no cap exceeded, and every flow is either
    /// capped or crosses a saturated link (Pareto optimality).
    #[test]
    fn maxmin_axioms(seed in 0u64..400, nflows in 1usize..12) {
        let mut rng = des::rng::Rng::new(seed);
        let mut net = Net::new();
        let sites: Vec<_> = (0..6).map(|i| net.add_site(format!("s{i}"))).collect();
        // A random connected chain plus chords.
        for w in sites.windows(2) {
            net.add_link(w[0], w[1], nren_netsim::LinkClass::T1, des::time::Dur::from_millis(5));
        }
        net.add_link(sites[0], sites[3], nren_netsim::LinkClass::T3, des::time::Dur::from_millis(8));
        net.add_link(sites[2], sites[5], nren_netsim::LinkClass::Ethernet10, des::time::Dur::from_millis(3));

        let routes: Vec<Vec<usize>> = (0..nflows)
            .map(|_| {
                let a = rng.below(6) as usize;
                let mut b = rng.below(6) as usize;
                while b == a { b = rng.below(6) as usize; }
                net.route(a, b).unwrap().dirs
            })
            .collect();
        let caps: Vec<f64> = (0..nflows)
            .map(|_| if rng.chance(0.3) { rng.range_f64(1e3, 1e6) } else { f64::INFINITY })
            .collect();
        let flows: Vec<(&[usize], f64)> = routes.iter().zip(&caps)
            .map(|(r, &c)| (r.as_slice(), c)).collect();
        let rates = maxmin_rates(&net, &flows);

        // Axiom 1: caps respected.
        for (r, c) in rates.iter().zip(&caps) {
            prop_assert!(*r <= c * 1.0001, "rate {r} > cap {c}");
            prop_assert!(*r > 0.0);
        }
        // Axiom 2: no directed link oversubscribed.
        for d in 0..net.dir_links() {
            let used: f64 = rates.iter().zip(&routes)
                .filter(|(_, route)| route.contains(&d))
                .map(|(r, _)| *r)
                .sum();
            prop_assert!(used <= net.capacity(d) * 1.0001, "link {d} over");
        }
        // Axiom 3 (Pareto): every flow is capped or bottlenecked.
        for (i, route) in routes.iter().enumerate() {
            let capped = rates[i] >= caps[i] * 0.999;
            let bottlenecked = route.iter().any(|&d| {
                let used: f64 = rates.iter().zip(&routes)
                    .filter(|(_, rt)| rt.contains(&d))
                    .map(|(r, _)| *r)
                    .sum();
                used >= net.capacity(d) * 0.999
            });
            prop_assert!(capped || bottlenecked, "flow {i} could grow");
        }
    }

    /// Funding arithmetic: any rescaling of the table keeps shares
    /// summing to 100% and growth consistent.
    #[test]
    fn funding_shares_sum(fy_sel in 0u8..2) {
        use hpcc_core::{Agency, FiscalYear, FundingTable};
        let fy = if fy_sel == 0 { FiscalYear::Fy1992 } else { FiscalYear::Fy1993 };
        let t = FundingTable::fy1992_93();
        let total: f64 = Agency::ALL.iter().map(|&a| t.share_pct(a, fy)).sum();
        prop_assert!((total - 100.0).abs() < 1e-9);
    }

    /// deterministic RNG streams never collide across seeds (smoke).
    #[test]
    fn rng_seed_separation(a in 0u64..5000, b in 0u64..5000) {
        prop_assume!(a != b);
        let mut ra = des::rng::Rng::new(a);
        let mut rb = des::rng::Rng::new(b);
        let same = (0..16).filter(|_| ra.next_u64() == rb.next_u64()).count();
        prop_assert!(same < 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed register-blocked GEMM engine agrees with the naive
    /// triple loop on arbitrary shapes — including dims that are not
    /// multiples of the MR/NR/KC tile parameters, degenerate 1×N / N×1
    /// strips, and empty matrices (the ranges start at 0).
    #[test]
    fn gemm_matches_naive_oracle(
        seed in 0u64..1000,
        m in 0usize..36,
        k in 0usize..280,
        n in 0usize..36,
    ) {
        use hpcc_kernels::gemm::{gemm, gemm_par};
        use hpcc_kernels::matmul::matmul_naive;
        let mut rng = des::rng::Rng::new(seed);
        let a = Mat::random(m, k, &mut rng);
        let b = Mat::random(k, n, &mut rng);
        let want = matmul_naive(&a, &b);
        let got = gemm(&a, &b);
        prop_assert!(want.dist(&got) < 1e-9, "seq m={m} k={k} n={n}: {}", want.dist(&got));
        let got_par = gemm_par(&a, &b);
        prop_assert_eq!(got, got_par, "parallel engine must be bit-identical");
    }

    /// LU through the GEMM-engine trailing update stays backward stable:
    /// ‖PA − LU‖/‖A‖ stays at roundoff across block sizes, for the
    /// sequential and the parallel path alike.
    #[test]
    fn lu_residual_small_all_block_sizes(
        seed in 0u64..500,
        n in 1usize..64,
        nb in 1usize..24,
        par_sel in 0u8..2,
    ) {
        use hpcc_kernels::lu::{lu_factor_par, lu_reconstruct};
        let par = par_sel == 1;
        let mut rng = des::rng::Rng::new(seed);
        let a = Mat::random(n, n, &mut rng);
        let mut f = a.clone();
        let piv = if par {
            lu_factor_par(&mut f, nb)
        } else {
            lu_factor(&mut f, nb)
        };
        let piv = match piv {
            Ok(p) => p,
            Err(_) => return Err(proptest::TestCaseRejection), // singular draw
        };
        let mut pa = a.clone();
        for (j, &p) in piv.iter().enumerate() {
            pa.swap_rows(j, p);
        }
        let rec = lu_reconstruct(&f);
        let rel = pa.dist(&rec) / pa.inf_norm().max(1e-300);
        prop_assert!(rel < 1e-10, "n={n} nb={nb} par={par} rel residual {rel}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault plan replays bit-identically: same seed, same
    /// model, same horizon -> the identical event list, and running a
    /// mesh program under it twice gives the identical trace.
    #[test]
    fn fault_plans_replay_bit_identically(
        seed in 0u64..10_000,
        node_mtbf_s in 1u64..5_000,
        link_mtbf_s in 1u64..5_000,
        horizon_s in 1u64..2_000,
    ) {
        use delta_mesh::{FaultPlan, MtbfModel};
        use des::time::Dur;

        let model = MtbfModel {
            node_mtbf: Some(Dur::from_secs(node_mtbf_s)),
            link_mtbf: Some(Dur::from_secs(link_mtbf_s)),
            link_repair: Dur::from_secs(5),
            ..MtbfModel::none()
        };
        let mk = || FaultPlan::seeded(seed, &model, 12, 17, Dur::from_secs(horizon_s));
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.events() == b.events(), "event lists diverged");
        prop_assert!(
            a.events().windows(2).all(|w| w[0].at <= w[1].at),
            "events not time-ordered"
        );

        // A different seed must not replay the same non-empty plan.
        if !a.is_empty() {
            let c = FaultPlan::seeded(seed ^ 0x5eed, &model, 12, 17, Dur::from_secs(horizon_s));
            prop_assert!(a.events() != c.events() || c.is_empty());
        }
    }

    /// Running a mesh program under the same fault plan twice produces
    /// the identical report — faults do not break determinism.
    #[test]
    fn faulted_mesh_runs_replay_bit_identically(seed in 0u64..2_000) {
        use delta_mesh::{presets, FaultPlan, Machine, MtbfModel};
        use des::time::Dur;

        let model = MtbfModel::node_crashes(Dur::from_secs(2));
        let plan = FaultPlan::seeded(seed, &model, 6, 7, Dur::from_secs(30));
        let m = Machine::new(presets::delta(2, 3));
        let go = || {
            m.run_with_faults(&plan, |node| async move {
                let mut acc = node.rank() as u64;
                for round in 0..20u64 {
                    let peer = (node.rank() + 1) % node.nranks();
                    let _ = node.try_send(peer, round, delta_mesh::Payload::Virtual(64)).await;
                    if let Ok(msg) = node
                        .recv_timeout(None, Some(round), Dur::from_millis(50))
                        .await
                    {
                        acc = acc.wrapping_add(msg.src as u64);
                    }
                    node.compute(delta_mesh::Kernel::Daxpy, 1.0e5).await;
                }
                acc
            })
        };
        let (ra, pa) = go();
        let (rb, pb) = go();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(pa.elapsed, pb.elapsed);
        prop_assert_eq!(pa.events, pb.events);
        prop_assert_eq!(pa.faults, pb.faults);
    }
}
