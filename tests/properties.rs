//! Property tests over the core invariants promised in DESIGN.md: solver
//! correctness, transform identities, conservation laws, fairness
//! axioms, and routing legality.
//!
//! Each property is a plain loop over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first. Libtest shows a test's output
//! only when it fails, so the last `case …` line names the failing case,
//! which replays from `K` and its index alone.

use delta_mesh::Topology;
use des::rng::Rng;
use des::time::Dur;
use hpcc_kernels::cfd;
use hpcc_kernels::cg::{cg, Csr};
use hpcc_kernels::fft::{fft, ifft, Cpx};
use hpcc_kernels::lu::{lu_factor, lu_solve};
use hpcc_kernels::mat::Mat;
use hpcc_kernels::nbody;
use hpcc_kernels::shallow::Shallow;
use nren_netsim::{maxmin_rates, LinkClass, Net};

/// LU with partial pivoting solves every diagonally dominant system
/// to near machine precision, at any block size (24 cases).
#[test]
fn lu_solves_spd_systems() {
    for case in 0..24 {
        let mut rng = Rng::new(0x05D5_0001 ^ case);
        let n = rng.range_u64(2, 39) as usize;
        let nb = rng.range_u64(1, 11) as usize;
        println!("case {case}: n {n} nb {nb}");
        let a = Mat::random_spd(n, &mut rng);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&xtrue);
        let mut f = a.clone();
        let piv = lu_factor(&mut f, nb).unwrap();
        let x = lu_solve(&f, &piv, &b);
        for (p, q) in x.iter().zip(&xtrue) {
            assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
    }
}

/// Blocked and unblocked LU produce identical pivots and factors
/// (24 cases).
#[test]
fn lu_block_size_invariance() {
    for case in 0..24 {
        let mut rng = Rng::new(0xB10C_0002 ^ case);
        let n = rng.range_u64(2, 31) as usize;
        println!("case {case}: n {n}");
        let a = Mat::random(n, n, &mut rng);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        let (p1, p2) = (lu_factor(&mut f1, 1), lu_factor(&mut f2, 7));
        assert_eq!(p1.is_ok(), p2.is_ok());
        if let (Ok(p1), Ok(p2)) = (p1, p2) {
            assert_eq!(p1, p2);
            assert!(f1.dist(&f2) < 1e-9);
        }
    }
}

/// FFT∘IFFT is the identity for any power-of-two length and data
/// (24 cases).
#[test]
fn fft_roundtrip() {
    for case in 0..24 {
        let mut rng = Rng::new(0x0FF7_0003 ^ case);
        let logn = rng.range_u64(1, 9);
        println!("case {case}: logn {logn}");
        let n = 1usize << logn;
        let orig: Vec<Cpx> = (0..n)
            .map(|_| Cpx::new(rng.range_f64(-5.0, 5.0), rng.range_f64(-5.0, 5.0)))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }
}

/// Parseval: the transform preserves energy, up to 1/n (24 cases).
#[test]
fn fft_parseval() {
    for case in 0..24 {
        let mut rng = Rng::new(0x0FF7_0004 ^ case);
        let logn = rng.range_u64(1, 9);
        println!("case {case}: logn {logn}");
        let n = 1usize << logn;
        let x: Vec<Cpx> = (0..n)
            .map(|_| Cpx::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect();
        let te: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let mut f = x;
        fft(&mut f);
        let fe: f64 = f.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / n as f64;
        assert!((te - fe).abs() <= 1e-9 * te.max(1.0));
    }
}

/// Shallow water conserves total mass for any grid size and horizon
/// (24 cases).
#[test]
fn shallow_mass_conservation() {
    for case in 0..24 {
        let mut rng = Rng::new(0x5AA1_0005 ^ case);
        let m = rng.range_u64(4, 39) as usize;
        let steps = rng.range_u64(1, 59) as usize;
        println!("case {case}: m {m} steps {steps}");
        let mut sw = Shallow::new(m);
        let m0 = sw.total_mass();
        sw.run(steps, false);
        let drift = ((sw.total_mass() - m0) / m0).abs();
        assert!(drift < 1e-11, "drift {drift}");
    }
}

/// Direct N-body conserves momentum over any short run (24 cases).
#[test]
fn nbody_momentum_conserved() {
    for case in 0..24 {
        let mut rng = Rng::new(0xB0D1_0006 ^ case);
        let n = rng.range_u64(2, 59) as usize;
        let seed = rng.below(500);
        let steps = rng.range_u64(1, 9);
        println!("case {case}: n {n} seed {seed} steps {steps}");
        let mut bodies = nbody::random_cluster(n, seed);
        let (px0, py0) = nbody::momentum(&bodies);
        for _ in 0..steps {
            nbody::step(&mut bodies, 1e-3, 0.05, nbody::Forces::Direct);
        }
        let (px1, py1) = nbody::momentum(&bodies);
        assert!((px1 - px0).abs() < 1e-10 && (py1 - py0).abs() < 1e-10);
    }
}

/// CG agrees with LU on arbitrary SPD systems (24 cases).
#[test]
fn cg_matches_lu() {
    for case in 0..24 {
        let mut rng = Rng::new(0x00C6_0007 ^ case);
        let n = rng.range_u64(2, 24) as usize;
        println!("case {case}: n {n}");
        let a_dense = Mat::random_spd(n, &mut rng);
        let triplets: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, a_dense[(i, j)]))
            .collect();
        let a_sparse = Csr::from_triplets(n, &triplets);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();

        let mut f = a_dense.clone();
        let piv = lu_factor(&mut f, 4).unwrap();
        let x_lu = lu_solve(&f, &piv, &b);

        let mut x_cg = vec![0.0; n];
        let res = cg(&a_sparse, &b, &mut x_cg, 1e-13, 10_000, false);
        assert!(res.converged);
        for (p, q) in x_cg.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }
}

/// Jacobi and SOR agree on the solution of random Poisson problems
/// (24 cases).
#[test]
fn jacobi_sor_same_fixed_point() {
    for case in 0..24 {
        let mut rng = Rng::new(0x050B_0008 ^ case);
        let n = rng.range_u64(4, 15) as usize;
        println!("case {case}: n {n}");
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
        assert!(cj.converged && cs.converged);
        assert!(uj.dist(&us) < 1e-6, "dist {}", uj.dist(&us));
    }
}

/// Mesh routing: the deterministic route always has hop-count length,
/// stays within the link table, and never repeats a channel (24 cases).
#[test]
fn routing_legality() {
    for case in 0..24 {
        let mut rng = Rng::new(0x2007_0009 ^ case);
        let rows = rng.range_u64(1, 7) as usize;
        let cols = rng.range_u64(1, 7) as usize;
        let topo = Topology::Mesh2D { rows, cols };
        let n = topo.nodes();
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        println!("case {case}: rows {rows} cols {cols} a {a} b {b}");
        let mut route = Vec::new();
        topo.route(a, b, &mut route);
        assert_eq!(route.len(), topo.hops(a, b));
        let mut seen = std::collections::HashSet::new();
        for &l in &route {
            assert!(l < topo.links());
            assert!(seen.insert(l), "repeated channel");
        }
    }
}

/// Max-min fairness axioms for random flow sets on a six-site chain with
/// chords: no link oversubscribed, no cap exceeded, and every flow is
/// either capped or crosses a saturated link, i.e. Pareto optimal
/// (24 cases).
#[test]
fn maxmin_axioms() {
    let mut net = Net::new();
    let sites: Vec<_> = (0..6).map(|i| net.add_site(format!("s{i}"))).collect();
    for w in sites.windows(2) {
        net.add_link(w[0], w[1], LinkClass::T1, Dur::from_millis(5));
    }
    net.add_link(sites[0], sites[3], LinkClass::T3, Dur::from_millis(8));
    net.add_link(
        sites[2],
        sites[5],
        LinkClass::Ethernet10,
        Dur::from_millis(3),
    );
    for case in 0..24 {
        let mut rng = Rng::new(0x03A3_000A ^ case);
        let nflows = rng.range_u64(1, 11) as usize;
        println!("case {case}: nflows {nflows}");
        let routes: Vec<Vec<usize>> = (0..nflows)
            .map(|_| {
                let a = rng.below(6);
                let b = (a + 1 + rng.below(5)) % 6; // one of the other five
                net.route(a as usize, b as usize).unwrap().dirs
            })
            .collect();
        let caps: Vec<f64> = (0..nflows)
            .map(|_| {
                if rng.chance(0.3) {
                    rng.range_f64(1e3, 1e6)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let flows: Vec<(&[usize], f64)> = routes
            .iter()
            .zip(&caps)
            .map(|(r, &c)| (r.as_slice(), c))
            .collect();
        let rates = maxmin_rates(&net, &flows);
        let mut used = vec![0.0; net.dir_links()];
        for (route, r) in routes.iter().zip(&rates) {
            for &d in route {
                used[d] += r;
            }
        }

        // Axiom 1: caps respected.
        for (r, c) in rates.iter().zip(&caps) {
            assert!(*r <= c * 1.0001, "rate {r} > cap {c}");
            assert!(*r > 0.0);
        }
        // Axiom 2: no directed link oversubscribed.
        for (d, u) in used.iter().enumerate() {
            assert!(*u <= net.capacity(d) * 1.0001, "link {d} over");
        }
        // Axiom 3 (Pareto): every flow is capped or bottlenecked.
        for (i, route) in routes.iter().enumerate() {
            let capped = rates[i] >= caps[i] * 0.999;
            let bottlenecked = route.iter().any(|&d| used[d] >= net.capacity(d) * 0.999);
            assert!(capped || bottlenecked, "flow {i} could grow");
        }
    }
}

/// Funding arithmetic: the agency shares sum to 100% in both fiscal
/// years of the table (its whole domain, 2 cases).
#[test]
fn funding_shares_sum() {
    use hpcc_core::{Agency, FiscalYear, FundingTable};
    let t = FundingTable::fy1992_93();
    for fy in [FiscalYear::Fy1992, FiscalYear::Fy1993] {
        let total: f64 = Agency::ALL.iter().map(|&a| t.share_pct(a, fy)).sum();
        assert!((total - 100.0).abs() < 1e-9, "{fy:?}: {total}");
    }
}

/// Deterministic RNG streams never collide across two distinct seeds
/// below 5,000 (24 cases, smoke).
#[test]
fn rng_seed_separation() {
    for case in 0..24 {
        let mut rng = Rng::new(0x5EED_000C ^ case);
        let a = rng.below(5000);
        // One of the 4,999 seeds that are not `a`.
        let b = (a + 1 + rng.below(4999)) % 5000;
        println!("case {case}: a {a} b {b}");
        let mut ra = Rng::new(a);
        let mut rb = Rng::new(b);
        let same = (0..16).filter(|_| ra.next_u64() == rb.next_u64()).count();
        assert!(same < 2);
    }
}

/// The packed register-blocked GEMM engine agrees with the naive triple
/// loop on arbitrary shapes, including dims that are not multiples of
/// the MR/NR/KC tile parameters, degenerate 1×N / N×1 strips, and empty
/// matrices, the ranges starting at 0 (32 cases).
#[test]
fn gemm_matches_naive_oracle() {
    use hpcc_kernels::gemm::{gemm, gemm_par};
    use hpcc_kernels::matmul::matmul_naive;
    for case in 0..32 {
        let mut rng = Rng::new(0x6E33_000D ^ case);
        let m = rng.below(36) as usize;
        let k = rng.below(280) as usize;
        let n = rng.below(36) as usize;
        println!("case {case}: m {m} k {k} n {n}");
        let a = Mat::random(m, k, &mut rng);
        let b = Mat::random(k, n, &mut rng);
        let want = matmul_naive(&a, &b);
        let got = gemm(&a, &b);
        let dist = want.dist(&got);
        assert!(dist < 1e-9, "seq m={m} k={k} n={n}: {dist}");
        let got_par = gemm_par(&a, &b);
        assert_eq!(got, got_par, "parallel engine must be bit-identical");
    }
}

/// LU through the GEMM-engine trailing update stays backward stable:
/// ‖PA − LU‖/‖A‖ stays at roundoff across block sizes, for the
/// sequential and the parallel path alike (32 cases, both paths on
/// each; a singular draw is skipped, and at least 24 must be checked).
#[test]
fn lu_residual_small_all_block_sizes() {
    use hpcc_kernels::lu::{lu_factor_par, lu_reconstruct};
    const CASES: u64 = 32;
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0x1D25_000E ^ case);
        let n = rng.range_u64(1, 63) as usize;
        let nb = rng.range_u64(1, 23) as usize;
        println!("case {case}: n {n} nb {nb}");
        let a = Mat::random(n, n, &mut rng);
        let mut f = a.clone();
        let Ok(piv) = lu_factor(&mut f, nb) else {
            continue; // singular draw
        };
        checked += 1;
        let mut f_par = a.clone();
        let piv_par = lu_factor_par(&mut f_par, nb).expect("par factors what seq factors");
        for (par, f, piv) in [(false, f, piv), (true, f_par, piv_par)] {
            let mut pa = a.clone();
            for (j, &p) in piv.iter().enumerate() {
                pa.swap_rows(j, p);
            }
            let rec = lu_reconstruct(&f);
            let rel = pa.dist(&rec) / pa.inf_norm().max(1e-300);
            assert!(rel < 1e-10, "n={n} nb={nb} par={par} rel residual {rel}");
        }
    }
    assert!(
        checked >= CASES - CASES / 4,
        "only {checked} of {CASES} cases were non-singular"
    );
}

/// Any seeded crash plan replays bit-identically: same seed, same MTBF,
/// same horizon give the identical, time-ordered event list, and another
/// seed does not replay a non-empty plan (24 cases).
#[test]
fn fault_plans_replay_bit_identically() {
    use delta_mesh::FaultPlan;
    for case in 0..24 {
        let mut rng = Rng::new(0xFA17_000F ^ case);
        let seed = rng.below(10_000);
        let node_mtbf_s = rng.range_u64(1, 4_999);
        let horizon_s = rng.range_u64(1, 1_999);
        println!("case {case}: seed {seed} node_mtbf_s {node_mtbf_s} horizon_s {horizon_s}");

        let (mtbf, horizon) = (Dur::from_secs(node_mtbf_s), Dur::from_secs(horizon_s));
        let mk = || FaultPlan::seeded(seed, mtbf, 12, horizon);
        let a = mk();
        let b = mk();
        assert_eq!(a.len(), b.len());
        assert!(a.events() == b.events(), "event lists diverged");
        assert!(
            a.events().windows(2).all(|w| w[0].at <= w[1].at),
            "events not time-ordered"
        );

        // A different seed must not replay the same non-empty plan.
        if !a.is_empty() {
            let c = FaultPlan::seeded(seed ^ 0x5eed, mtbf, 12, horizon);
            assert!(a.events() != c.events() || c.is_empty());
        }
    }
}

/// Running a mesh program under the same fault plan twice produces the
/// identical report: faults do not break determinism (24 cases).
#[test]
fn faulted_mesh_runs_replay_bit_identically() {
    use delta_mesh::{presets, FaultPlan, Machine};
    for case in 0..24 {
        let mut rng = Rng::new(0xFA17_0010 ^ case);
        let seed = rng.below(2_000);
        println!("case {case}: seed {seed}");

        let plan = FaultPlan::seeded(seed, Dur::from_secs(2), 6, Dur::from_secs(30));
        let m = Machine::new(presets::delta(2, 3));
        let go = || {
            m.run_with_faults(&plan, |node| async move {
                let mut acc = node.rank() as u64;
                for round in 0..20u64 {
                    let peer = (node.rank() + 1) % node.nranks();
                    let _ = node
                        .try_send(peer, round, delta_mesh::Payload::Virtual(64))
                        .await;
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
        assert_eq!(ra, rb);
        assert_eq!(pa.elapsed, pb.elapsed);
        assert_eq!(pa.events, pb.events);
        assert_eq!(pa.faults, pb.faults);
    }
}
