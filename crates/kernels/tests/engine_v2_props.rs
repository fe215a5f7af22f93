//! Property tests for the kernel engine v2: the SIMD fast paths must be
//! equivalent to their portable fallbacks everywhere — bit-identical
//! where the seed's tests assert exact results (SpMV, shallow water,
//! FFT dispatch), and within factorisation tolerance where the packed
//! TRSM/panel kernels are allowed to fuse FMAs (LU).

use des::rng::Rng;
use hpcc_kernels::{cg, fft, lu, mat::Mat, shallow};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LU: the dispatched engine (AVX2 TRSM + panel where available)
    /// agrees with the pinned-portable engine at every block width —
    /// same pivot sequence, factors within the 1e-10 residual budget
    /// the FMA fusion is allowed — and the parallel variant is
    /// bit-identical to sequential. A whole-matrix block (nb ≥ n)
    /// cross-checks the blocking itself.
    #[test]
    fn lu_simd_matches_portable_across_widths(
        n in 24usize..140,
        nb in 4usize..72,
        seed in 0u64..1_000,
    ) {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(5));
        let a = Mat::random(n, n, &mut rng);

        let mut fd = a.clone();
        let mut fp = a.clone();
        let mut fr = a.clone();
        let pd = match lu::lu_factor(&mut fd, nb) {
            Ok(p) => p,
            Err(_) => { prop_assume!(false); unreachable!() }
        };
        let pp = lu::lu_factor_portable(&mut fp, nb).unwrap();
        let pr = lu::lu_factor_portable(&mut fr, n).unwrap();
        prop_assert_eq!(&pd, &pp, "pivots: dispatched vs portable");
        prop_assert_eq!(&pd, &pr, "pivots: blocked vs single block");
        let scale = n as f64;
        prop_assert!(fd.dist(&fp) <= 1e-10 * scale, "dispatched vs portable: {}", fd.dist(&fp));
        prop_assert!(fd.dist(&fr) <= 1e-9 * scale, "blocked vs single block: {}", fd.dist(&fr));

        let mut fs = a.clone();
        let mut fpar = a.clone();
        let ps = lu::lu_factor(&mut fs, nb).unwrap();
        let ppar = lu::lu_factor_par(&mut fpar, nb).unwrap();
        prop_assert_eq!(ps, ppar, "pivots: par vs seq");
        prop_assert_eq!(fs.as_slice(), fpar.as_slice(), "par is bit-identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FFT: forward/inverse round-trips recover the input across
    /// non-power-sized batches of power-of-two lengths, and the
    /// dispatched transform is bit-identical to the pinned-portable
    /// one on every batch entry.
    #[test]
    fn fft_roundtrip_on_nonpower_batches(
        logn in 2u32..12,
        batch in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let n = 1usize << logn;
        let mut rng = Rng::new(seed.wrapping_mul(0x517C_C1B7).wrapping_add(9));
        for _ in 0..batch {
            let orig: Vec<fft::Cpx> = (0..n)
                .map(|_| fft::Cpx::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect();

            let mut x = orig.clone();
            fft::fft(&mut x);
            let mut p = orig.clone();
            fft::fft_portable(&mut p);
            for (a, b) in x.iter().zip(&p) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "dispatch == portable");
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }

            fft::ifft(&mut x);
            let tol = 1e-12 * n as f64;
            for (a, b) in x.iter().zip(&orig) {
                prop_assert!((a.re - b.re).abs() <= tol, "round-trip re: {} vs {}", a.re, b.re);
                prop_assert!((a.im - b.im).abs() <= tol, "round-trip im: {} vs {}", a.im, b.im);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SpMV: the interleaved packed plan reproduces the CSR row loop
    /// bit-for-bit on random sparse matrices (including empty rows and
    /// duplicate entries), sequentially and in parallel.
    #[test]
    fn spmv_plan_is_exactly_csr(
        n in 1usize..160,
        fill in 0usize..6,
        seed in 0u64..1_000,
    ) {
        let mut rng = Rng::new(seed.wrapping_mul(0xA24B_AED4).wrapping_add(3));
        let mut triplets = Vec::new();
        for _ in 0..n * fill {
            let i = rng.below(n as u64) as usize;
            let j = rng.below(n as u64) as usize;
            triplets.push((i, j, rng.next_f64() * 2.0 - 1.0));
        }
        let a = cg::Csr::from_triplets(n, &triplets);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();

        let mut y_csr = vec![0.0; n];
        a.spmv(&x, &mut y_csr);
        let plan = cg::SpmvPlan::new(&a);
        let mut y_plan = vec![0.0; n];
        plan.spmv(&x, &mut y_plan);
        prop_assert_eq!(&y_csr, &y_plan, "plan == csr row loop");
        let mut y_par = vec![0.0; n];
        plan.spmv_par(&x, &mut y_par);
        prop_assert_eq!(&y_plan, &y_par, "par == seq");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shallow water: the fused/vectorised sweeps conserve mass to
    /// round-off exactly like the seed engine, and all three engines
    /// (dispatched, portable, seed baseline) produce the same bits.
    #[test]
    fn shallow_engines_agree_and_conserve_mass(
        m in 4usize..28,
        steps in 1usize..24,
    ) {
        let mut v2 = shallow::Shallow::new(m);
        let mut base = shallow::Shallow::new(m);
        let mut portable = shallow::Shallow::new(m);
        let mass0 = v2.total_mass();
        for _ in 0..steps {
            v2.step(false);
            base.step_baseline(false);
            portable.step_portable(false);
        }
        prop_assert_eq!(&v2.p, &base.p, "v2 == seed sweeps");
        prop_assert_eq!(&v2.u, &base.u);
        prop_assert_eq!(&v2.v, &base.v);
        prop_assert_eq!(&v2.p, &portable.p, "dispatched == portable");
        let drift = ((v2.total_mass() - mass0) / mass0).abs();
        prop_assert!(drift < 1e-12, "mass drift {drift}");
    }
}
