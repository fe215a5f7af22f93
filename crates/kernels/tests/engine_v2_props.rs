//! Property tests for the kernel engine v2: the SIMD fast paths must be
//! equivalent to their portable fallbacks everywhere — bit-identical
//! where the seed's tests assert exact results (SpMV, shallow water,
//! FFT dispatch), and within factorisation tolerance where the packed
//! TRSM/panel kernels are allowed to fuse FMAs (LU).
//!
//! Each property is a plain loop over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it.

use des::rng::Rng;
use hpcc_kernels::{cg, fft, lu, mat::Mat, shallow};

/// LU: the dispatched engine (AVX2 TRSM + panel where available) agrees
/// with the pinned-portable engine at every block width — same pivot
/// sequence, factors within the 1e-10 residual budget the FMA fusion is
/// allowed — and the parallel variant is bit-identical to sequential. A
/// whole-matrix block (nb ≥ n) cross-checks the blocking itself
/// (16 cases; a singular draw is skipped, and at least 12 must be
/// checked).
#[test]
fn lu_simd_matches_portable_across_widths() {
    const CASES: u64 = 16;
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0x051D_0001 ^ case);
        let n = rng.range_u64(24, 139) as usize;
        let nb = rng.range_u64(4, 71) as usize;
        println!("case {case}: n {n} nb {nb}");
        let a = Mat::random(n, n, &mut rng);

        let mut fd = a.clone();
        let mut fp = a.clone();
        let mut fr = a.clone();
        let Ok(pd) = lu::lu_factor(&mut fd, nb) else {
            continue; // singular draw
        };
        checked += 1;
        let pp = lu::lu_factor_portable(&mut fp, nb).unwrap();
        let pr = lu::lu_factor_portable(&mut fr, n).unwrap();
        assert_eq!(&pd, &pp, "pivots: dispatched vs portable");
        assert_eq!(&pd, &pr, "pivots: blocked vs single block");
        let scale = n as f64;
        let (dp, dr) = (fd.dist(&fp), fd.dist(&fr));
        assert!(dp <= 1e-10 * scale, "dispatched vs portable: {dp}");
        assert!(dr <= 1e-9 * scale, "blocked vs single block: {dr}");

        let mut fpar = a.clone();
        let ppar = lu::lu_factor_par(&mut fpar, nb).unwrap();
        assert_eq!(pd, ppar, "pivots: par vs seq");
        assert_eq!(fd.as_slice(), fpar.as_slice(), "par is bit-identical");
    }
    assert!(
        checked >= CASES - CASES / 4,
        "only {checked} of {CASES} cases were non-singular"
    );
}

/// FFT: forward/inverse round-trips recover the input across
/// non-power-sized batches of power-of-two lengths, and the dispatched
/// transform is bit-identical to the pinned-portable one on every batch
/// entry (24 cases, lengths 2 to 2^16).
#[test]
fn fft_roundtrip_on_nonpower_batches() {
    for case in 0..24 {
        let mut rng = Rng::new(0x0FF7_0002 ^ case);
        // Case 0 pins the largest length; the rest draw theirs.
        let logn = if case == 0 { 16 } else { rng.range_u64(1, 16) };
        let batch = rng.range_u64(1, 7);
        println!("case {case}: logn {logn} batch {batch}");
        let n = 1usize << logn;
        for _ in 0..batch {
            let orig: Vec<fft::Cpx> = (0..n)
                .map(|_| fft::Cpx::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect();

            let mut x = orig.clone();
            fft::fft(&mut x);
            let mut p = orig.clone();
            fft::fft_portable(&mut p);
            for (a, b) in x.iter().zip(&p) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "dispatch == portable");
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }

            fft::ifft(&mut x);
            let tol = 1e-12 * n as f64;
            for (a, b) in x.iter().zip(&orig) {
                let (dre, dim) = ((a.re - b.re).abs(), (a.im - b.im).abs());
                assert!(dre <= tol && dim <= tol, "round-trip: {a:?} vs {b:?}");
            }
        }
    }
}

/// SpMV: the interleaved packed plan reproduces the CSR row loop
/// bit-for-bit on random sparse matrices (including empty rows and
/// duplicate entries), sequentially and in parallel (32 cases).
#[test]
fn spmv_plan_is_exactly_csr() {
    for case in 0..32 {
        let mut rng = Rng::new(0x05B3_0003 ^ case);
        let n = rng.range_u64(1, 159) as usize;
        let fill = rng.below(6) as usize;
        println!("case {case}: n {n} fill {fill}");
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
        assert_eq!(&y_csr, &y_plan, "plan == csr row loop");
        let mut y_par = vec![0.0; n];
        plan.spmv_par(&x, &mut y_par);
        assert_eq!(&y_plan, &y_par, "par == seq");
    }
}

/// Shallow water: the fused/vectorised sweeps conserve mass to round-off
/// exactly like the seed engine, and all three engines (dispatched,
/// portable, seed baseline) produce the same bits (12 cases).
#[test]
fn shallow_engines_agree_and_conserve_mass() {
    for case in 0..12 {
        let mut rng = Rng::new(0x5AA1_0004 ^ case);
        let m = rng.range_u64(4, 27) as usize;
        let steps = rng.range_u64(1, 23);
        println!("case {case}: m {m} steps {steps}");
        let mut v2 = shallow::Shallow::new(m);
        let mut base = shallow::Shallow::new(m);
        let mut portable = shallow::Shallow::new(m);
        let mass0 = v2.total_mass();
        for _ in 0..steps {
            v2.step(false);
            base.step_baseline(false);
            portable.step_portable(false);
        }
        assert_eq!(&v2.p, &base.p, "v2 == seed sweeps");
        assert_eq!(&v2.u, &base.u);
        assert_eq!(&v2.v, &base.v);
        assert_eq!(&v2.p, &portable.p, "dispatched == portable");
        let drift = ((v2.total_mass() - mass0) / mass0).abs();
        assert!(drift < 1e-12, "mass drift {drift}");
    }
}
