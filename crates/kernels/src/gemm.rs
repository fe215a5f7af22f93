//! Packed, register-blocked GEMM — the BLIS-style engine behind the
//! host-side BLAS3 paths (dense matmul and the LU trailing update that
//! dominates LINPACK).
//!
//! ## Algorithm
//!
//! The classic five-loop decomposition:
//!
//! ```text
//! for jc in steps of NC over columns of C          (outer, cache-oblivious)
//!   for pc in steps of KC over the inner dimension (fixed accumulation order)
//!     pack B[pc.., jc..] into Bp  — row-major NR-column panels
//!     for ic in steps of MC over rows of C         (split over workers)
//!       A is pre-packed into Ap   — column-major MR-row panels
//!       for jr in steps of NR, ir in steps of MR:
//!         microkernel: MR×NR register tile += Ap panel · Bp panel
//! ```
//!
//! Packing turns both operand streams into unit-stride loads, and the
//! MR×NR register tile turns ~2 memory operations per FLOP (the naive
//! and cache-blocked kernels) into ~(MR+NR)/(2·MR·NR). The microkernel
//! is written so LLVM auto-vectorises it; on x86-64 a clone compiled with
//! AVX2 enabled is selected at runtime via
//! [`crate::simd::avx2_fma_available`]. It multiplies and adds separately:
//! Rust never contracts `a*b + c` into an FMA.
//!
//! ## Determinism
//!
//! The `pc` (inner-dimension) loop is strictly sequential and the
//! workers only share out disjoint MC-row panels of C, so every element
//! of C is accumulated in the same order at every worker count:
//! sequential and parallel runs are bit-identical (the property
//! `lu_factor` / `lu_factor_par` promise).
//!
//! `matmul_naive` remains the correctness oracle; property tests assert
//! equivalence on awkward shapes.

use crate::mat::Mat;
use std::cell::RefCell;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 4;
/// Microkernel tile width (columns of C per register tile).
pub const NR: usize = 8;
/// Rows of A packed per macro-tile (L2-resident block, multiple of MR).
pub const MC: usize = 128;
/// Depth of one packed strip (L1-resident panels).
pub const KC: usize = 256;
/// Columns of B packed per macro-tile (multiple of NR).
pub const NC: usize = 4096;

thread_local! {
    /// Packing buffers reused across calls (no steady-state allocation).
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A strided view of a row-major operand: `rows` rows of logical width
/// starting at column `col` within a backing slice of leading dimension
/// `ld`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f64],
    ld: usize,
    col: usize,
}

impl View<'_> {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ld + self.col + c]
    }
}

/// Pack `m × kdim` of A (view `a`) into MR-row panels, KC-strip major:
/// strip `pc` starts at `m_pad · pc`, panel `ir` within a strip of depth
/// `kcs` at `ir · kcs`, laid out k-major so the microkernel reads MR
/// contiguous values per k step. Rows beyond `m` are zero-padded.
fn pack_a(a: View<'_>, m: usize, kdim: usize, buf: &mut Vec<f64>) {
    let m_pad = m.div_ceil(MR) * MR;
    buf.clear();
    buf.resize(m_pad * kdim, 0.0);
    let mut pc = 0;
    while pc < kdim {
        let kcs = KC.min(kdim - pc);
        let strip = &mut buf[m_pad * pc..m_pad * pc + m_pad * kcs];
        let mut ir = 0;
        while ir < m {
            let panel = &mut strip[ir * kcs..ir * kcs + MR * kcs];
            let mr_eff = MR.min(m - ir);
            for p in 0..kcs {
                let dst = &mut panel[p * MR..(p + 1) * MR];
                for (r, d) in dst.iter_mut().enumerate().take(mr_eff) {
                    *d = a.at(ir + r, pc + p);
                }
            }
            ir += MR;
        }
        pc += kcs;
    }
}

/// Pack `kcs × nc` of B (rows `pc..pc+kcs`, columns `jc..jc+nc` of view
/// `b`) into NR-column panels: panel `jr` at `jr · kcs`, k-major so the
/// microkernel reads NR contiguous values per k step. Columns beyond the
/// logical width are zero-padded.
fn pack_b(b: View<'_>, pc: usize, kcs: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
    let nc_pad = nc.div_ceil(NR) * NR;
    buf.clear();
    buf.resize(nc_pad * kcs, 0.0);
    let mut jr = 0;
    while jr < nc {
        let panel = &mut buf[jr * kcs..jr * kcs + NR * kcs];
        let nr_eff = NR.min(nc - jr);
        for p in 0..kcs {
            let dst = &mut panel[p * NR..(p + 1) * NR];
            for (j, d) in dst.iter_mut().enumerate().take(nr_eff) {
                *d = b.at(pc + p, jc + jr + j);
            }
        }
        jr += NR;
    }
}

/// The register-tile inner loop: accumulate `kcs` rank-1 updates of the
/// MR×NR tile from packed panels, then apply to C with sign `sub`.
/// `c_tile` addresses C(row0, col0) with leading dimension `ldc`; only
/// the `mr_eff × nr_eff` valid corner is written back.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel_body(
    kcs: usize,
    ap: &[f64],
    bp: &[f64],
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kcs) {
        let av: &[f64; MR] = av.try_into().unwrap();
        let bv: &[f64; NR] = bv.try_into().unwrap();
        for (accrow, &a) in acc.iter_mut().zip(av) {
            for (x, &b) in accrow.iter_mut().zip(bv) {
                *x += a * b;
            }
        }
    }
    for (i, accrow) in acc.iter().enumerate().take(mr_eff) {
        let crow = &mut c_tile[i * ldc..i * ldc + nr_eff];
        if sub {
            for (c, &x) in crow.iter_mut().zip(accrow) {
                *c -= x;
            }
        } else {
            for (c, &x) in crow.iter_mut().zip(accrow) {
                *c += x;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2(
    kcs: usize,
    ap: &[f64],
    bp: &[f64],
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    // Same source as the portable body, compiled with AVX2 enabled so the
    // tile update runs on 256-bit registers. Rust never contracts
    // `a*b + c`, so LLVM emits separate multiplies and adds, not FMAs.
    microkernel_body(kcs, ap, bp, c_tile, ldc, mr_eff, nr_eff, sub);
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    kcs: usize,
    ap: &[f64],
    bp: &[f64],
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_fma_available() {
        // SAFETY: feature presence checked at runtime.
        unsafe {
            return microkernel_avx2(kcs, ap, bp, c_tile, ldc, mr_eff, nr_eff, sub);
        }
    }
    microkernel_body(kcs, ap, bp, c_tile, ldc, mr_eff, nr_eff, sub);
}

/// Drive the macro-tile loops over one pre-packed A. `c` holds `m` rows
/// of leading dimension `ldc` with the logical C starting at column
/// `c_col`; `C ±= A·B` with `sub` choosing the sign. The `workers`
/// share out MC-row panels of C only (see module docs: bit-identical to
/// sequential).
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    apacked: &[f64],
    b: View<'_>,
    c: &mut [f64],
    ldc: usize,
    c_col: usize,
    m: usize,
    n: usize,
    kdim: usize,
    sub: bool,
    workers: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    if kdim == 0 {
        // C ± A·B with an empty inner dimension is a no-op.
        return;
    }
    let m_pad = m.div_ceil(MR) * MR;
    debug_assert_eq!(apacked.len(), m_pad * kdim);
    debug_assert!(c.len() >= (m - 1) * ldc + c_col + n);

    PACK_B.with(|pb| {
        let mut bp_buf = pb.borrow_mut();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < kdim {
                let kcs = KC.min(kdim - pc);
                pack_b(b, pc, kcs, jc, nc, &mut bp_buf);
                let bp: &[f64] = &bp_buf;
                let a_strip = &apacked[m_pad * pc..m_pad * pc + m_pad * kcs];

                // One chunk per MC-row panel of C; row chunks are disjoint.
                let update_panel = |ci: usize, cchunk: &mut [f64]| {
                    let ic = ci * MC;
                    let mc_eff = MC.min(m - ic);
                    let mut jr = 0;
                    while jr < nc {
                        let nr_eff = NR.min(nc - jr);
                        let bpanel = &bp[jr * kcs..jr * kcs + NR * kcs];
                        let mut ir = 0;
                        while ir < mc_eff {
                            let mr_eff = MR.min(mc_eff - ir);
                            let apanel = &a_strip[(ic + ir) * kcs..(ic + ir) * kcs + MR * kcs];
                            let tile0 = ir * ldc + c_col + jc + jr;
                            microkernel(
                                kcs,
                                apanel,
                                bpanel,
                                &mut cchunk[tile0..],
                                ldc,
                                mr_eff,
                                nr_eff,
                                sub,
                            );
                            ir += MR;
                        }
                        jr += NR;
                    }
                };
                // `c` covers exactly m rows; chunk it MC rows at a time.
                // One worker or one panel (m <= MC) runs the sweep inline,
                // which is what makes `lu_factor_par` never slower than
                // `lu_factor` on a single-core host.
                par::for_each(c, MC * ldc, workers, update_panel);
                pc += kcs;
            }
            jc += nc;
        }
    });
}

/// `C = A·B` through the packed engine. Sequential.
pub fn gemm(a: &Mat, b: &Mat) -> Mat {
    gemm_impl(a, b, 1)
}

/// `C = A·B` through the packed engine, its row panels shared out over
/// [`des::host_cores`] workers. Bit-identical to [`gemm`].
pub fn gemm_par(a: &Mat, b: &Mat) -> Mat {
    gemm_impl(a, b, crate::workers(true))
}

fn gemm_impl(a: &Mat, b: &Mat, workers: usize) -> Mat {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        return c;
    }
    PACK_A.with(|pa| {
        let mut ap = pa.borrow_mut();
        pack_a(
            View {
                data: a.as_slice(),
                ld: kdim,
                col: 0,
            },
            m,
            kdim,
            &mut ap,
        );
        let ldc = n;
        gemm_packed(
            &ap,
            View {
                data: b.as_slice(),
                ld: n,
                col: 0,
            },
            c.as_mut_slice(),
            ldc,
            0,
            m,
            n,
            kdim,
            false,
            workers,
        );
    });
    c
}

/// The LU trailing-matrix update `C -= A·B` where A and C live in the
/// same backing rows (`ac`): A is the `m × kdim` multiplier block at
/// column `a_col`, C the `m × n` trailing block at column `c_col`, both
/// with leading dimension `ld`. B is `kdim` rows of leading dimension
/// `ldb` with its logical block at column `b_col`.
///
/// A is packed (into a reused thread-local buffer) before C is touched,
/// so the in-place aliasing of the LU layout is safe. The rows of C are
/// shared out over `workers` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dgemm_update(
    ac: &mut [f64],
    ld: usize,
    a_col: usize,
    c_col: usize,
    m: usize,
    n: usize,
    kdim: usize,
    b: &[f64],
    ldb: usize,
    b_col: usize,
    workers: usize,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    PACK_A.with(|pa| {
        let mut ap = pa.borrow_mut();
        pack_a(
            View {
                data: ac,
                ld,
                col: a_col,
            },
            m,
            kdim,
            &mut ap,
        );
        gemm_packed(
            &ap,
            View {
                data: b,
                ld: ldb,
                col: b_col,
            },
            ac,
            ld,
            c_col,
            m,
            n,
            kdim,
            true,
            workers,
        );
    });
}

/// FLOP count of an (m×k)·(k×n) multiply.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;
    use des::rng::Rng;

    fn assert_close(a: &Mat, b: &Mat, tol: f64, what: &str) {
        assert!(a.dist(b) < tol, "{what}: dist {}", a.dist(b));
    }

    #[test]
    fn matches_naive_on_square() {
        let mut rng = Rng::new(5);
        for n in [1, 2, 7, 16, 33, 65, 130] {
            let a = Mat::random(n, n, &mut rng);
            let b = Mat::random(n, n, &mut rng);
            let want = matmul_naive(&a, &b);
            assert_close(&gemm(&a, &b), &want, 1e-10, &format!("gemm n={n}"));
            assert_close(&gemm_par(&a, &b), &want, 1e-10, &format!("gemm_par n={n}"));
        }
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        let mut rng = Rng::new(6);
        // Shapes straddling MR/NR/KC boundaries, vectors, and empties.
        for (m, k, n) in [
            (1, 1, 1),
            (MR - 1, 3, NR - 1),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR, 5, 3 * NR),
            (1, 300, 1),
            (1, 8, 257),
            (257, 8, 1),
            (13, 1, 17),
            (MC + 3, 2, NR),
            (3, KC, 2 * NR + 5),
        ] {
            let a = Mat::random(m, k, &mut rng);
            let b = Mat::random(k, n, &mut rng);
            let want = matmul_naive(&a, &b);
            assert_close(&gemm(&a, &b), &want, 1e-9, &format!("m={m} k={k} n={n}"));
            assert_close(
                &gemm_par(&a, &b),
                &want,
                1e-9,
                &format!("par m={m} k={k} n={n}"),
            );
        }
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        let c = gemm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 3));
        let a = Mat::zeros(4, 0);
        let b = Mat::zeros(0, 3);
        let c = gemm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (4, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    /// Three MC-row panels, split whatever the host's core count: at 2
    /// and 3 workers, and at 7 (more workers than panels).
    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let mut rng = Rng::new(9);
        let a = Mat::random(300, 180, &mut rng);
        let b = Mat::random(180, 220, &mut rng);
        let seq = gemm(&a, &b);
        assert_eq!(seq, gemm_par(&a, &b));
        for workers in [2, 3, 7] {
            assert_eq!(seq, gemm_impl(&a, &b, workers), "{workers} workers");
        }
    }

    #[test]
    fn dgemm_update_matches_reference() {
        // Build an LU-shaped layout: rows of `ac` hold [A | C] blocks,
        // tall enough for two MC-row panels.
        let mut rng = Rng::new(11);
        let (m, n, kdim) = (MC + 37, 29, 12);
        let ld = kdim + n;
        let a = Mat::random(m, kdim, &mut rng);
        let b = Mat::random(kdim, n, &mut rng);
        let c0 = Mat::random(m, n, &mut rng);

        let mut ac = vec![0.0; m * ld];
        for i in 0..m {
            ac[i * ld..i * ld + kdim].copy_from_slice(a.row(i));
            ac[i * ld + kdim..(i + 1) * ld].copy_from_slice(c0.row(i));
        }
        let ac0 = ac.clone();

        let ab = matmul_naive(&a, &b);
        dgemm_update(&mut ac, ld, 0, kdim, m, n, kdim, b.as_slice(), n, 0, 1);
        let mut ac_par = ac0.clone();
        dgemm_update(
            &mut ac_par,
            ld,
            0,
            kdim,
            m,
            n,
            kdim,
            b.as_slice(),
            n,
            0,
            crate::workers(true),
        );
        assert_eq!(ac, ac_par, "update must be deterministic across modes");
        for workers in [2, 3, 7] {
            let mut ac_w = ac0.clone();
            dgemm_update(
                &mut ac_w,
                ld,
                0,
                kdim,
                m,
                n,
                kdim,
                b.as_slice(),
                n,
                0,
                workers,
            );
            assert_eq!(ac, ac_w, "{workers} workers");
        }
        for i in 0..m {
            for j in 0..n {
                let want = c0[(i, j)] - ab[(i, j)];
                let got = ac[i * ld + kdim + j];
                assert!((got - want).abs() < 1e-12, "({i},{j}): {got} vs {want}");
            }
        }
        // The A block must be untouched.
        for i in 0..m {
            assert_eq!(&ac[i * ld..i * ld + kdim], a.row(i));
        }
    }

    #[test]
    fn flop_count_matches_matmul() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000.0);
    }

    /// Can this host run two FMA streams at once? The microkernel's
    /// register tile over L1-resident panels, on one worker and then on
    /// two through `par`; prints the throughput ratio: ≈ 2 when the two
    /// workers have FMA units of their own, ≈ 1 when they share one
    /// core's. It gates nothing (the answer depends on the host). Run
    /// with `cargo test --release -p hpcc-kernels --lib -- --ignored
    /// --nocapture two_fma_streams`.
    #[test]
    #[ignore]
    fn two_fma_streams_probe() {
        const CALLS: usize = 200_000;
        let ap = vec![1e-9; MR * KC];
        let bp = vec![1e-9; NR * KC];
        let secs = |workers: usize| {
            let mut tiles = vec![0.0; workers * MR * NR];
            let t = std::time::Instant::now();
            par::for_each(&mut tiles, MR * NR, workers, |_, tile| {
                for _ in 0..CALLS {
                    microkernel(KC, &ap, &bp, tile, NR, MR, NR, false);
                }
            });
            std::hint::black_box(&tiles);
            t.elapsed().as_secs_f64()
        };
        let best = |workers| (0..3).map(|_| secs(workers)).fold(f64::MAX, f64::min);
        let (one, two) = (best(1), best(2));
        let gflops = gemm_flops(MR, KC, NR) * CALLS as f64 / one / 1e9;
        println!(
            "FMA streams: 1 worker {:.1} ms ({gflops:.1} GF/s), 2 workers {:.1} ms, \
             throughput ratio {:.2} (host_cores {})",
            one * 1e3,
            two * 1e3,
            2.0 * one / two,
            des::host_cores()
        );
    }
}
