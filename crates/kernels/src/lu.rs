//! Blocked right-looking LU factorisation with partial pivoting — the
//! computational heart of the LINPACK benchmark the Delta exhibit quotes.
//!
//! `lu_factor` / `lu_factor_par` factor in place (unit-lower L below the
//! diagonal, U on and above) with full-row pivot swaps recorded in `piv`.
//!
//! ## Engine v2 block step
//!
//! All three phases of a block step run through cache-aware kernels so
//! the trailing `dgemm_update` (where the O(n³) work lives) is no longer
//! waiting on scalar panels:
//!
//! * **Panel** — columns `[k, k+kb)` are packed into a contiguous
//!   `(n-k) × kb` buffer and factored there by *recursive* width
//!   splitting: each half's own trailing update is a BLAS3
//!   `dgemm_update` on the packed buffer, so only the narrow
//!   `PANEL_BASE`-column base case runs rank-1 loops (portable
//!   code on every host). Pivot swaps touch the 1–2 KB
//!   packed rows; the untouched matrix columns get one deferred
//!   `laswp`-style sweep afterwards — bit-identical values, a fraction
//!   of the memory traffic.
//! * **TRSM** — `U12 = L11⁻¹·A12` with the `kb × kb` unit-lower
//!   triangle packed column-major and the trailing columns processed in
//!   8-wide register strips: for each strip the whole triangular solve
//!   runs out of L1 with 4-row FMA tiles (AVX2+FMA, runtime-dispatched
//!   with the original row-oriented loop as the portable fallback).
//! * **Update** — `A22 -= L21·U12` through the packed GEMM engine;
//!   the parallel variant shares disjoint MC-row panels of the trailing
//!   matrix out over its workers (fixed decomposition, one chunk per
//!   panel), which keeps every element's accumulation order independent
//!   of the worker count: sequential and parallel runs are bit-identical.
//!
//! The sweet spot for the block width on AVX2 hosts is `nb = 192`
//! ([`DEFAULT_NB`]): deep enough that the trailing update runs at the
//! packed engine's near-peak rate, narrow enough that panel+TRSM stay a
//! small fraction of the time (see EXPERIMENTS.md, KERN-2).

use crate::gemm;
use crate::mat::Mat;
use crate::simd;

/// Block width below which the packed panel is factored by right-looking
/// rank-1 updates (the recursion base). Chosen so the base case's
/// working set (`PANEL_BASE` columns of the packed panel) stays
/// register/L1 friendly while the recursion above it runs BLAS3.
const PANEL_BASE: usize = 16;

/// Default block width for AVX2-class hosts: the measured knee where the
/// trailing `dgemm_update` reaches the packed engine's full rate (see
/// EXPERIMENTS.md, KERN-2).
pub const DEFAULT_NB: usize = 192;

/// Factorisation failure: zero (or non-finite) pivot column at the
/// given index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular(pub usize);

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.0)
    }
}

impl std::error::Error for Singular {}

/// In-place LU with partial pivoting. Returns the pivot vector:
/// `piv[j]` is the row swapped with row `j` at step `j`.
pub fn lu_factor(a: &mut Mat, nb: usize) -> Result<Vec<usize>, Singular> {
    lu_factor_impl(a, nb, 1, simd::avx2_fma_available())
}

/// Parallel variant: the trailing update's row panels are shared out
/// over [`des::host_cores`] workers. Bit-identical to [`lu_factor`] and
/// — by construction — never runs slower: the serial phases are shared,
/// and with one worker (or one panel) the update is the same sequential
/// sweep.
pub fn lu_factor_par(a: &mut Mat, nb: usize) -> Result<Vec<usize>, Singular> {
    lu_factor_impl(a, nb, crate::workers(true), simd::avx2_fma_available())
}

/// [`lu_factor`] with the AVX2 TRSM path disabled — the portable
/// scalar engine. Exposed for the SIMD-equivalence property tests and
/// non-x86 debugging; same pivoting contract, residual-equivalent
/// factors (the SIMD TRSM fuses multiply-adds, so last-bit rounding may
/// differ).
pub fn lu_factor_portable(a: &mut Mat, nb: usize) -> Result<Vec<usize>, Singular> {
    lu_factor_impl(a, nb, 1, false)
}

fn lu_factor_impl(
    a: &mut Mat,
    nb: usize,
    workers: usize,
    use_simd: bool,
) -> Result<Vec<usize>, Singular> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "LU needs a square matrix");
    assert!(nb > 0);
    let mut piv = vec![0usize; n];
    // Reused across block steps: the packed panel and the packed
    // column-major L11 triangle for the TRSM.
    let mut panel = Vec::new();
    let mut tri = Vec::new();

    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        let rows = n - k;

        // --- Panel: pack, factor recursively, write back, laswp. ---
        {
            let ncols = a.cols();
            let am = a.as_mut_slice();
            panel.clear();
            panel.resize(rows * kb, 0.0);
            for (r, dst) in panel.chunks_exact_mut(kb).enumerate() {
                let row = &am[(k + r) * ncols + k..(k + r) * ncols + k + kb];
                dst.copy_from_slice(row);
            }
            let mut lp = vec![0usize; kb];
            factor_panel(&mut panel, rows, kb, &mut lp).map_err(|j| Singular(k + j))?;
            for (r, src) in panel.chunks_exact(kb).enumerate() {
                am[(k + r) * ncols + k..(k + r) * ncols + k + kb].copy_from_slice(src);
            }
            // Deferred swaps on the columns the panel never touched
            // (left of the panel and the trailing block). Applying them
            // here, in pivot order, leaves every row exactly where the
            // eager full-row swaps of the scalar engine would have.
            for (j, &p) in lp.iter().enumerate() {
                piv[k + j] = k + p;
                if p != j {
                    let (ra, rb) = (k + j, k + p);
                    let (top, bot) = am.split_at_mut(rb * ncols);
                    let ta = &mut top[ra * ncols..ra * ncols + ncols];
                    let tb = &mut bot[..ncols];
                    ta[..k].swap_with_slice(&mut tb[..k]);
                    ta[k + kb..].swap_with_slice(&mut tb[k + kb..]);
                }
            }
        }

        if k + kb < n {
            // --- U12 = L11^{-1} A12 (unit lower triangular solve). ---
            trsm_rowblock(a, k, kb, use_simd, &mut tri);

            // --- A22 -= L21 · U12 (the dgemm that dominates). ---
            // Split the backing storage at row k+kb: `upper` holds U12
            // (rows k.., cols k+kb..), `lower` holds both L21 (cols
            // k..k+kb) and the trailing block A22 (cols k+kb..). The
            // engine packs L21 before touching A22, so the in-place
            // aliasing is safe.
            let ncols = a.cols();
            let split = (k + kb) * ncols;
            let (upper, lower) = a.as_mut_slice().split_at_mut(split);
            gemm::dgemm_update(
                lower,
                ncols,
                k,
                k + kb,
                n - (k + kb),
                ncols - (k + kb),
                kb,
                &upper[k * ncols..],
                ncols,
                k + kb,
                workers,
            );
        }
        k += kb;
    }
    Ok(piv)
}

/// Factor the first `w` columns of the packed `rows × w` panel `p`
/// (row-major, leading dimension `w`) with partial pivoting.
/// `lp[j]` receives the panel-local row swapped at step `j`. On a zero
/// or non-finite pivot column, returns its panel-local index.
fn factor_panel(p: &mut [f64], rows: usize, w: usize, lp: &mut [usize]) -> Result<(), usize> {
    factor_range(p, rows, w, 0, w, lp)
}

/// Recursive width splitting over panel columns `[c0, c0+wc)`: factor
/// the left half, solve it onto the right half's top rows, BLAS3-update
/// the right half's trailing rows, recurse right. The base case is the
/// right-looking rank-1 engine on `PANEL_BASE` columns.
fn factor_range(
    p: &mut [f64],
    rows: usize,
    w: usize,
    c0: usize,
    wc: usize,
    lp: &mut [usize],
) -> Result<(), usize> {
    if wc <= PANEL_BASE {
        return factor_base(p, rows, w, c0, wc, lp);
    }
    let w1 = wc / 2;
    factor_range(p, rows, w, c0, w1, lp)?;
    // Small TRSM inside the panel: unit-lower (w1×w1 at (c0,c0)) onto
    // the right-half rows c0..c0+w1 — a few KB, runs out of cache.
    for jj in c0 + 1..c0 + w1 {
        for ii in c0..jj {
            let l = p[jj * w + ii];
            if l != 0.0 {
                let (ri, rj) = packed_row_pair(p, w, ii, jj);
                for c in c0 + w1..c0 + wc {
                    rj[c] -= l * ri[c];
                }
            }
        }
    }
    // Right-half trailing rows: one packed-engine update (this is where
    // most of the panel's FLOPs land once wc > 2·PANEL_BASE).
    let (upper, lower) = p.split_at_mut((c0 + w1) * w);
    gemm::dgemm_update(
        lower,
        w,
        c0,
        c0 + w1,
        rows - (c0 + w1),
        wc - w1,
        w1,
        &upper[c0 * w..],
        w,
        c0 + w1,
        1,
    );
    factor_range(p, rows, w, c0 + w1, wc - w1, lp)
}

/// Right-looking rank-1 base case on packed panel columns `[c0, c0+wc)`.
/// Identical arithmetic (and order) to the pre-v2 scalar panel, so
/// `nb ≤ PANEL_BASE` reproduces the legacy factors bit-for-bit.
fn factor_base(
    p: &mut [f64],
    rows: usize,
    w: usize,
    c0: usize,
    wc: usize,
    lp: &mut [usize],
) -> Result<(), usize> {
    for jj in c0..c0 + wc {
        // Pivot search down packed column jj.
        let mut pr = jj;
        let mut best = p[jj * w + jj].abs();
        for r in jj + 1..rows {
            let v = p[r * w + jj].abs();
            if v > best {
                best = v;
                pr = r;
            }
        }
        // A NaN column maximum would sail through a `== 0.0` test and
        // poison the whole factorisation; reject it like a zero pivot.
        if best == 0.0 || !best.is_finite() {
            return Err(jj);
        }
        lp[jj] = pr;
        if pr != jj {
            let (ra, rb) = packed_row_pair_mut(p, w, jj, pr);
            ra.swap_with_slice(rb);
        }
        let inv = 1.0 / p[jj * w + jj];
        for r in jj + 1..rows {
            p[r * w + jj] *= inv;
        }
        for r in jj + 1..rows {
            let l = p[r * w + jj];
            if l != 0.0 {
                let (rj, rr) = packed_row_pair(p, w, jj, r);
                for c in jj + 1..c0 + wc {
                    rr[c] -= l * rj[c];
                }
            }
        }
    }
    Ok(())
}

/// Borrow two distinct packed rows `i < j`: (shared `i`, mutable `j`).
fn packed_row_pair(p: &mut [f64], w: usize, i: usize, j: usize) -> (&[f64], &mut [f64]) {
    debug_assert!(i < j);
    let (top, bot) = p.split_at_mut(j * w);
    (&top[i * w..(i + 1) * w], &mut bot[..w])
}

/// Borrow two distinct packed rows mutably (any order).
fn packed_row_pair_mut(p: &mut [f64], w: usize, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(a < b);
    let (top, bot) = p.split_at_mut(b * w);
    (&mut top[a * w..(a + 1) * w], &mut bot[..w])
}

/// `U12 = L11⁻¹ · A12` for the block step at `k`: unit-lower `kb × kb`
/// triangle at `(k, k)` solved onto rows `k..k+kb` of the trailing
/// columns `k+kb..n`. Dispatches to the packed AVX2 strip kernel; the
/// portable fallback is the original row-oriented loop.
fn trsm_rowblock(a: &mut Mat, k: usize, kb: usize, use_simd: bool, tri: &mut Vec<f64>) {
    let n = a.cols();
    let trail = n - (k + kb);
    if kb <= 1 || trail == 0 {
        return;
    }
    if use_simd {
        // Pack the strictly-lower triangle of L11 column-major:
        // `tri[i·kb + j] = L[j][i]` so a 4-row tile's multipliers for
        // one solve column sit contiguously for broadcast loads.
        tri.clear();
        tri.resize(kb * kb, 0.0);
        for j in 1..kb {
            for i in 0..j {
                tri[i * kb + j] = a[(k + j, k + i)];
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            let ld = n;
            // SAFETY: dispatch guarded by `avx2_fma_available`; the
            // kernel stays inside rows k..k+kb, cols k+kb..n.
            unsafe {
                trsm_strips_avx2(a.as_mut_slice(), ld, k, kb, trail, tri);
            }
            return;
        }
    }
    // Portable fallback: for each target row j, subtract the already-
    // solved rows i < j (row-oriented axpys over the trailing columns).
    for j in k + 1..k + kb {
        for i in k..j {
            let lji = a[(j, i)];
            if lji != 0.0 {
                let (ri, rj) = row_pair(a, i, j);
                for c in k + kb..n {
                    rj[c] -= lji * ri[c];
                }
            }
        }
    }
}

/// The packed TRSM kernel: trailing columns in 8-wide strips; for each
/// strip the full `kb`-row triangular solve runs with 4-row FMA tiles —
/// every row's 64-byte strip segment stays L1-resident across its
/// O(kb) reuses. Tail columns (trail % 8) fall back to the row loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::needless_range_loop)]
unsafe fn trsm_strips_avx2(
    am: &mut [f64],
    ld: usize,
    k: usize,
    kb: usize,
    trail: usize,
    tri: &[f64],
) {
    use std::arch::x86_64::*;
    let base = am.as_mut_ptr().add(k * ld + k + kb);
    let main = trail - trail % 8;
    let mut c0 = 0;
    while c0 < main {
        let mut j0 = 0;
        while j0 < kb {
            let jt = 4.min(kb - j0);
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for r in 0..jt {
                let row = base.add((j0 + r) * ld + c0);
                acc[r][0] = _mm256_loadu_pd(row);
                acc[r][1] = _mm256_loadu_pd(row.add(4));
            }
            // Contributions of all fully-solved rows above the tile.
            for i in 0..j0 {
                let src = base.add(i * ld + c0);
                let s0 = _mm256_loadu_pd(src);
                let s1 = _mm256_loadu_pd(src.add(4));
                let lcol = tri.as_ptr().add(i * kb + j0);
                for r in 0..jt {
                    let l = _mm256_broadcast_sd(&*lcol.add(r));
                    acc[r][0] = _mm256_fnmadd_pd(l, s0, acc[r][0]);
                    acc[r][1] = _mm256_fnmadd_pd(l, s1, acc[r][1]);
                }
            }
            // Intra-tile triangle: row r also depends on rows j0..j0+r,
            // whose final strip values are already in registers.
            for r in 1..jt {
                for q in 0..r {
                    let l = _mm256_broadcast_sd(&*tri.as_ptr().add((j0 + q) * kb + j0 + r));
                    acc[r][0] = _mm256_fnmadd_pd(l, acc[q][0], acc[r][0]);
                    acc[r][1] = _mm256_fnmadd_pd(l, acc[q][1], acc[r][1]);
                }
            }
            for r in 0..jt {
                let row = base.add((j0 + r) * ld + c0);
                _mm256_storeu_pd(row, acc[r][0]);
                _mm256_storeu_pd(row.add(4), acc[r][1]);
            }
            j0 += jt;
        }
        c0 += 8;
    }
    // Tail columns: plain row-oriented solve on the last < 8 columns.
    for j in 1..kb {
        for i in 0..j {
            let l = tri[i * kb + j];
            let src = base.add(i * ld + main);
            let dst = base.add(j * ld + main);
            for c in 0..trail - main {
                *dst.add(c) -= l * *src.add(c);
            }
        }
    }
}

/// Borrow two distinct rows, `i < j`, one shared and one mutable.
fn row_pair(a: &mut Mat, i: usize, j: usize) -> (&[f64], &mut [f64]) {
    debug_assert!(i < j);
    let ncols = a.cols();
    let (top, bot) = a.as_mut_slice().split_at_mut(j * ncols);
    (&top[i * ncols..(i + 1) * ncols], &mut bot[..ncols])
}

/// Solve `A x = b` given the in-place factorisation and pivot vector.
pub fn lu_solve(lu: &Mat, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows();
    assert_eq!(b.len(), n);
    let mut x = b.to_vec();
    // Apply the row interchanges in factorisation order.
    for (j, &p) in piv.iter().enumerate() {
        x.swap(j, p);
    }
    // Forward substitution with unit lower L.
    for i in 0..n {
        let mut s = x[i];
        let row = lu.row(i);
        for (j, xv) in x[..i].iter().enumerate() {
            s -= row[j] * xv;
        }
        x[i] = s;
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let row = lu.row(i);
        let mut s = x[i];
        for j in i + 1..n {
            s -= row[j] * x[j];
        }
        x[i] = s / row[i];
    }
    x
}

/// Reconstruct `P·A` from the factors (test utility): returns L·U with the
/// unit diagonal implied.
pub fn lu_reconstruct(lu: &Mat) -> Mat {
    let n = lu.rows();
    let mut out = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            // (L·U)[i][j] = Σ_{k ≤ min(i,j)} L[i][k]·U[k][j] with L unit
            // diagonal: L[i][k] = lu[i][k] for k < i, L[i][i] = 1.
            let kmax = i.min(j);
            let mut s = 0.0;
            for k in 0..kmax {
                s += lu[(i, k)] * lu[(k, j)];
            }
            s += if i <= j {
                lu[(i, j)] // k = i term: 1 · U[i][j]
            } else {
                lu[(i, j)] * lu[(j, j)] // k = j term: L[i][j] · U[j][j]
            };
            out[(i, j)] = s;
        }
    }
    out
}

/// FLOP count credited for an n×n LU factor + solve, per the LINPACK
/// benchmark convention.
pub fn linpack_flops(n: usize) -> f64 {
    let nf = n as f64;
    2.0 * nf * nf * nf / 3.0 + 2.0 * nf * nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::vecops::norm_inf;
    use des::rng::Rng;

    fn residual(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
        norm_inf(&r) / (a.inf_norm() * norm_inf(x)).max(1e-300)
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let mut a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let orig = a.clone();
        let piv = lu_factor(&mut a, 1).unwrap();
        let x = lu_solve(&a, &piv, &[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
        assert!(residual(&orig, &x, &[5.0, 10.0]) < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let piv = lu_factor(&mut a, 2).unwrap();
        let x = lu_solve(&a, &piv, &[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14 && (x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn random_systems_small_residual_various_block_sizes() {
        let mut rng = Rng::new(77);
        for n in [1, 2, 5, 17, 64, 97] {
            let a = Mat::random(n, n, &mut rng);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            for nb in [1, 4, 32] {
                let mut f = a.clone();
                match lu_factor(&mut f, nb) {
                    Ok(piv) => {
                        let x = lu_solve(&f, &piv, &b);
                        let r = residual(&a, &x, &b);
                        assert!(r < 1e-10, "n={n} nb={nb} residual={r}");
                    }
                    Err(_) => panic!("random matrix singular (n={n})"),
                }
            }
        }
    }

    #[test]
    fn blocked_equals_unblocked() {
        let mut rng = Rng::new(31);
        let a = Mat::random(50, 50, &mut rng);
        let mut f1 = a.clone();
        let p1 = lu_factor(&mut f1, 1).unwrap();
        let mut f2 = a.clone();
        let p2 = lu_factor(&mut f2, 8).unwrap();
        assert_eq!(p1, p2, "same pivots");
        assert!(f1.dist(&f2) < 1e-10);
    }

    #[test]
    fn wide_blocks_match_default_and_portable() {
        // Recursive panel (nb > PANEL_BASE) and the DEFAULT_NB config
        // agree with the unblocked factorisation, and the portable
        // engine stays residual-equivalent to the SIMD one.
        let mut rng = Rng::new(37);
        for n in [65, 130, 200] {
            let a = Mat::random(n, n, &mut rng);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            for nb in [24, 48, DEFAULT_NB] {
                let mut f = a.clone();
                let piv = lu_factor(&mut f, nb).unwrap();
                let x = lu_solve(&f, &piv, &b);
                assert!(residual(&a, &x, &b) < 1e-10, "n={n} nb={nb}");
                let mut fp = a.clone();
                let pp = lu_factor_portable(&mut fp, nb).unwrap();
                assert_eq!(piv, pp, "portable pivots n={n} nb={nb}");
                assert!(f.dist(&fp) < 1e-10, "portable dist n={n} nb={nb}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let mut rng = Rng::new(41);
        let a = Mat::random(80, 80, &mut rng);
        let mut fs = a.clone();
        let ps = lu_factor(&mut fs, 16).unwrap();
        let mut fp = a.clone();
        let pp = lu_factor_par(&mut fp, 16).unwrap();
        assert_eq!(ps, pp);
        assert_eq!(fs, fp, "parallel update must not reorder arithmetic");
    }

    /// At nb = 64 the first trailing updates span two and three MC-row
    /// panels, so 2, 3 and 7 workers split them whatever the host's core
    /// count; at the default nb the one trailing update is a single panel.
    #[test]
    fn parallel_is_bit_identical_at_any_worker_count() {
        let mut rng = Rng::new(43);
        let a = Mat::random(300, 300, &mut rng);
        for nb in [64, DEFAULT_NB] {
            let mut fs = a.clone();
            let ps = lu_factor(&mut fs, nb).unwrap();
            let mut fp = a.clone();
            let pp = lu_factor_par(&mut fp, nb).unwrap();
            assert_eq!(ps, pp);
            assert_eq!(fs, fp, "parallel update must not reorder arithmetic");
            for workers in [2, 3, 7] {
                let mut fw = a.clone();
                let simd = simd::avx2_fma_available();
                let pw = lu_factor_impl(&mut fw, nb, workers, simd).unwrap();
                assert_eq!(
                    (ps.as_slice(), &fs),
                    (pw.as_slice(), &fw),
                    "nb {nb}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn singular_matrix_reported() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(lu_factor(&mut a, 1), Err(Singular(1)));
        let mut z = Mat::zeros(3, 3);
        assert_eq!(lu_factor(&mut z, 2), Err(Singular(0)));
    }

    #[test]
    fn non_finite_pivot_rejected() {
        // A NaN in the pivot column survives a `best == 0.0` check (any
        // comparison with NaN is false) — it must be reported, not
        // propagated through the factorisation.
        let mut a = Mat::from_rows(&[&[f64::NAN, 1.0], &[2.0, 3.0]]);
        assert_eq!(lu_factor(&mut a, 1), Err(Singular(0)));
        let mut b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, f64::NAN]]);
        assert_eq!(lu_factor(&mut b, 2), Err(Singular(1)));
        let mut c = Mat::from_rows(&[&[f64::INFINITY, 1.0], &[2.0, 3.0]]);
        assert_eq!(lu_factor_par(&mut c, 1), Err(Singular(0)));
    }

    #[test]
    fn spd_system_high_accuracy() {
        let mut rng = Rng::new(91);
        let a = Mat::random_spd(60, &mut rng);
        let xtrue: Vec<f64> = (0..60).map(|i| 1.0 + (i % 7) as f64).collect();
        let b = a.matvec(&xtrue);
        let mut f = a.clone();
        let piv = lu_factor_par(&mut f, 8).unwrap();
        let x = lu_solve(&f, &piv, &b);
        let err = x
            .iter()
            .zip(&xtrue)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "max err {err}");
    }

    #[test]
    fn reconstruction_equals_permuted_input() {
        let mut rng = Rng::new(17);
        let a = Mat::random(12, 12, &mut rng);
        let mut f = a.clone();
        let piv = lu_factor(&mut f, 4).unwrap();
        // Apply the same interchanges to a copy of A.
        let mut pa = a.clone();
        for (j, &p) in piv.iter().enumerate() {
            pa.swap_rows(j, p);
        }
        let rec = lu_reconstruct(&f);
        assert!(pa.dist(&rec) < 1e-11, "‖PA − LU‖ = {}", pa.dist(&rec));
    }

    #[test]
    fn linpack_flop_convention() {
        assert_eq!(linpack_flops(100), 2.0 * 1e6 / 3.0 + 2.0 * 1e4);
    }
}
