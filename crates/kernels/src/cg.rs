//! Sparse conjugate gradient — the DOE "energy and grand challenge
//! computational research" kernel: CSR storage, sequential and parallel
//! SpMV, and a preconditioner-free CG solver.
//!
//! ## Engine v2: the packed SpMV plan
//!
//! [`Csr::spmv`]'s row-at-a-time dot products are latency-bound: every
//! entry is a dependent scalar multiply-add, and short rows (5-point
//! Laplacian: ≤ 5 entries) leave nothing for the vector units.
//! [`SpmvPlan`] re-packs the matrix once into 16-row blocks with the
//! entries *row-interleaved* — group `e` holds entry `e` of each of the
//! sixteen rows, columns (`u32`) and values side by side, short rows
//! padded with explicit `(col 0, 0.0)` entries to the block's longest
//! row. The AVX2 kernel then keeps one row per lane across four
//! 4-lane accumulators: load 16 values, fetch the 16 `x[col]`
//! operands, multiply, add. Sixteen rows per block is deliberate: the
//! per-lane add chain is latency-bound, and four independent
//! accumulator registers overlap it. Each lane performs exactly the
//! scalar row sum's operations in exactly its order — multiply then
//! add, no FMA — so the packed kernel reproduces [`Csr::spmv`]
//! bit-for-bit (for finite `x`, and up to the sign of a zero: a padded
//! `0.0·x[0]` contributes an exact `±0.0`, and a lane starts at `+0.0`
//! where `Sum` starts at `−0.0`).
//!
//! **Unit-stride quarters.** Neighbouring rows of a banded operator
//! read neighbouring columns: entry `e` of rows `r..r+4` of the 5-point
//! Laplacian is columns `c..c+4`. The plan records, per group and per
//! 4-lane quarter, whether its columns are `c, c+1, c+2, c+3`; such a
//! quarter's operands are one unaligned vector load of `x[c..c+4]`, any
//! other quarter's are four scalar loads (no `vgatherdpd` — slower than
//! plain loads on most AVX2 parts). The operands are the same values
//! either way, so the flag changes how they are fetched and nothing
//! about the result. A quarter that mixes entries with padding (column
//! 0) is not a run, and a run's last column is itself a stored index
//! `< n`, so the load is in bounds even when the run ends at column
//! `n − 1`.
//!
//! The parallel variant deals the same blocks out to its workers in
//! contiguous bands and is bit-identical at any worker count.
//!
//! ## The CG loop
//!
//! [`cg`] builds one plan up front and each iteration is three sweeps:
//! the product `Ap`, the curvature `p·Ap`, and one fused pass that
//! updates `x` and `r` and leaves the new `r·r` behind, followed by the
//! direction update on the `r` it has just written. The reductions use
//! [`vecops`](crate::mat::vecops)' one summation order, so the fused
//! pass equals `axpy; axpy; dot` bit for bit and the solve gives the
//! same bits on every host and thread count.

use crate::mat::vecops::{cg_update, dot, norm2, xpby};
use crate::simd;

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl Csr {
    /// Build from triplets (row, col, value); duplicates are summed.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Csr {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(r, c, v) in triplets {
            assert!(r < n && c < n, "triplet out of range");
            rows[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for row in &mut rows {
            row.sort_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *data.last_mut().unwrap() += v;
                } else {
                    indices.push(c);
                    data.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            n,
            indptr,
            indices,
            data,
        }
    }

    /// The standard 5-point Laplacian on a g×g interior grid
    /// (n = g², symmetric positive definite).
    pub fn poisson2d(g: usize) -> Csr {
        let id = |i: usize, j: usize| i * g + j;
        let mut t = Vec::with_capacity(5 * g * g);
        for i in 0..g {
            for j in 0..g {
                t.push((id(i, j), id(i, j), 4.0));
                if i > 0 {
                    t.push((id(i, j), id(i - 1, j), -1.0));
                }
                if i + 1 < g {
                    t.push((id(i, j), id(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((id(i, j), id(i, j - 1), -1.0));
                }
                if j + 1 < g {
                    t.push((id(i, j), id(i, j + 1), -1.0));
                }
            }
        }
        Csr::from_triplets(g * g, &t)
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(&c, &v)| v * x[c])
            .sum()
    }

    /// y = A·x, sequential.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_dot(i, x);
        }
    }
}

/// Rows per packed block: four 4-lane accumulator chains' worth.
const BLOCK_ROWS: usize = 16;
/// Lanes per accumulator register; a block is four such quarters.
const QUARTER: usize = 4;

/// Packed 16-row-interleaved SpMV plan (see the module docs). Build once
/// per matrix, reuse for every product; results are bit-identical to
/// [`Csr::spmv`] for finite operands.
#[derive(Debug, Clone)]
pub struct SpmvPlan {
    n: usize,
    /// Group range per block: block `b`'s entry groups are
    /// `block_ptr[b]..block_ptr[b+1]`; group `g` occupies
    /// `cols[16g..16g+16]` / `vals[16g..16g+16]`, one lane per row.
    block_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Per group, bit `q` set when quarter `q`'s four columns are
    /// `c, c+1, c+2, c+3`: its operands are `x[c..c+4]`, one load.
    unit: Vec<u8>,
}

impl SpmvPlan {
    /// Pack `a` into the interleaved block layout.
    pub fn new(a: &Csr) -> SpmvPlan {
        let n = a.n;
        assert!(n < u32::MAX as usize, "SpmvPlan stores u32 columns");
        let rowlen = |r: usize| a.indptr[r + 1] - a.indptr[r];
        let mut block_ptr = Vec::with_capacity(n.div_ceil(BLOCK_ROWS) + 1);
        let mut groups = 0;
        block_ptr.push(0);
        for r0 in (0..n).step_by(BLOCK_ROWS) {
            let rows = r0..n.min(r0 + BLOCK_ROWS);
            groups += rows.map(rowlen).max().unwrap_or(0);
            block_ptr.push(groups);
        }
        // Everything starts as padding — an exact no-op lane (0.0 · x[0])
        // — and each row's entries overwrite their own lane.
        let mut cols = vec![0u32; BLOCK_ROWS * groups];
        let mut vals = vec![0.0; BLOCK_ROWS * groups];
        for r in 0..n {
            let at = BLOCK_ROWS * block_ptr[r / BLOCK_ROWS] + r % BLOCK_ROWS;
            let entries = a.indptr[r]..a.indptr[r + 1];
            for (e, idx) in entries.enumerate() {
                cols[at + BLOCK_ROWS * e] = a.indices[idx] as u32;
                vals[at + BLOCK_ROWS * e] = a.data[idx];
            }
        }
        // What `blocks_avx2`'s vector loads rely on; the module docs say
        // why a run is always in bounds.
        let unit = cols
            .chunks_exact(BLOCK_ROWS)
            .map(|cg| {
                let mut bits = 0;
                for (q, quarter) in cg.chunks_exact(QUARTER).enumerate() {
                    let run = quarter.windows(2).all(|w| w[1] == w[0] + 1);
                    bits |= u8::from(run) << q;
                }
                bits
            })
            .collect();
        SpmvPlan {
            n,
            block_ptr,
            cols,
            vals,
            unit,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// y = A·x through the packed plan, sequential.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_with(x, y, 1);
    }

    /// y = A·x through the packed plan, its 16-row blocks shared out over
    /// [`des::host_cores`] workers. Blocks are independent, so this is
    /// bit-identical to [`Self::spmv`] at any worker count.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_with(x, y, crate::workers(true));
    }

    /// y = A·x on `workers` workers, one band of whole blocks each: one
    /// kernel dispatch per band, and at one worker a single dispatch for
    /// every row.
    fn spmv_with(&self, x: &[f64], y: &mut [f64], workers: usize) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let band = self.n.div_ceil(BLOCK_ROWS).div_ceil(workers).max(1);
        par::for_each(y, band * BLOCK_ROWS, workers, |i, yb| {
            self.blocks(i * band, x, yb)
        });
    }

    /// The rows of `y`, which start at block `b0`: one dispatch for all
    /// of them.
    fn blocks(&self, b0: usize, x: &[f64], y: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_fma_available() {
            // SAFETY: AVX2 was detected at run time, and `x.len() == n`
            // (asserted by both callers) is what the kernel's loads need.
            return unsafe { self.blocks_avx2(b0, x, y) };
        }
        self.blocks_portable(b0, x, y);
    }

    /// The semantic reference: lane `l` of a block accumulates row `l`'s
    /// products in entry order.
    fn blocks_portable(&self, b0: usize, x: &[f64], y: &mut [f64]) {
        for (b, yb) in (b0..).zip(y.chunks_mut(BLOCK_ROWS)) {
            let span = BLOCK_ROWS * self.block_ptr[b]..BLOCK_ROWS * self.block_ptr[b + 1];
            let mut acc = [0.0f64; BLOCK_ROWS];
            for (cg, vg) in self.cols[span.clone()]
                .chunks_exact(BLOCK_ROWS)
                .zip(self.vals[span].chunks_exact(BLOCK_ROWS))
            {
                for l in 0..BLOCK_ROWS {
                    acc[l] += vg[l] * x[cg[l] as usize];
                }
            }
            yb.copy_from_slice(&acc[..yb.len()]);
        }
    }

    /// AVX2 clone of [`Self::blocks_portable`]: one row per lane over
    /// four accumulator registers (independent add chains overlap the
    /// FP-add latency), multiply-then-add (no FMA) — per lane exactly the
    /// scalar row sum, so bit-identical to [`Csr::spmv`] on finite input.
    /// A unit-stride quarter loads its four `x` operands at once, any
    /// other assembles them with scalar loads (no `vgatherdpd`); the
    /// operands are the same either way.
    ///
    /// # Safety
    /// The host must have AVX2 and `x.len()` must be `self.n`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn blocks_avx2(&self, b0: usize, x: &[f64], y: &mut [f64]) {
        use std::arch::x86_64::*;
        let xp = x.as_ptr();
        for (b, yb) in (b0..).zip(y.chunks_mut(BLOCK_ROWS)) {
            let groups = self.block_ptr[b]..self.block_ptr[b + 1];
            let span = BLOCK_ROWS * groups.start..BLOCK_ROWS * groups.end;
            let mut s = [_mm256_setzero_pd(); BLOCK_ROWS / QUARTER];
            for ((cg, vg), &unit) in self.cols[span.clone()]
                .chunks_exact(BLOCK_ROWS)
                .zip(self.vals[span].chunks_exact(BLOCK_ROWS))
                .zip(&self.unit[groups])
            {
                for (q, sq) in s.iter_mut().enumerate() {
                    let c = &cg[QUARTER * q..QUARTER * (q + 1)];
                    // SAFETY: every stored column is `< n == x.len()`
                    // (`Csr::from_triplets` asserts it, padding is 0 and
                    // a plan has a group only if `n > 0`), so the scalar
                    // loads are in bounds; a unit quarter's `c[3]` is
                    // `c[0] + 3`, so `x[c[0]..c[0] + 4]` is too. `vg` is a
                    // 16-element chunk and `q < 4`.
                    let (v, g) = unsafe {
                        let v = _mm256_loadu_pd(vg.as_ptr().add(QUARTER * q));
                        let g = if unit >> q & 1 == 1 {
                            _mm256_loadu_pd(xp.add(c[0] as usize))
                        } else {
                            _mm256_set_pd(
                                *xp.add(c[3] as usize),
                                *xp.add(c[2] as usize),
                                *xp.add(c[1] as usize),
                                *xp.add(c[0] as usize),
                            )
                        };
                        (v, g)
                    };
                    *sq = _mm256_add_pd(*sq, _mm256_mul_pd(v, g));
                }
            }
            let mut acc = [0.0f64; BLOCK_ROWS];
            for (q, sq) in s.iter().enumerate() {
                // SAFETY: `acc` has 16 elements and `q < 4`.
                unsafe { _mm256_storeu_pd(acc.as_mut_ptr().add(QUARTER * q), *sq) };
            }
            yb.copy_from_slice(&acc[..yb.len()]);
        }
    }
}

/// CG convergence report.
#[derive(Debug, Clone, Copy)]
pub struct CgResult {
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

/// Conjugate gradient for SPD systems: solves A·x = b in place on `x`
/// (initial guess in). `parallel` runs the products on
/// [`des::host_cores`] workers.
///
/// A direction with `p·Ap ≤ 0` (or NaN) means `A` is not positive
/// definite: the solve stops there with `converged: false`, `x` and the
/// residual those of the last completed iteration.
pub fn cg(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iters: usize,
    parallel: bool,
) -> CgResult {
    let n = a.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = norm2(b).max(1e-300);

    // One packed plan for the whole solve; every iteration's product
    // runs through it (bit-identical to the CSR row loop).
    let plan = SpmvPlan::new(a);
    let mut ap = vec![0.0; n];
    let workers = crate::workers(parallel);
    let spmv = |x: &[f64], y: &mut [f64]| plan.spmv_with(x, y, workers);
    spmv(x, &mut ap);
    let mut r: Vec<f64> = b.iter().zip(&ap).map(|(bi, axi)| bi - axi).collect();
    let mut p = r.clone();
    let mut rs = dot(&r, &r);

    // Three sweeps per iteration: the product, p·Ap, and the fused
    // update (which leaves r·r behind) with the direction update.
    let mut iters = 0;
    while iters < max_iters && rs.sqrt() / bnorm > tol {
        spmv(&p, &mut ap);
        let curvature = dot(&p, &ap);
        if curvature.is_nan() || curvature <= 0.0 {
            break;
        }
        let rs_new = cg_update(rs / curvature, &p, &ap, x, &mut r);
        xpby(&r, rs_new / rs, &mut p);
        rs = rs_new;
        iters += 1;
    }
    CgResult {
        iterations: iters,
        residual: rs.sqrt() / bnorm,
        converged: rs.sqrt() / bnorm <= tol,
    }
}

/// FLOPs of one CG iteration: one SpMV (2·nnz) plus 5 vector ops (2n each).
pub fn cg_iter_flops(n: usize, nnz: usize) -> f64 {
    2.0 * nnz as f64 + 10.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{lu_factor, lu_solve};
    use crate::mat::Mat;
    use des::rng::Rng;

    #[test]
    fn csr_builds_and_dedups() {
        let a = Csr::from_triplets(3, &[(0, 0, 1.0), (0, 0, 2.0), (1, 2, 5.0), (2, 1, -1.0)]);
        assert_eq!(a.nnz(), 3);
        let mut y = vec![0.0; 3];
        a.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, -1.0]);
    }

    #[test]
    fn poisson_is_symmetric() {
        let a = Csr::poisson2d(6);
        let n = a.n();
        // Check A == A^T via random vectors: x'Ay == y'Ax.
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        a.spmv(&x, &mut ax);
        a.spmv(&yv, &mut ay);
        assert!((dot(&yv, &ax) - dot(&x, &ay)).abs() < 1e-10);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Poisson's five points with the right-hand neighbour as the
    /// *last* entry of each row: quarters that are runs, and runs that
    /// end at column n − 1.
    fn banded(n: usize, rng: &mut Rng) -> Csr {
        let mut t = Vec::new();
        for r in 0..n {
            for c in r.saturating_sub(2)..n.min(r + 3) {
                t.push((r, c, rng.range_f64(-1.0, 1.0)));
            }
        }
        Csr::from_triplets(n, &t)
    }

    /// About one row in five empty, the others 1–7 scattered entries.
    fn scattered(n: usize, rng: &mut Rng) -> Csr {
        let mut t = Vec::new();
        for r in 0..n {
            if rng.next_f64() < 0.2 {
                continue;
            }
            for _ in 0..1 + (rng.next_f64() * 7.0) as usize {
                let c = (rng.next_f64() * n as f64) as usize;
                t.push((r, c.min(n - 1), rng.range_f64(-1.0, 1.0)));
            }
        }
        Csr::from_triplets(n, &t)
    }

    /// Sixteen rows whose one entry sits at column `r + 4`: four runs,
    /// the last ending at column n − 1 = 19. Row 5 has an entry in
    /// front, which breaks its quarter (and no other) in group 0 and
    /// leaves group 1 all padding but one lane. Rows 16..20 are empty.
    fn ragged_diagonal() -> Csr {
        let mut t: Vec<_> = (0..16).map(|r| (r, r + 4, 1.0 + r as f64)).collect();
        t.push((5, 0, -2.0));
        Csr::from_triplets(20, &t)
    }

    #[test]
    fn plan_spmv_is_exactly_csr_spmv() {
        // Tail blocks (n % 16 ≠ 0), empty rows, ragged row lengths, runs
        // up to the last column, a single row — the packed plan must
        // reproduce the row loop bit-for-bit, sequential and parallel.
        let mut rng = Rng::new(22);
        let mut cases: Vec<Csr> = vec![
            Csr::poisson2d(13),
            Csr::from_triplets(7, &[(0, 6, 2.5), (3, 0, -1.25), (3, 3, 4.0), (6, 2, 0.5)]),
            Csr::from_triplets(1, &[(0, 0, 3.0)]),
            Csr::from_triplets(1, &[]),
            ragged_diagonal(),
        ];
        for n in [5, 16, 37, 100, 131] {
            cases.push(banded(n, &mut rng));
            cases.push(scattered(n, &mut rng));
        }
        for a in &cases {
            let n = a.n();
            let x: Vec<f64> = (0..n).map(|_| rng.range_f64(-8.0, 8.0)).collect();
            let plan = SpmvPlan::new(a);
            // Padding lanes make the packed plan at least as long as nnz.
            assert!(plan.vals.len() >= a.nnz());
            let mut yr = vec![0.0; n];
            let mut yp = vec![f64::NAN; n];
            let mut ypp = vec![f64::NAN; n];
            let mut yport = vec![f64::NAN; n];
            a.spmv(&x, &mut yr);
            plan.spmv(&x, &mut yp);
            plan.spmv_par(&x, &mut ypp);
            plan.blocks_portable(0, &x, &mut yport);
            // `+ 0.0` folds the empty row's −0.0 (`Sum` starts there)
            // into the plan's +0.0; every other value keeps its bits.
            let yr: Vec<f64> = yr.iter().map(|v| v + 0.0).collect();
            assert_eq!(bits(&yr), bits(&yp), "plan vs row loop (n={n})");
            assert_eq!(bits(&yp), bits(&ypp), "plan par vs seq (n={n})");
            assert_eq!(bits(&yp), bits(&yport), "dispatched vs portable (n={n})");
            // Split whatever the host's core count, more workers than
            // blocks included.
            for workers in [2, 3, 7] {
                let mut yw = vec![f64::NAN; n];
                plan.spmv_with(&x, &mut yw, workers);
                assert_eq!(bits(&yp), bits(&yw), "plan on {workers} workers (n={n})");
            }
        }
    }

    #[test]
    fn plan_marks_exactly_the_unit_stride_quarters() {
        // Group 0: quarter 1 is (8, 0, 10, 11). Group 1: (0, 9, 0, 0)
        // and three padding quarters (0, 0, 0, 0), none of them a run.
        assert_eq!(SpmvPlan::new(&ragged_diagonal()).unit, vec![0b1101, 0]);
        // Interior Poisson rows read consecutive columns entry by entry.
        let plan = SpmvPlan::new(&Csr::poisson2d(64));
        let runs: u32 = plan.unit.iter().map(|u| u.count_ones()).sum();
        assert_eq!((runs, plan.unit.len() * 4), (4706, 5088));
    }

    #[test]
    fn cg_solves_poisson() {
        let a = Csr::poisson2d(16);
        let n = a.n();
        let xtrue: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xtrue, &mut b);
        let mut x = vec![0.0; n];
        let res = cg(&a, &b, &mut x, 1e-12, 10_000, false);
        assert!(res.converged, "residual {}", res.residual);
        let err = x
            .iter()
            .zip(&xtrue)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-8, "max err {err}");
    }

    #[test]
    fn cg_matches_dense_lu() {
        // Same small SPD system through both solvers.
        let g = 5;
        let a = Csr::poisson2d(g);
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x = vec![0.0; n];
        cg(&a, &b, &mut x, 1e-13, 10_000, true);

        let dense = Mat::from_fn(n, n, |i, j| {
            let gi = (i / g, i % g);
            let gj = (j / g, j % g);
            if i == j {
                4.0
            } else if (gi.0 == gj.0 && gi.1.abs_diff(gj.1) == 1)
                || (gi.1 == gj.1 && gi.0.abs_diff(gj.0) == 1)
            {
                -1.0
            } else {
                0.0
            }
        });
        let mut f = dense.clone();
        let piv = lu_factor(&mut f, 8).unwrap();
        let xd = lu_solve(&f, &piv, &b);
        for (p, q) in x.iter().zip(&xd) {
            assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
    }

    #[test]
    fn cg_iteration_count_scales_with_grid() {
        // κ(Poisson) grows like g², CG iterations like g.
        let mut iters = Vec::new();
        for g in [8, 16, 32] {
            let a = Csr::poisson2d(g);
            let b = vec![1.0; a.n()];
            let mut x = vec![0.0; a.n()];
            let r = cg(&a, &b, &mut x, 1e-10, 100_000, false);
            assert!(r.converged);
            iters.push(r.iterations as f64);
        }
        let r1 = iters[1] / iters[0];
        let r2 = iters[2] / iters[1];
        // Roughly linear in g (κ ~ g²  ⇒  iters ~ g), with slack for
        // small-grid effects.
        assert!(r1 > 1.3 && r1 < 3.5, "scaling {r1}");
        assert!(r2 > 1.3 && r2 < 3.5, "scaling {r2}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = Csr::poisson2d(4);
        let b = vec![0.0; a.n()];
        let mut x = vec![0.0; a.n()];
        let r = cg(&a, &b, &mut x, 1e-10, 100, false);
        assert_eq!(r.iterations, 0);
        assert!(r.converged);
    }

    #[test]
    fn cg_stops_at_a_direction_without_positive_curvature() {
        // Indefinite: the first step is fine (p·Ap = 1), the second
        // direction has p·Ap < 0. The answer is the first iterate.
        let a = Csr::from_triplets(2, &[(0, 0, 2.0), (1, 1, -1.0)]);
        let mut x = vec![0.0; 2];
        let r = cg(&a, &[1.0, 1.0], &mut x, 1e-10, 100, false);
        assert!(!r.converged);
        assert_eq!((r.iterations, x.as_slice()), (1, &[2.0, 2.0][..]));
        assert!((r.residual - 3.0).abs() < 1e-15);

        // Singular: A = 0 has no curvature anywhere; x is not touched.
        let zero = Csr::from_triplets(3, &[]);
        let mut x = vec![0.5; 3];
        let r = cg(&zero, &[1.0, 2.0, 2.0], &mut x, 1e-10, 100, false);
        assert!(!r.converged);
        assert_eq!((r.iterations, r.residual), (0, 1.0));
        assert_eq!(x, vec![0.5; 3]);

        // A NaN entry: there is no finite residual to report, and no
        // step is taken.
        let nan = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, f64::NAN)]);
        let mut x = vec![0.25; 2];
        let r = cg(&nan, &[1.0, 0.0], &mut x, 1e-10, 100, false);
        assert!(!r.converged && r.iterations == 0);
        assert_eq!(x, vec![0.25; 2]);
    }

    #[test]
    fn cg_on_the_benchmark_fixture() {
        // The `kernels` workload's solve and its acceptance test: 64²
        // Poisson, seeded right-hand side in [-1, 1), tolerance 1e-8.
        // The count moves with the right-hand side (191–200 over thirty
        // seeds); a redefined `dot` may move it by a rounding, no more.
        let a = Csr::poisson2d(64);
        let n = a.n();
        let mut rng = Rng::new(4);
        let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut x = vec![0.0; n];
        let res = cg(&a, &b, &mut x, 1e-8, 10_000, false);
        assert!(res.converged);
        assert!(
            res.iterations.abs_diff(198) <= 2,
            "{} iterations",
            res.iterations
        );
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let true_residual = norm2(&r) / norm2(&b);
        assert!(true_residual < 1e-7, "true residual {true_residual}");
    }

    #[test]
    fn flops_accounting() {
        let a = Csr::poisson2d(10);
        let f = cg_iter_flops(a.n(), a.nnz());
        assert!(f > 0.0);
        assert_eq!(f, 2.0 * a.nnz() as f64 + 10.0 * 100.0);
    }
}
