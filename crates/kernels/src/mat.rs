//! A small dense row-major matrix type used by the LINPACK and BLAS-like
//! kernels. Not a general linear-algebra library — exactly what the
//! benchmark codes of the era used: a flat array and index arithmetic.

use des::rng::Rng;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn from_rows(rows: &[&[f64]]) -> Mat {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut m = Mat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.row_mut(i).copy_from_slice(row);
        }
        m
    }

    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Uniform random entries in [-1, 1) — the LINPACK generator's range.
    pub fn random(rows: usize, cols: usize, rng: &mut Rng) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.range_f64(-1.0, 1.0);
        }
        m
    }

    /// Random symmetric diagonally dominant matrix (always non-singular,
    /// positive definite) — handy for well-conditioned test systems.
    pub fn random_spd(n: usize, rng: &mut Rng) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                let v = rng.range_f64(-1.0, 1.0);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        for i in 0..n {
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0 + rng.next_f64();
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bot) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bot[..self.cols]);
    }

    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// y = A x.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    }

    /// Frobenius-norm distance to another matrix.
    pub fn dist(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Vector helpers shared by the solvers.
///
/// The reductions ([`vecops::dot`], [`vecops::norm2`] and CG's fused
/// update) share one summation order, which is part of their contract:
/// sixteen strided partial sums (`acc[k % 16] += a[k]·b[k]` over the
/// whole 16-element chunks), a fixed pairwise tree over the sixteen
/// (`acc[k] += acc[k + w]` for `w` = 8, 4, 2, 1), then the `len % 16`
/// tail added one element at a time. Sixteen independent chains are
/// what four AVX2 registers hold, so the compiler vectorises the loop
/// without reassociating anything; each kernel is one
/// `#[inline(always)]` body (the semantic reference) compiled a second
/// time under `#[target_feature(enable = "avx2")]` — no FMA is enabled
/// and Rust never contracts `a*b + c`, so the clone returns the
/// portable body's bits on every host, and nothing here depends on a
/// thread count.
pub mod vecops {
    use crate::simd;

    /// Independent partial sums of a reduction: four 4-lane registers.
    const LANES: usize = 16;

    /// Defines `$name`: `$body` compiled under AVX2 when the host has it
    /// (bit-identical by construction, see the module docs), the
    /// portable body otherwise.
    macro_rules! avx2_dispatch {
        ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:ident) => {
            $(#[$doc])*
            $vis fn $name($($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                {
                    #[target_feature(enable = "avx2")]
                    unsafe fn clone($($arg: $ty),*) $(-> $ret)? {
                        $body($($arg),*)
                    }
                    if simd::avx2_fma_available() {
                        // SAFETY: AVX2 was detected at run time; the clone is the
                        // safe body and touches memory only through its slices.
                        return unsafe { clone($($arg),*) };
                    }
                }
                $body($($arg),*)
            }
        };
    }

    /// The fixed pairwise tree over the sixteen partial sums.
    #[inline(always)]
    fn reduce(mut acc: [f64; LANES]) -> f64 {
        let mut w = LANES / 2;
        while w > 0 {
            for k in 0..w {
                acc[k] += acc[k + w];
            }
            w /= 2;
        }
        acc[0]
    }

    #[inline(always)]
    fn dot_body(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let tail = ac.remainder().iter().zip(bc.remainder());
        let mut acc = [0.0; LANES];
        for (x, y) in ac.zip(bc) {
            for k in 0..LANES {
                acc[k] += x[k] * y[k];
            }
        }
        let mut s = reduce(acc);
        for (x, y) in tail {
            s += x * y;
        }
        s
    }

    avx2_dispatch! {
        /// Dot product, in the module's summation order.
        pub fn dot(a: &[f64], b: &[f64]) -> f64 = dot_body
    }

    /// Euclidean norm: `dot(x, x).sqrt()`.
    pub fn norm2(x: &[f64]) -> f64 {
        dot(x, x).sqrt()
    }

    /// Infinity norm.
    pub fn norm_inf(x: &[f64]) -> f64 {
        x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    #[inline(always)]
    fn cg_update_body(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
        let n = p.len();
        assert!(ap.len() == n && x.len() == n && r.len() == n);
        let (pc, apc) = (p.chunks_exact(LANES), ap.chunks_exact(LANES));
        let (pt, apt) = (pc.remainder(), apc.remainder());
        let (mut xc, mut rc) = (x.chunks_exact_mut(LANES), r.chunks_exact_mut(LANES));
        let mut acc = [0.0; LANES];
        for (((xs, rs), ps), aps) in xc.by_ref().zip(rc.by_ref()).zip(pc).zip(apc) {
            for k in 0..LANES {
                xs[k] += alpha * ps[k];
                rs[k] += -alpha * aps[k];
                acc[k] += rs[k] * rs[k];
            }
        }
        let mut s = reduce(acc);
        let tail = xc.into_remainder().iter_mut().zip(rc.into_remainder());
        for ((xi, ri), (pi, api)) in tail.zip(pt.iter().zip(apt)) {
            *xi += alpha * pi;
            *ri += -alpha * api;
            s += *ri * *ri;
        }
        s
    }

    avx2_dispatch! {
        /// The fused CG update: `x += alpha·p`, `r -= alpha·ap`, returns
        /// the new `r·r` — one sweep, bit for bit `axpy(alpha, p, x);
        /// axpy(-alpha, ap, r); dot(r, r)`.
        pub(crate) fn cg_update(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64
            = cg_update_body
    }

    #[inline(always)]
    fn xpby_body(x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi + beta * *yi;
        }
    }

    avx2_dispatch! {
        /// y = x + beta * y (CG's search-direction update).
        pub(crate) fn xpby(x: &[f64], beta: f64, y: &mut [f64]) = xpby_body
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use des::rng::Rng;

        fn random(n: usize, rng: &mut Rng) -> Vec<f64> {
            (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// y += alpha * x: the unfused reference `cg_update` is held to.
        fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }

        /// Every tail length around one, two and four chunks, and one
        /// CG-sized vector with a tail.
        fn lengths() -> impl Iterator<Item = usize> {
            (0..=70).chain([4097])
        }

        #[test]
        fn dispatched_kernels_match_their_portable_bodies_bitwise() {
            let mut rng = Rng::new(16);
            for n in lengths() {
                let (a, b) = (random(n, &mut rng), random(n, &mut rng));
                assert_eq!(
                    dot(&a, &b).to_bits(),
                    dot_body(&a, &b).to_bits(),
                    "dot, n={n}"
                );

                let (alpha, beta) = (rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0));
                let (x0, r0) = (random(n, &mut rng), random(n, &mut rng));
                let (mut x1, mut r1) = (x0.clone(), r0.clone());
                let (mut x2, mut r2) = (x0.clone(), r0.clone());
                let rs1 = cg_update(alpha, &a, &b, &mut x1, &mut r1);
                let rs2 = cg_update_body(alpha, &a, &b, &mut x2, &mut r2);
                assert_eq!(rs1.to_bits(), rs2.to_bits(), "cg_update r·r, n={n}");
                assert_eq!((bits(&x1), bits(&r1)), (bits(&x2), bits(&r2)), "n={n}");

                let (mut y1, mut y2) = (x0.clone(), x0);
                xpby(&a, beta, &mut y1);
                xpby_body(&a, beta, &mut y2);
                assert_eq!(bits(&y1), bits(&y2), "xpby, n={n}");
            }
        }

        #[test]
        fn fused_update_is_axpy_axpy_dot_bitwise() {
            let mut rng = Rng::new(17);
            for n in lengths() {
                let (p, ap) = (random(n, &mut rng), random(n, &mut rng));
                let alpha = rng.range_f64(-2.0, 2.0);
                let (mut x1, mut r1) = (random(n, &mut rng), random(n, &mut rng));
                let (mut x2, mut r2) = (x1.clone(), r1.clone());
                let fused = cg_update(alpha, &p, &ap, &mut x1, &mut r1);
                axpy(alpha, &p, &mut x2);
                axpy(-alpha, &ap, &mut r2);
                assert_eq!(fused.to_bits(), dot(&r2, &r2).to_bits(), "n={n}");
                assert_eq!((bits(&x1), bits(&r1)), (bits(&x2), bits(&r2)), "n={n}");
            }
        }

        #[test]
        fn dot_is_within_the_forward_bound_of_a_compensated_sum() {
            let mut rng = Rng::new(18);
            for n in lengths() {
                let (a, b) = (random(n, &mut rng), random(n, &mut rng));
                // Neumaier's sum of the (individually rounded) products.
                let (mut sum, mut comp, mut abs) = (0.0f64, 0.0f64, 0.0f64);
                for (x, y) in a.iter().zip(&b) {
                    let t = x * y;
                    let s = sum + t;
                    comp += if sum.abs() >= t.abs() {
                        (sum - s) + t
                    } else {
                        (t - s) + sum
                    };
                    sum = s;
                    abs += t.abs();
                }
                let exact = sum + comp;
                let bound = n as f64 * f64::EPSILON * abs;
                assert!((dot(&a, &b) - exact).abs() <= bound, "n={n}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::vecops::*;
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut m = Mat::zeros(3, 4);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1)[2], 5.0);
    }

    #[test]
    fn identity_matvec_is_id() {
        let m = Mat::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(0, 2)], 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn swap_rows_works_both_orders() {
        let mut m = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[3.0, 3.0]);
        assert_eq!(m.row(2), &[1.0, 1.0]);
        m.swap_rows(2, 0); // reverse order, same effect
        assert_eq!(m.row(0), &[1.0, 1.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]);
        assert_eq!(m.inf_norm(), 3.5);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn spd_matrix_is_diagonally_dominant() {
        let mut rng = Rng::new(5);
        let m = Mat::random_spd(20, &mut rng);
        for i in 0..20 {
            let off: f64 = (0..20).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)] > off, "row {i} not dominant");
            for j in 0..20 {
                assert_eq!(m[(i, j)], m[(j, i)], "symmetry");
            }
        }
    }

    #[test]
    fn dot_of_a_short_vector() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(dot(&x, &x), 14.0);
    }

    #[test]
    fn random_is_seeded() {
        let a = Mat::random(4, 4, &mut Rng::new(9));
        let b = Mat::random(4, 4, &mut Rng::new(9));
        assert_eq!(a, b);
        let c = Mat::random(4, 4, &mut Rng::new(10));
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn dist_is_zero_iff_equal() {
        let a = Mat::random(3, 5, &mut Rng::new(1));
        assert_eq!(a.dist(&a), 0.0);
        let mut b = a.clone();
        b[(2, 4)] += 0.5;
        assert!((a.dist(&b) - 0.5).abs() < 1e-15);
    }
}
