//! Dense matrix multiply baselines: naive and cache-blocked.
//!
//! `matmul_naive` is the correctness oracle and `matmul_blocked` the
//! cache-blocked baseline; the fast sequential and parallel multiplies
//! are the packed register-blocked engine in [`crate::gemm`].

use crate::mat::Mat;

/// Naive triple loop (i-k-j order, so the inner loop is stride-1).
pub fn matmul_naive(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let aik = a[(i, l)];
            let brow = b.row(l);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
    c
}

/// Cache-blocked version with a square tile of `bs`.
pub fn matmul_blocked(a: &Mat, b: &Mat, bs: usize) -> Mat {
    assert_eq!(a.cols(), b.rows());
    assert!(bs > 0);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for ii in (0..m).step_by(bs) {
        let iend = (ii + bs).min(m);
        for ll in (0..k).step_by(bs) {
            let lend = (ll + bs).min(k);
            for jj in (0..n).step_by(bs) {
                let jend = (jj + bs).min(n);
                for i in ii..iend {
                    for l in ll..lend {
                        let aik = a[(i, l)];
                        let brow = b.row(l);
                        let crow = c.row_mut(i);
                        for j in jj..jend {
                            crow[j] += aik * brow[j];
                        }
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_par;
    use des::rng::Rng;

    #[test]
    fn known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul_naive(&a, &b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(3);
        let a = Mat::random(7, 7, &mut rng);
        let c = matmul_naive(&a, &Mat::identity(7));
        assert!(a.dist(&c) < 1e-14);
    }

    #[test]
    fn blocked_matches_naive_all_shapes() {
        let mut rng = Rng::new(11);
        for (m, k, n) in [(5, 7, 9), (16, 16, 16), (33, 17, 5), (1, 8, 1)] {
            let a = Mat::random(m, k, &mut rng);
            let b = Mat::random(k, n, &mut rng);
            let naive = matmul_naive(&a, &b);
            for bs in [1, 3, 8, 64] {
                let blk = matmul_blocked(&a, &b, bs);
                assert!(naive.dist(&blk) < 1e-12, "m={m} k={k} n={n} bs={bs}");
            }
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let mut rng = Rng::new(13);
        let a = Mat::random(40, 30, &mut rng);
        let b = Mat::random(30, 50, &mut rng);
        let naive = matmul_naive(&a, &b);
        let par = gemm_par(&a, &b);
        assert!(naive.dist(&par) < 1e-12);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Mat::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Mat::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let c = gemm_par(&a, &b);
        assert_eq!((c.rows(), c.cols()), (1, 1));
        assert_eq!(c[(0, 0)], 3.0);
    }
}
