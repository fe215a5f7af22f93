//! The dense matrix multiply oracle.
//!
//! `matmul_naive` is the plain triple loop every fast multiply is checked
//! against; the sequential and parallel multiplies themselves are the
//! packed register-blocked engine in [`crate::gemm`].

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
