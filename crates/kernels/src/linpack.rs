//! The LINPACK benchmark driver: generate, factor, solve, verify, and
//! report FLOP rate — the procedure behind the exhibit's "13 GFLOPS ...
//! ON A LINPAC BENCHMARK CODE OF ORDER 25,000 BY 25,000".
//!
//! On the host this runs real arithmetic (sequential or parallel). The
//! simulated-Delta variant lives in [`crate::sim::lu2d`].

use crate::lu::{linpack_flops, lu_factor, lu_factor_par, lu_solve, Singular};
use crate::mat::vecops::norm_inf;
use crate::mat::Mat;
use des::rng::Rng;
use std::time::Instant;

/// How to run the factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sequential,
    /// [`lu_factor_par`]: the trailing updates on every host core.
    Parallel,
}

/// Result of one LINPACK run.
#[derive(Debug, Clone)]
pub struct LinpackResult {
    pub n: usize,
    pub block: usize,
    pub mode: Mode,
    pub seconds: f64,
    pub gflops: f64,
    /// Scaled residual ‖Ax−b‖∞ / (‖A‖∞ ‖x‖∞ n ε); must be O(1).
    pub residual: f64,
    pub passed: bool,
}

/// The standard LINPACK pass criterion on the scaled residual.
pub const RESIDUAL_THRESHOLD: f64 = 16.0;

/// Run the benchmark at order `n` with panel width `block`.
pub fn run(n: usize, block: usize, mode: Mode, seed: u64) -> Result<LinpackResult, Singular> {
    let mut rng = Rng::new(seed);
    let a = Mat::random(n, n, &mut rng);
    let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();

    let mut f = a.clone();
    let start = Instant::now();
    let piv = match mode {
        Mode::Sequential => lu_factor(&mut f, block)?,
        Mode::Parallel => lu_factor_par(&mut f, block)?,
    };
    let x = lu_solve(&f, &piv, &b);
    let seconds = start.elapsed().as_secs_f64();

    let ax = a.matvec(&x);
    let rinf = norm_inf(&ax.iter().zip(&b).map(|(p, q)| p - q).collect::<Vec<_>>());
    let residual = rinf / (a.inf_norm() * norm_inf(&x) * n as f64 * f64::EPSILON).max(1e-300);
    Ok(LinpackResult {
        n,
        block,
        mode,
        seconds,
        gflops: linpack_flops(n) / seconds / 1e9,
        residual,
        passed: residual < RESIDUAL_THRESHOLD,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_run_passes() {
        let r = run(120, 16, Mode::Sequential, 1).unwrap();
        assert!(r.passed, "residual {}", r.residual);
        assert!(r.gflops > 0.0);
        assert_eq!(r.n, 120);
    }

    #[test]
    fn parallel_run_passes() {
        let r = run(160, 32, Mode::Parallel, 2).unwrap();
        assert!(r.passed, "residual {}", r.residual);
    }

    #[test]
    fn residual_is_tiny_for_well_conditioned() {
        let r = run(64, 8, Mode::Sequential, 3).unwrap();
        assert!(r.residual < 1.0, "scaled residual {}", r.residual);
    }
}
