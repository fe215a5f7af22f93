//! Computational aerosciences model problem (the CAS consortium's
//! domain): steady transport on a 2-D grid.
//!
//! Two solvers for the discrete Poisson/transport equation on the unit
//! square with Dirichlet boundaries:
//! * Jacobi sweeps (embarrassingly parallel — the testbed-friendly one);
//! * red-black SOR (converges far faster; still parallel within a colour).
//!
//! Grid convention: `Grid` stores (n+2)×(n+2) points including the
//! boundary ring; solvers update interior points only.

/// A square scalar field with a one-cell boundary ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    n: usize, // interior points per side
    data: Vec<f64>,
}

impl Grid {
    pub fn new(n: usize) -> Grid {
        Grid {
            n,
            data: vec![0.0; (n + 2) * (n + 2)],
        }
    }

    /// Interior size per side.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * (self.n + 2) + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * (self.n + 2) + j] = v;
    }

    /// Apply a boundary condition function on the ring.
    pub fn set_boundary(&mut self, f: impl Fn(f64, f64) -> f64) {
        let n = self.n;
        let h = 1.0 / (n + 1) as f64;
        for k in 0..n + 2 {
            let t = k as f64 * h;
            self.set(0, k, f(0.0, t));
            self.set(n + 1, k, f(1.0, t));
            self.set(k, 0, f(t, 0.0));
            self.set(k, n + 1, f(t, 1.0));
        }
    }

    /// Max-norm difference over all points.
    pub fn dist(&self, other: &Grid) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn stride(&self) -> usize {
        self.n + 2
    }
}

/// Convergence report for an iterative solve.
#[derive(Debug, Clone, Copy)]
pub struct Convergence {
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

/// One Jacobi sweep: `dst` interior = average of `src` neighbours minus
/// h²/4 · rhs, its rows shared out over `workers` workers. Returns the
/// max update delta.
fn jacobi_sweep(src: &Grid, dst: &mut Grid, rhs: &Grid, workers: usize) -> f64 {
    let n = src.n;
    let s = src.stride();
    let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
    let src_d = &src.data;
    let rhs_d = &rhs.data;
    let row_op = |idx: usize, row: &mut [f64]| -> f64 {
        let i = idx + 1; // interior row index
        let mut local_max = 0.0f64;
        for j in 1..=n {
            let v = 0.25
                * (src_d[(i - 1) * s + j]
                    + src_d[(i + 1) * s + j]
                    + src_d[i * s + j - 1]
                    + src_d[i * s + j + 1]
                    - h2 * rhs_d[i * s + j]);
            local_max = local_max.max((v - row[j]).abs());
            row[j] = v;
        }
        local_max
    };
    // dst rows 1..=n, each (n+2) long.
    let interior = &mut dst.data[s..(n + 1) * s];
    par::map(interior, s, workers, row_op)
        .into_iter()
        .fold(0.0, f64::max)
}

/// Jacobi iteration until the max update falls below `tol` (or
/// `max_iters`). `parallel` shares each sweep's rows out over
/// [`des::host_cores`] workers.
pub fn jacobi(u: &mut Grid, rhs: &Grid, tol: f64, max_iters: usize, parallel: bool) -> Convergence {
    assert_eq!(u.n, rhs.n);
    let mut other = u.clone();
    let workers = crate::workers(parallel);
    let mut delta = f64::INFINITY;
    let mut iters = 0;
    while iters < max_iters && delta > tol {
        delta = jacobi_sweep(u, &mut other, rhs, workers);
        // Swap buffers; `other` now holds the newest iterate.
        std::mem::swap(u, &mut other);
        iters += 1;
    }
    Convergence {
        iterations: iters,
        residual: delta,
        converged: delta <= tol,
    }
}

/// Red-black SOR with relaxation factor `omega` (ω = 2/(1+sin(πh)) is
/// optimal for the Laplacian; pass `None` to use it).
pub fn sor(
    u: &mut Grid,
    rhs: &Grid,
    omega: Option<f64>,
    tol: f64,
    max_iters: usize,
) -> Convergence {
    assert_eq!(u.n, rhs.n);
    let n = u.n;
    let s = u.stride();
    let h = 1.0 / (n + 1) as f64;
    let w = omega.unwrap_or(2.0 / (1.0 + (std::f64::consts::PI * h).sin()));
    let h2 = h * h;
    let mut delta = f64::INFINITY;
    let mut iters = 0;
    while iters < max_iters && delta > tol {
        delta = 0.0;
        for colour in 0..2 {
            for i in 1..=n {
                let start = 1 + (i + colour) % 2;
                let mut j = start;
                while j <= n {
                    let idx = i * s + j;
                    let sigma = 0.25
                        * (u.data[idx - s] + u.data[idx + s] + u.data[idx - 1] + u.data[idx + 1]
                            - h2 * rhs.data[idx]);
                    let nv = (1.0 - w) * u.data[idx] + w * sigma;
                    delta = delta.max((nv - u.data[idx]).abs());
                    u.data[idx] = nv;
                    j += 2;
                }
            }
        }
        iters += 1;
    }
    Convergence {
        iterations: iters,
        residual: delta,
        converged: delta <= tol,
    }
}

/// FLOPs per Jacobi sweep of an n×n interior (5 adds + 1 mul per point).
pub fn jacobi_sweep_flops(n: usize) -> f64 {
    6.0 * (n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u(x,y) = x + y is harmonic: with exact boundary it is the exact
    /// steady state for rhs = 0.
    fn linear_bc(g: &mut Grid) {
        g.set_boundary(|x, y| x + y);
    }

    fn exact_linear(n: usize) -> Grid {
        let mut g = Grid::new(n);
        let h = 1.0 / (n + 1) as f64;
        for i in 0..n + 2 {
            for j in 0..n + 2 {
                g.set(i, j, i as f64 * h + j as f64 * h);
            }
        }
        g
    }

    #[test]
    fn jacobi_converges_to_harmonic_solution() {
        let n = 24;
        let mut u = Grid::new(n);
        linear_bc(&mut u);
        let rhs = Grid::new(n);
        let conv = jacobi(&mut u, &rhs, 1e-10, 20_000, false);
        assert!(conv.converged, "residual {}", conv.residual);
        assert!(u.dist(&exact_linear(n)) < 1e-6);
    }

    #[test]
    fn parallel_jacobi_matches_sequential() {
        let n = 32;
        let rhs = Grid::from_sin(n);
        let mut us = Grid::new(n);
        let mut up = Grid::new(n);
        let cs = jacobi(&mut us, &rhs, 1e-8, 5_000, false);
        let cp = jacobi(&mut up, &rhs, 1e-8, 5_000, true);
        assert_eq!(cs.iterations, cp.iterations);
        assert_eq!(us, up, "row-parallel sweep must be bit-identical");
    }

    #[test]
    fn sor_beats_jacobi_iteration_count() {
        let n = 32;
        let rhs = Grid::from_sin(n);
        let mut uj = Grid::new(n);
        let cj = jacobi(&mut uj, &rhs, 1e-8, 50_000, false);
        let mut us = Grid::new(n);
        let cs = sor(&mut us, &rhs, None, 1e-8, 50_000);
        assert!(cj.converged && cs.converged);
        assert!(
            cs.iterations * 5 < cj.iterations,
            "SOR {} vs Jacobi {}",
            cs.iterations,
            cj.iterations
        );
        // Both solve the same equation.
        assert!(uj.dist(&us) < 1e-5, "dist {}", uj.dist(&us));
    }

    #[test]
    fn manufactured_solution_accuracy() {
        // -∇²u = 2π² sin(πx) sin(πy) has solution u = sin(πx) sin(πy).
        let n = 40;
        let h = 1.0 / (n + 1) as f64;
        let mut rhs = Grid::new(n);
        let pi = std::f64::consts::PI;
        for i in 0..n + 2 {
            for j in 0..n + 2 {
                let (x, y) = (i as f64 * h, j as f64 * h);
                // Our sweep solves ∇²u = rhs, so rhs = -2π² sin sin.
                rhs.set(i, j, -2.0 * pi * pi * (pi * x).sin() * (pi * y).sin());
            }
        }
        let mut u = Grid::new(n);
        let conv = sor(&mut u, &rhs, None, 1e-10, 100_000);
        assert!(conv.converged);
        let mut max_err = 0.0f64;
        for i in 1..=n {
            for j in 1..=n {
                let (x, y) = (i as f64 * h, j as f64 * h);
                let exact = (pi * x).sin() * (pi * y).sin();
                max_err = max_err.max((u.at(i, j) - exact).abs());
            }
        }
        // Second-order discretisation error at h ~ 1/41.
        assert!(max_err < 5.0 * h * h, "err {max_err} vs h² {}", h * h);
    }

    impl Grid {
        /// Test fixture: rhs = sin(πx)sin(πy) everywhere.
        fn from_sin(n: usize) -> Grid {
            let mut g = Grid::new(n);
            let h = 1.0 / (n + 1) as f64;
            let pi = std::f64::consts::PI;
            for i in 0..n + 2 {
                for j in 0..n + 2 {
                    g.set(i, j, (pi * i as f64 * h).sin() * (pi * j as f64 * h).sin());
                }
            }
            g
        }
    }

    #[test]
    fn flop_accounting() {
        assert_eq!(jacobi_sweep_flops(10), 600.0);
    }
}
