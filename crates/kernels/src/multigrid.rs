//! Geometric multigrid for the Poisson problem — the algorithmic
//! frontier of the era's PDE work and the strongest possible contrast to
//! Jacobi/SOR in the ASTA story: mesh-independent convergence.
//!
//! V-cycles on a hierarchy of (2^k−1)×(2^k−1) interior grids with
//! red-black Gauss–Seidel smoothing, full-weighting restriction, and
//! bilinear prolongation. Solves ∇²u = f with homogeneous Dirichlet
//! boundaries (the standard model problem).

/// A square grid level: n×n interior points plus the boundary ring.
#[derive(Debug, Clone)]
struct Level {
    n: usize,
    u: Vec<f64>,
    f: Vec<f64>,
    r: Vec<f64>,
}

impl Level {
    fn new(n: usize) -> Level {
        let len = (n + 2) * (n + 2);
        Level {
            n,
            u: vec![0.0; len],
            f: vec![0.0; len],
            r: vec![0.0; len],
        }
    }

    #[inline]
    fn s(&self) -> usize {
        self.n + 2
    }
}

/// Multigrid solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct MgConfig {
    /// Pre-smoothing sweeps per level.
    pub pre: usize,
    /// Post-smoothing sweeps per level.
    pub post: usize,
    /// Stop when ‖r‖∞ / ‖f‖∞ falls below this.
    pub tol: f64,
    /// Maximum V-cycles.
    pub max_cycles: usize,
}

impl Default for MgConfig {
    fn default() -> MgConfig {
        MgConfig {
            pre: 2,
            post: 2,
            tol: 1e-10,
            max_cycles: 50,
        }
    }
}

/// Convergence report.
#[derive(Debug, Clone, Copy)]
pub struct MgResult {
    pub cycles: usize,
    pub residual: f64,
    pub converged: bool,
}

/// Geometric multigrid on (2^k − 1)² interiors.
pub struct Multigrid {
    levels: Vec<Level>,
    cfg: MgConfig,
}

impl Multigrid {
    /// Build a hierarchy for an `n × n` interior; `n` must be `2^k − 1`
    /// with k ≥ 2 (so 3, 7, 15, 31, …).
    pub fn new(n: usize, cfg: MgConfig) -> Multigrid {
        assert!(
            (n + 1).is_power_of_two() && n >= 3,
            "interior must be 2^k - 1, got {n}"
        );
        let mut levels = Vec::new();
        let mut m = n;
        while m >= 3 {
            levels.push(Level::new(m));
            m = m.div_ceil(2) - 1;
        }
        Multigrid { levels, cfg }
    }

    /// Number of levels in the hierarchy.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Solve ∇²u = f (f given at interior points of the fine grid via
    /// `f(x, y)` with x, y ∈ (0,1)). Returns the solution field (with
    /// boundary ring) and the convergence report.
    pub fn solve(&mut self, rhs: impl Fn(f64, f64) -> f64) -> (Vec<f64>, MgResult) {
        let n = self.levels[0].n;
        let h = 1.0 / (n + 1) as f64;
        let s = self.levels[0].s();
        for i in 1..=n {
            for j in 1..=n {
                self.levels[0].f[i * s + j] = rhs(i as f64 * h, j as f64 * h);
            }
        }
        self.levels[0].u.iter_mut().for_each(|v| *v = 0.0);

        let fnorm = self.levels[0]
            .f
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-300);
        let mut cycles = 0;
        let mut res = f64::INFINITY;
        while cycles < self.cfg.max_cycles {
            self.vcycle(0);
            res = self.residual_norm(0) / fnorm;
            cycles += 1;
            if res < self.cfg.tol {
                break;
            }
        }
        (
            self.levels[0].u.clone(),
            MgResult {
                cycles,
                residual: res,
                converged: res < self.cfg.tol,
            },
        )
    }

    /// One V-cycle starting at `lvl`.
    fn vcycle(&mut self, lvl: usize) {
        if lvl == self.levels.len() - 1 {
            // Coarsest: smooth hard (it is tiny).
            for _ in 0..20 {
                self.smooth(lvl);
            }
            return;
        }
        for _ in 0..self.cfg.pre {
            self.smooth(lvl);
        }
        self.compute_residual(lvl);
        self.restrict(lvl);
        self.levels[lvl + 1].u.iter_mut().for_each(|v| *v = 0.0);
        self.vcycle(lvl + 1);
        self.prolong_add(lvl);
        for _ in 0..self.cfg.post {
            self.smooth(lvl);
        }
    }

    /// Red-black Gauss–Seidel sweep on level `lvl`.
    fn smooth(&mut self, lvl: usize) {
        let level = &mut self.levels[lvl];
        let n = level.n;
        let s = level.s();
        let h2 = 1.0 / (((n + 1) * (n + 1)) as f64);
        for colour in 0..2 {
            for i in 1..=n {
                let mut j = 1 + (i + colour) % 2;
                while j <= n {
                    let idx = i * s + j;
                    level.u[idx] = 0.25
                        * (level.u[idx - s]
                            + level.u[idx + s]
                            + level.u[idx - 1]
                            + level.u[idx + 1]
                            - h2 * level.f[idx]);
                    j += 2;
                }
            }
        }
    }

    /// r = f − ∇²u on level `lvl`.
    fn compute_residual(&mut self, lvl: usize) {
        let level = &mut self.levels[lvl];
        let n = level.n;
        let s = level.s();
        let inv_h2 = ((n + 1) * (n + 1)) as f64;
        for i in 1..=n {
            for j in 1..=n {
                let idx = i * s + j;
                let lap =
                    (level.u[idx - s] + level.u[idx + s] + level.u[idx - 1] + level.u[idx + 1]
                        - 4.0 * level.u[idx])
                        * inv_h2;
                level.r[idx] = level.f[idx] - lap;
            }
        }
    }

    fn residual_norm(&mut self, lvl: usize) -> f64 {
        self.compute_residual(lvl);
        self.levels[lvl]
            .r
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Full-weighting restriction of the fine residual into the coarse
    /// right-hand side.
    fn restrict(&mut self, lvl: usize) {
        let (fine, coarse) = {
            let (a, b) = self.levels.split_at_mut(lvl + 1);
            (&mut a[lvl], &mut b[0])
        };
        let fs = fine.s();
        let cs = coarse.s();
        for ci in 1..=coarse.n {
            for cj in 1..=coarse.n {
                let (i, j) = (2 * ci, 2 * cj);
                let c = fine.r[i * fs + j];
                let edges = fine.r[(i - 1) * fs + j]
                    + fine.r[(i + 1) * fs + j]
                    + fine.r[i * fs + j - 1]
                    + fine.r[i * fs + j + 1];
                let corners = fine.r[(i - 1) * fs + j - 1]
                    + fine.r[(i - 1) * fs + j + 1]
                    + fine.r[(i + 1) * fs + j - 1]
                    + fine.r[(i + 1) * fs + j + 1];
                coarse.f[ci * cs + cj] = 0.25 * c + 0.125 * edges + 0.0625 * corners;
            }
        }
    }

    /// Bilinear prolongation of the coarse correction, added into the
    /// fine solution.
    fn prolong_add(&mut self, lvl: usize) {
        let (fine, coarse) = {
            let (a, b) = self.levels.split_at_mut(lvl + 1);
            (&mut a[lvl], &b[0])
        };
        let fs = fine.s();
        let cs = coarse.s();
        let fetch = |ci: usize, cj: usize| coarse.u[ci * cs + cj];
        for i in 1..=fine.n {
            for j in 1..=fine.n {
                let (ci, ri) = (i / 2, i % 2);
                let (cj, rj) = (j / 2, j % 2);
                // Boundary values of the coarse grid are zero, so the
                // clamped fetches below are exact.
                let v = match (ri, rj) {
                    (0, 0) => fetch(ci, cj),
                    (1, 0) => 0.5 * (fetch(ci, cj) + fetch(ci + 1, cj)),
                    (0, 1) => 0.5 * (fetch(ci, cj) + fetch(ci, cj + 1)),
                    _ => {
                        0.25 * (fetch(ci, cj)
                            + fetch(ci + 1, cj)
                            + fetch(ci, cj + 1)
                            + fetch(ci + 1, cj + 1))
                    }
                };
                fine.u[i * fs + j] += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Work per V-cycle in smoothing-equivalent grid-point updates
    /// (≈ (pre+post+const) · 4/3 · n² for the geometric level sum).
    fn vcycle_points(n: usize, cfg: &MgConfig) -> f64 {
        (cfg.pre + cfg.post + 1) as f64 * 4.0 / 3.0 * (n * n) as f64
    }

    #[test]
    fn hierarchy_depth() {
        let mg = Multigrid::new(63, MgConfig::default());
        // 63 -> 31 -> 15 -> 7 -> 3.
        assert_eq!(mg.depth(), 5);
    }

    #[test]
    #[should_panic(expected = "2^k - 1")]
    fn rejects_bad_sizes() {
        Multigrid::new(64, MgConfig::default());
    }

    #[test]
    fn solves_manufactured_problem() {
        // ∇²u = −2π² sin(πx) sin(πy) has u = sin(πx) sin(πy).
        let n = 63;
        let mut mg = Multigrid::new(n, MgConfig::default());
        let (u, res) = mg.solve(|x, y| -2.0 * PI * PI * (PI * x).sin() * (PI * y).sin());
        assert!(res.converged, "residual {}", res.residual);
        let h = 1.0 / (n + 1) as f64;
        let s = n + 2;
        let mut err = 0.0f64;
        for i in 1..=n {
            for j in 1..=n {
                let exact = (PI * i as f64 * h).sin() * (PI * j as f64 * h).sin();
                err = err.max((u[i * s + j] - exact).abs());
            }
        }
        assert!(err < 5.0 * h * h, "err {err} vs h² {}", h * h);
    }

    #[test]
    fn cycle_count_is_mesh_independent() {
        // The multigrid promise: V-cycles to tolerance do not grow with n.
        let mut counts = Vec::new();
        for n in [31usize, 63, 127] {
            let mut mg = Multigrid::new(n, MgConfig::default());
            let (_, res) = mg.solve(|x, y| -2.0 * PI * PI * (PI * x).sin() * (PI * y).sin());
            assert!(res.converged);
            counts.push(res.cycles);
        }
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(
            spread <= 2,
            "cycle counts {counts:?} should be mesh-independent"
        );
    }

    #[test]
    fn beats_sor_asymptotically() {
        // At n=127, multigrid work (in point updates) is far below what
        // SOR needs for the same tolerance.
        let n = 127;
        let cfg = MgConfig {
            tol: 1e-8,
            ..MgConfig::default()
        };
        let mut mg = Multigrid::new(n, cfg);
        let (_, res) = mg.solve(|x, y| -2.0 * PI * PI * (PI * x).sin() * (PI * y).sin());
        assert!(res.converged);
        let mg_points = res.cycles as f64 * vcycle_points(n, &cfg);

        let mut u = crate::cfd::Grid::new(n);
        let mut rhs = crate::cfd::Grid::new(n);
        let h = 1.0 / (n + 1) as f64;
        for i in 0..n + 2 {
            for j in 0..n + 2 {
                rhs.set(
                    i,
                    j,
                    -2.0 * PI * PI * (PI * i as f64 * h).sin() * (PI * j as f64 * h).sin(),
                );
            }
        }
        let sor = crate::cfd::sor(&mut u, &rhs, None, 1e-8, 200_000);
        assert!(sor.converged);
        let sor_points = sor.iterations as f64 * (n * n) as f64;
        assert!(
            mg_points * 3.0 < sor_points,
            "MG {mg_points:.2e} vs SOR {sor_points:.2e} point-updates"
        );
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let mut mg = Multigrid::new(31, MgConfig::default());
        let (u, res) = mg.solve(|_, _| 0.0);
        assert!(res.converged);
        assert_eq!(res.cycles, 1, "already converged after one check");
        assert!(u.iter().all(|&v| v.abs() < 1e-12));
    }
}
