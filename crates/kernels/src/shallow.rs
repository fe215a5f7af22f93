//! The shallow-water equations on a periodic staggered grid — the
//! canonical ocean/atmosphere Grand Challenge kernel (the paper's NOAA
//! "ocean and atmospheric computation research" line), after the classic
//! Sadourny (1975) scheme used by the SHALLOW benchmark.
//!
//! Leapfrog time stepping with a Robert–Asselin filter; the scheme
//! conserves total mass to round-off on the periodic domain, which the
//! tests assert.
//!
//! ## Engine v2 sweeps
//!
//! The seed sweeps ([`Shallow::step_baseline`]) evaluate a `% m`
//! wrap-around index inside every inner loop, which blocks
//! vectorisation. The v2 engine keeps the identical per-point
//! arithmetic but restructures each sweep so the compiler can use the
//! vector units:
//!
//! * **Hoisted periodicity** — each row kernel receives plain slices of
//!   the rows it reads (`i`, `i±1` resolved once per row); column
//!   wrap-around becomes a `j±1` slice shift with the single wrapping
//!   point peeled off, so every inner loop is branch-free contiguous
//!   code that auto-vectorises.
//! * **Fused per-row passes** — the four phase-1 fields (`cu`, `cv`,
//!   `z`, `h`) are produced in one pass over each row (one read of the
//!   `p`/`u`/`v` neighbourhoods instead of four), and likewise the
//!   three phase-2 leapfrog fields; rows are shared out over the
//!   workers exactly as before.
//! * **AVX2 dispatch** — the row kernels are compiled twice, once
//!   portable and once under `#[target_feature(avx2, fma)]`, selected
//!   at runtime via [`crate::simd::avx2_fma_available`]. Rust never
//!   contracts `a*b + c` into an FMA, so both clones (and the seed
//!   sweeps) are bit-identical — asserted by the tests, which run the
//!   v2 and baseline engines side by side.

use crate::simd;

/// Model state: velocity components `u`, `v` and pressure/height `p`
/// on an `m × m` periodic grid (flat row-major arrays).
#[derive(Debug, Clone)]
pub struct Shallow {
    m: usize,
    dx: f64,
    dy: f64,
    dt: f64,
    alpha: f64,
    tdt: f64,
    first: bool,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub p: Vec<f64>,
    uold: Vec<f64>,
    vold: Vec<f64>,
    pold: Vec<f64>,
    work: Work,
    pub steps_taken: usize,
}

/// What a step writes before it reads: the phase-1 fields and the spare
/// `u`/`v`/`p` triple the leapfrog update fills and phase 3 rotates in
/// (the outgoing time level becomes the next spare). Sized by the first
/// step; a clone starts empty, since nothing in here outlives a step.
#[derive(Debug, Default)]
struct Work {
    cu: Vec<f64>,
    cv: Vec<f64>,
    z: Vec<f64>,
    h: Vec<f64>,
    unew: Vec<f64>,
    vnew: Vec<f64>,
    pnew: Vec<f64>,
}

impl Clone for Work {
    fn clone(&self) -> Work {
        Work::default()
    }
}

impl Work {
    fn size(&mut self, len: usize) {
        let Work {
            cu,
            cv,
            z,
            h,
            unew,
            vnew,
            pnew,
        } = self;
        for a in [cu, cv, z, h, unew, vnew, pnew] {
            a.resize(len, 0.0);
        }
    }
}

impl Shallow {
    /// Classic benchmark initial condition: a sinusoidal stream function
    /// over a 50 kPa background height field.
    pub fn new(m: usize) -> Shallow {
        assert!(m >= 4);
        let dx = 1.0e5;
        let dy = 1.0e5;
        let dt = 90.0;
        let a = 1.0e6;
        let el = m as f64 * dx;
        let pi = std::f64::consts::PI;
        let tpi = 2.0 * pi;
        let di = tpi / m as f64;
        let dj = tpi / m as f64;
        let pcf = pi * pi * a * a / (el * el);

        let idx = |i: usize, j: usize| i * m + j;
        // Stream function at cell corners (wrap-indexed).
        let psi =
            |i: usize, j: usize| a * ((i as f64 + 0.5) * di).sin() * ((j as f64 + 0.5) * dj).sin();
        let mut u = vec![0.0; m * m];
        let mut v = vec![0.0; m * m];
        let mut p = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                u[idx(i, j)] = -(psi(i, j + 1) - psi(i, j)) / dy;
                v[idx(i, j)] = (psi(i + 1, j) - psi(i, j)) / dx;
                p[idx(i, j)] =
                    pcf * ((2.0 * i as f64 * di).cos() + (2.0 * j as f64 * dj).cos()) + 50_000.0;
            }
        }
        Shallow {
            m,
            dx,
            dy,
            dt,
            alpha: 0.001,
            tdt: dt,
            first: true,
            uold: u.clone(),
            vold: v.clone(),
            pold: p.clone(),
            work: Work::default(),
            u,
            v,
            p,
            steps_taken: 0,
        }
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// The base (single) time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advance one leapfrog step. `parallel` shares each sweep's rows out
    /// over [`des::host_cores`] workers, bit-identical to the sequential
    /// sweep.
    pub fn step(&mut self, parallel: bool) {
        self.step_impl(crate::workers(parallel), simd::avx2_fma_available());
    }

    /// [`Self::step`] with the AVX2 row kernels pinned off — the
    /// portable engine (bit-identical; asserted by the tests).
    pub fn step_portable(&mut self, parallel: bool) {
        self.step_impl(crate::workers(parallel), false);
    }

    fn step_impl(&mut self, workers: usize, use_simd: bool) {
        let m = self.m;
        let fsdx = 4.0 / self.dx;
        let fsdy = 4.0 / self.dy;
        self.work.size(m * m);
        let w = &mut self.work;

        // --- Phase 1: mass fluxes, vorticity, Bernoulli head (fused). ---
        {
            let (u, v, p) = (&self.u, &self.v, &self.p);
            let kernel =
                |i: usize, cu_r: &mut [f64], cv_r: &mut [f64], z_r: &mut [f64], h_r: &mut [f64]| {
                    let im = (i + m - 1) % m;
                    let ip = (i + 1) % m;
                    let row = |a, r| row_of(a, r, m);
                    let args = Phase1Rows {
                        fsdx,
                        fsdy,
                        p_im: row(p, im),
                        p_i: row(p, i),
                        u_i: row(u, i),
                        u_ip: row(u, ip),
                        v_im: row(v, im),
                        v_i: row(v, i),
                    };
                    if use_simd {
                        #[cfg(target_arch = "x86_64")]
                        {
                            // SAFETY: dispatch guarded by `avx2_fma_available`.
                            unsafe { phase1_row_avx2(&args, cu_r, cv_r, z_r, h_r) };
                            return;
                        }
                    }
                    phase1_row(&args, cu_r, cv_r, z_r, h_r);
                };
            let mut rows: Vec<_> =
                w.cu.chunks_mut(m)
                    .zip(w.cv.chunks_mut(m))
                    .zip(w.z.chunks_mut(m))
                    .zip(w.h.chunks_mut(m))
                    .collect();
            par::for_each(&mut rows, 1, workers, |i, row| {
                let (((cu_r, cv_r), z_r), h_r) = &mut row[0];
                kernel(i, cu_r, cv_r, z_r, h_r);
            });
        }

        // --- Phase 2: leapfrog update (fused). ---
        let tdts8 = self.tdt / 8.0;
        let tdtsdx = self.tdt / self.dx;
        let tdtsdy = self.tdt / self.dy;
        {
            let (cu, cv, z, h) = (&w.cu, &w.cv, &w.z, &w.h);
            let (uold, vold, pold) = (&self.uold, &self.vold, &self.pold);
            let kernel = |i: usize, un_r: &mut [f64], vn_r: &mut [f64], pn_r: &mut [f64]| {
                let im = (i + m - 1) % m;
                let ip = (i + 1) % m;
                let row = |a, r| row_of(a, r, m);
                let args = Phase2Rows {
                    tdts8,
                    tdtsdx,
                    tdtsdy,
                    uold_i: row(uold, i),
                    vold_i: row(vold, i),
                    pold_i: row(pold, i),
                    z_i: row(z, i),
                    z_ip: row(z, ip),
                    cu_i: row(cu, i),
                    cu_ip: row(cu, ip),
                    cv_i: row(cv, i),
                    cv_im: row(cv, im),
                    h_im: row(h, im),
                    h_i: row(h, i),
                };
                if use_simd {
                    #[cfg(target_arch = "x86_64")]
                    {
                        // SAFETY: dispatch guarded by `avx2_fma_available`.
                        unsafe { phase2_row_avx2(&args, un_r, vn_r, pn_r) };
                        return;
                    }
                }
                phase2_row(&args, un_r, vn_r, pn_r);
            };
            let mut rows: Vec<_> = w
                .unew
                .chunks_mut(m)
                .zip(w.vnew.chunks_mut(m))
                .zip(w.pnew.chunks_mut(m))
                .collect();
            par::for_each(&mut rows, 1, workers, |i, row| {
                let ((un_r, vn_r), pn_r) = &mut row[0];
                kernel(i, un_r, vn_r, pn_r);
            });
        }

        // --- Phase 3: Robert–Asselin time filter and rotation. ---
        if self.first {
            self.first = false;
            self.tdt += self.tdt; // leapfrog doubles the step after start
            self.uold.copy_from_slice(&self.u);
            self.vold.copy_from_slice(&self.v);
            self.pold.copy_from_slice(&self.p);
        } else {
            let alpha = self.alpha;
            let filter = |old: &mut Vec<f64>, cur: &Vec<f64>, new: &Vec<f64>| {
                for k in 0..m * m {
                    old[k] = cur[k] + alpha * (new[k] - 2.0 * cur[k] + old[k]);
                }
            };
            filter(&mut self.uold, &self.u, &w.unew);
            filter(&mut self.vold, &self.v, &w.vnew);
            filter(&mut self.pold, &self.p, &w.pnew);
        }
        std::mem::swap(&mut self.u, &mut w.unew);
        std::mem::swap(&mut self.v, &mut w.vnew);
        std::mem::swap(&mut self.p, &mut w.pnew);
        self.steps_taken += 1;
    }

    /// The seed step: wrap-indexed, one sweep per field. Kept as the
    /// scalar bench baseline and the bit-identity reference for the v2
    /// sweeps. `parallel` shares each sweep's rows out over
    /// [`des::host_cores`] workers.
    pub fn step_baseline(&mut self, parallel: bool) {
        let m = self.m;
        let workers = crate::workers(parallel);
        let fsdx = 4.0 / self.dx;
        let fsdy = 4.0 / self.dy;
        self.work.size(m * m);
        let w = &mut self.work;

        // --- Phase 1: mass fluxes, vorticity, Bernoulli head. ---
        {
            let (u, v, p) = (&self.u, &self.v, &self.p);
            let row_cu = |i: usize, out: &mut [f64]| {
                let im = (i + m - 1) % m;
                for j in 0..m {
                    out[j] = 0.5 * (p[i * m + j] + p[im * m + j]) * u[i * m + j];
                }
            };
            let row_cv = |i: usize, out: &mut [f64]| {
                for j in 0..m {
                    let jm = (j + m - 1) % m;
                    out[j] = 0.5 * (p[i * m + j] + p[i * m + jm]) * v[i * m + j];
                }
            };
            let row_z = |i: usize, out: &mut [f64]| {
                let im = (i + m - 1) % m;
                for j in 0..m {
                    let jm = (j + m - 1) % m;
                    out[j] = (fsdx * (v[i * m + j] - v[im * m + j])
                        - fsdy * (u[i * m + j] - u[i * m + jm]))
                        / (p[im * m + jm] + p[i * m + jm] + p[i * m + j] + p[im * m + j]);
                }
            };
            let row_h = |i: usize, out: &mut [f64]| {
                let ip = (i + 1) % m;
                for j in 0..m {
                    let jp = (j + 1) % m;
                    out[j] = p[i * m + j]
                        + 0.25
                            * (u[ip * m + j] * u[ip * m + j]
                                + u[i * m + j] * u[i * m + j]
                                + v[i * m + jp] * v[i * m + jp]
                                + v[i * m + j] * v[i * m + j]);
                }
            };
            par::for_each(&mut w.cu, m, workers, row_cu);
            par::for_each(&mut w.cv, m, workers, row_cv);
            par::for_each(&mut w.z, m, workers, row_z);
            par::for_each(&mut w.h, m, workers, row_h);
        }

        // --- Phase 2: leapfrog update. ---
        let tdts8 = self.tdt / 8.0;
        let tdtsdx = self.tdt / self.dx;
        let tdtsdy = self.tdt / self.dy;
        let mut unew = vec![0.0; m * m];
        let mut vnew = vec![0.0; m * m];
        let mut pnew = vec![0.0; m * m];
        {
            let (cu, cv, z, h) = (&w.cu, &w.cv, &w.z, &w.h);
            let (uold, vold, pold) = (&self.uold, &self.vold, &self.pold);
            let row_u = |i: usize, out: &mut [f64]| {
                let im = (i + m - 1) % m;
                for j in 0..m {
                    let jp = (j + 1) % m;
                    out[j] = uold[i * m + j]
                        + tdts8
                            * (z[i * m + jp] + z[i * m + j])
                            * (cv[i * m + jp] + cv[im * m + jp] + cv[im * m + j] + cv[i * m + j])
                        - tdtsdx * (h[i * m + j] - h[im * m + j]);
                }
            };
            let row_v = |i: usize, out: &mut [f64]| {
                let ip = (i + 1) % m;
                for j in 0..m {
                    let jm = (j + m - 1) % m;
                    out[j] = vold[i * m + j]
                        - tdts8
                            * (z[ip * m + j] + z[i * m + j])
                            * (cu[ip * m + j] + cu[i * m + j] + cu[i * m + jm] + cu[ip * m + jm])
                        - tdtsdy * (h[i * m + j] - h[i * m + jm]);
                }
            };
            let row_p = |i: usize, out: &mut [f64]| {
                let ip = (i + 1) % m;
                for j in 0..m {
                    let jp = (j + 1) % m;
                    out[j] = pold[i * m + j]
                        - tdtsdx * (cu[ip * m + j] - cu[i * m + j])
                        - tdtsdy * (cv[i * m + jp] - cv[i * m + j]);
                }
            };
            par::for_each(&mut unew, m, workers, row_u);
            par::for_each(&mut vnew, m, workers, row_v);
            par::for_each(&mut pnew, m, workers, row_p);
        }

        // --- Phase 3: Robert–Asselin time filter and rotation. ---
        if self.first {
            self.first = false;
            self.tdt += self.tdt; // leapfrog doubles the step after start
            self.uold.copy_from_slice(&self.u);
            self.vold.copy_from_slice(&self.v);
            self.pold.copy_from_slice(&self.p);
        } else {
            let alpha = self.alpha;
            let filter = |old: &mut Vec<f64>, cur: &Vec<f64>, new: &Vec<f64>| {
                for k in 0..m * m {
                    old[k] = cur[k] + alpha * (new[k] - 2.0 * cur[k] + old[k]);
                }
            };
            filter(&mut self.uold, &self.u, &unew);
            filter(&mut self.vold, &self.v, &vnew);
            filter(&mut self.pold, &self.p, &pnew);
        }
        self.u = unew;
        self.v = vnew;
        self.p = pnew;
        self.steps_taken += 1;
    }

    pub fn run(&mut self, steps: usize, parallel: bool) {
        for _ in 0..steps {
            self.step(parallel);
        }
    }

    /// Total mass Σp·dx·dy — conserved to round-off by the scheme.
    pub fn total_mass(&self) -> f64 {
        self.p.iter().sum::<f64>() * self.dx * self.dy
    }
}

/// Row `r` of a flat row-major `m × m` array.
#[inline(always)]
fn row_of(a: &[f64], r: usize, m: usize) -> &[f64] {
    &a[r * m..r * m + m]
}

/// Shared row inputs for the fused phase-1 kernel: the `p`/`u`/`v` rows
/// the stencil touches, wrap-resolved by the caller.
struct Phase1Rows<'a> {
    fsdx: f64,
    fsdy: f64,
    p_im: &'a [f64],
    p_i: &'a [f64],
    u_i: &'a [f64],
    u_ip: &'a [f64],
    v_im: &'a [f64],
    v_i: &'a [f64],
}

/// Fused phase-1 row: `cu`, `cv`, `z`, `h` for row `i` in one pass.
/// Per-point arithmetic (and association) identical to the seed sweeps;
/// column wrap-around peeled to the loop edges so the interior loops
/// are contiguous and branch-free.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // indexed loops mirror the seed sweeps at j/j±1 offsets
fn phase1_row(a: &Phase1Rows<'_>, cu: &mut [f64], cv: &mut [f64], z: &mut [f64], h: &mut [f64]) {
    let m = a.p_i.len();
    for j in 0..m {
        cu[j] = 0.5 * (a.p_i[j] + a.p_im[j]) * a.u_i[j];
    }
    cv[0] = 0.5 * (a.p_i[0] + a.p_i[m - 1]) * a.v_i[0];
    for j in 1..m {
        cv[j] = 0.5 * (a.p_i[j] + a.p_i[j - 1]) * a.v_i[j];
    }
    z[0] = (a.fsdx * (a.v_i[0] - a.v_im[0]) - a.fsdy * (a.u_i[0] - a.u_i[m - 1]))
        / (a.p_im[m - 1] + a.p_i[m - 1] + a.p_i[0] + a.p_im[0]);
    for j in 1..m {
        z[j] = (a.fsdx * (a.v_i[j] - a.v_im[j]) - a.fsdy * (a.u_i[j] - a.u_i[j - 1]))
            / (a.p_im[j - 1] + a.p_i[j - 1] + a.p_i[j] + a.p_im[j]);
    }
    for j in 0..m - 1 {
        h[j] = a.p_i[j]
            + 0.25
                * (a.u_ip[j] * a.u_ip[j]
                    + a.u_i[j] * a.u_i[j]
                    + a.v_i[j + 1] * a.v_i[j + 1]
                    + a.v_i[j] * a.v_i[j]);
    }
    h[m - 1] = a.p_i[m - 1]
        + 0.25
            * (a.u_ip[m - 1] * a.u_ip[m - 1]
                + a.u_i[m - 1] * a.u_i[m - 1]
                + a.v_i[0] * a.v_i[0]
                + a.v_i[m - 1] * a.v_i[m - 1]);
}

/// [`phase1_row`] compiled with AVX2+FMA enabled so the contiguous
/// interior loops vectorise 4-wide (no FP contraction in Rust, so this
/// clone is bit-identical to the portable one).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn phase1_row_avx2(
    a: &Phase1Rows<'_>,
    cu: &mut [f64],
    cv: &mut [f64],
    z: &mut [f64],
    h: &mut [f64],
) {
    phase1_row(a, cu, cv, z, h);
}

/// Shared row inputs for the fused phase-2 kernel.
struct Phase2Rows<'a> {
    tdts8: f64,
    tdtsdx: f64,
    tdtsdy: f64,
    uold_i: &'a [f64],
    vold_i: &'a [f64],
    pold_i: &'a [f64],
    z_i: &'a [f64],
    z_ip: &'a [f64],
    cu_i: &'a [f64],
    cu_ip: &'a [f64],
    cv_i: &'a [f64],
    cv_im: &'a [f64],
    h_im: &'a [f64],
    h_i: &'a [f64],
}

/// Fused phase-2 row: the leapfrog `u`/`v`/`p` updates for row `i` in
/// one pass, arithmetic identical to the seed sweeps.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // indexed loops mirror the seed sweeps at j/j±1 offsets
fn phase2_row(a: &Phase2Rows<'_>, un: &mut [f64], vn: &mut [f64], pn: &mut [f64]) {
    let m = a.z_i.len();
    for j in 0..m - 1 {
        let jp = j + 1;
        un[j] = a.uold_i[j]
            + a.tdts8
                * (a.z_i[jp] + a.z_i[j])
                * (a.cv_i[jp] + a.cv_im[jp] + a.cv_im[j] + a.cv_i[j])
            - a.tdtsdx * (a.h_i[j] - a.h_im[j]);
    }
    un[m - 1] = a.uold_i[m - 1]
        + a.tdts8
            * (a.z_i[0] + a.z_i[m - 1])
            * (a.cv_i[0] + a.cv_im[0] + a.cv_im[m - 1] + a.cv_i[m - 1])
        - a.tdtsdx * (a.h_i[m - 1] - a.h_im[m - 1]);
    vn[0] = a.vold_i[0]
        - a.tdts8
            * (a.z_ip[0] + a.z_i[0])
            * (a.cu_ip[0] + a.cu_i[0] + a.cu_i[m - 1] + a.cu_ip[m - 1])
        - a.tdtsdy * (a.h_i[0] - a.h_i[m - 1]);
    for j in 1..m {
        let jm = j - 1;
        vn[j] = a.vold_i[j]
            - a.tdts8
                * (a.z_ip[j] + a.z_i[j])
                * (a.cu_ip[j] + a.cu_i[j] + a.cu_i[jm] + a.cu_ip[jm])
            - a.tdtsdy * (a.h_i[j] - a.h_i[jm]);
    }
    for j in 0..m - 1 {
        let jp = j + 1;
        pn[j] =
            a.pold_i[j] - a.tdtsdx * (a.cu_ip[j] - a.cu_i[j]) - a.tdtsdy * (a.cv_i[jp] - a.cv_i[j]);
    }
    pn[m - 1] = a.pold_i[m - 1]
        - a.tdtsdx * (a.cu_ip[m - 1] - a.cu_i[m - 1])
        - a.tdtsdy * (a.cv_i[0] - a.cv_i[m - 1]);
}

/// [`phase2_row`] compiled with AVX2+FMA enabled (bit-identical clone,
/// see [`phase1_row_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn phase2_row_avx2(a: &Phase2Rows<'_>, un: &mut [f64], vn: &mut [f64], pn: &mut [f64]) {
    phase2_row(a, un, vn, pn);
}

/// FLOPs per time step of an m×m grid (the benchmark's own accounting:
/// ~65 floating-point operations per grid point).
pub fn step_flops(m: usize) -> f64 {
    65.0 * (m * m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Shallow {
        /// Kinetic energy diagnostic ½ Σ p·(u²+v²) (cell-centred average).
        fn kinetic_energy(&self) -> f64 {
            let m = self.m;
            let mut e = 0.0;
            for i in 0..m {
                let ip = (i + 1) % m;
                for j in 0..m {
                    let jp = (j + 1) % m;
                    let uu = 0.5 * (self.u[i * m + j] + self.u[ip * m + j]);
                    let vv = 0.5 * (self.v[i * m + j] + self.v[i * m + jp]);
                    e += 0.5 * self.p[i * m + j] * (uu * uu + vv * vv);
                }
            }
            e
        }
    }

    #[test]
    fn mass_is_conserved_to_roundoff() {
        let mut sw = Shallow::new(32);
        let m0 = sw.total_mass();
        sw.run(100, false);
        let m1 = sw.total_mass();
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn fields_stay_finite_and_bounded() {
        let mut sw = Shallow::new(24);
        sw.run(200, false);
        assert!(sw.p.iter().all(|v| v.is_finite()));
        assert!(sw.u.iter().all(|v| v.is_finite()));
        // Height stays near the 50 kPa background.
        let (lo, hi) =
            sw.p.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
        assert!(lo > 30_000.0 && hi < 70_000.0, "p in [{lo}, {hi}]");
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut a = Shallow::new(20);
        let mut b = Shallow::new(20);
        a.run(50, false);
        b.run(50, true);
        assert_eq!(a.p, b.p);
        assert_eq!(a.u, b.u);
        assert_eq!(a.v, b.v);
    }

    #[test]
    fn v2_sweeps_match_baseline_bitwise() {
        // The fused/vectorised engine against the seed sweeps, and the
        // portable clone against the dispatched one: every path must
        // produce the same bits (m = 20 exercises the wrap peels; 50
        // steps cross the leapfrog start-up and the Asselin filter),
        // sequential and parallel. A clone carries no work arrays: taken
        // before the first step and in mid-run, it must step like the
        // model it was cloned from.
        for parallel in [false, true] {
            let fresh = Shallow::new(20);
            assert!(fresh.work.cu.is_empty());
            let mut v2 = fresh.clone();
            let mut base = fresh.clone();
            let mut portable = fresh;
            for step in 0..50 {
                if step == 25 {
                    assert_eq!(v2.work.unew.len(), 400);
                    v2 = v2.clone();
                    assert!(v2.work.unew.is_empty());
                }
                v2.step(parallel);
                base.step_baseline(parallel);
                portable.step_portable(parallel);
            }
            assert_eq!(v2.p, base.p, "v2 vs seed sweeps");
            assert_eq!(v2.u, base.u);
            assert_eq!(v2.v, base.v);
            assert_eq!(v2.p, portable.p, "dispatched vs portable");
            assert_eq!(v2.u, portable.u);
            assert_eq!(v2.v, portable.v);
        }
    }

    #[test]
    fn kinetic_energy_reasonably_stable() {
        let mut sw = Shallow::new(32);
        sw.step(false); // spin up past the first half step
        let e0 = sw.kinetic_energy();
        sw.run(150, false);
        let e1 = sw.kinetic_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 0.05,
            "energy drift {} over 150 steps",
            (e1 - e0) / e0
        );
    }

    #[test]
    fn dynamics_actually_evolve() {
        let mut sw = Shallow::new(16);
        let p0 = sw.p.clone();
        sw.run(10, false);
        let moved =
            sw.p.iter()
                .zip(&p0)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
        assert!(moved > 1.0, "flow is static: max |Δp| = {moved}");
    }

    #[test]
    fn step_counter_and_flops() {
        let mut sw = Shallow::new(8);
        sw.run(5, false);
        assert_eq!(sw.steps_taken, 5);
        assert_eq!(step_flops(8), 65.0 * 64.0);
    }
}
