//! `kernels`: real arithmetic and nothing else — the five host kernels
//! the exhibits lean on, each sized to about a fifth of the pass and to
//! stay inside the L2 cache, so the pass measures the kernels' code and
//! not the host's memory system.

use super::{LayerTimes, PassOut, Workload};
use crate::api;
use crate::inputs::{Digest, Gen};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::time::Instant;

const GEMM_N: usize = 256;
const GEMM_REPS: usize = 2;
const LU_N: usize = 256;
const LU_REPS: usize = 2;
const FFT_LEN: usize = 1 << 14;
/// Forward-then-inverse pairs, in place: no copy between transforms.
const FFT_PAIRS: usize = 8;
const CG_GRID: usize = 64;
const CG_TOL: f64 = 1e-8;
const SHALLOW_M: usize = 128;
const SHALLOW_STEPS: usize = 20;

pub struct Kernels {
    a: api::Mat,
    b: api::Mat,
    lu_a: api::Mat,
    lu_rhs: Vec<f64>,
    signal: Vec<api::Cpx>,
    poisson: api::Csr,
    cg_rhs: Vec<f64>,
    sea: api::Shallow,
    last: Option<Last>,
}

struct Last {
    c: api::Mat,
    lu: api::Mat,
    piv: Vec<usize>,
    echo: Vec<api::Cpx>,
    cg_x: Vec<f64>,
    cg: api::CgResult,
    sea: api::Shallow,
}

fn random_mat(n: usize, g: &mut Gen) -> api::Mat {
    let data: Vec<f64> = (0..n * n).map(|_| g.signed()).collect();
    api::mat(n, n, &data)
}

impl Kernels {
    pub fn new(seed: u64) -> Kernels {
        let mut g = Gen::new(seed);
        let mut sea = api::Shallow::new(SHALLOW_M);
        // A seeded ripple of one part in 10^6 on the height field: other
        // bits, same arithmetic.
        let mut ripple = g.fork();
        for p in &mut sea.p {
            *p *= 1.0 + 1e-6 * ripple.signed();
        }
        Kernels {
            a: random_mat(GEMM_N, &mut g.fork()),
            b: random_mat(GEMM_N, &mut g.fork()),
            lu_a: random_mat(LU_N, &mut g.fork()),
            lu_rhs: {
                let mut h = g.fork();
                (0..LU_N).map(|_| h.signed()).collect()
            },
            signal: {
                let mut h = g.fork();
                (0..FFT_LEN)
                    .map(|_| api::Cpx::new(h.signed(), h.signed()))
                    .collect()
            },
            poisson: api::poisson2d(CG_GRID),
            cg_rhs: {
                let mut h = g.fork();
                (0..CG_GRID * CG_GRID).map(|_| h.signed()).collect()
            },
            sea,
            last: None,
        }
    }
}

/// `x < limit`, and false for a NaN: an error that cannot be computed is
/// not a small error.
fn below(x: f64, limit: f64) -> bool {
    x < limit
}

/// Every `stride`-th value: enough to pin the result, cheap to hash.
fn sample(d: &mut Digest, xs: &[f64], stride: usize) {
    for x in xs.iter().step_by(stride) {
        d.f64(*x);
    }
}

impl Workload for Kernels {
    fn pass(&mut self, t: &mut Tracer) -> PassOut {
        let mut c = None;
        t.span("kernels/gemm", |_| {
            for _ in 0..GEMM_REPS {
                c = Some(api::gemm(&self.a, &self.b));
            }
        });
        let c = c.expect("GEMM_REPS > 0");

        let mut lu = self.lu_a.clone();
        let mut piv = Vec::new();
        for rep in 0..LU_REPS {
            if rep > 0 {
                lu.as_mut_slice().copy_from_slice(self.lu_a.as_slice());
            }
            piv = t.span("kernels/lu", |_| api::lu_factor(&mut lu));
        }

        let mut echo = self.signal.clone();
        t.span("kernels/fft", |_| {
            for _ in 0..FFT_PAIRS {
                api::fft(&mut echo);
                api::ifft(&mut echo);
            }
        });

        let mut cg_x = vec![0.0; self.cg_rhs.len()];
        let cg = t.span("kernels/cg", |_| {
            api::cg(&self.poisson, &self.cg_rhs, &mut cg_x, CG_TOL, 10_000)
        });

        let mut sea = self.sea.clone();
        t.span("kernels/shallow", |_| sea.run(SHALLOW_STEPS, false));

        let mut d = Digest::new();
        sample(&mut d, c.as_slice(), 97);
        sample(&mut d, lu.as_slice(), 257);
        for z in echo.iter().step_by(61) {
            d.f64(z.re);
            d.f64(z.im);
        }
        sample(&mut d, &cg_x, 31);
        d.u64(cg.iterations as u64);
        sample(&mut d, &sea.p, 113);
        self.last = Some(Last {
            c,
            lu,
            piv,
            echo,
            cg_x,
            cg,
            sea,
        });
        PassOut {
            digest: d.finish(),
            ops: (GEMM_REPS + LU_REPS + 2 * FFT_PAIRS + 1 + SHALLOW_STEPS) as u64,
            ok: true,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no pass ran")?;

        // GEMM against plain dot products on a diagonal band of entries.
        for i in (0..GEMM_N).step_by(17) {
            let j = (i * 7 + 3) % GEMM_N;
            let want: f64 = (0..GEMM_N).map(|k| self.a[(i, k)] * self.b[(k, j)]).sum();
            if (last.c[(i, j)] - want).abs() > 1e-10 * GEMM_N as f64 {
                return Err(format!("gemm C[{i},{j}] = {} not {want}", last.c[(i, j)]));
            }
        }

        // LU: scaled residual of the solve, the LINPACK acceptance test.
        let x = api::lu_solve(&last.lu, &last.piv, &self.lu_rhs);
        let ax = self.lu_a.matvec(&x);
        let resid = ax
            .iter()
            .zip(&self.lu_rhs)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let scaled = resid / (self.lu_a.inf_norm() * xmax * LU_N as f64 * f64::EPSILON);
        if !below(scaled, 16.0) {
            return Err(format!("lu scaled residual {scaled} >= 16"));
        }

        // FFT: every inverse brought the signal back.
        let err = last
            .echo
            .iter()
            .zip(&self.signal)
            .map(|(p, q)| (p.re - q.re).abs().max((p.im - q.im).abs()))
            .fold(0.0, f64::max);
        if !below(err, 1e-10) {
            return Err(format!("fft round trip off by {err}"));
        }

        // CG: converged, and the true residual agrees.
        if !last.cg.converged {
            return Err(format!(
                "cg stopped at {} after {} iterations",
                last.cg.residual, last.cg.iterations
            ));
        }
        let mut ax = vec![0.0; last.cg_x.len()];
        self.poisson.spmv(&last.cg_x, &mut ax);
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
        let r = norm(&mut ax.iter().zip(&self.cg_rhs).map(|(p, q)| p - q));
        let b = norm(&mut self.cg_rhs.iter().copied());
        if !below(r / b, 10.0 * CG_TOL) {
            return Err(format!("cg true residual {} above tolerance", r / b));
        }

        // Shallow water: the scheme conserves mass to round-off.
        let (m0, m1) = (self.sea.total_mass(), last.sea.total_mass());
        if !below(((m1 - m0) / m0).abs(), 1e-9) {
            return Err(format!("shallow water mass drifted {m0} -> {m1}"));
        }
        Ok(())
    }

    fn layer_metrics(&mut self, times: &LayerTimes, m: &mut Metrics) {
        let Some(last) = self.last.as_ref() else {
            return;
        };
        let (gemm_s, lu_s, fft_s, cg_s, shallow_s) = (
            times.s("kernels/gemm"),
            times.s("kernels/lu"),
            times.s("kernels/fft"),
            times.s("kernels/cg"),
            times.s("kernels/shallow"),
        );
        m.set("kernels.gemm.s", gemm_s);
        m.set("kernels.lu.s", lu_s);
        m.set("kernels.fft.s", fft_s);
        m.set("kernels.cg.s", cg_s);
        m.set("kernels.shallow.s", shallow_s);
        let gemm_gf = GEMM_REPS as f64 * api::gemm_flops(GEMM_N) / gemm_s.max(1e-12) / 1e9;
        let lu_gf = LU_REPS as f64 * api::lu_flops(LU_N) / lu_s.max(1e-12) / 1e9;
        m.set("kernels.gemm.gflops", gemm_gf);
        m.set("kernels.lu.gflops", lu_gf);
        m.set("kernels.lu.frac_of_gemm", lu_gf / gemm_gf.max(1e-12));
        m.set(
            "kernels.fft.gflops",
            (2 * FFT_PAIRS) as f64 * api::fft_flops(FFT_LEN) / fft_s.max(1e-12) / 1e9,
        );
        m.set("kernels.cg.iters", last.cg.iterations as f64);
        m.set(
            "kernels.shallow.mcells_per_s",
            (SHALLOW_M * SHALLOW_M * SHALLOW_STEPS) as f64 / shallow_s.max(1e-12) / 1e6,
        );

        // SpMV alone, probed directly: bytes are computed from the array
        // sizes (8 B value + 4 B column per stored entry, 8 B read of x
        // and 8 B write of y per row), not measured.
        let plan = api::spmv_plan(&self.poisson);
        let n = self.poisson.n();
        let bytes = (12 * self.poisson.nnz() + 16 * n) as f64;
        let mut y = vec![0.0; n];
        const PRODUCTS: usize = 200;
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..PRODUCTS {
                    plan.spmv(&self.cg_rhs, &mut y);
                }
                std::hint::black_box(&y);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        m.set(
            "kernels.spmv.gbytes_per_s",
            PRODUCTS as f64 * bytes / best / 1e9,
        );
    }

    fn sizes(&self) -> String {
        format!(
            "gemm n={GEMM_N} x{GEMM_REPS}, lu n={LU_N} x{LU_REPS}, fft+ifft 2^{} x{FFT_PAIRS}, cg poisson {CG_GRID}^2 tol {CG_TOL:e}, shallow {SHALLOW_M}^2 x{SHALLOW_STEPS} steps",
            FFT_LEN.trailing_zeros()
        )
    }
}
