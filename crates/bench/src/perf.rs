//! Exhibit KERN-2, the host-kernel scale table: measured GFLOP/s for the
//! packed GEMM engine and every kernel the v2 engine accelerates — LU up
//! to n = 2048, a 2^20-point FFT, SpMV/CG and the shallow-water sweep —
//! each against its scalar seed baseline. `report bench-kernels` prints
//! the table and enforces the perf gates ([`gates`]). The cache-resident
//! sizes are the `kernels` workload of `benchmark/`, which is where
//! regressions are caught; this table is the near-peak claim.

use crate::{best_of, timed};
use des::rng::Rng;
use hpcc_core::{fnum, Table};
use hpcc_kernels::{cg, fft, gemm, lu, mat::Mat, matmul, shallow};
use std::fmt::Write as _;

/// One measured kernel configuration.
pub struct PerfRow {
    /// Kernel label, e.g. `gemm_par`.
    pub kernel: &'static str,
    /// Problem order n (square problems).
    pub n: usize,
    /// Workers the configuration ran on: 1 for a sequential kernel,
    /// [`des::host_cores`] for a `*_par` one.
    pub threads: usize,
    /// Fastest-rep wall time, milliseconds.
    pub ms: f64,
    /// FLOPs credited / wall time.
    pub gflops: f64,
}

impl PerfRow {
    fn new(kernel: &'static str, n: usize, threads: usize, flops: f64, secs: f64) -> PerfRow {
        PerfRow {
            kernel,
            n,
            threads,
            ms: secs * 1e3,
            gflops: flops / secs / 1e9,
        }
    }

    /// Time `f`: fastest of three reps (four under n = 1024). The first
    /// also pages in buffers, so it rarely wins.
    fn measure(
        kernel: &'static str,
        n: usize,
        threads: usize,
        flops: f64,
        f: impl FnMut(),
    ) -> PerfRow {
        let reps = if n >= 1024 { 3 } else { 4 };
        PerfRow::new(kernel, n, threads, flops, best_of(reps, f).0)
    }
}

/// The seed's LU trailing update (row-oriented axpy loops, no packing),
/// kept here as the perf baseline the engine is measured against. Same
/// pivoting and panel code as `lu::lu_factor`, so the timing difference
/// is purely the BLAS3 update.
fn lu_factor_rowupdate(a: &mut Mat, nb: usize) -> Result<Vec<usize>, lu::Singular> {
    let n = a.rows();
    let mut piv = vec![0usize; n];
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        for j in k..k + kb {
            let mut p = j;
            let mut best = a[(j, j)].abs();
            for i in j + 1..n {
                let v = a[(i, j)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(lu::Singular(j));
            }
            piv[j] = p;
            a.swap_rows(j, p);
            let inv = 1.0 / a[(j, j)];
            for i in j + 1..n {
                a[(i, j)] *= inv;
            }
            for i in j + 1..n {
                let lij = a[(i, j)];
                if lij != 0.0 {
                    for c in j + 1..k + kb {
                        a[(i, c)] -= lij * a[(j, c)];
                    }
                }
            }
        }
        if k + kb < n {
            for j in k + 1..k + kb {
                for i in k..j {
                    let lji = a[(j, i)];
                    if lji != 0.0 {
                        let ncols = a.cols();
                        let (top, bot) = a.as_mut_slice().split_at_mut(j * ncols);
                        let ri = &top[i * ncols..(i + 1) * ncols];
                        let rj = &mut bot[..ncols];
                        for c in k + kb..n {
                            rj[c] -= lji * ri[c];
                        }
                    }
                }
            }
            let ncols = a.cols();
            let split = (k + kb) * ncols;
            let (upper, lower) = a.as_mut_slice().split_at_mut(split);
            for row in lower.chunks_mut(ncols) {
                for l in k..k + kb {
                    let lil = row[l];
                    if lil != 0.0 {
                        let urow = &upper[l * ncols..(l + 1) * ncols];
                        for c in k + kb..ncols {
                            row[c] -= lil * urow[c];
                        }
                    }
                }
            }
        }
        k += kb;
    }
    Ok(piv)
}

/// GEMM at order `n`: the seed's blocked loop (small `n` only), the
/// packed engine, sequential and on every host core.
fn gemm_rows(n: usize) -> Vec<PerfRow> {
    let mut rng = Rng::new(1);
    let a = Mat::random(n, n, &mut rng);
    let b = Mat::random(n, n, &mut rng);
    let flops = gemm::gemm_flops(n, n, n);
    let mut rows = Vec::new();
    if n <= 512 {
        rows.push(PerfRow::measure("matmul_blocked48", n, 1, flops, || {
            std::hint::black_box(matmul::matmul_blocked(&a, &b, 48));
        }));
    }
    rows.push(PerfRow::measure("gemm", n, 1, flops, || {
        std::hint::black_box(gemm::gemm(&a, &b));
    }));
    rows.push(PerfRow::measure(
        "gemm_par",
        n,
        des::host_cores(),
        flops,
        || {
            std::hint::black_box(gemm::gemm_par(&a, &b));
        },
    ));
    rows
}

/// LU at order `n`: the seed row-update baseline, then sequential vs
/// parallel at the seed block (nb=64) and the v2 default
/// ([`lu::DEFAULT_NB`]), `reps` interleaved reps each. `gemm_ref` adds
/// the same-order GEMM row the lu/gemm gate compares against.
fn lu_rows(n: usize, reps: usize, gemm_ref: bool) -> Vec<PerfRow> {
    let mut rng = Rng::new(2);
    let a = Mat::random(n, n, &mut rng);
    // Factor-only FLOPs (2n³/3), not the full LINPACK credit: the
    // solve is not timed here.
    let flops = 2.0 * (n as f64).powi(3) / 3.0;
    // The factorisation is in-place, so every timed call gets a fresh
    // clone made outside the timed region.
    let factor = |f: &dyn Fn(&mut Mat)| {
        let mut m = a.clone();
        timed(|| f(&mut m)).0
    };
    let legacy = |m: &mut Mat| {
        std::hint::black_box(lu_factor_rowupdate(m, 64).unwrap());
    };
    let legacy = factor(&legacy).min(factor(&legacy));
    let mut rows = vec![PerfRow::new("lu_legacy_nb64", n, 1, flops, legacy)];
    // The par-never-slower gate compares the next two rows per nb,
    // so their reps are interleaved: slow thermal drift (the usual
    // few-percent wobble on a busy host) then hits both sides
    // equally instead of penalising whichever ran second. The
    // lu/gemm ratio gate gets the same treatment: its GEMM
    // reference is timed in this rep loop (same sample count, same
    // conditions), not minutes earlier.
    let gemm_b = gemm_ref.then(|| Mat::random(n, n, &mut rng));
    let mut gemm_best = f64::MAX;
    for (nb, seq_name, par_name) in [
        (64usize, "lu_factor_nb64", "lu_factor_par_nb64"),
        (lu::DEFAULT_NB, "lu_factor", "lu_factor_par"),
    ] {
        factor(&|m| {
            std::hint::black_box(lu::lu_factor(m, nb).unwrap()); // warm-up
        });
        let (mut seq_best, mut par_best) = (f64::MAX, f64::MAX);
        for rep in 0..reps {
            let time_seq = |best: &mut f64| {
                *best = best.min(factor(&|m| {
                    std::hint::black_box(lu::lu_factor(m, nb).unwrap());
                }));
            };
            let time_par = |best: &mut f64| {
                *best = best.min(factor(&|m| {
                    std::hint::black_box(lu::lu_factor_par(m, nb).unwrap());
                }));
            };
            // Alternate which side runs first so any per-rep warm-up
            // effect cancels instead of always favouring one row.
            if rep % 2 == 0 {
                time_seq(&mut seq_best);
                time_par(&mut par_best);
            } else {
                time_par(&mut par_best);
                time_seq(&mut seq_best);
            }
            if nb == lu::DEFAULT_NB {
                if let Some(b) = &gemm_b {
                    gemm_best = gemm_best.min(timed(|| std::hint::black_box(gemm::gemm(&a, b))).0);
                }
            }
        }
        rows.push(PerfRow::new(seq_name, n, 1, flops, seq_best));
        rows.push(PerfRow::new(
            par_name,
            n,
            des::host_cores(),
            flops,
            par_best,
        ));
    }
    if gemm_ref {
        let flops = gemm::gemm_flops(n, n, n);
        rows.push(PerfRow::new("gemm", n, 1, flops, gemm_best));
    }
    rows
}

/// FFT of `len` points, seed radix-2 loop vs the v2 engine: a
/// forward+inverse pair per rep (credited as two transforms) so the
/// timing needs no per-rep buffer reset.
fn fft_rows(len: usize) -> Vec<PerfRow> {
    let mut rng = Rng::new(4);
    let mut x: Vec<fft::Cpx> = (0..len)
        .map(|_| fft::Cpx::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();
    let flops = 2.0 * fft::fft_flops(len);
    vec![
        PerfRow::measure("fft_baseline", len, 1, flops, || {
            fft::fft_baseline(&mut x);
            fft::ifft_baseline(&mut x);
            std::hint::black_box(&mut x);
        }),
        PerfRow::measure("fft", len, 1, flops, || {
            fft::fft(&mut x);
            fft::ifft(&mut x);
            std::hint::black_box(&mut x);
        }),
    ]
}

/// SpMV on the 5-point Poisson operator of a `g`×`g` grid, CSR row loop
/// vs the packed plan, and a CG iteration through the same plan. 50
/// products per rep so each timing is well above clock granularity.
fn spmv_rows(g: usize) -> Vec<PerfRow> {
    let a = cg::Csr::poisson2d(g);
    let n = a.n();
    let plan = cg::SpmvPlan::new(&a);
    let mut rng = Rng::new(5);
    let x: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    let mut y = vec![0.0; n];
    const PRODUCTS: usize = 50;
    let flops = PRODUCTS as f64 * 2.0 * a.nnz() as f64;
    let csr = PerfRow::measure("spmv_csr", n, 1, flops, || {
        for _ in 0..PRODUCTS {
            a.spmv(&x, &mut y);
        }
        std::hint::black_box(&mut y);
    });
    let packed = PerfRow::measure("spmv_plan", n, 1, flops, || {
        for _ in 0..PRODUCTS {
            plan.spmv(&x, &mut y);
        }
        std::hint::black_box(&mut y);
    });
    // A full CG iteration (SpMV + 5 vector ops) through the same plan.
    let b: Vec<f64> = vec![1.0; n];
    let iters = 25;
    let flops = iters as f64 * cg::cg_iter_flops(n, a.nnz());
    let cg_iter = PerfRow::measure("cg_iter", n, 1, flops, || {
        let mut xs = vec![0.0; n];
        std::hint::black_box(cg::cg(&a, &b, &mut xs, 0.0, iters, false));
    });
    vec![csr, packed, cg_iter]
}

/// Shallow water on an `m`×`m` grid: the fused/vectorised v2 step
/// against the seed sweep, several steps per rep.
fn shallow_rows(m: usize) -> Vec<PerfRow> {
    const STEPS: usize = 10;
    let flops = STEPS as f64 * shallow::step_flops(m);
    let mut base = shallow::Shallow::new(m);
    base.step_baseline(false); // past the leapfrog start-up
    let mut v2 = shallow::Shallow::new(m);
    v2.step(false);
    vec![
        PerfRow::measure("shallow_baseline", m, 1, flops, || {
            for _ in 0..STEPS {
                base.step_baseline(false);
            }
            std::hint::black_box(&base.p);
        }),
        PerfRow::measure("shallow_step", m, 1, flops, || {
            for _ in 0..STEPS {
                v2.step(false);
            }
            std::hint::black_box(&v2.p);
        }),
    ]
}

/// Sizes the [`gates`] are stated at.
const LU_GATE_N: usize = 2048;
const FFT_LEN: usize = 1 << 20;
/// L2-resident: the compute-bound regime the interleaved plan targets.
const SPMV_GRID: usize = 256;
const SHALLOW_M: usize = 512;

/// Run the table: GEMM, LU up to the lu/gemm comparison size, then the
/// rest of the v2 engine against its scalar seed baselines.
pub fn snapshot() -> Vec<PerfRow> {
    let mut rows = Vec::new();
    for n in [512, 1024] {
        rows.extend(gemm_rows(n));
    }
    for (n, reps) in [(512, 6), (1024, 5), (LU_GATE_N, 3)] {
        rows.extend(lu_rows(n, reps, n == LU_GATE_N));
    }
    rows.extend(fft_rows(FFT_LEN));
    // The larger grid is DRAM-bound and honest about it.
    for g in [SPMV_GRID, 1024] {
        rows.extend(spmv_rows(g));
    }
    rows.extend(shallow_rows(SHALLOW_M));
    rows
}

/// The perf gates `report bench-kernels` enforces, returned as summary
/// lines. Panics (fails the report) when a gate is violated:
///
/// * `lu_factor_par` must never be slower than `lu_factor` — with one
///   worker or one row panel it runs the identical sequential sweep, and
///   more workers must not cost more than they give (10% measurement
///   tolerance).
/// * At n=2048 LU must sustain ≥ 80% of the same-run GEMM rate — the
///   near-peak target the packed TRSM/panel kernels exist for.
/// * The v2 FFT, SpMV-plan and shallow sweeps must hold ≥ 1.5× over
///   their scalar seed baselines in the compute-bound rows.
pub fn gates(rows: &[PerfRow]) -> String {
    let mut s = String::new();
    let best = |kernel: &str, n: usize| -> &PerfRow {
        rows.iter()
            .filter(|r| r.kernel == kernel && r.n == n)
            .min_by(|a, b| a.ms.total_cmp(&b.ms))
            .unwrap_or_else(|| panic!("gate: no {kernel} row at n={n}"))
    };

    for (seq, par) in [
        ("lu_factor_nb64", "lu_factor_par_nb64"),
        ("lu_factor", "lu_factor_par"),
    ] {
        for r in rows.iter().filter(|r| r.kernel == seq) {
            let p = best(par, r.n);
            assert!(
                p.ms <= r.ms * 1.10,
                "gate: {par} ({:.1} ms) slower than {seq} ({:.1} ms) at n={}",
                p.ms,
                r.ms,
                r.n
            );
        }
    }
    let _ = writeln!(s, "gate lu_factor_par >= lu_factor: ok");

    let ratio = best("lu_factor", LU_GATE_N).gflops / best("gemm", LU_GATE_N).gflops;
    assert!(
        ratio >= 0.80,
        "gate: LU at n={LU_GATE_N} is {:.0}% of GEMM (< 80%)",
        ratio * 100.0
    );
    let _ = writeln!(
        s,
        "gate lu/gemm at n={LU_GATE_N}: {:.0}% of the packed GEMM rate (>= 80%)",
        ratio * 100.0
    );

    for (fast, base, n) in [
        ("fft", "fft_baseline", FFT_LEN),
        ("spmv_plan", "spmv_csr", SPMV_GRID * SPMV_GRID),
        ("shallow_step", "shallow_baseline", SHALLOW_M),
    ] {
        let speedup = best(base, n).ms / best(fast, n).ms;
        assert!(
            speedup >= 1.5,
            "gate: {fast} only {speedup:.2}x over {base} at n={n} (< 1.5x)"
        );
        let _ = writeln!(s, "gate {fast}/{base} at n={n}: {speedup:.2}x (>= 1.5x)");
    }
    s
}

/// The table `report bench-kernels` prints.
pub fn table(rows: &[PerfRow]) -> Table {
    let mut t = Table::new(
        "Exhibit KERN-2 — host kernel engine (fastest rep)",
        &["Kernel", "n", "Threads", "ms", "GFLOP/s"],
    );
    for r in rows {
        t.row(&[
            r.kernel.to_string(),
            r.n.to_string(),
            r.threads.to_string(),
            fnum(r.ms, 2),
            fnum(r.gflops, 2),
        ]);
    }
    t
}

/// `report bench-kernels`: measure, enforce the [`gates`], print.
pub fn report() -> String {
    let rows = snapshot();
    format!("{}\n{}", table(&rows), gates(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_baseline_matches_engine_lu() {
        let mut rng = Rng::new(3);
        let a = Mat::random(90, 90, &mut rng);
        let mut legacy = a.clone();
        let mut engine = a.clone();
        let pl = lu_factor_rowupdate(&mut legacy, 16).unwrap();
        let pe = lu::lu_factor(&mut engine, 16).unwrap();
        assert_eq!(pl, pe, "same pivots");
        assert!(
            legacy.dist(&engine) < 1e-10,
            "dist {}",
            legacy.dist(&engine)
        );
    }

    /// Every row builder at a size that runs in milliseconds: the labels
    /// the gates look up are all produced, and the table carries them.
    #[test]
    fn row_builders_label_what_the_gates_read() {
        let mut rows = gemm_rows(48);
        rows.extend(lu_rows(96, 1, true));
        rows.extend(fft_rows(1 << 8));
        rows.extend(spmv_rows(8));
        rows.extend(shallow_rows(16));
        for kernel in [
            "matmul_blocked48",
            "gemm_par",
            "lu_legacy_nb64",
            "lu_factor_nb64",
            "lu_factor_par_nb64",
            "lu_factor",
            "lu_factor_par",
            "fft_baseline",
            "fft",
            "spmv_csr",
            "spmv_plan",
            "cg_iter",
            "shallow_baseline",
            "shallow_step",
        ] {
            assert!(rows.iter().any(|r| r.kernel == kernel), "no {kernel} row");
        }
        assert_eq!(rows.iter().filter(|r| r.kernel == "gemm").count(), 2);
        for r in rows.iter().filter(|r| r.kernel.contains("_par")) {
            assert_eq!(r.threads, des::host_cores(), "{}", r.kernel);
        }
        assert_eq!(
            rows.iter().filter(|r| r.kernel == "lu_factor_par").count(),
            1
        );
        assert!(rows.iter().all(|r| r.ms > 0.0 && r.gflops > 0.0));
        let t = table(&rows);
        assert_eq!(t.n_rows(), rows.len());
        assert!(t.to_string().contains("GFLOP/s"));
    }
}
