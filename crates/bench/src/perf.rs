//! Exhibit KERN-2, the host-kernel scale table: measured GFLOP/s for the
//! packed GEMM engine and every kernel the v2 engine accelerates — LU up
//! to n = 2048 at its default block, a 2^20-point FFT, SpMV/CG and the
//! shallow-water sweep. Each row is there because a gate reads it: LU
//! against itself on every core and against the same-run GEMM, and FFT,
//! SpMV and shallow water against their scalar seed baselines.
//! `report bench-kernels` prints the table and the verdict of each perf
//! gate (`gates`), and fails when one fails. The cache-resident sizes are
//! the `kernels` workload of `benchmark/`, which is where regressions are
//! caught; this table is the near-peak claim.

use crate::{best_of, gated, timed, Gate};
use des::rng::Rng;
use hpcc_core::{fnum, Table};
use hpcc_kernels::{cg, fft, gemm, lu, mat::Mat, shallow};

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
        mut f: impl FnMut(),
    ) -> PerfRow {
        let reps = if n >= 1024 { 3 } else { 4 };
        let [secs] = best_of(reps, [&mut || timed(&mut f).0]);
        PerfRow::new(kernel, n, threads, flops, secs)
    }
}

/// GEMM at order `n`: the packed engine, sequential and on every host
/// core, `reps` interleaved reps each.
fn gemm_rows(n: usize, reps: usize) -> Vec<PerfRow> {
    let mut rng = Rng::new(1);
    let a = Mat::random(n, n, &mut rng);
    let b = Mat::random(n, n, &mut rng);
    let flops = gemm::gemm_flops(n, n, n);
    let [seq, par] = best_of(
        reps,
        [
            &mut || timed(|| std::hint::black_box(gemm::gemm(&a, &b))).0,
            &mut || timed(|| std::hint::black_box(gemm::gemm_par(&a, &b))).0,
        ],
    );
    vec![
        PerfRow::new("gemm", n, 1, flops, seq),
        PerfRow::new("gemm_par", n, des::host_cores(), flops, par),
    ]
}

/// LU at order `n` and the block size every caller uses
/// ([`lu::DEFAULT_NB`]), sequential vs parallel, `reps` interleaved reps
/// each. `gemm_ref` adds the same-order GEMM row the lu/gemm gate
/// compares against.
fn lu_rows(n: usize, reps: usize, gemm_ref: bool) -> Vec<PerfRow> {
    let mut rng = Rng::new(2);
    let a = Mat::random(n, n, &mut rng);
    // Factor-only FLOPs (2n³/3), not the full LINPACK credit: the
    // solve is not timed here.
    let flops = 2.0 * (n as f64).powi(3) / 3.0;
    // The factorisation is in-place, so every timed call gets a fresh
    // clone made outside the timed region.
    type Factor = fn(&mut Mat, usize) -> Result<Vec<usize>, lu::Singular>;
    let factor = |f: Factor| {
        let mut m = a.clone();
        timed(|| std::hint::black_box(f(&mut m, lu::DEFAULT_NB).unwrap())).0
    };
    // Warm-up, untimed. The par-never-slower gate compares the two LU
    // rows, and the lu/gemm gate compares `lu_factor` with the GEMM
    // reference, so they are timed in one interleaved rep loop: a slow
    // drift of the host (the usual few-percent wobble) then hits every
    // side alike.
    factor(lu::lu_factor);
    let b = gemm_ref.then(|| Mat::random(n, n, &mut rng));
    let [seq, par, gemm] = best_of(
        reps,
        [
            &mut || factor(lu::lu_factor),
            &mut || factor(lu::lu_factor_par),
            &mut || {
                b.as_ref()
                    .map_or(0.0, |b| timed(|| std::hint::black_box(gemm::gemm(&a, b))).0)
            },
        ],
    );
    let mut rows = vec![
        PerfRow::new("lu_factor", n, 1, flops, seq),
        PerfRow::new("lu_factor_par", n, des::host_cores(), flops, par),
    ];
    if gemm_ref {
        rows.push(PerfRow::new("gemm", n, 1, gemm::gemm_flops(n, n, n), gemm));
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
    for (n, reps) in [(512, 4), (1024, 3)] {
        rows.extend(gemm_rows(n, reps));
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

/// The perf gates of `report bench-kernels`, one verdict per comparison:
///
/// * `lu_factor_par` must never be slower than `lu_factor` — with one
///   worker or one row panel it runs the identical sequential sweep, and
///   more workers must not cost more than they give (10% measurement
///   tolerance).
/// * At n=2048 LU must sustain ≥ 80% of the same-run GEMM rate — the
///   near-peak target the packed TRSM/panel kernels exist for.
/// * The v2 FFT, SpMV-plan and shallow sweeps must hold ≥ 1.5× over
///   their scalar seed baselines in the compute-bound rows.
fn gates(rows: &[PerfRow]) -> Vec<Gate> {
    let best = |kernel: &str, n: usize| -> &PerfRow {
        rows.iter()
            .filter(|r| r.kernel == kernel && r.n == n)
            .min_by(|a, b| a.ms.total_cmp(&b.ms))
            .unwrap_or_else(|| panic!("gate: no {kernel} row at n={n}"))
    };
    let mut gates: Vec<Gate> = rows
        .iter()
        .filter(|r| r.kernel == "lu_factor")
        .map(|r| {
            let p = best("lu_factor_par", r.n);
            (
                p.ms <= r.ms * 1.10,
                format!(
                    "lu_factor_par/lu_factor at n={}: {:.2}x the time (<= 1.10x)",
                    r.n,
                    p.ms / r.ms
                ),
            )
        })
        .collect();
    let ratio = best("lu_factor", LU_GATE_N).gflops / best("gemm", LU_GATE_N).gflops;
    gates.push((
        ratio >= 0.80,
        format!(
            "lu/gemm at n={LU_GATE_N}: {:.0}% of the packed GEMM rate (>= 80%)",
            ratio * 100.0
        ),
    ));
    for (fast, base, n) in [
        ("fft", "fft_baseline", FFT_LEN),
        ("spmv_plan", "spmv_csr", SPMV_GRID * SPMV_GRID),
        ("shallow_step", "shallow_baseline", SHALLOW_M),
    ] {
        let speedup = best(base, n).ms / best(fast, n).ms;
        gates.push((
            speedup >= 1.5,
            format!("{fast}/{base} at n={n}: {speedup:.2}x (>= 1.5x)"),
        ));
    }
    gates
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

/// `report bench-kernels`: measure, print the table and every gate's
/// verdict, fail if a gate failed.
pub fn report() -> String {
    let rows = snapshot();
    gated(table(&rows).to_string(), gates(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::panic_text;

    /// Rows that pass every gate but lu/gemm (LU at 70% of GEMM): the
    /// failure carries the whole table and every other gate's line.
    #[test]
    fn a_failed_gate_still_prints_the_table_and_every_gate() {
        let row = |kernel, n, ms, gflops| PerfRow {
            kernel,
            n,
            threads: 1,
            ms,
            gflops,
        };
        let mut rows = vec![row("gemm", LU_GATE_N, 1.0, 10.0)];
        for n in [512, 1024, LU_GATE_N] {
            rows.extend([
                row("lu_factor", n, 10.0, 7.0),
                row("lu_factor_par", n, 6.0, 11.0),
            ]);
        }
        for (fast, base, n) in [
            ("fft", "fft_baseline", FFT_LEN),
            ("spmv_plan", "spmv_csr", SPMV_GRID * SPMV_GRID),
            ("shallow_step", "shallow_baseline", SHALLOW_M),
        ] {
            rows.extend([row(fast, n, 1.0, 2.0), row(base, n, 2.0, 1.0)]);
        }
        let text = panic_text(|| gated(table(&rows).to_string(), gates(&rows)));
        assert!(text.starts_with(&table(&rows).to_string()), "{text}");
        assert!(text.contains("Exhibit KERN-2"));
        for line in [
            "gate lu_factor_par/lu_factor at n=512: 0.60x the time (<= 1.10x): ok",
            "gate lu_factor_par/lu_factor at n=1024: 0.60x the time (<= 1.10x): ok",
            "gate lu_factor_par/lu_factor at n=2048: 0.60x the time (<= 1.10x): ok",
            "gate lu/gemm at n=2048: 70% of the packed GEMM rate (>= 80%): FAILED",
            "gate fft/fft_baseline at n=1048576: 2.00x (>= 1.5x): ok",
            "gate spmv_plan/spmv_csr at n=65536: 2.00x (>= 1.5x): ok",
            "gate shallow_step/shallow_baseline at n=512: 2.00x (>= 1.5x): ok",
        ] {
            assert!(
                text.contains(&format!("\n{line}\n")),
                "no `{line}` in:\n{text}"
            );
        }
        assert_eq!(text.matches("\ngate ").count(), 7);
    }

    /// Every row builder at a size that runs in milliseconds prints
    /// exactly the labels the gates look up, plus `gemm_par` and
    /// `cg_iter`, and the table carries every row.
    #[test]
    fn row_builders_label_what_the_gates_read() {
        let mut rows = gemm_rows(48, 1);
        rows.extend(lu_rows(96, 1, true));
        rows.extend(fft_rows(1 << 8));
        rows.extend(spmv_rows(8));
        rows.extend(shallow_rows(16));
        let labels: std::collections::BTreeSet<_> = rows.iter().map(|r| r.kernel).collect();
        let expected: std::collections::BTreeSet<_> = [
            "gemm",
            "gemm_par",
            "lu_factor",
            "lu_factor_par",
            "fft_baseline",
            "fft",
            "spmv_csr",
            "spmv_plan",
            "cg_iter",
            "shallow_baseline",
            "shallow_step",
        ]
        .into();
        assert_eq!(labels, expected);
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
