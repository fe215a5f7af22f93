//! The ASTA column of exhibit T4-2: Grand Challenge kernels for each
//! mission agency, run for real on the host (sequential vs parallel) with
//! their physics invariants checked as they go.
//!
//! Run with: `cargo run --release --example grand_challenges`

use hpcc_kernels::{cfd, cg, fft, nbody, shallow};
use std::time::Instant;

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    println!("  {label:44} {:8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    out
}

fn main() {
    println!("Grand Challenge kernels (the ASTA workloads), host execution:\n");

    // NASA: computational aerosciences — transport on a grid.
    println!("NASA / aerosciences — steady transport, 256^2 (to 1e-6):");
    let rhs = cfd::Grid::new(256);
    let sor_iters = timed("red-black SOR", || {
        let mut u = cfd::Grid::new(256);
        u.set_boundary(|x, y| x + y);
        cfd::sor(&mut u, &rhs, None, 1e-6, 100_000).iterations
    });
    let jac_iters = timed("Jacobi (parallel rows)", || {
        let mut u = cfd::Grid::new(256);
        u.set_boundary(|x, y| x + y);
        cfd::jacobi(&mut u, &rhs, 1e-6, 1_000_000, true).iterations
    });
    println!("    SOR converged in {sor_iters} sweeps vs Jacobi {jac_iters} — algorithm beats hardware\n");

    // NOAA: ocean and atmosphere — shallow water equations.
    println!("NOAA / ocean-atmosphere — shallow water, 256^2, 120 steps:");
    let sw = timed("leapfrog + Asselin filter (parallel)", || {
        let mut sw = shallow::Shallow::new(256);
        sw.run(120, true);
        sw
    });
    let drift = {
        let m0 = shallow::Shallow::new(256).total_mass();
        (sw.total_mass() - m0) / m0
    };
    println!("    mass conservation drift: {drift:.2e} (round-off only)\n");

    // Space sciences: N-body.
    println!("Space sciences — 4,000-body cluster, one force evaluation:");
    let bodies = nbody::random_cluster(4_000, 7);
    let exact = timed("direct O(n^2), parallel", || {
        nbody::accel_direct_par(&bodies, 0.05)
    });
    let approx = timed("Barnes-Hut quadtree, theta=0.5", || {
        nbody::accel_barnes_hut(&bodies, 0.5, 0.05)
    });
    let mean: f64 = exact
        .iter()
        .map(|e| (e.0 * e.0 + e.1 * e.1).sqrt())
        .sum::<f64>()
        / exact.len() as f64;
    let worst = exact
        .iter()
        .zip(&approx)
        .map(|(e, a)| {
            ((e.0 - a.0).powi(2) + (e.1 - a.1).powi(2)).sqrt()
                / (e.0 * e.0 + e.1 * e.1).sqrt().max(0.1 * mean)
        })
        .fold(0.0f64, f64::max)
        * 100.0;
    println!("    worst force error {worst:.1}% — tree codes trade accuracy for O(n log n)\n");

    // Earth/space transforms.
    println!("Earth & space sciences — 1024^2 complex 2-D FFT:");
    let spectrum = timed("rows-transpose-rows (parallel)", || {
        let n = 1024;
        let mut d: Vec<fft::Cpx> = (0..n * n)
            .map(|i| fft::Cpx::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        fft::fft2d(&mut d, n, true);
        d
    });
    println!(
        "    energy in spectrum: {:.3e} (Parseval-checked in the test suite)\n",
        spectrum.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / (1024.0 * 1024.0)
    );

    // DOE: energy research — sparse iterative solvers.
    println!("DOE / energy — Poisson 300^2 via conjugate gradient:");
    let res = timed("CG with parallel SpMV", || {
        let a = cg::Csr::poisson2d(300);
        let b = vec![1.0; a.n()];
        let mut x = vec![0.0; a.n()];
        cg::cg(&a, &b, &mut x, 1e-10, 100_000, true)
    });
    println!(
        "    {} iterations to residual {:.1e} on a {}-unknown system",
        res.iterations,
        res.residual,
        300 * 300
    );
}
