//! The Concurrent Supercomputer Consortium exhibit, end to end:
//! verified distributed LU at small scale, then the paper-scale LINPACK
//! timing model at order 25,000 on the 528-node simulated Delta.
//!
//! Run with: `cargo run --release --example delta_linpack`

use hpcc::prelude::*;
use hpcc_kernels::sim::{lu1d, lu2d};

fn main() {
    // --- 1. Numerically verified distributed LU on a small Delta. --------
    // Real f64 columns move through the simulated mesh; node 0 solves and
    // checks the residual, LINPACK style.
    let small = Machine::new(presets::delta(2, 4));
    let v = lu1d::run(&small, 96, 8, 1992);
    println!(
        "verified run : n={:4} on {:3} nodes  residual {:.2e}  ({} LINPACK criterion)",
        v.n,
        v.nodes,
        v.residual,
        if v.residual < 16.0 { "PASSES" } else { "FAILS" },
    );
    assert!(v.residual < 16.0);

    // --- 2. The headline number. -----------------------------------------
    let delta = Machine::new(presets::delta_528());
    println!(
        "\nsimulating LINPACK at order 25,000 on {} ({} nodes)...",
        delta.config().name,
        delta.config().nodes()
    );
    let r = lu2d::run(&delta, 25_000, 32);
    println!(
        "model run    : {:.1} GFLOPS  ({:.0}% of the 32 GFLOPS peak), {:.0} s virtual",
        r.gflops,
        r.efficiency * 100.0,
        r.seconds
    );
    println!("paper claims : 13.0 GFLOPS (40.6% of peak)");

    // --- 3. The scaling story behind the number. --------------------------
    // The last point is the headline run above, not a second simulation.
    println!("\nefficiency vs matrix order (why bigger was better):");
    for n in [5_000, 10_000, 20_000, r.n] {
        let efficiency = if n == r.n {
            r.efficiency
        } else {
            lu2d::run(&delta, n, 32).efficiency
        };
        let bar = "#".repeat((efficiency * 60.0) as usize);
        println!("  n={n:6}  {:5.1}%  {bar}", efficiency * 100.0);
    }
}
