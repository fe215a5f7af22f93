//! "ACQUIRE AND UTILIZE THE INTEL TOUCHSTONE DELTA": space-sharing the
//! 16×33 mesh among the fourteen consortium partners — sub-mesh
//! allocation, FCFS vs backfill, and per-partner service statistics.
//!
//! Run with: `cargo run --release --example delta_scheduler`

use delta_mesh::sched::{consortium_workload, run, Policy};
use delta_mesh::MeshSpace;
use hpcc_core::consortium::CSC_MEMBERS;

fn main() {
    // --- The allocation problem in miniature. -----------------------------
    let mut space = MeshSpace::new(16, 33);
    println!("The Delta: {} nodes as a 16x33 mesh.", space.total_nodes());
    let a = space.allocate(8, 8).unwrap();
    let b = space.allocate(16, 16).unwrap();
    let c = space.allocate(4, 8).unwrap();
    println!(
        "three jobs placed at ({},{}), ({},{}), ({},{}); {} nodes still free",
        a.row,
        a.col,
        b.row,
        b.col,
        c.row,
        c.col,
        space.free_nodes()
    );
    let refused = space.allocate(16, 33).is_none();
    println!(
        "a full-machine request is {} — fragmentation in action\n",
        if refused { "refused" } else { "granted" }
    );

    // --- A week of consortium load. ----------------------------------------
    let jobs = consortium_workload(600, CSC_MEMBERS.len(), 90.0, 7);
    println!(
        "simulating {} jobs from {} partners (Poisson arrivals, heavy-tailed runtimes):\n",
        jobs.len(),
        CSC_MEMBERS.len()
    );
    println!(
        "{:10} {:>8} {:>12} {:>12} {:>10}",
        "policy", "util %", "mean wait", "max wait", "makespan"
    );
    for policy in [Policy::Fcfs, Policy::Backfill] {
        let r = run(16, 33, jobs.clone(), policy);
        println!(
            "{:10} {:>8.1} {:>9.0} min {:>9.0} min {:>8.1} h",
            format!("{policy:?}"),
            r.utilization * 100.0,
            r.mean_wait.as_secs_f64() / 60.0,
            r.max_wait.as_secs_f64() / 60.0,
            r.makespan.as_secs_f64() / 3600.0
        );
    }

    // --- Who got what (backfill run). --------------------------------------
    let r = run(16, 33, jobs, Policy::Backfill);
    let mut per_partner = vec![(0usize, 0.0f64); CSC_MEMBERS.len()];
    for rec in &r.records {
        per_partner[rec.job.partner].0 += 1;
        per_partner[rec.job.partner].1 +=
            rec.job.nodes() as f64 * rec.job.runtime.as_secs_f64() / 3600.0;
    }
    println!("\nnode-hours delivered per partner (backfill):");
    let mut rows: Vec<_> = CSC_MEMBERS.iter().zip(&per_partner).collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for (member, (jobs, node_hours)) in rows.iter().take(6) {
        let name: String = member.name.chars().take(44).collect();
        println!("  {name:44} {jobs:4} jobs {node_hours:9.0} node-h");
    }
    println!(
        "\n'over 14 government, industry and academia organizations' — all of\nthem behind one {}-node machine. Hence the scheduler.",
        16 * 33
    );
}
