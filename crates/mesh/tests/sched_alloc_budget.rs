//! Allocation budget of the scheduler service's per-event path.
//!
//! An arrival, admission, placement probe or finish costs no heap
//! allocation: shapes are interned once per run, the per-shape state is
//! flat vectors, running jobs are found through `slot_of`, the shard
//! buffer is swapped with a kept scratch vector, and arrivals are a
//! cursor rather than calendar entries. This test pins that down as a
//! marginal rate — allocations added per submission added when the
//! stream grows — so per-run set-up (the per-job and per-tenant vectors,
//! the histogram) cancels out and a per-event `HashSet` or `Vec` creeping
//! back fails here, not only on a benchmark chart.
//!
//! The counting allocator is process-wide, so this file holds one test.

mod common;

use delta_mesh::sched::service::{self, service_workload, ServiceConfig};

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

/// Heap allocations of one service run over a steady 0.6× stream of `n`
/// submissions (the stream itself is generated outside the count).
fn steady_run_allocs(n: usize) -> u64 {
    let trace = service_workload(n, 256, 0.6, 16, 33, 1992);
    let cfg = ServiceConfig::new(16, 33);
    assert!(!cfg.keep_records);
    let before = common::allocs();
    let report = service::run(&trace, &cfg);
    let allocs = common::allocs() - before;
    assert_eq!(report.completed, n, "a 0.6x stream completes everything");
    allocs
}

#[test]
fn service_allocations_do_not_grow_with_submissions() {
    steady_run_allocs(2_000); // warm-up: lazy one-time allocations
    let (small, large) = (2_000, 10_000);
    let (allocs_small, allocs_large) = (steady_run_allocs(small), steady_run_allocs(large));
    let marginal = allocs_large.saturating_sub(allocs_small) as f64 / (large - small) as f64;
    // Measured 0.0 (56 and 54 allocations); the slack is for buffers
    // (pending queue, calendar, running set) that may double on the
    // longer run. The hashed shape sets and per-arrival buffer this
    // replaced read 2.7.
    assert!(
        marginal <= 0.1,
        "{marginal:.3} allocations per added submission \
         ({allocs_small} -> {allocs_large} allocations, {small} -> {large} submissions)"
    );
}
