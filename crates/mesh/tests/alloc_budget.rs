//! Allocation budget of the mesh DES dispatch path.
//!
//! A send, recv, compute or delay costs calendar events but no heap
//! allocation: waits live in free-listed slot tables, tasks are resumed
//! by rank, deadlock labels are formatted only on deadlock. This test
//! pins that down as a marginal rate — allocations added per event added
//! when the problem grows — so per-run set-up (tasks, communicators,
//! the core's vectors) cancels out and an allocation creeping back into
//! the per-event path fails here, not only on a benchmark chart.
//!
//! The counting allocator is process-wide, so this file holds one test.

mod common;

use delta_mesh::{presets, Machine};
use hpcc_kernels::sim::lu2d;

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

/// (heap allocations, simulated events) of one LU-2D run of order `n`.
fn lu2d_cost(machine: &Machine, n: usize) -> (u64, u64) {
    let before = common::allocs();
    let result = lu2d::run(machine, n, 32);
    let allocs = common::allocs() - before;
    (allocs, result.report.events)
}

#[test]
fn lu2d_allocations_do_not_grow_with_events() {
    let machine = Machine::new(presets::delta(4, 4));
    lu2d_cost(&machine, 512); // warm-up: lazy one-time allocations
    let (allocs_small, events_small) = lu2d_cost(&machine, 512);
    let (allocs_large, events_large) = lu2d_cost(&machine, 1024);
    assert!(
        events_large > events_small + 1000,
        "the larger run must add events: {events_small} -> {events_large}"
    );
    let marginal =
        allocs_large.saturating_sub(allocs_small) as f64 / (events_large - events_small) as f64;
    // Measured 0.0; the slack is for buffers (calendar, mailboxes, slot
    // tables) that may double on the larger run. One allocation per wait
    // would read 2 or more.
    assert!(
        marginal <= 0.5,
        "{marginal:.3} allocations per added event \
         ({allocs_small} -> {allocs_large} allocations, {events_small} -> {events_large} events)"
    );
}
