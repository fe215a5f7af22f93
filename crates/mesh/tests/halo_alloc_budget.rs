//! Allocation budget of a small message, across a lane boundary or not.
//!
//! A halo value is one double. It travels inside its `Msg`
//! (`delta_mesh::F64s` holds up to two in place), so sending it, handing
//! it through a lane mailbox and receiving it cost no heap allocation.
//! Pinned as a marginal rate on the two-lane engine — allocations added
//! per message added when the exchange runs twice as many steps — so the
//! per-run set-up (tasks, lanes, a lane thread, mailbox and calendar
//! buffers) cancels out. One `Arc<[f64]>` per message reads 1.0.
//!
//! The counting allocator is process-wide, so this file holds one test.

mod common;

use delta_mesh::{presets, F64s, FaultPlan, Kernel, Machine, Node};

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

const ROWS: usize = 8;
const COLS: usize = 8;

/// Exchange one double with each mesh neighbour, `steps` times.
async fn halo(node: Node, steps: u64) -> f64 {
    let me = node.rank();
    let (r, c) = (me / COLS, me % COLS);
    let nbrs = [
        (r > 0).then(|| me - COLS),
        (r + 1 < ROWS).then(|| me + COLS),
        (c > 0).then(|| me - 1),
        (c + 1 < COLS).then(|| me + 1),
    ];
    let mut acc = 0.0;
    for s in 0..steps {
        node.compute(Kernel::Stencil, 2.0e4).await;
        for nb in nbrs.into_iter().flatten() {
            node.send_f64s(nb, s, &[me as f64]).await;
        }
        for nb in nbrs.into_iter().flatten() {
            acc += node.recv_f64s(Some(nb), Some(s)).await[0];
        }
    }
    acc
}

/// (heap allocations, messages sent, messages through the lane mailboxes)
/// of one two-lane run.
fn halo_cost(machine: &Machine, steps: u64) -> (u64, u64, u64) {
    let before = common::allocs();
    let (_, report, stats) =
        machine.run_sharded_stats(2, &FaultPlan::none(), |node| halo(node, steps));
    let allocs = common::allocs() - before;
    assert_eq!(stats.lanes, 2);
    (allocs, report.messages, stats.mail_msgs)
}

#[test]
fn halo_allocations_do_not_grow_with_messages() {
    let inline = F64s::from(&[1.0, 2.0][..]);
    let before = common::allocs();
    let copy = inline.clone();
    assert_eq!(common::allocs() - before, 0, "an inline clone allocated");
    assert_eq!(copy, inline);

    let machine = Machine::new(presets::delta(ROWS, COLS));
    halo_cost(&machine, 4); // warm-up: lazy one-time allocations
    let (allocs_small, msgs_small, mail_small) = halo_cost(&machine, 4);
    let (allocs_large, msgs_large, mail_large) = halo_cost(&machine, 8);
    assert!(
        msgs_large >= msgs_small + 800 && mail_large > mail_small,
        "the longer run must add messages, some of them across the cut: \
         {msgs_small} -> {msgs_large}, {mail_small} -> {mail_large} mailed"
    );
    let marginal =
        allocs_large.saturating_sub(allocs_small) as f64 / (msgs_large - msgs_small) as f64;
    // Measured 0.0; the slack is for a buffer that doubles on the longer
    // run.
    assert!(
        marginal <= 0.1,
        "{marginal:.3} allocations per added message \
         ({allocs_small} -> {allocs_large} allocations, {msgs_small} -> {msgs_large} messages)"
    );
}
