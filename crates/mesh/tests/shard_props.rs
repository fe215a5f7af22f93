//! Property tests for the mesh engine across lane counts. Every entry
//! point runs the one dispatch loop (`shard::drive`); these are the
//! proofs that the lane count and the horizon do not leak into results.
//!
//! Three invariants, in decreasing strictness:
//!
//! 1. **Single-lane bit-identity.** One sharded lane under the lookahead
//!    horizon (`run_windowed_exact`) and the single-queue engine (one
//!    unsharded lane, no horizon) give identical event order, identical
//!    outputs, identical report — compared field-for-field including
//!    elapsed virtual time and event counts, under seeded fault plans
//!    and `recv_timeout`-based recovery.
//! 2. **No residue.** Seeded single-queue runs with a `MemRecorder`
//!    attached replay bit-identically run-to-run (the executor
//!    preserves poll order), and a multi-lane run in between perturbs
//!    nothing (no global state).
//! 3. **Lane-count invariance.** For timing-insensitive programs,
//!    final results and fault accounting do not depend on how many
//!    lanes the mesh is split into — only per-event timestamps may
//!    move, because cross-lane messages are timed analytically.

use delta_mesh::{presets, FaultKind, FaultPlan, Machine, Node};
use des::time::{Dur, SimTime};
use hpcc_trace::MemRecorder;
use proptest::prelude::*;
use std::rc::Rc;

/// Deterministic neighbour-exchange program: compute, send a value to
/// every live mesh neighbour, receive from every live neighbour with an
/// exact source filter, return the (order-fixed) accumulated sum.
/// Output depends only on which nodes are alive — never on message
/// timing — so it is safe to compare across engines and lane counts.
async fn halo_step(node: Node, rows: usize, cols: usize) -> f64 {
    let me = node.rank();
    let (r, c) = (me / cols, me % cols);
    let mut nbrs = Vec::new();
    if r > 0 {
        nbrs.push(me - cols);
    }
    if r + 1 < rows {
        nbrs.push(me + cols);
    }
    if c > 0 {
        nbrs.push(me - 1);
    }
    if c + 1 < cols {
        nbrs.push(me + 1);
    }
    node.compute(delta_mesh::Kernel::Stencil, 1.0e6).await;
    for &nb in &nbrs {
        if !node.peer_failed(nb) {
            node.send_f64s(nb, me as u64, &[(me * 10 + 1) as f64]).await;
        }
    }
    let mut acc = 0.0;
    for &nb in &nbrs {
        if !node.peer_failed(nb) {
            let v = node.recv_f64s(Some(nb), Some(nb as u64)).await;
            acc += v[0];
        }
    }
    node.compute(delta_mesh::Kernel::Daxpy, 5.0e5).await;
    acc
}

/// Fault plan with boot crashes (t = 0 only, so liveness is a static
/// property every engine agrees on) plus mid-run slowdowns (they bend
/// timing, never results).
fn boot_crash_plan(seed: u64, nodes: usize) -> FaultPlan {
    let mut rng = des::rng::Rng::new(seed);
    let mut plan = FaultPlan::none();
    let crashes = (rng.next_u64() % 3) as usize;
    for _ in 0..crashes {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(SimTime::ZERO, FaultKind::NodeCrash { node });
    }
    let slows = (rng.next_u64() % 3) as usize;
    for _ in 0..slows {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(
            SimTime(1_000 + rng.next_u64() % 1_000_000),
            FaultKind::NodeSlow {
                node,
                factor: 3.0,
                until: SimTime(5_000_000),
            },
        );
    }
    plan
}

/// A plan that also exercises timers, timeouts, and mid-run crashes —
/// only used where both sides run the *same* engine schedule
/// (single-lane comparisons), where full bit-identity must hold anyway.
fn rich_plan(seed: u64, nodes: usize, links: usize) -> FaultPlan {
    let mut rng = des::rng::Rng::new(seed);
    let mut plan = FaultPlan::none();
    for _ in 0..(rng.next_u64() % 3) {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(
            SimTime(rng.next_u64() % 2_000_000),
            FaultKind::NodeCrash { node },
        );
    }
    if links > 0 {
        for _ in 0..(rng.next_u64() % 2) {
            let link = (rng.next_u64() as usize) % links;
            let at = rng.next_u64() % 1_000_000;
            plan.push(
                SimTime(at),
                FaultKind::LinkDown {
                    link,
                    until: SimTime(at + 500_000),
                },
            );
        }
    }
    plan
}

/// Recovery-style program for single-lane comparisons: receives with a
/// deadline and falls back, so crashes and link faults never deadlock.
async fn recovering_step(node: Node, cols: usize) -> f64 {
    let me = node.rank();
    let right = if (me + 1).is_multiple_of(cols) {
        me + 1 - cols
    } else {
        me + 1
    };
    let left = if me.is_multiple_of(cols) {
        me + cols - 1
    } else {
        me - 1
    };
    node.send_f64s(right, 7, &[me as f64]).await;
    match node
        .recv_f64s_timeout(Some(left), Some(7), Dur::from_millis(40))
        .await
    {
        Ok(v) => v[0] + 1.0,
        Err(_) => -1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Window runtime at one lane == legacy engine, bit for bit: same
    /// outputs, same elapsed, same event count, same fault accounting.
    #[test]
    fn single_lane_window_is_bit_identical(
        rows in 1usize..4,
        cols in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let m = Machine::new(presets::delta(rows, cols));
        let links = m.config().topology.links();
        let plan = rich_plan(seed, rows * cols, links);
        let (legacy_out, legacy_rep) =
            m.run_with_faults(&plan, |node| recovering_step(node, cols));
        let (win_out, win_rep) =
            m.run_windowed_exact(1, &plan, |node| recovering_step(node, cols));
        prop_assert_eq!(legacy_out, win_out);
        prop_assert_eq!(legacy_rep, win_rep);
    }

    /// Final results and fault accounting are lane-count-invariant for
    /// timing-insensitive programs.
    #[test]
    fn results_are_lane_count_invariant(
        rows in 4usize..8,
        cols in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let m = Machine::new(presets::delta(rows, cols));
        let plan = boot_crash_plan(seed, rows * cols);
        let (base_out, base_rep) =
            m.run_windowed_exact(1, &plan, |node| halo_step(node, rows, cols));
        for lanes in [2usize, 4] {
            let (out, rep, _) =
                m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
            prop_assert_eq!(&base_out, &out, "lanes={}", lanes);
            prop_assert_eq!(base_rep.faults.node_crashes, rep.faults.node_crashes);
            prop_assert_eq!(base_rep.faults.slowdowns, rep.faults.slowdowns);
            prop_assert_eq!(base_rep.messages, rep.messages, "lanes={}", lanes);
            prop_assert_eq!(base_rep.bytes, rep.bytes, "lanes={}", lanes);
            prop_assert_eq!(base_rep.flops, rep.flops, "lanes={}", lanes);
        }
    }

    /// Sharded runs are reproducible: two identical multi-lane runs
    /// agree on everything, including virtual elapsed time (thread
    /// interleaving must not leak into results).
    #[test]
    fn sharded_runs_replay_bit_identically(
        rows in 4usize..8,
        cols in 2usize..4,
        lanes in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let m = Machine::new(presets::delta(rows, cols));
        let plan = boot_crash_plan(seed, rows * cols);
        let run1 = m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
        let run2 = m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
        prop_assert_eq!(run1, run2);
    }

    /// Seeded traced single-queue runs replay bit-identically, with a
    /// multi-lane run in between to prove it leaves no residue.
    #[test]
    fn recorded_legacy_runs_survive_sharded_interleaving(
        rows in 1usize..4,
        cols in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let m = Machine::new(presets::delta(rows, cols));
        let links = m.config().topology.links();
        let plan = rich_plan(seed, rows * cols, links);
        let rec1 = Rc::new(MemRecorder::new());
        let (out1, rep1) = m.run_recorded(&plan, Rc::clone(&rec1) as _, |node| {
            recovering_step(node, cols)
        });
        let _ = m.run_sharded_stats(2, &plan, |node| halo_step(node, rows, cols));
        let rec2 = Rc::new(MemRecorder::new());
        let (out2, rep2) = m.run_recorded(&plan, Rc::clone(&rec2) as _, |node| {
            recovering_step(node, cols)
        });
        prop_assert_eq!(out1, out2);
        prop_assert_eq!(rep1, rep2);
        prop_assert_eq!(rec1.tracks(), rec2.tracks());
        prop_assert_eq!(rec1.events(), rec2.events());
    }
}

/// Zero-fault sharded runs complete and agree with `Machine::run` on
/// results for a deterministic program (plain #[test]: the all-lanes
/// sweep on the 16x33 Delta is too big for a proptest case budget).
#[test]
fn mesh48_all_lane_counts_agree() {
    let rows = 8;
    let cols = 6;
    let m = Machine::new(presets::delta(rows, cols));
    let (base, _) = m.run(|node| halo_step(node, 8, 6));
    let base: Vec<_> = base.into_iter().map(Some).collect();
    for lanes in [2usize, 4, 8] {
        let (out, rep, _) =
            m.run_sharded_stats(lanes, &FaultPlan::none(), |node| halo_step(node, 8, 6));
        assert_eq!(base, out, "lanes={lanes}");
        assert!(rep.events > 0);
        assert_eq!(rep.nodes, rows * cols);
    }
}
