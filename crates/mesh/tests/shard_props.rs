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
//!
//! Each property is a plain loop over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it.

use delta_mesh::{presets, FaultKind, FaultPlan, Machine, Node};
use des::rng::Rng;
use des::time::{Dur, SimTime};
use hpcc_trace::MemRecorder;
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

/// Window runtime at one lane == legacy engine, bit for bit: same
/// outputs, same elapsed, same event count, same fault accounting
/// (12 cases).
#[test]
fn single_lane_window_is_bit_identical() {
    for case in 0..12 {
        let mut rng = Rng::new(0x51D6_0001 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(2, 4) as usize;
        let seed = rng.below(10_000);
        println!("case {case}: rows {rows} cols {cols} seed {seed}");
        let m = Machine::new(presets::delta(rows, cols));
        let links = m.config().topology.links();
        let plan = rich_plan(seed, rows * cols, links);
        let (legacy_out, legacy_rep) = m.run_with_faults(&plan, |node| recovering_step(node, cols));
        let (win_out, win_rep) = m.run_windowed_exact(1, &plan, |node| recovering_step(node, cols));
        assert_eq!(legacy_out, win_out);
        assert_eq!(legacy_rep, win_rep);
    }
}

/// Final results and fault accounting are lane-count-invariant for
/// timing-insensitive programs (12 cases).
#[test]
fn results_are_lane_count_invariant() {
    for case in 0..12 {
        let mut rng = Rng::new(0x1A4E_0002 ^ case);
        let rows = rng.range_u64(4, 7) as usize;
        let cols = rng.range_u64(2, 3) as usize;
        let seed = rng.below(10_000);
        println!("case {case}: rows {rows} cols {cols} seed {seed}");
        let m = Machine::new(presets::delta(rows, cols));
        let plan = boot_crash_plan(seed, rows * cols);
        let (base_out, base_rep) =
            m.run_windowed_exact(1, &plan, |node| halo_step(node, rows, cols));
        for lanes in [2usize, 4] {
            let (out, rep, _) =
                m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
            assert_eq!(&base_out, &out, "lanes={}", lanes);
            assert_eq!(base_rep.faults.node_crashes, rep.faults.node_crashes);
            assert_eq!(base_rep.faults.slowdowns, rep.faults.slowdowns);
            assert_eq!(base_rep.messages, rep.messages, "lanes={}", lanes);
            assert_eq!(base_rep.bytes, rep.bytes, "lanes={}", lanes);
            assert_eq!(base_rep.flops, rep.flops, "lanes={}", lanes);
        }
    }
}

/// Sharded runs are reproducible: two identical multi-lane runs agree on
/// everything, including virtual elapsed time, so thread interleaving
/// does not leak into results (12 cases).
#[test]
fn sharded_runs_replay_bit_identically() {
    for case in 0..12 {
        let mut rng = Rng::new(0x2E91_0003 ^ case);
        let rows = rng.range_u64(4, 7) as usize;
        let cols = rng.range_u64(2, 3) as usize;
        let lanes = rng.range_u64(2, 4) as usize;
        let seed = rng.below(10_000);
        println!("case {case}: rows {rows} cols {cols} lanes {lanes} seed {seed}");
        let m = Machine::new(presets::delta(rows, cols));
        let plan = boot_crash_plan(seed, rows * cols);
        let run1 = m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
        let run2 = m.run_sharded_stats(lanes, &plan, |node| halo_step(node, rows, cols));
        assert_eq!(run1, run2);
    }
}

/// Seeded traced single-queue runs replay bit-identically, with a
/// multi-lane run in between to prove it leaves no residue (12 cases).
#[test]
fn recorded_legacy_runs_survive_sharded_interleaving() {
    for case in 0..12 {
        let mut rng = Rng::new(0x2EC0_0004 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(2, 3) as usize;
        let seed = rng.below(10_000);
        println!("case {case}: rows {rows} cols {cols} seed {seed}");
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
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2);
        assert_eq!(rec1.tracks(), rec2.tracks());
        assert_eq!(rec1.events(), rec2.events());
    }
}

/// Zero-fault sharded runs complete and agree with `Machine::run` on
/// results for a deterministic program (one fixed 8x6 mesh at 2, 4 and
/// 8 lanes).
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
