//! Paper-scale LINPACK on the simulated Delta: a 2-D block-cyclic
//! right-looking LU **timing model**.
//!
//! At order 25,000 the matrix is 5 GB — the real Delta held it across
//! 528 × 16 MB nodes, and this process does not. So this variant moves
//! *virtual* payloads with the exact communication schedule of the
//! algorithm (panel broadcasts along process rows, U/swap broadcasts
//! along process columns, pivot allreduces) and charges the node compute
//! model for the BLAS kernels (panel = DAXPY-class, update = DGEMM-class).
//! The achieved GFLOPS that falls out is the quantity the exhibit quotes
//! ("13 GFLOPS ... OF ORDER 25,000 BY 25,000").
//!
//! Fidelity notes (documented substitutions):
//! * per-column pivot allreduces are charged analytically per panel
//!   (`nb` × the recursive-doubling latency) plus one real allreduce to
//!   keep contention in the picture — doing 25,000 real 16-byte
//!   allreduces would add nothing but host time;
//! * row swaps are folded into the column-comm broadcast volume, as
//!   HPL-style long-swap implementations do.

use crate::lu::linpack_flops;
use delta_mesh::{Comm, FaultPlan, Kernel, Machine, MachineConfig, RunReport};
use des::rng::Rng;
use des::time::Dur;
use hpcc_trace::{NullRecorder, Recorder};
use std::rc::Rc;

/// Result of a modelled run.
#[derive(Debug, Clone)]
pub struct Lu2dResult {
    pub n: usize,
    pub nb: usize,
    pub grid: (usize, usize),
    pub seconds: f64,
    pub gflops: f64,
    /// Fraction of machine peak achieved.
    pub efficiency: f64,
    pub report: RunReport,
}

/// Pick a near-square process grid pr×pc = p with pr ≤ pc.
pub fn choose_grid(p: usize) -> (usize, usize) {
    let mut best = (1, p);
    let mut r = 1;
    while r * r <= p {
        if p.is_multiple_of(r) {
            best = (r, p / r);
        }
        r += 1;
    }
    best
}

/// Number of global indices in `[from, n)` whose block `(i/nb) % p == coord`.
///
/// Closed form: blocks repeat with period `nb·p`, each period gives
/// `coord` exactly `nb` indices, and the partial last period gives it
/// whatever of `[coord·nb, coord·nb + nb)` lies below the cut.
fn local_count(from: usize, n: usize, nb: usize, p: usize, coord: usize) -> usize {
    let period = nb * p;
    let below = |x: usize| (x / period) * nb + nb.min((x % period).saturating_sub(coord * nb));
    below(n) - below(from.min(n))
}

/// Latency of a `p`-way recursive-doubling allreduce of `bytes` on the
/// machine, approximated with uncontended messages over average-distance
/// hops in the machine's switching mode.
fn allreduce_latency(cfg: &MachineConfig, p: usize, bytes: u64) -> Dur {
    if p <= 1 {
        return Dur::ZERO;
    }
    let rounds = (p as f64).log2().ceil() as u64;
    let avg_hops = (cfg.topology.diameter() / 2).max(1);
    let per_msg =
        cfg.net.send_overhead + cfg.net.transfer_time(bytes, avg_hops) + cfg.net.recv_overhead;
    per_msg * rounds
}

/// Run the timing model for order `n`, panel width `nb`.
pub fn run(machine: &Machine, n: usize, nb: usize) -> Lu2dResult {
    run_checkpointed(machine, n, nb, 0).result
}

/// A checkpointed run: the timing result plus where in the fault-free
/// timeline each checkpoint completed.
#[derive(Debug, Clone)]
pub struct CkptRun {
    pub result: Lu2dResult,
    /// Checkpoint cadence in panel steps (0 = no checkpoints).
    pub every_steps: usize,
    /// Completion time of each checkpoint, seconds into the run.
    pub ckpt_times_s: Vec<f64>,
}

/// Run the LU timing model, pausing every `every_steps` panel steps to
/// checkpoint: a world barrier, then every node drains its local matrix
/// share to stable storage at mesh link bandwidth. `every_steps == 0`
/// disables checkpointing and reproduces [`run`] exactly.
pub fn run_checkpointed(machine: &Machine, n: usize, nb: usize, every_steps: usize) -> CkptRun {
    run_impl(
        machine,
        n,
        nb,
        every_steps,
        &FaultPlan::none(),
        Rc::new(NullRecorder),
    )
}

/// [`run`] under a [`FaultPlan`] and a trace [`Recorder`]: the exhibit's
/// faulted, fully-instrumented LU-2D. Every mesh node's
/// compute/send/recv/blocked intervals, every channel occupancy window,
/// and the executor's queue depth land in the recorder; the timing
/// result is what the (identically seeded) unrecorded run would report.
pub fn run_traced(
    machine: &Machine,
    n: usize,
    nb: usize,
    plan: &FaultPlan,
    rec: Rc<dyn Recorder>,
) -> CkptRun {
    run_impl(machine, n, nb, 0, plan, rec)
}

fn run_impl(
    machine: &Machine,
    n: usize,
    nb: usize,
    every_steps: usize,
    plan: &FaultPlan,
    rec: Rc<dyn Recorder>,
) -> CkptRun {
    let p = machine.config().nodes();
    let (pr, pc) = choose_grid(p);
    let cfg = machine.config();
    let pivot_cost = allreduce_latency(cfg, pr, 16);
    let io_bw = cfg.net.bandwidth;

    let (mut times, report) = machine.run_recorded(plan, rec, move |node| {
        let pivot_cost = pivot_cost;
        async move {
            let world = (every_steps > 0).then(|| Comm::world(&node));
            let mut ckpts: Vec<f64> = Vec::new();
            let rank = node.rank();
            let my_prow = rank / pc;
            let my_pcol = rank % pc;
            // Row communicator: all ranks in my process row.
            let row_members: Vec<usize> = (0..pc).map(|c| my_prow * pc + c).collect();
            let row_comm = Comm::new(&node, row_members, 100 + my_prow as u64);
            // Column communicator: all ranks in my process column.
            let col_members: Vec<usize> = (0..pr).map(|r| r * pc + my_pcol).collect();
            let col_comm = Comm::new(&node, col_members, 1000 + my_pcol as u64);

            let steps = n.div_ceil(nb);
            for k in 0..steps {
                if let Some(w) = &world {
                    if k > 0 && k.is_multiple_of(every_steps) {
                        // Consistent checkpoint: quiesce, drain the local
                        // matrix share to stable storage at link speed,
                        // then agree the checkpoint is durable.
                        w.barrier().await;
                        let my_bytes = 8.0
                            * local_count(0, n, nb, pr, my_prow) as f64
                            * local_count(0, n, nb, pc, my_pcol) as f64;
                        node.delay(Dur::from_secs_f64(my_bytes / io_bw)).await;
                        w.barrier().await;
                        ckpts.push(node.now().as_secs_f64());
                    }
                }
                let kb = nb.min(n - k * nb);
                let diag = k * nb;
                let trail = diag + kb;
                let panel_col = k % pc; // process column owning the panel
                let panel_row = k % pr; // process row owning the U block

                // Local trailing extents.
                let m_loc = local_count(trail, n, nb, pr, my_prow); // rows
                let c_loc = local_count(trail, n, nb, pc, my_pcol); // cols
                                                                    // Panel rows at/below the diagonal block.
                let m_panel = local_count(diag, n, nb, pr, my_prow);

                // --- Panel factorisation in the owning process column. ---
                if my_pcol == panel_col {
                    // Factor kb columns over m_panel local rows. Blocked /
                    // recursive panel codes sustain BLAS-2.5-like rates,
                    // which the Panel kernel class models.
                    let flops = (m_panel as f64) * (kb as f64) * (kb as f64 + 1.0);
                    node.compute(Kernel::Panel, flops).await;
                    // kb pivot searches: one real allreduce for contention,
                    // the rest charged analytically.
                    col_comm.allreduce_virtual(16).await;
                    node.delay(pivot_cost * (kb.saturating_sub(1)) as u64).await;
                    // Row interchanges + U rows move inside the column.
                    let swap_bytes = (kb * c_loc * 8) as u64;
                    col_comm.bcast_virtual(panel_row, swap_bytes).await;
                }

                if trail >= n {
                    break;
                }

                // --- Broadcast the L panel along process rows. ---
                let l_bytes = (m_loc * kb * 8) as u64;
                row_comm.bcast_virtual(panel_col, l_bytes.max(8)).await;

                // --- Broadcast the U block along process columns. ---
                let u_bytes = (kb * c_loc * 8) as u64;
                col_comm.bcast_virtual(panel_row, u_bytes.max(8)).await;

                // --- Trailing update: the DGEMM. ---
                let flops = 2.0 * m_loc as f64 * c_loc as f64 * kb as f64;
                if flops > 0.0 {
                    node.compute(Kernel::Dgemm, flops).await;
                }
                // Triangular solve on the U rows (owning row only).
                if my_prow == panel_row {
                    let f = (kb * kb) as f64 * c_loc as f64;
                    node.compute(Kernel::Dtrsm, f).await;
                }
            }
            ckpts
        }
    });

    let seconds = report.elapsed.as_secs_f64();
    let gflops = linpack_flops(n) / seconds / 1e9;
    let peak = machine.config().peak_flops() / 1e9;
    CkptRun {
        result: Lu2dResult {
            n,
            nb,
            grid: (pr, pc),
            seconds,
            gflops,
            efficiency: gflops / peak,
            report,
        },
        every_steps,
        // Node 0's checkpoint log; empty if a fault killed node 0.
        ckpt_times_s: times.swap_remove(0).unwrap_or_default(),
    }
}

/// Young's approximation of the optimal checkpoint interval:
/// `sqrt(2 · MTBF · checkpoint_cost)`.
pub fn young_optimal_interval(mtbf_s: f64, ckpt_cost_s: f64) -> f64 {
    (2.0 * mtbf_s * ckpt_cost_s).sqrt()
}

/// One point of the checkpoint-interval sweep.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Requested checkpoint interval, seconds of fault-free progress.
    pub interval_s: f64,
    /// The panel-step cadence that interval maps to.
    pub every_steps: usize,
    /// Checkpoints taken in the fault-free run.
    pub checkpoints: usize,
    /// Fault-free runtime including checkpoint overhead.
    pub run_seconds: f64,
    /// Mean per-checkpoint cost (overhead / checkpoints taken).
    pub ckpt_cost_s: f64,
    /// Expected completion time under the MTBF, averaged over trials.
    pub mean_completion_s: f64,
    /// Mean failures hit per trial.
    pub mean_failures: f64,
}

/// Sweep checkpoint intervals against a machine MTBF for the LU run.
///
/// Each interval is mapped to a panel-step cadence, the checkpointed
/// run is simulated fault-free to price the checkpoints (cost comes out
/// of the mesh bandwidth model, not a hand-picked constant), and then a
/// deterministic Monte Carlo replay draws failure times from `seed` and
/// rolls the run back to its last durable checkpoint each time —
/// restart costs one checkpoint read. The resulting completion-time
/// curve has an interior minimum near [`young_optimal_interval`].
pub fn resilience_sweep(
    machine: &Machine,
    n: usize,
    nb: usize,
    mtbf_s: f64,
    intervals_s: &[f64],
    seed: u64,
    trials: usize,
) -> Vec<ResiliencePoint> {
    assert!(mtbf_s > 0.0 && trials > 0);
    let base = run_checkpointed(machine, n, nb, 0);
    let base_s = base.result.seconds;
    let steps = n.div_ceil(nb);
    let step_s = base_s / steps as f64;

    intervals_s
        .iter()
        .map(|&interval_s| {
            let every_steps = ((interval_s / step_s).round() as usize).clamp(1, steps);
            let ck = run_checkpointed(machine, n, nb, every_steps);
            let run_seconds = ck.result.seconds;
            let checkpoints = ck.ckpt_times_s.len();
            let ckpt_cost_s = if checkpoints > 0 {
                (run_seconds - base_s) / checkpoints as f64
            } else {
                0.0
            };
            // Restarting means reading the checkpoint back: same bytes,
            // same pipes, so the same cost as writing it.
            let restart_s = ckpt_cost_s;

            let mut total = 0.0f64;
            let mut failures = 0u64;
            let mut rng = Rng::new(seed ^ (every_steps as u64).wrapping_mul(0x9e37_79b9));
            for _ in 0..trials {
                let mut trial = rng.fork();
                // Progress position in the fault-free checkpointed
                // timeline; durable progress is the last checkpoint.
                let mut saved = 0.0f64;
                let mut wall = 0.0f64;
                loop {
                    let ttf = trial.exp(mtbf_s);
                    if saved + ttf >= run_seconds {
                        wall += run_seconds - saved;
                        break;
                    }
                    failures += 1;
                    wall += ttf + restart_s;
                    let failed_at = saved + ttf;
                    saved = ck
                        .ckpt_times_s
                        .iter()
                        .copied()
                        .rfind(|&c| c <= failed_at)
                        .unwrap_or(0.0);
                }
                total += wall;
            }
            ResiliencePoint {
                interval_s,
                every_steps,
                checkpoints,
                run_seconds,
                ckpt_cost_s,
                mean_completion_s: total / trials as f64,
                mean_failures: failures as f64 / trials as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_mesh::presets;

    /// The pivot allreduce is timed in the machine's switching mode:
    /// store-and-forward pays the serialisation at every hop.
    #[test]
    fn allreduce_follows_the_switching_mode() {
        let wormhole = allreduce_latency(&presets::delta(8, 8), 8, 16);
        let stored = allreduce_latency(&presets::delta_store_and_forward(8, 8), 8, 16);
        assert!(stored > wormhole, "{stored} vs {wormhole}");
    }

    #[test]
    fn grid_choice_near_square() {
        assert_eq!(choose_grid(528), (22, 24)); // nearest-square 528 grid
        assert_eq!(choose_grid(16), (4, 4));
        assert_eq!(choose_grid(13), (1, 13));
        assert_eq!(choose_grid(1), (1, 1));
    }

    /// Oracle for `local_count`: walk the blocks from `from` to `n` and
    /// add up the ones `coord` owns.
    fn local_count_walk(from: usize, n: usize, nb: usize, p: usize, coord: usize) -> usize {
        if from >= n {
            return 0;
        }
        let mut count = 0;
        let mut b = from / nb;
        loop {
            let blk_start = b * nb;
            if blk_start >= n {
                break;
            }
            if b % p == coord {
                let lo = blk_start.max(from);
                let hi = (blk_start + nb).min(n);
                count += hi - lo;
            }
            b += 1;
        }
        count
    }

    #[test]
    fn local_count_matches_the_block_walk() {
        for nb in [1, 2, 3, 7, 32, 64] {
            for p in [1, 2, 3, 5, 22] {
                for n in [0, 1, 5, 31, 32, 33, 100, 257] {
                    for from in [0, 1, 2, 13, 31, 32, 64, 99, 100, 256, 257, 300] {
                        for coord in 0..p {
                            assert_eq!(
                                local_count(from, n, nb, p, coord),
                                local_count_walk(from, n, nb, p, coord),
                                "from={from} n={n} nb={nb} p={p} coord={coord}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn local_count_partitions_everything() {
        let (n, nb, p) = (1000, 32, 7);
        for from in [0, 13, 500, 999, 1000] {
            let total: usize = (0..p).map(|c| local_count(from, n, nb, p, c)).sum();
            assert_eq!(total, n - from.min(n), "from={from}");
        }
    }

    #[test]
    fn local_count_simple_cases() {
        // n=8, nb=2, p=2: blocks 0..4 alternate owners.
        assert_eq!(local_count(0, 8, 2, 2, 0), 4);
        assert_eq!(local_count(0, 8, 2, 2, 1), 4);
        assert_eq!(local_count(2, 8, 2, 2, 0), 2);
        assert_eq!(local_count(3, 8, 2, 2, 1), 3);
    }

    #[test]
    fn efficiency_under_one_and_positive() {
        let m = Machine::new(presets::delta(4, 4));
        let r = run(&m, 2000, 64);
        assert!(r.gflops > 0.0);
        assert!(r.efficiency < 1.0, "eff {}", r.efficiency);
        assert!(r.efficiency > 0.02, "eff {}", r.efficiency);
    }

    #[test]
    fn efficiency_grows_with_problem_size() {
        let m = Machine::new(presets::delta(4, 4));
        let small = run(&m, 1000, 64);
        let large = run(&m, 4000, 64);
        assert!(
            large.efficiency > small.efficiency,
            "{} vs {}",
            large.efficiency,
            small.efficiency
        );
    }

    #[test]
    fn deterministic() {
        let m = Machine::new(presets::delta(2, 4));
        let a = run(&m, 1500, 32);
        let b = run(&m, 1500, 32);
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.report.messages, b.report.messages);
    }

    #[test]
    fn checkpoints_cost_time_and_land_in_order() {
        let m = Machine::new(presets::delta(4, 4));
        let base = run(&m, 2000, 64);
        let ck = run_checkpointed(&m, 2000, 64, 5);
        // steps = ceil(2000/64) = 32; checkpoints at k = 5,10,...,30.
        assert_eq!(ck.ckpt_times_s.len(), 6);
        assert!(ck.result.seconds > base.seconds, "checkpoints are not free");
        assert!(ck
            .ckpt_times_s
            .windows(2)
            .all(|w| w[0] < w[1] && w[1] < ck.result.seconds));
        let again = run_checkpointed(&m, 2000, 64, 5);
        assert_eq!(ck.result.report.elapsed, again.result.report.elapsed);
        assert_eq!(ck.ckpt_times_s, again.ckpt_times_s);
    }

    #[test]
    fn zero_cadence_matches_plain_run() {
        let m = Machine::new(presets::delta(2, 4));
        let plain = run(&m, 1500, 32);
        let ck = run_checkpointed(&m, 1500, 32, 0);
        assert_eq!(plain.report.elapsed, ck.result.report.elapsed);
        assert_eq!(plain.report.events, ck.result.report.events);
        assert!(ck.ckpt_times_s.is_empty());
    }

    #[test]
    fn traced_run_is_bit_identical_and_captures_the_fault() {
        use delta_mesh::FaultKind;
        use des::time::SimTime;
        use hpcc_trace::{Event, MemRecorder};
        let m = Machine::new(presets::delta(2, 4));
        // A transient outage + a slow node: the run degrades but finishes.
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_secs_f64(0.01),
            FaultKind::LinkDown {
                link: 0,
                until: SimTime::from_secs_f64(0.05),
            },
        );
        plan.push(
            SimTime::from_secs_f64(0.02),
            FaultKind::NodeSlow {
                node: 3,
                factor: 4.0,
                until: SimTime::from_secs_f64(0.2),
            },
        );
        let silent = run_traced(&m, 1500, 32, &plan, Rc::new(NullRecorder));
        let rec = Rc::new(MemRecorder::new());
        let traced = run_traced(&m, 1500, 32, &plan, Rc::clone(&rec) as Rc<dyn Recorder>);
        assert_eq!(
            silent.result.report.elapsed, traced.result.report.elapsed,
            "recording must not perturb the faulted run"
        );
        assert_eq!(silent.result.report.events, traced.result.report.events);
        assert!(!rec.is_empty());
        let (mut computes, mut faults) = (0usize, 0usize);
        rec.with(|_, events| {
            for e in events {
                match e {
                    Event::Span { cat, .. } if *cat == "compute" => computes += 1,
                    Event::Instant { cat, .. } if *cat == "fault" => faults += 1,
                    _ => {}
                }
            }
        });
        assert!(computes > 0, "kernel compute spans recorded");
        assert!(faults >= 2, "down + slowdown instants recorded");
        // Fault-free traced run reproduces the plain model exactly.
        let plain = run(&m, 1500, 32);
        let clean = run_traced(&m, 1500, 32, &FaultPlan::none(), Rc::new(NullRecorder));
        assert_eq!(plain.report.elapsed, clean.result.report.elapsed);
    }

    #[test]
    fn young_interval_shape() {
        assert_eq!(
            young_optimal_interval(7200.0, 50.0),
            (2.0f64 * 7200.0 * 50.0).sqrt()
        );
        assert!(young_optimal_interval(3600.0, 10.0) < young_optimal_interval(3600.0, 40.0));
    }

    #[test]
    fn sweep_replays_from_seed_and_faults_cost_time() {
        let m = Machine::new(presets::delta(2, 4));
        let intervals = [5.0, 20.0, 80.0];
        let a = resilience_sweep(&m, 1500, 32, 60.0, &intervals, 42, 16);
        let b = resilience_sweep(&m, 1500, 32, 60.0, &intervals, 42, 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_completion_s, y.mean_completion_s);
            assert_eq!(x.mean_failures, y.mean_failures);
        }
        for p in &a {
            assert!(p.mean_completion_s >= p.run_seconds);
            assert!(p.checkpoints == 0 || p.ckpt_cost_s > 0.0);
        }
        assert!(
            a.iter().any(|p| p.checkpoints > 0),
            "at least one interval fits inside the run"
        );
    }
}
