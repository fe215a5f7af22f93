//! Space-sharing batch scheduler for the Delta: consortium jobs queue
//! for rectangular sub-meshes; FCFS with optional aggressive backfill.
//!
//! This is the operational side of the "ACQUIRE AND UTILIZE" exhibit —
//! 14 partner organisations sharing 528 nodes. The simulation is
//! event-driven on the `des` calendar and reports the metrics the
//! consortium's operators cared about: utilisation, wait times, and
//! fragmentation refusals.

pub mod service;

use crate::partition::{MeshSpace, SubMesh};
use des::faults::FaultPlan;
use des::queue::EventQueue;
use des::rng::Rng;
use des::stats::Summary;
use des::time::{Dur, SimTime};
use hpcc_trace::{names, NullRecorder, Recorder, TrackId};

/// One batch job: a sub-mesh shape held for a duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub id: usize,
    /// Requested shape (rows, cols).
    pub shape: (usize, usize),
    pub runtime: Dur,
    pub arrival: SimTime,
    /// Submitting partner (index into a roster), for per-partner stats.
    pub partner: usize,
}

impl Job {
    pub fn nodes(&self) -> usize {
        self.shape.0 * self.shape.1
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict FCFS: the queue head blocks everyone behind it.
    Fcfs,
    /// Aggressive backfill: any queued job that fits right now may start.
    Backfill,
}

/// A placement that was killed mid-run by a node failure; the job was
/// re-queued afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KilledAttempt {
    pub started: SimTime,
    pub killed: SimTime,
    pub placement: SubMesh,
}

/// Completed-run record. `started`/`finished`/`placement` describe the
/// attempt that ran to completion; `attempts` lists every earlier
/// placement a node failure killed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub job: Job,
    /// Killed-and-requeued placements, in order, before the one that ran.
    pub attempts: Vec<KilledAttempt>,
    pub started: SimTime,
    pub finished: SimTime,
    pub placement: SubMesh,
}

impl JobRecord {
    /// Queue wait before the successful attempt (re-queue time included).
    pub fn wait(&self) -> Dur {
        self.started - self.job.arrival
    }
}

/// Aggregate outcome of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedReport {
    pub policy: Policy,
    /// Jobs that ran to completion.
    pub jobs: usize,
    pub makespan: Dur,
    /// Busy node-time over total node-time until makespan.
    pub utilization: f64,
    pub mean_wait: Dur,
    pub max_wait: Dur,
    /// Placement attempts refused despite sufficient free nodes.
    pub fragmentation_refusals: u64,
    /// Placements killed by node failures (then re-queued).
    pub jobs_killed: u64,
    /// Nodes permanently retired by failures during the run.
    pub nodes_failed: usize,
    /// Partial work thrown away by kills, as a fraction of total
    /// node-time — utilization the faults ate.
    pub utilization_lost_to_faults: f64,
    /// Ids of jobs whose shape no longer fits the surviving mesh.
    pub unrunnable: Vec<usize>,
    pub records: Vec<JobRecord>,
}

enum Ev {
    Arrive(usize),
    /// Job index + attempt number; stale attempts (killed placements)
    /// are ignored when they fire.
    Finish(usize, u32),
    /// Permanent failure of a node (row-major id).
    Fault(usize),
}

/// A placement currently on the machine.
struct Running {
    idx: usize,
    attempt: u32,
    started: SimTime,
    placement: SubMesh,
}

/// Run the scheduler over a job batch on an `rows × cols` mesh.
pub fn run(rows: usize, cols: usize, jobs: Vec<Job>, policy: Policy) -> SchedReport {
    run_with_faults(rows, cols, jobs, policy, &FaultPlan::none())
}

/// Run the scheduler under a [`FaultPlan`]. Only `NodeCrash` events
/// matter at this level: the failed node is retired from the allocator,
/// the job holding it (if any) is killed and re-queued, and jobs whose
/// shape no longer fits the surviving mesh are reported unrunnable
/// instead of blocking the queue forever.
pub fn run_with_faults(
    rows: usize,
    cols: usize,
    jobs: Vec<Job>,
    policy: Policy,
    plan: &FaultPlan,
) -> SchedReport {
    run_recorded(rows, cols, jobs, policy, plan, &NullRecorder)
}

/// Run the scheduler with a trace recorder attached. Each job gets a
/// track carrying its queue-wait, run, and killed-attempt spans; a
/// "queue" track samples queued/running job counts after every event.
/// The recorder observes timestamps the scheduler already computed —
/// [`run_with_faults`] routes through here with a [`NullRecorder`] and
/// is bit-identical.
pub fn run_recorded(
    rows: usize,
    cols: usize,
    mut jobs: Vec<Job>,
    policy: Policy,
    plan: &FaultPlan,
    rec: &dyn Recorder,
) -> SchedReport {
    jobs.sort_by_key(|j| (j.arrival, j.id));
    let rec_on = rec.is_enabled();
    let job_track: Vec<TrackId> = if rec_on {
        jobs.iter()
            .map(|j| rec.track(names::SCHED, &format!("job {}", j.id)))
            .collect()
    } else {
        Vec::new()
    };
    let queue_track = if rec_on {
        rec.track(names::SCHED, "queue")
    } else {
        0
    };
    let mut space = MeshSpace::new(rows, cols);
    let mut q: EventQueue<Ev> = EventQueue::new();
    for (i, j) in jobs.iter().enumerate() {
        q.schedule(j.arrival, Ev::Arrive(i));
    }
    for (at, node) in plan.node_crashes() {
        assert!(node < rows * cols, "fault plan targets node {node}");
        q.schedule(at, Ev::Fault(node));
    }
    let mut queue: Vec<usize> = Vec::new(); // waiting job indices, FCFS order
    let mut records: Vec<Option<JobRecord>> = jobs.iter().map(|_| None).collect();
    let mut killed: Vec<Vec<KilledAttempt>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut attempt_of: Vec<u32> = vec![0; jobs.len()];
    let mut running: Vec<Running> = Vec::new();
    let mut unrunnable: Vec<usize> = Vec::new();
    let mut frag = 0u64;
    let mut jobs_killed = 0u64;
    let mut busy_node_time = 0.0f64;
    let mut lost_node_time = 0.0f64;
    let mut makespan = Dur::ZERO;

    // Try to start queued jobs under the policy.
    let try_start = |space: &mut MeshSpace,
                     queue: &mut Vec<usize>,
                     jobs: &[Job],
                     q: &mut EventQueue<Ev>,
                     running: &mut Vec<Running>,
                     attempt_of: &[u32],
                     frag: &mut u64,
                     killed: &[Vec<KilledAttempt>],
                     policy: Policy| {
        let now = q.now();
        let mut i = 0;
        while i < queue.len() {
            let idx = queue[i];
            let (r, c) = jobs[idx].shape;
            match space.allocate(r, c) {
                Some(sm) => {
                    queue.remove(i);
                    q.schedule(now + jobs[idx].runtime, Ev::Finish(idx, attempt_of[idx]));
                    running.push(Running {
                        idx,
                        attempt: attempt_of[idx],
                        started: now,
                        placement: sm,
                    });
                    if rec_on {
                        // Queue wait for this attempt: since arrival, or
                        // since the kill that re-queued it.
                        let since = killed[idx]
                            .last()
                            .map(|k| k.killed)
                            .unwrap_or(jobs[idx].arrival);
                        rec.span(job_track[idx], "wait", "queued", since.nanos(), now.nanos());
                    }
                    // Restart the scan: freeing order may let earlier
                    // queue entries in — but FCFS order is preserved
                    // because we always scan from the front.
                    i = 0;
                }
                None => {
                    // Refused: external fragmentation exactly when enough
                    // nodes are free in total.
                    if space.free_nodes() >= r * c {
                        *frag += 1;
                    }
                    match policy {
                        Policy::Fcfs => break, // head of queue blocks
                        Policy::Backfill => i += 1,
                    }
                }
            }
        }
    };

    loop {
        while let Some((_, ev)) = q.pop() {
            let now = q.now();
            match ev {
                Ev::Arrive(i) => {
                    queue.push(i);
                }
                Ev::Finish(i, attempt) => {
                    if attempt != attempt_of[i] {
                        // The placement this Finish belongs to was killed.
                        continue;
                    }
                    let pos = running
                        .iter()
                        .position(|r| r.idx == i && r.attempt == attempt)
                        .expect("finishing job is running");
                    let entry = running.swap_remove(pos);
                    busy_node_time += jobs[i].nodes() as f64 * jobs[i].runtime.as_secs_f64();
                    makespan = makespan.max(now - SimTime::ZERO);
                    space.free(entry.placement);
                    if rec_on {
                        let (r, c) = jobs[i].shape;
                        rec.span(
                            job_track[i],
                            "run",
                            &format!("{r}x{c}"),
                            entry.started.nanos(),
                            now.nanos(),
                        );
                    }
                    records[i] = Some(JobRecord {
                        job: jobs[i].clone(),
                        attempts: std::mem::take(&mut killed[i]),
                        started: entry.started,
                        finished: now,
                        placement: entry.placement,
                    });
                }
                Ev::Fault(node) => {
                    let victim = space.allocation_containing(node);
                    space.fail_node(node);
                    makespan = makespan.max(now - SimTime::ZERO);
                    if let Some(sm) = victim {
                        let pos = running
                            .iter()
                            .position(|r| r.placement == sm)
                            .expect("allocated sub-mesh has a running job");
                        let entry = running.swap_remove(pos);
                        // Partial work is lost; the sub-mesh is drained
                        // and the job resubmitted at the back of the
                        // queue (a fresh submission at kill time).
                        lost_node_time +=
                            jobs[entry.idx].nodes() as f64 * (now - entry.started).as_secs_f64();
                        killed[entry.idx].push(KilledAttempt {
                            started: entry.started,
                            killed: now,
                            placement: sm,
                        });
                        attempt_of[entry.idx] += 1;
                        jobs_killed += 1;
                        space.free(sm);
                        queue.push(entry.idx);
                        if rec_on {
                            rec.span(
                                job_track[entry.idx],
                                "killed",
                                "killed attempt",
                                entry.started.nanos(),
                                now.nanos(),
                            );
                            rec.instant(job_track[entry.idx], "fault", "killed", now.nanos());
                        }
                    }
                    if rec_on {
                        rec.instant(queue_track, "fault", "node_fault", now.nanos());
                    }
                }
            }
            try_start(
                &mut space,
                &mut queue,
                &jobs,
                &mut q,
                &mut running,
                &attempt_of,
                &mut frag,
                &killed,
                policy,
            );
            if rec_on {
                rec.counter(queue_track, "queued_jobs", now.nanos(), queue.len() as f64);
                rec.counter(
                    queue_track,
                    "running_jobs",
                    now.nanos(),
                    running.len() as f64,
                );
            }
        }
        // The calendar drained. Fault-free, an empty queue is an
        // invariant; under faults, jobs whose shape no longer fits the
        // surviving mesh are reported and removed so FCFS heads cannot
        // block runnable work behind them forever.
        if plan.is_empty() {
            assert!(queue.is_empty(), "all jobs must eventually run");
        }
        if queue.is_empty() {
            break;
        }
        debug_assert!(running.is_empty() && space.allocations().is_empty());
        queue.retain(|&idx| {
            let (r, c) = jobs[idx].shape;
            let fits = space.can_allocate(r, c);
            if !fits {
                unrunnable.push(jobs[idx].id);
                if rec_on {
                    rec.instant(job_track[idx], "fault", "unrunnable", q.now().nanos());
                }
            }
            fits
        });
        if queue.is_empty() {
            break;
        }
        try_start(
            &mut space,
            &mut queue,
            &jobs,
            &mut q,
            &mut running,
            &attempt_of,
            &mut frag,
            &killed,
            policy,
        );
    }

    let records: Vec<JobRecord> = records.into_iter().flatten().collect();
    let mut waits = Summary::new();
    let mut max_wait = Dur::ZERO;
    for r in &records {
        waits.add_dur(r.wait());
        max_wait = max_wait.max(r.wait());
    }
    let total_node_time = (rows * cols) as f64 * makespan.as_secs_f64();
    let frac = |num: f64| {
        if total_node_time > 0.0 {
            num / total_node_time
        } else {
            0.0
        }
    };
    SchedReport {
        policy,
        jobs: records.len(),
        makespan,
        utilization: frac(busy_node_time),
        mean_wait: Dur::from_secs_f64(waits.mean()),
        max_wait,
        fragmentation_refusals: frag,
        jobs_killed,
        nodes_failed: space.failed_nodes(),
        utilization_lost_to_faults: frac(lost_node_time),
        unrunnable,
        records,
    }
}

/// A consortium-style workload: `n` jobs from `partners` submitters,
/// Poisson arrivals, power-of-two-ish shapes, log-normal runtimes.
pub fn consortium_workload(
    n: usize,
    partners: usize,
    mean_interarrival_s: f64,
    seed: u64,
) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let shapes: [(usize, usize); 8] = [
        (1, 1),
        (2, 2),
        (2, 4),
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
        (16, 16),
    ];
    let mut t = 0.0;
    (0..n)
        .map(|id| {
            t += rng.exp(mean_interarrival_s);
            let shape = *rng.choose(&shapes);
            // Log-normal-ish runtimes: median ~10 min, heavy tail.
            let runtime = 600.0 * rng.normal(0.0, 1.0).exp();
            Job {
                id,
                shape,
                runtime: Dur::from_secs_f64(runtime.clamp(30.0, 6.0 * 3600.0)),
                arrival: SimTime::from_secs_f64(t),
                partner: rng.below(partners as u64) as usize,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, shape: (usize, usize), run_s: u64, arrive_s: u64) -> Job {
        Job {
            id,
            shape,
            runtime: Dur::from_secs(run_s),
            arrival: SimTime(arrive_s * 1_000_000_000),
            partner: 0,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let r = run(4, 4, vec![job(0, (2, 2), 100, 5)], Policy::Fcfs);
        assert_eq!(r.jobs, 1);
        assert_eq!(r.records[0].wait(), Dur::ZERO);
        assert_eq!(r.makespan, Dur::from_secs(105));
        // 4 nodes busy 100 s over 16 nodes × 105 s.
        assert!((r.utilization - 400.0 / 1680.0).abs() < 1e-9);
    }

    #[test]
    fn fcfs_blocks_behind_big_job() {
        // Big job takes the whole machine; a tiny job behind it waits
        // even though nothing else is running when it arrives.
        let jobs = vec![
            job(0, (4, 4), 1000, 0),
            job(1, (4, 4), 1000, 1), // queued: machine full
            job(2, (1, 1), 10, 2),   // FCFS: must wait behind job 1
        ];
        let r = run(4, 4, jobs.clone(), Policy::Fcfs);
        let t2 = r.records[2].started;
        assert!(t2 >= SimTime::from_secs_f64(1000.0), "tiny job waited");

        // Backfill lets the tiny job skip ahead... but the machine is
        // completely full, so it still waits for job 0 to finish; then
        // it backfills alongside job 1? No — job 1 takes the whole mesh.
        // Shrink job 1 so there is room to backfill next to it.
        let jobs = vec![
            job(0, (4, 4), 1000, 0),
            job(1, (4, 2), 1000, 1),
            job(2, (1, 1), 10, 2),
        ];
        let fcfs = run(4, 4, jobs.clone(), Policy::Fcfs);
        let bf = run(4, 4, jobs, Policy::Backfill);
        assert_eq!(
            bf.records[2].started, bf.records[1].started,
            "backfilled next to job 1"
        );
        assert!(bf.records[2].started <= fcfs.records[2].started);
    }

    #[test]
    fn no_overlap_ever() {
        let jobs = consortium_workload(120, 14, 120.0, 9);
        let r = run(16, 33, jobs, Policy::Backfill);
        // Any two time-overlapping placements must be disjoint in space.
        for (i, a) in r.records.iter().enumerate() {
            for b in &r.records[i + 1..] {
                let time_overlap = a.started < b.finished && b.started < a.finished;
                if time_overlap {
                    assert!(
                        !a.placement.overlaps(&b.placement),
                        "jobs {} and {} overlap in space and time",
                        a.job.id,
                        b.job.id
                    );
                }
            }
        }
    }

    #[test]
    fn backfill_beats_fcfs_on_utilization() {
        let jobs = consortium_workload(200, 14, 60.0, 4);
        let fcfs = run(16, 33, jobs.clone(), Policy::Fcfs);
        let bf = run(16, 33, jobs, Policy::Backfill);
        assert!(
            bf.utilization >= fcfs.utilization,
            "backfill {} vs fcfs {}",
            bf.utilization,
            fcfs.utilization
        );
        assert!(bf.mean_wait <= fcfs.mean_wait);
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let a = consortium_workload(50, 14, 300.0, 7);
        let b = consortium_workload(50, 14, 300.0, 7);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.shape, y.shape);
        }
        assert!(a.iter().all(|j| j.nodes() <= 256));
        assert!(a.iter().all(|j| j.partner < 14));
    }

    #[test]
    fn utilization_bounded() {
        let jobs = consortium_workload(80, 14, 30.0, 11);
        for policy in [Policy::Fcfs, Policy::Backfill] {
            let r = run(16, 33, jobs.clone(), policy);
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
            assert_eq!(r.jobs, 80);
        }
    }

    #[test]
    fn zero_fault_plan_matches_plain_run() {
        let jobs = consortium_workload(40, 14, 60.0, 3);
        for policy in [Policy::Fcfs, Policy::Backfill] {
            let a = run(16, 33, jobs.clone(), policy);
            let b = run_with_faults(16, 33, jobs.clone(), policy, &FaultPlan::none());
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.mean_wait, b.mean_wait);
            assert_eq!(a.fragmentation_refusals, b.fragmentation_refusals);
            assert_eq!(b.jobs_killed, 0);
            assert_eq!(b.utilization_lost_to_faults, 0.0);
            assert!(b.unrunnable.is_empty());
        }
    }

    #[test]
    fn crash_kills_and_requeues_the_job() {
        use des::faults::FaultKind;
        // One 4x4 job holding the whole machine; node 5 dies at t=40 s.
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime(40 * 1_000_000_000),
            FaultKind::NodeCrash { node: 5 },
        );
        let r = run_with_faults(4, 4, vec![job(0, (2, 2), 100, 0)], Policy::Fcfs, &plan);
        assert_eq!(r.jobs_killed, 1);
        assert_eq!(r.nodes_failed, 1);
        assert_eq!(r.jobs, 1, "job re-ran after the kill");
        let rec = &r.records[0];
        assert_eq!(rec.attempts.len(), 1, "killed and re-queued once");
        assert_eq!(rec.attempts[0].killed, SimTime(40 * 1_000_000_000));
        assert_eq!(
            rec.finished,
            SimTime(140 * 1_000_000_000),
            "restarted at 40 s"
        );
        assert!(r.utilization_lost_to_faults > 0.0);
        // 40 s of 4 nodes thrown away over 16 nodes × 140 s.
        assert!((r.utilization_lost_to_faults - 160.0 / 2240.0).abs() < 1e-9);
    }

    #[test]
    fn unrunnable_jobs_are_reported_not_deadlocked() {
        use des::faults::FaultKind;
        // 2x2 machine; a node dies before the full-machine job can start,
        // so its 2x2 frame never fits again — but the 1x1 behind it runs.
        let mut plan = FaultPlan::none();
        plan.push(SimTime(1_000_000_000), FaultKind::NodeCrash { node: 0 });
        let jobs = vec![job(0, (2, 2), 10, 2), job(1, (1, 1), 5, 3)];
        let r = run_with_faults(2, 2, jobs, Policy::Fcfs, &plan);
        assert_eq!(r.unrunnable, vec![0]);
        assert_eq!(r.jobs, 1);
        assert_eq!(r.records[0].job.id, 1);
    }

    #[test]
    fn recorded_schedule_is_bit_identical_and_emits_job_spans() {
        use des::faults::FaultKind;
        use hpcc_trace::{Event, MemRecorder};
        let jobs = consortium_workload(40, 14, 45.0, 5);
        let plan = FaultPlan::seeded(4, Dur::from_secs(3_000), 16 * 33, Dur::from_secs(6_000));
        let plain = run_with_faults(16, 33, jobs.clone(), Policy::Backfill, &plan);
        let rec = MemRecorder::new();
        let traced = run_recorded(16, 33, jobs.clone(), Policy::Backfill, &plan, &rec);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.utilization, traced.utilization);
        assert_eq!(plain.mean_wait, traced.mean_wait);
        assert_eq!(plain.jobs_killed, traced.jobs_killed);
        assert_eq!(plain.unrunnable, traced.unrunnable);
        // Every completed job has exactly one run span and at least one
        // wait span; kill spans match the kill count.
        let (mut runs, mut waits, mut kills) = (0usize, 0usize, 0usize);
        rec.with(|_, events| {
            for e in events {
                if let Event::Span { cat, .. } = e {
                    match *cat {
                        "run" => runs += 1,
                        "wait" => waits += 1,
                        "killed" => kills += 1,
                        _ => {}
                    }
                }
            }
        });
        assert_eq!(runs, traced.jobs);
        assert!(waits >= traced.jobs);
        assert_eq!(kills as u64, traced.jobs_killed);
        // A crash that kills nothing still records the node fault instant.
        let mut tiny = FaultPlan::none();
        tiny.push(SimTime(1_000_000_000), FaultKind::NodeCrash { node: 0 });
        let rec2 = MemRecorder::new();
        let _ = run_recorded(4, 4, vec![], Policy::Fcfs, &tiny, &rec2);
        rec2.with(|_, events| {
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Instant { name, .. } if name == "node_fault")));
        });
    }

    #[test]
    fn faulty_run_replays_bit_identically_and_loses_utilization() {
        let jobs = consortium_workload(60, 14, 30.0, 11);
        let mk = || {
            let plan = FaultPlan::seeded(9, Dur::from_secs(4_000), 16 * 33, Dur::from_secs(8_000));
            run_with_faults(16, 33, jobs.clone(), Policy::Backfill, &plan)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.jobs_killed, b.jobs_killed);
        assert_eq!(a.unrunnable, b.unrunnable);
        assert!(a.jobs_killed > 0, "MTBF plan produced kills");
        let clean = run(16, 33, jobs.clone(), Policy::Backfill);
        assert!(
            a.utilization < clean.utilization,
            "faults must cost utilization: {} vs {}",
            a.utilization,
            clean.utilization
        );
    }
}
