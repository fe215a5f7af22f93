//! Property tests for the scheduler service.
//!
//! Four families of invariants:
//!
//! 1. **Batch equivalence.** With no bounds and no faults, the service
//!    must replay the batch scheduler's schedule bit-for-bit — same
//!    starts, finishes, and placements — across random under-capacity
//!    workloads and both policies.
//! 2. **Conservation.** Under random fault plans, bounded queues, and
//!    finite quotas: every submission reaches exactly one terminal
//!    state, the terminal counts sum to the submission count, and the
//!    integer node-time ledger balances exactly
//!    (`useful + lost + dead + idle == total`, in `u128` node-ns). The
//!    event count keeps its ledger (`ServiceReport::events`) and the
//!    pending queue its bound (`pending_cap + nodes_failed`).
//! 3. **Replay.** The same `(trace, config, plan)` triple reproduces the
//!    same report, bit for bit, retries and jitter included.
//! 4. **Tie order.** The service takes arrivals from a cursor beside the
//!    calendar, an arrival winning every timestamp tie. On traces whose
//!    times are all multiples of one grain — so arrivals collide with
//!    finishes, faults and quota updates at nearly every event — the
//!    batch scheduler, which still pre-loads arrivals into its heap, is
//!    the independent oracle for that rule.
//!
//! Each property is a plain loop over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it. The two batch differentials run
//! 400 cases each; the rest run 10.

use delta_mesh::sched::service::{
    self, assert_batch_equivalent, service_workload, Outcome, ServiceConfig, ServiceReport,
    ServiceTrace,
};
use delta_mesh::Policy;
use des::faults::{FaultKind, FaultPlan};
use des::rng::Rng;
use des::time::{Dur, SimTime};

/// `service_workload` with every arrival and runtime rounded up to a
/// whole multiple of `grain_s` seconds, so timestamps collide constantly.
fn quantized_workload(n: usize, tenants: usize, seed: u64, grain_s: u64) -> ServiceTrace {
    let mut tr = service_workload(n, tenants, 0.7, 16, 33, seed);
    let grain = grain_s * 1_000_000_000;
    for s in &mut tr.subs {
        s.arrival = SimTime(s.arrival.nanos().div_ceil(grain) * grain);
        s.runtime = Dur(s.runtime.nanos().div_ceil(grain).max(1) * grain);
    }
    tr
}

/// A service config with every production limit engaged, derived from
/// the case seed so cap/quota corners all get visited.
fn bounded_config(knobs: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(16, 33);
    cfg.pending_cap = [64usize, 256, 1024][(knobs % 3) as usize];
    cfg.quota_default = [32usize, 128, usize::MAX][((knobs / 3) % 3) as usize];
    cfg
}

/// What `ServiceReport::events` must read: one Arrive per submission,
/// one Finish per placement (completed or killed), one Retry per retry,
/// and every crash and quota update the inputs put on the calendar.
fn event_ledger(r: &ServiceReport, tr: &ServiceTrace, plan: &FaultPlan) -> u64 {
    let inputs = plan.node_crashes().count() + tr.quota_updates.len();
    (r.submitted + r.completed + inputs) as u64 + r.jobs_killed + r.retries
}

/// Under-capacity, zero-fault, no-limit service runs replay the batch
/// scheduler bit-for-bit under both policies (400 cases).
#[test]
fn service_matches_batch_bit_for_bit() {
    for case in 0..400 {
        let mut rng = Rng::new(0x5E2B_0001 ^ case);
        let n = rng.range_u64(50, 299) as usize;
        let tenants = rng.range_u64(2, 29) as usize;
        let seed = rng.below(10_000);
        println!("case {case}: n {n} tenants {tenants} seed {seed}");
        let tr = service_workload(n, tenants, 0.7, 16, 33, seed);
        assert_batch_equivalent(&tr, 16, 33, Policy::Fcfs);
        assert_batch_equivalent(&tr, 16, 33, Policy::Backfill);
    }
}

/// Job accounting conserves: exactly one terminal state per submission,
/// terminal counts sum to the submission count, and the node-time
/// identity holds exactly under random fault plans (10 cases).
#[test]
fn conservation_under_faults_and_limits() {
    let mut retries = 0;
    for case in 0..10 {
        let mut rng = Rng::new(0xC025_0002 ^ case);
        let n = rng.range_u64(200, 1_999) as usize;
        let load_pct = rng.range_u64(40, 249);
        let seed = rng.below(10_000);
        let fault_seed = rng.below(10_000);
        println!("case {case}: n {n} load_pct {load_pct} seed {seed} fault_seed {fault_seed}");
        let tr = service_workload(n, 24, load_pct as f64 / 100.0, 16, 33, seed);
        let cfg = bounded_config(seed ^ load_pct);
        let plan = FaultPlan::seeded(
            fault_seed,
            Dur::from_secs(60_000),
            16 * 33,
            Dur::from_secs(100_000),
        );
        let r = service::run_with_faults(&tr, &cfg, &plan);

        // Exactly one terminal state each (run_with_faults panics on a
        // missing or doubled state; here we re-check the counts agree).
        assert_eq!(r.outcomes.len(), n);
        assert_eq!(r.submitted, n);
        let completed = r
            .outcomes
            .iter()
            .filter(|o| **o == Outcome::Completed)
            .count();
        let failed = r.outcomes.iter().filter(|o| **o == Outcome::Failed).count();
        let rejected = r
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Rejected(_)))
            .count();
        assert_eq!(completed + failed + rejected, n);
        assert_eq!(completed, r.completed);
        assert_eq!(failed, r.failed);
        assert_eq!(rejected as u64, r.rejected_total());

        // Admission holds the pending queue at its cap; only retries of
        // killed jobs, at most one per failed node, re-enter past it.
        assert!(r.max_pending <= cfg.pending_cap.saturating_add(r.nodes_failed));
        assert_eq!(r.events, event_ledger(&r, &tr, &plan));

        // Node-time identity, exactly: busy + idle + dead == total, and
        // total is nodes x span to the nanosecond.
        assert!(r.node_time.balanced());
        let span_ns = (r.span.nanos()) as u128;
        assert_eq!(r.node_time.total, (16u128 * 33) * span_ns);

        // Useful node-time is exactly the work of the completed jobs.
        let expect_useful: u128 = tr
            .subs
            .iter()
            .filter(|s| r.outcomes[s.id] == Outcome::Completed)
            .map(|s| (s.nodes() as u128) * (s.runtime.nanos() as u128))
            .sum();
        assert_eq!(r.node_time.useful, expect_useful);
        retries += r.retries;
    }
    assert!(retries > 0, "the cases retried {retries} killed jobs");
}

/// Whole-grain traces replay the batch scheduler bit-for-bit: the
/// arrival cursor breaks timestamp ties the way the pre-loaded heap
/// does (400 cases).
#[test]
fn tied_timestamps_match_batch_bit_for_bit() {
    for case in 0..400 {
        let mut rng = Rng::new(0x71ED_0003 ^ case);
        let n = rng.range_u64(50, 299) as usize;
        let tenants = rng.range_u64(2, 29) as usize;
        let seed = rng.below(10_000);
        let grain_s = rng.range_u64(1, 39);
        println!("case {case}: n {n} tenants {tenants} seed {seed} grain_s {grain_s}");
        let tr = quantized_workload(n, tenants, seed, grain_s);
        let ties = tr
            .subs
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert!(grain_s < 5 || ties > 0, "grain {grain_s} s: no ties");
        assert_batch_equivalent(&tr, 16, 33, Policy::Fcfs);
        assert_batch_equivalent(&tr, 16, 33, Policy::Backfill);
    }
}

/// With faults and quota updates all landing on the same grain, the
/// report does not depend on how the trace was laid out: submissions and
/// quota updates pre-sorted or shuffled (10 cases).
#[test]
fn tied_timestamps_ignore_trace_layout() {
    for case in 0..10 {
        let mut rng = Rng::new(0x71ED_0004 ^ case);
        let n = rng.range_u64(100, 599) as usize;
        let seed = rng.below(10_000);
        let grain_s = rng.range_u64(1, 39);
        println!("case {case}: n {n} seed {seed} grain_s {grain_s}");
        let grain = grain_s * 1_000_000_000;
        let mut sorted = quantized_workload(n, 12, seed, grain_s);
        let last = sorted.subs.last().unwrap().arrival.nanos() / grain;
        let mut plan = FaultPlan::none();
        for _ in 0..8 {
            let node = rng.below(16 * 33) as usize;
            plan.push(
                SimTime(rng.below(last + 1) * grain),
                FaultKind::NodeCrash { node },
            );
        }
        for _ in 0..12 {
            let quota = [16usize, 64, 256, usize::MAX][rng.below(4) as usize];
            let at = SimTime(rng.below(last + 1) * grain);
            sorted
                .quota_updates
                .push((at, rng.below(12) as usize, quota));
        }
        // Two updates of one tenant at one instant apply in trace order;
        // keep one so the layouts describe the same stream.
        let updates = &mut sorted.quota_updates;
        updates.sort_by_key(|&(at, tenant, _)| (at, tenant));
        updates.dedup_by_key(|&mut (at, tenant, _)| (at, tenant));
        let mut shuffled = sorted.clone();
        rng.shuffle(&mut shuffled.subs);
        rng.shuffle(&mut shuffled.quota_updates);

        let mut cfg = bounded_config(seed);
        cfg.keep_records = true;
        let a = service::run_with_faults(&sorted, &cfg, &plan);
        let b = service::run_with_faults(&shuffled, &cfg, &plan);
        assert_eq!(&a.outcomes, &b.outcomes);
        assert_eq!(&a.records, &b.records);
        assert_eq!(a.node_time, b.node_time);
        assert_eq!(
            (
                a.events,
                a.makespan,
                a.span,
                a.shed,
                a.quota_rejects,
                a.unrunnable
            ),
            (
                b.events,
                b.makespan,
                b.span,
                b.shed,
                b.quota_rejects,
                b.unrunnable
            )
        );
        assert_eq!(
            (a.retries, a.jobs_killed, a.nodes_failed, a.max_pending),
            (b.retries, b.jobs_killed, b.nodes_failed, b.max_pending)
        );
        assert_eq!(a.events, event_ledger(&a, &sorted, &plan));
        assert_eq!(
            (a.mean_wait, a.p99_wait, a.max_wait),
            (b.mean_wait, b.p99_wait, b.max_wait)
        );
    }
}

/// Same inputs, same report — bit for bit, jittered retries and all
/// (10 cases).
#[test]
fn service_replays_bit_identically() {
    let mut retries = 0;
    for case in 0..10 {
        let mut rng = Rng::new(0x2E91_0005 ^ case);
        let n = rng.range_u64(200, 999) as usize;
        let seed = rng.below(10_000);
        let fault_seed = rng.below(10_000);
        println!("case {case}: n {n} seed {seed} fault_seed {fault_seed}");
        let tr = service_workload(n, 16, 1.3, 16, 33, seed);
        let cfg = bounded_config(seed);
        let plan = FaultPlan::seeded(
            fault_seed,
            Dur::from_secs(40_000),
            16 * 33,
            Dur::from_secs(80_000),
        );
        let a = service::run_with_faults(&tr, &cfg, &plan);
        let b = service::run_with_faults(&tr, &cfg, &plan);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.span, b.span);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.jobs_killed, b.jobs_killed);
        assert_eq!(a.node_time, b.node_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events, event_ledger(&a, &tr, &plan));
        retries += a.retries;
    }
    assert!(retries > 0, "the cases retried {retries} killed jobs");
}
