//! Deterministic fault-injection plans.
//!
//! The machines the paper funds were famously unreliable — a 528-node
//! Touchstone Delta had a machine-level MTBF measured in hours — so the
//! simulators accept a [`FaultPlan`]: a time-ordered script of node
//! crashes, node slowdowns, and link outages to inject at simulated
//! times. Plans are either written explicitly (scripted, any mix of the
//! three kinds) or drawn by [`FaultPlan::seeded`]: permanent node
//! crashes at one per-node MTBF, exponential (memoryless) times to
//! failure. In both cases the plan is a plain sorted `Vec` computed up
//! front, so any run is bit-identically replayable from
//! `(seed, mtbf, nodes, horizon)` or from the script.
//!
//! The taxonomy:
//! * **NodeCrash** — permanent fail-stop; the node's program is aborted.
//! * **NodeSlow** — transient thermal/ECC-retry degradation; compute on
//!   the node is scaled by `factor` until `until`.
//! * **LinkDown** — the link carries no traffic until `until`. A *flap*
//!   is simply a `LinkDown` with a short repair window.
//!
//! An empty plan injects nothing and schedules nothing, which is what
//! guarantees zero-fault runs stay bit-identical to the pre-fault
//! simulator (same event calendar, same tie-break sequence numbers).

use crate::rng::Rng;
use crate::time::{Dur, SimTime};
use std::fmt;

/// One kind of injected hardware fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanent fail-stop failure of `node`.
    NodeCrash { node: usize },
    /// `node` computes `factor`× slower until `until`.
    NodeSlow {
        node: usize,
        factor: f64,
        until: SimTime,
    },
    /// Link `link` carries no traffic until `until`.
    LinkDown { link: usize, until: SimTime },
}

/// A fault occurring at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// A time-ordered script of faults to inject into one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, schedules nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Build a plan from explicit events (any order; sorted internally).
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Append one scripted event, keeping the plan time-ordered.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// Permanent crashes of `nodes` nodes over `[0, horizon)`, each
    /// node's time to failure drawn from an exponential of mean
    /// `node_mtbf` (at most one crash a node: fail-stop). Fully
    /// determined by the arguments: node `i` draws from the `i`-th fork
    /// of `Rng::new(seed)`, so the same call always yields the same plan.
    pub fn seeded(seed: u64, node_mtbf: Dur, nodes: usize, horizon: Dur) -> FaultPlan {
        let mut root = Rng::new(seed);
        let (mean, hz) = (node_mtbf.as_secs_f64(), horizon.as_secs_f64());
        let mut events = Vec::new();
        for node in 0..nodes {
            let t = root.fork().exp(mean);
            if t < hz {
                events.push(FaultEvent {
                    at: SimTime::from_secs_f64(t),
                    kind: FaultKind::NodeCrash { node },
                });
            }
        }
        FaultPlan::scripted(events)
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The time-ordered event script.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Times and targets of permanent node crashes, in time order.
    pub fn node_crashes(&self) -> impl Iterator<Item = (SimTime, usize)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            FaultKind::NodeCrash { node } => Some((e.at, node)),
            _ => None,
        })
    }
}

/// The variable [`seed_from_env`] reads.
const SEED_VAR: &str = "HPCC_FAULT_SEED";

/// `HPCC_FAULT_SEED` holds something that is not a `u64`; carries the
/// value as read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedError(String);

impl fmt::Display for SeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{SEED_VAR}={:?} is not a seed (an integer in 0..2^64)",
            self.0
        )
    }
}

impl std::error::Error for SeedError {}

/// Read the exhibit fault seed from `HPCC_FAULT_SEED`: `default` when
/// it is unset or empty, an error when it does not parse. This is how
/// CI varies the seed across whole test runs to flush out
/// seed-dependent nondeterminism.
pub fn seed_from_env(default: u64) -> Result<u64, SeedError> {
    let value = std::env::var_os(SEED_VAR).map(|v| v.to_string_lossy().into_owned());
    parse_seed(value.as_deref(), default)
}

fn parse_seed(value: Option<&str>, default: u64) -> Result<u64, SeedError> {
    match value.map(str::trim) {
        None | Some("") => Ok(default),
        Some(v) => v.parse().map_err(|_| SeedError(v.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::seeded(42, Dur::from_secs(40), 64, Dur::from_secs(100));
        let b = FaultPlan::seeded(42, Dur::from_secs(40), 64, Dur::from_secs(100));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, Dur::from_secs(40), 64, Dur::from_secs(100));
        let b = FaultPlan::seeded(2, Dur::from_secs(40), 64, Dur::from_secs(100));
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_time_ordered() {
        let p = FaultPlan::seeded(7, Dur::from_secs(200), 32, Dur::from_secs(300));
        assert!(p.len() > 1);
        for w in p.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn at_most_one_crash_per_node() {
        let p = FaultPlan::seeded(9, Dur::from_secs(10), 16, Dur::from_secs(1000));
        let mut crashed = [false; 16];
        for (_, n) in p.node_crashes() {
            assert!(!crashed[n], "node {n} crashed twice");
            crashed[n] = true;
        }
        assert!(
            crashed.iter().filter(|&&c| c).count() >= 14,
            "mtbf << horizon"
        );
    }

    /// The draw every seeded exhibit, example and test plan rests on:
    /// node `i`'s crash time is the first exponential of fork `i`.
    #[test]
    fn seeded_crashes_are_pinned() {
        let p = FaultPlan::seeded(42, Dur::from_secs(100), 8, Dur::from_secs(100));
        let got: Vec<(u64, usize)> = p.node_crashes().map(|(t, n)| (t.nanos(), n)).collect();
        assert_eq!(
            got,
            [
                (18_084_845_488, 3),
                (41_598_357_651, 6),
                (51_783_885_547, 2),
                (67_776_387_792, 4),
                (81_258_583_260, 5),
                (81_683_159_217, 0),
                (97_442_719_524, 1),
            ]
        );
        assert_eq!(p.len(), got.len(), "crashes only");
    }

    #[test]
    fn scripted_sorts() {
        let mut p = FaultPlan::none();
        p.push(
            SimTime::from_secs_f64(2.0),
            FaultKind::NodeCrash { node: 1 },
        );
        p.push(
            SimTime::from_secs_f64(1.0),
            FaultKind::NodeCrash { node: 0 },
        );
        assert_eq!(p.events()[0].at, SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn seed_parse_rejects_what_is_not_a_seed() {
        assert_eq!(parse_seed(None, 1992), Ok(1992));
        assert_eq!(
            parse_seed(Some(""), 1992),
            Ok(1992),
            "empty counts as unset"
        );
        assert_eq!(parse_seed(Some(" 7\n"), 1992), Ok(7));
        assert_eq!(parse_seed(Some("18446744073709551615"), 0), Ok(u64::MAX));
        for bad in ["abc", "-1", "1e3", "18446744073709551616"] {
            let err = parse_seed(Some(bad), 1992).expect_err(bad);
            let msg = err.to_string();
            assert!(msg.contains(SEED_VAR) && msg.contains(bad), "{msg}");
        }
    }
}
