//! Work that is counted, not timed: exact solver counts on fixed
//! fixtures, pinned as literal constants. The same seed gives the same
//! counts on any host, so an algorithmic change shows here as a count
//! delta that CI checks, where a wall-clock table would only drift.
//!
//! Ratchet: a change that lowers a count re-pins it here and quotes
//! old → new in CHANGES.md. Raising one needs a reason written there.

use des::rng::Rng;
use des::time::SimTime;
use nren_netsim::{topologies, workload, FlowConfig, FlowSim, LinkClass, LinkFault, SolverStats};

/// `(resolves, full_resolves, entries_touched)` of one run.
fn counts(s: &SolverStats) -> (u64, u64, u64) {
    (s.resolves, s.full_resolves, s.entries_touched)
}

/// The flow engine's claim: updating only the affected set touches far
/// less than a full re-solve. The fixture is shaped like the `wan_flows`
/// churn half: Poisson arrivals of Pareto-sized flows (mean 2 MB) for
/// 40 s on the NSFnet T3 backbone at seed 1992, short flows aggregated
/// below 16 MiB, and one outage on link 7 (Lincoln – Champaign) from 10
/// to 25 s. It runs once at the default `full_fraction` and once at 0.0,
/// which falls back to a full re-solve whenever a closure crosses a
/// link. Both runs finish every flow at the same nanosecond.
#[test]
fn nsfnet_churn_solver_counts() {
    let net = topologies::nsfnet(LinkClass::T3);
    let specs = workload::poisson_traffic(&net, &mut Rng::new(1992), 15.0, 2e6, 40.0);
    let outage = [LinkFault {
        link: 7,
        down_at: SimTime::from_secs_f64(10.0),
        up_at: SimTime::from_secs_f64(25.0),
    }];
    let run = |full_fraction| {
        let cfg = FlowConfig {
            full_fraction,
            aggregate_below: 16 << 20,
            ..FlowConfig::default()
        };
        let (outcomes, stats) = FlowSim::with_config(&net, cfg)
            .run_with_faults(specs.clone(), &outage)
            .unwrap();
        let finished: Vec<u64> = outcomes
            .iter()
            .map(|o| {
                o.completed()
                    .expect("the outage is repaired")
                    .finished
                    .nanos()
            })
            .collect();
        (finished, stats.solver)
    };
    let (partial, partial_stats) = run(FlowConfig::default().full_fraction);
    let (fallback, fallback_stats) = run(0.0);
    assert_eq!(partial, fallback, "the schedule depends on the fraction");
    assert_eq!(specs.len(), 600);
    // The outage and the T3 backbone's shared hops still make many
    // closures wide: the default falls back on 517 of its 1,201 resolves,
    // and touches 0.50x the entries a fallback on every crossing does.
    assert_eq!(counts(&partial_stats), (1_201, 517, 26_081), "default");
    assert_eq!(counts(&fallback_stats), (1_201, 1_161, 52_299), "0.0");
}

/// The `campaign` staging shape at the default `full_fraction`: the 300
/// Delta → partner results of
/// `cross_crate::consortium_staging_matches_the_reference_solver` at seed
/// 1992 (exponential gaps of mean 50 ms, 8·32·n bytes for n drawn from
/// 512, 768 and 1,024, partners in turn). Every closure stays narrow in
/// links, so no resolve falls back.
#[test]
fn consortium_staging_solver_counts() {
    use nren_netsim::TransferSpec;
    let net = topologies::delta_consortium();
    let delta = net.site(topologies::DELTA_SITE).unwrap();
    let partners = topologies::partner_sites(&net);
    let mut rng = Rng::new(1992);
    let mut t = 0.0;
    let specs: Vec<TransferSpec> = (0..300)
        .map(|k| {
            t += rng.exp(0.05);
            let n = [512, 768, 1024][rng.below(3) as usize];
            let dst = partners[k % partners.len()];
            TransferSpec::new(delta, dst, 8 * 32 * n, SimTime::from_secs_f64(t))
        })
        .collect();
    let (_, stats) = FlowSim::with_config(&net, FlowConfig::default()).run_with_stats(specs);
    assert_eq!(counts(&stats.solver), (600, 0, 12_455));
}
