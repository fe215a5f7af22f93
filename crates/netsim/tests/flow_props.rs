//! Property tests for the incremental max-min engine: on every event of
//! random arrival/completion/fault sequences, the materialised rates
//! must match the reference global `maxmin_rates` re-solve within 1e-9
//! relative (`FlowConfig::verify` asserts this inside the engine), and
//! the observable outcomes must not depend on the full re-solve
//! fraction or short-flow aggregation.

use des::rng::Rng;
use des::time::SimTime;
use nren_netsim::{
    dragonfly, fat_tree, topologies, workload, FlowConfig, FlowOutcome, FlowSim, LinkClass,
    LinkFault, RouteCache, TransferSpec,
};

fn random_faults(rng: &mut Rng, links: usize, n: usize, horizon_s: f64) -> Vec<LinkFault> {
    (0..n)
        .map(|_| {
            let down = rng.exp(1.0) * horizon_s / 4.0;
            let dur = rng.exp(1.0) * horizon_s / 8.0 + 0.5;
            LinkFault {
                link: rng.below(links as u64) as usize,
                down_at: SimTime::from_secs_f64(down),
                up_at: SimTime::from_secs_f64(down + dur),
            }
        })
        .collect()
}

/// The verify hook re-derives the allocation with the reference solver
/// after every resolve and panics on divergence — running to completion
/// IS the property.
#[test]
fn incremental_equals_reference_on_random_sequences() {
    let net = topologies::nsfnet(LinkClass::T3);
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed);
        let specs = workload::poisson_traffic(&net, &mut rng, 4.0, 2e6, 20.0);
        let faults = random_faults(&mut rng, net.links().len(), 3, 20.0);
        let cfg = FlowConfig {
            full_fraction: 0.5,
            aggregate_below: 0,
            verify: true,
        };
        let sim = FlowSim::with_config(&net, cfg);
        let (outcomes, stats) = sim.run_with_faults(specs.clone(), &faults).unwrap();
        assert_eq!(outcomes.len(), specs.len());
        assert!(stats.solver.resolves > 0);
        // The affected sets must actually be subsets most of the time,
        // or the incremental path is a fiction.
        assert!(
            stats.solver.full_resolves < stats.solver.resolves,
            "seed {seed}: every resolve fell back to full"
        );
    }
}

#[test]
fn incremental_equals_reference_with_aggregation_and_windows() {
    let net = topologies::nsfnet(LinkClass::T1);
    for seed in 20..26u64 {
        let mut rng = Rng::new(seed);
        let mut specs = workload::poisson_traffic(&net, &mut rng, 6.0, 5e5, 10.0);
        // Window-cap a third of them so capped and uncapped flows mix.
        for (i, s) in specs.iter_mut().enumerate() {
            if i % 3 == 0 {
                s.window = Some(64 * 1024);
            }
        }
        let faults = random_faults(&mut rng, net.links().len(), 2, 10.0);
        let cfg = FlowConfig {
            full_fraction: 0.5,
            aggregate_below: 1 << 20,
            verify: true,
        };
        let sim = FlowSim::with_config(&net, cfg);
        let (outcomes, stats) = sim.run_with_faults(specs, &faults).unwrap();
        assert!(!outcomes.is_empty());
        assert!(stats.solver.aggregated_joins > 0, "seed {seed}: no joins");
    }
}

fn finish_times(outcomes: &[FlowOutcome]) -> Vec<(bool, f64)> {
    outcomes
        .iter()
        .map(|o| match o {
            FlowOutcome::Completed(r) => (true, r.finished.as_secs_f64()),
            FlowOutcome::Stalled { stalled_at, .. } => (false, stalled_at.as_secs_f64()),
        })
        .collect()
}

/// The fallback fraction is an implementation detail: the default
/// (0.25) and 0.0 (a full re-solve whenever a closure crosses a link),
/// every resolve of each checked against the reference solver, produce
/// the same schedule up to float residue (sub-microsecond on
/// multi-second transfers).
#[test]
fn fallback_fraction_does_not_change_the_schedule() {
    let net = topologies::nsfnet(LinkClass::T3);
    for seed in 40..46u64 {
        let mut rng = Rng::new(seed);
        let specs = workload::poisson_traffic(&net, &mut rng, 5.0, 2e6, 15.0);
        let faults = random_faults(&mut rng, net.links().len(), 2, 15.0);
        let run = |full_fraction| {
            let cfg = FlowConfig {
                full_fraction,
                aggregate_below: 0,
                verify: true,
            };
            FlowSim::with_config(&net, cfg)
                .run_with_faults(specs.clone(), &faults)
                .unwrap()
        };
        let (partial, _) = run(0.25);
        let (fallback, _) = run(0.0);
        for (i, (a, b)) in finish_times(&partial)
            .iter()
            .zip(finish_times(&fallback))
            .enumerate()
        {
            assert_eq!(a.0, b.0, "seed {seed} flow {i}: outcome kind diverged");
            assert!(
                (a.1 - b.1).abs() < 1e-6,
                "seed {seed} flow {i}: {} vs {}",
                a.1,
                b.1
            );
        }
    }
}

/// Aggregation collapses same-route short flows into weighted entries;
/// the weighted fill must hand every member exactly what it would get
/// as a standalone flow.
#[test]
fn aggregation_preserves_the_schedule() {
    let net = topologies::nsfnet(LinkClass::T1);
    for seed in 60..66u64 {
        let mut rng = Rng::new(seed);
        let specs = workload::poisson_traffic(&net, &mut rng, 8.0, 3e5, 10.0);
        let run = |aggregate_below| {
            let cfg = FlowConfig {
                full_fraction: 0.25,
                aggregate_below,
                verify: false,
            };
            FlowSim::with_config(&net, cfg).run(specs.clone())
        };
        let plain = run(0);
        let agg = run(1 << 22);
        for (i, (a, b)) in plain.iter().zip(&agg).enumerate() {
            assert_eq!(a.started, b.started, "seed {seed} flow {i}");
            let (ta, tb) = (a.finished.as_secs_f64(), b.finished.as_secs_f64());
            assert!((ta - tb).abs() < 1e-6, "seed {seed} flow {i}: {ta} vs {tb}");
        }
    }
}

/// Zero-fault runs and empty-fault-schedule runs stay bit-identical
/// (same engine, same event order) even at fabric scale.
#[test]
fn fabric_runs_are_replayable_bit_for_bit() {
    let fab = fat_tree(4, LinkClass::Gigabit, LinkClass::Gig100, "t.");
    let mut rng = Rng::new(9);
    let specs = workload::fan_out_traffic(&fab.hosts, 4, &mut rng, 400, 1e6, SimTime::ZERO);
    let cfg = FlowConfig {
        full_fraction: 0.25,
        aggregate_below: 1 << 20,
        verify: true,
    };
    let run = || {
        FlowSim::with_config(&fab.net, cfg)
            .run_with_faults(specs.clone(), &[])
            .unwrap()
    };
    let (oa, sa) = run();
    let (ob, sb) = run();
    assert_eq!(sa.makespan, sb.makespan);
    assert_eq!(sa.carried, sb.carried);
    for (x, y) in oa.iter().zip(&ob) {
        let (p, q) = (x.completed().unwrap(), y.completed().unwrap());
        assert_eq!(p.started, q.started);
        assert_eq!(p.finished, q.finished);
    }
}

/// A many-senders blast into one sink saturates the sink's host link;
/// every flow must converge to an equal share of it (max-min fairness
/// end to end through the incremental path).
#[test]
fn fan_in_converges_to_equal_shares() {
    let fab = fat_tree(4, LinkClass::Gigabit, LinkClass::Gig100, "t.");
    let sink = *fab.hosts.last().unwrap();
    let specs: Vec<TransferSpec> = fab.hosts[..8]
        .iter()
        .map(|&h| TransferSpec::new(h, sink, 100 << 20, SimTime::ZERO))
        .collect();
    let cfg = FlowConfig {
        verify: true,
        ..FlowConfig::default()
    };
    let recs = FlowSim::with_config(&fab.net, cfg).run(specs);
    let cap = LinkClass::Gigabit.bytes_per_sec();
    let expect = 8.0 * (100 << 20) as f64 / cap;
    for r in &recs {
        let d = r.duration().as_secs_f64();
        assert!(
            (d - expect).abs() / expect < 0.01,
            "got {d}, want ~{expect}"
        );
    }
}

/// The cache reads routes out of one full shortest-path tree per source;
/// the per-pair early-exit search must not be able to tell. Fat-tree and
/// dragonfly are all equal-latency ties; the denser masks partition.
#[test]
fn route_cache_equals_per_pair_dijkstra() {
    let nets = [
        topologies::nsfnet(LinkClass::T3),
        topologies::delta_consortium(),
        fat_tree(4, LinkClass::Gigabit, LinkClass::Gig100, "t.").net,
        dragonfly(4, 3, 2, LinkClass::Gigabit, LinkClass::Gig100, "d.").net,
    ];
    let mut rng = Rng::new(0x7ee5);
    let (mut detours, mut partitions) = (0, 0);
    for net in &nets {
        let mut cache = RouteCache::new();
        let mut trees = 0;
        for p_down in [0.0, 0.05, 0.2, 0.5] {
            let down: Vec<bool> = net.links().iter().map(|_| rng.chance(p_down)).collect();
            cache.invalidate();
            for src in 0..net.sites() {
                for dst in 0..net.sites() {
                    let want = net.route_avoiding(src, dst, &down);
                    let got = cache.route(net, src, dst, &down);
                    match (&want, got.as_deref()) {
                        (Some(w), Some(g)) => {
                            assert_eq!(w.dirs, g.dirs, "{src}->{dst} at {p_down}");
                            assert_eq!(w.latency, g.latency);
                            assert_eq!(w.bottleneck, g.bottleneck);
                            detours += (w.dirs != net.route(src, dst).unwrap().dirs) as u32;
                        }
                        (None, None) => partitions += 1,
                        _ => panic!("{src}->{dst} at {p_down}: reachability differs"),
                    }
                }
            }
            // Every site was a source; none needed a second tree.
            trees += net.sites() as u64;
            assert_eq!(cache.stats().trees, trees);
        }
        let pairs = (net.sites() * net.sites()) as u64;
        assert_eq!(
            cache.stats().misses,
            4 * pairs,
            "each pair read once per mask"
        );
    }
    assert!(detours > 0 && partitions > 0, "masks too gentle to matter");
}
