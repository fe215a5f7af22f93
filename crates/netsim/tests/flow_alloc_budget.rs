//! The flow engine's scratch arrays grow to their high-water mark and
//! stay there: repeating a consortium staging wave allocates almost
//! nothing more, so no resolve allocates — on the partial path alone (the
//! default config, which never falls back on this traffic) and on both
//! paths (`full_fraction` 0.05). One test per file: the counting
//! allocator is process-wide.

use des::rng::Rng;
use des::time::{Dur, SimTime};
use nren_netsim::{topologies, FlowConfig, FlowSim, SolverMode, TransferSpec};

#[path = "../../mesh/tests/common/mod.rs"]
mod common;

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

#[test]
fn repeated_staging_waves_allocate_nothing_per_resolve() {
    // 300 LINPACK panels staged from the Delta to the partner sites, one
    // every 50 ms on average — the traffic `campaign` stages.
    let net = topologies::delta_consortium();
    let delta = net.site(topologies::DELTA_SITE).unwrap();
    let partners = topologies::partner_sites(&net);
    let mut rng = Rng::new(7);
    let mut t = 0.0;
    let wave: Vec<TransferSpec> = (0..300)
        .map(|k| {
            t += rng.exp(0.05);
            let order = [512, 768, 1024][rng.below(3) as usize];
            let dst = partners[k % partners.len()];
            TransferSpec::new(delta, dst, 8 * 32 * order, SimTime::from_secs_f64(t))
        })
        .collect();
    let eager = FlowConfig {
        solver: SolverMode::Incremental {
            full_fraction: 0.05,
        },
        ..FlowConfig::default()
    };
    for cfg in [FlowConfig::default(), eager] {
        let sim = FlowSim::with_config(&net, cfg);
        // Each wave starts once the one before has drained, so every wave
        // reaches the same peak and reuses what the first one allocated.
        let period = sim.run_with_stats(wave.clone()).1.makespan.nanos() + 1_000_000_000;
        let allocs = |waves: u64| {
            let specs: Vec<TransferSpec> = (0..waves)
                .flat_map(|w| {
                    wave.iter().map(move |s| TransferSpec {
                        start: s.start + Dur::from_nanos(w * period),
                        ..s.clone()
                    })
                })
                .collect();
            let before = common::allocs();
            let (records, stats) = sim.run_with_stats(specs);
            let allocs = common::allocs() - before;
            assert_eq!(records.len(), wave.len() * waves as usize);
            (allocs, stats.solver)
        };
        let ((one, _), (four, solver)) = (allocs(1), allocs(4));
        if cfg == eager {
            let both = solver.full_resolves > 0 && solver.full_resolves < solver.resolves;
            assert!(both, "{solver:?}");
        } else {
            assert_eq!(solver.full_resolves, 0, "{solver:?}");
        }
        let per_flow = four.saturating_sub(one) as f64 / (3 * wave.len()) as f64;
        assert!(
            per_flow <= 0.1,
            "{cfg:?}: {one} allocations for one wave, {four} for four: {per_flow} per added flow"
        );
    }
}
