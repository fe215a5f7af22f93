//! Workload generators: the traffic the consortium actually put on these
//! networks — staging input decks to the Delta, pulling result fields
//! back, and background Poisson traffic.

use crate::flow::TransferSpec;
use crate::graph::{Net, RouteCache};
use crate::link::SiteId;
use des::rng::Rng;
use des::time::SimTime;

/// Every partner stages `deck_bytes` to the Delta at t=0, then (modelled
/// as a second batch of specs) retrieves `result_bytes`. Returns
/// (staging, retrieval) spec lists.
pub fn stage_and_retrieve(
    partners: &[SiteId],
    delta: SiteId,
    deck_bytes: u64,
    result_bytes: u64,
) -> (Vec<TransferSpec>, Vec<TransferSpec>) {
    let staging = partners
        .iter()
        .map(|&p| TransferSpec::new(p, delta, deck_bytes, SimTime::ZERO))
        .collect();
    let retrieval = partners
        .iter()
        .map(|&p| TransferSpec::new(delta, p, result_bytes, SimTime::ZERO))
        .collect();
    (staging, retrieval)
}

/// Poisson arrivals of Pareto-sized transfers between random distinct
/// sites, over `horizon_s` seconds at `per_sec` mean arrival rate.
pub fn poisson_traffic(
    net: &Net,
    rng: &mut Rng,
    per_sec: f64,
    mean_bytes: f64,
    horizon_s: f64,
) -> Vec<TransferSpec> {
    assert!(net.sites() >= 2);
    let mut out = Vec::new();
    let mut t = 0.0;
    // Pareto with alpha=1.5 has mean xm*3, so xm = mean/3.
    let xm = mean_bytes / 3.0;
    loop {
        t += rng.exp(1.0 / per_sec);
        if t >= horizon_s {
            break;
        }
        let src = rng.below(net.sites() as u64) as SiteId;
        let mut dst = rng.below(net.sites() as u64) as SiteId;
        while dst == src {
            dst = rng.below(net.sites() as u64) as SiteId;
        }
        let bytes = rng.pareto(xm, 1.5).min(mean_bytes * 100.0) as u64;
        out.push(TransferSpec::new(
            src,
            dst,
            bytes.max(1),
            SimTime::from_secs_f64(t),
        ));
    }
    out
}

/// A visualization stream: can `frame_bytes × fps` be sustained from the
/// Delta to `viewer`? Returns (required bytes/s, achievable bytes/s,
/// feasible) using the single-flow bottleneck.
pub fn visualization_feasibility(
    net: &Net,
    delta: SiteId,
    viewer: SiteId,
    frame_bytes: u64,
    fps: f64,
) -> (f64, f64, bool) {
    let required = frame_bytes as f64 * fps;
    let achievable = RouteCache::new()
        .route(net, delta, viewer, &[])
        .map(|r| r.bottleneck)
        .unwrap_or(0.0);
    (required, achievable, achievable >= required)
}

/// Fan-out traffic for fabric-scale runs: `flows` transfers, all
/// arriving at `start`, each from a random sender in the first
/// `senders` hosts to a random receiver in the rest. Pareto-sized
/// (alpha 1.5) around `mean_bytes`, floored at 1 byte and capped at
/// 100x the mean — the heavy tail short-flow aggregation amortizes.
pub fn fan_out_traffic(
    hosts: &[SiteId],
    senders: usize,
    rng: &mut Rng,
    flows: usize,
    mean_bytes: f64,
    start: SimTime,
) -> Vec<TransferSpec> {
    assert!(senders > 0 && senders < hosts.len());
    let xm = mean_bytes / 3.0;
    (0..flows)
        .map(|_| {
            let src = hosts[rng.below(senders as u64) as usize];
            let dst = hosts[senders + rng.below((hosts.len() - senders) as u64) as usize];
            let bytes = (rng.pareto(xm, 1.5).min(mean_bytes * 100.0) as u64).max(1);
            TransferSpec::new(src, dst, bytes, start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSim;
    use crate::link::LinkClass;
    use crate::topologies;

    #[test]
    fn staging_covers_all_partners() {
        let net = topologies::delta_consortium();
        let delta = net.site(topologies::DELTA_SITE).unwrap();
        let partners = topologies::partner_sites(&net);
        let (stage, retr) = stage_and_retrieve(&partners, delta, 1_000_000, 2_000_000);
        assert_eq!(stage.len(), partners.len());
        assert_eq!(retr.len(), partners.len());
        assert!(stage.iter().all(|s| s.dst == delta));
        assert!(retr.iter().all(|s| s.src == delta));
        // And the whole batch actually completes.
        let sim = FlowSim::new(&net);
        let recs = sim.run(stage);
        assert_eq!(recs.len(), partners.len());
    }

    #[test]
    fn poisson_traffic_is_deterministic_per_seed() {
        let net = topologies::nsfnet(LinkClass::T3);
        let gen = |seed| {
            let mut rng = Rng::new(seed);
            poisson_traffic(&net, &mut rng, 2.0, 1e6, 30.0)
        };
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.src, x.dst, x.bytes, x.start),
                (y.src, y.dst, y.bytes, y.start)
            );
        }
        assert_ne!(a.len(), gen(8).len());
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let net = topologies::nsfnet(LinkClass::T3);
        let mut rng = Rng::new(42);
        let specs = poisson_traffic(&net, &mut rng, 5.0, 1e6, 200.0);
        let expect = 5.0 * 200.0;
        assert!(
            (specs.len() as f64 - expect).abs() < expect * 0.15,
            "{} arrivals vs ~{expect}",
            specs.len()
        );
    }

    #[test]
    fn visualization_feasible_on_hippi_not_on_t1() {
        let net = topologies::delta_consortium();
        let delta = net.site(topologies::DELTA_SITE).unwrap();
        let jpl = net.site("JPL").unwrap();
        let darpa = net.site("DARPA").unwrap();
        // 1 Mpixel x 8 bit x 24 fps = 24 MB/s.
        let (req, ach, ok) = visualization_feasibility(&net, delta, jpl, 1_000_000, 24.0);
        assert!(ok, "HIPPI handles {req} <= {ach}");
        let (_, _, ok) = visualization_feasibility(&net, delta, darpa, 1_000_000, 24.0);
        assert!(!ok, "T1 cannot carry 24 MB/s");
    }

    #[test]
    fn fan_out_traffic_splits_senders_and_receivers() {
        let hosts: Vec<SiteId> = (10..30).collect();
        let mut rng = Rng::new(3);
        let specs = fan_out_traffic(&hosts, 5, &mut rng, 500, 1e6, SimTime::ZERO);
        assert_eq!(specs.len(), 500);
        for s in &specs {
            assert!(hosts[..5].contains(&s.src), "sender pool");
            assert!(hosts[5..].contains(&s.dst), "receiver pool");
            assert!(s.bytes >= 1);
            assert_eq!(s.start, SimTime::ZERO);
        }
        // Deterministic per seed.
        let mut rng2 = Rng::new(3);
        let again = fan_out_traffic(&hosts, 5, &mut rng2, 500, 1e6, SimTime::ZERO);
        assert!(specs
            .iter()
            .zip(&again)
            .all(|(x, y)| (x.src, x.dst, x.bytes) == (y.src, y.dst, y.bytes)));
    }
}
