//! Built-in topologies: the Delta Consortium connectivity figure (exhibit
//! T4-5) and the NSFnet backbones of the NREN story.
//!
//! The consortium member list and link classes come from the paper's
//! "Delta Consortium Partners" figure ("over 14 government, industry and
//! academia organizations"; legend: NSFnet T1, NSFnet T3, ESnet T1, CASA
//! HIPPI/SONET 800 Mb/s, Regional T1, Regional 56 kb/s). Exact site-level
//! wiring was simplified on the original figure too ("topologies ... have
//! been simplified to better illustrate connectivity"); ours is a faithful
//! reconstruction at the same granularity, with great-circle-ish
//! propagation delays.

use crate::graph::Net;
use crate::link::{LinkClass, SiteId};
use des::time::Dur;

/// Where the Delta lives in every built-in topology.
pub const DELTA_SITE: &str = "Caltech (Delta)";

fn ms(v: u64) -> Dur {
    Dur::from_millis(v)
}

/// The Delta Consortium network (exhibit T4-5): partners reach the
/// Touchstone Delta at Caltech over the six link classes of the figure.
pub fn delta_consortium() -> Net {
    let mut net = Net::new();

    // Hub and backbone infrastructure.
    let caltech = net.add_site(DELTA_SITE);
    let nsf_w = net.add_site("NSFnet-West");
    let nsf_mw = net.add_site("NSFnet-Midwest");
    let nsf_e = net.add_site("NSFnet-East");
    let esnet = net.add_site("ESnet-Hub");

    // NSFnet T3 backbone (1992 state) + Caltech's T3 attachment.
    net.add_link(nsf_w, nsf_mw, LinkClass::T3, ms(14));
    net.add_link(nsf_mw, nsf_e, LinkClass::T3, ms(9));
    net.add_link(caltech, nsf_w, LinkClass::T3, ms(3));
    // Legacy NSFnet T1 path kept in parallel (the figure shows both).
    net.add_link(caltech, nsf_mw, LinkClass::T1, ms(16));
    // ESnet T1 into the hub, which peers with NSFnet-West.
    net.add_link(esnet, nsf_w, LinkClass::T1, ms(4));

    // CASA gigabit testbed: HIPPI/SONET among Caltech, JPL, LANL, SDSC.
    let jpl = net.add_site("JPL");
    let lanl = net.add_site("Los Alamos");
    let sdsc = net.add_site("San Diego (SDSC)");
    net.add_link(caltech, jpl, LinkClass::HippiSonet800, ms(1));
    net.add_link(caltech, lanl, LinkClass::HippiSonet800, ms(6));
    net.add_link(caltech, sdsc, LinkClass::HippiSonet800, ms(2));
    net.add_link(lanl, sdsc, LinkClass::HippiSonet800, ms(6));

    // Agency and academic partners on the classes the legend names.
    let darpa = net.add_site("DARPA");
    net.add_link(darpa, nsf_e, LinkClass::T1, ms(2));
    let nasa_ames = net.add_site("NASA Ames");
    net.add_link(nasa_ames, nsf_w, LinkClass::T1, ms(2));
    let nasa_hq = net.add_site("NASA HQ");
    net.add_link(nasa_hq, nsf_e, LinkClass::T1, ms(2));
    let nsf_hq = net.add_site("NSF");
    net.add_link(nsf_hq, nsf_e, LinkClass::T1, ms(2));
    let argonne = net.add_site("Argonne");
    net.add_link(argonne, esnet, LinkClass::T1, ms(12));
    let rice = net.add_site("Rice (CRPC)");
    net.add_link(rice, nsf_mw, LinkClass::T1, ms(8));
    let intel = net.add_site("Intel SSD");
    net.add_link(intel, nsf_w, LinkClass::T1, ms(5));
    let purdue = net.add_site("Purdue");
    net.add_link(purdue, nsf_mw, LinkClass::Regional56k, ms(4));
    let ucdavis = net.add_site("UC Davis");
    net.add_link(ucdavis, nsf_w, LinkClass::Regional56k, ms(3));
    let pnl = net.add_site("Pacific Northwest Lab");
    net.add_link(pnl, esnet, LinkClass::Regional56k, ms(6));

    net
}

/// Consortium partner sites: everything except the Delta host itself and
/// backbone infrastructure.
pub fn partner_sites(net: &Net) -> Vec<SiteId> {
    (0..net.sites())
        .filter(|&s| {
            let n = net.name(s);
            n != DELTA_SITE && !n.starts_with("NSFnet") && !n.starts_with("ESnet")
        })
        .collect()
}

/// The 13-node NSFnet backbone ring-and-chords, at a selectable class.
/// `nsfnet(LinkClass::T1)` is the late-80s net, `T3` the 1992 upgrade,
/// `Gigabit` the NREN target the program funds.
pub fn nsfnet(class: LinkClass) -> Net {
    let mut net = Net::new();
    let names = [
        "Seattle",
        "Palo Alto",
        "San Diego",
        "Salt Lake City",
        "Boulder",
        "Lincoln",
        "Houston",
        "Champaign",
        "Ann Arbor",
        "Pittsburgh",
        "Ithaca",
        "Princeton",
        "College Park",
    ];
    let ids: Vec<SiteId> = names.iter().map(|n| net.add_site(*n)).collect();
    // (a, b, one-way ms) — simplified geography of the real backbone.
    let edges: [(usize, usize, u64); 16] = [
        (0, 1, 9),   // Seattle - Palo Alto
        (0, 3, 8),   // Seattle - Salt Lake
        (1, 2, 5),   // Palo Alto - San Diego
        (1, 3, 7),   // Palo Alto - Salt Lake
        (2, 6, 13),  // San Diego - Houston
        (3, 4, 5),   // Salt Lake - Boulder
        (4, 5, 5),   // Boulder - Lincoln
        (5, 7, 5),   // Lincoln - Champaign
        (6, 7, 9),   // Houston - Champaign
        (6, 12, 12), // Houston - College Park
        (7, 8, 3),   // Champaign - Ann Arbor
        (8, 9, 3),   // Ann Arbor - Pittsburgh
        (9, 10, 3),  // Pittsburgh - Ithaca
        (9, 12, 2),  // Pittsburgh - College Park
        (10, 11, 2), // Ithaca - Princeton
        (11, 12, 2), // Princeton - College Park
    ];
    for (a, b, l) in edges {
        net.add_link(ids[a], ids[b], class, ms(l));
    }
    net
}

/// A datacenter fabric plus the host sites attached to it — what the
/// generators below return, and what workload builders consume.
#[derive(Debug, Clone)]
pub struct Fabric {
    pub net: Net,
    /// End-host sites (the only valid flow endpoints inside the fabric).
    pub hosts: Vec<SiteId>,
    /// Switch/router sites, in generator order.
    pub switches: Vec<SiteId>,
}

fn us(v: u64) -> Dur {
    Dur::from_micros(v)
}

/// A k-ary fat-tree (Clos) fabric: k pods of k/2 edge and k/2
/// aggregation switches, (k/2)² core switches, and k²/4 hosts per pod —
/// k³/4 hosts total. `host` is the NIC/edge link class, `fabric` the
/// edge→agg and agg→core class; full bisection needs
/// `fabric ≥ host × k/2`, which the 100G/400G pairing provides for
/// k ≤ 8. `k` must be even and ≥ 2.
///
/// Site names are prefixed with `tag` so a fabric can be copied into a
/// larger net without name collisions.
pub fn fat_tree(k: usize, host: LinkClass, fabric: LinkClass, tag: &str) -> Fabric {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let mut net = Net::new();
    let half = k / 2;
    let mut hosts = Vec::new();
    let mut switches = Vec::new();
    // Core layer: (k/2)^2 switches, addressed (i, j).
    let cores: Vec<SiteId> = (0..half * half)
        .map(|c| net.add_site(format!("{tag}core{c}")))
        .collect();
    switches.extend(&cores);
    for pod in 0..k {
        let aggs: Vec<SiteId> = (0..half)
            .map(|a| net.add_site(format!("{tag}p{pod}a{a}")))
            .collect();
        let edges: Vec<SiteId> = (0..half)
            .map(|e| net.add_site(format!("{tag}p{pod}e{e}")))
            .collect();
        switches.extend(&aggs);
        switches.extend(&edges);
        // Agg a of every pod uplinks to cores [a*half, (a+1)*half).
        for (a, &agg) in aggs.iter().enumerate() {
            for j in 0..half {
                net.add_link(agg, cores[a * half + j], fabric, us(2));
            }
            // Full bipartite agg <-> edge inside the pod.
            for &edge in &edges {
                net.add_link(agg, edge, fabric, us(1));
            }
        }
        for (e, &edge) in edges.iter().enumerate() {
            for h in 0..half {
                let hs = net.add_site(format!("{tag}p{pod}h{}", e * half + h));
                net.add_link(edge, hs, host, us(1));
                hosts.push(hs);
            }
        }
    }
    Fabric {
        net,
        hosts,
        switches,
    }
}

/// A dragonfly fabric: `groups` groups of `routers` routers each,
/// all-to-all local links inside a group, `hosts_per_router` hosts on
/// every router, and one global link between every pair of groups
/// (rotating which router carries it, as the canonical balanced
/// dragonfly does). `local` is the intra-group and host class, `global`
/// the inter-group class.
pub fn dragonfly(
    groups: usize,
    routers: usize,
    hosts_per_router: usize,
    local: LinkClass,
    global: LinkClass,
    tag: &str,
) -> Fabric {
    assert!(groups >= 2 && routers >= 1 && hosts_per_router >= 1);
    let mut net = Net::new();
    let mut hosts = Vec::new();
    let mut switches = Vec::new();
    let mut rt = vec![vec![0usize; routers]; groups];
    for (g, row) in rt.iter_mut().enumerate() {
        for (r, slot) in row.iter_mut().enumerate() {
            let id = net.add_site(format!("{tag}g{g}r{r}"));
            *slot = id;
            switches.push(id);
            for h in 0..hosts_per_router {
                let hs = net.add_site(format!("{tag}g{g}r{r}h{h}"));
                net.add_link(id, hs, local, us(1));
                hosts.push(hs);
            }
        }
        // All-to-all local mesh inside the group.
        for a in 0..routers {
            for b in (a + 1)..routers {
                net.add_link(row[a], row[b], local, us(1));
            }
        }
    }
    // One global link per group pair; the (a, b) pair lands on router
    // index chosen round-robin so global links spread across routers.
    let mut spin = 0usize;
    for a in 0..groups {
        for b in (a + 1)..groups {
            let ra = rt[a][spin % routers];
            let rb = rt[b][(spin + 1) % routers];
            net.add_link(ra, rb, global, us(5));
            spin += 1;
        }
    }
    Fabric {
        net,
        hosts,
        switches,
    }
}

/// The CASA gigabit testbed on its own: four sites, HIPPI/SONET.
pub fn casa_testbed() -> Net {
    let mut net = Net::new();
    let caltech = net.add_site(DELTA_SITE);
    let jpl = net.add_site("JPL");
    let lanl = net.add_site("Los Alamos");
    let sdsc = net.add_site("San Diego (SDSC)");
    net.add_link(caltech, jpl, LinkClass::HippiSonet800, ms(1));
    net.add_link(caltech, lanl, LinkClass::HippiSonet800, ms(6));
    net.add_link(caltech, sdsc, LinkClass::HippiSonet800, ms(2));
    net.add_link(lanl, sdsc, LinkClass::HippiSonet800, ms(6));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSim, TransferSpec};
    use des::time::SimTime;

    #[test]
    fn consortium_has_over_14_partners() {
        let net = delta_consortium();
        let partners = partner_sites(&net);
        assert!(
            partners.len() >= 11,
            "figure says 'over 14 organizations' (incl. Caltech/NSF/Intel): got {}",
            partners.len()
        );
    }

    #[test]
    fn every_partner_reaches_the_delta() {
        let net = delta_consortium();
        let delta = net.site(DELTA_SITE).unwrap();
        for p in partner_sites(&net) {
            let r = net.route(p, delta);
            assert!(r.is_some(), "{} unreachable", net.name(p));
        }
    }

    #[test]
    fn casa_sites_get_hippi_rate() {
        let net = delta_consortium();
        let delta = net.site(DELTA_SITE).unwrap();
        let jpl = net.site("JPL").unwrap();
        let r = net.route(jpl, delta).unwrap();
        assert_eq!(net.bottleneck(&r), LinkClass::HippiSonet800.bytes_per_sec());
    }

    #[test]
    fn tail_sites_are_56k_limited() {
        let net = delta_consortium();
        let delta = net.site(DELTA_SITE).unwrap();
        let purdue = net.site("Purdue").unwrap();
        let r = net.route(purdue, delta).unwrap();
        assert_eq!(net.bottleneck(&r), LinkClass::Regional56k.bytes_per_sec());
    }

    #[test]
    fn nsfnet_connected_at_all_classes() {
        for class in [LinkClass::T1, LinkClass::T3, LinkClass::Gigabit] {
            let net = nsfnet(class);
            for a in 0..net.sites() {
                for b in 0..net.sites() {
                    assert!(net.route(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn t3_upgrade_speeds_up_coast_to_coast() {
        let bytes = 100_000_000; // a 100 MB result field
        let mut times = Vec::new();
        for class in [LinkClass::T1, LinkClass::T3, LinkClass::Gigabit] {
            let net = nsfnet(class);
            let sim = FlowSim::new(&net);
            let a = net.site("Palo Alto").unwrap();
            let b = net.site("College Park").unwrap();
            let recs = sim.run(vec![TransferSpec::new(a, b, bytes, SimTime::ZERO)]);
            times.push(recs[0].duration().as_secs_f64());
        }
        assert!(times[0] > 20.0 * times[1], "T3 ~29x faster than T1");
        assert!(times[1] > 10.0 * times[2], "gigabit ~22x faster than T3");
    }

    #[test]
    fn fat_tree_shape_and_reach() {
        for k in [2usize, 4, 6] {
            let fab = fat_tree(k, LinkClass::Gig100, LinkClass::Gig400, "");
            assert_eq!(fab.hosts.len(), k * k * k / 4, "k={k} host count");
            assert_eq!(
                fab.switches.len(),
                k * k / 4 + k * k,
                "k={k}: (k/2)^2 cores + k pods x k switches"
            );
            // Link census: host links k^3/4, edge-agg (k/2)^2 per pod,
            // agg-core k/2 per agg.
            let expect_links = k * k * k / 4 + k * (k / 2) * (k / 2) + k * (k / 2) * (k / 2);
            assert_eq!(fab.net.links().len(), expect_links, "k={k} link count");
            // Any two hosts reach each other in <= 6 hops (up to core,
            // down again), and intra-pod pairs stay inside the pod.
            let a = fab.hosts[0];
            let b = *fab.hosts.last().unwrap();
            let r = fab.net.route(a, b).unwrap();
            assert!(r.hops() <= 6, "k={k}: {} hops", r.hops());
            assert_eq!(r.bottleneck, LinkClass::Gig100.bytes_per_sec());
        }
    }

    #[test]
    fn dragonfly_shape_and_reach() {
        let (g, r, p) = (5usize, 4usize, 2usize);
        let fab = dragonfly(g, r, p, LinkClass::Gig100, LinkClass::Gig400, "");
        assert_eq!(fab.hosts.len(), g * r * p);
        assert_eq!(fab.switches.len(), g * r);
        // local: all-to-all per group + host links; global: one per pair.
        let expect = g * (r * (r - 1) / 2) + g * r * p + g * (g - 1) / 2;
        assert_eq!(fab.net.links().len(), expect);
        let a = fab.hosts[0];
        let b = *fab.hosts.last().unwrap();
        let route = fab.net.route(a, b).unwrap();
        // host->router, <=1 local, global, <=1 local, router->host.
        assert!(route.hops() <= 5, "{} hops", route.hops());
    }

    #[test]
    fn casa_standalone_is_fully_hippi() {
        let net = casa_testbed();
        for a in 0..net.sites() {
            for b in 0..net.sites() {
                if a != b {
                    let r = net.route(a, b).unwrap();
                    assert_eq!(net.bottleneck(&r), LinkClass::HippiSonet800.bytes_per_sec());
                }
            }
        }
    }
}
