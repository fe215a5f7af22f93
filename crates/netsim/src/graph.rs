//! The network graph: named sites, duplex links, and latency-shortest
//! routing (Dijkstra). Routes are computed per flow and pinned for the
//! flow's lifetime, as 1992 static routing did.

use crate::link::{Link, LinkClass, SiteId};
use des::time::Dur;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Index of a *directed* capacity resource: link `i` direction a→b is
/// `2*i`, direction b→a is `2*i + 1`.
pub type DirLinkId = usize;

/// A WAN topology under construction or in use.
#[derive(Debug, Clone, Default)]
pub struct Net {
    names: Vec<String>,
    links: Vec<Link>,
    /// adjacency: per site, list of (link index, neighbour).
    adj: Vec<Vec<(usize, SiteId)>>,
}

impl Net {
    pub fn new() -> Net {
        Net::default()
    }

    /// Add a named site, returning its id.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        self.names.push(name.into());
        self.adj.push(Vec::new());
        self.names.len() - 1
    }

    /// Add a duplex link between two sites.
    pub fn add_link(&mut self, a: SiteId, b: SiteId, class: LinkClass, latency: Dur) {
        assert!(a < self.sites() && b < self.sites() && a != b);
        let idx = self.links.len();
        self.links.push(Link {
            a,
            b,
            class,
            latency,
        });
        self.adj[a].push((idx, b));
        self.adj[b].push((idx, a));
    }

    pub fn sites(&self) -> usize {
        self.names.len()
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn name(&self, s: SiteId) -> &str {
        &self.names[s]
    }

    /// Find a site by name.
    pub fn site(&self, name: &str) -> Option<SiteId> {
        self.names.iter().position(|n| n == name)
    }

    /// Capacity of a directed resource, bytes/s.
    pub fn capacity(&self, d: DirLinkId) -> f64 {
        self.links[d / 2].capacity()
    }

    /// The directed resource for traversing link `idx` out of site `from`.
    fn dir_id(&self, idx: usize, from: SiteId) -> DirLinkId {
        if self.links[idx].a == from {
            2 * idx
        } else {
            2 * idx + 1
        }
    }

    /// Total directed resources (for flat rate vectors).
    pub fn dir_links(&self) -> usize {
        2 * self.links.len()
    }

    /// Latency-shortest route from `src` to `dst`: the list of directed
    /// resources traversed, or `None` if unreachable.
    pub fn route(&self, src: SiteId, dst: SiteId) -> Option<Route> {
        self.route_avoiding(src, dst, &[])
    }

    /// Like [`Net::route`], but links whose (undirected) index is marked
    /// in `down` are treated as cut. `down` may be shorter than the link
    /// count; missing entries mean "up". Returns `None` when the outage
    /// set partitions `src` from `dst`.
    pub fn route_avoiding(&self, src: SiteId, dst: SiteId, down: &[bool]) -> Option<Route> {
        self.shortest_paths(src, Some(dst), down).route(self, dst)
    }

    /// Dijkstra from `src` on propagation latency (ns), tie-broken by
    /// hop count then site id for determinism. With `stop` the search
    /// ends once that site is settled; without, it spans everything
    /// reachable. A settled site's `prev` chain never changes afterwards
    /// (relaxation is strict `<` and every ancestor settled earlier), so
    /// the full tree holds exactly the path each early exit would find.
    fn shortest_paths(&self, src: SiteId, stop: Option<SiteId>, down: &[bool]) -> PathTree {
        let n = self.sites();
        let mut dist = vec![(u64::MAX, u32::MAX); n];
        let mut prev = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[src] = (0, 0);
        heap.push(std::cmp::Reverse((0u64, 0u32, src)));
        while let Some(std::cmp::Reverse((d, hops, u))) = heap.pop() {
            if (d, hops) > dist[u] {
                continue;
            }
            if Some(u) == stop {
                break;
            }
            for &(idx, v) in &self.adj[u] {
                if down.get(idx).copied().unwrap_or(false) {
                    continue;
                }
                let nd = d + self.links[idx].latency.nanos();
                let nh = hops + 1;
                if (nd, nh) < dist[v] {
                    dist[v] = (nd, nh);
                    prev[v] = idx as u32;
                    heap.push(std::cmp::Reverse((nd, nh, v)));
                }
            }
        }
        PathTree { dist, prev }
    }

    /// Single-flow achievable rate along the route (min capacity), bytes/s.
    /// The value is cached on the [`Route`] at construction, so this is a
    /// field read — no per-call walk over the route's links.
    pub fn bottleneck(&self, route: &Route) -> f64 {
        route.bottleneck
    }
}

/// A pinned path through the network.
#[derive(Debug, Clone)]
pub struct Route {
    /// Directed resources traversed, in order.
    pub dirs: Vec<DirLinkId>,
    /// End-to-end one-way propagation delay.
    pub latency: Dur,
    /// Min directed capacity along the path, bytes/s (cached at
    /// construction; `INFINITY` for the empty self-route).
    pub bottleneck: f64,
}

impl Route {
    pub fn hops(&self) -> usize {
        self.dirs.len()
    }
}

/// Shortest-path labels from one source: per site its (latency ns,
/// hops) and the link it was reached over (`u32::MAX` at the source and
/// at unreached sites).
#[derive(Debug)]
struct PathTree {
    dist: Vec<(u64, u32)>,
    prev: Vec<u32>,
}

impl PathTree {
    /// Walk `prev` back from `dst` to the source (for which the walk is
    /// empty: no links, zero latency, unbounded bottleneck); `None` if
    /// the search never got to `dst`.
    fn route(&self, net: &Net, dst: SiteId) -> Option<Route> {
        let (latency, hops) = self.dist[dst];
        if latency == u64::MAX {
            return None;
        }
        let mut dirs = Vec::with_capacity(hops as usize);
        let mut bottleneck = f64::INFINITY;
        let mut cur = dst;
        while self.prev[cur] != u32::MAX {
            let idx = self.prev[cur] as usize;
            let link = &net.links[idx];
            let p = if link.a == cur { link.b } else { link.a };
            let d = net.dir_id(idx, p);
            bottleneck = bottleneck.min(net.capacity(d));
            dirs.push(d);
            cur = p;
        }
        dirs.reverse();
        Some(Route {
            dirs,
            latency: Dur::from_nanos(latency),
            bottleneck,
        })
    }
}

/// Work a [`RouteCache`] has done since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Lookups answered from an interned route.
    pub hits: u64,
    /// Lookups that had to read a route out of a tree.
    pub misses: u64,
    /// Single-source Dijkstra runs.
    pub trees: u64,
}

/// Memoized routing: pinned static routes are identical for every flow
/// between the same site pair under the same outage mask, so the flow
/// engine interns them here instead of re-running Dijkstra per flow.
/// A miss builds (or reuses) the source's full shortest-path tree and
/// reads the destination out of it, so a fan-out from one site costs
/// one Dijkstra however many destinations it names. Negative results
/// (partitioned pairs) are cached too. Call [`RouteCache::invalidate`]
/// whenever the outage mask changes.
#[derive(Debug, Default)]
pub struct RouteCache {
    map: HashMap<(SiteId, SiteId), Option<Rc<Route>>>,
    trees: HashMap<SiteId, PathTree>,
    stats: RouteStats,
}

impl RouteCache {
    pub fn new() -> RouteCache {
        RouteCache::default()
    }

    /// The pinned route from `src` to `dst` under the current `down`
    /// mask, shared via `Rc` across every flow on the pair. Equal to
    /// [`Net::route_avoiding`] on the same arguments.
    pub fn route(
        &mut self,
        net: &Net,
        src: SiteId,
        dst: SiteId,
        down: &[bool],
    ) -> Option<Rc<Route>> {
        if let Some(r) = self.map.get(&(src, dst)) {
            self.stats.hits += 1;
            return r.clone();
        }
        self.stats.misses += 1;
        let tree = self.trees.entry(src).or_insert_with(|| {
            self.stats.trees += 1;
            net.shortest_paths(src, None, down)
        });
        let r = tree.route(net, dst).map(Rc::new);
        self.map.insert((src, dst), r.clone());
        r
    }

    /// Drop every memoized route and tree (the outage mask changed).
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.trees.clear();
    }

    pub fn stats(&self) -> RouteStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Net, SiteId, SiteId, SiteId) {
        let mut net = Net::new();
        let a = net.add_site("A");
        let b = net.add_site("B");
        let c = net.add_site("C");
        net.add_link(a, b, LinkClass::T3, Dur::from_millis(5));
        net.add_link(b, c, LinkClass::T1, Dur::from_millis(5));
        (net, a, b, c)
    }

    #[test]
    fn route_follows_line() {
        let (net, a, _, c) = line3();
        let r = net.route(a, c).unwrap();
        assert_eq!(r.hops(), 2);
        assert_eq!(r.latency, Dur::from_millis(10));
    }

    #[test]
    fn bottleneck_is_slowest_link() {
        let (net, a, _, c) = line3();
        let r = net.route(a, c).unwrap();
        assert_eq!(net.bottleneck(&r), LinkClass::T1.bytes_per_sec());
    }

    #[test]
    fn self_route_is_empty() {
        let (net, a, ..) = line3();
        let r = net.route(a, a).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.latency, Dur::ZERO);
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = Net::new();
        let a = net.add_site("A");
        let _b = net.add_site("island");
        let c = net.add_site("C");
        net.add_link(a, c, LinkClass::T1, Dur::from_millis(1));
        assert!(net.route(a, 1).is_none());
    }

    #[test]
    fn dijkstra_prefers_lower_latency_even_with_more_hops() {
        let mut net = Net::new();
        let a = net.add_site("A");
        let b = net.add_site("B");
        let c = net.add_site("C");
        net.add_link(a, b, LinkClass::T1, Dur::from_millis(50));
        net.add_link(a, c, LinkClass::T3, Dur::from_millis(10));
        net.add_link(c, b, LinkClass::T3, Dur::from_millis(10));
        let r = net.route(a, b).unwrap();
        assert_eq!(r.hops(), 2, "two fast hops beat one slow hop");
        assert_eq!(r.latency, Dur::from_millis(20));
    }

    #[test]
    fn directions_are_distinct_resources() {
        let (net, a, b, _) = line3();
        let fwd = net.route(a, b).unwrap();
        let back = net.route(b, a).unwrap();
        assert_ne!(fwd.dirs[0], back.dirs[0]);
        assert_eq!(fwd.dirs[0] / 2, back.dirs[0] / 2, "same physical link");
    }

    #[test]
    fn site_lookup_by_name() {
        let (net, _, b, _) = line3();
        assert_eq!(net.site("B"), Some(b));
        assert_eq!(net.site("nope"), None);
    }

    #[test]
    fn route_avoiding_takes_the_detour() {
        // Triangle: direct A-B is fast; cutting it forces A-C-B.
        let mut net = Net::new();
        let a = net.add_site("A");
        let b = net.add_site("B");
        let c = net.add_site("C");
        net.add_link(a, b, LinkClass::T3, Dur::from_millis(2)); // link 0
        net.add_link(a, c, LinkClass::T1, Dur::from_millis(5)); // link 1
        net.add_link(c, b, LinkClass::T1, Dur::from_millis(5)); // link 2
        assert_eq!(net.route(a, b).unwrap().hops(), 1);
        let detour = net.route_avoiding(a, b, &[true]).unwrap();
        assert_eq!(detour.hops(), 2);
        assert_eq!(detour.latency, Dur::from_millis(10));
        assert!(
            net.route_avoiding(a, b, &[true, true]).is_none(),
            "cutting A-B and A-C partitions A from B"
        );
    }

    fn stats(hits: u64, misses: u64, trees: u64) -> RouteStats {
        RouteStats {
            hits,
            misses,
            trees,
        }
    }

    #[test]
    fn route_cache_interns_and_invalidates() {
        let (net, a, _, c) = line3();
        let mut cache = RouteCache::new();
        let r1 = cache.route(&net, a, c, &[]).unwrap();
        let r2 = cache.route(&net, a, c, &[]).unwrap();
        assert!(Rc::ptr_eq(&r1, &r2), "second lookup is interned");
        assert_eq!(cache.stats(), stats(1, 1, 1));
        assert_eq!(r1.bottleneck, net.bottleneck(&r1));
        // Negative results are cached too.
        let mut net2 = Net::new();
        let x = net2.add_site("x");
        let y = net2.add_site("island");
        net2.add_site("z");
        let mut c2 = RouteCache::new();
        assert!(c2.route(&net2, x, y, &[]).is_none());
        assert!(c2.route(&net2, x, y, &[]).is_none());
        assert_eq!(c2.stats(), stats(1, 1, 1));
        // Invalidation forgets everything, trees included.
        cache.invalidate();
        let _ = cache.route(&net, a, c, &[]).unwrap();
        assert_eq!(cache.stats(), stats(1, 2, 2));
    }

    #[test]
    fn route_caches_its_bottleneck() {
        let (net, a, _, c) = line3();
        let r = net.route(a, c).unwrap();
        assert_eq!(r.bottleneck, LinkClass::T1.bytes_per_sec());
        let self_r = net.route(a, a).unwrap();
        assert!(self_r.bottleneck.is_infinite());
    }

    #[test]
    fn route_avoiding_empty_mask_matches_route() {
        let (net, a, _, c) = line3();
        let plain = net.route(a, c).unwrap();
        let masked = net.route_avoiding(a, c, &[false, false]).unwrap();
        assert_eq!(plain.dirs, masked.dirs);
        assert_eq!(plain.latency, masked.latency);
    }
}
