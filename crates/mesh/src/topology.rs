//! Interconnect topologies of the early-1990s DARPA MPP series.
//!
//! The Touchstone Delta is a 2-D mesh with deterministic dimension-order
//! (XY) wormhole routing; its predecessor iPSC/860 ("Gamma") is a
//! hypercube with e-cube routing. A fully-connected ideal network is
//! included as an upper bound for ablations.
//!
//! Links are *directed* channels identified by a dense [`LinkId`] so the
//! simulator can keep per-channel occupancy in a flat `Vec`.

/// Index of a directed channel in a topology.
pub type LinkId = usize;

/// A network shape: node count, routing, and link enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// `rows × cols` 2-D mesh (the Delta is 16 × 33 numeric nodes).
    Mesh2D { rows: usize, cols: usize },
    /// `2^dim` nodes, e-cube routed (iPSC/860 class).
    Hypercube { dim: u32 },
    /// Every pair directly connected — an idealised crossbar.
    Full { n: usize },
}

impl Topology {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        match *self {
            Topology::Mesh2D { rows, cols } => rows * cols,
            Topology::Hypercube { dim } => 1 << dim,
            Topology::Full { n } => n,
        }
    }

    /// Number of directed channels.
    pub fn links(&self) -> usize {
        match *self {
            // Horizontal: rows * (cols-1) per direction; vertical likewise.
            Topology::Mesh2D { rows, cols } => 2 * (rows * (cols - 1) + cols * (rows - 1)),
            Topology::Hypercube { dim } => (1usize << dim) * dim as usize,
            Topology::Full { n } => n * n.saturating_sub(1),
        }
    }

    /// Hop count of the deterministic route between two nodes.
    pub fn hops(&self, from: usize, to: usize) -> usize {
        match *self {
            Topology::Mesh2D { cols, .. } => {
                let (r0, c0) = (from / cols, from % cols);
                let (r1, c1) = (to / cols, to % cols);
                r0.abs_diff(r1) + c0.abs_diff(c1)
            }
            Topology::Hypercube { .. } => (from ^ to).count_ones() as usize,
            Topology::Full { .. } => usize::from(from != to),
        }
    }

    /// Network diameter (max hops over all pairs).
    pub fn diameter(&self) -> usize {
        match *self {
            Topology::Mesh2D { rows, cols } => (rows - 1) + (cols - 1),
            Topology::Hypercube { dim } => dim as usize,
            Topology::Full { n } => usize::from(n > 1),
        }
    }

    /// Directed channels crossing the canonical bisection — the figure of
    /// merit the 1992 MPP literature quotes as "bisection bandwidth" once
    /// multiplied by channel rate.
    pub fn bisection_links(&self) -> usize {
        match *self {
            // Cut between column cols/2-1 and cols/2: `rows` channels each way.
            Topology::Mesh2D { rows, cols } => {
                if cols >= 2 {
                    2 * rows
                } else {
                    // Degenerate single-column mesh: one vertical cut.
                    2
                }
            }
            Topology::Hypercube { dim } => 1usize << dim, // 2 * 2^(dim-1) directed
            Topology::Full { n } => 2 * (n / 2) * (n - n / 2),
        }
    }

    /// The deterministic route from `from` to `to` as a list of directed
    /// channel ids. Empty when `from == to`.
    ///
    /// * Mesh: dimension-order XY — resolve the column first, then the row
    ///   (this is the Delta's hardware router order).
    /// * Hypercube: e-cube — correct differing address bits lowest-first.
    /// * Full: the single direct channel.
    pub fn route(&self, from: usize, to: usize, out: &mut Vec<LinkId>) {
        out.clear();
        if from == to {
            return;
        }
        match *self {
            Topology::Mesh2D { rows, cols } => {
                // Consecutive hops along a row or a column have consecutive
                // channel ids in [`mesh_link`]'s layout, so each leg is a
                // range: no per-hop coordinate division.
                let (r0, c0) = (from / cols, from % cols);
                let (r1, c1) = (to / cols, to % cols);
                let h = rows * (cols - 1);
                let v = cols * (rows - 1);
                let row = r0 * (cols - 1);
                if c1 > c0 {
                    out.extend((c0..c1).map(|c| row + c)); // east
                } else {
                    out.extend((c1..c0).rev().map(|c| h + row + c)); // west
                }
                let col = c1 * (rows - 1);
                if r1 > r0 {
                    out.extend((r0..r1).map(|r| 2 * h + col + r)); // south
                } else {
                    out.extend((r1..r0).rev().map(|r| 2 * h + v + col + r)); // north
                }
            }
            Topology::Hypercube { dim } => {
                let mut cur = from;
                for bit in 0..dim {
                    if (cur ^ to) & (1 << bit) != 0 {
                        let next = cur ^ (1 << bit);
                        out.push(cur * dim as usize + bit as usize);
                        cur = next;
                    }
                }
                debug_assert_eq!(cur, to);
            }
            Topology::Full { n } => {
                // Dense id for the (from, to) ordered pair, skipping self.
                let col = if to > from { to - 1 } else { to };
                out.push(from * (n - 1) + col);
            }
        }
    }

    /// The outgoing channels of `node` as `(neighbour, link)` pairs, in a
    /// fixed order (mesh: east, west, south, north; hypercube: bit order;
    /// full: node order). The fixed order is what keeps detour routing
    /// deterministic.
    pub fn neighbours(&self, node: usize, out: &mut Vec<(usize, LinkId)>) {
        out.clear();
        match *self {
            Topology::Mesh2D { rows, cols } => {
                let (r, c) = (node / cols, node % cols);
                if c + 1 < cols {
                    out.push((node + 1, mesh_link(rows, cols, node, node + 1)));
                }
                if c > 0 {
                    out.push((node - 1, mesh_link(rows, cols, node, node - 1)));
                }
                if r + 1 < rows {
                    out.push((node + cols, mesh_link(rows, cols, node, node + cols)));
                }
                if r > 0 {
                    out.push((node - cols, mesh_link(rows, cols, node, node - cols)));
                }
            }
            Topology::Hypercube { dim } => {
                for bit in 0..dim as usize {
                    out.push((node ^ (1 << bit), node * dim as usize + bit));
                }
            }
            Topology::Full { n } => {
                for to in 0..n {
                    if to != node {
                        let col = if to > node { to - 1 } else { to };
                        out.push((to, node * (n - 1) + col));
                    }
                }
            }
        }
    }

    /// Fault-aware route: the deterministic route (XY / e-cube / direct)
    /// when it crosses no failed channel, otherwise the shortest detour
    /// around the failed channels (deterministic BFS, fixed neighbour
    /// order). Returns `false` — with `out` emptied — when every path
    /// from `from` to `to` crosses a failed channel (partition).
    ///
    /// `down[l]` marks directed channel `l` as failed; an empty slice
    /// means no faults and takes the exact dimension-order fast path.
    pub fn route_avoiding(
        &self,
        from: usize,
        to: usize,
        down: &[bool],
        out: &mut Vec<LinkId>,
    ) -> bool {
        let is_down = |l: LinkId| down.get(l).copied().unwrap_or(false);
        self.route(from, to, out);
        if out.iter().all(|&l| !is_down(l)) {
            return true;
        }
        // BFS over live channels; parent links reconstruct the path.
        let n = self.nodes();
        let mut parent: Vec<Option<(usize, LinkId)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        let mut nbrs = Vec::new();
        parent[from] = Some((from, 0));
        queue.push_back(from);
        'bfs: while let Some(cur) = queue.pop_front() {
            self.neighbours(cur, &mut nbrs);
            for &(nb, link) in &nbrs {
                if parent[nb].is_none() && !is_down(link) {
                    parent[nb] = Some((cur, link));
                    if nb == to {
                        break 'bfs;
                    }
                    queue.push_back(nb);
                }
            }
        }
        out.clear();
        if parent[to].is_none() {
            return false;
        }
        let mut cur = to;
        while cur != from {
            let (prev, link) = parent[cur].expect("path reconstruction");
            out.push(link);
            cur = prev;
        }
        out.reverse();
        true
    }
}

/// Dense id for a directed mesh channel between *adjacent* nodes.
///
/// Layout: horizontal east-going, then horizontal west-going, then vertical
/// south-going, then vertical north-going blocks.
fn mesh_link(rows: usize, cols: usize, from: usize, to: usize) -> LinkId {
    let (r0, c0) = (from / cols, from % cols);
    let (r1, c1) = (to / cols, to % cols);
    let h = rows * (cols - 1); // east-going channels
    let v = cols * (rows - 1); // south-going channels
    if r0 == r1 {
        if c1 == c0 + 1 {
            r0 * (cols - 1) + c0 // east
        } else if c0 == c1 + 1 {
            h + r0 * (cols - 1) + c1 // west
        } else {
            panic!("not adjacent: {from}->{to}");
        }
    } else if c0 == c1 {
        if r1 == r0 + 1 {
            2 * h + c0 * (rows - 1) + r0 // south
        } else if r0 == r1 + 1 {
            2 * h + v + c0 * (rows - 1) + r1 // north
        } else {
            panic!("not adjacent: {from}->{to}");
        }
    } else {
        panic!("not adjacent: {from}->{to}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topos() -> Vec<Topology> {
        vec![
            Topology::Mesh2D { rows: 4, cols: 5 },
            Topology::Mesh2D { rows: 1, cols: 8 },
            Topology::Mesh2D { rows: 16, cols: 33 },
            Topology::Hypercube { dim: 5 },
            Topology::Full { n: 7 },
        ]
    }

    #[test]
    fn node_counts() {
        assert_eq!(Topology::Mesh2D { rows: 16, cols: 33 }.nodes(), 528);
        assert_eq!(Topology::Hypercube { dim: 7 }.nodes(), 128);
        assert_eq!(Topology::Full { n: 9 }.nodes(), 9);
    }

    #[test]
    fn route_length_matches_hops() {
        for topo in all_topos() {
            let n = topo.nodes();
            let mut route = Vec::new();
            for from in (0..n).step_by(3) {
                for to in (0..n).step_by(5) {
                    topo.route(from, to, &mut route);
                    assert_eq!(route.len(), topo.hops(from, to), "{topo:?} {from}->{to}");
                }
            }
        }
    }

    #[test]
    fn route_links_in_range() {
        for topo in all_topos() {
            let n = topo.nodes();
            let nlinks = topo.links();
            let mut route = Vec::new();
            for from in (0..n).step_by(2) {
                for to in (0..n).step_by(7) {
                    topo.route(from, to, &mut route);
                    for &l in &route {
                        assert!(l < nlinks, "{topo:?}: link {l} >= {nlinks}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_links_are_unique_per_channel() {
        // Every adjacent ordered pair maps to a distinct link id and the ids
        // exactly cover 0..links().
        let (rows, cols) = (4, 5);
        let topo = Topology::Mesh2D { rows, cols };
        let mut seen = vec![false; topo.links()];
        for r in 0..rows {
            for c in 0..cols {
                let me = r * cols + c;
                let mut neighbours = Vec::new();
                if c + 1 < cols {
                    neighbours.push(me + 1);
                }
                if c > 0 {
                    neighbours.push(me - 1);
                }
                if r + 1 < rows {
                    neighbours.push(me + cols);
                }
                if r > 0 {
                    neighbours.push(me - cols);
                }
                for nb in neighbours {
                    let id = mesh_link(rows, cols, me, nb);
                    assert!(!seen[id], "duplicate link id {id}");
                    seen[id] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all link ids covered");
    }

    #[test]
    fn mesh_route_matches_hop_by_hop_links() {
        // The reference: walk XY one hop at a time, naming each channel
        // by its endpoints.
        fn walk(rows: usize, cols: usize, from: usize, to: usize) -> Vec<LinkId> {
            let (mut r, mut c) = (from / cols, from % cols);
            let (r1, c1) = (to / cols, to % cols);
            let mut out = Vec::new();
            while c != c1 {
                let next = if c1 > c { c + 1 } else { c - 1 };
                out.push(mesh_link(rows, cols, r * cols + c, r * cols + next));
                c = next;
            }
            while r != r1 {
                let next = if r1 > r { r + 1 } else { r - 1 };
                out.push(mesh_link(rows, cols, r * cols + c, next * cols + c));
                r = next;
            }
            out
        }
        let mut route = Vec::new();
        for (rows, cols) in [(1, 5), (5, 1), (3, 4), (8, 8), (16, 33)] {
            let topo = Topology::Mesh2D { rows, cols };
            for from in 0..topo.nodes() {
                for to in 0..topo.nodes() {
                    topo.route(from, to, &mut route);
                    assert_eq!(
                        route,
                        walk(rows, cols, from, to),
                        "{rows}x{cols} {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn xy_routing_resolves_column_first() {
        let topo = Topology::Mesh2D { rows: 4, cols: 4 };
        // 0 (0,0) -> 15 (3,3): first 3 east hops, then 3 south hops.
        let mut route = Vec::new();
        topo.route(0, 15, &mut route);
        assert_eq!(route.len(), 6);
        let h = 4 * 3; // east block size
        assert!(route[..3].iter().all(|&l| l < h), "first hops horizontal");
        assert!(route[3..].iter().all(|&l| l >= 2 * h), "then vertical");
    }

    #[test]
    fn hypercube_ecube_is_shortest() {
        let topo = Topology::Hypercube { dim: 6 };
        let mut route = Vec::new();
        topo.route(0b101010, 0b010101, &mut route);
        assert_eq!(route.len(), 6);
    }

    #[test]
    fn self_route_is_empty() {
        for topo in all_topos() {
            let mut route = vec![1, 2, 3];
            topo.route(2, 2, &mut route);
            assert!(route.is_empty());
        }
    }

    #[test]
    fn diameters() {
        assert_eq!(Topology::Mesh2D { rows: 16, cols: 33 }.diameter(), 47);
        assert_eq!(Topology::Hypercube { dim: 7 }.diameter(), 7);
        assert_eq!(Topology::Full { n: 100 }.diameter(), 1);
    }

    #[test]
    fn bisection_scaling_shapes() {
        // Hypercube bisection grows linearly with N; mesh with sqrt(N).
        let mesh_small = Topology::Mesh2D { rows: 4, cols: 4 }.bisection_links();
        let mesh_big = Topology::Mesh2D { rows: 16, cols: 16 }.bisection_links();
        assert_eq!(mesh_big, 4 * mesh_small); // 16x nodes -> 4x bisection
        let hc_small = Topology::Hypercube { dim: 4 }.bisection_links();
        let hc_big = Topology::Hypercube { dim: 8 }.bisection_links();
        assert_eq!(hc_big, 16 * hc_small); // 16x nodes -> 16x bisection
    }

    #[test]
    fn detour_routes_around_a_down_link() {
        let topo = Topology::Mesh2D { rows: 4, cols: 4 };
        // Kill the first east hop of the XY route 0 -> 3.
        let mut xy = Vec::new();
        topo.route(0, 3, &mut xy);
        let mut down = vec![false; topo.links()];
        down[xy[0]] = true;
        let mut detour = Vec::new();
        assert!(topo.route_avoiding(0, 3, &down, &mut detour));
        assert!(!detour.contains(&xy[0]), "detour avoids the dead channel");
        assert_eq!(detour.len(), 5, "shortest detour: 1S 3E 1N");
        // A second call is bit-identical (deterministic BFS).
        let mut again = Vec::new();
        assert!(topo.route_avoiding(0, 3, &down, &mut again));
        assert_eq!(detour, again);
    }

    #[test]
    fn route_avoiding_no_faults_is_xy() {
        for topo in all_topos() {
            let n = topo.nodes();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for from in (0..n).step_by(3) {
                for to in (0..n).step_by(5) {
                    topo.route(from, to, &mut a);
                    assert!(topo.route_avoiding(from, to, &[], &mut b));
                    assert_eq!(a, b, "{topo:?} {from}->{to}");
                }
            }
        }
    }

    #[test]
    fn partition_is_reported() {
        // 1x4 path mesh: cutting the middle east+west channels separates
        // {0,1} from {2,3}.
        let topo = Topology::Mesh2D { rows: 1, cols: 4 };
        let mut down = vec![false; topo.links()];
        let mut r = Vec::new();
        topo.route(1, 2, &mut r);
        down[r[0]] = true;
        topo.route(2, 1, &mut r);
        down[r[0]] = true;
        let mut out = vec![7];
        assert!(!topo.route_avoiding(0, 3, &down, &mut out));
        assert!(out.is_empty());
        assert!(topo.route_avoiding(0, 1, &down, &mut out));
    }

    #[test]
    fn neighbours_cover_all_links() {
        for topo in all_topos() {
            let mut seen = vec![false; topo.links()];
            let mut nbrs = Vec::new();
            for node in 0..topo.nodes() {
                topo.neighbours(node, &mut nbrs);
                for &(nb, link) in &nbrs {
                    assert!(nb < topo.nodes());
                    assert!(!seen[link], "{topo:?}: duplicate link {link}");
                    seen[link] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{topo:?}: all channels listed");
        }
    }

    #[test]
    fn full_routes_distinct() {
        let topo = Topology::Full { n: 5 };
        let mut seen = std::collections::HashSet::new();
        let mut route = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    topo.route(a, b, &mut route);
                    assert_eq!(route.len(), 1);
                    assert!(seen.insert(route[0]), "duplicate channel");
                }
            }
        }
        assert_eq!(seen.len(), topo.links());
    }
}
