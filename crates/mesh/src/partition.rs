//! Rectangular sub-mesh allocation — how the Concurrent Supercomputer
//! Consortium actually shared the Delta ("ACQUIRE AND UTILIZE").
//!
//! The Delta's NX space-shared the 16×33 mesh: each job got a contiguous
//! rectangular sub-mesh. Allocation is the classic early-90s problem
//! (first-fit frames, fragmentation); this module provides the occupancy
//! grid, a first-fit allocator that places a frame rotated when it does
//! not fit upright, and fragmentation diagnostics.

use crate::topology::Topology;

/// A contiguous rectangular region of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubMesh {
    pub row: usize,
    pub col: usize,
    pub rows: usize,
    pub cols: usize,
}

impl SubMesh {
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }

    pub fn overlaps(&self, other: &SubMesh) -> bool {
        self.row < other.row + other.rows
            && other.row < self.row + self.rows
            && self.col < other.col + other.cols
            && other.col < self.col + self.cols
    }
}

/// `anchor` value of a node no live allocation starts at.
const NO_ALLOC: u32 = u32::MAX;

/// Occupancy state of a 2-D mesh being space-shared.
///
/// A bitboard: `busy` and `failed` hold one bitmap per mesh row, `words`
/// 64-bit words each, bit `j` of a row standing for column `j`. The
/// columns past the mesh edge in a row's last word are born `failed`,
/// so no frame can reach them and no scan masks them out.
#[derive(Debug, Clone)]
pub struct MeshSpace {
    rows: usize,
    cols: usize,
    /// Words per row bitmap: `ceil(cols / 64)`.
    words: usize,
    busy: Vec<u64>,
    /// Permanently retired nodes (hardware failures). Kept separate from
    /// `busy` so freeing a sub-mesh that contains a failed node does not
    /// resurrect it.
    failed: Vec<u64>,
    allocated: Vec<SubMesh>,
    /// Top-left node of a live allocation → its index in `allocated`.
    anchor: Vec<u32>,
    /// Nodes neither busy nor failed.
    free_count: usize,
    failed_count: usize,
    /// A whole board of scratch (`rows × words`) for `allocate`'s scan.
    scan: Vec<u64>,
}

/// `(word, mask)` pairs covering columns `col..col + cols` of a row bitmap.
fn span_words(col: usize, cols: usize) -> impl Iterator<Item = (usize, u64)> {
    let end = col + cols;
    (col / 64..end.div_ceil(64)).map(move |k| {
        let lo = col.max(k * 64) - k * 64;
        let hi = end.min((k + 1) * 64) - k * 64;
        (k, (u64::MAX >> (64 - (hi - lo))) << lo)
    })
}

/// `m &= m >> s` on a multi-word bitmap (bit `j` of word `k` is column
/// `64 k + j`; zeros shift in past the last word). Ascending `k` reads
/// only words not yet overwritten, so it runs in place.
fn and_shr(m: &mut [u64], s: usize) {
    let (q, b) = (s / 64, s % 64);
    for k in 0..m.len() {
        let lo = m.get(k + q).map_or(0, |w| w >> b);
        let hi = match b {
            0 => 0,
            _ => m.get(k + q + 1).map_or(0, |w| w << (64 - b)),
        };
        m[k] &= lo | hi;
    }
}

impl MeshSpace {
    pub fn new(rows: usize, cols: usize) -> MeshSpace {
        assert!(
            rows * cols < NO_ALLOC as usize,
            "mesh too large for the allocation index"
        );
        let words = cols.div_ceil(64);
        let mut failed = vec![0u64; rows * words];
        if !cols.is_multiple_of(64) {
            for row in failed.chunks_mut(words) {
                row[words - 1] = u64::MAX << (cols % 64);
            }
        }
        MeshSpace {
            rows,
            cols,
            words,
            busy: vec![0; rows * words],
            failed,
            allocated: Vec::new(),
            anchor: vec![NO_ALLOC; rows * cols],
            free_count: rows * cols,
            failed_count: 0,
            scan: vec![0; rows * words],
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn total_nodes(&self) -> usize {
        self.rows * self.cols
    }

    pub fn free_nodes(&self) -> usize {
        self.free_count
    }

    /// Nodes permanently retired by hardware failure.
    pub fn failed_nodes(&self) -> usize {
        self.failed_count
    }

    pub fn allocations(&self) -> &[SubMesh] {
        &self.allocated
    }

    /// `(word index, bit)` of `node` (row-major id) in the bitmaps.
    fn bit_of(&self, node: usize) -> (usize, u64) {
        let (r, c) = (node / self.cols, node % self.cols);
        (r * self.words + c / 64, 1 << (c % 64))
    }

    pub(crate) fn is_failed(&self, node: usize) -> bool {
        let (w, bit) = self.bit_of(node);
        self.failed[w] & bit != 0
    }

    /// Permanently retire `node` (row-major id): it never satisfies
    /// another allocation. Idempotent; the node may currently be inside
    /// an allocated sub-mesh (the scheduler drains that job separately).
    pub fn fail_node(&mut self, node: usize) {
        let (w, bit) = self.bit_of(node);
        if self.failed[w] & bit == 0 {
            self.failed[w] |= bit;
            self.failed_count += 1;
            if self.busy[w] & bit == 0 {
                self.free_count -= 1;
            }
        }
    }

    /// The allocated sub-mesh containing `node`, if any.
    pub fn allocation_containing(&self, node: usize) -> Option<SubMesh> {
        let (r, c) = (node / self.cols, node % self.cols);
        self.allocated
            .iter()
            .copied()
            .find(|a| r >= a.row && r < a.row + a.rows && c >= a.col && c < a.col + a.cols)
    }

    /// The row-major first `r × c` frame clear of failed nodes and, with
    /// `with_busy`, of busy ones. `board` is a whole board of scratch
    /// (`rows × words`).
    ///
    /// The occupancy is folded by doubling, first down the rows and then
    /// along them. Copy it into `board`; OR each row with the one `s`
    /// below, ascending, until row `t` holds the OR of rows `t..t + r`
    /// (⌈log₂ r⌉ passes); invert the `rows − r + 1` top rows — bit `j`
    /// of row `t` now says column `j` is free in all `r` rows — and AND
    /// each with itself shifted right until bit `j` says columns
    /// `j..j + c` are too (⌈log₂ c⌉ passes). ORs and ANDs commute, so bit
    /// `j` of row `t` is set exactly when the frame fits at `(t, j)`, and
    /// the first non-zero word in row-major order, at its lowest set bit,
    /// is the first hit of a row-major scan over every position.
    fn first_fit(&self, r: usize, c: usize, with_busy: bool, board: &mut [u64]) -> Option<SubMesh> {
        if r > self.rows || c > self.cols {
            return None;
        }
        let w = self.words;
        for (b, (&f, &u)) in board.iter_mut().zip(self.failed.iter().zip(&self.busy)) {
            *b = if with_busy { f | u } else { f };
        }
        let mut have = 1;
        while have < r {
            let s = have.min(r - have);
            // Rows `0..=rows - have - s` have room for a `have + s`
            // window; each reads the row `s` below, which this ascending
            // pass has not overwritten yet.
            for k in 0..(self.rows - have - s + 1) * w {
                board[k] |= board[k + s * w];
            }
            have += s;
        }
        let top = &mut board[..(self.rows - r + 1) * w];
        for b in top.iter_mut() {
            *b = !*b;
        }
        let mut have = 1;
        while have < c {
            let s = have.min(c - have);
            for row in top.chunks_exact_mut(w) {
                and_shr(row, s);
            }
            have += s;
        }
        let k = top.iter().position(|&b| b != 0)?;
        Some(SubMesh {
            row: k / w,
            col: k % w * 64 + top[k].trailing_zeros() as usize,
            rows: r,
            cols: c,
        })
    }

    /// [`MeshSpace::first_fit`] for the upright shape over the whole
    /// mesh, then for the transposed one.
    fn find(&self, r: usize, c: usize, with_busy: bool, board: &mut [u64]) -> Option<SubMesh> {
        assert!(r > 0 && c > 0);
        match self.first_fit(r, c, with_busy, board) {
            None if r != c => self.first_fit(c, r, with_busy, board),
            found => found,
        }
    }

    /// Set (`value`) or clear the busy bits of `sm`, one masked word-op
    /// per word and row, the masks computed once per frame. Returns how
    /// many of its nodes have failed.
    fn mark(&mut self, sm: &SubMesh, value: bool) -> usize {
        let mut dead = 0;
        for (k, mask) in span_words(sm.col, sm.cols) {
            for i in sm.row..sm.row + sm.rows {
                let at = i * self.words + k;
                debug_assert_eq!(self.busy[at] & mask, if value { 0 } else { mask });
                self.busy[at] ^= mask;
                dead += (self.failed[at] & mask).count_ones() as usize;
            }
        }
        dead
    }

    /// First-fit allocation of an `r × c` frame, scanning row-major.
    /// The transposed `c × r` frame is tried when the upright one does
    /// not fit anywhere.
    pub fn allocate(&mut self, r: usize, c: usize) -> Option<SubMesh> {
        let mut board = std::mem::take(&mut self.scan);
        let found = self.find(r, c, true, &mut board);
        self.scan = board;
        let sm = found?;
        let dead = self.mark(&sm, true);
        debug_assert_eq!(dead, 0, "a placement avoids failed nodes");
        self.free_count -= sm.nodes();
        self.anchor[sm.row * self.cols + sm.col] = self.allocated.len() as u32;
        self.allocated.push(sm);
        Some(sm)
    }

    /// Would [`MeshSpace::allocate`] succeed right now? Same scan, no
    /// mark. Off the hot path, so it brings its own scratch board.
    pub fn can_allocate(&self, r: usize, c: usize) -> bool {
        self.find(r, c, true, &mut vec![0; self.busy.len()])
            .is_some()
    }

    /// Could the frame be placed if every allocation were released —
    /// does it fit the nodes that have not failed?
    pub(crate) fn fits_survivors(&self, r: usize, c: usize) -> bool {
        self.find(r, c, false, &mut vec![0; self.busy.len()])
            .is_some()
    }

    /// Release a previously allocated sub-mesh.
    pub fn free(&mut self, sm: SubMesh) {
        let node = sm.row * self.cols + sm.col;
        let pos = match self.anchor.get(node) {
            Some(&pos) if pos != NO_ALLOC && self.allocated[pos as usize] == sm => pos as usize,
            _ => panic!("freeing an unallocated sub-mesh"),
        };
        self.anchor[node] = NO_ALLOC;
        self.allocated.swap_remove(pos);
        if let Some(moved) = self.allocated.get(pos) {
            self.anchor[moved.row * self.cols + moved.col] = pos as u32;
        }
        self.free_count += sm.nodes() - self.mark(&sm, false);
    }
}

/// Static assignment of nodes to parallel simulation lanes.
///
/// A lane is a shard of the discrete-event engine: one event calendar,
/// one executor, one fabric, one contiguous block of node ids. The
/// blocks are cut so that a fault-free route between two nodes of a lane
/// uses only channels whose source node is in the lane: whole rows of a
/// mesh (XY routing), subcubes of a hypercube (e-cube routing), id
/// ranges of a crossbar. A detour around a failed channel may still
/// leave the block ([`crate::shard`]'s modelling concession).
///
/// The requested lane count is clamped so every lane is non-empty
/// (≤ rows for a mesh, ≤ nodes otherwise; a power of two for a cube).
#[derive(Debug, Clone)]
pub struct LaneMap {
    /// `starts[l]..starts[l + 1]` is lane `l`'s node range.
    starts: Vec<usize>,
}

impl LaneMap {
    pub fn new(topo: &Topology, lanes: usize) -> LaneMap {
        let nodes = topo.nodes();
        assert!(nodes > 0, "lane map over an empty machine");
        let units = match *topo {
            Topology::Mesh2D { rows, .. } => rows,
            _ => nodes,
        };
        let per_unit = nodes / units;
        let mut lanes = lanes.clamp(1, units);
        if let Topology::Hypercube { .. } = topo {
            lanes = 1 << lanes.ilog2();
        }
        // Balanced contiguous blocks: lane l gets units [l*u/L, (l+1)*u/L).
        let starts: Vec<usize> = (0..=lanes)
            .map(|l| (l * units / lanes) * per_unit)
            .collect();
        LaneMap { starts }
    }

    /// Single-lane map (the single-queue engine's view of the machine).
    pub fn single(topo: &Topology) -> LaneMap {
        LaneMap::new(topo, 1)
    }

    #[inline]
    pub fn lanes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Lane owning `node`.
    #[inline]
    pub fn lane_of(&self, node: usize) -> usize {
        debug_assert!(node < *self.starts.last().unwrap());
        self.starts.partition_point(|&s| s <= node) - 1
    }

    /// Node ids owned by `lane`.
    #[inline]
    pub fn range(&self, lane: usize) -> std::ops::Range<usize> {
        self.starts[lane]..self.starts[lane + 1]
    }

    pub fn total_nodes(&self) -> usize {
        *self.starts.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SubMesh {
        /// Global node ids covered, row-major.
        fn node_ids(&self, mesh_cols: usize) -> impl Iterator<Item = usize> + '_ {
            let (r0, c0, rs, cs) = (self.row, self.col, self.rows, self.cols);
            (0..rs).flat_map(move |r| (0..cs).map(move |c| (r0 + r) * mesh_cols + c0 + c))
        }
    }

    #[test]
    fn allocates_and_frees() {
        let mut m = MeshSpace::new(4, 4);
        let a = m.allocate(2, 2).unwrap();
        assert_eq!(m.free_nodes(), 12);
        let b = m.allocate(2, 2).unwrap();
        assert!(!a.overlaps(&b));
        assert_eq!(m.free_nodes(), 8);
        m.free(a);
        assert_eq!(m.free_nodes(), 12);
        m.free(b);
        assert_eq!(m.free_nodes(), 16);
        assert!(m.allocations().is_empty());
    }

    #[test]
    fn first_fit_is_row_major_deterministic() {
        let mut m = MeshSpace::new(4, 4);
        let a = m.allocate(2, 3).unwrap();
        assert_eq!((a.row, a.col), (0, 0));
        let b = m.allocate(2, 3).unwrap();
        assert_eq!((b.row, b.col), (2, 0), "next frame below, row-major scan");
    }

    #[test]
    fn full_machine_fits_exactly() {
        let mut m = MeshSpace::new(16, 33);
        let a = m.allocate(16, 33).unwrap();
        assert_eq!(a.nodes(), 528);
        assert_eq!(m.free_nodes(), 0);
        assert!(m.allocate(1, 1).is_none());
    }

    #[test]
    fn rotation_rescues_tall_requests() {
        // 6 rows cannot fit a 2-row mesh; the frame goes in sideways.
        let mut m = MeshSpace::new(2, 8);
        let a = m.allocate(6, 2).unwrap();
        assert_eq!(
            (a.row, a.col, a.rows, a.cols),
            (0, 0, 2, 6),
            "rotated placement"
        );
        // Upright first: a 1 × 2 frame that fits upright is not turned.
        let b = m.allocate(1, 2).unwrap();
        assert_eq!((b.row, b.col, b.rows, b.cols), (0, 6, 1, 2));
    }

    #[test]
    fn fragmentation_detected() {
        // A checkerboard of 1x1 allocations leaves plenty of free nodes
        // but no contiguous 2x2 frame. First-fit 1x1s fill row-major, so
        // fill the board and free every other cell.
        let mut m = MeshSpace::new(4, 4);
        let cells: Vec<SubMesh> = (0..16).map(|_| m.allocate(1, 1).unwrap()).collect();
        for cell in cells {
            if (cell.row + cell.col) % 2 == 1 {
                m.free(cell);
            }
        }
        assert_eq!(m.free_nodes(), 8);
        assert!(!m.can_allocate(2, 2), "8 free nodes, no free 2x2 frame");
        assert!(m.can_allocate(1, 1));
    }

    #[test]
    fn node_ids_match_topology_layout() {
        let sm = SubMesh {
            row: 1,
            col: 2,
            rows: 2,
            cols: 2,
        };
        let ids: Vec<usize> = sm.node_ids(33).collect();
        assert_eq!(ids, vec![33 + 2, 33 + 3, 2 * 33 + 2, 2 * 33 + 3]);
    }

    #[test]
    fn failed_nodes_stay_retired() {
        let mut m = MeshSpace::new(2, 2);
        let a = m.allocate(2, 2).unwrap();
        assert_eq!(m.allocation_containing(3), Some(a));
        m.fail_node(3);
        m.free(a);
        assert_eq!(m.free_nodes(), 3, "failed node is not free");
        assert_eq!(m.failed_nodes(), 1);
        assert!(m.allocate(2, 2).is_none(), "frame needs node 3");
        let b = m.allocate(2, 1).unwrap();
        assert_eq!((b.row, b.col), (0, 0));
        assert_eq!(m.allocation_containing(1), None, "node 1 is free");
        m.fail_node(3); // idempotent
        assert_eq!(m.failed_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut m = MeshSpace::new(2, 2);
        let a = m.allocate(1, 1).unwrap();
        m.free(a);
        m.free(a);
    }

    /// The allocator this module had before the bitboard: one `bool` per
    /// node, every frame position probed cell by cell in row-major order.
    /// Kept as the independent reference the bitboard is checked against.
    struct CellScan {
        rows: usize,
        cols: usize,
        busy: Vec<bool>,
        failed: Vec<bool>,
        allocated: Vec<SubMesh>,
    }

    impl CellScan {
        fn new(rows: usize, cols: usize) -> CellScan {
            CellScan {
                rows,
                cols,
                busy: vec![false; rows * cols],
                failed: vec![false; rows * cols],
                allocated: Vec::new(),
            }
        }

        fn free_nodes(&self) -> usize {
            (0..self.busy.len())
                .filter(|&n| !self.busy[n] && !self.failed[n])
                .count()
        }

        fn failed_nodes(&self) -> usize {
            self.failed.iter().filter(|&&f| f).count()
        }

        fn allocation_containing(&self, node: usize) -> Option<SubMesh> {
            let (r, c) = (node / self.cols, node % self.cols);
            self.allocated
                .iter()
                .copied()
                .find(|a| r >= a.row && r < a.row + a.rows && c >= a.col && c < a.col + a.cols)
        }

        fn fits_at(&self, row: usize, col: usize, r: usize, c: usize, with_busy: bool) -> bool {
            (row..row + r).all(|i| {
                (col..col + c).all(|j| {
                    let n = i * self.cols + j;
                    !(self.failed[n] || with_busy && self.busy[n])
                })
            })
        }

        fn find(&self, r: usize, c: usize, with_busy: bool) -> Option<SubMesh> {
            let shapes: &[(usize, usize)] = if r != c { &[(r, c), (c, r)] } else { &[(r, c)] };
            for &(r, c) in shapes {
                for row in 0..(self.rows + 1).saturating_sub(r) {
                    for col in 0..(self.cols + 1).saturating_sub(c) {
                        if self.fits_at(row, col, r, c, with_busy) {
                            return Some(SubMesh {
                                row,
                                col,
                                rows: r,
                                cols: c,
                            });
                        }
                    }
                }
            }
            None
        }

        fn mark(&mut self, sm: &SubMesh, value: bool) {
            for n in sm.node_ids(self.cols) {
                assert_ne!(self.busy[n], value);
                self.busy[n] = value;
            }
        }

        fn allocate(&mut self, r: usize, c: usize) -> Option<SubMesh> {
            let sm = self.find(r, c, true)?;
            self.mark(&sm, true);
            self.allocated.push(sm);
            Some(sm)
        }

        fn free(&mut self, sm: SubMesh) {
            let pos = self.allocated.iter().position(|a| *a == sm).unwrap();
            self.allocated.swap_remove(pos);
            self.mark(&sm, false);
        }
    }

    /// Seeded allocate / free / fail / lookup sequences through the
    /// bitboard and the cell scan side by side: same answers and same
    /// observable state after every step. The meshes straddle the word
    /// boundary (64, 65 columns), span several words (130), and are tall
    /// enough (33, 40 rows) for the row folds to take strides of 16 and
    /// 32 rows, on one-word and two-word boards.
    #[test]
    fn bitboard_matches_cell_scan_oracle() {
        use des::rng::Rng;
        const MESHES: [(usize, usize); 7] = [
            (16, 33),
            (1, 1),
            (4, 64),
            (5, 65),
            (3, 130),
            (33, 16),
            (40, 70),
        ];
        let mut sequences = 0;
        for (mi, &(rows, cols)) in MESHES.iter().enumerate() {
            for seed in 0..64u64 {
                let mut rng = Rng::new(0xB17B0A2D ^ (mi as u64) << 32 ^ seed);
                let mut fast = MeshSpace::new(rows, cols);
                let mut slow = CellScan::new(rows, cols);
                // Frames up to one past each edge, small ones favoured so
                // the mesh fragments instead of filling in three steps.
                let dim = |rng: &mut Rng, max: usize| match rng.below(4) {
                    0 => 1 + rng.below(max as u64 + 1) as usize,
                    _ => 1 + rng.below(max.min(6) as u64) as usize,
                };
                for _ in 0..120 {
                    match rng.below(10) {
                        0..=4 => {
                            let (r, c) = (dim(&mut rng, rows), dim(&mut rng, cols));
                            let want = slow.find(r, c, true).is_some();
                            assert_eq!(fast.can_allocate(r, c), want);
                            assert_eq!(fast.clone().allocate(r, c).is_some(), want);
                            assert_eq!(fast.fits_survivors(r, c), slow.find(r, c, false).is_some());
                            assert_eq!(fast.allocate(r, c), slow.allocate(r, c));
                        }
                        5..=7 if !slow.allocated.is_empty() => {
                            let at = rng.below(slow.allocated.len() as u64) as usize;
                            let sm = slow.allocated[at];
                            fast.free(sm);
                            slow.free(sm);
                        }
                        8 => {
                            let node = rng.below((rows * cols) as u64) as usize;
                            assert_eq!(fast.is_failed(node), slow.failed[node]);
                            fast.fail_node(node);
                            slow.failed[node] = true;
                        }
                        _ => {
                            let node = rng.below((rows * cols) as u64) as usize;
                            assert_eq!(
                                fast.allocation_containing(node),
                                slow.allocation_containing(node)
                            );
                        }
                    }
                    assert_eq!(fast.free_nodes(), slow.free_nodes());
                    assert_eq!(fast.failed_nodes(), slow.failed_nodes());
                    assert_eq!(fast.allocations(), &slow.allocated[..]);
                }
                sequences += 1;
            }
        }
        assert!(sequences >= 300);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn freeing_a_frame_that_only_shares_an_anchor_panics() {
        let mut m = MeshSpace::new(4, 4);
        let a = m.allocate(2, 2).unwrap();
        m.free(SubMesh { rows: 1, ..a });
    }

    #[test]
    fn lane_map_covers_mesh_in_row_blocks() {
        let topo = Topology::Mesh2D { rows: 16, cols: 33 };
        let map = LaneMap::new(&topo, 4);
        assert_eq!(map.lanes(), 4);
        assert_eq!(map.total_nodes(), 528);
        // Contiguous, disjoint, exhaustive, row-aligned.
        let mut covered = 0;
        for l in 0..map.lanes() {
            let r = map.range(l);
            assert_eq!(r.start, covered);
            assert_eq!(r.start % 33, 0, "lane starts on a row boundary");
            for n in r.clone() {
                assert_eq!(map.lane_of(n), l);
            }
            covered = r.end;
        }
        assert_eq!(covered, 528);
    }

    #[test]
    fn lane_map_clamps_to_rows() {
        let topo = Topology::Mesh2D { rows: 3, cols: 10 };
        let map = LaneMap::new(&topo, 8);
        assert_eq!(map.lanes(), 3, "one lane per row at most");
        for l in 0..3 {
            assert_eq!(map.range(l).len(), 10, "whole rows, never split");
        }
        assert_eq!(LaneMap::new(&topo, 0).lanes(), 1, "floor of one lane");
    }

    #[test]
    fn lane_map_balances_uneven_division() {
        let topo = Topology::Mesh2D { rows: 10, cols: 4 };
        let map = LaneMap::new(&topo, 4);
        let sizes: Vec<usize> = (0..4).map(|l| map.range(l).len() / 4).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(
            sizes.iter().all(|&s| s == 2 || s == 3),
            "rows split 2/3/2/3"
        );
    }

    #[test]
    fn lane_map_single_matches_legacy_view() {
        let topo = Topology::Mesh2D { rows: 16, cols: 33 };
        let map = LaneMap::single(&topo);
        assert_eq!(map.lanes(), 1);
        assert_eq!(map.range(0), 0..528);
        assert_eq!(map.lane_of(527), 0);
    }

    #[test]
    fn lane_map_non_mesh_uses_id_blocks() {
        let topo = Topology::Hypercube { dim: 7 }; // 128 nodes
        let map = LaneMap::new(&topo, 4);
        assert_eq!(map.lanes(), 4);
        assert_eq!(map.total_nodes(), 128);
        assert_eq!(map.range(0), 0..32);
        assert_eq!(map.lane_of(127), 3);
    }

    /// The lane cut the sharded engine relies on: a fault-free route
    /// between two nodes of one lane never uses a channel whose source
    /// node another lane owns (that lane holds its reservations).
    #[test]
    fn same_lane_routes_stay_on_the_lanes_channels() {
        let topos = [
            Topology::Mesh2D { rows: 6, cols: 5 },
            Topology::Mesh2D { rows: 1, cols: 4 },
            Topology::Hypercube { dim: 3 },
            Topology::Hypercube { dim: 5 },
            Topology::Full { n: 7 },
        ];
        let (mut route, mut nbrs) = (Vec::new(), Vec::new());
        for topo in &topos {
            let mut source = vec![0; topo.links()];
            for node in 0..topo.nodes() {
                topo.neighbours(node, &mut nbrs);
                for &(_, link) in &nbrs {
                    source[link] = node;
                }
            }
            for lanes in 1..=8 {
                let map = LaneMap::new(topo, lanes);
                for a in 0..topo.nodes() {
                    for b in map.range(map.lane_of(a)) {
                        topo.route(a, b, &mut route);
                        for &l in &route {
                            assert_eq!(
                                map.lane_of(source[l]),
                                map.lane_of(a),
                                "{topo:?} at {lanes} lanes: {a}->{b} uses channel {l}"
                            );
                        }
                    }
                }
            }
        }
    }
}
