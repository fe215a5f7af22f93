//! Communicators and collective operations, built entirely on the
//! simulator's tagged point-to-point primitives — the way the Delta's NX
//! library and the early ASTA message-passing toolkits did it.
//!
//! Algorithms (all standard early-90s choices):
//! * barrier — dissemination, ⌈log₂ p⌉ rounds;
//! * broadcast / reduce — binomial tree;
//! * allreduce — recursive doubling with non-power-of-two fold;
//! * allgather — ring (bandwidth-optimal for equal blocks);
//! * alltoall — p−1 pairwise exchange steps.
//!
//! Each schedule is written once. For paper-scale modelling the
//! `*_virtual` calls run it on a timing-only [`Payload::Virtual`] byte
//! count: the same sends and receives, no arithmetic. The one virtual-only
//! algorithm is the long-message broadcast (scatter + ring allgather).

use crate::machine::Kernel;
use crate::sim::{F64s, Node, Payload};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// High bit marks collective-space tags, second bit comm-p2p tags, so user
/// tags on the raw `Node` API can never collide with comm traffic.
const COLL_BIT: u64 = 1 << 63;
const P2P_BIT: u64 = 1 << 62;

/// A group of ranks with its own tag space, like an MPI communicator.
///
/// Every member must construct the `Comm` with the same `ctx` id and the
/// same member list, and must call collectives in the same order.
pub struct Comm {
    node: Node,
    members: Rc<[usize]>,
    me: usize,
    ctx: u64,
    seq: Cell<u64>,
}

impl Comm {
    /// The world communicator: all ranks, ctx 0.
    pub fn world(node: &Node) -> Comm {
        let members: Vec<usize> = (0..node.nranks()).collect();
        Comm::new(node, members, 0)
    }

    /// Build a communicator over `members` (global ranks, strictly
    /// ascending not required but order defines member indices).
    /// The calling node must be a member.
    pub fn new(node: &Node, members: Vec<usize>, ctx: u64) -> Comm {
        assert!(ctx < (1 << 30), "ctx too large");
        let me = members
            .iter()
            .position(|&r| r == node.rank())
            .unwrap_or_else(|| panic!("rank {} not in comm {ctx}", node.rank()));
        Comm {
            node: node.clone(),
            members: Rc::from(members),
            me,
            ctx,
            seq: Cell::new(0),
        }
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This node's index within the communicator.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// Global rank of member `idx`.
    #[inline]
    pub fn global(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// The underlying node handle.
    pub fn node(&self) -> &Node {
        &self.node
    }

    fn p2p_tag(&self, tag: u64) -> u64 {
        assert!(tag < (1 << 32), "comm p2p tag too large");
        P2P_BIT | (self.ctx << 32) | tag
    }

    fn next_coll_tag(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        COLL_BIT | (self.ctx << 32) | (s & 0xFFFF_FFFF)
    }

    /// Tagged send to member `to` (member index, not global rank).
    pub async fn send(&self, to: usize, tag: u64, payload: Payload) {
        self.node
            .send(self.members[to], self.p2p_tag(tag), payload)
            .await;
    }

    pub async fn send_f64s(&self, to: usize, tag: u64, data: &[f64]) {
        self.send(to, tag, Payload::from_f64s(data)).await;
    }

    /// Tagged receive from member `from` (or any member with `None`).
    pub async fn recv(&self, from: Option<usize>, tag: u64) -> Payload {
        let src = from.map(|i| self.members[i]);
        self.node.recv(src, Some(self.p2p_tag(tag))).await.payload
    }

    pub async fn recv_f64s(&self, from: Option<usize>, tag: u64) -> F64s {
        self.recv(from, tag).await.into_f64s()
    }

    // ----- barrier ---------------------------------------------------------

    /// Dissemination barrier: no member returns until all have entered.
    pub async fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        let mut dist = 1;
        while dist < p {
            let to = (self.me + dist) % p;
            let from = (self.me + p - dist) % p;
            self.node
                .send(self.members[to], tag + dist as u64, Payload::Virtual(8))
                .await;
            self.node
                .recv(Some(self.members[from]), Some(tag + dist as u64))
                .await;
            dist <<= 1;
        }
        // Reserve every per-round tag offset we may have consumed
        // (offsets are powers of two below p).
        self.seq.set(self.seq.get() + p as u64 + 1);
    }

    // ----- broadcast -------------------------------------------------------

    /// Binomial-tree broadcast. The root passes `Some(data)`; everyone
    /// receives the payload.
    pub async fn bcast(&self, root: usize, data: Option<Arc<[f64]>>) -> Arc<[f64]> {
        let data = data.map(|d| Payload::F64(d.into()));
        self.bcast_payload(root, data).await.into_f64s().into()
    }

    /// Timing-only broadcast of `bytes`. Long messages use the
    /// scatter + ring-allgather (van de Geijn) algorithm, whose cost is
    /// ~2·bytes/bw instead of the binomial tree's log(p)·bytes/bw —
    /// the broadcast the era's LINPACK codes actually shipped.
    pub async fn bcast_virtual(&self, root: usize, bytes: u64) {
        const LONG: u64 = 32 * 1024;
        if bytes >= LONG && self.size() > 2 {
            self.bcast_virtual_vdg(root, bytes).await;
        } else {
            self.bcast_payload(root, Some(Payload::Virtual(bytes)))
                .await;
        }
    }

    /// Scatter + ring-allgather broadcast, timing-only.
    async fn bcast_virtual_vdg(&self, root: usize, bytes: u64) {
        let p = self.size();
        let tag = self.next_coll_tag();
        let relative = (self.me + p - root) % p;

        // Phase 1: binomial scatter. At distance `mask`, the parent hands
        // its child the child's subtree share of the message.
        let mut recv_mask = 1usize;
        while recv_mask < p {
            if relative & recv_mask != 0 {
                let parent = (relative - recv_mask + root) % p;
                self.node
                    .recv(Some(self.members[parent]), Some(tag + recv_mask as u64))
                    .await;
                break;
            }
            recv_mask <<= 1;
        }
        let mut mask = if recv_mask >= p {
            // Root: start from the top of the tree.
            p.next_power_of_two() / 2
        } else {
            recv_mask / 2
        };
        while mask > 0 {
            if relative & mask == 0 && relative + mask < p {
                let child = (relative + mask + root) % p;
                // Subtree under the child has min(mask, p - relative - mask) ranks.
                let subtree = mask.min(p - relative - mask) as u64;
                self.node
                    .send(
                        self.members[child],
                        tag + mask as u64,
                        Payload::Virtual((bytes * subtree / p as u64).max(1)),
                    )
                    .await;
            }
            mask >>= 1;
        }

        // Phase 2: ring allgather of the p chunks.
        let chunk = (bytes / p as u64).max(1);
        let right = (self.me + 1) % p;
        let left = (self.me + p - 1) % p;
        for k in 0..p - 1 {
            self.node
                .send(
                    self.members[right],
                    tag + (p + k) as u64,
                    Payload::Virtual(chunk),
                )
                .await;
            self.node
                .recv(Some(self.members[left]), Some(tag + (p + k) as u64))
                .await;
        }
        // Reserve the tag offsets consumed (scatter: < p; ring: p..2p-1).
        self.seq.set(self.seq.get() + 2 * p as u64 + 1);
    }

    async fn bcast_payload(&self, root: usize, data: Option<Payload>) -> Payload {
        let p = self.size();
        let tag = self.next_coll_tag();
        let relative = (self.me + p - root) % p;
        let mut payload = data;
        if p > 1 {
            // Receive from parent (if not root).
            let mut mask = 1usize;
            while mask < p {
                if relative & mask != 0 {
                    let parent = (relative - mask + root) % p;
                    let msg = self.node.recv(Some(self.members[parent]), Some(tag)).await;
                    payload = Some(msg.payload);
                    break;
                }
                mask <<= 1;
            }
            // Forward to children.
            mask >>= 1;
            while mask > 0 {
                if relative & mask == 0 && relative + mask < p {
                    let child = (relative + mask + root) % p;
                    let pl = payload
                        .as_ref()
                        .expect("bcast root must supply data")
                        .clone();
                    self.node.send(self.members[child], tag, pl).await;
                }
                mask >>= 1;
            }
        }
        payload.expect("bcast root must supply data")
    }

    // ----- reduce ----------------------------------------------------------

    /// Binomial-tree sum-reduce to `root`; returns `Some(total)` at the
    /// root, `None` elsewhere. All contributions must be equal length.
    pub async fn reduce_sum(&self, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        let p = self.size();
        let tag = self.next_coll_tag();
        let relative = (self.me + p - root) % p;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let parent = (relative - mask + root) % p;
                self.node
                    .send(self.members[parent], tag, Payload::from_f64s(&acc))
                    .await;
                return None;
            }
            let child = relative + mask;
            if child < p {
                let msg = self
                    .node
                    .recv(Some(self.members[(child + root) % p]), Some(tag))
                    .await;
                let other = msg.payload.into_f64s();
                assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                // Reduction arithmetic costs time too.
                self.node.compute(Kernel::Daxpy, acc.len() as f64).await;
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    // ----- allreduce (recursive doubling) -----------------------------------

    /// Element-wise sum allreduce.
    pub async fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        let sum = self.allreduce_with(Payload::from_f64s(data)).await;
        sum.into_f64s().to_vec()
    }

    /// Timing-only allreduce of `bytes` per message: the same schedule as
    /// [`Comm::allreduce_sum`], with no arithmetic.
    pub async fn allreduce_virtual(&self, bytes: u64) {
        self.allreduce_with(Payload::Virtual(bytes)).await;
    }

    /// Recursive-doubling allreduce with the MPICH-style fold for
    /// non-power-of-two sizes. Each member sends its running value `acc`;
    /// [`Comm::absorb`] decides what an arriving one does to it.
    async fn allreduce_with(&self, mut acc: Payload) -> Payload {
        let p = self.size();
        if p == 1 {
            return acc;
        }
        let tag = self.next_coll_tag();
        let pof2 = 1usize << p.ilog2();
        let rem = p - pof2;

        // Fold the remainder: first 2*rem ranks pair up; odd ranks send
        // their data to the even neighbour and sit out.
        let newrank: isize = if self.me < 2 * rem {
            if self.me % 2 == 1 {
                self.node
                    .send(self.members[self.me - 1], tag, acc.clone())
                    .await;
                -1
            } else {
                let msg = self
                    .node
                    .recv(Some(self.members[self.me + 1]), Some(tag))
                    .await;
                self.absorb(&mut acc, msg.payload).await;
                (self.me / 2) as isize
            }
        } else {
            (self.me - rem) as isize
        };

        // Recursive doubling among the pof2 participants.
        if let Ok(nr) = usize::try_from(newrank) {
            let to_real = |v: usize| if v < rem { 2 * v } else { v + rem };
            let mut mask = 1usize;
            while mask < pof2 {
                let partner = to_real(nr ^ mask);
                self.node
                    .send(self.members[partner], tag + mask as u64, acc.clone())
                    .await;
                let msg = self
                    .node
                    .recv(Some(self.members[partner]), Some(tag + mask as u64))
                    .await;
                self.absorb(&mut acc, msg.payload).await;
                mask <<= 1;
            }
        }

        // Unfold: even partners push the result back to the odd ranks.
        if self.me < 2 * rem {
            if self.me.is_multiple_of(2) {
                self.node
                    .send(self.members[self.me + 1], tag, acc.clone())
                    .await;
            } else {
                let msg = self
                    .node
                    .recv(Some(self.members[self.me - 1]), Some(tag))
                    .await;
                acc = msg.payload;
            }
        }
        // Reserve every per-round tag offset we may have consumed.
        self.seq.set(self.seq.get() + p as u64 + 1);
        acc
    }

    /// Add an arriving contribution into `acc`, charged as a
    /// `Kernel::Daxpy`; a timing-only `acc` ignores it.
    async fn absorb(&self, acc: &mut Payload, arrived: Payload) {
        if let Payload::F64(mine) = acc {
            let other = arrived.into_f64s();
            assert_eq!(other.len(), mine.len(), "allreduce length mismatch");
            self.node.compute(Kernel::Daxpy, mine.len() as f64).await;
            let sum: Vec<f64> = mine.iter().zip(other.iter()).map(|(x, y)| x + y).collect();
            *acc = Payload::from_f64s(&sum);
        }
    }

    /// Inclusive prefix-sum scan in member order: member `i` receives
    /// Σ_{j ≤ i} data_j. Linear chain — the scan the NX toolkits shipped.
    pub async fn scan_sum(&self, data: &[f64]) -> Vec<f64> {
        let p = self.size();
        let tag = self.next_coll_tag();
        let mut acc = data.to_vec();
        if self.me > 0 {
            let msg = self
                .node
                .recv(Some(self.members[self.me - 1]), Some(tag))
                .await;
            let prev = msg.payload.into_f64s();
            assert_eq!(prev.len(), acc.len(), "scan length mismatch");
            self.node.compute(Kernel::Daxpy, acc.len() as f64).await;
            for (a, b) in acc.iter_mut().zip(prev.iter()) {
                *a += b;
            }
        }
        if self.me + 1 < p {
            self.node
                .send(self.members[self.me + 1], tag, Payload::from_f64s(&acc))
                .await;
        }
        acc
    }

    // ----- allgather / alltoall ---------------------------------------------

    /// Ring allgather of equal-length blocks; result concatenated in
    /// member order on every member.
    pub async fn allgather(&self, data: &[f64]) -> Vec<f64> {
        let p = self.size();
        let blk = data.len();
        let tag = self.next_coll_tag();
        let mut out = vec![0.0; blk * p];
        out[self.me * blk..(self.me + 1) * blk].copy_from_slice(data);
        let right = (self.me + 1) % p;
        let left = (self.me + p - 1) % p;
        // Step k: forward the block that originated k hops to the left.
        let mut have = self.me;
        for k in 0..p.saturating_sub(1) {
            let send_block = out[have * blk..(have + 1) * blk].to_vec();
            self.node
                .send(
                    self.members[right],
                    tag + k as u64,
                    Payload::from_f64s(&send_block),
                )
                .await;
            let msg = self
                .node
                .recv(Some(self.members[left]), Some(tag + k as u64))
                .await;
            let incoming = (self.me + p - 1 - k) % p;
            let block = msg.payload.into_f64s();
            assert_eq!(block.len(), blk, "allgather length mismatch");
            out[incoming * blk..(incoming + 1) * blk].copy_from_slice(&block);
            have = incoming;
        }
        self.seq.set(self.seq.get() + p as u64);
        out
    }

    /// Pairwise-exchange all-to-all: member `i`'s chunk `j` ends up as
    /// member `j`'s result chunk `i`. Chunks may have differing lengths.
    pub async fn alltoall(&self, chunks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(chunks.len(), p, "alltoall needs one chunk per member");
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
        out[self.me] = chunks[self.me].clone();
        self.alltoall_with(
            |to| Payload::from_f64s(&chunks[to]),
            |from, chunk| out[from] = chunk.into_f64s().to_vec(),
        )
        .await;
        out
    }

    /// Timing-only all-to-all of `bytes` per pair: the same schedule as
    /// [`Comm::alltoall`].
    pub async fn alltoall_virtual(&self, bytes: u64) {
        self.alltoall_with(|_| Payload::Virtual(bytes), |_, _| {})
            .await;
    }

    /// p−1 pairwise exchange steps: at step `k` a member sends
    /// `chunk(to)` to the member `k` ahead and hands what arrives from the
    /// member `k` behind to `arrived(from, payload)`.
    async fn alltoall_with(
        &self,
        chunk: impl Fn(usize) -> Payload,
        mut arrived: impl FnMut(usize, Payload),
    ) {
        let p = self.size();
        let tag = self.next_coll_tag();
        for k in 1..p {
            let to = (self.me + k) % p;
            let from = (self.me + p - k) % p;
            self.node
                .send(self.members[to], tag + k as u64, chunk(to))
                .await;
            let msg = self
                .node
                .recv(Some(self.members[from]), Some(tag + k as u64))
                .await;
            arrived(from, msg.payload);
        }
        self.seq.set(self.seq.get() + p as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::presets;
    use crate::sim::Machine;
    use des::time::Dur;

    /// Run `f` on a 3x3 Delta (9 ranks — deliberately not a power of two).
    fn on9<T: 'static>(
        f: impl Fn(Comm) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>> + 'static,
    ) -> Vec<T> {
        let m = Machine::new(presets::delta(3, 3));
        let (out, _) = m.run(move |node| f(Comm::world(&node)));
        out
    }

    #[test]
    fn bcast_reaches_everyone() {
        let out = on9(|comm| {
            Box::pin(async move {
                let data = if comm.me() == 4 {
                    Some(Arc::from(vec![1.0, 2.0, 3.0]))
                } else {
                    None
                };
                comm.bcast(4, data).await.to_vec()
            })
        });
        for v in out {
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn reduce_sum_totals_at_root() {
        let out = on9(|comm| {
            Box::pin(async move {
                let me = comm.me() as f64;
                comm.reduce_sum(2, &[me, 2.0 * me]).await
            })
        });
        for (i, v) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(v.as_ref().unwrap(), &vec![36.0, 72.0]);
            } else {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn allreduce_sum_everywhere() {
        let out = on9(|comm| {
            Box::pin(async move {
                let me = comm.me() as f64;
                comm.allreduce_sum(&[1.0, me]).await
            })
        });
        for v in out {
            assert_eq!(v, vec![9.0, 36.0]);
        }
    }

    #[test]
    fn scan_is_inclusive_prefix_sum() {
        let out = on9(|comm| {
            Box::pin(async move {
                let me = comm.me() as f64;
                comm.scan_sum(&[1.0, me]).await
            })
        });
        for (i, v) in out.iter().enumerate() {
            let tri = (i * (i + 1) / 2) as f64;
            assert_eq!(v, &vec![(i + 1) as f64, tri], "member {i}");
        }
    }

    #[test]
    fn allgather_ring_everywhere() {
        let out = on9(|comm| {
            Box::pin(async move {
                let me = comm.me() as f64;
                comm.allgather(&[me * 100.0]).await
            })
        });
        let expect: Vec<f64> = (0..9).map(|i| i as f64 * 100.0).collect();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let out = on9(|comm| {
            Box::pin(async move {
                let me = comm.me() as f64;
                // Chunk j from member i holds [i, j].
                let chunks: Vec<Vec<f64>> = (0..comm.size()).map(|j| vec![me, j as f64]).collect();
                comm.alltoall(chunks).await
            })
        });
        for (j, got) in out.iter().enumerate() {
            for (i, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![i as f64, j as f64], "member {j} chunk {i}");
            }
        }
    }

    #[test]
    fn barrier_blocks_until_all_enter() {
        let m = Machine::new(presets::delta(3, 3));
        let (out, _) = m.run(|node| async move {
            let comm = Comm::world(&node);
            // Stagger entries by up to 80ms.
            node.delay(Dur::from_millis(10 * node.rank() as u64)).await;
            let entered = node.now();
            comm.barrier().await;
            (entered, node.now())
        });
        let last_entry = out.iter().map(|(e, _)| *e).max().unwrap();
        for (_, exit) in &out {
            assert!(
                *exit >= last_entry,
                "exit {exit} before last entry {last_entry}"
            );
        }
    }

    #[test]
    fn subcommunicators_are_isolated() {
        // Two row comms of a 2x4 machine do independent allreduces.
        let m = Machine::new(presets::delta(2, 4));
        let (out, _) = m.run(|node| async move {
            let row = node.rank() / 4;
            let members: Vec<usize> = (0..4).map(|c| row * 4 + c).collect();
            let comm = Comm::new(&node, members, 1 + row as u64);
            comm.allreduce_sum(&[node.rank() as f64]).await[0]
        });
        assert!(out[..4].iter().all(|&v| v == 6.0), "{out:?}"); // 0+1+2+3
        assert!(out[4..].iter().all(|&v| v == 22.0), "{out:?}"); // 4+5+6+7
    }

    #[test]
    fn long_broadcast_beats_binomial() {
        // The van de Geijn broadcast must be materially faster than the
        // tree for long messages on many nodes.
        let elapsed = |force_tree: bool| {
            let m = Machine::new(presets::delta(4, 4));
            let (_, r) = m.run(move |node| async move {
                let comm = Comm::world(&node);
                let bytes = 1 << 20;
                if force_tree {
                    comm.bcast_payload(0, Some(Payload::Virtual(bytes))).await;
                } else {
                    comm.bcast_virtual_vdg(0, bytes).await;
                }
            });
            r.elapsed
        };
        let vdg = elapsed(false);
        let tree = elapsed(true);
        assert!(
            vdg.as_secs_f64() < 0.7 * tree.as_secs_f64(),
            "vdg {vdg} vs tree {tree}"
        );
    }

    #[test]
    fn vdg_runs_on_odd_sizes_and_roots() {
        for (r, c) in [(1, 3), (3, 3), (2, 4), (1, 7)] {
            let m = Machine::new(presets::delta(r, c));
            let (_, report) = m.run(move |node| async move {
                let comm = Comm::world(&node);
                let root = comm.size() - 1;
                comm.bcast_virtual(root, 1 << 20).await;
                // A second collective must not collide with vdg's tags.
                comm.barrier().await;
            });
            assert!(report.messages > 0, "{r}x{c}");
        }
    }

    #[test]
    fn collective_timing_is_pinned() {
        // `(elapsed ns, events, messages, bytes)` of one collective alone on
        // a Delta of p = 1, 2, 3, 5, 6, 8, 9 nodes; 3, 5, 6 and 9 take the
        // non-power-of-two fold. A real and a timing-only run of equal
        // bytes share one schedule: only the allreduce's sums add time.
        let shapes = [(1, 1), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 3)];
        type Op = fn(Comm) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>;
        let cost = |op: Op| -> Vec<(u64, u64, u64, u64)> {
            shapes
                .iter()
                .map(|&(r, c)| {
                    let m = Machine::new(presets::delta(r, c));
                    let (_, rep) = m.run(move |node| op(Comm::world(&node)));
                    (rep.elapsed.nanos(), rep.events, rep.messages, rep.bytes)
                })
                .collect()
        };
        let allreduce_virtual =
            cost(|comm| Box::pin(async move { comm.allreduce_virtual(64).await }));
        let allreduce_sum = cost(|comm| {
            Box::pin(async move {
                comm.allreduce_sum(&[comm.me() as f64; 8]).await;
            })
        });
        let alltoall_virtual =
            cost(|comm| Box::pin(async move { comm.alltoall_virtual(4096).await }));
        let alltoall = cost(|comm| {
            Box::pin(async move {
                let chunks = (0..comm.size()).map(|j| vec![j as f64; 512]).collect();
                comm.alltoall(chunks).await;
            })
        });
        assert_eq!(
            allreduce_virtual,
            [
                (0, 0, 0, 0),
                (82_860, 6, 2, 128),
                (238_884, 12, 4, 256),
                (312_048, 30, 10, 640),
                (322_644, 36, 12, 768),
                (252_040, 72, 24, 1536),
                (385_212, 78, 26, 1664),
            ]
        );
        assert_eq!(
            allreduce_sum,
            [
                (0, 0, 0, 0),
                (83_685, 8, 2, 128),
                (240_534, 15, 4, 256),
                (314_523, 39, 10, 640),
                (325_119, 46, 12, 768),
                (254_515, 96, 24, 1536),
                (388_512, 103, 26, 1664),
            ]
        );
        let pairwise = [
            (0, 0, 0, 0),
            (244_140, 6, 2, 8192),
            (488_880, 18, 6, 24_576),
            (1_227_540, 60, 20, 81_920),
            (1_222_500, 90, 30, 122_880),
            (1_960_560, 168, 56, 229_376),
            (1_957_320, 216, 72, 294_912),
        ];
        assert_eq!(alltoall_virtual, pairwise);
        assert_eq!(alltoall, pairwise);
    }

    #[test]
    fn power_of_two_and_odd_sizes_agree() {
        for (r, c) in [(1, 2), (1, 3), (2, 2), (1, 5), (2, 3), (2, 4), (3, 3)] {
            let m = Machine::new(presets::delta(r, c));
            let p = r * c;
            let (out, _) = m.run(|node| async move {
                let comm = Comm::world(&node);
                comm.allreduce_sum(&[1.0]).await[0]
            });
            assert!(out.iter().all(|&v| v == p as f64), "p={p}: {out:?}");
        }
    }
}
