//! The event calendar: a time-ordered priority queue with deterministic
//! FIFO tie-breaking.
//!
//! Events scheduled for the same instant pop in the order they were pushed
//! (a monotone sequence number breaks ties), which makes whole-simulation
//! runs bit-reproducible regardless of heap internals.
//!
//! A simulator that arms the same delay over and over (a message
//! library's fixed send and receive overheads) can declare those delays
//! with [`EventQueue::with_fixed_delays`]. An event scheduled exactly one
//! such delay after the current clock skips the heap and is appended to
//! that delay's FIFO lane. The clock never goes backwards and sequence
//! numbers only grow, so every lane is already sorted by `(at, seq)` as
//! it is appended; taking the least of the heap top and the lane fronts
//! pops exactly the order one heap would. A queue without lanes takes
//! one `is_empty` test and then the plain heap path.

use crate::time::{Dur, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The events scheduled exactly `delay` after the clock of their
/// `schedule` call, in the order they were scheduled — which is also
/// their `(at, seq)` order.
struct Lane<E> {
    delay: Dur,
    fifo: VecDeque<Entry<E>>,
}

/// A future-event list. `pop` advances the clock; scheduling into the past
/// is a logic error and panics.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// One lane per distinct declared delay; empty for a plain heap.
    lanes: Vec<Lane<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// A calendar pre-sized for `cap` in-flight events, so the steady
    /// state of a simulation never regrows the heap. Simulators that
    /// know their population (e.g. one outstanding event per node) should
    /// prefer this over [`EventQueue::new`].
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Give each distinct delay in `delays` a FIFO lane, pre-sized like
    /// the heap. From then on an event scheduled exactly one of these
    /// delays after the clock bypasses the heap; the pop order is the
    /// same as without lanes. Declare only delays the owner arms over
    /// and over: each lane adds a compare to every `schedule` and to
    /// every `pop`.
    pub fn with_fixed_delays(mut self, delays: &[Dur]) -> Self {
        let cap = self.heap.capacity();
        for &delay in delays {
            if self.lanes.iter().all(|l| l.delay != delay) {
                self.lanes.push(Lane {
                    delay,
                    fifo: VecDeque::with_capacity(cap),
                });
            }
        }
        self
    }

    /// Events the heap can hold before reallocating (each lane is
    /// pre-sized to the same count).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.fifo.len()).sum::<usize>()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(|l| l.fifo.is_empty())
    }

    /// Total events ever popped — a cheap progress metric.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at` (must not be in the past).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.lanes.is_empty() {
            self.heap.push(Reverse(entry));
        } else {
            self.schedule_laned(entry);
        }
    }

    /// [`EventQueue::schedule`] on a queue with lanes, kept out of line so
    /// that a lane-less queue's hot path stays the plain heap push.
    #[inline(never)]
    fn schedule_laned(&mut self, entry: Entry<E>) {
        let delay = entry.at - self.now;
        match self.lanes.iter_mut().find(|l| l.delay == delay) {
            Some(lane) => lane.fifo.push_back(entry),
            None => self.heap.push(Reverse(entry)),
        }
    }

    /// Schedule `event` at `now + delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: Dur, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Move the clock to `at` without popping: the caller handled an
    /// event of its own (one it keeps outside the calendar) at that time,
    /// which must not lie beyond the next queued event.
    #[inline]
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now && self.peek_time().is_none_or(|next| at <= next));
        self.now = at;
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lanes.is_empty() {
            self.heap.peek().map(|Reverse(e)| e.at)
        } else {
            self.earliest_laned().map(|(_, at)| at)
        }
    }

    /// Where the earliest pending event of a queue with lanes sits —
    /// `None` for the heap top, `Some(i)` for the front of lane `i` —
    /// and its timestamp; `None` when nothing is pending.
    #[inline(never)]
    fn earliest_laned(&self) -> Option<(Option<usize>, SimTime)> {
        let mut best = self.heap.peek().map(|Reverse(e)| (None, e.key()));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.fifo.front() {
                if best.is_none_or(|(_, key)| e.key() < key) {
                    best = Some((Some(i), e.key()));
                }
            }
        }
        best.map(|(src, (at, _))| (src, at))
    }

    /// [`EventQueue::pop`]'s take on a queue with lanes.
    #[inline(never)]
    fn pop_laned(&mut self) -> Option<Entry<E>> {
        match self.earliest_laned()?.0 {
            None => self.heap.pop().map(|Reverse(e)| e),
            Some(i) => self.lanes[i].fifo.pop_front(),
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.lanes.is_empty() {
            self.heap.pop()?.0
        } else {
            self.pop_laned()?
        };
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.event))
    }

    /// Pop the earliest event only if it is strictly before `horizon`.
    ///
    /// This is the primitive of conservative parallel simulation: a lane
    /// may safely process every local event below the cross-lane message
    /// horizon, and must stop there. Events at or past the horizon stay
    /// queued and the clock does not advance.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? < horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.fifo.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), "first");
        q.pop();
        q.schedule_in(Dur(50), "later");
        assert_eq!(q.peek_time(), Some(SimTime(150)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn advance_to_moves_the_clock_but_pops_nothing() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.advance_to(SimTime(60));
        assert_eq!(
            (q.now(), q.len(), q.events_processed()),
            (SimTime(60), 1, 0)
        );
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 10);
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_presizes() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let cap = q.capacity();
        for i in 0..64u64 {
            q.schedule(SimTime(i), i as u32);
        }
        assert_eq!(q.capacity(), cap, "no regrowth within capacity");
        assert_eq!(q.pop(), Some((SimTime(0), 0)));
    }

    /// Seeded mixes of every mutating call, applied to a queue with lanes
    /// and to a lane-less reference: every pop, peek, length and count
    /// must agree. The delays include both lane delays, zero, and small
    /// steps that land heap events on the same instant as lane events,
    /// where only the sequence number orders them.
    #[test]
    fn lanes_pop_exactly_the_heap_order() {
        use crate::rng::Rng;
        const LANES: [u64; 2] = [25, 40];
        const DELAYS: [u64; 9] = [0, 5, 10, 15, 25, 25, 40, 40, 65];
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut reference = EventQueue::new();
            let mut laned = EventQueue::with_capacity(16).with_fixed_delays(&LANES.map(Dur));
            let mut id = 0u64;
            for step in 0..2_000 {
                let now = reference.now();
                let peek = reference.peek_time();
                match rng.below(100) {
                    0..=29 => {
                        let at = now + Dur(*rng.choose(&DELAYS));
                        reference.schedule(at, id);
                        laned.schedule(at, id);
                        id += 1;
                    }
                    30..=49 => {
                        let d = Dur(*rng.choose(&DELAYS));
                        reference.schedule_in(d, id);
                        laned.schedule_in(d, id);
                        id += 1;
                    }
                    50..=79 => assert_eq!(laned.pop(), reference.pop(), "seed {seed} step {step}"),
                    80..=93 => {
                        let horizon = now + Dur(*rng.choose(&DELAYS));
                        assert_eq!(
                            laned.pop_before(horizon),
                            reference.pop_before(horizon),
                            "seed {seed} step {step}"
                        );
                    }
                    94..=98 => {
                        let room = peek.map_or(50, |next| next.0 - now.0);
                        let at = now + Dur(rng.below(room + 1));
                        reference.advance_to(at);
                        laned.advance_to(at);
                    }
                    _ => {
                        reference.clear();
                        laned.clear();
                    }
                }
                assert_eq!(
                    laned.peek_time(),
                    reference.peek_time(),
                    "seed {seed} step {step}"
                );
                assert_eq!(laned.len(), reference.len());
                assert_eq!(laned.is_empty(), reference.is_empty());
                assert_eq!(laned.now(), reference.now());
                assert_eq!(laned.events_processed(), reference.events_processed());
            }
            while let Some(popped) = reference.pop() {
                assert_eq!(laned.pop(), Some(popped), "seed {seed} drain");
            }
            assert!(laned.is_empty() && laned.pop().is_none());
        }
    }

    #[test]
    fn equal_delays_share_one_lane() {
        let lanes = |ds: &[Dur]| EventQueue::<()>::new().with_fixed_delays(ds).lanes.len();
        // A host whose send and receive overheads are equal (1 µs / 1 µs,
        // or 1 ns / 1 ns) gets one lane, not two.
        assert_eq!(lanes(&[Dur::from_micros(1), Dur::from_micros(1)]), 1);
        assert_eq!(lanes(&[Dur::from_nanos(1), Dur::from_nanos(1)]), 1);
        assert_eq!(lanes(&[Dur::from_micros(47), Dur::from_micros(25)]), 2);
        assert_eq!(lanes(&[]), 0);
    }

    #[test]
    fn a_lane_within_capacity_never_regrows() {
        let d = Dur(10);
        let mut q = EventQueue::with_capacity(8).with_fixed_delays(&[d]);
        let cap = q.lanes[0].fifo.capacity();
        assert!(cap >= 8);
        // Keep the lane between empty and full while its ring wraps.
        for round in 0..100u32 {
            for i in 0..8 {
                q.schedule_in(d, round * 8 + i);
            }
            assert_eq!(q.heap.len(), 0, "every event took the lane");
            for _ in 0..8 {
                q.pop();
            }
        }
        assert_eq!(q.lanes[0].fifo.capacity(), cap);
        assert_eq!(q.events_processed(), 800);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(99), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime(10));
    }
}
