//! The event calendar: a time-ordered priority queue with deterministic
//! FIFO tie-breaking.
//!
//! Events scheduled for the same instant pop in the order they were pushed
//! (a monotone sequence number breaks ties), which makes whole-simulation
//! runs bit-reproducible regardless of heap internals.

use crate::time::{Dur, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A future-event list. `pop` advances the clock; scheduling into the past
/// is a logic error and panics.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
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
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Events the calendar can hold before reallocating.
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
        self.heap.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
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
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
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
