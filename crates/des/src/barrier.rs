//! The barrier between the windows of a lane-parallel run.
//!
//! A conservative parallel simulation meets at a barrier a few times per
//! window, and a window is tens of microseconds of work: a barrier that
//! sleeps in the kernel (`std::sync::Barrier` is a `Mutex` + `Condvar`)
//! spends more on the wake-up than the window spent on events.
//! [`WindowBarrier`] makes the common case memory traffic: a waiter
//! spins on a generation counter for about a window's worth of time and
//! parks on a `Condvar` only after that — or at once when the barrier
//! has more parties than the host has CPUs ([`host_cores`]), where
//! spinning would only keep the peer it waits for off the core.
//!
//! The core count says nothing about who else is using the cores. A spin
//! that runs out is taken as the sign that the peer is not on a CPU at
//! all, and the next waits park at once — one, then 4, 16, 64 while
//! spins keep running out, and none again after the first spin that is
//! answered. Parking feeds itself, though: a parked peer wakes late (a
//! few hundred µs when the wake-up goes through a busy hypervisor), so
//! the spin that follows a streak waits for a peer that is late
//! *because* it parked. That spin therefore gets five times the budget;
//! with the same 200 µs a 633-window run was seen to stay parked from
//! end to end (140 ms against 65).
//!
//! Measured on the 2-CPU development host with the 528-node halo run
//! (≈ 100 µs windows, 146 waits a run), median run: alone, 6–9 ms
//! against 10–14 ms for a barrier that always parks; beside one
//! busy-looping process 16 ms against 13 ms, where spinning
//! unconditionally took 39–47 ms against 15–19. A `yield_now` phase
//! between spinning and parking made the contended case worse (30–32 ms:
//! the yielded core goes to the stranger, not the peer) and the other no
//! better, so there is none. It also hides the worst case from the
//! streak: with both lane threads confined to one CPU behind a barrier
//! told there are two, a 633-window run takes 128–159 ms with the streak
//! (one lane alone: 115–137 ms) and 353–397 ms when a yield that lets
//! the peer through counts as an answered spin.
//!
//! ## Ordering
//!
//! Every atomic access the protocol rests on is `SeqCst`. Arrivals are
//! read-modify-writes of one counter, so the last arriver (the *leader*)
//! has observed every earlier one; it then advances the generation,
//! which each waiter reads before it returns. Hence everything any party
//! wrote before its `wait()` happens-before everything any party reads
//! after the same `wait()` returns — the property the callers' plain
//! `Relaxed` or lock-free per-party slots rely on.
//!
//! No wake-up is lost: a parker raises `sleepers` and then re-reads the
//! generation, both under the park lock; the leader advances the
//! generation and then reads `sleepers`. In the single total order of
//! those four accesses either the parker sees the new generation and
//! does not sleep, or the leader sees the sleeper, and its notification
//! then has to take the park lock — which the parker gives up only
//! inside `Condvar::wait`.

use std::any::Any;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// CPUs this process may run on, read once: on Linux the query is a
/// `sched_getaffinity` plus two cgroup file reads, tens of microseconds
/// a call. An affinity mask set before the process starts (`taskset`)
/// is honoured; one changed later is not seen.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Payload of the panic [`WindowBarrier::wait`] raises in the parties a
/// panicking peer left behind.
pub const PEER_PANICKED: &str = "peer lane panicked";

/// A waiter spins this long — the order of one window of the mesh
/// engine's smallest benchmark — before it parks…
const SPIN_FOR: Duration = Duration::from_micros(200);
/// …and this long when it is the first to spin after a streak of parked
/// waits: its peer is only now waking up.
const SPIN_AFTER_PARKS_FOR: Duration = Duration::from_millis(1);
/// Longest run of waits that park at once after spins that ran out.
const MAX_PARK_STREAK: u32 = 64;
/// Looks at the generation counter (a pause instruction apart) between
/// two looks at the clock.
const LOOKS_PER_CLOCK_READ: u32 = 32;

/// On a cache line of its own: spinners re-read the generation while
/// arrivals write the count.
#[repr(align(128))]
struct Padded<T>(T);

/// A reusable barrier for a fixed number of parties that spins before it
/// sleeps, tells one party per generation it is the leader, and can be
/// poisoned so that a party that dies does not strand the rest.
pub struct WindowBarrier {
    parties: usize,
    /// Waiters spin before parking; false parks at once.
    spins: bool,
    /// Completed generations. Written by the leader alone.
    generation: Padded<AtomicU64>,
    /// Parties that have arrived in the current generation.
    arrived: Padded<AtomicUsize>,
    /// A party unwound: nobody will complete the current generation.
    poisoned: AtomicBool,
    /// Waiters inside the park section, so that the leader takes the
    /// lock and notifies only when there is somebody to wake.
    sleepers: AtomicUsize,
    /// Waits still to park at once, and the length of the streak they
    /// belong to (see the module doc). `Relaxed`: a heuristic that
    /// publishes no data — a stale value costs one spin or one park.
    parks_left: AtomicU32,
    park_streak: AtomicU32,
    park: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    /// A barrier for `parties` threads. Its waiters spin before parking
    /// when the host has a CPU for each of them.
    pub fn new(parties: usize) -> WindowBarrier {
        WindowBarrier::with_spin(parties, parties <= host_cores())
    }

    fn with_spin(parties: usize, spins: bool) -> WindowBarrier {
        assert!(parties > 0, "a barrier needs a party");
        WindowBarrier {
            parties,
            spins,
            generation: Padded(AtomicU64::new(0)),
            arrived: Padded(AtomicUsize::new(0)),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            parks_left: AtomicU32::new(0),
            park_streak: AtomicU32::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until every party has called `wait`; true for exactly one
    /// of them (the last to arrive). A one-party barrier returns at once.
    ///
    /// # Panics
    ///
    /// With the payload [`PEER_PANICKED`] when a party holding a
    /// [`PoisonOnPanic`] guard has unwound, now or earlier: the
    /// generation this call waits for can never complete.
    pub fn wait(&self) -> bool {
        if self.parties == 1 {
            return true;
        }
        if self.poisoned.load(SeqCst) {
            std::panic::panic_any(PEER_PANICKED);
        }
        // Stable until this party arrives: the generation cannot advance
        // without it.
        let gen = self.generation.0.load(SeqCst);
        if self.arrived.0.fetch_add(1, SeqCst) + 1 == self.parties {
            // Nobody arrives for the next generation before it has seen
            // this one complete, so the reset is not raced.
            self.arrived.0.store(0, SeqCst);
            self.generation.0.store(gen + 1, SeqCst);
            if self.sleepers.load(SeqCst) > 0 {
                drop(self.park_lock());
                self.wake.notify_all();
            }
            return true;
        }
        self.await_release(gen);
        if self.generation.0.load(SeqCst) == gen {
            std::panic::panic_any(PEER_PANICKED);
        }
        false
    }

    /// A guard that poisons the barrier if it is dropped by a panic
    /// unwinding through its holder. Every party holds one for as long
    /// as its peers may wait for it.
    pub fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }

    /// Whether a caught panic payload is the [`PEER_PANICKED`] echo of
    /// another party's panic rather than a panic of its own.
    pub fn is_peer_panic(payload: &(dyn Any + Send)) -> bool {
        payload.downcast_ref::<&str>() == Some(&PEER_PANICKED)
    }

    fn released(&self, gen: u64) -> bool {
        self.generation.0.load(SeqCst) != gen || self.poisoned.load(SeqCst)
    }

    fn await_release(&self, gen: u64) {
        if self.spins && self.spin(gen) {
            return;
        }
        let mut guard = self.park_lock();
        self.sleepers.fetch_add(1, SeqCst);
        while !self.released(gen) {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Spin until released (true) or until the budget runs out or a park
    /// streak says not to spin at all (false: park).
    fn spin(&self, gen: u64) -> bool {
        let take_turn = |left: u32| left.checked_sub(1);
        if self
            .parks_left
            .fetch_update(Relaxed, Relaxed, take_turn)
            .is_ok()
        {
            return false;
        }
        let streak = self.park_streak.load(Relaxed);
        let budget = match streak {
            0 => SPIN_FOR,
            _ => SPIN_AFTER_PARKS_FOR,
        };
        let mut since = None;
        loop {
            for _ in 0..LOOKS_PER_CLOCK_READ {
                if self.released(gen) {
                    if streak != 0 {
                        self.park_streak.store(0, Relaxed);
                    }
                    return true;
                }
                std::hint::spin_loop();
            }
            if since.get_or_insert_with(Instant::now).elapsed() >= budget {
                break;
            }
        }
        let streak = (4 * streak).clamp(1, MAX_PARK_STREAK);
        self.park_streak.store(streak, Relaxed);
        self.parks_left.store(streak, Relaxed);
        false
    }

    /// The lock guards no data — it only orders a parker's last look at
    /// the generation against the notification — so a poisoned one is as
    /// good as a clean one.
    fn park_lock(&self) -> MutexGuard<'_, ()> {
        self.park.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        drop(self.park_lock());
        self.wake.notify_all();
    }
}

/// See [`WindowBarrier::poison_on_panic`].
pub struct PoisonOnPanic<'a>(&'a WindowBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Seeded scheduling noise at a phase edge: mostly nothing, often a
    /// yield, now and then a sleep long enough to run the peers' spins
    /// out and start a streak of parked waits.
    fn jitter(rng: &mut Rng) {
        match rng.below(64) {
            0 => std::thread::sleep(Duration::from_micros(rng.below(1_500))),
            1..=24 => std::thread::yield_now(),
            _ => {}
        }
    }

    /// The engine's protocol, two waits per generation: a party writes
    /// its own slot (`Relaxed` — the barrier is the only ordering) before
    /// the first wait and reads every peer's after it; the second wait
    /// keeps the next generation's writes behind this one's reads.
    /// Leaders tally the same way: counted in one phase, checked by all
    /// in the next, so two leaders (or none) in any single wait fail.
    fn stress(parties: usize, spins: bool, generations: u64, seed: u64) {
        let barrier = WindowBarrier::with_spin(parties, spins);
        let slots: Vec<AtomicU64> = (0..parties).map(|_| AtomicU64::new(0)).collect();
        let (led_first, led_second) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for me in 0..parties {
                let (barrier, slots) = (&barrier, &slots);
                let (led_first, led_second) = (&led_first, &led_second);
                s.spawn(move || {
                    let _poison = barrier.poison_on_panic();
                    let mut rng = Rng::new(seed ^ ((me as u64) << 32));
                    for g in 1..=generations {
                        jitter(&mut rng);
                        slots[me].store(g, Relaxed);
                        if barrier.wait() {
                            led_first.fetch_add(1, Relaxed);
                        }
                        jitter(&mut rng);
                        for (peer, slot) in slots.iter().enumerate() {
                            assert_eq!(slot.load(Relaxed), g, "party {me} reads {peer}");
                        }
                        assert_eq!(led_second.load(Relaxed), g - 1, "second wait of {}", g - 1);
                        if barrier.wait() {
                            led_second.fetch_add(1, Relaxed);
                        }
                        assert_eq!(led_first.load(Relaxed), g, "first wait of {g}");
                    }
                });
            }
        });
        assert_eq!(led_second.load(Relaxed), generations);
    }

    #[test]
    fn one_party_never_blocks() {
        let barrier = WindowBarrier::new(1);
        assert!((0..3).all(|_| barrier.wait()));
    }

    /// Spinning waiters: as many parties as the host has CPUs for, and
    /// more (the spinners then hold the CPU their peer needs until their
    /// spin runs out, and the park streak takes over).
    #[test]
    fn spinning_waiters_see_every_peers_writes() {
        stress(2, true, 4_000, 0x51);
        stress(3, true, 1_500, 0x52);
        stress(4, true, 1_500, 0x53);
    }

    /// Zero spin budget: every wait that is not the leader's goes through
    /// the park lock and the condition variable.
    #[test]
    fn parking_waiters_see_every_peers_writes() {
        stress(2, false, 4_000, 0x61);
        stress(3, false, 3_000, 0x62);
        stress(4, false, 3_000, 0x63);
    }

    /// `new` picks between the two above.
    #[test]
    fn spin_or_park_follows_the_core_count() {
        let cores = host_cores();
        assert!(WindowBarrier::new(cores).spins);
        assert!(!WindowBarrier::new(cores + 1).spins);
    }

    /// A spin that runs out starts a streak of waits that park at once,
    /// four times as long when the next spin runs out too. The late party
    /// arrives only after it has seen its peer arrive and slept through
    /// the longest spin budget many times over.
    #[test]
    fn a_spin_that_runs_out_starts_a_park_streak() {
        let barrier = WindowBarrier::with_spin(2, true);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    while barrier.arrived.0.load(SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(10 * SPIN_AFTER_PARKS_FOR);
                    assert!(barrier.wait(), "the late party leads");
                }
            });
            // Spin runs out; park at once; spin runs out again.
            for streak_and_left in [(1, 1), (1, 0), (4, 4)] {
                assert!(!barrier.wait());
                let now = (&barrier.park_streak, &barrier.parks_left);
                assert_eq!((now.0.load(Relaxed), now.1.load(Relaxed)), streak_and_left);
            }
        });
    }

    /// A party that panics mid-run releases its waiting peers, spinning
    /// or parked, and each of them panics with [`PEER_PANICKED`]; so does
    /// a party that reaches the barrier afterwards.
    #[test]
    fn a_panicking_party_releases_the_others() {
        for spins in [true, false] {
            let parties = 3;
            let barrier = WindowBarrier::with_spin(parties, spins);
            let outcomes: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..parties)
                    .map(|me| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let _poison = barrier.poison_on_panic();
                            for g in 0..10 {
                                assert!(me != 0 || g < 5, "party 0 gives up");
                                barrier.wait();
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for (me, outcome) in outcomes.iter().enumerate() {
                let payload = outcome.as_ref().expect_err("nobody completes ten waits");
                assert_eq!(
                    WindowBarrier::is_peer_panic(payload.as_ref()),
                    me != 0,
                    "party {me}, spins={spins}"
                );
            }
            let late = std::panic::catch_unwind(|| barrier.wait()).expect_err("poisoned");
            assert!(WindowBarrier::is_peer_panic(late.as_ref()));
        }
    }
}
