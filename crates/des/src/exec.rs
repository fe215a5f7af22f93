//! A cooperative, single-threaded task executor for simulated processes.
//!
//! Simulated node programs are ordinary `async fn`s. Awaiting a simulator
//! operation parks the task; when the operation's event fires the
//! embedding simulator, which knows which task the event resumes,
//! re-queues it by id through [`LaneTasks::wake`]. The task's [`Waker`]
//! does the same for [`yield_now`] and any foreign future. Exactly one
//! task runs at a time and the ready queue is FIFO across both paths, so
//! execution is deterministic.
//!
//! This is the mechanism that lets the Touchstone Delta simulator run 528
//! "node programs" without 528 OS threads.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};

/// Identifies a spawned task within one [`LaneTasks`] executor.
pub type TaskId = usize;

/// Where [`Waker`]s queue their task. `Waker` must be `Send + Sync`, so
/// this side of the ready queue sits behind a mutex; the executor moves
/// its contents into its own unlocked queue before it polls anything.
#[derive(Default)]
struct WakeQueue {
    queue: Mutex<VecDeque<TaskId>>,
    /// Set (`Release`) under the lock after every push, cleared under the
    /// lock by the executor's drain and read (`Acquire`) by the executor
    /// before it locks: with no waker fired since the last drain, the
    /// dispatch hot path costs one load and takes no lock.
    pending: AtomicBool,
}

impl WakeQueue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<TaskId>> {
        self.queue
            .lock()
            .expect("wake queue poisoned: a waker panicked mid-push")
    }
}

struct TaskWaker {
    woken: Arc<WakeQueue>,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut q = self.woken.lock();
        q.push_back(self.id);
        self.woken.pending.store(true, Ordering::Release);
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// The task set: spawn futures, then alternate `run_ready()` with event
/// processing in the embedding simulator's main loop. The single-queue
/// engine runs one for the whole machine, the sharded engine one per
/// event lane, so lanes never share a ready queue.
///
/// Each task's [`Waker`] is built once at spawn and reused for every
/// poll, and the run queue is a plain `VecDeque` owned by the executor:
/// spawning, [`LaneTasks::wake`] and polling allocate nothing and take
/// no lock. Only a fired `Waker` goes through the shared `WakeQueue`.
pub struct LaneTasks {
    slots: Vec<Option<BoxedTask>>,
    wakers: Vec<Waker>,
    woken: Arc<WakeQueue>,
    /// The run queue. Everything in it was queued before anything still
    /// in `woken` — `spawn` and `wake` drain `woken` first — so popping
    /// it to empty and only then draining again is global FIFO order.
    ready: VecDeque<TaskId>,
    live: usize,
    polls: u64,
}

impl Default for LaneTasks {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneTasks {
    pub fn new() -> LaneTasks {
        LaneTasks::with_capacity(0)
    }

    /// An executor pre-sized for `cap` tasks (one per node it owns).
    pub fn with_capacity(cap: usize) -> LaneTasks {
        LaneTasks {
            slots: Vec::with_capacity(cap),
            wakers: Vec::with_capacity(cap),
            woken: Arc::new(WakeQueue::default()),
            ready: VecDeque::with_capacity(cap),
            live: 0,
            polls: 0,
        }
    }

    /// Spawn a task; it will run on the next `run_ready()`. Ids are local
    /// to this executor.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let id = self.slots.len();
        self.slots.push(Some(Box::pin(fut)));
        self.wakers.push(Waker::from(Arc::new(TaskWaker {
            woken: Arc::clone(&self.woken),
            id,
        })));
        self.live += 1;
        self.wake(id);
        id
    }

    /// Queue task `id` to run — what its [`Waker`] does, minus the waker
    /// clone/drop and the lock. For the embedding simulator's dispatch
    /// loop, which knows which task an event resumes. Waking a finished
    /// or aborted task is harmless.
    #[inline]
    pub fn wake(&mut self, id: TaskId) {
        self.drain_woken();
        self.ready.push_back(id);
    }

    /// Move everything wakers queued since the last drain behind the run
    /// queue. `append` leaves the shared deque's buffer in place, so the
    /// steady state allocates nothing.
    #[inline]
    fn drain_woken(&mut self) {
        if self.woken.pending.load(Ordering::Acquire) {
            let mut q = self.woken.lock();
            self.woken.pending.store(false, Ordering::Relaxed);
            self.ready.append(&mut q);
        }
    }

    /// Number of tasks that have not yet completed.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True once every spawned task has run to completion.
    #[inline]
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Total poll calls — a progress/diagnostic counter.
    #[inline]
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Number of tasks queued to run — the executor's ready-queue depth,
    /// sampled by the trace layer alongside the event-queue depth.
    pub fn ready_len(&self) -> usize {
        self.ready.len() + self.woken.lock().len()
    }

    /// Abort a live task: drop its future without running it further.
    /// Returns true if the task was live. Stale wakes already queued for
    /// the id are drained here so later `run_ready` passes never touch
    /// them. This is how the embedding simulator kills the program of a
    /// crashed node.
    pub fn abort(&mut self, id: TaskId) -> bool {
        match self.slots.get_mut(id).and_then(Option::take) {
            Some(_fut) => {
                self.live -= 1;
                self.drain_woken();
                self.ready.retain(|&q| q != id);
                true
            }
            None => false,
        }
    }

    /// Poll every ready task until the ready queue drains. Returns the
    /// number of polls performed. Tasks woken while running are processed
    /// in the same call (FIFO), so this returns only at a quiescent point
    /// where every live task is parked on a simulator event.
    pub fn run_ready(&mut self) -> u64 {
        let start = self.polls;
        loop {
            self.drain_woken();
            if self.ready.is_empty() {
                break;
            }
            while let Some(id) = self.ready.pop_front() {
                // A task may be woken after it finished; skip silently.
                let Some(mut fut) = self.slots[id].take() else {
                    continue;
                };
                let mut cx = Context::from_waker(&self.wakers[id]);
                self.polls += 1;
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        self.live -= 1;
                    }
                    Poll::Pending => {
                        self.slots[id] = Some(fut);
                    }
                }
            }
        }
        self.polls - start
    }
}

/// Yield control back to the executor once (the task is immediately
/// re-queued). Useful for fairness in tight simulated loops.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn task_runs_to_completion() {
        let mut tasks = LaneTasks::new();
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        tasks.spawn(async move {
            *h.borrow_mut() = true;
        });
        assert_eq!(tasks.live(), 1);
        tasks.run_ready();
        assert!(*hit.borrow());
        assert!(tasks.all_done());
    }

    #[test]
    fn waker_parks_and_resumes() {
        let mut tasks = LaneTasks::new();
        let gate = Gate::default();
        let out = Rc::new(RefCell::new(false));
        let (g, o2) = (gate.clone(), Rc::clone(&out));
        tasks.spawn(async move {
            g.await;
            *o2.borrow_mut() = true;
        });
        tasks.run_ready();
        assert!(!tasks.all_done(), "task parked on the gate");
        assert!(!*out.borrow());
        gate.open();
        tasks.run_ready();
        assert!(tasks.all_done());
        assert!(*out.borrow());
    }

    #[test]
    fn many_tasks_fifo_deterministic() {
        let mut tasks = LaneTasks::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let l = Rc::clone(&log);
            tasks.spawn(async move {
                l.borrow_mut().push(i);
            });
        }
        tasks.run_ready();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn yield_now_interleaves() {
        let mut tasks = LaneTasks::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let l = Rc::clone(&log);
            tasks.spawn(async move {
                l.borrow_mut().push(format!("{name}1"));
                yield_now().await;
                l.borrow_mut().push(format!("{name}2"));
            });
        }
        tasks.run_ready();
        assert_eq!(*log.borrow(), ["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn wake_after_completion_is_ignored() {
        let mut tasks = LaneTasks::new();
        let gate = Gate::default();
        let id = tasks.spawn(gate.clone());
        tasks.run_ready();
        let waker = gate.0.borrow().1.clone().expect("parked on the gate");
        gate.open();
        tasks.run_ready();
        assert!(tasks.all_done());
        // Late spurious wakes of a finished task: silently skipped.
        waker.wake();
        tasks.wake(id);
        assert_eq!(tasks.run_ready(), 0, "no polls for spurious wakes");
    }

    #[test]
    fn thousands_of_tasks() {
        // The Delta needs 528; make sure an order of magnitude more is fine.
        let mut tasks = LaneTasks::new();
        let done = Rc::new(RefCell::new(0usize));
        let gate = Gate::default();
        for _ in 0..5000 {
            let d = Rc::clone(&done);
            let g = gate.clone();
            tasks.spawn(async move {
                // All tasks spin on one shared gate...
                while !g.is_open() {
                    yield_now().await;
                }
                *d.borrow_mut() += 1;
            });
        }
        gate.open();
        tasks.run_ready();
        assert!(tasks.all_done());
        assert_eq!(*done.borrow(), 5000);
    }

    #[test]
    fn abort_drops_a_parked_task() {
        let mut tasks = LaneTasks::new();
        let gate = Gate::default();
        let g = gate.clone();
        let out = Rc::new(RefCell::new(false));
        let o2 = Rc::clone(&out);
        let id = tasks.spawn(async move {
            g.await;
            *o2.borrow_mut() = true;
        });
        tasks.run_ready();
        assert!(tasks.abort(id), "task was live");
        assert!(tasks.all_done());
        assert!(!tasks.abort(id), "second abort is a no-op");
        // The wake after death must be harmless and never run the body.
        gate.open();
        tasks.run_ready();
        assert!(!*out.borrow());
    }

    #[test]
    fn abort_drains_stale_ready_ids() {
        // A freshly spawned task's id sits in the ready queue; aborting
        // it must remove the stale id so the queue is truly empty and a
        // later pass never polls a dead slot.
        let mut tasks = LaneTasks::new();
        let keep = tasks.spawn(async {});
        let id = tasks.spawn(async {
            panic!("aborted task must never run");
        });
        assert!(tasks.abort(id));
        assert_eq!(tasks.ready_len(), 1, "stale id drained on abort");
        assert_eq!(tasks.run_ready(), 1, "only the surviving task polls");
        let _ = keep;
        assert!(tasks.all_done());
    }

    /// A waker-registering one-shot flag — the "foreign future" of these
    /// tests. Opening it fires the stored waker, from inside a poll or
    /// between two passes.
    #[derive(Clone, Default)]
    struct Gate(Rc<RefCell<(bool, Option<Waker>)>>);

    impl Gate {
        fn open(&self) {
            let waker = {
                let mut g = self.0.borrow_mut();
                g.0 = true;
                g.1.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        }

        fn is_open(&self) -> bool {
            self.0.borrow().0
        }
    }

    impl Future for Gate {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut g = self.0.borrow_mut();
            if g.0 {
                Poll::Ready(())
            } else {
                g.1 = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// The executor this crate used to ship beside `LaneTasks`, kept as
    /// the ordering oracle: one locked FIFO, one pop per poll, a fresh
    /// waker per poll. `wake(id)` is simply a push on that queue.
    #[derive(Default)]
    struct RefTasks {
        slots: Vec<Option<BoxedTask>>,
        ready: Arc<WakeQueue>,
        live: usize,
    }

    trait Sched {
        fn spawn_task(&mut self, fut: BoxedTask);
        fn wake_task(&mut self, id: TaskId);
        fn run(&mut self);
        fn done(&self) -> bool;
    }

    impl Sched for RefTasks {
        fn spawn_task(&mut self, fut: BoxedTask) {
            self.wake_task(self.slots.len());
            self.slots.push(Some(fut));
            self.live += 1;
        }
        fn wake_task(&mut self, id: TaskId) {
            self.ready.lock().push_back(id);
        }
        fn run(&mut self) {
            loop {
                let Some(id) = self.ready.lock().pop_front() else {
                    break;
                };
                let Some(mut fut) = self.slots[id].take() else {
                    continue;
                };
                let waker = Waker::from(Arc::new(TaskWaker {
                    woken: Arc::clone(&self.ready),
                    id,
                }));
                match fut.as_mut().poll(&mut Context::from_waker(&waker)) {
                    Poll::Ready(()) => self.live -= 1,
                    Poll::Pending => self.slots[id] = Some(fut),
                }
            }
        }
        fn done(&self) -> bool {
            self.live == 0
        }
    }

    impl Sched for LaneTasks {
        fn spawn_task(&mut self, fut: BoxedTask) {
            self.spawn(fut);
        }
        fn wake_task(&mut self, id: TaskId) {
            self.wake(id);
        }
        fn run(&mut self) {
            self.run_ready();
        }
        fn done(&self) -> bool {
            self.all_done()
        }
    }

    /// Suspends once without registering a waker: only a direct
    /// `wake(id)` resumes the task, as a simulator timer does.
    struct Park(bool);

    impl Future for Park {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            if std::mem::replace(&mut self.0, true) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Step {
        Yield,
        Park,
        Wait,
        /// Fulfil the gate the next task (cyclically) is waiting on, if
        /// any: a waker fired from inside a poll.
        Poke,
    }

    /// Drive `ex` through seeded task scripts and seeded external wakes;
    /// return every (task, step) in the order it was polled.
    fn poll_order(mut ex: impl Sched, seed: u64) -> Vec<(usize, usize)> {
        const TASKS: usize = 7;
        const STEPS: usize = 12;
        let mut rng = crate::rng::Rng::new(seed);
        let kinds = [Step::Yield, Step::Park, Step::Wait, Step::Poke];
        let scripts: Rc<Vec<Vec<Step>>> = Rc::new(
            (0..TASKS)
                .map(|_| (0..STEPS).map(|_| *rng.choose(&kinds)).collect())
                .collect(),
        );
        let gates: Rc<Vec<Vec<Gate>>> = Rc::new(
            (0..TASKS)
                .map(|_| (0..STEPS).map(|_| Gate::default()).collect())
                .collect(),
        );
        // Step each task is at (STEPS once finished).
        let at = Rc::new(RefCell::new(vec![0usize; TASKS]));
        let log = Rc::new(RefCell::new(Vec::new()));
        // Open task `t`'s current gate, if it is waiting on a closed one.
        let poke = {
            let (scripts, gates, at) = (Rc::clone(&scripts), Rc::clone(&gates), Rc::clone(&at));
            move |t: usize| {
                let k = at.borrow()[t];
                if k < STEPS && scripts[t][k] == Step::Wait {
                    gates[t][k].open();
                }
            }
        };
        for t in 0..TASKS {
            let (scripts, gates, at, log) = (
                Rc::clone(&scripts),
                Rc::clone(&gates),
                Rc::clone(&at),
                Rc::clone(&log),
            );
            let poke = poke.clone();
            ex.spawn_task(Box::pin(async move {
                for k in 0..STEPS {
                    at.borrow_mut()[t] = k;
                    log.borrow_mut().push((t, k));
                    match scripts[t][k] {
                        Step::Yield => yield_now().await,
                        Step::Park => Park(false).await,
                        Step::Wait => gates[t][k].clone().await,
                        Step::Poke => poke((t + 1) % TASKS),
                    }
                }
                at.borrow_mut()[t] = STEPS;
            }));
        }
        for _round in 0..10_000 {
            ex.run();
            if ex.done() {
                break;
            }
            // A random batch of external events between two passes:
            // direct wakes (also of tasks not parked — spurious polls)
            // mixed with waker wakes.
            for _ in 0..rng.range_u64(1, 4) {
                let t = rng.below(TASKS as u64) as usize;
                if rng.chance(0.5) {
                    ex.wake_task(t);
                } else {
                    poke(t);
                }
            }
        }
        assert!(ex.done(), "seed {seed}: scripts ran to completion");
        let order = log.borrow().clone();
        order
    }

    #[test]
    fn poll_order_matches_the_reference_executor() {
        // Direct wakes, waker wakes from outside and from inside a poll,
        // yields and spurious wakes, mixed at random: the run queue plus
        // the waker queue must replay the single locked FIFO exactly —
        // the order every simulator result is a function of.
        for seed in 0..200 {
            let got = poll_order(LaneTasks::new(), seed);
            let want = poll_order(RefTasks::default(), seed);
            assert_eq!(got, want, "seed {seed}");
            assert!(got.len() >= 7 * 12);
        }
    }

    #[test]
    fn wake_by_id_resumes_a_parked_task() {
        let mut tasks = LaneTasks::new();
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        let id = tasks.spawn(async move {
            Park(false).await;
            *h.borrow_mut() = true;
        });
        assert_eq!(tasks.run_ready(), 1);
        assert_eq!(tasks.run_ready(), 0, "nothing wakes a parked task");
        tasks.wake(id);
        assert_eq!(tasks.ready_len(), 1);
        assert_eq!(tasks.run_ready(), 1);
        assert!(*hit.borrow() && tasks.all_done());
        tasks.wake(id);
        assert_eq!(tasks.run_ready(), 0, "waking a finished task polls nothing");
    }

    #[test]
    fn chained_wakes_drain_in_one_pass() {
        // Task A opens task B's gate: a wake fired during `run_ready`
        // is served by the same call.
        let mut tasks = LaneTasks::new();
        let (g1, g2) = (Gate::default(), Gate::default());
        let out = Rc::new(RefCell::new(false));
        let (g1a, g2a) = (g1.clone(), g2.clone());
        tasks.spawn(async move {
            g1a.await;
            g2a.open();
        });
        let ob = Rc::clone(&out);
        tasks.spawn(async move {
            g2.await;
            *ob.borrow_mut() = true;
        });
        tasks.run_ready();
        assert!(!tasks.all_done());
        g1.open();
        tasks.run_ready();
        assert!(tasks.all_done());
        assert!(*out.borrow());
    }
}
