//! Delayed delivery scheduler.
//!
//! The *delivery plane* is one priority queue of in-flight messages keyed by
//! their real-time delivery deadline (the virtual transfer delay mapped
//! through the [`crate::SimClock`]) and one drain. Every accepted send —
//! same-node included — goes through it, so deliveries come out in
//! deterministic `(due, seq)` order and never run concurrently.
//!
//! The plane has no thread of its own. Wake-ups are armed on a deadline
//! scheduler through a [`SpawnAt`] closure and the heap is drained by
//! cooperatively-yielding jobs; at most one drain runs at a time (a
//! `draining` flag claimed under the heap lock). There are two providers of
//! [`SpawnAt`]: the embedding runtime's (in practice the `jsym-exec`
//! work-stealing executor, [`DelayQueue::start_tasked`]), and — for a
//! [`crate::Network`] built without one — a private `jsym-net-delivery`
//! thread ([`DelayQueue::start`]). Both run the same [`drain`].

use crate::Envelope;
use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Delivery callback: gets the ready message.
pub(crate) type DeliverFn = Arc<dyn Fn(Envelope) + Send + Sync>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// External deadline scheduler: `spawner(at, job)` must run `job` once, at
/// (not before) real-time `at`, off the caller's thread. Jobs armed for
/// equal instants should run in arming order; the plane only needs every
/// armed job to run eventually (its heap, not the scheduler, orders
/// deliveries). Provided by the embedding runtime so `jsym-net` needs no
/// dependency on the executor crate.
pub type SpawnAt = Arc<dyn Fn(Instant, Job) + Send + Sync>;

struct Scheduled<T> {
    due: Instant,
    /// Tie-breaker preserving push order for equal deadlines.
    seq: u64,
    item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest deadline wins.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A `(due, seq)` min-heap: of envelopes for the plane, of armed jobs for the
/// private scheduler thread.
struct Heap<T> {
    items: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Default for Heap<T> {
    fn default() -> Self {
        Heap {
            items: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> Heap<T> {
    fn push(&mut self, due: Instant, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push(Scheduled { due, seq, item });
    }

    /// Deadline of the head, if any.
    fn due(&self) -> Option<Instant> {
        self.items.peek().map(|s| s.due)
    }

    fn pop(&mut self) -> Option<T> {
        self.items.pop().map(|s| s.item)
    }
}

/// The plane's heap plus drain/arm bookkeeping.
#[derive(Default)]
struct State {
    heap: Heap<Envelope>,
    /// A drain currently owns the heap. While set, pushes never arm a
    /// wake-up: the drain re-peeks under the lock before exiting and arms
    /// for whatever head it leaves behind.
    draining: bool,
    /// Earliest instant a wake-up is armed for, if any. Stale (later) armed
    /// jobs may exist; they find nothing due and are no-ops.
    armed: Option<Instant>,
}

struct Inner {
    state: Mutex<State>,
    spawner: SpawnAt,
    deliver: DeliverFn,
    shutdown: AtomicBool,
}

/// Deliveries one drain performs before re-scheduling itself, so the plane
/// under sustained load cannot monopolise an executor worker.
const DRAIN_BUDGET: usize = 256;

/// Handle to the delivery plane. Dropping it stops the drain; pending
/// messages are discarded (matching a network that disappears).
pub(crate) struct DelayQueue {
    inner: Arc<Inner>,
    /// The private scheduler thread, when the plane was started without an
    /// external [`SpawnAt`].
    own: Option<Arc<Timer>>,
}

impl DelayQueue {
    /// Starts the plane on a private `jsym-net-delivery` scheduler thread.
    pub(crate) fn start(deliver: DeliverFn) -> Self {
        let timer = Arc::new(Timer::default());
        let on_thread = Arc::clone(&timer);
        *timer.thread.lock() = Some(
            std::thread::Builder::new()
                .name("jsym-net-delivery".into())
                .spawn(move || on_thread.run())
                .expect("spawn delivery thread"),
        );
        let armed = Arc::clone(&timer);
        let mut queue = Self::start_tasked(Arc::new(move |at, job| armed.arm(at, job)), deliver);
        queue.own = Some(timer);
        queue
    }

    /// Starts the plane on an external scheduler: wake-ups run as `spawner`
    /// jobs.
    pub(crate) fn start_tasked(spawner: SpawnAt, deliver: DeliverFn) -> Self {
        DelayQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                spawner,
                deliver,
                shutdown: AtomicBool::new(false),
            }),
            own: None,
        }
    }

    /// Schedules `env` for delivery at real time `due`.
    pub(crate) fn push(&self, due: Instant, env: Envelope) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let wake = {
            let mut st = inner.state.lock();
            st.heap.push(due, env);
            // Invariant: whenever `draining` is false and the heap is
            // non-empty, a wake-up is armed at or before the head's
            // deadline. A drain owns the heap otherwise and arms on exit.
            let wake = wake_time(due);
            if !st.draining && st.armed.is_none_or(|a| wake < a) {
                st.armed = Some(wake);
                Some(wake)
            } else {
                None
            }
        };
        if let Some(at) = wake {
            arm(inner, at);
        }
    }

    /// Runs the drain on the calling thread if a message is due and no drain
    /// is active — whoever armed the wake-up for it, which then finds nothing
    /// to do. For a caller about to wait for one of these messages. Arms
    /// nothing when nothing is due: a future head keeps the wake-up it has.
    pub(crate) fn drain_if_due(&self) {
        {
            let st = self.inner.state.lock();
            if st.draining || st.heap.due().is_none_or(|due| due > Instant::now()) {
                return;
            }
        }
        drain(&self.inner);
    }

    pub(crate) fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let mut st = self.inner.state.lock();
            st.heap.items.clear();
            st.armed = None;
            // Armed wake-ups still held by the scheduler fire into `drain`,
            // see the shutdown flag, and no-op.
        }
        if let Some(timer) = &self.own {
            {
                let mut st = timer.state.lock();
                st.shutdown = true;
                st.jobs.items.clear();
            }
            timer.cond.notify_all();
            if let Some(h) = timer.thread.lock().take() {
                let _ = h.join();
            }
        }
    }
}

/// The [`SpawnAt`] of a plane started without one: a single thread that runs
/// armed jobs at their deadline, equal deadlines in arming order.
#[derive(Default)]
struct Timer {
    state: Mutex<TimerState>,
    cond: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

#[derive(Default)]
struct TimerState {
    jobs: Heap<Job>,
    shutdown: bool,
}

impl Timer {
    fn arm(&self, at: Instant, job: Job) {
        let mut st = self.state.lock();
        if !st.shutdown {
            st.jobs.push(at, job);
            self.cond.notify_one();
        }
    }

    fn run(&self) {
        let mut st = self.state.lock();
        while !st.shutdown {
            match st.jobs.due() {
                Some(due) if due <= Instant::now() => {
                    let job = st.jobs.pop().expect("peeked");
                    drop(st);
                    job();
                    st = self.state.lock();
                }
                Some(due) => {
                    self.cond.wait_until(&mut st, due);
                }
                None => self.cond.wait(&mut st),
            }
        }
    }
}

/// OS condvar and timer wake-ups overshoot by 50-100 µs, which at aggressive
/// time scales dwarfs the modeled link latencies. A wake-up is therefore
/// armed this much before its deadline and the drain spin-sleeps the
/// remainder (`sleep_until`) with the heap unlocked; a message pushed
/// meanwhile is at most one spin window late, which is below the wake-up's
/// own error. On single-core hosts the spin window is zero and this degrades
/// to plain timed waits (see `clock::spin_window`).
fn spin_horizon() -> Duration {
    crate::clock::spin_window() + Duration::from_micros(100)
}

/// When to wake for a head due at `due`.
fn wake_time(due: Instant) -> Instant {
    due.checked_sub(spin_horizon()).unwrap_or(due)
}

/// Arms a wake-up at `at`.
fn arm(inner: &Arc<Inner>, at: Instant) {
    let task_inner = Arc::clone(inner);
    (inner.spawner)(at, Box::new(move || drain(&task_inner)));
}

/// Body of a wake-up: claim the heap, deliver everything due (in
/// `(due, seq)` order), then either re-arm for the next head or release.
/// Yields back to the scheduler after [`DRAIN_BUDGET`] deliveries.
fn drain(inner: &Arc<Inner>) {
    enum Step {
        Deliver(Envelope),
        Spin(Instant),
        Done,
    }
    {
        let mut st = inner.state.lock();
        if st.draining {
            return; // an active drain will see whatever we were armed for
        }
        st.draining = true;
        st.armed = None;
    }
    let mut delivered = 0usize;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            let mut st = inner.state.lock();
            st.heap.items.clear();
            st.draining = false;
            return;
        }
        let step = {
            let mut st = inner.state.lock();
            let now = Instant::now();
            match st.heap.due() {
                None => {
                    st.draining = false;
                    Step::Done
                }
                Some(due) if due <= now => Step::Deliver(st.heap.pop().expect("peeked")),
                Some(due) if wake_time(due) <= now => Step::Spin(due),
                Some(due) => {
                    // Future head: hand the heap back and arm a fresh
                    // wake-up (the one that ran us was consumed above).
                    let wake = wake_time(due);
                    st.draining = false;
                    st.armed = Some(wake);
                    drop(st);
                    arm(inner, wake);
                    return;
                }
            }
        };
        match step {
            Step::Deliver(env) => {
                (inner.deliver)(env);
                delivered += 1;
                if delivered >= DRAIN_BUDGET {
                    // Cooperative yield: release the heap and reschedule
                    // immediately so other tasks get a worker.
                    let now = Instant::now();
                    {
                        let mut st = inner.state.lock();
                        st.draining = false;
                        st.armed = Some(now);
                    }
                    arm(inner, now);
                    return;
                }
            }
            Step::Spin(due) => crate::clock::sleep_until(due),
            Step::Done => return,
        }
    }
}

impl Drop for DelayQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Payload};
    use parking_lot::Mutex as PlMutex;
    use std::time::Duration;

    fn env(marker: u32) -> Envelope {
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: 0.0,
            payload: Payload::new("t", 0, marker),
        }
    }

    fn collecting() -> (DelayQueue, Arc<PlMutex<Vec<u32>>>) {
        let got: Arc<PlMutex<Vec<u32>>> = Arc::new(PlMutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let q = DelayQueue::start(Arc::new(move |e: Envelope| {
            sink.lock().push(*e.payload.downcast::<u32>().unwrap());
        }));
        (q, got)
    }

    #[test]
    fn delivers_in_deadline_order() {
        let (q, got) = collecting();
        let now = Instant::now();
        q.push(now + Duration::from_millis(30), env(3));
        q.push(now + Duration::from_millis(10), env(1));
        q.push(now + Duration::from_millis(20), env(2));
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(*got.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn equal_deadlines_preserve_send_order() {
        let (q, got) = collecting();
        let due = Instant::now() + Duration::from_millis(15);
        for i in 0..8 {
            q.push(due, env(i));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(*got.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_discards_pending() {
        let (q, got) = collecting();
        q.push(Instant::now() + Duration::from_secs(60), env(9));
        q.shutdown();
        assert!(got.lock().is_empty());
    }

    #[test]
    fn push_after_shutdown_is_ignored() {
        let q = DelayQueue::start(Arc::new(|_| {}));
        q.shutdown();
        q.push(Instant::now(), env(1)); // must not panic or hang
    }

    /// A toy [`SpawnAt`]: one thread per armed job, sleeping to the
    /// deadline. Good enough to exercise the tasked plane's protocol.
    fn thread_spawner() -> SpawnAt {
        Arc::new(|at: Instant, job: Box<dyn FnOnce() + Send + 'static>| {
            std::thread::spawn(move || {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                job();
            });
        })
    }

    fn collecting_tasked() -> (DelayQueue, Arc<PlMutex<Vec<u32>>>) {
        let got: Arc<PlMutex<Vec<u32>>> = Arc::new(PlMutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let q = DelayQueue::start_tasked(
            thread_spawner(),
            Arc::new(move |e: Envelope| {
                sink.lock().push(*e.payload.downcast::<u32>().unwrap());
            }),
        );
        (q, got)
    }

    #[test]
    fn tasked_delivers_in_deadline_order() {
        let (q, got) = collecting_tasked();
        let now = Instant::now();
        q.push(now + Duration::from_millis(30), env(3));
        q.push(now + Duration::from_millis(10), env(1));
        q.push(now + Duration::from_millis(20), env(2));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(*got.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn tasked_equal_deadlines_preserve_send_order() {
        let (q, got) = collecting_tasked();
        let due = Instant::now() + Duration::from_millis(15);
        for i in 0..8 {
            q.push(due, env(i));
        }
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(*got.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn tasked_shutdown_discards_pending_and_ignores_push() {
        let (q, got) = collecting_tasked();
        q.push(Instant::now() + Duration::from_secs(60), env(9));
        q.shutdown();
        q.push(Instant::now(), env(1)); // must not panic or deliver
        std::thread::sleep(Duration::from_millis(50));
        assert!(got.lock().is_empty());
    }

    #[test]
    fn tasked_drain_budget_yields_and_resumes() {
        // More due-now messages than one drain budget: everything must still
        // arrive, in order, across the yield boundary.
        let (q, got) = collecting_tasked();
        let due = Instant::now();
        let n = (DRAIN_BUDGET * 2 + 10) as u32;
        for i in 0..n {
            q.push(due, env(i));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while (got.lock().len() as u32) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(*got.lock(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn drain_if_due_runs_a_pending_drain_and_arms_nothing_for_a_future_head() {
        // A scheduler that only counts: armed wake-ups never run.
        let armed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let got: Arc<PlMutex<Vec<u32>>> = Arc::new(PlMutex::new(Vec::new()));
        let (count, sink) = (Arc::clone(&armed), Arc::clone(&got));
        let q = DelayQueue::start_tasked(
            Arc::new(move |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
            }),
            Arc::new(move |e: Envelope| sink.lock().push(*e.payload.downcast::<u32>().unwrap())),
        );
        q.push(Instant::now() + Duration::from_secs(60), env(9));
        q.drain_if_due();
        assert!(got.lock().is_empty());
        assert_eq!(armed.load(Ordering::SeqCst), 1, "the push's, and no other");
        q.push(Instant::now(), env(1));
        q.push(Instant::now(), env(2));
        assert_eq!(armed.load(Ordering::SeqCst), 2);
        q.drain_if_due();
        assert_eq!(*got.lock(), vec![1, 2]);
        // The drain left the future head armed again; asking twice adds none.
        assert_eq!(armed.load(Ordering::SeqCst), 3);
        q.drain_if_due();
        assert_eq!(armed.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn immediate_deadline_delivers_quickly() {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let q = DelayQueue::start(Arc::new(move |e: Envelope| {
            let _ = tx.send(*e.payload.downcast::<u32>().unwrap());
        }));
        q.push(Instant::now(), env(5));
        let v = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(v, 5);
    }
}
