//! A sized work-stealing executor: the one runtime every deployment runs on.
//! Delivery drains, object executors, NA monitor rounds and directory replica
//! ticks are scheduled onto its workers as cooperatively-yielding tasks.
//!
//! A fixed pool of workers is fed by per-worker striped inject queues
//! (round-robin placement, targeted parker wakeups) plus per-worker run
//! deques with stealing, and a single timer thread releases
//! [`Executor::spawn_at`] jobs at their real deadline. A job spawned *from a
//! worker* goes to that worker's own deque and wakes nobody: the worker runs
//! it next, so a request → dispatch → reply chain stays on one thread.
//! Queues are short-critical-section mutexed `VecDeque`s rather than lock-free
//! Chase-Lev deques: jobs here are delivery drains and RMI dispatches that
//! run for microseconds to milliseconds, so queue-op cost is noise and the
//! lock-based scheme is trivially sound.
//!
//! # A synchronous caller runs its own call
//!
//! Between issuing a synchronous request and its reply a thread is inside
//! [`Executor::help`] and has a private *chain queue*, for two kinds of job:
//! wake-ups it arms through [`Executor::spawn_at`] that are already due, and
//! jobs spawned through [`Executor::spawn_for`] for a request open on its
//! stack. It runs them itself, checking for its reply after each. Nothing
//! else is ever run by a waiting thread: a stranger's job could re-enter a
//! lock held lower on the stack (DESIGN.md §13.1).
//!
//! # Blocking compensation
//!
//! A caller whose chain runs dry before its reply (a message due later, a
//! step another thread owns) parks its thread, and replies are themselves
//! produced by executor tasks — on a worker, by its peers. To stay
//! deadlock-free, any wait that depends on *other executor tasks making
//! progress* must be wrapped in [`blocking`]: it books the worker as blocked
//! and, when the pool's runnable head-count would drop below its base size,
//! spawns a spare worker to compensate. Spares retire once no worker is
//! blocked. The capacity ledger is a single mutex so the invariant
//! `live - blocked >= base` holds at every blocking entry; with `base >= 1`
//! there is always at least one runnable worker, so nested synchronous call
//! chains of any depth cannot wedge the pool.
//!
//! Bounded waits (simulated compute sleeps, retry backoffs) do not need
//! compensation for safety, but long simulated computes also route through
//! [`blocking`] so they do not serialise unrelated traffic behind a sleep.

use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work scheduled onto the executor.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The executor owning the current worker thread and that worker's slot,
    /// if any.
    static CURRENT: RefCell<Option<(Arc<Inner>, Arc<WorkerSlot>)>> = const { RefCell::new(None) };
    /// This thread's chain queue; live while `owner` is set.
    static CHAIN: RefCell<Chain> = const {
        RefCell::new(Chain { owner: None, reqs: Vec::new(), jobs: VecDeque::new() })
    };
}

/// The jobs a thread inside [`Executor::help`] runs itself.
struct Chain {
    /// The executor the open scopes belong to: deployments do not share chains.
    owner: Option<Arc<Inner>>,
    /// Request ids of the `help` scopes open on this stack, outermost first.
    reqs: Vec<u64>,
    jobs: VecDeque<Job>,
}

/// Nested `help` scopes per thread: deeper calls park, sparing the stack.
const MAX_HELP_DEPTH: usize = 64;

/// Hands this thread's queued chain jobs to their executor, in order: the
/// thread is about to stop running them (it parks, sleeps or leaves).
fn flush_chain() {
    let Some((owner, jobs)) = CHAIN.with(|c| {
        let mut ch = c.borrow_mut();
        let owner = ch.owner.clone().filter(|_| !ch.jobs.is_empty())?;
        Some((owner, std::mem::take(&mut ch.jobs)))
    }) else {
        return;
    };
    for job in jobs {
        owner.spawn(job);
    }
}

/// Closes one [`Executor::help`] scope, on return and on unwind alike.
struct HelpScope;

impl Drop for HelpScope {
    fn drop(&mut self) {
        flush_chain();
        CHAIN.with(|c| {
            let mut ch = c.borrow_mut();
            ch.reqs.pop();
            if ch.reqs.is_empty() {
                ch.owner = None;
            }
        });
    }
}

/// Whether a waiting caller inside [`Executor::help`] is running this job.
pub fn helping() -> bool {
    CHAIN.with(|c| c.borrow().owner.is_some())
}

/// Whether this thread is an executor worker: one that costs a spare to park.
pub fn on_worker() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// A mutexed FIFO run queue. Owners pop the front; thieves steal from the
/// back so they grab the work the owner would reach last.
#[derive(Default)]
struct JobQueue {
    q: Mutex<VecDeque<Job>>,
}

impl JobQueue {
    /// Appends `job`; returns whether jobs were already queued ahead of it.
    fn push_back(&self, job: Job) -> bool {
        let mut q = self.q.lock();
        let backlog = !q.is_empty();
        q.push_back(job);
        backlog
    }

    fn pop_front(&self) -> Option<Job> {
        self.q.lock().pop_front()
    }

    fn steal_back(&self) -> Option<Job> {
        self.q.lock().pop_back()
    }

    /// Pop one job and move up to `extra` more into `local` in FIFO order.
    fn grab_batch(&self, local: &JobQueue, extra: usize) -> Option<Job> {
        let mut q = self.q.lock();
        let first = q.pop_front()?;
        if extra > 0 {
            let mut l = local.q.lock();
            for _ in 0..extra {
                match q.pop_front() {
                    Some(j) => l.push_back(j),
                    None => break,
                }
            }
        }
        Some(first)
    }

    /// Moves every queued job to the back of `other`, in order; returns
    /// whether any moved. The two locks are never held together.
    fn move_all_to(&self, other: &JobQueue) -> bool {
        let mut jobs = std::mem::take(&mut *self.q.lock());
        if jobs.is_empty() {
            return false;
        }
        other.q.lock().append(&mut jobs);
        true
    }

    fn clear(&self) {
        self.q.lock().clear();
    }
}

const P_RUNNING: u8 = 0;
const P_PARKED: u8 = 1;
const P_NOTIFIED: u8 = 2;

/// One worker's token parker, so a spawn can wake exactly the worker that
/// owns the stripe it pushed to instead of notifying a herd.
///
/// Protocol (Dekker-style): the worker publishes `PARKED` with [`Parker::
/// prepare`] *before* its final queue re-check, and a spawner pushes its job
/// *before* calling [`Parker::unpark`]. Under `SeqCst` one of the two must
/// observe the other, so a job can never be stranded: either the spawner
/// sees `PARKED` and wakes us, or our re-check sees the job. An `unpark`
/// against a running worker leaves a `NOTIFIED` token that makes the next
/// `prepare` skip the park and re-scan instead.
struct Parker {
    state: AtomicU8,
    /// Notification token, guarded so a wake between `prepare` and the wait
    /// below cannot be lost.
    m: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            state: AtomicU8::new(P_RUNNING),
            m: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Publish intent to park. Returns `false` when a notification was
    /// already pending (it is consumed; the caller should re-scan the queues
    /// instead of parking).
    fn prepare(&self) -> bool {
        if self
            .state
            .compare_exchange(P_RUNNING, P_PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            true
        } else {
            self.state.store(P_RUNNING, Ordering::SeqCst);
            *self.m.lock() = false;
            false
        }
    }

    /// Abort a prepared park (work appeared during the final re-check).
    fn cancel(&self) {
        self.state.store(P_RUNNING, Ordering::SeqCst);
        *self.m.lock() = false;
    }

    /// Block until notified or `timeout`; must follow a successful
    /// [`Parker::prepare`].
    fn park(&self, timeout: Duration) {
        let mut notified = self.m.lock();
        if !*notified && self.state.load(Ordering::SeqCst) == P_PARKED {
            self.cv.wait_for(&mut notified, timeout);
        }
        *notified = false;
        self.state.store(P_RUNNING, Ordering::SeqCst);
    }

    /// Wake the owner if it is parked; otherwise leave a token that makes
    /// its next `prepare` re-scan. Returns whether a parked worker was woken.
    fn unpark(&self) -> bool {
        if self.state.swap(P_NOTIFIED, Ordering::SeqCst) == P_PARKED {
            *self.m.lock() = true;
            self.cv.notify_one();
            true
        } else {
            false
        }
    }
}

/// Everything a worker thread owns: its private run deque (owner pops the
/// front, thieves the back), the inject stripe it drains first, and its
/// parker.
struct WorkerSlot {
    local: JobQueue,
    /// Index of the striped inject queue this worker is biased toward
    /// (mod the stripe count; spares inherit an arbitrary stripe).
    stripe: usize,
    parker: Parker,
}

/// Capacity ledger guarded by one mutex so blocking-entry and spare-retire
/// decisions are atomic with respect to each other.
struct Cap {
    /// Worker threads currently alive (base + spares).
    live: usize,
    /// Workers currently inside a [`blocking`] section (nested entries count
    /// once per level; each level compensates, which is conservative).
    blocked: usize,
    /// Spare workers alive beyond the base pool.
    spares: usize,
}

/// A timer entry ordered by `(at, seq)`; min-heap via reversed `Ord`.
struct TimerEntry {
    at: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct TimerState {
    heap: BinaryHeap<TimerEntry>,
    next_seq: u64,
    shutdown: bool,
}

struct Inner {
    /// Striped inject queues, one per base worker.
    stripes: Box<[JobQueue]>,
    /// Round-robin cursor for stripe placement.
    rr: AtomicU64,
    /// Jobs queued anywhere (stripes + worker locals): incremented
    /// per spawn, decremented when a worker dequeues a job to run it. Signed
    /// so a shutdown clearing the queues can reset it without racing late
    /// decrements; reads clamp at zero.
    depth: AtomicI64,
    /// Base worker slots, indexable by stripe for targeted wakeups.
    base_slots: Box<[Arc<WorkerSlot>]>,
    /// Spare worker slots (registered on spawn, removed on retire).
    extra_slots: RwLock<Vec<Arc<WorkerSlot>>>,
    base: usize,
    cap: Mutex<Cap>,
    timer: Mutex<TimerState>,
    timer_wake: Condvar,
    shutdown: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    steals: AtomicU64,
    parks: AtomicU64,
    spare_spawns: AtomicU64,
    wakes_targeted: AtomicU64,
    wakes_escalated: AtomicU64,
    caller_jobs: AtomicU64,
    obs: ObsHandles,
}

struct ObsHandles {
    queue_depth: jsym_obs::Gauge,
    blocked: jsym_obs::Gauge,
    spares: jsym_obs::Gauge,
    steals: jsym_obs::Counter,
    parks: jsym_obs::Counter,
    spare_spawns: jsym_obs::Counter,
    wake_targeted: jsym_obs::Counter,
    wake_escalated: jsym_obs::Counter,
}

/// A point-in-time view of the executor's internals, for the `executor` shell
/// command and the swarm benchmark report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    pub threads: usize,
    /// Jobs queued across the inject queues *and* worker-local deques (a
    /// batch-grabbed job counts until a worker actually runs it).
    pub queue_depth: usize,
    pub blocked: usize,
    pub spares: usize,
    pub steals: u64,
    pub parks: u64,
    pub spare_spawns: u64,
    /// Spawns that woke the parked owner of the stripe they pushed to.
    pub wakes_targeted: u64,
    /// Wakes that fell through to another parked worker (owner busy) or were
    /// added on backlog (queue depth exceeding the worker count).
    pub wakes_escalated: u64,
    pub timer_pending: usize,
    /// Jobs run by waiting callers inside [`Executor::help`], not by workers.
    pub caller_jobs: u64,
}

/// The work-stealing executor. Construct via [`Executor::new`] or
/// [`Executor::with_obs`]; both return an `Arc` because worker threads and
/// scheduled tasks hold references back into the pool.
pub struct Executor {
    inner: Arc<Inner>,
}

impl Executor {
    /// Start an executor with `threads` base workers (clamped to at least 1)
    /// and no metrics.
    pub fn new(threads: usize) -> Arc<Executor> {
        Self::with_obs(threads, jsym_obs::ObsRegistry::disabled())
    }

    /// Start an executor exporting `exec.*` gauges/counters into `obs`
    /// (handles of a disabled registry record nothing).
    pub fn with_obs(threads: usize, obs: jsym_obs::ObsRegistry) -> Arc<Executor> {
        let obs = ObsHandles {
            queue_depth: obs.gauge("exec.queue_depth", None, "exec"),
            blocked: obs.gauge("exec.blocked", None, "exec"),
            spares: obs.gauge("exec.spares", None, "exec"),
            steals: obs.counter("exec.steals", None, "exec"),
            parks: obs.counter("exec.parks", None, "exec"),
            spare_spawns: obs.counter("exec.spare_spawns", None, "exec"),
            wake_targeted: obs.counter("exec.wake.targeted", None, "exec"),
            wake_escalated: obs.counter("exec.wake.escalated", None, "exec"),
        };
        let base = threads.max(1);
        let stripes = (0..base)
            .map(|_| JobQueue::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let base_slots = (0..base)
            .map(|i| {
                Arc::new(WorkerSlot {
                    local: JobQueue::default(),
                    stripe: i,
                    parker: Parker::new(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(Inner {
            stripes,
            rr: AtomicU64::new(0),
            depth: AtomicI64::new(0),
            base_slots,
            extra_slots: RwLock::new(Vec::new()),
            base,
            cap: Mutex::new(Cap {
                live: base,
                blocked: 0,
                spares: 0,
            }),
            timer: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            timer_wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            spare_spawns: AtomicU64::new(0),
            wakes_targeted: AtomicU64::new(0),
            wakes_escalated: AtomicU64::new(0),
            caller_jobs: AtomicU64::new(0),
            obs,
        });
        let mut handles = Vec::with_capacity(base + 1);
        for i in 0..base {
            let slot = Arc::clone(&inner.base_slots[i]);
            handles.push(spawn_worker(&inner, slot, i, false));
        }
        {
            let timer_inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name("jsym-exec-timer".into())
                    .spawn(move || timer_loop(&timer_inner))
                    .expect("spawn timer thread"),
            );
        }
        *inner.threads.lock() = handles;
        Arc::new(Executor { inner })
    }

    /// Base pool size.
    pub fn threads(&self) -> usize {
        self.inner.base
    }

    /// Schedule `job` to run as soon as a worker is free.
    pub fn spawn(&self, job: Job) {
        self.inner.spawn(job);
    }

    /// Schedule `job`, the handler of request `req`: onto the calling thread's
    /// chain when that request is open on its stack, else like [`Self::spawn`].
    pub fn spawn_for(&self, req: u64, job: Job) {
        self.inner.spawn_chained(Some(req), job);
    }

    /// Runs `issue` (which sends request `req`), then this thread's chain
    /// jobs until `done` says the reply is in or the chain is empty — the
    /// caller then waits as it would have, under [`blocking`]. Leftover jobs
    /// go to the workers when the scope closes.
    pub fn help<T>(&self, req: u64, issue: impl FnOnce() -> T, done: impl Fn(&T) -> bool) -> T {
        let entered = CHAIN.with(|c| {
            let ch = &mut *c.borrow_mut();
            let owner = ch.owner.get_or_insert_with(|| Arc::clone(&self.inner));
            let ok = Arc::ptr_eq(owner, &self.inner) && ch.reqs.len() < MAX_HELP_DEPTH;
            if ok {
                ch.reqs.push(req);
            }
            ok
        });
        if !entered {
            return issue();
        }
        let _scope = HelpScope;
        let out = issue();
        while !done(&out) {
            let Some(job) = CHAIN.with(|c| c.borrow_mut().jobs.pop_front()) else {
                break;
            };
            self.inner.caller_jobs.fetch_add(1, Ordering::Relaxed);
            job();
        }
        out
    }

    /// Schedule `job` to run at (not before) the real-time instant `at`.
    /// Jobs with equal *future* deadlines run in submission order. A job
    /// whose deadline has already passed skips the timer thread and is
    /// spawned directly, so it may overtake a timer entry that is due but not
    /// yet released; callers that need order across that edge keep their own
    /// `(due, seq)` queue and use these jobs only as wake-ups (as the
    /// delivery plane does). Armed by a thread inside [`Executor::help`],
    /// such a job goes to that thread's chain.
    pub fn spawn_at(&self, at: Instant, job: Job) {
        if at <= Instant::now() {
            self.inner.spawn_chained(None, job);
            return;
        }
        let mut st = self.inner.timer.lock();
        if st.shutdown {
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let is_new_head = st.heap.peek().is_none_or(|h| at < h.at);
        st.heap.push(TimerEntry { at, seq, job });
        drop(st);
        if is_new_head {
            self.inner.timer_wake.notify_one();
        }
    }

    /// Snapshot queue/steal/park/spare counters.
    pub fn stats(&self) -> ExecStats {
        let cap = self.inner.cap.lock();
        ExecStats {
            threads: self.inner.base,
            queue_depth: self.inner.queue_depth(),
            blocked: cap.blocked,
            spares: cap.spares,
            steals: self.inner.steals.load(Ordering::Relaxed),
            parks: self.inner.parks.load(Ordering::Relaxed),
            spare_spawns: self.inner.spare_spawns.load(Ordering::Relaxed),
            wakes_targeted: self.inner.wakes_targeted.load(Ordering::Relaxed),
            wakes_escalated: self.inner.wakes_escalated.load(Ordering::Relaxed),
            timer_pending: self.inner.timer.lock().heap.len(),
            caller_jobs: self.inner.caller_jobs.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting work, wake every worker and the timer, and join them.
    /// Jobs still queued (or armed on the timer) are dropped. Idempotent.
    /// Must not be called from an executor worker.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.inner.timer.lock();
            st.shutdown = true;
            st.heap.clear();
        }
        self.inner.timer_wake.notify_all();
        for s in self.inner.base_slots.iter() {
            s.parker.unpark();
        }
        for s in self.inner.extra_slots.read().iter() {
            s.parker.unpark();
        }
        // Workers may spawn spares while we join; drain until the list is
        // stable and empty.
        loop {
            let handles = std::mem::take(&mut *self.inner.threads.lock());
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        for s in self.inner.stripes.iter() {
            s.clear();
        }
        self.inner.depth.store(0, Ordering::Relaxed);
        self.inner.obs.queue_depth.set(0.0);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Current queued-job count (inject queues + worker locals), clamped.
    fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed).max(0) as usize
    }

    fn spawn(self: &Arc<Self>, job: Job) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        // From one of our own workers the job goes to that worker's deque.
        let queued = CURRENT.with(|c| match &*c.borrow() {
            Some((inner, slot)) if Arc::ptr_eq(inner, self) => Ok(slot.local.push_back(job)),
            _ => Err(job),
        });
        // Either way the push must precede the unpark: the parker protocol's
        // no-stranded-job guarantee hangs on that order.
        match queued {
            // The worker pops its deque first once its current job returns,
            // so nobody is woken — unless jobs are already waiting there, in
            // which case a parked peer is roused to steal. `blocking`
            // flushes the deque before it waits.
            Ok(backlog) => {
                self.note_queued();
                if backlog {
                    self.wake_any(None);
                }
            }
            Err(job) => {
                let i = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % self.stripes.len();
                self.stripes[i].push_back(job);
                self.note_queued();
                self.wake_for(i);
            }
        }
    }

    /// Queues `job` on the calling thread's chain when it has a scope open on
    /// this executor — and on `req`, if the job is tied to one; spawns it
    /// otherwise.
    fn spawn_chained(self: &Arc<Self>, req: Option<u64>, job: Job) {
        let job = CHAIN.with(|c| {
            let mut ch = c.borrow_mut();
            let mine = ch.owner.as_ref().is_some_and(|o| Arc::ptr_eq(o, self));
            if mine && req.is_none_or(|r| ch.reqs.contains(&r)) {
                ch.jobs.push_back(job);
                None
            } else {
                Some(job)
            }
        });
        if let Some(job) = job {
            self.spawn(job);
        }
    }

    fn note_queued(&self) {
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.obs.queue_depth.set(self.queue_depth() as f64);
    }

    /// Wakes the first parked worker other than base worker `skip`; counts as
    /// an escalated wake.
    fn wake_any(&self, skip: Option<usize>) {
        let woke = self
            .base_slots
            .iter()
            .enumerate()
            .any(|(j, s)| Some(j) != skip && s.parker.unpark())
            || self.extra_slots.read().iter().any(|s| s.parker.unpark());
        if woke {
            self.wakes_escalated.fetch_add(1, Ordering::Relaxed);
            self.obs.wake_escalated.inc();
        }
    }

    /// Wake at most one worker for a job pushed to stripe `i`: the stripe's
    /// owner if it is parked (targeted), any other parked worker otherwise
    /// (escalated), plus one extra on backlog.
    fn wake_for(&self, i: usize) {
        if self.base_slots[i].parker.unpark() {
            self.wakes_targeted.fetch_add(1, Ordering::Relaxed);
            self.obs.wake_targeted.inc();
        } else {
            self.wake_any(Some(i));
        }
        // Backlog escalation: the queues are outrunning the pool, so one
        // wake per spawn is not enough — rouse one more parked worker.
        if self.depth.load(Ordering::Relaxed) > self.base_slots.len() as i64 {
            self.wake_any(None);
        }
    }

    /// Called on `blocking` entry with `blocked` already incremented: spawn a
    /// spare if the runnable head-count dropped below the base pool size.
    fn compensate(self: &Arc<Self>, cap: &mut Cap) {
        if cap.live - cap.blocked < self.base && !self.shutdown.load(Ordering::Acquire) {
            cap.live += 1;
            cap.spares += 1;
            self.spare_spawns.fetch_add(1, Ordering::Relaxed);
            self.obs.spare_spawns.inc();
            self.obs.spares.set(cap.spares as f64);
            let slot = Arc::new(WorkerSlot {
                local: JobQueue::default(),
                // Spares inherit a stripe round-robin so their leftovers and
                // inject bias stay spread.
                stripe: cap.live % self.stripes.len(),
                parker: Parker::new(),
            });
            self.extra_slots.write().push(Arc::clone(&slot));
            let handle = spawn_worker(self, slot, cap.live, true);
            let mut threads = self.threads.lock();
            // Reap the spares that retired since the last spawn: an exited
            // thread keeps its stack mapped until it is joined.
            let mut i = 0;
            while i < threads.len() {
                if threads[i].is_finished() {
                    let _ = threads.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            threads.push(handle);
        }
        // The ledger invariant this whole scheme exists for: after
        // compensation, the runnable head-count never sits below base.
        debug_assert!(
            self.shutdown.load(Ordering::Acquire) || cap.live - cap.blocked >= self.base,
            "ledger invariant violated: live {} - blocked {} < base {}",
            cap.live,
            cap.blocked,
            self.base
        );
    }
}

fn spawn_worker(
    inner: &Arc<Inner>,
    slot: Arc<WorkerSlot>,
    index: usize,
    spare: bool,
) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    let kind = if spare { "s" } else { "w" };
    std::thread::Builder::new()
        .name(format!("jsym-exec-{kind}{index}"))
        .spawn(move || worker_loop(&inner, &slot, spare))
        .expect("spawn executor worker")
}

/// Push the worker's deque (batch-grabbed leftovers, locally spawned jobs)
/// back onto its stripe, where every worker looks before it steals. Returns
/// the stripe if anything moved.
fn requeue_local(inner: &Inner, slot: &WorkerSlot) -> Option<usize> {
    let stripe = slot.stripe % inner.stripes.len();
    slot.local
        .move_all_to(&inner.stripes[stripe])
        .then_some(stripe)
}

fn worker_loop(inner: &Arc<Inner>, slot: &Arc<WorkerSlot>, spare: bool) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(inner), Arc::clone(slot))));
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        if spare {
            // Spares retire once nothing is blocked: the base pool is then
            // whole and keeping extra threads would creep per blocked burst.
            let mut cap = inner.cap.lock();
            if cap.blocked == 0 && cap.live > inner.base {
                cap.live -= 1;
                cap.spares -= 1;
                debug_assert!(
                    cap.live - cap.blocked >= inner.base,
                    "ledger invariant violated on retire: live {} blocked {} base {}",
                    cap.live,
                    cap.blocked,
                    inner.base
                );
                inner.obs.spares.set(cap.spares as f64);
                drop(cap);
                requeue_local(inner, slot);
                break;
            }
        }
        match find_job(inner, slot) {
            Some(job) => job(),
            None => park(inner, slot),
        }
    }
    requeue_local(inner, slot);
    CURRENT.with(|c| *c.borrow_mut() = None);
    if spare {
        let mut extras = inner.extra_slots.write();
        extras.retain(|s| !Arc::ptr_eq(s, slot));
    }
}

fn find_job(inner: &Arc<Inner>, slot: &Arc<WorkerSlot>) -> Option<Job> {
    let job = find_queued(inner, slot);
    if job.is_some() {
        // The job leaves the queue accounting only now that a worker is
        // actually about to run it.
        inner.depth.fetch_sub(1, Ordering::Relaxed);
        inner.obs.queue_depth.set(inner.queue_depth() as f64);
    }
    job
}

fn find_queued(inner: &Arc<Inner>, slot: &Arc<WorkerSlot>) -> Option<Job> {
    if let Some(job) = slot.local.pop_front() {
        return Some(job);
    }
    // Own stripe first (batched, so hot bursts amortise lock trips — the
    // bias that keeps the round-robin placement roughly 1:1 with consumers),
    // then the others singly.
    let n = inner.stripes.len();
    if let Some(job) = inner.stripes[slot.stripe % n].grab_batch(&slot.local, 4) {
        return Some(job);
    }
    for k in 1..n {
        if let Some(job) = inner.stripes[(slot.stripe + k) % n].pop_front() {
            return Some(job);
        }
    }
    let steal = |s: &Arc<WorkerSlot>| -> Option<Job> {
        if Arc::ptr_eq(s, slot) {
            return None;
        }
        let job = s.local.steal_back()?;
        inner.steals.fetch_add(1, Ordering::Relaxed);
        inner.obs.steals.inc();
        Some(job)
    };
    for s in inner.base_slots.iter() {
        if let Some(job) = steal(s) {
            return Some(job);
        }
    }
    for s in inner.extra_slots.read().iter() {
        if let Some(job) = steal(s) {
            return Some(job);
        }
    }
    None
}

fn park(inner: &Arc<Inner>, slot: &Arc<WorkerSlot>) {
    // Dekker order: publish PARKED *before* the final queue re-check, so a
    // concurrent spawn either sees PARKED (and unparks us) or we see its job
    // here. The re-check reads `depth`, which also counts jobs in other
    // workers' deques: a job spawned locally by a worker that is still busy
    // wakes nobody, so a worker must not park past it.
    if !slot.parker.prepare() {
        return;
    }
    if inner.shutdown.load(Ordering::Acquire) || inner.depth.load(Ordering::SeqCst) > 0 {
        slot.parker.cancel();
        return;
    }
    inner.parks.fetch_add(1, Ordering::Relaxed);
    inner.obs.parks.inc();
    // The timeout bounds how long a job queued locally just after the
    // re-check above (by a worker that then stays busy) waits for a thief.
    slot.parker.park(Duration::from_millis(1));
}

fn timer_loop(inner: &Arc<Inner>) {
    loop {
        let mut st = inner.timer.lock();
        if st.shutdown {
            return;
        }
        match st.heap.peek().map(|e| e.at) {
            None => {
                inner.timer_wake.wait(&mut st);
            }
            Some(at) => {
                let now = Instant::now();
                if at <= now {
                    let entry = st.heap.pop().expect("peeked entry");
                    drop(st);
                    inner.spawn(entry.job);
                } else {
                    inner.timer_wake.wait_until(&mut st, at);
                }
            }
        }
    }
}

/// Run `f`, booking the current executor worker (if any) as blocked so the
/// pool spawns a spare when its runnable head-count would drop below base.
/// On a non-executor thread this is just `f()` — after handing over any
/// chain jobs the thread holds, which it is about to stop running.
///
/// Wrap any wait whose completion depends on other executor tasks running:
/// synchronous call waits, result-handle gets, contended object locks. Also
/// used for long simulated compute sleeps so they don't serialise the pool.
pub fn blocking<T>(f: impl FnOnce() -> T) -> T {
    flush_chain();
    let Some((inner, slot)) = CURRENT.with(|c| c.borrow().clone()) else {
        return f();
    };
    // This worker is about to stop popping its own deque, and what it waits
    // for may be sitting there: hand the deque to the stripe (before the
    // ledger can start a spare, so the spare finds the jobs without
    // stealing) and wake one worker for it.
    if let Some(stripe) = requeue_local(&inner, &slot) {
        inner.wake_for(stripe);
    }
    {
        let mut cap = inner.cap.lock();
        cap.blocked += 1;
        inner.obs.blocked.set(cap.blocked as f64);
        inner.compensate(&mut cap);
    }
    let out = f();
    {
        let mut cap = inner.cap.lock();
        cap.blocked -= 1;
        inner.obs.blocked.set(cap.blocked as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_spawned_jobs() {
        let ex = Executor::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..100 {
            let tx = tx.clone();
            ex.spawn(Box::new(move || {
                let _ = tx.send(i);
            }));
        }
        let mut got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        ex.shutdown();
    }

    #[test]
    fn spawn_at_orders_by_deadline_then_submission() {
        let ex = Executor::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let base = Instant::now() + Duration::from_millis(50);
        // Submit out of deadline order; equal deadlines keep submission order.
        for (tag, off) in [("c", 20u64), ("a", 0), ("b", 10), ("a2", 0)] {
            let order = Arc::clone(&order);
            ex.spawn_at(
                base + Duration::from_millis(off),
                Box::new(move || order.lock().push(tag)),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while order.lock().len() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*order.lock(), vec!["a", "a2", "b", "c"]);
        ex.shutdown();
    }

    #[test]
    fn due_now_spawn_at_skips_the_timer_thread() {
        let ex = Executor::new(1);
        let (tx, rx) = mpsc::channel();
        ex.spawn_at(
            Instant::now(),
            Box::new(move || {
                let _ = tx.send(std::thread::current().name().map(str::to_owned));
            }),
        );
        // Never armed on the heap: it went straight to a run queue.
        assert_eq!(ex.stats().timer_pending, 0);
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ran_on.as_deref(), Some("jsym-exec-w0"));
        ex.shutdown();
    }

    #[test]
    fn local_spawn_is_stolen_while_the_spawner_stays_busy() {
        // A worker spawns a job (its own deque, nobody woken) and then runs
        // on for 20 ms without blocking. The idle peer must pick the job up
        // on its park cadence, not after the spawner is done.
        let ex = Executor::new(2);
        let (tx, rx) = mpsc::channel();
        let ex2 = Arc::clone(&ex);
        ex.spawn(Box::new(move || {
            let me = std::thread::current().id();
            let spawned = Instant::now();
            let tx2 = tx.clone();
            ex2.spawn(Box::new(move || {
                let _ = tx2.send((spawned.elapsed(), std::thread::current().id() != me));
            }));
            drop(ex2);
            std::thread::sleep(Duration::from_millis(20));
        }));
        let (waited, on_peer) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(on_peer, "the busy spawner cannot have run it");
        // In practice within two 1 ms park timeouts; the bound only has to
        // separate that from "after the spawner's 20 ms".
        assert!(waited < Duration::from_millis(10), "waited {waited:?}");
        assert_eq!(ex.stats().steals, 1);
        ex.shutdown();
    }

    #[test]
    fn local_spawn_then_blocking_hands_the_job_over() {
        // One worker: it spawns the job that releases it into its own deque
        // and then blocks. The deque is flushed to the stripe on `blocking`
        // entry, so the compensation spare finds the job where every worker
        // looks first instead of having to steal it.
        let ex = Executor::new(1);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let ex2 = Arc::clone(&ex);
        ex.spawn(Box::new(move || {
            let (tx, rx) = mpsc::channel::<()>();
            ex2.spawn(Box::new(move || {
                let _ = tx.send(());
            }));
            drop(ex2);
            blocking(|| rx.recv().unwrap());
            let _ = done_tx.send(());
        }));
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the locally spawned job must run while its spawner waits");
        let stats = ex.stats();
        assert_eq!(stats.spare_spawns, 1);
        assert_eq!(stats.steals, 0, "the job was left in the blocked deque");
        ex.shutdown();
    }

    #[test]
    fn blocking_compensation_prevents_starvation() {
        // One worker; the first job blocks until the second job (which can
        // only run on a compensation spare) releases it.
        let ex = Executor::new(1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&str>();
        {
            let done = done_tx.clone();
            ex.spawn(Box::new(move || {
                blocking(|| release_rx.recv().unwrap());
                let _ = done.send("blocked-job");
            }));
        }
        // Give the first job time to occupy the only base worker.
        std::thread::sleep(Duration::from_millis(50));
        ex.spawn(Box::new(move || {
            release_tx.send(()).unwrap();
            let _ = done_tx.send("releaser");
        }));
        let mut got = vec![
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec!["blocked-job", "releaser"]);
        assert!(ex.stats().spare_spawns >= 1);
        ex.shutdown();
    }

    #[test]
    fn deep_nested_blocking_chain_completes_on_tiny_pool() {
        // Each level parks its worker until the next level (a fresh task)
        // signals back — a depth-64 chain on a 2-thread pool deadlocks
        // without compensation.
        let ex = Executor::new(2);
        fn level(ex: Arc<Executor>, depth: usize, done: mpsc::Sender<()>) {
            if depth == 0 {
                let _ = done.send(());
                return;
            }
            let (tx, rx) = mpsc::channel::<()>();
            {
                let ex2 = Arc::clone(&ex);
                ex.spawn(Box::new(move || {
                    level(ex2, depth - 1, done);
                    let _ = tx.send(());
                }));
            }
            blocking(|| rx.recv().unwrap());
        }
        let (done_tx, done_rx) = mpsc::channel();
        let ex2 = Arc::clone(&ex);
        ex.spawn(Box::new(move || level(ex2, 64, done_tx)));
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("nested chain should complete");
        ex.shutdown();
    }

    #[test]
    fn spares_retire_after_blocking_clears() {
        let ex = Executor::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        ex.spawn(Box::new(move || {
            blocking(|| rx.recv().unwrap());
        }));
        std::thread::sleep(Duration::from_millis(50));
        // Force compensation by keeping the base worker blocked while more
        // work flows through spares.
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            ex.spawn(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ex.stats().spares > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ex.stats().spares, 0, "spares should retire");
        ex.shutdown();
    }

    #[test]
    fn retired_spares_are_joined_not_accumulated() {
        // Each burst blocks one of two workers, which spawns a spare; the
        // spare retires before the next burst starts. The handle list must
        // hold the live threads plus the few retired since the last spawn,
        // not one entry per spare ever spawned.
        let ex = Executor::new(2);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for burst in 0..2_000u64 {
            while ex.stats().spares > 0 {
                std::thread::yield_now();
            }
            let done = done_tx.clone();
            ex.spawn(Box::new(move || {
                blocking(|| ());
                let _ = done.send(());
            }));
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(ex.stats().spare_spawns, burst + 1);
            // Two workers, the timer, the live spare, and the retired ones
            // whose threads had not quite exited at the last spawn.
            let handles = ex.inner.threads.lock().len();
            assert!(handles <= 8, "{handles} handles after {burst} bursts");
        }
        ex.shutdown();
    }

    #[test]
    fn shutdown_drops_pending_and_is_idempotent() {
        let ex = Executor::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        ex.shutdown();
        let r = Arc::clone(&ran);
        ex.spawn(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        ex.spawn_at(
            Instant::now(),
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
        );
        ex.shutdown();
        assert_eq!(ex.stats().queue_depth, 0);
        assert_eq!(ex.stats().timer_pending, 0);
    }

    #[test]
    fn blocking_outside_executor_is_passthrough() {
        assert_eq!(blocking(|| 41 + 1), 42);
    }

    /// A job that records its label and the thread it ran on.
    type Log = Arc<Mutex<Vec<(&'static str, std::thread::ThreadId)>>>;
    fn logging(log: &Log, label: &'static str) -> Job {
        let log = Arc::clone(log);
        Box::new(move || log.lock().push((label, std::thread::current().id())))
    }
    fn wait_for(log: &Log, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while log.lock().len() < n {
            assert!(Instant::now() < deadline, "{:?}", log.lock());
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_helping_thread_runs_its_due_wakeups_and_its_own_requests_only() {
        let ex = Executor::new(1);
        let other = Executor::new(1);
        let log = Log::default();
        let me = std::thread::current().id();
        let out = ex.help(
            7,
            || {
                ex.spawn_at(Instant::now(), logging(&log, "due"));
                ex.spawn_for(7, logging(&log, "mine"));
                ex.spawn_for(8, logging(&log, "strangers"));
                ex.spawn(logging(&log, "untagged"));
                other.spawn_at(Instant::now(), logging(&log, "other executor"));
                ex.spawn_at(
                    Instant::now() + Duration::from_millis(20),
                    logging(&log, "future"),
                );
                // A nested scope sees the outer request as open too.
                ex.help(9, || ex.spawn_for(7, logging(&log, "outer")), |_| false);
                "issued"
            },
            |_| false,
        );
        assert_eq!(out, "issued");
        assert!(!helping());
        wait_for(&log, 7);
        let log = log.lock();
        let on_me: Vec<_> = log
            .iter()
            .filter(|(_, t)| *t == me)
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(on_me, ["due", "mine", "outer"], "{log:?}");
        assert_eq!(ex.stats().caller_jobs, 3);
        assert_eq!(other.stats().caller_jobs, 0);
        ex.shutdown();
        other.shutdown();
    }

    #[test]
    fn leftover_chain_jobs_reach_the_workers_in_order() {
        let ex = Executor::new(1);
        let me = std::thread::current().id();
        // Left when the scope closes, when it unwinds, and when the thread
        // enters `blocking`: each time both jobs run, in order, elsewhere.
        for how in ["done", "unwind", "blocking"] {
            let log = Log::default();
            let issue = || {
                ex.spawn_for(1, logging(&log, "first"));
                ex.spawn_for(1, logging(&log, "second"));
                match how {
                    "unwind" => panic!("unwinding out of the scope"),
                    "blocking" => blocking(|| wait_for(&log, 2)),
                    _ => {}
                }
            };
            let run = std::panic::AssertUnwindSafe(|| ex.help(1, issue, |_| true));
            assert_eq!(std::panic::catch_unwind(run).is_err(), how == "unwind");
            assert!(!helping(), "{how}");
            wait_for(&log, 2);
            let log = log.lock();
            assert_eq!((log[0].0, log[1].0), ("first", "second"), "{how}");
            assert!(log.iter().all(|(_, t)| *t != me), "{how}: {log:?}");
        }
        assert_eq!(ex.stats().caller_jobs, 0);
        ex.shutdown();
    }

    #[test]
    fn help_scopes_nest_to_a_bound_and_then_fall_back() {
        let ex = Executor::new(1);
        fn nest(ex: &Executor, depth: usize, log: &Log) {
            ex.help(
                depth as u64,
                || {
                    if depth < MAX_HELP_DEPTH + 1 {
                        nest(ex, depth + 1, log);
                    } else {
                        // One level too deep: no scope, so not this thread's.
                        ex.spawn_for(depth as u64, logging(log, "too deep"));
                    }
                },
                |_| false,
            )
        }
        let log = Log::default();
        nest(&ex, 1, &log);
        wait_for(&log, 1);
        assert_ne!(log.lock()[0].1, std::thread::current().id());
        assert_eq!(ex.stats().caller_jobs, 0);
        ex.shutdown();
    }
}
