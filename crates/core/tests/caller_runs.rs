//! A synchronous caller runs its own call (DESIGN.md §13.1).
//!
//! Between issuing a synchronous request and its reply a thread runs, itself,
//! the delivery drain (through the due-now wake-ups it armed or, on a worker
//! whose chain ran dry, by claiming a drain that is due and free) and the
//! handlers of requests open on its own stack — nothing else. These tests hold the rule
//! and its edges from outside, on booted deployments:
//!
//! 1. one seeded operation stream gives the results of a sequential model
//!    whether its calls run inline, park, or are issued from inside a method;
//! 2. a probe method reports which thread ran it: the caller when the target
//!    is idle and the link free, a worker when the object's drain is busy or
//!    the message is due in the future;
//! 3. one-sided and synchronous calls on one object keep their order across
//!    the two paths, and so do its `store` and `migrate`;
//! 4. a stranger's call delivered by a drain running on top of A's method
//!    never runs on that stack, and `store(A)` / `migrate(A)` delivered there
//!    queue behind the method like any call on A;
//! 5. two callers on one object lose no update;
//! 6. a panicking method costs its caller an error, not a thread;
//! 7. two deployments in one process do not share a chain;
//! 8. chain jobs a caller still holds when it blocks reach the workers;
//! 9. calls that queued on an object behind the caller's own are not the
//!    caller's to run;
//! 10. a worker does not park (and buy a spare) for a message whose wake-up
//!     sits in its own deque.
//!
//! Plain `#[test]` with an in-file xorshift: the seeds are fixed, and a
//! failure names its seed and mode.
//!
//! Mutation smokes (run by hand, each makes the named test fail):
//!
//! * drop `flush_chain()` from `jsym_exec::blocking` —
//!   `chain_jobs_are_handed_over_when_the_caller_blocks` times out (the
//!   caller sleeps on a reply whose delivery sits in its own chain), and so
//!   does the inline-method mode of `one_stream_three_ways_matches_the_model`;
//! * let `Executor::spawn_for` queue a job on the chain whatever its request
//!   (`req.is_none_or(..)` → `true`) —
//!   `strangers_calls_never_run_on_the_methods_stack` fails on a timed-out
//!   call: B's `ask` runs on top of A's method and waits for A's own drain;
//! * let an object drain started by a waiting caller run a whole batch
//!   (`ObjExecutor::drain`: `left` = 64 whoever runs it) —
//!   `calls_queued_behind_the_callers_own_are_left_to_the_workers` times out;
//! * drop the second `help` (the one around `deliver_due`) from
//!   `NodeShared::run_own_call` —
//!   `a_worker_claims_the_drain_its_own_deque_holds_the_wakeup_for` sees a
//!   spare's thread id.

use jsym_core::obs::MetricKey;
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    CostModel, Deployment, InvokeCtx, JsClass, JsError, JsObj, JsRegistration, JsShell,
    MachineConfig, MigrateTarget, Placement, Result, Value,
};
use jsym_net::{NodeId, Payload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `machines` idle machines, the NA quiesced, free cost model, metrics on. A
/// failing wait surfaces as `Timeout` after 4 s, not after two minutes.
fn shell(machines: usize, time_scale: f64, executor: usize) -> JsShell {
    JsShell::new()
        .add_machines((0..machines).map(|i| MachineConfig::idle(&format!("m{i}"), 50.0)))
        .time_scale(time_scale)
        .monitor_period(1e9)
        .failure_timeout(1e9)
        .cost_model(CostModel::free())
        .call_timeout(Duration::from_secs(4))
        .executor(executor)
}

/// Virtual seconds cost nothing: every message is due the moment it is sent.
const ZERO_LATENCY: f64 = 1e-6;
/// Real time: a LAN message is due 0.9 ms after it is sent, far beyond the
/// delivery plane's spin horizon, so whoever waits for it parks.
const REAL_TIME: f64 = 1.0;

/// `rmi.sync{inline|parked}` summed over the machines.
fn sync_waits(d: &Deployment) -> (u64, u64) {
    let metrics = d.obs().metrics().snapshot();
    let sum = |how: &str| -> u64 {
        d.machines()
            .iter()
            .map(|m| {
                let key = MetricKey::new("rmi.sync", Some(m.0), how);
                metrics.counters.get(&key).copied().unwrap_or(0)
            })
            .sum()
    };
    (sum("inline"), sum("parked"))
}

fn me() -> Value {
    Value::Str(format!("{:?}", std::thread::current().id()))
}

/// Runs `f` on its own thread; panics if it is not back within 5 s.
fn within_5s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = crossbeam::channel::bounded(1);
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what}: not done after 5 s"))
}

/// Polls `cond` until it holds; panics if it does not within 5 s.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}: not after 5 s");
        std::thread::yield_now();
    }
}

// ------------------------------------------------------------ scripted class

type Body =
    dyn Fn(&mut i64, &str, &[Value], &mut InvokeCtx<'_>) -> Result<Value> + Send + Sync + 'static;

/// A class whose methods are one closure of the test over one integer of
/// state (which is all that migrates).
struct Script {
    class: &'static str,
    value: i64,
    body: Arc<Body>,
}

impl JsClass for Script {
    fn class_name(&self) -> &str {
        self.class
    }
    fn invoke(&mut self, method: &str, args: &[Value], ctx: &mut InvokeCtx<'_>) -> Result<Value> {
        (self.body)(&mut self.value, method, args, ctx)
    }
    fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(self.value.to_le_bytes().to_vec())
    }
}

fn register_script(
    d: &Deployment,
    class: &'static str,
    body: impl Fn(&mut i64, &str, &[Value], &mut InvokeCtx<'_>) -> Result<Value> + Send + Sync + 'static,
) {
    let body: Arc<Body> = Arc::new(body);
    let restored = Arc::clone(&body);
    let make = move |value: i64, body: &Arc<Body>| {
        Box::new(Script {
            class,
            value,
            body: Arc::clone(body),
        }) as Box<dyn JsClass>
    };
    d.classes().register_raw(
        class,
        None,
        move |_| Ok(make(0, &body)),
        move |bytes| {
            let value = bytes
                .try_into()
                .map_err(|_| JsError::Serialization("a Script is 8 bytes".into()))?;
            Ok(make(i64::from_le_bytes(value), &restored))
        },
    );
}

fn create(reg: &JsRegistration, class: &str, node: u32) -> JsObj {
    JsObj::create(reg, class, &[], Placement::OnPhys(NodeId(node)), None).unwrap()
}

/// Where a test leaves the closure a `Host` is to run.
type JobSlot = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// A class whose one method runs whatever closure the test left in `job` —
/// how a test gets its own code to execute *inside a method*.
fn register_host(d: &Deployment, job: &JobSlot) {
    let job = Arc::clone(job);
    register_script(d, "Host", move |_, _, _, _| {
        let run = job.lock().unwrap().take().expect("a job was left");
        run();
        Ok(Value::Null)
    });
}

// ------------------------------------------------- (1) one stream, three ways

const OBJECTS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Op {
    Sync(usize, i64),
    OneWay(usize, i64),
    /// `ainvoke` and, straight away, `get_result`.
    Async(usize, i64),
    Migrate(usize, u32),
    Store(usize),
    /// `free`, then `create` a successor with this initial value.
    Recreate(usize, u32, i64),
}

fn program(seed: u64) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    (0..120)
        .map(|_| {
            let (o, k, n) = (
                rng.below(OBJECTS),
                rng.below(200) as i64 - 100,
                rng.below(3) as u32,
            );
            match rng.below(10) {
                0..=2 => Op::Sync(o, k),
                3..=4 => Op::OneWay(o, k),
                5..=6 => Op::Async(o, k),
                7 => Op::Migrate(o, n),
                8 => Op::Store(o),
                _ => Op::Recreate(o, n, k),
            }
        })
        .collect()
}

#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// What every call that returns a value returned, in program order.
    results: Vec<i64>,
    /// The state each `store` persisted, read back from a re-loaded copy.
    stored: Vec<i64>,
    finals: Vec<i64>,
    locations: Vec<u32>,
}

/// The reference: eight integers, eight locations. `place` maps the
/// program's node numbers onto the machines a mode may use.
fn model(ops: &[Op], place: fn(u32) -> u32) -> Outcome {
    let mut vals = [0i64; OBJECTS];
    let mut out = Outcome {
        locations: (0..OBJECTS).map(|i| place(i as u32 % 3)).collect(),
        ..Outcome::default()
    };
    for &op in ops {
        match op {
            Op::Sync(o, k) | Op::Async(o, k) => {
                vals[o] += k;
                out.results.push(vals[o]);
            }
            Op::OneWay(o, k) => vals[o] += k,
            Op::Migrate(o, n) => {
                out.results.push(vals[o]); // the quiescing read
                out.locations[o] = place(n);
            }
            Op::Store(o) => {
                out.results.push(vals[o]);
                out.stored.push(vals[o]);
            }
            Op::Recreate(o, n, k) => {
                out.results.push(vals[o]);
                vals[o] = k;
                out.locations[o] = place(n);
            }
        }
    }
    out.finals = vals.to_vec();
    out
}

/// The same program against a deployment, from whatever thread calls this.
fn interpret(reg: &JsRegistration, ops: &[Op], place: fn(u32) -> u32) -> Outcome {
    let on = |n: u32| Placement::OnPhys(NodeId(place(n)));
    let int = |v: Value| v.as_i64().expect("a Counter answers with an integer");
    let mut objs: Vec<JsObj> = (0..OBJECTS)
        .map(|i| JsObj::create(reg, "Counter", &[], on(i as u32 % 3), None).unwrap())
        .collect();
    let mut out = Outcome::default();
    let mut keys = Vec::new();
    for &op in ops {
        // Migrate, store and free do not queue behind the object's one-sided
        // calls still in flight; a synchronous read first does, so the
        // interleaving is the program's and not the scheduler's.
        if let Op::Migrate(o, _) | Op::Store(o) | Op::Recreate(o, ..) = op {
            out.results.push(int(objs[o].sinvoke("get", &[]).unwrap()));
        }
        match op {
            Op::Sync(o, k) => out
                .results
                .push(int(objs[o].sinvoke("add", &[Value::I64(k)]).unwrap())),
            Op::OneWay(o, k) => objs[o].oinvoke("add", &[Value::I64(k)]).unwrap(),
            Op::Async(o, k) => {
                let handle = objs[o].ainvoke("add", &[Value::I64(k)]).unwrap();
                out.results.push(int(handle.get_result().unwrap()));
            }
            Op::Migrate(o, n) => {
                objs[o]
                    .migrate(MigrateTarget::ToPhys(NodeId(place(n))), None)
                    .unwrap();
            }
            Op::Store(o) => keys.push(objs[o].store(None).unwrap()),
            Op::Recreate(o, n, k) => {
                objs[o].free().unwrap();
                objs[o] = JsObj::create(reg, "Counter", &[Value::I64(k)], on(n), None).unwrap();
            }
        }
    }
    for key in keys {
        let copy = reg.load_stored(&key, on(0), None).unwrap();
        out.stored.push(int(copy.sinvoke("get", &[]).unwrap()));
        copy.free().unwrap();
    }
    out.finals = objs
        .iter()
        .map(|o| int(o.sinvoke("get", &[]).unwrap()))
        .collect();
    out.locations = objs.iter().map(|o| o.get_location().unwrap().0).collect();
    out
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Zero latency, issued by the test thread: calls run inline.
    Inline,
    /// Real-time latency and no object beside the application: every
    /// message is due in the future, every wait parks.
    Parked,
    /// Zero latency, issued from inside a method that the only worker of a
    /// 1-worker executor is running.
    OnTheWorker,
    /// Zero latency, issued from inside a method that the test thread is
    /// running for its own `sinvoke`.
    InAnInlineMethod,
}

fn run_stream(seed: u64, mode: Mode) {
    let ops = program(seed);
    let place: fn(u32) -> u32 = match mode {
        Mode::Parked => |n| 1 + n % 2,
        _ => |n| n,
    };
    let (scale, executor) = match mode {
        Mode::Parked => (REAL_TIME, 2),
        Mode::OnTheWorker => (ZERO_LATENCY, 1),
        _ => (ZERO_LATENCY, 2),
    };
    let d = shell(3, scale, executor).boot();
    register_test_classes(&d);
    let job = JobSlot::default();
    register_host(&d, &job);
    let reg = Arc::new(d.register_app().unwrap());
    let got = match mode {
        Mode::Inline | Mode::Parked => interpret(&reg, &ops, place),
        Mode::OnTheWorker | Mode::InAnInlineMethod => {
            let host = create(&reg, "Host", 0);
            let result = Arc::new(Mutex::new(None));
            let (reg2, ops2, result2) = (Arc::clone(&reg), ops.clone(), Arc::clone(&result));
            *job.lock().unwrap() = Some(Box::new(move || {
                *result2.lock().unwrap() = Some((interpret(&reg2, &ops2, place), me()));
            }));
            if mode == Mode::OnTheWorker {
                // Not a synchronous call: a worker runs the method.
                host.ainvoke("run", &[]).unwrap().get_result().unwrap();
            } else {
                host.sinvoke("run", &[]).unwrap();
            }
            let (got, ran_on) = result.lock().unwrap().take().expect("the method ran");
            assert_eq!(
                ran_on == me(),
                mode == Mode::InAnInlineMethod,
                "seed {seed} {mode:?}: the method ran on {ran_on:?}"
            );
            got
        }
    };
    assert_eq!(got, model(&ops, place), "seed {seed} {mode:?}");
    let (inline, parked) = sync_waits(&d);
    let stats = d.exec_stats().unwrap();
    match mode {
        // A reply counts as inline if it is in when its caller looks, and on
        // a loaded box a thread can lose the CPU for a whole 1.8 ms round
        // trip between sending and looking.
        Mode::Parked => assert!(
            inline * 10 < parked,
            "seed {seed}: {inline} inline, {parked} parked"
        ),
        // How many is the scheduler's business: when the worker that woke
        // this thread is still in the delivery drain as the next call is
        // issued, that wait parks. Test (2) pins down the cases that have
        // one answer.
        _ => assert!(
            inline > 0 && stats.caller_jobs > 0,
            "seed {seed} {mode:?}: {inline} inline, {parked} parked, {stats:?}"
        ),
    }
    assert_eq!(stats.blocked, 0, "seed {seed} {mode:?}");
    reg.unregister().unwrap();
    d.shutdown();
}

#[test]
fn one_stream_three_ways_matches_the_model() {
    for seed in [17, 18] {
        for mode in [
            Mode::Inline,
            Mode::Parked,
            Mode::OnTheWorker,
            Mode::InAnInlineMethod,
        ] {
            run_stream(seed, mode);
        }
    }
}

// ------------------------------------------------------ (2) who ran the method

/// `tid` answers with the thread running it; `hold` reports that it started
/// and then keeps its object's drain busy for 300 ms.
fn register_probe(d: &Deployment, started: crossbeam::channel::Sender<()>) {
    register_script(d, "Probe", move |_, method, _, _| {
        if method == "hold" {
            started.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(300));
        }
        Ok(me())
    });
}

#[test]
fn the_caller_runs_an_idle_object_and_a_worker_runs_a_busy_or_distant_one() {
    let (started_tx, started) = crossbeam::channel::bounded(1);
    // One worker, so that what it does after `hold` below has one order.
    let d = shell(2, ZERO_LATENCY, 1).boot();
    register_probe(&d, started_tx.clone());
    let reg = d.register_app().unwrap();
    let (beside, remote) = (create(&reg, "Probe", 0), create(&reg, "Probe", 1));
    for _ in 0..100 {
        assert_eq!(beside.sinvoke("tid", &[]).unwrap(), me());
        assert_eq!(remote.sinvoke("tid", &[]).unwrap(), me());
    }
    // Nothing waited: two creates and two hundred calls, all inline.
    assert_eq!(sync_waits(&d), (202, 0));
    let stats = d.exec_stats().unwrap();
    assert_eq!((stats.spare_spawns, stats.blocked), (0, 0));
    // A delivery, a handler and a reply delivery each.
    assert_eq!(stats.caller_jobs, 3 * 202);

    // The object's drain is busy on a worker (an asynchronous call is not
    // the caller's to run): the call queues behind it and the worker runs it.
    let held = remote.ainvoke("hold", &[]).unwrap();
    started.recv_timeout(Duration::from_secs(5)).unwrap();
    let ran_on = remote.sinvoke("tid", &[]).unwrap();
    assert_ne!(ran_on, me());
    assert_eq!(ran_on, held.get_result().unwrap(), "the holder's thread");
    assert_eq!(sync_waits(&d), (202, 1));
    // Idle again, inline again — once the worker is out of the delivery
    // drain it woke this thread from.
    eventually("inline again", || {
        remote.sinvoke("tid", &[]).unwrap() == me()
    });
    d.shutdown();

    // The link has latency: the message is due in the future, the timer
    // hands its delivery to a worker, and the worker runs the chain.
    let d = shell(2, REAL_TIME, 2).boot();
    register_probe(&d, started_tx);
    let reg = d.register_app().unwrap();
    let distant = create(&reg, "Probe", 1);
    assert_ne!(distant.sinvoke("tid", &[]).unwrap(), me());
    assert_eq!(sync_waits(&d), (0, 2));
    d.shutdown();
}

// ------------------------------------------- (3) per-object order, both paths

#[test]
fn what_is_done_to_one_object_is_done_in_the_order_it_was_issued() {
    // A one-sided call is delivered by a worker — or by the caller's own
    // drain, if the synchronous call behind it gets there first. Either way
    // the read comes after every add issued before it.
    let d = shell(2, ZERO_LATENCY, 2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    for node in 0..2 {
        let counter = create(&reg, "Counter", node);
        let mut rng = XorShift::new(3 + node as u64);
        let mut total = 0;
        for round in 0..1000 {
            let k = rng.below(5) as i64;
            for _ in 0..k {
                counter.oinvoke("add", &[Value::I64(1)]).unwrap();
            }
            total += k;
            assert_eq!(
                counter.sinvoke("get", &[]).unwrap(),
                Value::I64(total),
                "round {round} on node {node}"
            );
        }
    }
    let (inline, parked) = sync_waits(&d);
    assert!(inline > 0, "{inline} inline, {parked} parked");

    // Storing and migrating an object queue on it like its calls: with no
    // read in between, both see every add issued before them — though the
    // adds are the workers' to run and the store may be this thread's.
    let counter = create(&reg, "Counter", 1);
    let mut rng = XorShift::new(5);
    let mut total = 0;
    for round in 0..200 {
        let k = 1 + rng.below(4) as i64;
        for _ in 0..k {
            counter.oinvoke("add", &[Value::I64(1)]).unwrap();
        }
        total += k;
        let seen = if round % 2 == 0 {
            let key = counter.store(None).unwrap();
            let copy = reg.load_stored(&key, Placement::Local, None).unwrap();
            let seen = copy.sinvoke("get", &[]).unwrap();
            copy.free().unwrap();
            seen
        } else {
            let to = NodeId(round as u32 / 2 % 2);
            counter.migrate(MigrateTarget::ToPhys(to), None).unwrap();
            counter.sinvoke("get", &[]).unwrap()
        };
        assert_eq!(seen, Value::I64(total), "round {round}");
    }
    assert_eq!(d.exec_stats().unwrap().blocked, 0);
    d.shutdown();
}

// ------------------------------------------------------------ (4) lock safety

#[test]
fn strangers_calls_never_run_on_the_methods_stack() {
    // A's method, run by its caller X, sends a message to a gated endpoint
    // and makes a nested call to C. X's delivery drain stops in the gate;
    // while it is held there, three other threads issue store(A), migrate(A)
    // and a call of B's `ask`, which therefore land in X's drain — on top of
    // A's method. None of them is X's to run. `ask` calls A, whose drain is
    // lower on X's stack: run by X it would wait for itself. Store and
    // migrate queue behind A's method like any call on A, and all three then
    // happen in the order they arrived, on the workers.
    let d = shell(3, ZERO_LATENCY, 2).boot();
    register_test_classes(&d);
    let gate = NodeId(99);
    let (reached_tx, reached) = crossbeam::channel::bounded(1);
    let (open_tx, open) = crossbeam::channel::bounded::<()>(1);
    d.network().set_local_hook(
        gate,
        Arc::new(move |_| {
            reached_tx.send(me()).unwrap();
            open.recv_timeout(Duration::from_secs(5)).unwrap();
        }),
    );
    drop(d.network().register(gate));
    let net = d.network().clone();
    register_script(&d, "A", move |value, method, args, ctx| {
        let other = args.first().and_then(Value::as_handle);
        match method {
            "through" => {
                net.send(NodeId(1), gate, Payload::new("gate", 0, ()))
                    .unwrap();
                let added = ctx.invoke(other.unwrap(), "add", &[Value::I64(41)])?;
                *value += added.as_i64().unwrap();
            }
            "ask" => return ctx.invoke(other.unwrap(), "get", &[]),
            _ => {}
        }
        Ok(Value::I64(*value))
    });
    let reg = d.register_app().unwrap();
    let (a, b, c) = (
        create(&reg, "A", 1),
        create(&reg, "A", 1),
        create(&reg, "Counter", 2),
    );
    // Their node learns where C and A are, so that `through` sends C's call
    // next after the gate message and not a location query.
    assert_eq!(c.sinvoke("get", &[]).unwrap(), Value::I64(0));
    b.sinvoke("ask", &[Value::Handle(c.handle())]).unwrap();
    b.sinvoke("ask", &[Value::Handle(a.handle())]).unwrap();

    let (a2, c2) = (a.clone(), c.clone());
    let x = std::thread::spawn(move || {
        let got = a2.sinvoke("through", &[Value::Handle(c2.handle())]);
        (got, me())
    });
    let in_the_gate = reached.recv_timeout(Duration::from_secs(5)).unwrap();
    // One after the other, so that the held drain's heap has them in this
    // order: each is in it once its caller has found nothing to run and
    // gone to wait.
    let waits_before = sync_waits(&d).1;
    let issued = |n| eventually("issued", || sync_waits(&d).1 == waits_before + n);
    let a3 = a.clone();
    let storer = std::thread::spawn(move || a3.store(None));
    issued(1);
    let a4 = a.clone();
    let migrator = std::thread::spawn(move || a4.migrate(MigrateTarget::ToPhys(NodeId(2)), None));
    issued(2);
    let (a5, b5) = (a.clone(), b.clone());
    let asker = std::thread::spawn(move || b5.sinvoke("ask", &[Value::Handle(a5.handle())]));
    issued(3);
    open_tx.send(()).unwrap();

    let (got, x_id) = within_5s("A's method", move || x.join().unwrap());
    assert_eq!(in_the_gate, x_id, "the caller ran the gated drain itself");
    assert_eq!(got.unwrap(), Value::I64(41));
    // Stored after the method, moved after that, asked (and sent on) last.
    let key = within_5s("store(A)", move || storer.join().unwrap()).unwrap();
    let copy = reg.load_stored(&key, Placement::Local, None).unwrap();
    assert_eq!(copy.sinvoke("get", &[]).unwrap(), Value::I64(41));
    let moved = within_5s("migrate(A)", move || migrator.join().unwrap());
    assert_eq!(moved.unwrap(), NodeId(2));
    let asked = within_5s("B's ask", move || asker.join().unwrap());
    assert_eq!(asked.unwrap(), Value::I64(41));
    assert_eq!(a.get_location().unwrap(), NodeId(2));
    assert_eq!(d.exec_stats().unwrap().blocked, 0);
    d.shutdown();
}

// ------------------------------------------------- (5) two callers, one object

#[test]
fn two_threads_hammering_one_object_lose_no_update() {
    let d = shell(2, ZERO_LATENCY, 2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let counter = create(&reg, "Counter", 1);
    const CALLS: i64 = 5000;
    let go = Arc::new(std::sync::Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let (counter, go) = (counter.clone(), Arc::clone(&go));
            std::thread::spawn(move || {
                go.wait();
                let mut last = 0;
                for _ in 0..CALLS {
                    let now = counter
                        .sinvoke("add", &[Value::I64(1)])
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    assert!(now > last, "{now} after {last}");
                    last = now;
                }
            })
        })
        .collect();
    for t in threads {
        within_5s("a hammering thread", move || t.join().unwrap());
    }
    assert_eq!(counter.sinvoke("get", &[]).unwrap(), Value::I64(2 * CALLS));
    let stats = d.exec_stats().unwrap();
    assert_eq!((stats.blocked, stats.spare_spawns), (0, 0));
    d.shutdown();
}

// ------------------------------------------------------ (6) a panicking method

#[test]
fn a_panicking_method_fails_its_call_and_takes_no_thread() {
    for workers in [1, 2] {
        let d = shell(2, ZERO_LATENCY, workers).boot();
        register_script(&d, "Bomb", |_, method, args, ctx| match method {
            "boom" => panic!("kaboom"),
            "relay" => ctx.invoke(args[0].as_handle().unwrap(), "boom", &[]),
            _ => Ok(Value::I64(1)),
        });
        let reg = d.register_app().unwrap();
        let (bomb, relay) = (create(&reg, "Bomb", 1), create(&reg, "Bomb", 0));
        let before = d.exec_stats().unwrap();
        let panicked = Err(JsError::MethodFailed("panicked: kaboom".into()));

        // On the application thread, which runs its own call.
        let t0 = Instant::now();
        assert_eq!(bomb.sinvoke("boom", &[]), panicked);
        // On a worker, under a nested call that worker runs itself.
        let nested = relay
            .ainvoke("relay", &[Value::Handle(bomb.handle())])
            .unwrap();
        assert_eq!(nested.get_result(), panicked);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        // One-sided: nobody to tell, so it is counted.
        bomb.oinvoke("boom", &[]).unwrap();

        // The object still answers — its lock was released — from the
        // caller's thread and, the workers all being alive, from theirs.
        assert_eq!(bomb.sinvoke("ok", &[]).unwrap(), Value::I64(1));
        let on_a_worker = bomb.ainvoke("ok", &[]).unwrap();
        assert_eq!(on_a_worker.get_result().unwrap(), Value::I64(1));
        let lost = MetricKey::new("rmi.oneway_lost", Some(1), "failed");
        let metrics = d.obs().metrics().snapshot();
        assert_eq!(metrics.counters.get(&lost).copied(), Some(1));
        let after = d.exec_stats().unwrap();
        assert_eq!(
            (after.threads, after.blocked),
            (before.threads, before.blocked)
        );
        d.shutdown();
    }
}

// ------------------------------------------ (7) one chain per deployment

#[test]
fn two_deployments_in_one_process_do_not_share_a_chain() {
    let (started, _) = crossbeam::channel::bounded(1);
    let d2 = shell(1, ZERO_LATENCY, 1).boot();
    register_probe(&d2, started);
    let reg2 = d2.register_app().unwrap();
    let probe = create(&reg2, "Probe", 0);
    assert_eq!(probe.sinvoke("tid", &[]).unwrap(), me());

    let d1 = shell(1, ZERO_LATENCY, 1).boot();
    let probe2 = probe.clone();
    register_script(&d1, "Bridge", move |_, method, _, _| match method {
        "cross" => probe2.sinvoke("tid", &[]),
        _ => probe2.oinvoke("tid", &[]).map(|()| Value::Null),
    });
    let reg1 = d1.register_app().unwrap();
    let bridge = create(&reg1, "Bridge", 0);
    let helped = |d: &Deployment| d.exec_stats().unwrap().caller_jobs;
    // This thread runs the bridge's method inside the first deployment's
    // call. The call it makes there into the second deployment is not part
    // of that chain: the second deployment's workers run it.
    let (helped1, helped2) = (helped(&d1), helped(&d2));
    let ran_on = bridge.sinvoke("cross", &[]).unwrap();
    assert_ne!(ran_on, me());
    // Nor is the delivery a one-sided call into the second deployment arms:
    // this thread ran its own delivery, handler and reply delivery, twice.
    bridge.sinvoke("poke", &[]).unwrap();
    assert_eq!(
        (helped(&d1), helped(&d2)),
        (helped1 + 6, helped2),
        "jobs run by waiting callers"
    );
    // Outside it, the second deployment's calls are this thread's again —
    // once its worker is done with the one-sided call.
    eventually("this thread's again", || {
        probe.sinvoke("tid", &[]).unwrap() == me()
    });
    d1.shutdown();
    d2.shutdown();
}

// ------------------------------------- (8) a caller that blocks hands over

#[test]
fn chain_jobs_are_handed_over_when_the_caller_blocks() {
    // The method runs on the thread that called it. Its asynchronous call
    // arms a delivery on that thread's chain; the `get_result` that follows
    // is a plain wait, which runs nothing — so the delivery has to go to the
    // workers before the thread sleeps.
    let d = shell(2, ZERO_LATENCY, 1).boot();
    register_test_classes(&d);
    let job = JobSlot::default();
    register_host(&d, &job);
    let reg = d.register_app().unwrap();
    let (host, counter) = (create(&reg, "Host", 0), create(&reg, "Counter", 1));
    let answered = Arc::new(AtomicBool::new(false));
    let (counter2, answered2) = (counter.clone(), Arc::clone(&answered));
    *job.lock().unwrap() = Some(Box::new(move || {
        let pending = counter2.ainvoke("add", &[Value::I64(7)]).unwrap();
        let woke = pending.get_result();
        answered2.store(woke == Ok(Value::I64(7)), Ordering::SeqCst);
    }));
    host.sinvoke("run", &[]).unwrap();
    assert!(answered.load(Ordering::SeqCst), "the reply never came");
    d.shutdown();
}

// ------------------------------------- (9) the caller runs its own call only

#[test]
fn calls_queued_behind_the_callers_own_are_left_to_the_workers() {
    // X runs A's method, which calls B's `slow`; X runs that too. While it
    // does, a second caller's `ask` queues on B behind it. `ask` calls A —
    // whose drain is X's, lower on X's stack — so were X to go on draining
    // B after its own call, it would wait for itself.
    let d = shell(2, ZERO_LATENCY, 2).boot();
    let (entered_tx, entered) = crossbeam::channel::bounded(1);
    let (go_tx, go) = crossbeam::channel::bounded::<()>(1);
    register_script(&d, "Pair", move |value, method, args, ctx| {
        let other = args.first().and_then(Value::as_handle);
        match method {
            "outer" => ctx.invoke(other.unwrap(), "slow", &[]),
            "slow" => {
                entered_tx.send(me()).unwrap();
                go.recv_timeout(Duration::from_secs(5)).unwrap();
                Ok(me())
            }
            "ask" => ctx.invoke(other.unwrap(), "get", &[]),
            _ => Ok(Value::I64(*value)),
        }
    });
    let reg = d.register_app().unwrap();
    let (a, b) = (create(&reg, "Pair", 0), create(&reg, "Pair", 1));
    let (a2, b2) = (a.clone(), b.clone());
    let x = std::thread::spawn(move || {
        let ran_on = a2.sinvoke("outer", &[Value::Handle(b2.handle())]);
        (ran_on, me())
    });
    let in_slow = entered.recv_timeout(Duration::from_secs(5)).unwrap();
    let waits_before = sync_waits(&d).1;
    let (a3, b3) = (a.clone(), b.clone());
    let asker = std::thread::spawn(move || b3.sinvoke("ask", &[Value::Handle(a3.handle())]));
    eventually("`ask` issued", || sync_waits(&d).1 > waits_before);
    go_tx.send(()).unwrap();
    let (ran_on, x_id) = within_5s("the outer call", move || x.join().unwrap());
    assert_eq!((ran_on.unwrap(), in_slow), (x_id.clone(), x_id));
    let asked = within_5s("the queued call", move || asker.join().unwrap());
    assert_eq!(asked.unwrap(), Value::I64(0));
    d.shutdown();
}

// --------------------------- (10) a worker claims a due drain nobody is in

#[test]
fn a_worker_claims_the_drain_its_own_deque_holds_the_wakeup_for() {
    // A method on the only worker makes a one-sided call — whose delivery
    // wake-up goes to that worker's own deque, behind the method — and then
    // a synchronous one, which arms nothing (a wake-up is pending) and so
    // finds its chain empty. Parking there would cost a spare thread to run
    // what the worker queued for itself: instead the worker claims the drain
    // that is due and free, and runs its own call.
    let (started, _) = crossbeam::channel::bounded(1);
    let d = shell(2, ZERO_LATENCY, 1).boot();
    register_probe(&d, started);
    let job = JobSlot::default();
    register_host(&d, &job);
    let reg = d.register_app().unwrap();
    let (host, one_sided, called) = (
        create(&reg, "Host", 0),
        create(&reg, "Probe", 1),
        create(&reg, "Probe", 1),
    );
    let ran_on = Arc::new(Mutex::new(None));
    let ran_on2 = Arc::clone(&ran_on);
    *job.lock().unwrap() = Some(Box::new(move || {
        one_sided.oinvoke("tid", &[]).unwrap();
        *ran_on2.lock().unwrap() = Some((called.sinvoke("tid", &[]).unwrap(), me()));
    }));
    host.ainvoke("run", &[]).unwrap().get_result().unwrap();
    let (callee, caller) = ran_on.lock().unwrap().take().expect("the method ran");
    assert_ne!(caller, me(), "a worker ran the method");
    assert_eq!(callee, caller);
    let stats = d.exec_stats().unwrap();
    assert_eq!((stats.spare_spawns, stats.blocked), (0, 0));
    d.shutdown();
}
