//! The runtime against a sequential reference model, at three executor sizes.
//!
//! A seeded random program over two `Counter`s — synchronous, asynchronous
//! and one-sided adds, reads, migrations between the two machines, with
//! bursts long enough that an object's drain task yields and resumes — is
//! interpreted twice: by a model that is two plain integers and two
//! locations, and by a booted deployment. The deployment must agree with the
//! model (every result in program order, the finals, the final locations,
//! the migrations in order, and `invocations + oneway_lost[gone] == issued`),
//! and `executor(1)`, `executor(2)` and `executor(4)` must agree with each
//! other on the id-normalized structural event log and the `NetStats` totals:
//! the same path at three sizes, not a second path.
//!
//! Plain `#[test]` with an in-file xorshift: the seeds are fixed, so a
//! failure (which names its seed and size) reproduces by running it again.

use jsym_core::obs::MetricKey;
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    CostModel, InvokeCtx, JsClass, JsError, JsObj, JsShell, MachineConfig, MigrateTarget,
    Placement, Result, RuntimeEvent, Value,
};
use jsym_net::NodeId;

const SEEDS: std::ops::Range<u64> = 1..9;
const SIZES: [usize; 3] = [1, 2, 4];
const MAX_OPS: usize = 60;
/// Longer than one object-drain batch (64), so the drain yields mid-burst.
const BURST: usize = 1000;

struct XorShift(u64);

impl XorShift {
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

/// One step of the two-counter program (both counters start on the remote
/// machine, so calls cross the modeled link; migration bounces them between
/// the machines mid-program).
#[derive(Clone, Copy, Debug)]
enum Op {
    SyncAdd(usize, i64),
    AsyncAdd(usize, i64),
    OneSidedAdd(usize, i64),
    SyncRead(usize),
    Migrate(usize, u32),
}

fn program(seed: u64) -> Vec<Op> {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut ops = Vec::new();
    for _ in 0..rng.below(MAX_OPS + 1) {
        let (o, k) = (rng.below(2), rng.below(200) as i64 - 100);
        match rng.below(6) {
            0 => ops.push(Op::SyncAdd(o, k)),
            1 => ops.push(Op::AsyncAdd(o, k)),
            2 => ops.push(Op::OneSidedAdd(o, k)),
            3 => ops.push(Op::SyncRead(o)),
            4 => ops.push(Op::Migrate(o, rng.below(2) as u32)),
            // A burst on one object, alternating the two modes that do not
            // wait: whatever the scheduler does, they run in issue order.
            _ => ops.extend((0..BURST).map(|i| match i % 2 {
                0 => Op::OneSidedAdd(o, k),
                _ => Op::AsyncAdd(o, k + i as i64),
            })),
        }
    }
    ops
}

/// What a run is compared on.
#[derive(Default)]
struct Outcome {
    sync_results: Vec<i64>,
    async_results: Vec<i64>,
    finals: Vec<i64>,
    locations: Vec<u32>,
    /// `(object, from, to)` of every migration that moved something.
    migrations: Vec<(usize, u32, u32)>,
    /// Method invocations issued, the program's own reads included.
    issued: u64,
}

impl Outcome {
    /// The first place `self` (a deployment) departs from `model`, if any.
    fn departs_from(&self, model: &Outcome) -> Option<String> {
        fn first_diff<T: PartialEq + std::fmt::Debug>(
            what: &str,
            got: &[T],
            want: &[T],
        ) -> Option<String> {
            let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
            Some(format!(
                "{what}[{at}] is {:?}, the model says {:?} ({} vs {} entries)",
                got.get(at),
                want.get(at),
                got.len(),
                want.len()
            ))
        }
        first_diff("sync_results", &self.sync_results, &model.sync_results)
            .or_else(|| first_diff("async_results", &self.async_results, &model.async_results))
            .or_else(|| first_diff("finals", &self.finals, &model.finals))
            .or_else(|| first_diff("locations", &self.locations, &model.locations))
            .or_else(|| first_diff("migrations", &self.migrations, &model.migrations))
            .or_else(|| first_diff("issued", &[self.issued], &[model.issued]))
    }
}

/// The reference: two integers, two locations.
fn model(ops: &[Op]) -> Outcome {
    let mut vals = [0i64; 2];
    let mut out = Outcome {
        locations: vec![1, 1],
        ..Outcome::default()
    };
    for &op in ops {
        out.issued += 1;
        match op {
            Op::SyncAdd(o, k) => {
                vals[o] += k;
                out.sync_results.push(vals[o]);
            }
            Op::AsyncAdd(o, k) => {
                vals[o] += k;
                out.async_results.push(vals[o]);
            }
            Op::OneSidedAdd(o, k) => vals[o] += k,
            Op::SyncRead(o) => out.sync_results.push(vals[o]),
            Op::Migrate(o, to) => {
                out.sync_results.push(vals[o]); // the quiescing read
                let from = std::mem::replace(&mut out.locations[o], to);
                if from != to {
                    out.migrations.push((o, from, to));
                }
            }
        }
    }
    out.issued += 2; // the final reads
    out.finals = vals.to_vec();
    out
}

/// What sizes are compared on, beyond the model's outcome.
#[derive(Debug, PartialEq)]
struct Transcript {
    events: Vec<String>,
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_delivered: u64,
    msgs_dropped: u64,
    msgs_rejected: u64,
}

/// The structural event log with object ids replaced by dense
/// first-appearance indices, so two runs (which draw from one process-global
/// id generator) compare equal when their histories match.
fn normalize_events(events: Vec<(f64, RuntimeEvent)>) -> Vec<String> {
    let mut ids: Vec<jsym_core::ObjectId> = Vec::new();
    let mut dense = |obj: jsym_core::ObjectId| -> usize {
        match ids.iter().position(|&o| o == obj) {
            Some(i) => i,
            None => {
                ids.push(obj);
                ids.len() - 1
            }
        }
    };
    events
        .into_iter()
        .map(|(_, ev)| match ev {
            RuntimeEvent::ObjectCreated { obj, class, node } => {
                format!("created o{} {class} on {node}", dense(obj))
            }
            RuntimeEvent::Migrated {
                obj,
                from,
                to,
                state_bytes,
            } => format!("migrated o{} {from}->{to} {state_bytes}B", dense(obj)),
            RuntimeEvent::ObjectFreed { obj, node } => {
                format!("freed o{} on {node}", dense(obj))
            }
            other => format!("{:?}", other.kind()),
        })
        .collect()
}

fn two_machine_shell(executor: usize) -> JsShell {
    // NA quiesced (its round is a far-future timer task) so the counters
    // contain application traffic only.
    JsShell::new()
        .add_machine(MachineConfig::idle("m0", 50.0))
        .add_machine(MachineConfig::idle("m1", 50.0))
        .time_scale(1e-5)
        .monitor_period(1e9)
        .failure_timeout(1e9)
        .cost_model(CostModel::free())
        .executor(executor)
}

fn run(ops: &[Op], executor: usize) -> (Outcome, Transcript, u64) {
    let d = two_machine_shell(executor).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let objs: Vec<JsObj> = (0..2)
        .map(|_| JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap())
        .collect();
    let int = |v: Value| v.as_i64().expect("a Counter answers with an integer");
    let mut out = Outcome::default();
    let mut handles = Vec::new();
    for &op in ops {
        match op {
            Op::SyncAdd(o, k) => out
                .sync_results
                .push(int(objs[o].sinvoke("add", &[Value::I64(k)]).unwrap())),
            Op::AsyncAdd(o, k) => handles.push(objs[o].ainvoke("add", &[Value::I64(k)]).unwrap()),
            Op::OneSidedAdd(o, k) => objs[o].oinvoke("add", &[Value::I64(k)]).unwrap(),
            Op::SyncRead(o) => out
                .sync_results
                .push(int(objs[o].sinvoke("get", &[]).unwrap())),
            Op::Migrate(o, n) => {
                // Quiesce this object's in-flight one-sided traffic first so
                // the migrate/invoke interleaving is the program's, not the
                // scheduler's.
                out.sync_results
                    .push(int(objs[o].sinvoke("get", &[]).unwrap()));
                objs[o]
                    .migrate(MigrateTarget::ToPhys(NodeId(n)), None)
                    .unwrap();
            }
        }
    }
    out.async_results = handles
        .into_iter()
        .map(|h| int(h.get_result().unwrap()))
        .collect();
    // Final synchronous reads flush every one-sided call still in flight
    // (per-pair FIFO): afterwards the network is quiescent.
    out.finals = objs
        .iter()
        .map(|o| int(o.sinvoke("get", &[]).unwrap()))
        .collect();
    out.locations = objs.iter().map(|o| o.get_location().unwrap().0).collect();
    let events = d.events().all();
    let handles: Vec<_> = objs.iter().map(|o| o.handle().id).collect();
    out.migrations = events
        .iter()
        .filter_map(|(_, e)| match e {
            RuntimeEvent::Migrated { obj, from, to, .. } => {
                let o = handles.iter().position(|h| h == obj)?;
                Some((o, from.0, to.0))
            }
            _ => None,
        })
        .collect();
    let metrics = d.obs().metrics().snapshot();
    let (mut ran, mut gone) = (0, 0);
    for m in d.machines() {
        ran += d.node_stats(m).unwrap().invocations;
        let key = MetricKey::new("rmi.oneway_lost", Some(m.0), "gone");
        gone += metrics.counters.get(&key).copied().unwrap_or(0);
    }
    out.issued = ran + gone;
    let s = d.net_stats();
    let transcript = Transcript {
        events: normalize_events(events),
        msgs_sent: s.msgs_sent,
        bytes_sent: s.bytes_sent,
        msgs_delivered: s.msgs_delivered,
        msgs_dropped: s.msgs_dropped,
        msgs_rejected: s.msgs_rejected,
    };
    reg.unregister().unwrap();
    d.shutdown();
    (out, transcript, gone)
}

#[test]
fn every_executor_size_matches_the_sequential_model() {
    let (mut migrations, mut longest) = (0, 0);
    for seed in SEEDS {
        let ops = program(seed);
        let expected = model(&ops);
        migrations += expected.migrations.len();
        longest = longest.max(ops.len());
        let mut first: Option<Transcript> = None;
        for size in SIZES {
            let (got, transcript, gone) = run(&ops, size);
            if let Some(why) = got.departs_from(&expected) {
                panic!("exec model, seed {seed}, executor({size}): {why}");
            }
            assert_eq!(
                gone, 0,
                "seed {seed}, executor({size}): a quiesced call was lost"
            );
            assert_eq!(
                (transcript.msgs_dropped, transcript.msgs_rejected),
                (0, 0),
                "seed {seed}, executor({size})"
            );
            assert_eq!(transcript.msgs_sent, transcript.msgs_delivered);
            match &first {
                None => first = Some(transcript),
                Some(first) => assert_eq!(
                    &transcript, first,
                    "exec model, seed {seed}: executor({size}) (left) vs executor({}) (right)",
                    SIZES[0]
                ),
            }
        }
    }
    // The fixed seeds must keep exercising what the test is for.
    assert!(
        migrations >= 4,
        "only {migrations} migrations over all seeds"
    );
    assert!(
        longest > 2 * BURST,
        "no program with bursts ({longest} ops at most)"
    );
}

/// A chain node: `deep([h1, h2, ..])` invokes `deep` on `h1` with the rest
/// of the chain and adds 1 — each hop waits for the hop below it. When the
/// hops are due now, every one of them runs on the thread that issued the
/// head call; when they are due in the future each hop holds a worker in a
/// blocking reply wait, so a chain deeper than the pool deadlocks unless
/// blocked workers are compensated with spares.
#[derive(Debug)]
struct ChainNode;

jsym_core::impl_state!(ChainNode {});

impl JsClass for ChainNode {
    fn class_name(&self) -> &str {
        "ChainNode"
    }

    fn invoke(&mut self, method: &str, args: &[Value], ctx: &mut InvokeCtx<'_>) -> Result<Value> {
        match method {
            "deep" => {
                let Some(Value::List(chain)) = args.first() else {
                    return Err(JsError::BadArguments("deep(list-of-handles)".into()));
                };
                let Some(next) = chain.first().and_then(Value::as_handle) else {
                    return Ok(Value::I64(0));
                };
                let rest = Value::List(chain[1..].to_vec());
                let below = ctx.invoke(next, "deep", &[rest])?;
                Ok(Value::I64(below.as_i64().unwrap_or(0) + 1))
            }
            _ => Err(JsError::NoSuchMethod {
                class: "ChainNode".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        jsym_core::encode_state(self)
    }
}

/// A nested-invocation chain 32 deep across two nodes on a 2-worker
/// executor, every hop due now: the application thread runs the whole chain
/// itself — no worker is held, so nothing is compensated (ROADMAP item 3's
/// criterion).
#[test]
fn deep_nested_chain_completes_on_two_worker_executor() {
    deep_nested_chain_completes(2, 1e-5, false);
}

/// The same chain with a single worker.
#[test]
fn deep_nested_chain_completes_on_one_worker_executor() {
    deep_nested_chain_completes(1, 1e-5, false);
}

/// The same chain in real time: every message is due 0.9 ms after it is
/// sent, so every hop finds its chain empty and parks — the fallback. Each
/// hop then holds a worker in its reply wait, and without blocking
/// compensation the pool starves after one or two hops.
#[test]
fn deep_nested_chain_over_future_dated_links_parks_and_compensates() {
    deep_nested_chain_completes(1, 1.0, true);
    deep_nested_chain_completes(2, 1.0, true);
}

fn deep_nested_chain_completes(workers: usize, time_scale: f64, parks: bool) {
    let d = two_machine_shell(workers).time_scale(time_scale).boot();
    d.classes()
        .register_class::<ChainNode, _>("ChainNode", None, |_| Ok(ChainNode));
    let reg = d.register_app().unwrap();
    const DEPTH: usize = 32;
    let objs: Vec<JsObj> = (0..DEPTH)
        .map(|i| {
            JsObj::create(
                &reg,
                "ChainNode",
                &[],
                Placement::OnPhys(NodeId((i % 2) as u32)),
                None,
            )
            .unwrap()
        })
        .collect();
    let chain = Value::List(
        objs[1..]
            .iter()
            .map(|o| Value::Handle(o.handle()))
            .collect(),
    );
    // Run under a watchdog: a deadlock here would otherwise hang the suite
    // until the 120 s call timeout.
    let (tx, rx) = crossbeam::channel::bounded(1);
    let head = objs[0].clone();
    std::thread::spawn(move || {
        let _ = tx.send(head.sinvoke("deep", &[chain]));
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("deep chain deadlocked on the {workers}-worker executor"));
    assert_eq!(out.unwrap(), Value::I64((DEPTH - 1) as i64));
    let stats = d
        .exec_stats()
        .expect("every deployment runs on the executor");
    if parks {
        // The blocked-worker ledger (`live - blocked >= base`) had to spawn
        // spares for the chain to finish; the invariant itself is
        // debug-asserted at every compensation and retirement inside the
        // executor.
        assert!(stats.spare_spawns >= 1, "chain must have compensated");
    } else {
        assert_eq!(stats.spare_spawns, 0, "no hop may hold a worker");
        // 32 hops, each a delivery, a handler and a reply delivery.
        assert!(stats.caller_jobs >= 3 * DEPTH as u64, "{stats:?}");
    }
    assert_eq!(stats.blocked, 0);
    reg.unregister().unwrap();
    d.shutdown();
}
