//! Differential property tests for the work-stealing executor runtime.
//!
//! `JsShell::executor(n)` replaces the thread-per-node model (receiver, NA
//! and worker-pool threads per node) with a fixed pool of `n` workers onto
//! which hook-routed deliveries, object drains, NA rounds and directory
//! ticks are scheduled as cooperatively-yielding tasks. It is a pure
//! scheduling change: nothing observable may differ. These tests run the
//! same random program under both runtimes and require identical results,
//! identical `NetStats` counters and an identical (timestamp-stripped,
//! id-normalized) structural event log — the same differential-oracle
//! treatment the loopback and batching fast paths got before it.

use jsym_core::testkit::register_test_classes;
use jsym_core::{
    CostModel, InvokeCtx, JsClass, JsError, JsObj, JsShell, MachineConfig, MigrateTarget,
    Placement, Result, RuntimeEvent, Value,
};
use jsym_net::NodeId;
use proptest::prelude::*;

/// One step of the random two-counter program (both counters start on the
/// remote node, so calls cross the modeled link; migration bounces them
/// between machines mid-program).
#[derive(Clone, Debug)]
enum Op {
    SyncAdd(u8, i64),
    AsyncAdd(u8, i64),
    OneSidedAdd(u8, i64),
    SyncRead(u8),
    Migrate(u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..2), -100i64..100).prop_map(|(o, k)| Op::SyncAdd(o, k)),
        ((0u8..2), -100i64..100).prop_map(|(o, k)| Op::AsyncAdd(o, k)),
        ((0u8..2), -100i64..100).prop_map(|(o, k)| Op::OneSidedAdd(o, k)),
        (0u8..2).prop_map(Op::SyncRead),
        ((0u8..2), (0u8..2)).prop_map(|(o, n)| Op::Migrate(o, n)),
    ]
}

/// A structural event with its object ids replaced by dense first-appearance
/// indices, so two runs (which draw from one process-global id generator)
/// compare equal when their histories match.
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

#[derive(Debug, PartialEq)]
struct Outcome {
    sync_results: Vec<Value>,
    async_results: Vec<Value>,
    finals: Vec<Value>,
    events: Vec<String>,
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_delivered: u64,
    msgs_dropped: u64,
    msgs_rejected: u64,
}

fn run(ops: &[Op], executor_threads: usize) -> Outcome {
    // Two machines, NA quiesced so the counters contain application traffic
    // only (in executor mode the monitor round is a far-future timer task).
    let d = JsShell::new()
        .add_machine(MachineConfig::idle("m0", 50.0))
        .add_machine(MachineConfig::idle("m1", 50.0))
        .time_scale(1e-5)
        .monitor_period(1e9)
        .failure_timeout(1e9)
        .cost_model(CostModel::free())
        .executor(executor_threads)
        .boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let objs: Vec<JsObj> = (0..2)
        .map(|_| JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap())
        .collect();
    let mut sync_results = Vec::new();
    let mut handles = Vec::new();
    for op in ops {
        match *op {
            Op::SyncAdd(o, k) => {
                sync_results.push(objs[o as usize].sinvoke("add", &[Value::I64(k)]).unwrap());
            }
            Op::AsyncAdd(o, k) => {
                handles.push(objs[o as usize].ainvoke("add", &[Value::I64(k)]).unwrap());
            }
            Op::OneSidedAdd(o, k) => {
                objs[o as usize].oinvoke("add", &[Value::I64(k)]).unwrap();
            }
            Op::SyncRead(o) => {
                sync_results.push(objs[o as usize].sinvoke("get", &[]).unwrap());
            }
            Op::Migrate(o, n) => {
                // Quiesce this object's in-flight one-sided traffic first so
                // the migrate/invoke interleaving is the program's, not the
                // scheduler's.
                sync_results.push(objs[o as usize].sinvoke("get", &[]).unwrap());
                objs[o as usize]
                    .migrate(MigrateTarget::ToPhys(NodeId(n as u32)), None)
                    .unwrap();
            }
        }
    }
    let async_results: Vec<Value> = handles
        .into_iter()
        .map(|h| h.get_result().unwrap())
        .collect();
    // Final synchronous reads flush every one-sided call still in flight
    // (per-pair FIFO): afterwards the network is quiescent.
    let finals: Vec<Value> = objs
        .iter()
        .map(|o| o.sinvoke("get", &[]).unwrap())
        .collect();
    let s = d.net_stats();
    let out = Outcome {
        sync_results,
        async_results,
        finals,
        events: normalize_events(d.events().all()),
        msgs_sent: s.msgs_sent,
        bytes_sent: s.bytes_sent,
        msgs_delivered: s.msgs_delivered,
        msgs_dropped: s.msgs_dropped,
        msgs_rejected: s.msgs_rejected,
    };
    reg.unregister().unwrap();
    d.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case boots two deployments; keep the count low
        .. ProptestConfig::default()
    })]

    /// A 2-worker executor is observationally equivalent to the threaded
    /// runtime: identical results, event history and network counters.
    #[test]
    fn executor_is_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 0..20)
    ) {
        let exec = run(&ops, 2);
        let threaded = run(&ops, 0);
        prop_assert_eq!(&exec, &threaded);
        prop_assert_eq!(exec.msgs_dropped, 0);
        prop_assert_eq!(exec.msgs_rejected, 0);
        prop_assert_eq!(exec.msgs_sent, exec.msgs_delivered);
    }
}

/// A chain node: `deep([h1, h2, ..])` invokes `deep` on `h1` with the rest
/// of the chain and adds 1 — each hop holds a worker in a blocking reply
/// wait, so a chain deeper than the pool deadlocks unless blocked workers
/// are compensated with spares.
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

/// Regression: a nested-invocation chain 32 deep across two nodes on a
/// 2-worker executor. Every hop blocks its worker awaiting the callee's
/// reply; without blocking-compensation the pool starves after 2 hops and
/// the chain never completes.
#[test]
fn deep_nested_chain_completes_on_two_worker_executor() {
    let d = JsShell::new()
        .add_machine(MachineConfig::idle("m0", 50.0))
        .add_machine(MachineConfig::idle("m1", 50.0))
        .time_scale(1e-5)
        .monitor_period(1e9)
        .failure_timeout(1e9)
        .cost_model(CostModel::free())
        .executor(2)
        .boot();
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
        .expect("deep chain deadlocked on the 2-worker executor");
    assert_eq!(out.unwrap(), Value::I64((DEPTH - 1) as i64));
    // The blocked-worker ledger (`live - blocked >= base`) had to spawn
    // spares for the chain to finish; the invariant itself is debug-asserted
    // at every compensation and retirement inside the executor.
    let stats = d.exec_stats().expect("executor mode");
    assert!(stats.spare_spawns >= 1, "chain must have compensated");
    reg.unregister().unwrap();
    d.shutdown();
}
