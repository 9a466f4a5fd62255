//! End-to-end tests of the object model: creation, placement, the three
//! invocation modes, first-order handles, freeing and unregistration.

use jsym_core::obs::MetricKey;
use jsym_core::testkit::{register_test_classes, shell_with_idle_machines, three_node_shell};
use jsym_core::{Deployment, InvokeCtx, JsClass, JsError, JsObj, Placement, RuntimeEvent, Value};
use jsym_net::NodeId;
use jsym_sysmon::{JsConstraints, SysParam};
use std::sync::mpsc;
use std::time::Duration;

fn boot(n: usize) -> Deployment {
    let d = shell_with_idle_machines(n).boot();
    register_test_classes(&d);
    d
}

#[test]
fn create_invoke_free_lifecycle() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[Value::I64(100)], Placement::Auto, None).unwrap();
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(100));
    assert_eq!(
        obj.sinvoke("add", &[Value::I64(-58)]).unwrap(),
        Value::I64(42)
    );
    obj.free().unwrap();
    // Further use fails at the AppOA (object no longer in the table).
    assert!(matches!(
        obj.sinvoke("get", &[]),
        Err(JsError::NoSuchObject(_))
    ));
    reg.unregister().unwrap();
    d.shutdown();
}

#[test]
fn placement_local_and_on_phys() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let local = JsObj::create(&reg, "Counter", &[], Placement::Local, None).unwrap();
    assert_eq!(local.get_location().unwrap(), reg.local_phys());
    assert_eq!(
        local.sinvoke("node_name", &[]).unwrap(),
        Value::Str("m0".into())
    );
    let remote = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    assert_eq!(remote.get_location().unwrap(), NodeId(2));
    assert_eq!(remote.get_node_name().unwrap(), "m2");
    d.shutdown();
}

#[test]
fn placement_in_cluster_places_on_member() {
    let d = boot(4);
    let reg = d.register_app().unwrap();
    let cluster = d.vda().request_cluster(2, None).unwrap();
    let members = cluster.machines();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::InCluster(&cluster), None).unwrap();
    assert!(members.contains(&obj.get_location().unwrap()));
    d.shutdown();
}

#[test]
fn placement_with_object_colocates() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let a = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let b = JsObj::create(&reg, "Counter", &[], Placement::WithObject(&a), None).unwrap();
    assert_eq!(a.get_location().unwrap(), b.get_location().unwrap());
    d.shutdown();
}

#[test]
fn placement_respects_constraints() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let mut impossible = JsConstraints::new();
    impossible.set(SysParam::AvailMem, ">=", 1e9);
    assert!(matches!(
        JsObj::create(&reg, "Counter", &[], Placement::Auto, Some(&impossible)),
        Err(JsError::PlacementFailed(_))
    ));
    let mut fine = JsConstraints::new();
    fine.set(SysParam::IdlePct, ">=", 50);
    assert!(JsObj::create(&reg, "Counter", &[], Placement::Auto, Some(&fine)).is_ok());
    d.shutdown();
}

#[test]
fn sinvoke_returns_method_errors() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
    assert!(matches!(
        obj.sinvoke("fail", &[]),
        Err(JsError::MethodFailed(_))
    ));
    assert!(matches!(
        obj.sinvoke("no_such", &[]),
        Err(JsError::NoSuchMethod { .. })
    ));
    assert!(matches!(
        obj.sinvoke("add", &[Value::Str("x".into())]),
        Err(JsError::BadArguments(_))
    ));
    d.shutdown();
}

#[test]
fn ainvoke_overlaps_computation() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    // Place on the remote node so compute happens there.
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    // 50 Mflop at 50 Mflop/s = 1 virtual s = 10 µs real at 1e-5.
    let h = obj.ainvoke("compute", &[Value::F64(50e6)]).unwrap();
    // Not ready immediately (the remote is sleeping its modeled second).
    assert!(!h.is_ready());
    let v = h.get_result().unwrap();
    assert!(matches!(v, Value::F64(_)));
    assert!(h.is_ready());
    d.shutdown();
}

#[test]
fn oinvoke_applies_without_result() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    obj.oinvoke("add", &[Value::I64(5)]).unwrap();
    obj.oinvoke("add", &[Value::I64(7)]).unwrap();
    // A later sinvoke observes both one-sided effects (per-object FIFO is
    // guaranteed by the instance lock + network FIFO on equal-size frames).
    let mut tries = 0;
    loop {
        let v = obj.sinvoke("get", &[]).unwrap();
        if v == Value::I64(12) {
            break;
        }
        tries += 1;
        assert!(tries < 100, "one-sided invocations never applied: {v:?}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    d.shutdown();
}

#[test]
fn first_order_handles_enable_nested_invocation() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let a = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let b = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    // Ask `a` (on m1) to add 9 to `b` (on m2) via b's handle.
    let v = a
        .sinvoke("add_to", &[Value::Handle(b.handle()), Value::I64(9)])
        .unwrap();
    assert_eq!(v, Value::I64(9));
    assert_eq!(b.sinvoke("get", &[]).unwrap(), Value::I64(9));
    d.shutdown();
}

#[test]
fn unregister_frees_everything_and_blocks_further_use() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    reg.unregister().unwrap();
    assert!(matches!(
        obj.sinvoke("get", &[]),
        Err(JsError::NoSuchObject(_) | JsError::AppUnregistered)
    ));
    assert!(matches!(
        JsObj::create(&reg, "Counter", &[], Placement::Auto, None),
        Err(JsError::AppUnregistered)
    ));
    assert!(matches!(reg.unregister(), Err(JsError::AppUnregistered)));
    // The hosted object is eventually freed on m1.
    let mut tries = 0;
    while d.node_stats(NodeId(1)).unwrap().objects_hosted > 0 {
        tries += 1;
        assert!(tries < 200, "object never freed after unregister");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    d.shutdown();
}

#[test]
fn two_apps_are_isolated() {
    let d = boot(3);
    let reg1 = d.register_app().unwrap();
    let reg2 = d.register_app_on(NodeId(1)).unwrap();
    assert_ne!(reg1.app_id(), reg2.app_id());
    let a = JsObj::create(&reg1, "Counter", &[Value::I64(1)], Placement::Auto, None).unwrap();
    let b = JsObj::create(&reg2, "Counter", &[Value::I64(2)], Placement::Auto, None).unwrap();
    assert_eq!(a.sinvoke("get", &[]).unwrap(), Value::I64(1));
    assert_eq!(b.sinvoke("get", &[]).unwrap(), Value::I64(2));
    reg1.unregister().unwrap();
    // App 2 unaffected.
    assert_eq!(b.sinvoke("get", &[]).unwrap(), Value::I64(2));
    d.shutdown();
}

#[test]
fn stats_count_activity() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    for _ in 0..5 {
        obj.sinvoke("get", &[]).unwrap();
    }
    let stats = d.node_stats(NodeId(1)).unwrap();
    assert_eq!(stats.creations, 1);
    assert!(stats.invocations >= 5);
    assert_eq!(stats.objects_hosted, 1);
    let net = d.net_stats();
    assert!(net.msgs_sent >= 12, "expected RMI traffic, got {net:?}");
    d.shutdown();
}

#[test]
fn three_node_shell_fixture_works() {
    let d = three_node_shell().boot();
    register_test_classes(&d);
    assert_eq!(d.machines().len(), 3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
    assert_eq!(
        obj.sinvoke("echo", &[Value::Bool(true)]).unwrap(),
        Value::Bool(true)
    );
    d.shutdown();
}

#[test]
fn dead_node_reports_unreachable() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    d.kill_node(NodeId(2));
    assert!(matches!(
        obj.sinvoke("get", &[]),
        Err(JsError::NodeUnreachable(_) | JsError::Timeout | JsError::ShuttingDown)
    ));
    // Creations on the dead node fail too.
    assert!(JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).is_err());
    d.shutdown();
}

#[test]
fn bulk_payloads_round_trip() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let data = Value::floats((0..10_000).map(|i| i as f32).collect());
    let back = obj.sinvoke("echo", std::slice::from_ref(&data)).unwrap();
    assert_eq!(back, data);
    d.shutdown();
}

#[test]
fn remove_machine_is_graceful_and_guarded() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    // Hosting an object blocks removal.
    assert!(matches!(
        d.remove_machine(NodeId(2)),
        Err(JsError::PlacementFailed(_))
    ));
    // Being part of an architecture blocks removal.
    let cluster = d.vda().request_cluster(3, None).unwrap();
    obj.free().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20)); // one-sided free lands
    assert!(matches!(
        d.remove_machine(NodeId(2)),
        Err(JsError::PlacementFailed(_))
    ));
    cluster.free().unwrap();
    // Drained: removal succeeds and the machine disappears.
    d.remove_machine(NodeId(2)).unwrap();
    assert_eq!(d.machines(), vec![NodeId(0), NodeId(1)]);
    assert!(d.pool().machine(NodeId(2)).is_err());
    // Placement no longer considers it; the rest keeps working.
    for _ in 0..3 {
        let o = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
        assert_ne!(o.get_location().unwrap(), NodeId(2));
    }
    // Removing twice errors cleanly.
    assert!(d.remove_machine(NodeId(2)).is_err());
    d.shutdown();
}

#[test]
fn placed_in_supports_component_level_colocation() {
    use jsym_core::PlacedIn;
    let d = boot(6);
    let reg = d.register_app().unwrap();
    let site = d.vda().request_site(&[2, 2], None).unwrap();
    let cluster0 = site.get_cluster(0).unwrap();

    // obj1 placed inside cluster0; obj2 placed "in the same cluster as obj1"
    // — the paper's `new JSObj("C", obj1.getCluster())`.
    let obj1 = JsObj::create(&reg, "Counter", &[], Placement::InCluster(&cluster0), None).unwrap();
    let PlacedIn::Cluster(c) = obj1.placed_in() else {
        panic!("expected cluster placement, got {:?}", obj1.placed_in());
    };
    let obj2 = JsObj::create(&reg, "Counter", &[], Placement::InCluster(&c), None).unwrap();
    assert!(cluster0.machines().contains(&obj2.get_location().unwrap()));

    // Node-granularity placements report the machine.
    let obj3 = JsObj::create(&reg, "Counter", &[], Placement::WithObject(&obj1), None).unwrap();
    match obj3.placed_in() {
        PlacedIn::Cluster(c2) => assert_eq!(c2.key(), cluster0.key()),
        other => panic!("WithObject should inherit the scope, got {other:?}"),
    }
    let obj4 = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(5)), None).unwrap();
    match obj4.placed_in() {
        PlacedIn::Node(n) => assert_eq!(n, NodeId(5)),
        other => panic!("{other:?}"),
    }
    d.shutdown();
}

#[test]
fn handles_cross_application_boundaries() {
    // App A creates a counter; its first-order handle is given to app B's
    // object, which invokes through it (resolution goes via A's AppOA —
    // handles carry their origin, paper §5.2).
    let d = boot(3);
    let reg_a = d.register_app().unwrap();
    let reg_b = d.register_app_on(NodeId(1)).unwrap();
    let target = JsObj::create(&reg_a, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    let caller = JsObj::create(&reg_b, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    let v = caller
        .sinvoke("add_to", &[Value::Handle(target.handle()), Value::I64(13)])
        .unwrap();
    assert_eq!(v, Value::I64(13));
    assert_eq!(target.sinvoke("get", &[]).unwrap(), Value::I64(13));
    // Still correct after the target migrates.
    target
        .migrate(jsym_core::MigrateTarget::ToPhys(NodeId(1)), None)
        .unwrap();
    caller
        .sinvoke("add_to", &[Value::Handle(target.handle()), Value::I64(7)])
        .unwrap();
    assert_eq!(target.sinvoke("get", &[]).unwrap(), Value::I64(20));
    d.shutdown();
}

#[test]
fn free_with_invocations_in_flight_fails_them_cleanly() {
    // Queue a long method, free the object concurrently, then keep
    // invoking. Depending on the interleaving at the host, the in-flight
    // method either completes (it started before the free landed) or is
    // rejected — but it must never hang, and later invocations surface
    // NoSuchObject at the AppOA.
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let h = obj.ainvoke("compute", &[Value::F64(5e8)]).unwrap(); // ~10 virt s
    obj.free().unwrap();
    match h.get_result() {
        Ok(_) => {}                         // started before the free
        Err(JsError::NoSuchObject(_)) => {} // dropped by the free
        Err(JsError::Timeout) => {}         // re-issue loop exhausted
        Err(other) => panic!("unexpected error: {other:?}"),
    }
    // New invocations are rejected locally: the table entry is gone.
    assert!(matches!(
        obj.sinvoke("get", &[]),
        Err(JsError::NoSuchObject(_))
    ));
    // And the host eventually drops the instance.
    let mut tries = 0;
    while d.node_stats(NodeId(1)).unwrap().objects_hosted > 0 {
        tries += 1;
        assert!(tries < 300, "instance never dropped after free");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    d.shutdown();
}

/// A class whose `hold` method says it is running, then waits to be released.
struct Latch {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl JsClass for Latch {
    fn class_name(&self) -> &str {
        "Latch"
    }

    fn invoke(
        &mut self,
        method: &str,
        _: &[Value],
        _: &mut InvokeCtx<'_>,
    ) -> jsym_core::Result<Value> {
        if method == "hold" {
            self.entered.send(()).expect("the test is listening");
            self.release.recv().expect("the test releases the latch");
        }
        Ok(Value::Null)
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        Err(JsError::Serialization("a Latch does not move".into()))
    }
}

#[test]
fn lost_oneway_calls_are_counted_and_logged() {
    let d = boot(2);
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let parts = std::sync::Mutex::new(Some((entered_tx, release_rx)));
    d.classes().register_raw(
        "Latch",
        None,
        move |_| {
            let (entered, release) = parts.lock().unwrap().take().expect("one Latch");
            Ok(Box::new(Latch { entered, release }) as Box<dyn JsClass>)
        },
        |_| Err(JsError::Serialization("a Latch does not move".into())),
    );
    let reg = d.register_app().unwrap();
    let host = NodeId(1);
    let latch = JsObj::create(&reg, "Latch", &[], Placement::OnPhys(host), None).unwrap();
    let counter = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(host), None).unwrap();
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let mut tries = 0;
        while !done() {
            tries += 1;
            assert!(tries < 2_000, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // `hold` occupies the object; three calls queue behind it and the object
    // is freed under them, so none of the three can run.
    latch.oinvoke("hold", &[]).unwrap();
    entered_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    for _ in 0..3 {
        latch.oinvoke("poke", &[]).unwrap();
    }
    latch.free().unwrap();
    wait_for("the free to land", &|| {
        d.node_stats(host).unwrap().objects_hosted == 1
    });
    release_tx.send(()).unwrap();
    // A one-sided call whose method fails is lost as well; one that
    // succeeds is not.
    counter.oinvoke("fail", &[]).unwrap();
    counter.oinvoke("add", &[Value::I64(1)]).unwrap();

    let lost = |why: &str| {
        let key = MetricKey::new("rmi.oneway_lost", Some(host.0), why);
        let snap = d.obs().metrics().snapshot();
        snap.counters.get(&key).copied().unwrap_or(0)
    };
    wait_for("the lost calls to be counted", &|| {
        lost("gone") == 3 && lost("failed") == 1
    });
    assert_eq!(counter.sinvoke("get", &[]).unwrap(), Value::I64(1));
    // hold + 3 pokes + fail + add + get were issued; every one either ran its
    // method or is counted as gone.
    let ran: u64 = d
        .machines()
        .iter()
        .map(|&m| d.node_stats(m).unwrap().invocations)
        .sum();
    assert_eq!(ran + lost("gone"), 7);
    let logged = d
        .events()
        .all()
        .iter()
        .filter(|(_, e)| matches!(e, RuntimeEvent::OnewayLost { node, .. } if *node == host))
        .count();
    assert_eq!(logged, 4);
    d.shutdown();
}
