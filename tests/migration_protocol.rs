//! Workspace tests of the migration protocol under adversarial interleaving
//! (paper Figures 3–4): concurrent invokers, chained migrations, and
//! foreign-handle resolution through the origin AppOA.

use jsym_core::state::{Reader, State, Writer};
use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{
    encode_state, InvokeCtx, JsClass, JsError, JsObj, MigrateTarget, Placement, RuntimeEvent, Value,
};
use jsym_net::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn chained_migrations_land_where_requested() {
    let d = shell_with_idle_machines(4).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(1)],
        Placement::OnPhys(NodeId(0)),
        None,
    )
    .unwrap();
    for hop in [1u32, 2, 3, 0, 2] {
        obj.migrate(MigrateTarget::ToPhys(NodeId(hop)), None)
            .unwrap();
        assert_eq!(obj.get_location().unwrap(), NodeId(hop));
    }
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(1));
    // Total migrations across all nodes equals the hops that changed nodes.
    let total_out: u64 = d
        .machines()
        .iter()
        .map(|&m| d.node_stats(m).unwrap().migrations_out)
        .sum();
    assert_eq!(total_out, 5);
    d.shutdown();
}

#[test]
fn two_writers_and_migrations_lose_no_updates() {
    let d = shell_with_idle_machines(3).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let mut writers = Vec::new();
    for _ in 0..2 {
        let obj = obj.clone();
        let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
        writers.push(std::thread::spawn(move || {
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                obj.sinvoke("add", &[Value::I64(1)]).unwrap();
                done.fetch_add(1, Ordering::Relaxed);
                n += 1;
            }
            n
        }));
    }
    // Four migrations take less time than a thread needs to start: begin
    // once a writer is writing, and go on until 100 adds have run alongside.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let in_time = || std::time::Instant::now() < deadline;
    while done.load(Ordering::Relaxed) == 0 {
        assert!(in_time(), "no writer made progress");
        std::thread::yield_now();
    }
    let overlap_from = done.load(Ordering::Relaxed);
    let mut round = 0;
    while round < 4 || done.load(Ordering::Relaxed) < overlap_from + 100 {
        let target = NodeId(2 - (round % 2)); // 1 → 2 → 1 → ...
        obj.migrate(MigrateTarget::ToPhys(target), None).unwrap();
        round += 1;
        assert!(in_time(), "too few adds overlapped the migrations");
    }
    stop.store(true, Ordering::Relaxed);
    let total: i64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(total > 0);
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(total));
    d.shutdown();
}

#[test]
fn foreign_handle_follows_migrations() {
    // Object A (on node 1) holds a handle to B (on node 2) and keeps calling
    // it through nested invocation while B migrates. The PubOA on node 1
    // must re-resolve B's location through the origin AppOA (Figure 4).
    let d = shell_with_idle_machines(4).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let a = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let b = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();

    // Warm the location cache on node 1.
    a.sinvoke("add_to", &[Value::Handle(b.handle()), Value::I64(1)])
        .unwrap();
    // Move B twice, then call through A again.
    b.migrate(MigrateTarget::ToPhys(NodeId(3)), None).unwrap();
    b.migrate(MigrateTarget::ToPhys(NodeId(0)), None).unwrap();
    a.sinvoke("add_to", &[Value::Handle(b.handle()), Value::I64(10)])
        .unwrap();
    assert_eq!(b.sinvoke("get", &[]).unwrap(), Value::I64(11));
    d.shutdown();
}

#[test]
fn migrate_is_idempotent_for_same_destination() {
    let d = shell_with_idle_machines(2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    obj.migrate(MigrateTarget::ToPhys(NodeId(1)), None).unwrap();
    obj.migrate(MigrateTarget::ToPhys(NodeId(1)), None).unwrap();
    assert_eq!(d.node_stats(NodeId(0)).unwrap().migrations_out, 1);
    assert_eq!(d.node_stats(NodeId(1)).unwrap().migrations_in, 1);
    d.shutdown();
}

#[test]
fn persistence_waits_for_running_methods() {
    // Paper §4.7: "An object can only be stored/loaded when none of its
    // methods are currently executing." Start a long method and store
    // immediately: the store must block until the method finishes, which we
    // observe through virtual time.
    let d = shell_with_idle_machines(2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let clock = d.clock().clone();
    // 500 Mflop at 50 Mflop/s = 10 virtual seconds on the hosting node.
    let h = obj.ainvoke("compute", &[Value::F64(5e8)]).unwrap();
    // Give the invoke a head start so the store arrives mid-method.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let t0 = clock.now();
    let key = obj.store(None).unwrap();
    let store_took = clock.now() - t0;
    assert!(
        store_took > 3.0,
        "store returned in {store_took:.2} virtual s — it did not quiesce the object"
    );
    h.get_result().unwrap();
    let copy = reg.load_stored(&key, Placement::Local, None).unwrap();
    assert_eq!(copy.sinvoke("get", &[]).unwrap(), Value::I64(0));
    d.shutdown();
}

#[test]
fn blob_bytes_survive_migration_at_every_size() {
    let d = shell_with_idle_machines(2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let cb = reg.codebase();
    cb.add("blob.jar", 1000);
    for m in d.machines() {
        cb.load_phys(m).unwrap();
    }
    for size in [0usize, 1, 16 << 10, 4 << 20] {
        let blob = JsObj::create(
            &reg,
            "Blob",
            &[Value::I64(size as i64)],
            Placement::OnPhys(NodeId(0)),
            None,
        )
        .unwrap();
        blob.sinvoke("fill", &[Value::I64(0x5A)]).unwrap();
        blob.migrate(MigrateTarget::ToPhys(NodeId(1)), None)
            .unwrap();
        assert_eq!(blob.get_location().unwrap(), NodeId(1));
        assert_eq!(blob.sinvoke("size", &[]).unwrap(), Value::I64(size as i64));
        assert_eq!(
            blob.sinvoke("checksum", &[]).unwrap(),
            Value::I64(size as i64 * 0x5A),
            "{size} B"
        );
        // What left the node is the state itself: version, count, the bytes.
        let shipped = d
            .events()
            .all()
            .into_iter()
            .rev()
            .find_map(|(_, e)| match e {
                RuntimeEvent::Migrated { state_bytes, .. } => Some(state_bytes),
                _ => None,
            });
        assert_eq!(shipped, Some(1 + 4 + size));
        blob.free().unwrap();
    }
    d.shutdown();
}

/// State that encodes but never decodes: every restore of it fails.
struct Brittle(i64);

impl State for Brittle {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    fn decode(_: &mut Reader<'_>) -> jsym_core::Result<Self> {
        Err(JsError::Serialization("a Brittle never comes back".into()))
    }
}

impl JsClass for Brittle {
    fn class_name(&self) -> &str {
        "Brittle"
    }

    fn invoke(&mut self, _: &str, _: &[Value], _: &mut InvokeCtx<'_>) -> jsym_core::Result<Value> {
        self.0 += 1;
        Ok(Value::I64(self.0))
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        encode_state(self)
    }
}

#[test]
fn failed_restore_at_the_destination_leaves_the_object_at_the_source() {
    let d = shell_with_idle_machines(2).boot();
    d.classes()
        .register_class::<Brittle, _>("Brittle", None, |_| Ok(Brittle(0)));
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Brittle", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    assert_eq!(obj.sinvoke("bump", &[]).unwrap(), Value::I64(1));
    let refused = obj.migrate(MigrateTarget::ToPhys(NodeId(1)), None);
    assert!(
        matches!(refused, Err(JsError::Serialization(_))),
        "{refused:?}"
    );
    // Still where it was, with its state, and still answering.
    assert_eq!(obj.get_location().unwrap(), NodeId(0));
    assert_eq!(obj.sinvoke("bump", &[]).unwrap(), Value::I64(2));
    assert_eq!(d.node_stats(NodeId(0)).unwrap().migrations_out, 0);
    assert_eq!(d.node_stats(NodeId(1)).unwrap().migrations_in, 0);
    d.shutdown();
}
