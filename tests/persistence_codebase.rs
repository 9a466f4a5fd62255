//! Workspace tests: persistence through an on-disk store and codebase
//! lifecycles spanning several components.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, ObjectStore, Placement, Value};
use jsym_net::NodeId;

#[test]
fn on_disk_store_persists_across_deployments() {
    let dir = std::env::temp_dir().join(format!("jsym-suite-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ObjectStore::on_disk(&dir).unwrap();

    // First deployment: create, mutate, store.
    {
        let d = shell_with_idle_machines(2)
            .object_store(store.clone())
            .boot();
        register_test_classes(&d);
        let reg = d.register_app().unwrap();
        let obj = JsObj::create(&reg, "Counter", &[Value::I64(5)], Placement::Auto, None).unwrap();
        obj.sinvoke("add", &[Value::I64(37)]).unwrap();
        assert_eq!(obj.store(Some("long-lived")).unwrap(), "long-lived");
        reg.unregister().unwrap();
        d.shutdown();
    }
    // The state file exists on disk.
    assert!(dir.join("long-lived.Counter.state").exists());

    // Second deployment sharing the same store: load and continue.
    {
        let d = shell_with_idle_machines(2)
            .object_store(store.clone())
            .boot();
        register_test_classes(&d);
        let reg = d.register_app().unwrap();
        let obj = reg
            .load_stored("long-lived", Placement::Auto, None)
            .unwrap();
        assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(42));
        d.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn codebase_lifecycle_across_components() {
    let d = shell_with_idle_machines(6).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let site = d.vda().request_site(&[2, 2], None).unwrap();
    let spare = d.vda().request_node().unwrap();

    let cb = reg.codebase();
    cb.add("blob.jar", 500_000);
    // Load to the whole site plus one extra node.
    cb.load_site(&site).unwrap();
    cb.load_node(&spare).unwrap();
    assert_eq!(cb.loaded_nodes("blob.jar").len(), 5);

    // Creation works on all five, fails on the sixth.
    let unloaded = d
        .machines()
        .into_iter()
        .find(|m| !cb.loaded_nodes("blob.jar").contains(m))
        .unwrap();
    assert!(JsObj::create(
        &reg,
        "Blob",
        &[Value::I64(10)],
        Placement::OnPhys(unloaded),
        None
    )
    .is_err());
    for &m in &cb.loaded_nodes("blob.jar") {
        assert!(JsObj::create(&reg, "Blob", &[Value::I64(10)], Placement::OnPhys(m), None).is_ok());
    }

    // Free the codebase; memory drains everywhere.
    cb.free().unwrap();
    for m in d.machines() {
        let machine = d.pool().machine(m).unwrap();
        let mut tries = 0;
        while machine.runtime_bytes() > 0 {
            tries += 1;
            assert!(tries < 500, "codebase memory not released on {m}");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    d.shutdown();
}

#[test]
fn store_keys_listable_and_removable() {
    let d = shell_with_idle_machines(2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
    obj.store(Some("a")).unwrap();
    obj.store(Some("b")).unwrap();
    assert_eq!(d.store().keys(), vec!["a".to_owned(), "b".to_owned()]);
    assert!(d.store().remove("a"));
    assert!(reg.load_stored("a", Placement::Auto, None).is_err());
    assert!(reg.load_stored("b", Placement::Auto, None).is_ok());
    d.shutdown();
}

#[test]
fn migrated_object_can_still_be_stored_and_loaded() {
    let d = shell_with_idle_machines(3).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(3)],
        Placement::OnPhys(NodeId(0)),
        None,
    )
    .unwrap();
    obj.migrate(jsym_core::MigrateTarget::ToPhys(NodeId(2)), None)
        .unwrap();
    let key = obj.store(None).unwrap();
    let copy = reg
        .load_stored(&key, Placement::OnPhys(NodeId(1)), None)
        .unwrap();
    assert_eq!(copy.sinvoke("get", &[]).unwrap(), Value::I64(3));
    assert_eq!(copy.get_location().unwrap(), NodeId(1));
    d.shutdown();
}

#[test]
fn stored_blob_loads_on_another_node_with_its_bytes() {
    let d = shell_with_idle_machines(2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let cb = reg.codebase();
    cb.add("blob.jar", 1000);
    for m in d.machines() {
        cb.load_phys(m).unwrap();
    }
    let size = 16 << 10;
    let blob = JsObj::create(
        &reg,
        "Blob",
        &[Value::I64(size)],
        Placement::OnPhys(NodeId(0)),
        None,
    )
    .unwrap();
    blob.sinvoke("fill", &[Value::I64(3)]).unwrap();
    let key = blob.store(None).unwrap();
    // The store holds the state itself: version, count, the bytes.
    assert_eq!(
        d.store().get(&key).unwrap().state.len(),
        1 + 4 + size as usize
    );
    let copy = reg
        .load_stored(&key, Placement::OnPhys(NodeId(1)), None)
        .unwrap();
    assert_eq!(copy.get_location().unwrap(), NodeId(1));
    assert_eq!(copy.sinvoke("checksum", &[]).unwrap(), Value::I64(3 * size));
    // A copy, not a move: the original still answers where it was.
    assert_eq!(blob.get_location().unwrap(), NodeId(0));
    assert_eq!(blob.sinvoke("size", &[]).unwrap(), Value::I64(size));
    d.shutdown();
}
