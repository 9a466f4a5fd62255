//! Location-cache staleness tests.
//!
//! Nested calls (`ctx.invoke` from inside a method body) resolve foreign
//! handles through the per-node `location_cache`. A cached location can go
//! stale two ways: the object migrates (the old host answers `ObjectMoved`,
//! which already invalidates and retries), or the cached host *dies* — in
//! which case the invoke fails with `NodeUnreachable` and, before the fix,
//! the stale entry was never dropped, masking the directory-correct answer
//! after failover recovery re-placed the object.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, MigrateTarget, Placement, Value};
use jsym_net::NodeId;
use std::time::Duration;

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..1000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

/// Nested calls racing explicit migrations: every `add_to` through the
/// caching path must land exactly once, wherever the target currently is.
#[test]
fn nested_calls_survive_migrate_races() {
    let d = shell_with_idle_machines(3).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let proxy = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(2)), None).unwrap();
    let target = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();

    const CALLS: i64 = 40;
    let driver = {
        let proxy = proxy.clone();
        let handle = target.handle();
        std::thread::spawn(move || {
            for _ in 0..CALLS {
                proxy
                    .sinvoke("add_to", &[Value::Handle(handle), Value::I64(1)])
                    .expect("nested add_to must survive a concurrent migration");
            }
        })
    };
    // Bounce the target between m0 and m1 while the driver hammers it.
    for i in 0..20u32 {
        let dst = NodeId(i % 2);
        let _ = target.migrate(MigrateTarget::ToPhys(dst), None);
        std::thread::sleep(Duration::from_millis(1));
    }
    driver.join().expect("driver thread");
    assert_eq!(target.sinvoke("get", &[]).unwrap(), Value::I64(CALLS));
    d.shutdown();
}

/// A stale cache entry pointing at a killed node must not mask the
/// post-recovery placement: the nested call drops the entry, re-resolves
/// and reaches the resurrected object.
#[test]
fn stale_cache_entry_does_not_mask_failover_recovery() {
    let d = shell_with_idle_machines(3)
        .time_scale(1e-4)
        .monitor_period(2.0)
        .failure_timeout(50.0)
        .checkpointing(10.0)
        .boot();
    register_test_classes(&d);
    // An architecture is needed so the NAS monitors (and detects failures).
    let _cluster = d.vda().request_cluster(3, None).unwrap();
    let reg = d.register_app().unwrap();
    let proxy = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    let target = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(41)],
        Placement::OnPhys(NodeId(2)),
        None,
    )
    .unwrap();

    // Prime m0's location cache with target → m2 through a nested no-op.
    assert_eq!(
        proxy
            .sinvoke("add_to", &[Value::Handle(target.handle()), Value::I64(0)])
            .unwrap(),
        Value::I64(41)
    );

    // The target's own checkpoint, not just any: a round persists objects
    // in hash-map order, and only what was checkpointed can be recovered.
    let target_ckpt = format!("__ckpt_{}", target.handle().id.0);
    wait_until(
        || d.store().keys().contains(&target_ckpt),
        "the target's first checkpoint",
    );
    d.kill_node(NodeId(2));
    wait_until(|| d.vda().is_failed(NodeId(2)), "failure detection");
    wait_until(
        || {
            target
                .get_location()
                .map(|l| l != NodeId(2))
                .unwrap_or(false)
        },
        "object recovery",
    );

    // The nested call re-resolves past the stale m2 entry and reaches the
    // resurrected object on its new home.
    assert_eq!(
        proxy
            .sinvoke("add_to", &[Value::Handle(target.handle()), Value::I64(1)])
            .expect("stale cache entry must not mask the recovered placement"),
        Value::I64(42)
    );
    d.shutdown();
}
