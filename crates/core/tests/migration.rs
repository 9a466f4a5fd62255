//! Tests of the migration protocol (paper §4.6, Figures 3–4) and the
//! automatic migration policy.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{Deployment, JsError, JsObj, MigrateTarget, Placement, Value};
use jsym_core::{JsShell, MachineConfig};
use jsym_net::LinkClass;
use jsym_net::NodeId;
use jsym_sysmon::{JsConstraints, LoadModel, LoadProfile, MachineSpec, SysParam};

fn boot(n: usize) -> Deployment {
    let d = shell_with_idle_machines(n).boot();
    register_test_classes(&d);
    d
}

#[test]
fn explicit_migration_preserves_state() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(7)],
        Placement::OnPhys(NodeId(1)),
        None,
    )
    .unwrap();
    obj.sinvoke("add", &[Value::I64(3)]).unwrap();
    let dst = obj.migrate(MigrateTarget::ToPhys(NodeId(2)), None).unwrap();
    assert_eq!(dst, NodeId(2));
    assert_eq!(obj.get_location().unwrap(), NodeId(2));
    // State survived the move.
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(10));
    assert_eq!(
        obj.sinvoke("node_name", &[]).unwrap(),
        Value::Str("m2".into())
    );
    // Object tables updated on both PubOAs.
    assert_eq!(d.node_stats(NodeId(1)).unwrap().migrations_out, 1);
    assert_eq!(d.node_stats(NodeId(2)).unwrap().migrations_in, 1);
    assert_eq!(d.node_stats(NodeId(1)).unwrap().objects_hosted, 0);
    assert_eq!(d.node_stats(NodeId(2)).unwrap().objects_hosted, 1);
    d.shutdown();
}

#[test]
fn migrate_to_same_node_is_noop() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let dst = obj.migrate(MigrateTarget::ToPhys(NodeId(1)), None).unwrap();
    assert_eq!(dst, NodeId(1));
    assert_eq!(d.node_stats(NodeId(1)).unwrap().migrations_out, 0);
    d.shutdown();
}

#[test]
fn migrate_auto_moves_off_current_node() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    let dst = obj.migrate(MigrateTarget::Auto, None).unwrap();
    assert_ne!(dst, NodeId(0));
    d.shutdown();
}

#[test]
fn migrate_to_cluster_picks_member() {
    let d = boot(4);
    let reg = d.register_app().unwrap();
    let cluster = d.vda().request_cluster(2, None).unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
    let dst = obj
        .migrate(MigrateTarget::ToCluster(&cluster), None)
        .unwrap();
    assert!(cluster.machines().contains(&dst));
    d.shutdown();
}

#[test]
fn migration_with_constraints_rejects_unsuitable_targets() {
    let d = boot(2);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap();
    let mut impossible = JsConstraints::new();
    impossible.set(SysParam::AvailMem, ">=", 1e9);
    assert!(matches!(
        obj.migrate(MigrateTarget::Auto, Some(&impossible)),
        Err(JsError::PlacementFailed(_))
    ));
    // Still usable where it is.
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(0));
    d.shutdown();
}

#[test]
fn migration_waits_for_running_method() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    // Kick off a long-running method (2 virtual s ≈ 20 µs real at 1e-5 — so
    // scale up: 200 virtual s ≈ 2 ms real), then migrate mid-flight.
    let h = obj.ainvoke("compute", &[Value::F64(1e10)]).unwrap();
    let dst = obj.migrate(MigrateTarget::ToPhys(NodeId(2)), None).unwrap();
    assert_eq!(dst, NodeId(2));
    // The in-flight method still completed (migration waited for it).
    assert!(h.get_result().is_ok());
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(0));
    d.shutdown();
}

#[test]
fn invocations_racing_with_migration_are_rerouted() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();

    // Concurrent invoker hammering the object while it migrates back and
    // forth; every sinvoke must succeed (Figure 4's transparent re-routing).
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    let obj2 = obj.clone();
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let done = std::sync::Arc::new(AtomicI64::new(0));
    let (stop2, done2) = (stop.clone(), done.clone());
    let invoker = std::thread::spawn(move || {
        while !stop2.load(Ordering::Relaxed) {
            obj2.sinvoke("add", &[Value::I64(1)])
                .expect("invoke survives migration");
            done2.fetch_add(1, Ordering::Relaxed);
        }
    });
    // The race is the point: migrations start once the invoker is calling,
    // and go on until at least 100 adds have run alongside them. (Six
    // migrations take less time than a thread needs to start.)
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let in_time = || std::time::Instant::now() < deadline;
    while done.load(Ordering::Relaxed) == 0 {
        assert!(in_time(), "invoker made no progress");
        std::thread::yield_now();
    }
    let overlap_from = done.load(Ordering::Relaxed);
    let mut round = 0;
    while round < 6 || done.load(Ordering::Relaxed) < overlap_from + 100 {
        let target = NodeId(2 - (round % 2) as u32); // 1 → 2 → 1 → ...
        obj.migrate(MigrateTarget::ToPhys(target), None).unwrap();
        round += 1;
        assert!(in_time(), "too few adds overlapped the migrations");
    }
    stop.store(true, Ordering::Relaxed);
    invoker.join().unwrap();
    let count = done.load(Ordering::Relaxed);
    // No lost updates: the counter equals the number of successful adds.
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(count));
    d.shutdown();
}

#[test]
fn migration_to_dead_node_fails_and_object_survives() {
    let d = boot(3);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(5)],
        Placement::OnPhys(NodeId(1)),
        None,
    )
    .unwrap();
    d.kill_node(NodeId(2));
    assert!(obj.migrate(MigrateTarget::ToPhys(NodeId(2)), None).is_err());
    // Object is still usable at its original location.
    assert_eq!(obj.get_location().unwrap(), NodeId(1));
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(5));
    d.shutdown();
}

#[test]
fn automigration_moves_objects_off_violating_nodes() {
    // Machine m0 is calm until t=200 virtual seconds, then spikes to 90% load;
    // m1 stays idle. An idle-constrained virtual node on m0 will violate its
    // constraints after the spike and its object must auto-migrate to m1
    // (m1 is in the same implicit... no cluster, so the candidate comes from
    // the shared cluster we build).
    let shell = JsShell::new()
        .time_scale(1e-4)
        .monitor_period(0.5)
        .failure_timeout(1e9) // irrelevant here
        .automigration(true, 0.5);
    let shell = shell
        .add_machine(MachineConfig {
            spec: MachineSpec::generic("m0", 50.0, 256.0),
            load: LoadModel::new(
                LoadProfile::Spike {
                    base: 0.0,
                    level: 0.9,
                    start: 200.0,
                    end: 1e12,
                },
                0,
            ),
            link: LinkClass::Lan100,
        })
        .add_machine(MachineConfig::idle("m1", 50.0));
    let d = shell.boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();

    // Build a 2-node cluster with an idleness constraint. Allocation happens
    // before the spike, so both machines qualify.
    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 50);
    let cluster = d.vda().request_cluster(2, Some(&constr)).unwrap();

    // Place the object on m0 (the future-spiking machine).
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(3)],
        Placement::OnPhys(NodeId(0)),
        None,
    )
    .unwrap();
    assert_eq!(obj.get_location().unwrap(), NodeId(0));
    let _ = cluster;

    // Wait for the spike (t=200 virt = 20 ms real at 1e-4) plus a few
    // auto-migration rounds.
    let mut moved = false;
    for _ in 0..400 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        if obj.get_location().unwrap() == NodeId(1) {
            moved = true;
            break;
        }
    }
    assert!(
        moved,
        "auto-migration never moved the object off the loaded node"
    );
    // State intact after the automatic move.
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(3));
    d.shutdown();
}
