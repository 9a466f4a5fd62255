//! Workspace fault-tolerance tests (paper §5.1): failure detection through
//! the NAS, backup-manager promotion across hierarchy levels, and the
//! behaviour of applications whose objects lived on the dead node.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{Deployment, JsError, JsObj, Placement, Value};
use jsym_net::NodeId;
use jsym_vda::{ManagerScope, VdaEvent};
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

fn detecting_deployment(n: usize) -> Deployment {
    let d = shell_with_idle_machines(n)
        .time_scale(1e-4)
        .monitor_period(2.0)
        .failure_timeout(50.0)
        .boot();
    register_test_classes(&d);
    d
}

#[test]
fn site_manager_failure_cascades_to_all_levels() {
    let d = detecting_deployment(6);
    let domain = d.vda().request_domain(&[&[2, 2], &[2]], None).unwrap();
    let site0 = domain.get_site(0).unwrap();
    let victim = site0.manager().unwrap();
    // The victim is a cluster manager, the site-0 manager, and (being the
    // first site's manager) likely the domain manager too.
    let was_domain_manager = domain.manager() == Some(victim.clone());

    wait_until(
        || {
            domain.machines().iter().all(|&m| {
                d.node_stats(m)
                    .map(|s| s.monitor_rounds >= 2)
                    .unwrap_or(false)
            })
        },
        "monitoring to start everywhere",
    );
    let events = d.vda().subscribe();
    d.kill_node(victim.phys());
    wait_until(|| d.vda().is_failed(victim.phys()), "failure detection");
    wait_until(|| site0.nr_nodes() == 3, "victim release");

    // Every level has a live, consistent manager again.
    let new_site_mgr = site0.manager().expect("site has a manager");
    assert_ne!(new_site_mgr, victim);
    let dm = domain.manager().expect("domain has a manager");
    let site_mgrs: Vec<_> = (0..domain.nr_sites())
        .filter_map(|i| domain.get_site(i).unwrap().manager())
        .collect();
    assert!(
        site_mgrs.contains(&dm),
        "domain manager must be a site manager"
    );

    let changes: Vec<_> = events
        .try_iter()
        .filter(|e| matches!(e, VdaEvent::ManagerChanged { .. }))
        .collect();
    assert!(!changes.is_empty(), "no ManagerChanged events");
    if was_domain_manager {
        assert!(changes.iter().any(|e| matches!(
            e,
            VdaEvent::ManagerChanged {
                scope: ManagerScope::Domain(_),
                ..
            }
        )));
    }
    d.shutdown();
}

#[test]
fn objects_on_dead_node_fail_cleanly_and_app_continues() {
    let d = detecting_deployment(3);
    let reg = d.register_app().unwrap();
    let doomed = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(9)],
        Placement::OnPhys(d.machines()[2]),
        None,
    )
    .unwrap();
    let survivor = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(1)],
        Placement::OnPhys(d.machines()[1]),
        None,
    )
    .unwrap();
    d.kill_node(d.machines()[2]);
    // Paper §5.1: "currently the object agent system does not exploit
    // information about system failures provided by the NAS" — invocations
    // on lost objects fail; they are not resurrected.
    assert!(matches!(
        doomed.sinvoke("get", &[]),
        Err(JsError::NodeUnreachable(_) | JsError::Timeout | JsError::ShuttingDown)
    ));
    // The application itself keeps working.
    assert_eq!(survivor.sinvoke("get", &[]).unwrap(), Value::I64(1));
    reg.unregister().unwrap();
    d.shutdown();
}

#[test]
fn failed_machine_excluded_from_future_allocation_and_placement() {
    let d = detecting_deployment(3);
    let reg = d.register_app().unwrap();
    let dead = d.machines()[1];
    let cluster = d.vda().request_cluster(3, None).unwrap();
    wait_until(
        || {
            cluster.machines().iter().all(|&m| {
                d.node_stats(m)
                    .map(|s| s.monitor_rounds >= 2)
                    .unwrap_or(false)
            })
        },
        "monitoring to start",
    );
    d.kill_node(dead);
    wait_until(|| d.vda().is_failed(dead), "failure detection");

    // Placement avoids the dead machine.
    for _ in 0..4 {
        let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
        assert_ne!(obj.get_location().unwrap(), dead);
    }
    // Release the original cluster (its dead member is already gone) and
    // reallocate: only the two survivors may be used.
    cluster.free().unwrap();
    let c2 = d.vda().request_cluster(2, None);
    match c2 {
        Ok(c) => assert!(!c.machines().contains(&dead)),
        Err(e) => panic!("two machines remain, allocation should work: {e}"),
    }
    // A third machine does not exist any more.
    assert!(d.vda().request_node().is_err());
    d.shutdown();
}

#[test]
fn double_failure_leaves_last_node_standing() {
    let d = detecting_deployment(3);
    let cluster = d.vda().request_cluster(3, None).unwrap();
    wait_until(
        || {
            cluster.machines().iter().all(|&m| {
                d.node_stats(m)
                    .map(|s| s.monitor_rounds >= 2)
                    .unwrap_or(false)
            })
        },
        "monitoring to start",
    );
    let m0 = cluster.manager().unwrap();
    d.kill_node(m0.phys());
    wait_until(|| cluster.nr_nodes() == 2, "first failover");
    let m1 = cluster.manager().unwrap();
    assert_ne!(m0, m1);
    d.kill_node(m1.phys());
    wait_until(|| cluster.nr_nodes() == 1, "second failover");
    let m2 = cluster.manager().unwrap();
    assert_ne!(m1, m2);
    assert!(
        cluster.backup_manager().is_none(),
        "one node left: no backup"
    );
    d.shutdown();
}

#[test]
fn checkpointed_counter_and_float_chunk_recover_after_a_kill() {
    let d = shell_with_idle_machines(3)
        .time_scale(1e-4)
        .monitor_period(2.0)
        .failure_timeout(50.0)
        .checkpointing(10.0)
        .boot();
    register_test_classes(&d);
    jsym_col::register_col_classes(&d);
    let _cluster = d.vda().request_cluster(3, None).unwrap();
    let reg = d.register_app().unwrap();
    let doomed = NodeId(2);
    let counter = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(41)],
        Placement::OnPhys(doomed),
        None,
    )
    .unwrap();
    let floats: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5 - 7.25).collect();
    let chunk = JsObj::create(
        &reg,
        jsym_col::COL_CHUNK_CLASS,
        &[Value::floats(floats.clone())],
        Placement::OnPhys(doomed),
        None,
    )
    .unwrap();
    wait_until(
        || {
            d.store()
                .keys()
                .iter()
                .filter(|k| k.starts_with("__ckpt_"))
                .count()
                >= 2
        },
        "both objects checkpointed",
    );
    d.kill_node(doomed);
    wait_until(|| d.vda().is_failed(doomed), "failure detection");
    for obj in [&counter, &chunk] {
        wait_until(
            || obj.get_location().map(|l| l != doomed).unwrap_or(false),
            "recovery from the checkpoint",
        );
    }
    assert_eq!(counter.sinvoke("get", &[]).unwrap(), Value::I64(41));
    assert_eq!(
        chunk.sinvoke("col_get", &[]).unwrap(),
        Value::floats(floats)
    );
    assert_eq!(chunk.sinvoke("col_len", &[]).unwrap(), Value::I64(1000));
    d.shutdown();
}
