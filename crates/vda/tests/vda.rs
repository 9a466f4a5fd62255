//! Behavioural tests for virtual distributed architectures, following the
//! paper's §4.2 code skeletons.

use jsym_net::SimClock;
use jsym_sysmon::{JsConstraints, LoadModel, LoadProfile, MachineSpec, SimMachine, SysParam};
use jsym_vda::{ManagerScope, ResourcePool, VdaError, VdaEvent, VdaRegistry};

/// A pool of `n` machines named m0..m(n-1), with configurable loads.
fn pool_with(loads: &[f64]) -> ResourcePool {
    let pool = ResourcePool::new();
    let clock = SimClock::default();
    for (i, &load) in loads.iter().enumerate() {
        pool.add_machine(SimMachine::new(
            MachineSpec::generic(&format!("m{i}"), 10.0 + i as f64, 256.0),
            LoadModel::new(LoadProfile::Constant(load), i as u64),
            clock.clone(),
        ));
    }
    pool
}

fn registry(n: usize) -> VdaRegistry {
    VdaRegistry::new(pool_with(&vec![0.1; n]))
}

// ------------------------------------------------------------------- nodes

#[test]
fn request_any_node_prefers_low_load() {
    let reg = VdaRegistry::new(pool_with(&[0.8, 0.05, 0.5]));
    let n = reg.request_node().unwrap();
    assert_eq!(n.name().unwrap(), "m1");
}

#[test]
fn request_node_by_name() {
    let reg = registry(3);
    let n = reg.request_node_named("m2").unwrap();
    assert_eq!(n.name().unwrap(), "m2");
    assert!(matches!(
        reg.request_node_named("nope"),
        Err(VdaError::NoSuchMachine(_))
    ));
}

#[test]
fn request_node_with_constraints() {
    let reg = VdaRegistry::new(pool_with(&[0.9, 0.9, 0.02]));
    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 50);
    let n = reg.request_node_constrained(&constr).unwrap();
    assert_eq!(n.name().unwrap(), "m2");
    // Now nothing satisfies the constraints any more.
    assert!(matches!(
        reg.request_node_constrained(&constr),
        Err(VdaError::ConstraintsUnsatisfied)
    ));
}

#[test]
fn node_has_implicit_cluster_site_domain() {
    let reg = registry(2);
    let n = reg.request_node().unwrap();
    let c = n.get_cluster().unwrap();
    let s = n.get_site().unwrap();
    let d = n.get_domain().unwrap();
    assert_eq!(c.nr_nodes(), 1);
    assert_eq!(s.nr_clusters(), 1);
    assert_eq!(d.nr_sites(), 1);
    // Idempotent: the same implicit parents are returned.
    assert_eq!(n.get_cluster().unwrap(), c);
    assert_eq!(n.get_site().unwrap(), s);
    assert_eq!(n.get_domain().unwrap(), d);
}

#[test]
fn freed_node_rejects_use() {
    let reg = registry(2);
    let n = reg.request_node().unwrap();
    n.free().unwrap();
    assert!(!n.is_live());
    assert!(matches!(n.free(), Err(VdaError::Freed(_))));
    assert!(matches!(n.get_cluster(), Err(VdaError::Freed(_))));
}

#[test]
fn freeing_releases_the_machine_for_reallocation() {
    let reg = registry(1);
    let n = reg.request_node().unwrap();
    assert!(matches!(
        reg.request_node(),
        Err(VdaError::InsufficientNodes { .. })
    ));
    n.free().unwrap();
    let again = reg.request_node().unwrap();
    assert_eq!(again.name().unwrap(), "m0");
}

#[test]
fn named_nodes_may_share_a_machine() {
    let reg = registry(1);
    let a = reg.request_node_named("m0").unwrap();
    let b = reg.request_node_named("m0").unwrap();
    assert_eq!(a.phys(), b.phys());
    assert_ne!(a, b);
}

#[test]
fn node_sys_params_and_constr_hold() {
    let reg = VdaRegistry::new(pool_with(&[0.05]));
    let n = reg.request_node().unwrap();
    let idle = n.get_sys_param(SysParam::IdlePct).unwrap();
    assert!(idle.as_num().unwrap() > 80.0);
    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 50);
    assert!(n.constr_hold(&constr).unwrap());
    let mut tight = JsConstraints::new();
    tight.set(SysParam::IdlePct, ">=", 99.5);
    assert!(!n.constr_hold(&tight).unwrap());
}

// ----------------------------------------------------------------- clusters

#[test]
fn request_cluster_of_n_nodes() {
    let reg = registry(6);
    let c = reg.request_cluster(5, None).unwrap();
    assert_eq!(c.nr_nodes(), 5);
    // Distinct machines.
    let mut phys = c.machines();
    phys.sort();
    phys.dedup();
    assert_eq!(phys.len(), 5);
}

#[test]
fn cluster_too_large_fails_atomically() {
    let reg = registry(3);
    assert!(matches!(
        reg.request_cluster(5, None),
        Err(VdaError::InsufficientNodes {
            requested: 5,
            available: 3
        })
    ));
    // Nothing leaked: a 3-node cluster still fits.
    assert!(reg.request_cluster(3, None).is_ok());
}

#[test]
fn individual_cluster_from_nodes() {
    let reg = registry(4);
    let n1 = reg.request_node().unwrap();
    let n2 = reg.request_node().unwrap();
    let n3 = reg.request_node().unwrap();
    let c = reg.empty_cluster();
    c.add_node(&n1).unwrap();
    c.add_node(&n2).unwrap();
    c.add_node(&n3).unwrap();
    assert_eq!(c.nr_nodes(), 3);
    // freeNode(n2) by handle.
    c.free_node(&n2).unwrap();
    assert_eq!(c.nr_nodes(), 2);
    // freeNode(0) by index — removes n1, leaving n3.
    c.free_node_at(0).unwrap();
    assert_eq!(c.nr_nodes(), 1);
    assert_eq!(c.get_node(0).unwrap(), n3);
}

#[test]
fn node_cannot_join_two_clusters() {
    let reg = registry(2);
    let n = reg.request_node().unwrap();
    let c1 = reg.empty_cluster();
    let c2 = reg.empty_cluster();
    c1.add_node(&n).unwrap();
    assert!(matches!(c2.add_node(&n), Err(VdaError::AlreadyAttached(_))));
}

#[test]
fn cluster_indexing_matches_paper_bounds() {
    let reg = registry(3);
    let c = reg.request_cluster(3, None).unwrap();
    assert!(c.get_node(0).is_ok());
    assert!(c.get_node(2).is_ok());
    assert!(matches!(
        c.get_node(3),
        Err(VdaError::IndexOutOfRange { what: "node", .. })
    ));
}

#[test]
fn free_cluster_releases_all_nodes() {
    let reg = registry(3);
    let c = reg.request_cluster(3, None).unwrap();
    let n0 = c.get_node(0).unwrap();
    c.free().unwrap();
    assert!(!c.is_live());
    assert!(!n0.is_live());
    // All machines are available again.
    assert!(reg.request_cluster(3, None).is_ok());
}

#[test]
fn cluster_snapshot_is_average() {
    let reg = VdaRegistry::new(pool_with(&[0.0, 0.4]));
    let c = reg.request_cluster(2, None).unwrap();
    let snap = c.snapshot().unwrap();
    let idle = snap.num(SysParam::IdlePct).unwrap();
    // Node idles ~98 and ~55.6 → average ~77.
    assert!((60.0..95.0).contains(&idle), "idle {idle}");
}

// -------------------------------------------------------------------- sites

#[test]
fn request_site_with_cluster_shape() {
    let reg = registry(11);
    let s = reg.request_site(&[2, 4, 5], None).unwrap();
    assert_eq!(s.nr_clusters(), 3);
    assert_eq!(s.nr_nodes(), 11);
    assert_eq!(s.get_cluster(1).unwrap().nr_nodes(), 4);
    // Both navigation alternatives from the paper reach the same node.
    let a = s.get_cluster(2).unwrap().get_node(1).unwrap();
    let b = s.get_node(2, 1).unwrap();
    assert_eq!(a, b);
}

#[test]
fn individual_site_from_clusters() {
    let reg = registry(5);
    let c1 = reg.request_cluster(2, None).unwrap();
    let c2 = reg.request_cluster(3, None).unwrap();
    let s = reg.empty_site();
    s.add_cluster(&c1).unwrap();
    s.add_cluster(&c2).unwrap();
    assert_eq!(s.nr_clusters(), 2);
    assert_eq!(s.nr_nodes(), 5);
    // freeCluster by handle and by index.
    s.free_cluster(&c2).unwrap();
    assert_eq!(s.nr_clusters(), 1);
    s.free_cluster_at(0).unwrap();
    assert_eq!(s.nr_clusters(), 0);
    assert!(!c1.is_live());
}

#[test]
fn site_free_node_by_path() {
    let reg = registry(6);
    let s = reg.request_site(&[3, 3], None).unwrap();
    s.free_node(1, 2).unwrap();
    assert_eq!(s.nr_nodes(), 5);
    assert_eq!(s.get_cluster(1).unwrap().nr_nodes(), 2);
}

#[test]
fn free_site_cascades() {
    let reg = registry(4);
    let s = reg.request_site(&[2, 2], None).unwrap();
    let c0 = s.get_cluster(0).unwrap();
    s.free().unwrap();
    assert!(!s.is_live());
    assert!(!c0.is_live());
    assert!(reg.request_cluster(4, None).is_ok());
}

// ------------------------------------------------------------------ domains

#[test]
fn request_domain_with_shapes() {
    let reg = registry(19);
    let d = reg.request_domain(&[&[1, 3, 5], &[6, 4]], None).unwrap();
    assert_eq!(d.nr_sites(), 2);
    assert_eq!(d.nr_clusters(), 5);
    assert_eq!(d.nr_nodes(), 19);
    // Paper's two navigation alternatives.
    let a = d
        .get_site(0)
        .unwrap()
        .get_cluster(1)
        .unwrap()
        .get_node(2)
        .unwrap();
    let b = d.get_node(0, 1, 2).unwrap();
    assert_eq!(a, b);
}

#[test]
fn domain_partial_frees() {
    let reg = registry(8);
    let d = reg.request_domain(&[&[2, 2], &[4]], None).unwrap();
    d.free_node(0, 1, 0).unwrap();
    assert_eq!(d.nr_nodes(), 7);
    d.free_cluster(0, 1).unwrap();
    assert_eq!(d.nr_clusters(), 2);
    assert_eq!(d.nr_nodes(), 6);
    d.free_site_at(1).unwrap();
    assert_eq!(d.nr_sites(), 1);
    assert_eq!(d.nr_nodes(), 2);
    d.free().unwrap();
    assert!(!d.is_live());
    assert_eq!(reg.pool().len(), 8);
    assert!(reg.request_cluster(8, None).is_ok());
}

#[test]
fn individual_domain_from_sites() {
    let reg = registry(6);
    let s1 = reg.request_site(&[2], None).unwrap();
    let s2 = reg.request_site(&[1, 2], None).unwrap();
    let d = reg.empty_domain();
    d.add_site(&s1).unwrap();
    d.add_site(&s2).unwrap();
    assert_eq!(d.nr_sites(), 2);
    assert_eq!(d.nr_nodes(), 5);
    d.free_site(&s1).unwrap();
    assert_eq!(d.nr_sites(), 1);
}

#[test]
fn constrained_domain_rejects_busy_pool() {
    // 4 idle + 4 busy machines; an 8-node idle-constrained domain must fail,
    // a 4-node one succeed.
    let reg = VdaRegistry::new(pool_with(&[0.01, 0.01, 0.01, 0.01, 0.9, 0.9, 0.9, 0.9]));
    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 60);
    assert!(reg.request_domain(&[&[4, 4]], Some(&constr)).is_err());
    let d = reg.request_domain(&[&[2, 2]], Some(&constr)).unwrap();
    assert_eq!(d.nr_nodes(), 4);
}

// ----------------------------------------------------------------- managers

#[test]
fn managers_follow_promotion_rule() {
    let reg = registry(9);
    let d = reg.request_domain(&[&[2, 2], &[3, 2]], None).unwrap();
    let dm = d.manager().expect("domain has a manager");
    // The domain manager must manage some site, which must manage some
    // cluster it belongs to.
    let mut found = false;
    for si in 0..d.nr_sites() {
        let site = d.get_site(si).unwrap();
        let sm = site.manager().expect("site has a manager");
        // Site manager is one of its cluster managers.
        let mut site_ok = false;
        for ci in 0..site.nr_clusters() {
            let cluster = site.get_cluster(ci).unwrap();
            let cm = cluster.manager().expect("cluster has a manager");
            // Cluster manager is a member of the cluster.
            let members: Vec<_> = (0..cluster.nr_nodes())
                .map(|i| cluster.get_node(i).unwrap())
                .collect();
            assert!(members.contains(&cm), "cluster manager not a member");
            if cm == sm {
                site_ok = true;
            }
        }
        assert!(site_ok, "site manager is not one of its cluster managers");
        if sm == dm {
            found = true;
        }
    }
    assert!(found, "domain manager is not one of its site managers");
}

#[test]
fn freeing_manager_elects_replacement() {
    let reg = registry(3);
    let c = reg.request_cluster(3, None).unwrap();
    let m = c.manager().unwrap();
    let backup = c.backup_manager().unwrap();
    assert_ne!(m, backup);
    c.free_node(&m).unwrap();
    let new_m = c.manager().unwrap();
    assert_eq!(new_m, backup, "backup should take over");
    assert_ne!(c.backup_manager().unwrap(), new_m);
}

#[test]
fn single_node_cluster_has_manager_but_no_backup() {
    let reg = registry(1);
    let c = reg.request_cluster(1, None).unwrap();
    assert!(c.manager().is_some());
    assert!(c.backup_manager().is_none());
}

// ------------------------------------------------------------------ failure

#[test]
fn failure_releases_nodes_and_fails_over_managers() {
    let reg = registry(4);
    let events = reg.subscribe();
    let c = reg.request_cluster(4, None).unwrap();
    let manager = c.manager().unwrap();
    let backup = c.backup_manager().unwrap();
    let dead_phys = manager.phys();

    reg.handle_phys_failure(dead_phys);
    assert!(reg.is_failed(dead_phys));
    assert_eq!(c.nr_nodes(), 3);
    assert!(!manager.is_live());
    assert_eq!(c.manager().unwrap(), backup);

    // Events: ... NodeFailed, ManagerChanged(takeover), NodeFreed ...
    let collected: Vec<_> = events.try_iter().collect();
    assert!(collected
        .iter()
        .any(|e| matches!(e, VdaEvent::NodeFailed { phys } if *phys == dead_phys)));
    assert!(collected.iter().any(|e| matches!(
        e,
        VdaEvent::ManagerChanged {
            scope: ManagerScope::Cluster(_),
            takeover: true,
            ..
        }
    )));
    assert!(collected
        .iter()
        .any(|e| matches!(e, VdaEvent::NodeFreed { phys, .. } if *phys == dead_phys)));
}

#[test]
fn failed_machine_is_not_reallocated() {
    let reg = registry(2);
    reg.handle_phys_failure(reg.pool().ids()[0]);
    let n = reg.request_node().unwrap();
    assert_eq!(n.name().unwrap(), "m1");
    assert!(matches!(
        reg.request_node(),
        Err(VdaError::InsufficientNodes { .. })
    ));
}

#[test]
fn non_manager_failure_keeps_manager() {
    let reg = registry(3);
    let c = reg.request_cluster(3, None).unwrap();
    let manager = c.manager().unwrap();
    // Fail a non-manager member.
    let victim = (0..3)
        .map(|i| c.get_node(i).unwrap())
        .find(|n| *n != manager && Some(n.clone()) != c.backup_manager())
        .unwrap();
    reg.handle_phys_failure(victim.phys());
    assert_eq!(c.nr_nodes(), 2);
    assert_eq!(c.manager().unwrap(), manager);
}

// --------------------------------------------------------------- violations

#[test]
fn violating_nodes_reports_constraint_breaches() {
    let clock = SimClock::default();
    let pool = ResourcePool::new();
    // One machine whose load spikes after t=0 (it is always in spike for
    // virtual time > 0 here), one forever idle.
    pool.add_machine(SimMachine::new(
        MachineSpec::generic("spiky", 10.0, 256.0),
        LoadModel::new(
            LoadProfile::Spike {
                base: 0.0,
                level: 0.9,
                start: 0.0,
                end: 1e12,
            },
            0,
        ),
        clock.clone(),
    ));
    pool.add_machine(SimMachine::new(
        MachineSpec::generic("calm", 10.0, 256.0),
        LoadModel::new(LoadProfile::Idle, 0),
        clock.clone(),
    ));
    let reg = VdaRegistry::new(pool);
    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 50);
    // Request by name so the constraint is attached but violated.
    let spiky = reg.request_node_named("spiky").unwrap();
    let cluster = reg.empty_cluster();
    cluster.add_node(&spiky).unwrap();
    // Attach constraints via a constrained cluster request for the calm one.
    let calm = reg.request_node_constrained(&constr).unwrap();
    assert_eq!(calm.name().unwrap(), "calm");

    let violations = reg.violating_nodes();
    // calm satisfies its constraints; spiky has none attached (named request),
    // so nothing is reported yet.
    assert!(violations.is_empty());
}

#[test]
fn locality_candidates_are_ordered_cluster_site_domain() {
    let reg = registry(7);
    let d = reg.request_domain(&[&[2, 2], &[3]], None).unwrap();
    let node = d.get_node(0, 0, 0).unwrap();
    let cands = reg.locality_candidates(&node);
    assert_eq!(cands.len(), 6, "all other domain machines are candidates");
    // First candidate: the cluster peer.
    let cluster_peer = d.get_node(0, 0, 1).unwrap().phys();
    assert_eq!(cands[0], cluster_peer);
    // Next two: the same-site second cluster.
    let site_machines: Vec<_> = (0..2)
        .map(|i| d.get_node(0, 1, i).unwrap().phys())
        .collect();
    assert!(site_machines.contains(&cands[1]));
    assert!(site_machines.contains(&cands[2]));
    // Last three: the remote site.
    let remote: Vec<_> = (0..3)
        .map(|i| d.get_node(1, 0, i).unwrap().phys())
        .collect();
    for c in &cands[3..] {
        assert!(remote.contains(c));
    }
}

#[test]
fn events_fire_for_allocation_and_free() {
    let reg = registry(2);
    let events = reg.subscribe();
    let n = reg.request_node().unwrap();
    n.free().unwrap();
    let got: Vec<_> = events.try_iter().collect();
    assert!(got
        .iter()
        .any(|e| matches!(e, VdaEvent::NodeAllocated { .. })));
    assert!(got.iter().any(|e| matches!(e, VdaEvent::NodeFreed { .. })));
}

// ------------------------------------------------------------ monitor view

#[test]
fn monitor_view_wires_members_to_managers() {
    let reg = registry(4);
    let cluster = reg.request_cluster(4, None).unwrap();
    let mgr = cluster.manager().unwrap().phys();
    for i in 0..4 {
        let node = cluster.get_node(i).unwrap().phys();
        let view = reg.monitor_view(node);
        if node == mgr {
            // The manager aggregates the cluster and expects everyone.
            assert_eq!(view.aggregates.len(), 1);
            assert_eq!(view.aggregates[0].1.len(), 4);
            assert_eq!(view.expects_from.len(), 3);
            assert!(view.report_to.is_empty(), "no site above this cluster");
        } else {
            // Members report to (and expect heartbeats from) the manager.
            assert_eq!(view.report_to, vec![mgr]);
            assert_eq!(view.expects_from, vec![mgr]);
            assert!(view.aggregates.is_empty());
        }
    }
    reg.pool()
        .ids()
        .iter()
        .filter(|id| !cluster.machines().contains(id))
        .for_each(|&id| assert!(reg.monitor_view(id).is_empty()));
}

#[test]
fn monitor_view_spans_the_hierarchy() {
    let reg = registry(6);
    let domain = reg.request_domain(&[&[2, 2], &[2]], None).unwrap();
    let dm = domain.manager().unwrap().phys();
    let dm_view = reg.monitor_view(dm);
    // The domain manager aggregates its cluster, its site and the domain.
    assert!(
        dm_view.aggregates.len() >= 3,
        "domain manager should hold cluster+site+domain aggregates: {:?}",
        dm_view
            .aggregates
            .iter()
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
    );
    let domain_agg = dm_view
        .aggregates
        .iter()
        .find(|(l, _)| l.starts_with("vd"))
        .expect("domain aggregate");
    assert_eq!(domain_agg.1.len(), 6);

    // A site manager that is not the domain manager reports upward to it.
    let other_site_mgr = domain.get_site(1).unwrap().manager().unwrap().phys();
    if other_site_mgr != dm {
        let view = reg.monitor_view(other_site_mgr);
        assert!(view.report_to.contains(&dm));
        assert!(view.expects_from.contains(&dm));
    }
}

#[test]
fn monitor_view_updates_after_failover() {
    let reg = registry(3);
    let cluster = reg.request_cluster(3, None).unwrap();
    let mgr = cluster.manager().unwrap();
    let backup = cluster.backup_manager().unwrap();
    reg.handle_phys_failure(mgr.phys());
    // The promoted backup now aggregates; the dead machine has no view.
    let view = reg.monitor_view(backup.phys());
    assert_eq!(view.aggregates.len(), 1);
    assert_eq!(view.aggregates[0].1.len(), 2);
    assert!(reg.monitor_view(mgr.phys()).is_empty());
}

#[test]
fn site_and_domain_backups_are_valid_managers() {
    let reg = registry(8);
    let domain = reg.request_domain(&[&[2, 2], &[2, 2]], None).unwrap();
    // Site backups must be cluster managers of the same site.
    for si in 0..domain.nr_sites() {
        let site = domain.get_site(si).unwrap();
        if let Some(backup) = site.backup_manager() {
            let cluster_mgrs: Vec<_> = (0..site.nr_clusters())
                .filter_map(|ci| site.get_cluster(ci).unwrap().manager())
                .collect();
            assert!(cluster_mgrs.contains(&backup));
            assert_ne!(Some(backup), site.manager());
        }
    }
    // Domain backup must be a site manager and distinct from the manager.
    if let Some(backup) = domain.backup_manager() {
        let site_mgrs: Vec<_> = (0..domain.nr_sites())
            .filter_map(|si| domain.get_site(si).unwrap().manager())
            .collect();
        assert!(site_mgrs.contains(&backup));
        assert_ne!(Some(backup), domain.manager());
    }
}

// ----------------------------------------- aggregation plane teardown

use jsym_net::TimeScale;
use jsym_vda::PlaneConfig;

/// Pool on an effectively frozen clock (1e9 real seconds per virtual
/// second), so cached and fresh samples are bit-identical.
fn frozen_pool(loads: &[f64]) -> jsym_vda::ResourcePool {
    let pool = jsym_vda::ResourcePool::new();
    let clock = SimClock::new(TimeScale::new(1e9));
    for (i, &load) in loads.iter().enumerate() {
        pool.add_machine(SimMachine::new(
            MachineSpec::generic(&format!("m{i}"), 10.0 + i as f64, 256.0),
            LoadModel::new(LoadProfile::Constant(load), i as u64),
            clock.clone(),
        ));
    }
    pool
}

fn plane_registry(n: usize) -> VdaRegistry {
    let reg = VdaRegistry::new(frozen_pool(&vec![0.1; n]));
    reg.set_plane_config(PlaneConfig {
        ttl: 60.0,
        dirty_threshold: 0.0,
    });
    reg
}

#[test]
fn free_node_evicts_plane_entries() {
    let reg = plane_registry(4);
    let n = reg.request_node().unwrap();
    // A bare node joins the rollups once its implicit cluster materializes.
    n.get_cluster().unwrap();
    assert_eq!(reg.plane_stats().tracked, 1);
    n.free().unwrap();
    let stats = reg.plane_stats();
    assert_eq!(stats.tracked, 0, "freed node left a rollup contribution");
    assert_eq!(stats.dirty, 0, "freed node left a dirty mark");
    // The machine is placeable again: four singles must all succeed.
    for _ in 0..4 {
        reg.request_node().unwrap();
    }
}

#[test]
fn free_cluster_evicts_plane_entries() {
    let reg = plane_registry(6);
    let c = reg.request_cluster(4, None).unwrap();
    assert_eq!(reg.plane_stats().tracked, 4);
    c.free().unwrap();
    let stats = reg.plane_stats();
    assert_eq!(stats.tracked, 0);
    assert_eq!(stats.dirty, 0);
    // All six machines are back in the placement index.
    let again = reg.request_cluster(6, None).unwrap();
    assert_eq!(again.nr_nodes(), 6);
}

#[test]
fn free_site_evicts_plane_entries() {
    let reg = plane_registry(6);
    let s = reg.request_site(&[2, 2], None).unwrap();
    assert_eq!(reg.plane_stats().tracked, 4);
    // Site aggregates are a read of the incremental rollup.
    assert!(!s.snapshot().unwrap().is_empty());
    s.free().unwrap();
    let stats = reg.plane_stats();
    assert_eq!(stats.tracked, 0, "freed site left rollup contributions");
    assert_eq!(stats.dirty, 0);
    let again = reg.request_cluster(6, None).unwrap();
    assert_eq!(again.nr_nodes(), 6);
}

#[test]
fn phys_failure_invalidates_cached_sample() {
    // m0 has by far the lowest load, so it is always the first pick.
    let reg = VdaRegistry::new(frozen_pool(&[0.01, 0.4, 0.5]));
    reg.set_plane_config(PlaneConfig {
        ttl: 60.0,
        dirty_threshold: 0.0,
    });
    let n = reg.request_node().unwrap();
    assert_eq!(n.name().unwrap(), "m0");
    let phys = n.phys();
    reg.handle_phys_failure(phys);
    let stats = reg.plane_stats();
    assert!(
        stats.invalidations >= 1,
        "failure must evict the cached sample"
    );
    // The failed machine must never be handed out again.
    let next = reg.request_node().unwrap();
    assert_eq!(next.name().unwrap(), "m1");
    let last = reg.request_node().unwrap();
    assert_eq!(last.name().unwrap(), "m2");
    assert!(reg.request_node().is_err());
}

#[test]
fn a_machine_named_while_free_is_indexed_once_after_its_release() {
    // `m0` sits in the placement heap when the named request takes it; the
    // release must not index it a second time (found by the placement
    // model: a cluster came back with the same machine twice).
    let reg = plane_registry(3);
    reg.request_node().unwrap().free().unwrap();
    reg.request_node_named("m0").unwrap().free().unwrap();
    let mut machines = reg.request_cluster(3, None).unwrap().machines();
    machines.dedup();
    assert_eq!(machines.len(), 3, "a machine was handed out twice");
    assert!(matches!(
        reg.request_node(),
        Err(VdaError::InsufficientNodes {
            requested: 1,
            available: 0
        })
    ));
}
