//! Dirty-set automigrate scans vs. full scans on a spiking testbed
//! (DESIGN.md §9): both must report the same violations, while the dirty
//! scan evaluates fewer nodes. The full scan is the oracle, asked of the same
//! registry at the same instants (`scan_violations(false)`); the supervisor
//! itself always runs dirty rounds with every 8th a full one.

use jsym_core::testkit::register_test_classes;
use jsym_core::{JsObj, JsShell, MachineConfig, Placement, Value};
use jsym_net::{LinkClass, NodeId};
use jsym_sysmon::{JsConstraints, LoadModel, LoadProfile, MachineSpec, SysParam};
use jsym_vda::PlaneConfig;
use std::time::{Duration, Instant};

/// Four idle machines plus `spikes` machines that jump from 0% to 90% load
/// at t=200 virtual seconds.
fn spiky_shell(spikes: usize) -> JsShell {
    let mut shell = JsShell::new()
        .time_scale(1e-4)
        .monitor_period(0.5)
        .failure_timeout(1e9);
    for i in 0..4 {
        shell = shell.add_machine(MachineConfig::idle(&format!("idle{i}"), 50.0));
    }
    for i in 0..spikes {
        shell = shell.add_machine(MachineConfig {
            spec: MachineSpec::generic(&format!("spike{i}"), 50.0, 256.0),
            load: LoadModel::new(
                LoadProfile::Spike {
                    base: 0.0,
                    level: 0.9,
                    start: 200.0,
                    end: 1e12,
                },
                i as u64,
            ),
            link: LinkClass::Lan100,
        });
    }
    shell
}

fn idle_constraint() -> JsConstraints {
    let mut c = JsConstraints::new();
    c.set(SysParam::IdlePct, ">=", 50);
    c
}

fn wait_virtual(d: &jsym_core::Deployment, until: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while d.vda().pool().now() < until {
        assert!(Instant::now() < deadline, "virtual clock stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn dirty_scan_matches_full_scan_on_spiking_cluster() {
    // Automigration off: scans are driven manually so both modes see the
    // same instants.
    let d = spiky_shell(2).boot();
    // Re-arm the plane with a 25% relative dirty threshold so slow memory
    // noise on the idle machines cannot mark them dirty; only the load
    // spike can.
    d.vda().set_plane_config(PlaneConfig {
        ttl: 0.5,
        dirty_threshold: 0.25,
    });

    let constr = idle_constraint();
    let cluster = d.vda().request_cluster(6, Some(&constr)).unwrap();
    assert_eq!(cluster.nr_nodes(), 6);

    // Pre-spike: a full scan sees six conforming constrained nodes and
    // clears the post-allocation dirty marks.
    let before = d.vda().scan_violations(false);
    assert_eq!(before.evaluated, 6);
    assert!(before.violations.is_empty());

    wait_virtual(&d, 260.0);

    // Post-spike: the dirty scan only re-evaluates the nodes whose cached
    // sample moved past the threshold — the two spiking machines — yet
    // reports exactly what the full scan reports.
    let dirty = d.vda().scan_violations(true);
    let full = d.vda().scan_violations(false);
    assert_eq!(full.evaluated, 6);
    assert_eq!(full.violations.len(), 2, "both spiking nodes violate");
    assert_eq!(dirty.violations, full.violations);
    assert!(
        dirty.evaluated < full.evaluated,
        "dirty scan evaluated {} of {} nodes",
        dirty.evaluated,
        full.evaluated
    );
    d.shutdown();
}

/// Boots a two-machine deployment (m0 spikes at t=200, m1 idle), places a
/// Counter on the future-violating machine and waits for automigration to
/// move it. Returns the deployment for counter inspection.
fn run_automigration() -> jsym_core::Deployment {
    let d = JsShell::new()
        .time_scale(1e-4)
        .monitor_period(0.5)
        .failure_timeout(1e9)
        .automigration(true, 0.5)
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
        .add_machine(MachineConfig::idle("m1", 50.0))
        .boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let _cluster = d
        .vda()
        .request_cluster(2, Some(&idle_constraint()))
        .unwrap();
    let obj = JsObj::create(
        &reg,
        "Counter",
        &[Value::I64(1)],
        Placement::OnPhys(NodeId(0)),
        None,
    )
    .unwrap();
    assert_eq!(obj.get_location().unwrap(), NodeId(0));

    let deadline = Instant::now() + Duration::from_secs(20);
    while obj.get_location().unwrap() != NodeId(1) {
        assert!(
            Instant::now() < deadline,
            "object never migrated off the spiking machine"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The object survived the move.
    assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(1));
    d
}

#[test]
fn dirty_rounds_migrate_like_full_rounds() {
    // The supervisor's rounds find the violation and move the object...
    let d = run_automigration();

    // ...and its dirty rounds re-evaluate fewer nodes than its every-8th
    // full rounds (both labels are present in one deployment).
    let snap = d.obs().metrics().snapshot();
    let per_mode = |name: &str, mode: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.name == name && k.component == mode)
            .map(|(_, v)| v)
            .sum()
    };
    let dirty_rounds = per_mode("automigrate.rounds", "dirty");
    let full_rounds = per_mode("automigrate.rounds", "full");
    assert!(dirty_rounds > 0, "no dirty rounds ran");
    assert!(full_rounds > 0, "no fallback full rounds ran");
    let dirty_avg = per_mode("automigrate.nodes_evaluated", "dirty") as f64 / dirty_rounds as f64;
    let full_avg = per_mode("automigrate.nodes_evaluated", "full") as f64 / full_rounds as f64;
    assert!(
        dirty_avg < full_avg,
        "dirty rounds averaged {dirty_avg:.2} evaluations vs {full_avg:.2} for full rounds"
    );

    d.shutdown();
}
