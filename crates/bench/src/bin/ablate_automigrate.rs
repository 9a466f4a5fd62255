//! E4 — constraint-driven automatic migration under a load shift
//! (paper §4.6, §5.2).
//!
//! Eight objects live on a 4-node cluster constrained to ≥50% idle. At
//! t=100 virtual seconds two of the machines get hit by heavy user load.
//! The runtime must move every affected object to the still-idle machines;
//! we measure how long the system takes to return to a constraint-clean
//! placement for several auto-migration check periods.

use jsym_bench::{json_row, write_json};
use jsym_core::testkit::register_test_classes;
use jsym_core::{JsObj, JsShell, MachineConfig, Placement, Value};
use jsym_net::LinkClass;
use jsym_sysmon::{JsConstraints, LoadModel, LoadProfile, MachineSpec, SysParam};

struct Row {
    check_period: f64,
    objects: usize,
    rebalance_virt_seconds: f64,
    all_escaped: bool,
}
json_row!(Row {
    check_period,
    objects,
    rebalance_virt_seconds,
    all_escaped
});

const SPIKE_AT: f64 = 100.0;

fn run(period: f64) -> Row {
    let mut shell = JsShell::new()
        .time_scale(2e-3)
        .monitor_period(2.0)
        .automigration(true, period);
    for i in 0..4u32 {
        let profile = if i < 2 {
            // These two get loaded at t=SPIKE_AT.
            LoadProfile::Spike {
                base: 0.02,
                level: 0.9,
                start: SPIKE_AT,
                end: 1e12,
            }
        } else {
            LoadProfile::Idle
        };
        shell = shell.add_machine(MachineConfig {
            spec: MachineSpec::generic(&format!("m{i}"), 30.0, 256.0),
            load: LoadModel::new(profile, i as u64),
            link: LinkClass::Lan100,
        });
    }
    let d = shell.boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();

    let mut constr = JsConstraints::new();
    constr.set(SysParam::IdlePct, ">=", 50);
    let _cluster = d.vda().request_cluster(4, Some(&constr)).unwrap();

    // Eight objects, two per machine.
    let machines = d.machines();
    let objects: Vec<JsObj> = (0..8)
        .map(|k| {
            JsObj::create(
                &reg,
                "Counter",
                &[Value::I64(k)],
                Placement::OnPhys(machines[(k as usize) % 4]),
                None,
            )
            .unwrap()
        })
        .collect();

    let clock = d.clock().clone();
    let loaded: Vec<_> = machines[..2].to_vec();
    // Wait for the spike, then time until no object remains on a loaded
    // machine.
    while clock.now() < SPIKE_AT {
        clock.sleep(5.0);
    }
    let deadline = SPIKE_AT + 600.0;
    let mut rebalanced_at = None;
    while clock.now() < deadline {
        let stranded = objects
            .iter()
            .filter(|o| loaded.contains(&o.get_location().unwrap()))
            .count();
        if stranded == 0 {
            rebalanced_at = Some(clock.now());
            break;
        }
        clock.sleep(2.0);
    }
    let all_escaped = rebalanced_at.is_some();
    let row = Row {
        check_period: period,
        objects: objects.len(),
        rebalance_virt_seconds: rebalanced_at.unwrap_or(deadline) - SPIKE_AT,
        all_escaped,
    };
    reg.unregister().unwrap();
    d.shutdown();
    row
}

fn main() {
    println!(
        "{:>14} {:>8} {:>16} {:>8}",
        "check period", "objects", "rebalance[s]", "clean"
    );
    let mut rows = Vec::new();
    for period in [2.0, 8.0, 32.0] {
        let row = run(period);
        println!(
            "{:>14.1} {:>8} {:>16.1} {:>8}",
            row.check_period, row.objects, row.rebalance_virt_seconds, row.all_escaped
        );
        rows.push(row);
    }
    if let Ok(path) = write_json("ablate_automigrate", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
