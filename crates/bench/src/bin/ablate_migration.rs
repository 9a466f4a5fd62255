//! E2 — migration-cost ablation: explicit migration time vs object state
//! size, within the fast segment and across the slow one.
//!
//! The paper's migration protocol (Figure 3) ships the serialized object;
//! the dominant costs are state (de)serialization on both agents and the
//! transfer itself, so time should grow linearly in state size with a slope
//! set by the link.

use jsym_bench::{json_row, write_json};
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    Deployment, JsObj, JsShell, MachineConfig, MigrateTarget, Placement, RuntimeEvent, Value,
};
use jsym_net::{LinkClass, NodeId};

struct Row {
    /// Bytes the object holds (the `Blob` constructor argument).
    state_bytes: usize,
    /// Bytes the migration shipped, as the source PubOA logged them.
    shipped_bytes: usize,
    link: String,
    virt_seconds: f64,
}
json_row!(Row {
    state_bytes,
    shipped_bytes,
    link,
    virt_seconds
});

/// `state_bytes` of the most recent `Migrated` event.
fn last_shipped(d: &Deployment) -> usize {
    d.events()
        .tail(8)
        .into_iter()
        .rev()
        .find_map(|(_, e)| match e {
            RuntimeEvent::Migrated { state_bytes, .. } => Some(state_bytes),
            _ => None,
        })
        .expect("the migration that just returned was logged")
}

fn main() {
    // Nodes 0,1 on 100 Mbit/s; node 2 on the 10 Mbit/s segment.
    let mut shell = JsShell::new().time_scale(1e-2);
    for (name, link) in [
        ("fast-a", LinkClass::Lan100),
        ("fast-b", LinkClass::Lan100),
        ("slow-c", LinkClass::Lan10),
    ] {
        let mut m = MachineConfig::idle(name, 50.0);
        m.link = link;
        shell = shell.add_machine(m);
    }
    let d = shell.boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let cb = reg.codebase();
    cb.add("blob.jar", 100_000);
    for m in d.machines() {
        cb.load_phys(m).unwrap();
    }
    let clock = d.clock().clone();
    let mut rows = Vec::new();

    println!(
        "{:>12} {:>12} {:>10} {:>12}",
        "state[B]", "shipped[B]", "link", "time[s]"
    );
    for &size in &[1usize << 10, 1 << 14, 1 << 18, 1 << 20, 4 << 20] {
        let obj = JsObj::create(
            &reg,
            "Blob",
            &[Value::I64(size as i64)],
            Placement::OnPhys(NodeId(0)),
            None,
        )
        .unwrap();
        // Within the fast segment: 0 → 1.
        let t0 = clock.now();
        obj.migrate(MigrateTarget::ToPhys(NodeId(1)), None).unwrap();
        let fast = clock.now() - t0;
        let fast_shipped = last_shipped(&d);
        // Across to the slow segment: 1 → 2.
        let t0 = clock.now();
        obj.migrate(MigrateTarget::ToPhys(NodeId(2)), None).unwrap();
        let slow = clock.now() - t0;
        let slow_shipped = last_shipped(&d);
        for (link, shipped, secs) in [
            ("lan100", fast_shipped, fast),
            ("lan10", slow_shipped, slow),
        ] {
            println!("{size:>12} {shipped:>12} {link:>10} {secs:>12.4}");
            rows.push(Row {
                state_bytes: size,
                shipped_bytes: shipped,
                link: link.into(),
                virt_seconds: secs,
            });
        }
        obj.free().unwrap();
    }

    if let Ok(path) = write_json("ablate_migration", &rows) {
        eprintln!("wrote {}", path.display());
    }
    reg.unregister().unwrap();
    d.shutdown();
}
