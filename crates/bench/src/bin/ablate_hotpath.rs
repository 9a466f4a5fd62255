//! T — real per-call overhead of a synchronous ping along the locality tiers
//! (same node, same cluster, WAN), with and without the coalescing stage.
//! Modeled costs are free, so the wall numbers are pure runtime machinery;
//! the one claim checked is that batching never changes the charged wire
//! bytes of a call.

use jsym_bench::write_json;
use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{CostModel, Deployment, JsObj, JsShell, MachineConfig, Placement};
use jsym_net::{LinkClass, NodeId};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    scenario: String,
    calls: usize,
    wall_micros_per_call: f64,
    virt_seconds_per_call: f64,
    bytes_per_call: f64,
    note: String,
}

/// Runs `calls` synchronous pings against `obj`, returning
/// (real µs/call, virtual s/call, charged bytes/call).
fn ping(d: &Deployment, obj: &JsObj, calls: usize) -> (f64, f64, f64) {
    // Warm up: executor threads, interner, symbol tables.
    for _ in 0..50 {
        obj.sinvoke("get", &[]).unwrap();
    }
    let bytes0 = d.net_stats().bytes_sent;
    let virt0 = d.clock().now();
    let t0 = Instant::now();
    for _ in 0..calls {
        obj.sinvoke("get", &[]).unwrap();
    }
    let wall = t0.elapsed().as_secs_f64() * 1e6 / calls as f64;
    let virt = (d.clock().now() - virt0) / calls as f64;
    let bytes = (d.net_stats().bytes_sent - bytes0) as f64 / calls as f64;
    (wall, virt, bytes)
}

fn main() {
    const CALLS: usize = 2000;
    let mut rows = Vec::new();
    println!(
        "{:>24} {:>12} {:>14} {:>12}",
        "scenario", "wall[µs]", "virt[s]", "bytes/call"
    );

    let mut run = |scenario: &str, d: Deployment, target: NodeId, calls: usize, note: &str| {
        let reg = d.register_app().unwrap();
        let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(target), None).unwrap();
        let (wall, virt, bytes) = ping(&d, &obj, calls);
        println!("{scenario:>24} {wall:>12.2} {virt:>14.6e} {bytes:>12.1}");
        rows.push(Row {
            scenario: scenario.into(),
            calls,
            wall_micros_per_call: wall,
            virt_seconds_per_call: virt,
            bytes_per_call: bytes,
            note: note.into(),
        });
        reg.unregister().unwrap();
        d.shutdown();
    };

    run(
        "loopback",
        {
            let d = shell_with_idle_machines(1)
                .time_scale(1e-6)
                .cost_model(CostModel::free())
                .boot();
            register_test_classes(&d);
            d
        },
        NodeId(0),
        CALLS,
        "same node",
    );
    run(
        "lan100",
        {
            let d = shell_with_idle_machines(2)
                .time_scale(1e-6)
                .cost_model(CostModel::free())
                .boot();
            register_test_classes(&d);
            d
        },
        NodeId(1),
        CALLS,
        "same cluster, 100 Mbit/s switched Ethernet",
    );
    run(
        "wan",
        {
            let far = {
                let mut m = MachineConfig::idle("far", 50.0);
                m.link = LinkClass::Wan;
                m
            };
            let d = JsShell::new()
                .add_machine(MachineConfig::idle("near", 50.0))
                .add_machine(far)
                .time_scale(1e-6)
                .monitor_period(1.0)
                .failure_timeout(1e9)
                .cost_model(CostModel::free())
                .boot();
            register_test_classes(&d);
            d
        },
        NodeId(1),
        500,
        "wide-area link between sites",
    );

    let bc = jsym_net::BatchConfig::default();
    run(
        "lan100_batched",
        {
            let d = shell_with_idle_machines(2)
                .time_scale(1e-6)
                .cost_model(CostModel::free())
                .rmi_batching(bc.flush_window, bc.max_bytes)
                .boot();
            register_test_classes(&d);
            d
        },
        NodeId(1),
        CALLS,
        "same cluster, coalescing stage armed (sync pings batch alone: window latency added, bytes unchanged)",
    );
    run(
        "wan_batched",
        {
            let far = {
                let mut m = MachineConfig::idle("far", 50.0);
                m.link = LinkClass::Wan;
                m
            };
            let d = JsShell::new()
                .add_machine(MachineConfig::idle("near", 50.0))
                .add_machine(far)
                .time_scale(1e-6)
                .monitor_period(1.0)
                .failure_timeout(1e9)
                .cost_model(CostModel::free())
                .rmi_batching(bc.flush_window, bc.max_bytes)
                .boot();
            register_test_classes(&d);
            d
        },
        NodeId(1),
        500,
        "wide-area link, coalescing stage armed",
    );

    // Batching must never change the charged wire bytes of a call.
    for (plain, batched) in [("lan100", "lan100_batched"), ("wan", "wan_batched")] {
        let p = rows.iter().find(|r| r.scenario == plain).unwrap();
        let b = rows.iter().find(|r| r.scenario == batched).unwrap();
        assert!(
            (p.bytes_per_call - b.bytes_per_call).abs() < 1e-9,
            "batching changed charged wire bytes on {plain}: {} vs {}",
            p.bytes_per_call,
            b.bytes_per_call
        );
    }

    if let Ok(path) = write_json("ablate_hotpath", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
