//! Regression test: `set_monitor_period` re-arms the NA monitor timer chain
//! exactly once.
//!
//! The NA runs as a self-re-arming timer task. Changing the
//! monitoring period re-arms a fresh chain so a shortened period takes
//! effect immediately — but the already-scheduled old chain must be
//! invalidated (via the per-node timer generation), otherwise every
//! `set_monitor_period` call would stack another chain and rounds would run
//! at a multiple of the configured rate.

use jsym_core::{JsShell, MachineConfig};

#[test]
fn set_monitor_period_does_not_stack_timer_chains() {
    let d = JsShell::new()
        .add_machine(MachineConfig::idle("m0", 400.0))
        .add_machine(MachineConfig::idle("m1", 400.0))
        .time_scale(1e-3)
        // Boot with a far-future round so the original chain never fires
        // inside the test window.
        .monitor_period(10_000.0)
        .executor(2)
        .boot();
    let node = d.machines()[0];

    // Re-arm repeatedly: each call supersedes the previous chain. If the
    // old chains stayed live, rounds would accrue at ~6x the period rate.
    for _ in 0..6 {
        d.set_monitor_period(5.0);
    }

    let start = d.clock().now();
    while d.clock().now() - start < 100.0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let rounds = d.node_stats(node).expect("node stats").monitor_rounds;
    // ~20 rounds expected at one round per 5 virtual seconds. Leave slack
    // for scheduler jitter in both directions; six stacked chains would
    // show ~120.
    assert!(rounds >= 5, "monitor chain never re-armed: {rounds} rounds");
    assert!(
        rounds <= 40,
        "duplicate monitor chains after set_monitor_period: {rounds} rounds in 100 virt s at period 5"
    );
    d.shutdown();
}
