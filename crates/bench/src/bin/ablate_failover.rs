//! E5 — manager-failover latency vs heartbeat period (paper §5.1).
//!
//! A cluster manager is killed; its backup must detect the silence (no
//! heartbeats past the failure timeout) and take over. Detection latency
//! should track `failure_timeout` (here 3× the monitoring period), the
//! knob the JS-Shell exposes.
//!
//! Each run also drives a probe workload through the failover window —
//! serialized `add_to` increments resolved via `resolve_location` — and
//! panics on any misrouted or doubly-delivered RMI, so a wiring regression
//! fails the process rather than skewing a column.
//!
//! Ablation axis (DESIGN.md §10): the same sweep with the replicated
//! directory serving placements. Flags:
//!
//! * `--replicas <n>` — run only with an n-replica directory (0 = legacy
//!   origin-authority resolution). Default: both 0 and 3.
//! * `--quick` — two periods instead of four (CI smoke mode).
//!
//! When the killed manager hosted a directory replica, the row records how
//! long the surviving replicas took to present a leader again.

use jsym_bench::{json_row, write_json};
use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, Placement, Value};
use jsym_net::NodeId;

struct Row {
    monitor_period: f64,
    failure_timeout: f64,
    directory_replicas: u32,
    detection_virt_seconds: f64,
    backup_took_over: bool,
    probes: u64,
    misrouted_rmis: u64,
    dir_reelection_virt_seconds: Option<f64>,
}
json_row!(Row {
    monitor_period,
    failure_timeout,
    directory_replicas,
    detection_virt_seconds,
    backup_took_over,
    probes,
    misrouted_rmis,
    dir_reelection_virt_seconds,
});

fn run(period: f64, replicas: u32) -> Row {
    let timeout = period * 3.0;
    let d = shell_with_idle_machines(4)
        .time_scale(2e-3)
        .monitor_period(period)
        .failure_timeout(timeout)
        .directory_replicas(replicas)
        .boot();
    register_test_classes(&d);
    let cluster = d.vda().request_cluster(4, None).unwrap();
    let manager = cluster.manager().unwrap();
    let backup = cluster.backup_manager().unwrap();
    let clock = d.clock().clone();

    // Probe workload on two surviving machines: the prober reaches the
    // counter through its handle, the resolution path under ablation.
    let survivors: Vec<NodeId> = d
        .machines()
        .into_iter()
        .filter(|&n| n != manager.phys())
        .collect();
    let reg = d.register_app_on(survivors[0]).unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(survivors[1]), None).unwrap();
    let prober =
        JsObj::create(&reg, "Counter", &[], Placement::OnPhys(survivors[0]), None).unwrap();

    // Let heartbeats establish (a few periods).
    clock.sleep(period * 4.0);

    let killed_at = clock.now();
    d.kill_node(manager.phys());
    // Wait for the registry to mark the failure, probing throughout.
    let deadline = killed_at + timeout * 20.0 + 200.0;
    let mut expected = 0i64;
    let mut probes = 0u64;
    while !d.vda().is_failed(manager.phys()) && clock.now() < deadline {
        let got = prober
            .sinvoke("add_to", &[Value::Handle(obj.handle()), Value::I64(1)])
            .expect("probe RMI failed during failover");
        expected += 1;
        assert_eq!(
            got,
            Value::I64(expected),
            "misrouted or double-delivered probe"
        );
        probes += 1;
        clock.sleep(period / 4.0);
    }
    let detected_at = clock.now();

    // If the dead manager hosted a directory replica, time how long the
    // survivors take to present a single leader again.
    let dir_reelection_virt_seconds = if replicas > 0 && manager.phys().0 < replicas {
        loop {
            let st = d.directory_status();
            if !st.is_empty() && st.iter().filter(|s| s.role == "leader").count() == 1 {
                break Some(clock.now() - killed_at);
            }
            if clock.now() > deadline {
                break None; // recorded as null, visible in the artifact
            }
            clock.sleep(period / 4.0);
        }
    } else {
        None
    };

    let row = Row {
        monitor_period: period,
        failure_timeout: timeout,
        directory_replicas: replicas,
        detection_virt_seconds: detected_at - killed_at,
        backup_took_over: cluster.manager() == Some(backup),
        probes,
        misrouted_rmis: 0, // a misroute panics above; surviving means zero
        dir_reelection_virt_seconds,
    };
    obj.free().unwrap();
    prober.free().unwrap();
    reg.unregister().unwrap();
    d.shutdown();
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let replicas: Option<u32> = args
        .windows(2)
        .find(|w| w[0] == "--replicas")
        .map(|w| w[1].parse().expect("--replicas takes a number"));
    let periods: &[f64] = if quick {
        &[2.0, 5.0]
    } else {
        &[2.0, 5.0, 10.0, 20.0]
    };
    let modes: Vec<u32> = match replicas {
        Some(n) => vec![n],
        None => vec![0, 3],
    };

    println!(
        "{:>10} {:>10} {:>8} {:>14} {:>10} {:>7} {:>9} {:>14}",
        "period[s]",
        "timeout[s]",
        "dir",
        "detection[s]",
        "takeover",
        "probes",
        "misroutes",
        "reelection[s]"
    );
    let mut rows = Vec::new();
    for &r in &modes {
        for &period in periods {
            let row = run(period, r);
            println!(
                "{:>10.1} {:>10.1} {:>8} {:>14.2} {:>10} {:>7} {:>9} {:>14}",
                row.monitor_period,
                row.failure_timeout,
                if row.directory_replicas == 0 {
                    "legacy".to_owned()
                } else {
                    format!("{}rep", row.directory_replicas)
                },
                row.detection_virt_seconds,
                row.backup_took_over,
                row.probes,
                row.misrouted_rmis,
                row.dir_reelection_virt_seconds
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".to_owned()),
            );
            rows.push(row);
        }
    }
    if let Ok(path) = write_json("ablate_failover", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
