//! E11 — RMI batching ablation: flush window × max batch bytes × workload.
//!
//! Each cell runs one workload on a fresh testbed deployment, either with
//! the coalescing stage disabled (the baseline plane) or with a specific
//! `(flush_window, max_bytes)` configuration, and records the modeled run
//! time together with the `net.batch.*` counters. Three workloads cover the
//! traffic shapes that matter:
//!
//! * `scatter_gather` — a pure `DistCol` collective: many same-destination
//!   payloads in flight at once, the best case for coalescing;
//! * `matmul` — the collective multiplication kernel (compute-bound, two
//!   chunks per node);
//! * `jacobi` — iterative ghost-row exchange (latency-bound, small
//!   messages, neighbours only).
//!
//! Usage:
//!   cargo run --release -p jsym-bench --bin ablate_batch             # full sweep
//!   cargo run --release -p jsym-bench --bin ablate_batch -- --quick  # smoke
//!   cargo run --release -p jsym-bench --bin ablate_batch -- --quick --unbatched-only

use jsym_bench::{json_row, write_json};
use jsym_cluster::catalog::{testbed_machines, LoadKind};
use jsym_cluster::jacobi::{register_jacobi_classes, run_jacobi};
use jsym_cluster::matmul::{register_matmul_classes, run_collective, MatmulConfig};
use jsym_col::{partition_weighted, register_col_classes, DistCol};
use jsym_core::{Deployment, JsShell};
use jsym_net::BatchConfig;

struct Row {
    workload: String,
    batched: bool,
    /// Whether the flush window adapts to each pair's send cadence.
    adaptive: bool,
    /// Coalescing window in virtual seconds (0 when unbatched; the ceiling
    /// when adaptive).
    flush_window: f64,
    /// Batch overflow threshold in bytes (0 when unbatched).
    max_bytes: usize,
    virt_seconds: f64,
    messages: u64,
    coalesced: u64,
    flushed: u64,
    batched_msgs: u64,
    bytes_saved: u64,
    mean_batch_size: f64,
}
json_row!(Row {
    workload,
    batched,
    adaptive,
    flush_window,
    max_bytes,
    virt_seconds,
    messages,
    coalesced,
    flushed,
    batched_msgs,
    bytes_saved,
    mean_batch_size,
});

fn deployment(nodes: usize, batching: Option<BatchConfig>, scale: f64) -> Deployment {
    let mut shell = JsShell::new()
        .time_scale(scale)
        .monitor_period(50.0)
        .failure_timeout(1e9)
        .add_machines(testbed_machines(nodes, LoadKind::Night, 11));
    if let Some(bc) = batching {
        shell = if bc.adaptive {
            shell.rmi_batching_adaptive(bc.flush_window, bc.max_bytes)
        } else {
            shell.rmi_batching(bc.flush_window, bc.max_bytes)
        };
    }
    shell.boot()
}

/// Scatter + gather of `elems` f32s over the cluster, four chunks per node.
fn scatter_gather(d: &Deployment, elems: usize) -> f64 {
    register_col_classes(d);
    let reg = d.register_app().unwrap();
    let weights: Vec<_> = d
        .machines()
        .iter()
        .map(|&m| (m, d.pool().machine(m).unwrap().spec().peak_mflops))
        .collect();
    let specs = partition_weighted(elems, &weights, 4);
    let col = DistCol::<f32>::create_default(&reg, &specs).unwrap();
    let data: Vec<f32> = (0..elems).map(|i| i as f32).collect();
    let t0 = d.clock().now();
    col.scatter(&data).unwrap();
    let back = col.gather().unwrap();
    let t = d.clock().now() - t0;
    assert_eq!(back.len(), elems);
    col.free().unwrap();
    reg.unregister().unwrap();
    t
}

fn matmul(d: &Deployment, n: usize) -> f64 {
    register_matmul_classes(d);
    let cluster = d.vda().request_cluster(6, None).unwrap();
    let report = run_collective(d, &cluster, &MatmulConfig::new(n).without_verification()).unwrap();
    report.virt_seconds
}

fn jacobi(d: &Deployment, n: usize, iters: usize) -> f64 {
    register_jacobi_classes(d);
    let cluster = d.vda().request_cluster(4, None).unwrap();
    let report = run_jacobi(d, &cluster, n, iters, false, false).unwrap();
    report.virt_seconds
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let unbatched_only = args.iter().any(|a| a == "--unbatched-only");

    let scale = if quick { 1e-3 } else { 5e-3 };
    let (elems, mat_n, jac_n, jac_iters) = if quick {
        (20_000, 120, 48, 5)
    } else {
        (200_000, 200, 64, 15)
    };

    // Windows are virtual seconds; at these time scales the interesting
    // range spans "barely wider than a back-to-back send gap" to "swallows
    // a whole fan-out burst".
    let windows: &[f64] = if quick { &[5e-3] } else { &[1e-4, 1e-3, 1e-2] };
    let sizes: &[usize] = if quick {
        &[256 * 1024]
    } else {
        &[4 * 1024, 64 * 1024, 256 * 1024]
    };

    let mut configs: Vec<Option<BatchConfig>> = vec![None];
    if !unbatched_only {
        for &w in windows {
            for &s in sizes {
                configs.push(Some(BatchConfig {
                    flush_window: w,
                    max_bytes: s,
                    adaptive: false,
                }));
            }
        }
        // Adaptive flush: each window value becomes the per-pair ceiling;
        // one cell per window at the largest overflow threshold.
        let s = *sizes.last().unwrap();
        for &w in windows {
            configs.push(Some(BatchConfig {
                flush_window: w,
                max_bytes: s,
                adaptive: true,
            }));
        }
    }

    type Workload = (&'static str, usize, Box<dyn Fn(&Deployment) -> f64>);
    let workloads: Vec<Workload> = vec![
        (
            "scatter_gather",
            6,
            Box::new(move |d: &Deployment| scatter_gather(d, elems)),
        ),
        (
            "matmul",
            6,
            Box::new(move |d: &Deployment| matmul(d, mat_n)),
        ),
        (
            "jacobi",
            4,
            Box::new(move |d: &Deployment| jacobi(d, jac_n, jac_iters)),
        ),
    ];

    println!(
        "{:>15} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10} {:>8} {:>11} {:>10}",
        "workload",
        "batched",
        "adaptive",
        "window",
        "max_kB",
        "virt[s]",
        "msgs",
        "coalesced",
        "flushed",
        "mean_batch",
        "saved[kB]"
    );

    let mut rows = Vec::new();
    for (name, nodes, work) in &workloads {
        for cfg in &configs {
            let d = deployment(*nodes, cfg.clone(), scale);
            let msgs0 = d.net_stats().msgs_sent;
            let virt_seconds = work(&d);
            let messages = d.net_stats().msgs_sent - msgs0;
            // Let trailing one-way traffic (frees, unregister) drain out of
            // any still-open coalescing windows before reading counters.
            d.clock().sleep(1.0);
            let snap = d.obs().snapshot();
            let coalesced = snap.metrics.counter_total("net.batch.coalesced");
            let flushed = snap.metrics.counter_total("net.batch.flushed");
            let batched_msgs = snap.metrics.counter_total("net.batch.msgs");
            let bytes_saved = snap.metrics.counter_total("net.batch.bytes_saved");
            d.shutdown();
            let mean_batch = if flushed > 0 {
                batched_msgs as f64 / flushed as f64
            } else {
                0.0
            };
            let row = Row {
                workload: (*name).to_owned(),
                batched: cfg.is_some(),
                adaptive: cfg.as_ref().is_some_and(|c| c.adaptive),
                flush_window: cfg.as_ref().map_or(0.0, |c| c.flush_window),
                max_bytes: cfg.as_ref().map_or(0, |c| c.max_bytes),
                virt_seconds,
                messages,
                coalesced,
                flushed,
                batched_msgs,
                bytes_saved,
                mean_batch_size: mean_batch,
            };
            println!(
                "{:>15} {:>8} {:>9} {:>9.1e} {:>9} {:>10.4} {:>9} {:>10} {:>8} {:>11.2} {:>10.1}",
                row.workload,
                row.batched,
                row.adaptive,
                row.flush_window,
                row.max_bytes / 1024,
                row.virt_seconds,
                row.messages,
                row.coalesced,
                row.flushed,
                row.mean_batch_size,
                row.bytes_saved as f64 / 1024.0
            );
            rows.push(row);
        }
    }

    // Shape checks: the coalescing stage must actually engage on the
    // collective workloads, and an unbatched run must report no batch
    // activity at all.
    for row in &rows {
        if !row.batched {
            assert_eq!(
                row.coalesced, 0,
                "{}: unbatched run coalesced",
                row.workload
            );
            assert_eq!(row.flushed, 0, "{}: unbatched run flushed", row.workload);
        }
    }
    if !unbatched_only {
        let engaged = rows
            .iter()
            .any(|r| r.workload == "scatter_gather" && r.batched && r.coalesced > 0);
        assert!(engaged, "scatter_gather never coalesced anything");
    }

    match write_json("ablate_batch", &rows) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
