//! Figure 5 reproduction: "JavaSymphony matrix multiplication performance
//! for different problem sizes and system loads."
//!
//! Prints one line per measured cell (the paper plots execution time against
//! the number of nodes for several N, one solid line per N during the day
//! and one dashed line per N at night) and writes `bench_results/fig5.json`
//! plus `fig5_obs.json`, one observability summary row per cell.
//!
//! Usage:
//!   cargo run --release -p jsym-bench --bin fig5            # full sweep
//!   cargo run --release -p jsym-bench --bin fig5 -- --quick # smoke sweep

use jsym_bench::{json_row, percentile, write_json};
use jsym_cluster::fig5::{run_fig5_instrumented, Fig5Config, Fig5Kernel, Fig5Row};
use jsym_core::obs::{HistogramSnapshot, MetricsSnapshot};

/// What one cell's deployment metrics say about its RMI traffic.
struct ObsRow {
    n: usize,
    nodes: usize,
    load: String,
    /// Calls issued, all invocation modes (`rmi.calls`).
    rmi_calls: u64,
    /// Caller-observed RMI latency in virtual seconds, merged over nodes and
    /// modes (`rmi.caller_seconds`).
    caller_p50_s: f64,
    caller_p99_s: f64,
    /// Payload bytes put on links (`net.bytes`).
    bytes: u64,
    messages: u64,
}
json_row!(ObsRow {
    n,
    nodes,
    load,
    rmi_calls,
    caller_p50_s,
    caller_p99_s,
    bytes,
    messages
});

fn obs_row(row: &Fig5Row, metrics: &MetricsSnapshot) -> ObsRow {
    let mut caller = HistogramSnapshot::empty();
    for (k, h) in &metrics.histograms {
        if k.name == "rmi.caller_seconds" {
            let _ = caller.merge(h);
        }
    }
    ObsRow {
        n: row.n,
        nodes: row.nodes,
        load: row.load.clone(),
        rmi_calls: metrics.counter_total("rmi.calls"),
        caller_p50_s: percentile(&caller, 0.50),
        caller_p99_s: percentile(&caller, 0.99),
        bytes: metrics.histogram_sum("net.bytes") as u64,
        messages: row.messages,
    }
}

fn print_header() {
    println!(
        "{:>5} {:>6} {:>6} {:>12} {:>10} {:>8} {:>11} {:>9}",
        "N", "nodes", "load", "kernel", "time[s]", "speedup", "efficiency", "messages"
    );
}

fn print_row(r: &Fig5Row) {
    println!(
        "{:>5} {:>6} {:>6} {:>12} {:>10.2} {:>8.2} {:>11.2} {:>9}",
        r.n, r.nodes, r.load, r.kernel, r.seconds, r.speedup, r.efficiency, r.messages
    );
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Default to the DistCol collective kernel with RMI batching (the
    // committed curves); `--kernel master_slave` reproduces the historical
    // unbatched task farm.
    let mut cfg = if quick {
        let mut cfg = Fig5Config::smoke();
        cfg.kernel = Fig5Kernel::Collective;
        cfg.batching = true;
        cfg
    } else {
        Fig5Config::paper_collective()
    };
    if let Some(kernel) = parse_flag::<String>(&args, "--kernel") {
        match kernel.as_str() {
            "master_slave" => {
                cfg.kernel = Fig5Kernel::MasterSlave;
                cfg.batching = false;
                cfg.sizes.retain(|&n| n < 2000); // impractically slow there
            }
            "collective" => {
                cfg.kernel = Fig5Kernel::Collective;
                cfg.batching = true;
            }
            other => {
                eprintln!("unknown --kernel {other} (use master_slave|collective)");
                std::process::exit(2);
            }
        }
    }
    // Researcher knobs: --seed N, --scale S (real s per virtual s),
    // --size N (restrict to one problem size).
    if let Some(seed) = parse_flag::<u64>(&args, "--seed") {
        cfg.seed = seed;
    }
    if let Some(scale) = parse_flag::<f64>(&args, "--scale") {
        cfg.time_scale = scale;
    }
    if let Some(size) = parse_flag::<usize>(&args, "--size") {
        cfg.sizes = vec![size];
    }
    // --executor N: size every cell's executor (0 = the default size).
    if let Some(threads) = parse_flag::<usize>(&args, "--executor") {
        cfg.executor = threads;
    }
    eprintln!(
        "Figure 5 sweep: N ∈ {:?}, nodes ∈ {:?}, loads {:?} (base time scale {}, per-size ×[0.5, 8] for fidelity; ~minutes of wall time)",
        cfg.sizes,
        cfg.node_counts,
        cfg.loads.iter().map(|l| l.label()).collect::<Vec<_>>(),
        cfg.time_scale,
    );
    print_header();
    let mut obs_rows = Vec::new();
    let rows = run_fig5_instrumented(&cfg, |row, metrics| {
        print_row(row);
        obs_rows.push(obs_row(row, metrics));
    });

    // The qualitative claims of paper §6, checked on the fly.
    summarize(&rows);
    for written in [write_json("fig5", &rows), write_json("fig5_obs", &obs_rows)] {
        match written {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
    match jsym_bench::write_csv(
        "fig5",
        "n,nodes,load,kernel,seconds,speedup,efficiency,messages",
        &rows,
        |r| {
            format!(
                "{},{},{},{},{:.4},{:.4},{:.4},{}",
                r.n, r.nodes, r.load, r.kernel, r.seconds, r.speedup, r.efficiency, r.messages
            )
        },
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}

fn cell(rows: &[Fig5Row], n: usize, nodes: usize, load: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.n == n && r.nodes == nodes && r.load == load)
        .map(|r| r.seconds)
}

fn summarize(rows: &[Fig5Row]) {
    println!("\n--- shape checks against paper §6 ---");
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.n).collect();
        v.sort();
        v.dedup();
        v
    };
    for &n in &sizes {
        for load in ["night", "day"] {
            let series: Vec<(usize, f64)> = rows
                .iter()
                .filter(|r| r.n == n && r.load == load)
                .map(|r| (r.nodes, r.seconds))
                .collect();
            if series.len() < 3 {
                continue;
            }
            let best = series
                .iter()
                .cloned()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let last = *series.last().unwrap();
            println!(
                "N={n} {load}: best {:.2}s at {} nodes; {} nodes takes {:.2}s ({})",
                best.1,
                best.0,
                last.0,
                last.1,
                if last.1 > best.1 {
                    "worse — matches the paper's >10-node degradation"
                } else {
                    "NOT worse"
                }
            );
        }
        // Night faster than day at equal configuration.
        if let (Some(night), Some(day)) = (cell(rows, n, 6, "night"), cell(rows, n, 6, "day")) {
            println!(
                "N={n}: 6-node night {night:.2}s vs day {day:.2}s ({})",
                if night < day {
                    "night wins — matches"
                } else {
                    "MISMATCH"
                }
            );
        }
    }
}
