//! The `jsym-shell` REPL: administer a simulated JavaSymphony deployment.
//!
//! ```text
//! jsym-shell [nodes] [day|night|dedicated] [time-scale] [--batch] [--executor N]
//! ```
//!
//! Boots the CLUSTER 2000 testbed (first `nodes` machines, default 6) under
//! the chosen load regime and reads commands from stdin; `help` lists them.
//! `--batch` arms the send-side RMI coalescing stage (fig5's defaults), so
//! the `batch` command has live counters to show. `--executor N` sizes the
//! deployment's work-stealing executor (default: `JsShell`'s); the `executor`
//! command shows its size and counters.

use jsym_cluster::catalog::{testbed_machines, LoadKind};
use jsym_cluster::jacobi::register_jacobi_classes;
use jsym_cluster::matmul::register_matmul_classes;
use jsym_cluster::pipeline::register_pipeline_classes;
use jsym_core::testkit::register_test_classes;
use jsym_core::JsShell;
use jsym_shell::ShellSession;
use std::io::{BufRead, Write};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let batching = args.iter().any(|a| a == "--batch");
    args.retain(|a| a != "--batch");
    let executor: usize = args
        .iter()
        .position(|a| a == "--executor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if let Some(i) = args.iter().position(|a| a == "--executor") {
        args.drain(i..(i + 2).min(args.len()));
    }
    let nodes: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
        .clamp(1, 13);
    let load = match args.get(1).map(String::as_str) {
        Some("day") => LoadKind::Day,
        Some("dedicated") => LoadKind::Dedicated,
        _ => LoadKind::Night,
    };
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1e-3);

    let mut shell = JsShell::new()
        .time_scale(scale)
        .monitor_period(5.0)
        .failure_timeout(30.0)
        .add_machines(testbed_machines(nodes, load, 2026));
    if batching {
        shell = shell.rmi_batching(5e-4, 256 * 1024);
    }
    let deployment = shell.executor(executor).boot();
    register_test_classes(&deployment);
    register_matmul_classes(&deployment);
    register_pipeline_classes(&deployment);
    register_jacobi_classes(&deployment);

    println!(
        "jsym-shell: {nodes} testbed machines under {} load (1 virtual s = {scale} real s{}, \
         {}-worker executor)",
        load.label(),
        if batching { ", RMI batching on" } else { "" },
        deployment.executor_threads(),
    );
    println!("classes: Counter, Blob (blob.jar), Matrix, Stage, JacobiWorker; `help` for commands");

    let mut session = match ShellSession::new(deployment.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return;
        }
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("jsym> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        println!("{}", session.run_line(&line));
        if session.finished {
            break;
        }
    }
    deployment.shutdown();
}
