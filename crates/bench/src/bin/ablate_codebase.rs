//! E3 — selective vs full classloading (paper §4.3).
//!
//! 16 class artifacts, 13 nodes. *Full* replication ships every artifact to
//! every node (what plain Java codebases do); *selective* loading ships each
//! artifact only to the two nodes that actually instantiate its class. The
//! paper's claim: "This feature can reduce the overall memory requirement
//! of an application."

use jsym_bench::{json_row, write_json};
use jsym_cluster::catalog::{testbed_machines, LoadKind};
use jsym_core::JsShell;

struct Row {
    strategy: String,
    artifacts: usize,
    nodes: usize,
    bytes_shipped: u64,
    total_resident_bytes: u64,
    load_virt_seconds: f64,
}
json_row!(Row {
    strategy,
    artifacts,
    nodes,
    bytes_shipped,
    total_resident_bytes,
    load_virt_seconds,
});

const ARTIFACTS: usize = 16;
const ARTIFACT_BYTES: usize = 250_000;

fn run(selective: bool) -> Row {
    let d = JsShell::new()
        .time_scale(1e-2)
        .add_machines(testbed_machines(13, LoadKind::Dedicated, 0))
        .boot();
    let reg = d.register_app().unwrap();
    let cb = reg.codebase();
    for k in 0..ARTIFACTS {
        cb.add(&format!("classes-{k}.jar"), ARTIFACT_BYTES);
    }
    let machines = d.machines();
    let clock = d.clock().clone();
    let net_before = d.net_stats().bytes_sent;
    let t0 = clock.now();

    if selective {
        // Each artifact goes only to the two nodes that need it. The
        // codebase API loads whole codebases, so build one per artifact —
        // exactly what a locality-conscious application would do.
        for k in 0..ARTIFACTS {
            let cb_k = reg.codebase();
            cb_k.add(&format!("classes-{k}.jar"), ARTIFACT_BYTES);
            cb_k.load_phys(machines[k % machines.len()]).unwrap();
            cb_k.load_phys(machines[(k + 1) % machines.len()]).unwrap();
        }
    } else {
        for &m in &machines {
            cb.load_phys(m).unwrap();
        }
    }
    let load_virt_seconds = clock.now() - t0;
    let bytes_shipped = d.net_stats().bytes_sent - net_before;
    let total_resident_bytes: u64 = machines
        .iter()
        .map(|&m| d.pool().machine(m).unwrap().runtime_bytes())
        .sum();
    let row = Row {
        strategy: if selective { "selective" } else { "full" }.into(),
        artifacts: ARTIFACTS,
        nodes: machines.len(),
        bytes_shipped,
        total_resident_bytes,
        load_virt_seconds,
    };
    d.shutdown();
    row
}

fn main() {
    println!(
        "{:>10} {:>10} {:>6} {:>14} {:>16} {:>10}",
        "strategy", "artifacts", "nodes", "shipped[B]", "resident[B]", "load[s]"
    );
    let mut rows = Vec::new();
    for selective in [false, true] {
        let row = run(selective);
        println!(
            "{:>10} {:>10} {:>6} {:>14} {:>16} {:>10.3}",
            row.strategy,
            row.artifacts,
            row.nodes,
            row.bytes_shipped,
            row.total_resident_bytes,
            row.load_virt_seconds
        );
        rows.push(row);
    }
    let full = &rows[0];
    let sel = &rows[1];
    println!(
        "\nselective loading uses {:.1}x less memory and ships {:.1}x fewer bytes",
        full.total_resident_bytes as f64 / sel.total_resident_bytes as f64,
        full.bytes_shipped as f64 / sel.bytes_shipped as f64,
    );
    if let Ok(path) = write_json("ablate_codebase", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
