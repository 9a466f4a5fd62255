//! E9 — wide-area ablation: the same master/slave multiplication on one
//! site vs. a domain of two WAN-joined sites.
//!
//! The paper positions JavaSymphony "ranging from small-scale cluster
//! computing to large scale wide-area meta-computing" but only evaluates a
//! LAN cluster. This experiment shows why: master/slave task farming with a
//! centralized master pays the WAN on every task round trip, so remote-site
//! machines contribute far less than their flops — quantifying how much
//! locality-aware decomposition (one master per site) would matter.

use jsym_bench::{json_row, write_json};
use jsym_cluster::catalog::{testbed_machines, LoadKind};
use jsym_cluster::matmul::{register_matmul_classes, run_master_slave, MatmulConfig};
use jsym_core::JsShell;
use jsym_net::LinkClass;

struct Row {
    topology: String,
    nodes: usize,
    virt_seconds: f64,
    setup_seconds: f64,
}
json_row!(Row {
    topology,
    nodes,
    virt_seconds,
    setup_seconds
});

fn run(nodes: usize, wan_split: Option<usize>) -> Row {
    let d = JsShell::new()
        .time_scale(2e-2)
        .add_machines(testbed_machines(nodes, LoadKind::Dedicated, 7))
        .boot();
    let label = match wan_split {
        None => "single-site".to_owned(),
        Some(k) => {
            // Machines [0, k) form site A; [k, nodes) sit behind a WAN.
            let m = d.machines();
            let topo = d.network().topology();
            let mut topo = topo.write();
            for &a in &m[..k] {
                for &b in &m[k..] {
                    topo.set_pair_class(a, b, LinkClass::Wan);
                }
            }
            format!("two-site ({k}+{})", nodes - k)
        }
    };
    register_matmul_classes(&d);
    let cluster = d.vda().request_cluster(nodes, None).unwrap();
    let report =
        run_master_slave(&d, &cluster, &MatmulConfig::new(600).without_verification()).unwrap();
    d.shutdown();
    Row {
        topology: label,
        nodes,
        virt_seconds: report.virt_seconds,
        setup_seconds: report.setup_seconds,
    }
}

fn main() {
    println!(
        "{:>16} {:>6} {:>10} {:>10}",
        "topology", "nodes", "mult[s]", "setup[s]"
    );
    let mut rows = Vec::new();
    for (nodes, split) in [(4usize, None), (8, None), (8, Some(4))] {
        let row = run(nodes, split);
        println!(
            "{:>16} {:>6} {:>10.2} {:>10.2}",
            row.topology, row.nodes, row.virt_seconds, row.setup_seconds
        );
        rows.push(row);
    }
    let single4 = rows[0].virt_seconds;
    let single8 = rows[1].virt_seconds;
    let split8 = rows[2].virt_seconds;
    println!(
        "\ngoing 4 → 8 machines helps {:.2}x on one site but only {:.2}x when the extra \
         four sit behind a WAN — centralized task farming does not survive the wide area, \
         which is exactly why the paper's model lets the programmer place per-site masters.",
        single4 / single8,
        single4 / split8
    );
    if let Ok(path) = write_json("ablate_wan", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
