//! E7 — locality ablation: the value of programmer-controlled placement
//! (the paper's central thesis, §1/§3).
//!
//! A 4-stage pipeline over two sites joined by a WAN, mapped three ways:
//! locality-aware (one WAN crossing), scattered (every hand-off crosses),
//! and single-site (no crossing, but half the machines unused for other
//! work). Also: Jacobi ghost exchange on one cluster vs split across the
//! WAN — neighbour exchange is exactly the pattern the paper says should be
//! co-located.

use jsym_bench::{json_row, write_json};
use jsym_cluster::jacobi::{register_jacobi_classes, run_jacobi};
use jsym_cluster::pipeline::{
    register_pipeline_classes, PIPELINE_ARTIFACT, PIPELINE_ARTIFACT_BYTES,
};
use jsym_core::{Deployment, JsObj, JsShell, MachineConfig, Placement, Value};
use jsym_net::{LinkClass, NodeId};

struct Row {
    workload: String,
    mapping: String,
    virt_seconds: f64,
}
json_row!(Row {
    workload,
    mapping,
    virt_seconds
});

fn two_site_deployment() -> Deployment {
    let mut shell = JsShell::new().time_scale(2e-3);
    for name in ["a0", "a1", "b0", "b1"] {
        shell = shell.add_machine(MachineConfig::idle(name, 25.0));
    }
    let d = shell.boot();
    // A↔B pairs cross a WAN.
    let m = d.machines();
    {
        let topo = d.network().topology();
        let mut topo = topo.write();
        for &a in &m[0..2] {
            for &b in &m[2..4] {
                topo.set_pair_class(a, b, LinkClass::Wan);
            }
        }
    }
    register_pipeline_classes(&d);
    register_jacobi_classes(&d);
    d
}

fn run_pipeline(d: &Deployment, order: [usize; 4], items: usize) -> f64 {
    let m = d.machines();
    let reg = d.register_app().unwrap();
    let cb = reg.codebase();
    cb.add(PIPELINE_ARTIFACT, PIPELINE_ARTIFACT_BYTES);
    for &n in &m {
        cb.load_phys(n).unwrap();
    }
    let mut next = None;
    for (k, &slot) in order.iter().enumerate().rev() {
        let mut args = vec![Value::I64(k as i64), Value::F64(100.0)];
        if let Some(h) = next {
            args.push(Value::Handle(h));
        }
        let stage = JsObj::create(&reg, "Stage", &args, Placement::OnPhys(m[slot]), None).unwrap();
        next = Some(stage.handle());
        if k == 0 {
            let clock = d.clock().clone();
            let payload = Value::floats(vec![1.0; 100_000]);
            let t0 = clock.now();
            for _ in 0..items {
                stage
                    .sinvoke("process", std::slice::from_ref(&payload))
                    .unwrap();
            }
            let out = clock.now() - t0;
            reg.unregister().unwrap();
            return out;
        }
    }
    unreachable!()
}

fn main() {
    let mut rows = Vec::new();
    println!("{:>10} {:>16} {:>12}", "workload", "mapping", "time[s]");

    // Pipeline mappings.
    let d = two_site_deployment();
    for (label, order) in [
        ("locality-aware", [0usize, 1, 2, 3]), // sites [A,A,B,B]
        ("scattered", [0, 2, 1, 3]),           // A,B,A,B
        ("single-site", [0, 1, 0, 1]),         // all at site A
    ] {
        let t = run_pipeline(&d, order, 8);
        println!("{:>10} {:>16} {:>12.2}", "pipeline", label, t);
        rows.push(Row {
            workload: "pipeline".into(),
            mapping: label.into(),
            virt_seconds: t,
        });
    }
    d.shutdown();

    // Jacobi: neighbours within one cluster vs split across the WAN.
    for (label, wan) in [("one-cluster", false), ("wan-split", true)] {
        let mut shell = JsShell::new().time_scale(2e-3);
        for name in ["j0", "j1"] {
            shell = shell.add_machine(MachineConfig::idle(name, 25.0));
        }
        let d = shell.boot();
        if wan {
            d.network()
                .topology()
                .write()
                .set_pair_class(NodeId(0), NodeId(1), LinkClass::Wan);
        }
        register_jacobi_classes(&d);
        let cluster = d.vda().request_cluster(2, None).unwrap();
        let report = run_jacobi(&d, &cluster, 64, 30, false, false).unwrap();
        println!(
            "{:>10} {:>16} {:>12.2}",
            "jacobi", label, report.virt_seconds
        );
        rows.push(Row {
            workload: "jacobi".into(),
            mapping: label.into(),
            virt_seconds: report.virt_seconds,
        });
        d.shutdown();
    }

    if let Ok(path) = write_json("ablate_locality", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
