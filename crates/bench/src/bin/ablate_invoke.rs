//! E1 — invocation-mode ablation: sinvoke vs ainvoke vs oinvoke.
//!
//! Measures (a) synchronous round-trip latency as payload grows, (b) the
//! overlap advantage of asynchronous invocation (the paper's motivation for
//! `ainvoke`: "overlapping of waiting time ... with some useful local
//! computations"), and (c) the cost of a one-sided stream.

use jsym_bench::{json_row, write_json};
use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, Placement, Value};
use jsym_net::NodeId;

struct Row {
    mode: String,
    payload_bytes: usize,
    virt_seconds: f64,
    note: String,
}
json_row!(Row {
    mode,
    payload_bytes,
    virt_seconds,
    note
});

fn main() {
    // Five idle 50 Mflop/s machines, 100x faster than real time: one
    // caller plus four workers.
    let d = shell_with_idle_machines(5).time_scale(1e-2).boot();
    register_test_classes(&d);
    let reg = d.register_app().unwrap();
    let obj = JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(1)), None).unwrap();
    let clock = d.clock().clone();
    let mut rows = Vec::new();

    println!("{:>8} {:>12} {:>12}  note", "mode", "payload[B]", "time[s]");

    // (a) Synchronous latency vs payload.
    for &size in &[0usize, 1 << 10, 1 << 16, 1 << 20] {
        let payload = Value::floats(vec![0.0; size / 4]);
        // Warm once, then average 5 round trips.
        obj.sinvoke("echo", std::slice::from_ref(&payload)).unwrap();
        let t0 = clock.now();
        const REPS: usize = 5;
        for _ in 0..REPS {
            obj.sinvoke("echo", std::slice::from_ref(&payload)).unwrap();
        }
        let per = (clock.now() - t0) / REPS as f64;
        println!("{:>8} {:>12} {:>12.4}  round trip", "sinvoke", size, per);
        rows.push(Row {
            mode: "sinvoke".into(),
            payload_bytes: size,
            virt_seconds: per,
            note: "round trip".into(),
        });
    }

    // (b) Overlap: K remote computations, one worker object per machine,
    // issued synchronously (each blocks) vs asynchronously (all in flight
    // while the caller does useful local work). Each computes 20 Mflop
    // (0.4 virtual s on its worker).
    const K: usize = 4;
    let workers: Vec<JsObj> = (1..=K)
        .map(|i| {
            JsObj::create(
                &reg,
                "Counter",
                &[],
                Placement::OnPhys(NodeId(i as u32)),
                None,
            )
            .unwrap()
        })
        .collect();
    let work = Value::F64(20e6);
    let t0 = clock.now();
    for w in &workers {
        w.sinvoke("compute", std::slice::from_ref(&work)).unwrap();
    }
    let sync_total = clock.now() - t0;

    let t0 = clock.now();
    let handles: Vec<_> = workers
        .iter()
        .map(|w| w.ainvoke("compute", std::slice::from_ref(&work)).unwrap())
        .collect();
    // "Useful local computation" while the remotes work.
    let local = d.pool().machine(NodeId(0)).unwrap();
    local.compute(10e6);
    for h in handles {
        h.get_result().unwrap();
    }
    let async_total = clock.now() - t0;
    println!(
        "{:>8} {:>12} {:>12.4}  {K} computations, serialized",
        "sinvoke", 8, sync_total
    );
    println!(
        "{:>8} {:>12} {:>12.4}  {K} computations + local work, overlapped issue",
        "ainvoke", 8, async_total
    );
    rows.push(Row {
        mode: "sinvoke-seq".into(),
        payload_bytes: 8,
        virt_seconds: sync_total,
        note: format!("{K} computations serialized"),
    });
    rows.push(Row {
        mode: "ainvoke-overlap".into(),
        payload_bytes: 8,
        virt_seconds: async_total,
        note: format!("{K} computations overlapped with local work"),
    });

    // (c) One-sided stream: N updates, then one synchronous read to flush.
    const STREAM: usize = 50;
    let t0 = clock.now();
    for _ in 0..STREAM {
        obj.oinvoke("add", &[Value::I64(1)]).unwrap();
    }
    let issue_time = clock.now() - t0;
    let v = obj.sinvoke("get", &[]).unwrap();
    let flush_time = clock.now() - t0;
    println!(
        "{:>8} {:>12} {:>12.4}  issuing {STREAM} one-sided updates",
        "oinvoke", 8, issue_time
    );
    println!(
        "{:>8} {:>12} {:>12.4}  until all applied (final value {v:?})",
        "oinvoke", 8, flush_time
    );
    rows.push(Row {
        mode: "oinvoke-issue".into(),
        payload_bytes: 8,
        virt_seconds: issue_time,
        note: format!("{STREAM} one-sided updates issued"),
    });
    rows.push(Row {
        mode: "oinvoke-flush".into(),
        payload_bytes: 8,
        virt_seconds: flush_time,
        note: "until all applied".into(),
    });

    if let Ok(path) = write_json("ablate_invoke", &rows) {
        eprintln!("wrote {}", path.display());
    }
    reg.unregister().unwrap();
    d.shutdown();
}
