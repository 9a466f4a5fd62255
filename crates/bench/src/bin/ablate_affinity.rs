//! E13 — affinity co-location + directory lease ablation (DESIGN.md §14).
//!
//! A caller-skewed workload: every target object starts crowded on one
//! landing-zone machine while its callers live elsewhere over a WAN link,
//! and 90% of each target's nested calls come from a single dominant
//! caller node. The grid crosses static placement vs. the affinity plane
//! with directory read leases off vs. on:
//!
//! * static — every call stays remote and pays the WAN round trip;
//! * affinity — the co-location loop migrates each target toward its
//!   dominant caller, after which 9 calls in 10 are loopback-local;
//! * leases — steady-state `resolve_location` reads are served from the
//!   directory leader's lease instead of running a probe round.
//!
//! Calls are issued by per-node `Driver` objects (one batched `drive`
//! request fans out into many nested invokes), so the recorded traffic is
//! dominated by driver→target calls from the driver's machine and the
//! drivers themselves stay below the affinity hotness floor.
//!
//! Usage:
//!   cargo run --release -p jsym-bench --bin ablate_affinity              # full grid
//!   cargo run --release -p jsym-bench --bin ablate_affinity -- --quick   # smoke
//!   (--executor N sizes the executor; default: `JsShell`'s)

use jsym_bench::{json_row, write_json};
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    encode_state, AffinityConfig, Deployment, InvokeCtx, JsClass, JsError, JsObj, JsShell,
    MachineConfig, Placement, Value,
};
use jsym_net::{LinkClass, NodeId};

/// Nested calls per `drive` request to a dominant target (9:1 skew against
/// [`MINORITY_REPS`], scaled up so targets cross the hotness floor while
/// the drivers — touched twice per round — never do).
const DOMINANT_REPS: i64 = 18;
/// Nested calls per `drive` request from a minority caller.
const MINORITY_REPS: i64 = 2;

/// Issues batched nested invokes: `drive(reps, h1, h2, ...)` invokes
/// `add(1)` on every handle `reps` times from this object's node.
#[derive(Debug)]
struct Driver;

jsym_core::impl_state!(Driver {});

impl JsClass for Driver {
    fn class_name(&self) -> &str {
        "Driver"
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        ctx: &mut InvokeCtx<'_>,
    ) -> jsym_core::Result<Value> {
        match method {
            "drive" => {
                let reps = args
                    .first()
                    .and_then(Value::as_i64)
                    .ok_or_else(|| JsError::BadArguments("drive(reps, handle...)".into()))?;
                let mut calls = 0i64;
                for arg in &args[1..] {
                    let Some(h) = arg.as_handle() else { continue };
                    for _ in 0..reps {
                        ctx.invoke(h, "add", &[Value::I64(1)])?;
                        calls += 1;
                    }
                }
                Ok(Value::I64(calls))
            }
            _ => Err(JsError::NoSuchMethod {
                class: "Driver".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        encode_state(self)
    }
}

struct Row {
    /// Affinity-guided re-placement on?
    placement: bool,
    /// Directory read leases on?
    leases: bool,
    /// Virtual seconds spent in the measured call phase.
    virt_seconds: f64,
    /// Nested calls issued in the measured phase.
    calls: i64,
    /// Objects the affinity loop moved toward a dominant caller.
    affinity_migrations: u64,
    /// Directory reads observed after the deployment settled.
    dir_reads: u64,
    /// Of those, reads served locally from the leader's lease.
    lease_local_reads: u64,
    /// `lease_local_reads / dir_reads` (0 when no reads).
    lease_ratio: f64,
}
json_row!(Row {
    placement,
    leases,
    virt_seconds,
    calls,
    affinity_migrations,
    dir_reads,
    lease_local_reads,
    lease_ratio,
});

struct Scenario {
    nodes: usize,
    targets: usize,
    warmup_rounds: usize,
    measure_rounds: usize,
    scale: f64,
    executor: usize,
}

/// Virtual seconds between automigrate supervisor wake-ups; the warmup
/// sleeps below must span several of these so the affinity loop gets to act.
const SUPERVISOR_PERIOD: f64 = 5.0;

fn deployment(s: &Scenario, affinity: AffinityConfig) -> Deployment {
    // Callers reach the landing zone over a WAN so the remote/local gap the
    // plane removes dwarfs the harness's own real-time overhead.
    let machines: Vec<MachineConfig> = (0..s.nodes)
        .map(|i| {
            let mut m = MachineConfig::idle(&format!("m{i}"), 400.0);
            m.link = LinkClass::Wan;
            m
        })
        .collect();
    JsShell::new()
        .time_scale(s.scale)
        .monitor_period(50.0)
        .failure_timeout(1e9)
        .automigration(false, SUPERVISOR_PERIOD)
        .directory_replicas(3)
        .affinity(affinity)
        .add_machines(machines)
        .executor(s.executor)
        .boot()
}

/// The dominant caller node of target `i` (targets land on node 0; callers
/// occupy every other node round-robin).
fn dominant(s: &Scenario, i: usize) -> usize {
    1 + i % (s.nodes - 1)
}

/// A secondary caller distinct from the dominant one, for the minority
/// traffic that the hysteresis must shrug off.
fn minority(s: &Scenario, i: usize) -> usize {
    1 + (i + 1) % (s.nodes - 1)
}

/// One skewed round: every driver fires one dominant batch (18 calls per
/// assigned target) and one minority batch (2 calls per assigned target).
/// Returns the number of nested calls issued.
fn skewed_round(targets: &[JsObj], drivers: &[JsObj], s: &Scenario) -> i64 {
    let mut calls = 0;
    for (node, driver) in drivers.iter().enumerate().skip(1) {
        for (reps, pick) in [
            (DOMINANT_REPS, dominant as fn(&Scenario, usize) -> usize),
            (MINORITY_REPS, minority as fn(&Scenario, usize) -> usize),
        ] {
            let mut args = vec![Value::I64(reps)];
            args.extend(
                targets
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| pick(s, i) == node)
                    .map(|(_, t)| Value::Handle(t.handle())),
            );
            if args.len() == 1 {
                continue;
            }
            match driver.sinvoke("drive", &args).expect("drive batch") {
                Value::I64(n) => calls += n,
                other => panic!("drive returned {other:?}"),
            }
        }
    }
    calls
}

fn run_cell(s: &Scenario, placement: bool, leases: bool) -> Row {
    let affinity = AffinityConfig {
        placement,
        leases,
        half_life: 50.0,
        min_share: 0.6,
        // Between the drivers' 2 batched touches per round and the targets'
        // 18 nested calls per round: targets cross, drivers never do.
        min_calls: 12.0,
        cooldown: 10.0,
    };
    let d = deployment(s, affinity);
    register_test_classes(&d);
    d.classes()
        .register_class::<Driver, _>("Driver", None, |_| Ok(Driver));
    let reg = d.register_app().unwrap();

    // Targets crowd the landing zone; one driver per caller machine.
    let targets: Vec<JsObj> = (0..s.targets)
        .map(|_| JsObj::create(&reg, "Counter", &[], Placement::OnPhys(NodeId(0)), None).unwrap())
        .collect();
    let drivers: Vec<JsObj> = (0..s.nodes)
        .map(|i| {
            JsObj::create(
                &reg,
                "Driver",
                &[],
                Placement::OnPhys(NodeId(i as u32)),
                None,
            )
            .unwrap()
        })
        .collect();

    // Let elections finish and the leader's lease establish, then read all
    // counters as deltas from here so election-era probe reads don't
    // pollute the lease ratio.
    d.clock().sleep(6.0 * SUPERVISOR_PERIOD);
    let snap0 = d.obs().snapshot();

    // Train the affinity counters, giving the supervisor a few rounds to
    // act between bursts.
    for _ in 0..s.warmup_rounds {
        skewed_round(&targets, &drivers, s);
        d.clock().sleep(2.0 * SUPERVISOR_PERIOD);
    }

    let t0 = d.clock().now();
    let mut calls = 0;
    for _ in 0..s.measure_rounds {
        calls += skewed_round(&targets, &drivers, s);
    }
    let virt_seconds = d.clock().now() - t0;
    let snap = d.obs().snapshot();

    let dir_reads =
        snap.metrics.counter_total("dir.reads") - snap0.metrics.counter_total("dir.reads");
    let lease_local = snap.metrics.counter_total("dir.lease.local_reads")
        - snap0.metrics.counter_total("dir.lease.local_reads");
    let migrations = d.affinity_stats().migrations;
    d.shutdown();

    Row {
        placement,
        leases,
        virt_seconds,
        calls,
        affinity_migrations: migrations,
        dir_reads,
        lease_local_reads: lease_local,
        lease_ratio: if dir_reads > 0 {
            lease_local as f64 / dir_reads as f64
        } else {
            0.0
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let executor = args
        .iter()
        .position(|a| a == "--executor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let s = if quick {
        Scenario {
            nodes: 4,
            targets: 6,
            warmup_rounds: 1,
            measure_rounds: 2,
            scale: 5e-3,
            executor,
        }
    } else {
        Scenario {
            nodes: 8,
            targets: 21,
            warmup_rounds: 2,
            measure_rounds: 3,
            scale: 1e-2,
            executor,
        }
    };
    // The quick grid keeps its assertion margin loose: fewer calls mean the
    // harness's real-time overhead weighs more against the modeled WAN gap.
    let min_speedup = if quick { 1.2 } else { 1.5 };

    println!(
        "{:>10} {:>7} {:>10} {:>7} {:>11} {:>10} {:>12} {:>7}",
        "placement",
        "leases",
        "virt[s]",
        "calls",
        "migrations",
        "dir_reads",
        "lease_local",
        "ratio"
    );
    let mut rows = Vec::new();
    for placement in [false, true] {
        for leases in [false, true] {
            let row = run_cell(&s, placement, leases);
            println!(
                "{:>10} {:>7} {:>10.3} {:>7} {:>11} {:>10} {:>12} {:>7.3}",
                row.placement,
                row.leases,
                row.virt_seconds,
                row.calls,
                row.affinity_migrations,
                row.dir_reads,
                row.lease_local_reads,
                row.lease_ratio
            );
            rows.push(row);
        }
    }

    // Shape checks — the grid must actually demonstrate the two effects.
    let cell = |placement: bool, leases: bool| {
        rows.iter()
            .find(|r| r.placement == placement && r.leases == leases)
            .unwrap()
    };
    for r in &rows {
        if r.placement {
            assert!(
                r.affinity_migrations as usize >= s.targets,
                "affinity on but only {} of {} targets migrated",
                r.affinity_migrations,
                s.targets
            );
        } else {
            assert_eq!(r.affinity_migrations, 0, "affinity off must never migrate");
        }
        assert!(r.dir_reads > 0, "no directory reads after settling");
        if r.leases {
            assert!(
                r.lease_local_reads * 10 >= r.dir_reads * 9,
                "steady-state reads should be >=90% lease-served: {}/{}",
                r.lease_local_reads,
                r.dir_reads
            );
        } else {
            assert_eq!(r.lease_local_reads, 0, "leases off must never lease-read");
        }
    }
    for leases in [false, true] {
        let speedup = cell(false, leases).virt_seconds / cell(true, leases).virt_seconds;
        println!(
            "affinity speedup on the caller-skewed workload (leases {}): {speedup:.2}x",
            if leases { "on" } else { "off" }
        );
        assert!(
            speedup >= min_speedup,
            "expected >= {min_speedup}x from co-location, got {speedup:.2}x"
        );
    }

    match write_json("ablate_affinity", &rows) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
