//! E12 — the `swarm` macro-benchmark: sustained mixed traffic at scale.
//!
//! No node owns a thread: every node runs on the deployment's `n` executor
//! workers (`JsShell::executor(n)`), so one process can host 10 000 nodes
//! and 1 000 000 objects. This benchmark boots exactly that, then drives a
//! sustained mix of the paper's three invocation modes plus object churn,
//! migration and injected network partitions, and reports throughput and
//! modeled RMI latency percentiles from the observability registry.
//!
//! Phases:
//!   1. boot `--nodes` machines;
//!   2. create `--objects` Counters round-robin over all nodes (parallel
//!      driver threads, one slice each);
//!   3. `--ops` mixed operations per driver (one-sided / sync / async
//!      invocations, reads, migrations, free+create churn) while a fault
//!      injector partitions the app's home node away from victim nodes and
//!      heals it again — calls into the partitioned span fail fast and are
//!      counted, not retried;
//!   4. quiesce, then export counters, executor stats and interpolated
//!      p50/p90/p99 of the virtual `rmi.caller_seconds` histograms.
//!
//! Usage:
//!   cargo run --release -p jsym-bench --bin swarm             # 10k nodes / 1M objects
//!   cargo run --release -p jsym-bench --bin swarm -- --quick  # 64 nodes / 2k objects
//!   (knobs: --nodes N --objects N --ops N --drivers N --executor N
//!           --scale S --seed N)

use jsym_bench::{percentile, write_json};
use jsym_core::obs::HistogramSnapshot;
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    CostModel, Deployment, JsObj, JsRegistration, JsShell, MachineConfig, MigrateTarget, Placement,
    Value,
};
use jsym_net::NodeId;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// xorshift64* — deterministic per-driver op stream without external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    nodes: usize,
    objects: usize,
    /// Mixed operations per driver thread.
    ops: usize,
    drivers: usize,
    executor: usize,
    time_scale: f64,
    seed: u64,
    quick: bool,
}

impl Config {
    fn full() -> Config {
        Config {
            nodes: 10_000,
            objects: 1_000_000,
            ops: 50_000,
            drivers: 8,
            executor: 4,
            time_scale: 1e-6,
            seed: 2000,
            quick: false,
        }
    }

    fn quick() -> Config {
        Config {
            nodes: 64,
            objects: 2_000,
            ops: 2_000,
            drivers: 2,
            executor: 2,
            time_scale: 1e-5,
            seed: 2000,
            quick: true,
        }
    }
}

/// Per-driver tallies, summed into the report.
#[derive(Default)]
struct Tally {
    ok: u64,
    failed: u64,
    migrations: u64,
    churn_creates: u64,
    churn_frees: u64,
}

#[derive(Serialize)]
struct LatencyReport {
    count: u64,
    mean_s: f64,
    p50_s: f64,
    p90_s: f64,
    p99_s: f64,
    max_s: f64,
}

#[derive(Serialize)]
struct Report {
    /// OS / arch / CPU count the row was measured on — rows are only
    /// comparable within one machine string.
    machine: String,
    nodes: usize,
    objects: usize,
    drivers: usize,
    ops_per_driver: usize,
    executor_threads: usize,
    time_scale: f64,
    seed: u64,
    quick: bool,
    boot_wall_s: f64,
    create_wall_s: f64,
    mix_wall_s: f64,
    total_wall_s: f64,
    virt_seconds: f64,
    creates_per_s: f64,
    /// Mixed-phase operations per real second (all drivers combined).
    ops_per_s: f64,
    ops_ok: u64,
    ops_failed: u64,
    migrations: u64,
    churn_creates: u64,
    churn_frees: u64,
    partitions_injected: u64,
    /// Virtual caller-observed RMI latency (merged over nodes and modes).
    rmi_latency: LatencyReport,
    /// Per-RMI-mode call counts from the same histograms.
    rmi_calls_by_mode: Vec<(String, u64)>,
    msgs_sent: u64,
    msgs_delivered: u64,
    msgs_dropped: u64,
    msgs_rejected: u64,
    bytes_sent: u64,
    exec_steals: u64,
    exec_parks: u64,
    exec_spare_spawns: u64,
    exec_blocked_at_end: usize,
    /// Spawns that woke the parked owner of the stripe they pushed to.
    exec_wakes_targeted: u64,
    /// Wakes escalated past the stripe owner (owner busy, or backlog).
    exec_wakes_escalated: u64,
    /// Contended stripe acquisitions: pair state / batching / gap windows.
    net_pair_contended: u64,
    net_pending_contended: u64,
    net_gaps_contended: u64,
    /// Per-thread endpoint-cache hits (sends with zero directory reads).
    net_ep_cache_hits: u64,
    net_ep_cache_misses: u64,
}

fn machine_note() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{}-{} {cpus} cpus",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// One driver's slice of the mixed-op phase.
fn drive(
    cfg: &Config,
    reg: &JsRegistration,
    objs: &mut [JsObj],
    driver: usize,
    finished: &AtomicUsize,
) -> Tally {
    let mut rng = Rng::new(cfg.seed ^ ((driver as u64 + 1) << 32));
    let mut t = Tally::default();
    let mut inflight: Vec<jsym_core::ResultHandle> = Vec::new();
    let record = |r: Result<(), jsym_core::JsError>, t: &mut Tally| match r {
        Ok(()) => t.ok += 1,
        Err(_) => t.failed += 1,
    };
    for _ in 0..cfg.ops {
        let idx = (rng.next() as usize) % objs.len();
        let obj = &objs[idx];
        match rng.next() % 100 {
            0..=54 => record(obj.oinvoke("add", &[Value::I64(1)]).map(|_| ()), &mut t),
            55..=69 => record(obj.sinvoke("add", &[Value::I64(1)]).map(|_| ()), &mut t),
            70..=79 => {
                match obj.ainvoke("add", &[Value::I64(1)]) {
                    Ok(h) => inflight.push(h),
                    Err(_) => t.failed += 1,
                }
                if inflight.len() >= 32 {
                    for h in inflight.drain(..) {
                        record(h.get_result().map(|_| ()), &mut t);
                    }
                }
            }
            80..=89 => record(obj.sinvoke("get", &[]).map(|_| ()), &mut t),
            90..=94 => {
                let dst = NodeId((rng.next() as usize % cfg.nodes) as u32);
                let r = obj.migrate(MigrateTarget::ToPhys(dst), None);
                if r.is_ok() {
                    t.migrations += 1;
                }
                record(r.map(|_| ()), &mut t);
            }
            _ => {
                // Churn: retire this object, create a replacement elsewhere.
                // Async results against the retiring object must land first.
                for h in inflight.drain(..) {
                    record(h.get_result().map(|_| ()), &mut t);
                }
                if objs[idx].free().is_ok() {
                    t.churn_frees += 1;
                }
                let dst = NodeId((rng.next() as usize % cfg.nodes) as u32);
                match JsObj::create(reg, "Counter", &[], Placement::OnPhys(dst), None) {
                    Ok(o) => {
                        objs[idx] = o;
                        t.churn_creates += 1;
                        t.ok += 1;
                    }
                    Err(_) => t.failed += 1,
                }
            }
        }
    }
    for h in inflight.drain(..) {
        record(h.get_result().map(|_| ()), &mut t);
    }
    finished.fetch_add(1, Ordering::Relaxed);
    t
}

/// Partitions the app's home node away from a rotating victim while drivers
/// run, healing each cut after a short window. Returns injections done.
fn inject_partitions(d: &Deployment, cfg: &Config, home: NodeId, finished: &AtomicUsize) -> u64 {
    let net = d.network();
    let mut rng = Rng::new(cfg.seed ^ 0xFA17);
    let window = std::time::Duration::from_millis(if cfg.quick { 20 } else { 100 });
    let mut injected = 0u64;
    while finished.load(Ordering::Relaxed) < cfg.drivers {
        // Never cut home from itself; any other node hosts driver objects.
        let victim = NodeId((1 + rng.next() as usize % (cfg.nodes - 1)) as u32);
        net.partition(home, victim);
        injected += 1;
        std::thread::sleep(window);
        net.heal(home, victim);
        std::thread::sleep(window);
    }
    injected
}

/// Boots, runs the three phases under `cfg` and returns the report row.
fn run_once(cfg: &Config) -> Report {
    eprintln!(
        "swarm: {} nodes / {} objects on a {}-worker executor, {} drivers x {} ops",
        cfg.nodes, cfg.objects, cfg.executor, cfg.drivers, cfg.ops
    );

    let t0 = Instant::now();
    // NA monitoring and failure detection are quiesced (far-future periods):
    // at this scale the counters should reflect application traffic, and the
    // partitions injected below must not trigger failure handling.
    let d = JsShell::new()
        .add_machines((0..cfg.nodes).map(|i| MachineConfig::idle(&format!("sw{i}"), 50.0)))
        .time_scale(cfg.time_scale)
        .monitor_period(1e9)
        .failure_timeout(1e9)
        .cost_model(CostModel::free())
        .executor(cfg.executor)
        .boot();
    register_test_classes(&d);
    let reg = d.register_app().expect("register app");
    let home = d.machines()[0];
    let boot_wall_s = t0.elapsed().as_secs_f64();
    eprintln!("booted {} nodes in {boot_wall_s:.2}s", cfg.nodes);

    // Phase 2: parallel creation, one contiguous object slice per driver,
    // placement round-robin over every node.
    let t1 = Instant::now();
    let per = cfg.objects / cfg.drivers;
    let mut slices: Vec<Vec<JsObj>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.drivers)
            .map(|t| {
                let reg = &reg;
                let nodes = cfg.nodes;
                let count = if t == cfg.drivers - 1 {
                    cfg.objects - per * (cfg.drivers - 1)
                } else {
                    per
                };
                s.spawn(move || {
                    (0..count)
                        .map(|i| {
                            let dst = NodeId(((t * per + i) % nodes) as u32);
                            JsObj::create(reg, "Counter", &[], Placement::OnPhys(dst), None)
                                .expect("create object")
                        })
                        .collect::<Vec<JsObj>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let create_wall_s = t1.elapsed().as_secs_f64();
    eprintln!(
        "created {} objects in {create_wall_s:.2}s ({:.0} creates/s)",
        cfg.objects,
        cfg.objects as f64 / create_wall_s.max(1e-9)
    );

    // Phase 3: the mixed-op storm with partition injection on the side.
    let t2 = Instant::now();
    let finished = AtomicUsize::new(0);
    let (tallies, partitions_injected): (Vec<Tally>, u64) = std::thread::scope(|s| {
        let handles: Vec<_> = slices
            .iter_mut()
            .enumerate()
            .map(|(t, objs)| {
                let reg = &reg;
                let finished = &finished;
                let cfg = &cfg;
                s.spawn(move || drive(cfg, reg, objs, t, finished))
            })
            .collect();
        let injected = inject_partitions(&d, cfg, home, &finished);
        (
            handles.into_iter().map(|h| h.join().unwrap()).collect(),
            injected,
        )
    });
    let mix_wall_s = t2.elapsed().as_secs_f64();
    let ops_total = (cfg.ops * cfg.drivers) as f64;
    eprintln!(
        "mixed phase: {ops_total} ops in {mix_wall_s:.2}s ({:.0} ops/s)",
        ops_total / mix_wall_s.max(1e-9)
    );

    // Phase 4: let trailing one-sided traffic drain, then read everything.
    d.clock().sleep(1.0);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let snap = d.obs().snapshot();
    let mut merged = HistogramSnapshot::empty();
    let mut by_mode: std::collections::BTreeMap<String, u64> = Default::default();
    for (k, h) in &snap.metrics.histograms {
        if k.name == "rmi.caller_seconds" {
            let _ = merged.merge(h);
            *by_mode.entry(k.component.to_string()).or_insert(0) += h.count;
        }
    }
    let net = d.net_stats();
    let hot = d.net_hot_stats();
    let exec = d
        .exec_stats()
        .expect("every deployment runs on the executor");
    let virt_seconds = d.clock().now();

    let mut t = Tally::default();
    for x in &tallies {
        t.ok += x.ok;
        t.failed += x.failed;
        t.migrations += x.migrations;
        t.churn_creates += x.churn_creates;
        t.churn_frees += x.churn_frees;
    }
    let report = Report {
        machine: machine_note(),
        nodes: cfg.nodes,
        objects: cfg.objects,
        drivers: cfg.drivers,
        ops_per_driver: cfg.ops,
        executor_threads: cfg.executor,
        time_scale: cfg.time_scale,
        seed: cfg.seed,
        quick: cfg.quick,
        boot_wall_s,
        create_wall_s,
        mix_wall_s,
        total_wall_s: t0.elapsed().as_secs_f64(),
        virt_seconds,
        creates_per_s: cfg.objects as f64 / create_wall_s.max(1e-9),
        ops_per_s: ops_total / mix_wall_s.max(1e-9),
        ops_ok: t.ok,
        ops_failed: t.failed,
        migrations: t.migrations,
        churn_creates: t.churn_creates,
        churn_frees: t.churn_frees,
        partitions_injected,
        rmi_latency: LatencyReport {
            count: merged.count,
            mean_s: merged.mean().unwrap_or(0.0),
            p50_s: percentile(&merged, 0.50),
            p90_s: percentile(&merged, 0.90),
            p99_s: percentile(&merged, 0.99),
            max_s: if merged.count > 0 { merged.max } else { 0.0 },
        },
        rmi_calls_by_mode: by_mode.into_iter().collect(),
        msgs_sent: net.msgs_sent,
        msgs_delivered: net.msgs_delivered,
        msgs_dropped: net.msgs_dropped,
        msgs_rejected: net.msgs_rejected,
        bytes_sent: net.bytes_sent,
        exec_steals: exec.steals,
        exec_parks: exec.parks,
        exec_spare_spawns: exec.spare_spawns,
        exec_blocked_at_end: exec.blocked,
        exec_wakes_targeted: exec.wakes_targeted,
        exec_wakes_escalated: exec.wakes_escalated,
        net_pair_contended: hot.pair_contended,
        net_pending_contended: hot.pending_contended,
        net_gaps_contended: hot.gaps_contended,
        net_ep_cache_hits: hot.ep_cache_hits,
        net_ep_cache_misses: hot.ep_cache_misses,
    };
    println!(
        "ops ok {} / failed {} (partitions {}), migrations {}, churn +{}/-{}",
        report.ops_ok,
        report.ops_failed,
        report.partitions_injected,
        report.migrations,
        report.churn_creates,
        report.churn_frees
    );
    println!(
        "rmi latency (virtual s): n={} mean={:.2e} p50={:.2e} p90={:.2e} p99={:.2e} max={:.2e}",
        report.rmi_latency.count,
        report.rmi_latency.mean_s,
        report.rmi_latency.p50_s,
        report.rmi_latency.p90_s,
        report.rmi_latency.p99_s,
        report.rmi_latency.max_s
    );
    println!(
        "net: {} sent / {} delivered / {} rejected; exec: {} steals, {} parks, {} spare spawns",
        report.msgs_sent,
        report.msgs_delivered,
        report.msgs_rejected,
        report.exec_steals,
        report.exec_parks,
        report.exec_spare_spawns
    );

    // Sanity: traffic flowed, the op mix mostly succeeded (partition-window
    // failures are expected, wholesale failure is not), nothing leaked a
    // permanently blocked worker and nothing is still in flight after the
    // quiesce. These hold in `--quick` CI runs too.
    assert!(report.ops_ok > 0, "no operation succeeded");
    assert!(
        report.ops_ok as f64 / (report.ops_ok + report.ops_failed) as f64 > 0.5,
        "most ops failed: {} ok vs {} failed",
        report.ops_ok,
        report.ops_failed
    );
    assert!(report.rmi_latency.count > 0, "no RMI latencies recorded");
    // Every sent message is accounted for: delivered, or dropped because a
    // partition cut it mid-flight. Anything else is still in flight.
    assert_eq!(
        report.msgs_sent,
        report.msgs_delivered + report.msgs_dropped,
        "messages still in flight after quiesce"
    );

    reg.unregister().ok();
    d.shutdown();
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        Config::quick()
    } else {
        Config::full()
    };
    if let Some(v) = parse_flag::<usize>(&args, "--nodes") {
        cfg.nodes = v.max(2);
    }
    if let Some(v) = parse_flag::<usize>(&args, "--objects") {
        cfg.objects = v.max(cfg.drivers);
    }
    if let Some(v) = parse_flag::<usize>(&args, "--ops") {
        cfg.ops = v;
    }
    if let Some(v) = parse_flag::<usize>(&args, "--drivers") {
        cfg.drivers = v.clamp(1, 64);
    }
    if let Some(v) = parse_flag::<usize>(&args, "--executor") {
        cfg.executor = v.max(1);
    }
    if let Some(v) = parse_flag::<f64>(&args, "--scale") {
        cfg.time_scale = v;
    }
    if let Some(v) = parse_flag::<u64>(&args, "--seed") {
        cfg.seed = v;
    }
    let rows = vec![run_once(&cfg)];
    match write_json("swarm", &rows) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
