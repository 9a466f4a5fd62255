//! Per-layer metrics of a traced run (layers = crates). Two sources: the
//! program's public counters over the traced workload's window, and isolated
//! probes against each layer's own public API, which are the same whatever the
//! workload. Counts are compiled in, like the warm-ups. `README.md` has the
//! table of which end-to-end pair each metric should move.

use crate::instruments::{median, Histogram};
use crate::sut::{
    self, BareCol, BareDir, BareExec, BareNet, BareObs, Fig5Cell, Opts, Place, Sut, Value,
};
use crate::trace::Tracer;
use crate::workloads::{lifecycle_probe, Outcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// `(name, unit, value)` in the order of `BENCHMARK.json`'s `per_layer`.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

const CALLS: usize = 2_000;

fn tracer() -> Tracer {
    Tracer::new(true, Instant::now())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean nanoseconds of one `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Metrics from the program's counters over the traced workload's window.
/// A workload that does not run a layer reports that layer's ratios as 0
/// (`fig5_cells` boots its deployments inside the program, out of reach).
fn window_metrics(out: &Outcome, m: &mut Metrics) {
    let ops = out.ops() as f64;
    let kops = ops / 1e3;
    let w = out.window.unwrap_or_default();
    m.push((
        "core.transient_workers_per_kop",
        "1/kop",
        ratio(w.transient_workers as f64, kops),
    ));
    m.push(("net.msgs_per_op", "count", ratio(w.msgs_sent as f64, ops)));
    m.push(("net.bytes_per_op", "B", ratio(w.bytes_sent as f64, ops)));
    m.push((
        "net.loopback_share",
        "ratio",
        ratio(w.loopback as f64, w.msgs_sent as f64),
    ));
    m.push((
        "net.ep_cache_miss_ratio",
        "ratio",
        ratio(
            w.ep_cache_misses as f64,
            (w.ep_cache_hits + w.ep_cache_misses) as f64,
        ),
    ));
    m.push((
        "net.contended_per_kop",
        "1/kop",
        ratio(w.contended as f64, kops),
    ));
    m.push(("net.in_flight_end", "count", out.in_flight_end as f64));
    m.push((
        "net.dropped_per_kop",
        "1/kop",
        ratio(w.msgs_dropped as f64, kops),
    ));
    m.push((
        "exec.steals_per_kop",
        "1/kop",
        ratio(w.exec_steals as f64, kops),
    ));
    m.push((
        "exec.parks_per_kop",
        "1/kop",
        ratio(w.exec_parks as f64, kops),
    ));
    m.push((
        "exec.spare_spawns_per_kop",
        "1/kop",
        ratio(w.exec_spare_spawns as f64, kops),
    ));
    m.push((
        "exec.wake_escalated_ratio",
        "ratio",
        ratio(
            w.exec_wakes_escalated as f64,
            (w.exec_wakes_targeted + w.exec_wakes_escalated) as f64,
        ),
    ));
    m.push(("exec.blocked_end", "count", out.exec_blocked_end as f64));
    m.push((
        "vda.sample_hit_ratio",
        "ratio",
        ratio(w.plane_hits as f64, (w.plane_hits + w.plane_misses) as f64),
    ));
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (mx, my) = (sx / n, sy / n);
    let num: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    num / den
}

/// The three invocation modes, persistence, migration cost per KiB, placement
/// requests and snapshots, on one 4-machine deployment.
fn core_probe(m: &mut Metrics) {
    let quiet = &mut Tracer::disabled();
    let sut = Sut::boot(Opts::machines(4, true), quiet);
    let remote_at = sut.machines()[1];
    let local = sut
        .create(quiet, "Counter", &[], Place::Local)
        .expect("create");
    let remote = sut
        .create(quiet, "Counter", &[], Place::On(remote_at))
        .expect("create");
    let one = [Value::I64(1)];

    let sync_p50 = |obj| {
        let mut tr = tracer();
        for _ in 0..CALLS {
            sut::sinvoke(&mut tr, obj, "add", &one).expect("sinvoke");
        }
        tr.p50_us("core.sinvoke")
    };
    let (local_us, remote_us) = (sync_p50(&local), sync_p50(&remote));
    m.push(("core.sinvoke_local_us", "us", local_us));
    m.push(("core.sinvoke_remote_us", "us", remote_us));
    m.push(("core.remote_minus_local_us", "us", remote_us - local_us));

    let mut tr = tracer();
    for _ in 0..CALLS {
        let h = sut::ainvoke(&mut tr, &remote, "add", &one).expect("ainvoke");
        sut::get_result(&mut tr, &h).expect("get_result");
    }
    let executed = sut.invocations_executed();
    for _ in 0..CALLS {
        sut::oinvoke(&mut tr, &remote, "add", &one).expect("oinvoke");
    }
    while sut.invocations_executed() < executed + CALLS as u64 {
        std::thread::sleep(Duration::from_micros(200));
    }
    m.push((
        "core.ainvoke_issue_us",
        "us",
        tr.p50_us("core.ainvoke_issue"),
    ));
    m.push((
        "core.get_result_wait_us",
        "us",
        tr.p50_us("core.get_result_wait"),
    ));
    m.push((
        "core.oinvoke_issue_us",
        "us",
        tr.p50_us("core.oinvoke_issue"),
    ));

    // Migration cost against state size: Blobs of 0, 16 and 256 KiB moved
    // around the ring; the slope prices the state snapshot codec.
    let cluster = sut.blob_cluster(quiet, 4).expect("blob cluster");
    let ring = sut::cluster_machines(&cluster);
    let mut points = Vec::new();
    for kib in [0usize, 16, 256] {
        let mut tr = tracer();
        let blob = sut
            .create(
                quiet,
                "Blob",
                &[Value::I64(kib as i64 * 1024)],
                Place::On(ring[0]),
            )
            .expect("create a blob");
        for hop in 1..=12 {
            sut::migrate(&mut tr, &blob, ring[hop % ring.len()]).expect("migrate");
        }
        if kib == 16 {
            for _ in 0..30 {
                let key = sut::store(&mut tr, &blob).expect("store");
                let copy = sut.load_stored(&mut tr, &key, ring[1]).expect("load");
                sut::free(quiet, &copy).expect("free");
            }
            m.push(("core.store_us", "us", tr.p50_us("core.store")));
            m.push(("core.load_us", "us", tr.p50_us("core.load")));
        }
        sut::free(quiet, &blob).expect("free");
        points.push((kib as f64, tr.p50_us("core.migrate")));
    }
    m.push(("core.migrate_us_per_kib", "us/KiB", slope(&points)));
    sut::free_cluster(cluster).expect("free the blob cluster");

    let mut tr = tracer();
    for i in 0..200 {
        sut.request_and_free_cluster(&mut tr, 2)
            .expect("request and free a cluster");
        sut.request_node_constrained(&mut tr)
            .expect("constrained node");
        sut.machine_snapshot(&mut tr, i % 4);
    }
    m.push((
        "vda.request_cluster_us",
        "us",
        tr.p50_us("vda.request_cluster"),
    ));
    m.push((
        "vda.request_node_constrained_us",
        "us",
        tr.p50_us("vda.request_node_constrained"),
    ));
    m.push(("sysmon.snapshot_us", "us", tr.p50_us("sysmon.snapshot")));
    sut.shutdown(quiet);
}

/// The steps of a lifecycle cycle, boot and shutdown, and what the replicated
/// directory adds to a cycle. Returns the trace lines naming the cycle's
/// slowest step.
fn lifecycle_probes(m: &mut Metrics) -> String {
    let mut plain = tracer();
    lifecycle_probe(&mut plain, 0, 150);
    for (name, span) in [
        ("core.create_us", "core.create"),
        ("core.migrate_us", "core.migrate"),
        (
            "core.first_call_after_migrate_us",
            "core.first_call_after_migrate",
        ),
        ("core.free_us", "core.free"),
    ] {
        m.push((name, "us", plain.p50_us(span)));
    }
    m.push((
        "core.boot_us_per_node",
        "us",
        plain.p50_us("core.boot") / 8.0,
    ));
    m.push((
        "core.shutdown_ms",
        "ms",
        plain.p50_us("core.shutdown") / 1e3,
    ));
    let mut replicated = tracer();
    lifecycle_probe(&mut replicated, 3, 150);
    m.push((
        "dir.lifecycle_cycle_ratio",
        "ratio",
        ratio(
            replicated.p50_us("lifecycle.cycle"),
            plain.p50_us("lifecycle.cycle"),
        ),
    ));

    // Which step carries a second latency mode, if the cycle has one.
    let mut report = String::new();
    let cycle = plain.histogram("lifecycle.cycle").expect("cycles ran");
    let (p50, p99) = (cycle.quantile_us(0.5), cycle.quantile_us(0.99));
    let steps = [
        "core.create",
        "core.sinvoke",
        "core.migrate",
        "core.first_call_after_migrate",
        "core.free",
    ];
    let widest = steps
        .iter()
        .filter_map(|s| {
            plain
                .histogram(s)
                .map(|h| (*s, h.quantile_us(0.99) - h.quantile_us(0.5)))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("steps ran");
    report += &format!(
        "lifecycle cycle p50_us {p50:.1} p99_us {p99:.1} ({}); widest step {} (p99 - p50 = {:.1} us)\n",
        if p99 <= 5.0 * p50 { "one mode: p99 <= 5 x p50" } else { "SECOND MODE: p99 > 5 x p50" },
        widest.0,
        widest.1
    );
    report
}

/// `1 − traced ÷ untraced` remote sync call rate, in interleaved blocks.
fn trace_overhead_probe(m: &mut Metrics) {
    let quiet = &mut Tracer::disabled();
    let one = [Value::I64(1)];
    let deployments: Vec<(Sut, sut::JsObj)> = [false, true]
        .iter()
        .map(|&observability| {
            let sut = Sut::boot(Opts::machines(4, observability), quiet);
            let obj = sut
                .create(quiet, "Counter", &[], Place::On(sut.machines()[1]))
                .expect("create");
            (sut, obj)
        })
        .collect();
    let mut seconds = [0.0f64; 2];
    for _block in 0..4 {
        for (which, (_, obj)) in deployments.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..CALLS / 4 {
                sut::sinvoke(quiet, obj, "add", &one).expect("sinvoke");
            }
            seconds[which] += t.elapsed().as_secs_f64();
        }
    }
    // Rates are calls ÷ seconds with equal calls, so the ratio is of times.
    m.push((
        "obs.trace_overhead_pct",
        "%",
        (1.0 - seconds[0] / seconds[1]) * 100.0,
    ));
    for (sut, _) in deployments {
        sut.shutdown(quiet);
    }
}

/// A bare `Network` with two endpoints.
fn net_probe(m: &mut Metrics) {
    const SENDS: usize = 20_000;
    const FLOOD: usize = 100_000;
    const STOP: u64 = u64::MAX;
    let net = Arc::new(BareNet::new());
    // Endpoint 1's reader: reports when each message arrived.
    let (arrived_tx, arrived) = mpsc::channel::<(u64, Instant)>();
    let reader = {
        let net = net.clone();
        std::thread::spawn(move || loop {
            let w = net.recv(1);
            let _ = arrived_tx.send((w, Instant::now()));
            if w == STOP {
                return;
            }
        })
    };
    let wait_for = |w: u64| loop {
        let (got, at) = arrived.recv().expect("reader is up");
        if got == w {
            return at;
        }
    };

    let send_ns = mean_ns(SENDS, |i| assert!(net.send(0, 1, i as u64)));
    wait_for(SENDS as u64 - 1);
    m.push(("net.send_ns", "ns", send_ns));

    let mut oneway = Histogram::new();
    for i in 0..CALLS as u64 {
        let t = Instant::now();
        assert!(net.send(0, 1, i));
        oneway.record((wait_for(i) - t).as_nanos() as u64);
    }
    m.push(("net.oneway_us", "us", oneway.quantile_us(0.5)));

    let hooked = Arc::new(AtomicU64::new(0));
    let seen = hooked.clone();
    net.set_local_hook(move || {
        seen.fetch_add(1, Ordering::Relaxed);
    });
    let hook_ns = mean_ns(SENDS, |i| assert!(net.send(0, 0, i as u64)));
    while hooked.load(Ordering::Relaxed) < SENDS as u64 {
        std::thread::yield_now();
    }
    m.push(("net.hook_inline_ns", "ns", hook_ns));

    let t = Instant::now();
    for i in 0..FLOOD as u64 {
        assert!(net.send(0, 1, i));
    }
    let last = wait_for(FLOOD as u64 - 1);
    m.push((
        "net.msgs_per_s",
        "1/s",
        FLOOD as f64 / (last - t).as_secs_f64(),
    ));

    // Fault path: one sender streams while the pair is cut and healed.
    let rejected_before = net.rejected();
    let sender = {
        let net = net.clone();
        std::thread::spawn(move || {
            (0..SENDS as u64).for_each(|i| {
                net.send(0, 1, i);
            })
        })
    };
    while !sender.is_finished() {
        net.partition();
        std::thread::sleep(Duration::from_micros(500));
        net.heal();
        std::thread::sleep(Duration::from_micros(500));
    }
    sender.join().expect("sender thread");
    m.push((
        "net.rejected_per_kop",
        "1/kop",
        (net.rejected() - rejected_before) as f64 / (SENDS as f64 / 1e3),
    ));
    assert!(net.send(0, 1, STOP));
    reader.join().expect("reader thread");
    Arc::try_unwrap(net)
        .ok()
        .expect("reader released the network")
        .shutdown();
}

/// A bare 2-worker executor.
fn exec_probe(m: &mut Metrics) {
    const SPAWNS: usize = 50_000;
    const JOBS: usize = 300_000;
    let exec = Arc::new(BareExec::new(2));
    let ran = Arc::new(AtomicU64::new(0));
    let wait_ran = |n: u64| {
        while ran.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
    };
    let count = |ran: &Arc<AtomicU64>| {
        let ran = ran.clone();
        move || {
            ran.fetch_add(1, Ordering::Release);
        }
    };

    let spawn_ns = mean_ns(SPAWNS, |_| exec.spawn(count(&ran)));
    wait_ran(SPAWNS as u64);
    m.push(("exec.spawn_ns", "ns", spawn_ns));

    let (started_tx, started) = mpsc::channel::<Instant>();
    let mut to_run = Histogram::new();
    for _ in 0..CALLS {
        let tx = started_tx.clone();
        let t = Instant::now();
        exec.spawn(move || {
            let _ = tx.send(Instant::now());
        });
        to_run.record((started.recv().expect("job ran") - t).as_nanos() as u64);
    }
    m.push(("exec.spawn_to_run_us", "us", to_run.quantile_us(0.5)));

    let t = Instant::now();
    for _ in 0..JOBS {
        exec.spawn(count(&ran));
    }
    wait_ran((SPAWNS + JOBS) as u64);
    m.push((
        "exec.jobs_per_s",
        "1/s",
        JOBS as f64 / t.elapsed().as_secs_f64(),
    ));

    let mut late = Histogram::new();
    for _ in 0..30 {
        let tx = started_tx.clone();
        let at = Instant::now() + Duration::from_millis(1);
        exec.spawn_at(at, move || {
            let _ = tx.send(Instant::now());
        });
        let ran_at = started.recv().expect("timer job ran");
        late.record(ran_at.saturating_duration_since(at).as_nanos() as u64);
    }
    m.push(("exec.timer_late_us", "us", late.quantile_us(0.5)));

    // A job that waits, with compensation, for a job it spawned.
    let (done_tx, done) = mpsc::channel::<Histogram>();
    let inner = exec.clone();
    exec.spawn(move || {
        let mut h = Histogram::new();
        for _ in 0..CALLS {
            let (tx, rx) = mpsc::channel::<()>();
            let t = Instant::now();
            inner.spawn(move || {
                let _ = tx.send(());
            });
            sut::exec_blocking(|| rx.recv().expect("spawned job ran"));
            h.record_since(t);
        }
        // Release the executor before reporting, so the probe's thread holds
        // the last reference when it shuts the executor down.
        drop(inner);
        let _ = done_tx.send(h);
    });
    let h = done.recv().expect("blocking probe finished");
    m.push(("exec.blocking_roundtrip_us", "us", h.quantile_us(0.5)));
    Arc::try_unwrap(exec)
        .ok()
        .expect("jobs released the executor")
        .shutdown();
}

/// Three replicas stepped by hand on a manual clock.
fn dir_probe(m: &mut Metrics) {
    const COMMITS: u64 = 300;
    const READS: usize = 20_000;
    let mut dir = BareDir::new();
    let mut commit = Histogram::new();
    let messages_before = dir.messages;
    for object in 1..=COMMITS {
        let t = Instant::now();
        dir.propose_and_commit(object, (object % 3) as u32);
        commit.record_since(t);
    }
    m.push(("dir.propose_commit_us", "us", commit.quantile_us(0.5)));
    m.push((
        "dir.msgs_per_commit",
        "count",
        (dir.messages - messages_before) as f64 / COMMITS as f64,
    ));
    let mut leased = 0;
    let read_ns = mean_ns(READS, |_| leased += dir.read() as usize);
    assert_eq!(leased, READS, "steady-state reads are lease-served");
    m.push(("dir.read_lease_ns", "ns", read_ns));
    let codec_ns = mean_ns(READS, |i| assert!(sut::dir_codec_roundtrip(i as u64)));
    m.push(("dir.codec_roundtrip_ns", "ns", codec_ns));
}

/// A 1 M-element `DistCol<f32>` over 13 machines, zero-cost model.
fn col_probe(m: &mut Metrics) {
    let mut col = BareCol::new(13, 1_000_000);
    let ms = |f: &mut dyn FnMut()| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&runs)
    };
    m.push(("col.scatter_ms", "ms", ms(&mut || col.scatter())));
    m.push(("col.gather_ms", "ms", ms(&mut || assert!(col.gather()))));
    m.push((
        "col.reduce_ms",
        "ms",
        ms(&mut || assert_eq!(col.reduce(), Some(999.0))),
    ));
    let t = Instant::now();
    assert!(col.relocate() > 0, "a chunk moved");
    m.push(("col.relocate_ms", "ms", t.elapsed().as_secs_f64() * 1e3));
    col.shutdown();
}

/// One N=400 night cell on 13 nodes: how much of a cell is modeled sleeping.
fn cluster_probe(m: &mut Metrics) {
    let t = Instant::now();
    let run = sut::fig5_cell(
        &mut Tracer::disabled(),
        Fig5Cell { n: 400, day: false },
        13,
        false,
    );
    let wall_s = t.elapsed().as_secs_f64();
    m.push(("cluster.sleep_share", "ratio", run.modeled_sleep_s / wall_s));
    m.push((
        "cluster.overhead_ms_per_cell",
        "ms",
        (wall_s - run.modeled_sleep_s) * 1e3,
    ));
    m.push(("cluster.msgs_per_cell", "count", run.messages as f64));
    m.push(("cluster.virt_s_n400_night", "virt_s", run.virt_seconds));
}

/// A bare observability registry.
fn obs_probe(m: &mut Metrics) {
    const N: usize = 1_000_000;
    let obs = BareObs::new();
    m.push((
        "obs.counter_inc_ns",
        "ns",
        mean_ns(N, |_| obs.counter_inc()),
    ));
    m.push((
        "obs.hist_observe_ns",
        "ns",
        mean_ns(N, |i| obs.hist_observe(i as f64 * 1e-6)),
    ));
    m.push(("obs.span_ns", "ns", mean_ns(N / 5, |i| obs.span(i as f64))));
}

/// Every per-layer metric of a traced run, plus the lines of its printed
/// record (reconciliation, second-mode report).
pub fn all(out: &Outcome) -> (Metrics, String) {
    let mut m = Metrics::new();
    window_metrics(out, &mut m);
    core_probe(&mut m);
    let mut report = lifecycle_probes(&mut m);
    trace_overhead_probe(&mut m);
    net_probe(&mut m);
    exec_probe(&mut m);
    dir_probe(&mut m);
    col_probe(&mut m);
    cluster_probe(&mut m);
    obs_probe(&mut m);

    // Where the remote call's extra time should come from: two one-way
    // deliveries. A gap above 25 % is reported, not hidden.
    let get = |name: &str| m.iter().find(|x| x.0 == name).expect("metric was pushed").2;
    let (extra, two_way) = (
        get("core.remote_minus_local_us"),
        2.0 * get("net.oneway_us"),
    );
    let gap = (extra - two_way).abs() / extra.abs().max(1e-9);
    report += &format!(
        "reconcile remote_minus_local_us {extra:.2} vs 2 x net.oneway_us {two_way:.2}: gap {:.0} % ({})\n",
        gap * 100.0,
        if gap > 0.25 { "unexplained" } else { "explained" }
    );
    (m, report)
}
