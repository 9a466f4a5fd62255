//! The six workloads. Each is a closed loop (a driver waits for its reply
//! before its next operation), sets up once, measures a fixed wall-clock
//! window, drains, and checks the program's outputs. The why of each workload
//! is in `README.md`.

use crate::instruments::{cpu_seconds, peak_rss_mb, Histogram, Rng, Sliced, StreamHash};
use crate::sut::{self, Counters, Fig5Cell, JsObj, NodeId, Opts, Place, ResultHandle, Sut, Value};
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 6] = [
    "rmi_sync_local",
    "rmi_sync_remote",
    "rmi_pipelined",
    "lifecycle",
    "fig5_cells",
    "swarm",
];

// Warm-up is a count, never a time, sized once so one set-up takes ≥ 0.5 s on
// the calibration machine, then frozen.
const WARMUP_SYNC_LOCAL: usize = 36_000;
const WARMUP_SYNC_REMOTE: usize = 27_000;
const WARMUP_PIPELINED: usize = 96_000;
const WARMUP_LIFECYCLE: usize = 1_200;
const WARMUP_SWARM_PER_DRIVER: usize = 6_000;

const COUNTERS: usize = 64;
const PIPELINE_DEPTH: usize = 64;
const ECHO_BYTES: usize = 4096;
const BLOB_BYTES: i64 = 16_384;
const LIFECYCLE_MACHINES: usize = 8;
const SWARM_MACHINES: usize = 1_000;
const SWARM_OBJECTS: usize = 30_000;
const SWARM_DRIVERS: usize = 2;
const SWARM_ASYNC_WINDOW: usize = 32;
/// Accepted invocations that may be waiting to execute before a driver waits.
const SWARM_MAX_BACKLOG: u64 = 4_096;
const SWARM_FLOW_CHECK_EVERY: u64 = 512;
/// Mixed into the seed of the swarm warm-up streams, so the window's streams
/// start fresh from the run's seed.
const WARMUP_SEED: u64 = 0x5EED_5EED;

/// The part of Figure 5's 13-node column that fits a run: one pass is about
/// 12 s, nearly all of it modeled sleeping.
const FIG5_CELLS: [Fig5Cell; 5] = [
    Fig5Cell { n: 200, day: false },
    Fig5Cell { n: 400, day: false },
    Fig5Cell { n: 600, day: false },
    Fig5Cell { n: 200, day: true },
    Fig5Cell { n: 400, day: true },
];
const FIG5_NODES: usize = 13;
const FIG5_PASS_SECONDS: f64 = 12.0;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started.
    pub started: Instant,
    /// Set up, report how long that took, and end the process there.
    pub setup_only: bool,
}

impl Ctx {
    /// Set-up is complete and the window opens next: seconds since the
    /// process started. A `--setup-only` process prints them and ends here.
    fn setup_done(&self) -> f64 {
        let setup_s = self.started.elapsed().as_secs_f64();
        if self.setup_only {
            println!("setup_s {setup_s}");
            std::process::exit(0);
        }
        setup_s
    }
}

/// Whether a run's window is confined to one CPU. Every end-to-end run is:
/// on these 2-vCPU machines a wake-up that crosses CPUs costs tens of
/// microseconds and comes and goes between runs of one binary (`swarm` on
/// both CPUs does 45,000 operations a second, not 100,000, and spreads 15 to
/// 20 % from run to run), so no end-to-end number here measures parallel
/// speed-up. The traced run of `swarm` keeps both CPUs, because the counters
/// it is there to read (steals, parks, escalated wake-ups, contended locks)
/// register only preemption on one, and per-layer metrics gate nothing.
pub fn pinned(name: &str, trace: bool) -> bool {
    !(name == "swarm" && trace)
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

pub struct Outcome {
    /// Process start → window open, in this process.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds from the window opening to the end of the drain.
    pub window_s: f64,
    pub cpu_s: f64,
    /// Every latency sample of the window.
    pub latency: Histogram,
    /// The same samples by slice of the window; `None` for `fig5_cells`,
    /// whose five cells are reported whole.
    pub sliced: Option<Sliced>,
    /// `VmHWM` when the window has closed; of `swarm`, when it opens.
    pub peak_rss_mb: f64,
    pub checks: Vec<Check>,
    /// One per driver thread.
    pub tracers: Vec<Tracer>,
    /// The program's counters over the window; `None` where the deployment
    /// is out of the benchmark's reach (`fig5_cells`).
    pub window: Option<Counters>,
    pub in_flight_end: i64,
    pub exec_blocked_end: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The timed window: wall clock and process CPU from `open` to `close`.
struct Window {
    start: Instant,
    cpu0: f64,
    deadline: Instant,
}

impl Window {
    fn open(seconds: f64) -> Window {
        let start = Instant::now();
        Window {
            start,
            cpu0: cpu_seconds(),
            deadline: start + Duration::from_secs_f64(seconds),
        }
    }

    /// `(wall seconds, CPU seconds)` since the window opened.
    fn close(&self) -> (f64, f64) {
        (
            self.start.elapsed().as_secs_f64(),
            cpu_seconds() - self.cpu0,
        )
    }

    /// A latency recorder over this window's slices; the one that
    /// `keeps_cpu_clock` stamps the process CPU time at each slice's end.
    fn sliced(&self, ctx: &Ctx, keeps_cpu_clock: bool) -> Sliced {
        Sliced::new(
            self.start,
            ctx.seconds,
            keeps_cpu_clock.then_some(self.cpu0),
        )
    }
}

fn tracer(ctx: &Ctx, epoch: Instant) -> Tracer {
    Tracer::new(ctx.trace, epoch)
}

// ------------------------------------------------------------ rmi_* (1–3)

/// The object stream of the three `rmi_*` workloads: a uniform pick among the
/// counters; in the pipelined mix every 8th call is an `echo`.
struct RmiGen {
    rng: Rng,
    issued: u64,
}

impl RmiGen {
    fn new(seed: u64) -> Self {
        RmiGen {
            rng: Rng::new(seed),
            issued: 0,
        }
    }

    /// `(counter index, is an echo in the pipelined mix)`.
    fn next(&mut self) -> (usize, bool) {
        let echo = self.issued % 8 == 7;
        self.issued += 1;
        (self.rng.below(COUNTERS), echo)
    }
}

struct Rmi {
    sut: Sut,
    objs: Vec<JsObj>,
    /// `add(1)` calls issued so far, warm-up included.
    adds: u64,
}

/// 4 idle LAN machines, the application on `m0`, 64 counters either local or
/// round-robin over `m1..m3`, warmed by `warmup` adds (untraced), issued the
/// way the workload issues them.
fn setup_rmi(tr: &mut Tracer, remote: bool, trace: bool, warmup: usize, pipelined: bool) -> Rmi {
    let sut = Sut::boot(Opts::machines(4, trace), tr);
    let objs: Vec<JsObj> = (0..COUNTERS)
        .map(|i| {
            let at = if remote {
                Place::On(sut.machines()[1 + i % 3])
            } else {
                Place::Local
            };
            sut.create(tr, "Counter", &[], at)
                .expect("create a counter")
        })
        .collect();
    let quiet = &mut Tracer::disabled();
    let one = [Value::I64(1)];
    let mut pending = VecDeque::with_capacity(PIPELINE_DEPTH);
    for i in 0..warmup {
        let obj = &objs[i % COUNTERS];
        if !pipelined {
            sut::sinvoke(quiet, obj, "add", &one).expect("warm-up call");
            continue;
        }
        if pending.len() == PIPELINE_DEPTH {
            let oldest = pending.pop_front().expect("non-empty");
            sut::get_result(quiet, &oldest).expect("warm-up result");
        }
        pending.push_back(sut::ainvoke(quiet, obj, "add", &one).expect("warm-up call"));
    }
    for h in pending {
        sut::get_result(quiet, &h).expect("warm-up result");
    }
    Rmi {
        sut,
        objs,
        adds: warmup as u64,
    }
}

/// What a window measured, before the workload's closing checks.
struct Measured {
    attempted: u64,
    failed: u64,
    latency: Sliced,
    checks: Vec<Check>,
}

impl Measured {
    fn new(window: &Window, ctx: &Ctx) -> Measured {
        Measured {
            attempted: 0,
            failed: 0,
            latency: window.sliced(ctx, true),
            checks: Vec::new(),
        }
    }
}

/// Closes the window, checks that Σ `get` over the counters equals the adds
/// issued, and shuts the deployment down.
fn finish_rmi(
    rmi: Rmi,
    mut tr: Tracer,
    setup_s: f64,
    window: &Window,
    before: Counters,
    mut m: Measured,
) -> Outcome {
    m.latency.close();
    let (window_s, cpu_s) = window.close();
    let after = rmi.sut.counters();
    let quiet = &mut Tracer::disabled();
    let sum: Option<i64> = rmi
        .objs
        .iter()
        .map(|o| sut::sinvoke(quiet, o, "get", &[]).ok()?.as_i64())
        .sum();
    m.checks.push(check(
        "counter_sum",
        sum == Some(rmi.adds as i64),
        format!(
            "sum of get over {COUNTERS} counters {sum:?}, adds issued {}",
            rmi.adds
        ),
    ));
    rmi.sut.shutdown(&mut tr);
    Outcome {
        setup_s,
        attempted: m.attempted,
        failed: m.failed,
        window_s,
        cpu_s,
        latency: m.latency.whole(),
        sliced: Some(m.latency),
        peak_rss_mb: peak_rss_mb(),
        checks: m.checks,
        tracers: vec![tr],
        window: Some(after.since(&before)),
        in_flight_end: after.in_flight(),
        exec_blocked_end: 0,
        notes: Vec::new(),
    }
}

/// Workloads 1 and 2: one `sinvoke("add", 1)` per op on a seeded counter.
pub fn rmi_sync(ctx: &Ctx, remote: bool) -> Outcome {
    let mut tr = tracer(ctx, Instant::now());
    let warmup = if remote {
        WARMUP_SYNC_REMOTE
    } else {
        WARMUP_SYNC_LOCAL
    };
    let mut rmi = setup_rmi(&mut tr, remote, ctx.trace, warmup, false);
    let setup_s = ctx.setup_done();
    let mut gen = RmiGen::new(ctx.seed);
    let one = [Value::I64(1)];
    let before = rmi.sut.counters();
    let window = Window::open(ctx.seconds);
    let mut m = Measured::new(&window, ctx);
    loop {
        let (i, _) = gen.next();
        tr.next_op();
        let t = Instant::now();
        let r = sut::sinvoke(&mut tr, &rmi.objs[i], "add", &one);
        let done = Instant::now();
        m.attempted += 1;
        rmi.adds += 1;
        match r {
            Ok(_) => m.latency.record(done, (done - t).as_nanos() as u64),
            Err(_) => m.failed += 1,
        }
        if done >= window.deadline {
            break;
        }
    }
    finish_rmi(rmi, tr, setup_s, &window, before, m)
}

/// An issued `ainvoke`: its handle, when it was issued, whether it is an echo.
type InFlight = (ResultHandle, Instant, bool);

/// Waits for the oldest outstanding call and records issue → result.
fn collect(
    tr: &mut Tracer,
    (handle, issued, echo): InFlight,
    m: &mut Measured,
    bad_echoes: &mut u64,
) {
    let r = sut::get_result(tr, &handle);
    let done = Instant::now();
    let ns = (done - issued).as_nanos() as u64;
    match r {
        Ok(Value::Bytes(b)) if echo && b.len() == ECHO_BYTES => m.latency.record(done, ns),
        Ok(_) if !echo => m.latency.record(done, ns),
        Ok(_) => {
            *bad_echoes += 1;
            m.failed += 1;
        }
        Err(_) => m.failed += 1,
    }
}

/// Workload 3: 64 `ainvoke`s outstanding on the remote counters, 7 of 8
/// `add(1)` and every 8th `echo(4 KiB)`; latency is issue → `get_result`.
pub fn rmi_pipelined(ctx: &Ctx) -> Outcome {
    let mut tr = tracer(ctx, Instant::now());
    let mut rmi = setup_rmi(&mut tr, true, ctx.trace, WARMUP_PIPELINED, true);
    let setup_s = ctx.setup_done();
    let mut gen = RmiGen::new(ctx.seed);
    let mut bad_echoes = 0u64;
    let one = [Value::I64(1)];
    let payload = [Value::Bytes(vec![0x5A; ECHO_BYTES])];
    let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE_DEPTH);
    let before = rmi.sut.counters();
    let window = Window::open(ctx.seconds);
    let mut m = Measured::new(&window, ctx);
    while Instant::now() < window.deadline {
        if pending.len() == PIPELINE_DEPTH {
            let oldest = pending.pop_front().expect("non-empty");
            collect(&mut tr, oldest, &mut m, &mut bad_echoes);
        }
        let (i, echo) = gen.next();
        tr.next_op();
        let issued = Instant::now();
        let (method, args) = if echo {
            ("echo", &payload)
        } else {
            ("add", &one)
        };
        m.attempted += 1;
        match sut::ainvoke(&mut tr, &rmi.objs[i], method, args) {
            Ok(h) => {
                rmi.adds += !echo as u64;
                pending.push_back((h, issued, echo));
            }
            Err(_) => m.failed += 1,
        }
    }
    for p in pending.drain(..) {
        collect(&mut tr, p, &mut m, &mut bad_echoes);
    }
    m.checks.push(check(
        "echo_length",
        bad_echoes == 0,
        format!("{bad_echoes} echoes did not return {ECHO_BYTES} bytes"),
    ));
    finish_rmi(rmi, tr, setup_s, &window, before, m)
}

// ------------------------------------------------------------ lifecycle (4)

struct Lifecycle {
    sut: Sut,
    cluster: sut::Cluster,
    ring: Vec<NodeId>,
}

/// What a completed cycle read back.
struct Cycle {
    checksum_ok: bool,
    location_ok: bool,
}

/// One whole cycle on a fresh object: create a 16 KiB `Blob` in the cluster,
/// fill it with `k`, migrate it to the next machine of the ring, read the
/// checksum there, free it. `Err` when a call fails.
fn lifecycle_cycle(lc: &Lifecycle, tr: &mut Tracer, k: i64) -> sut::Result<Cycle> {
    let obj = lc.sut.create(
        tr,
        "Blob",
        &[Value::I64(BLOB_BYTES)],
        Place::InCluster(&lc.cluster),
    )?;
    sut::sinvoke(tr, &obj, "fill", &[Value::I64(k)])?;
    let at = sut::location(&obj)?;
    let here = lc.ring.iter().position(|&m| m == at).unwrap_or(0);
    let target = lc.ring[(here + 1) % lc.ring.len()];
    sut::migrate(tr, &obj, target)?;
    let sum = sut::sinvoke_after_migrate(tr, &obj, "checksum", &[])?;
    let cycle = Cycle {
        checksum_ok: sum == Value::I64(BLOB_BYTES * (k % 256)),
        location_ok: sut::location(&obj)? == target,
    };
    sut::free(tr, &obj)?;
    Ok(cycle)
}

fn setup_lifecycle(tr: &mut Tracer, opts: Opts, warmup: usize) -> Lifecycle {
    let sut = Sut::boot(opts, tr);
    let cluster = sut
        .blob_cluster(tr, LIFECYCLE_MACHINES)
        .expect("a cluster of every machine with blob.jar loaded");
    let ring = sut::cluster_machines(&cluster);
    let lc = Lifecycle { sut, cluster, ring };
    for k in 0..warmup {
        lifecycle_cycle(&lc, tr, k as i64).expect("warm-up cycle");
    }
    lc
}

/// `cycles` lifecycle cycles on a fresh 8-machine deployment, for the
/// per-layer probes (with or without the replicated directory).
pub fn lifecycle_probe(tr: &mut Tracer, directory_replicas: u32, cycles: usize) {
    let mut opts = Opts::machines(LIFECYCLE_MACHINES, true);
    opts.directory_replicas = directory_replicas;
    let lc = setup_lifecycle(tr, opts, 20);
    for k in 0..cycles {
        tr.next_op();
        let span = tr.begin("lifecycle.cycle");
        lifecycle_cycle(&lc, tr, k as i64).expect("probe cycle");
        tr.end(span);
    }
    lc.sut.shutdown(tr);
}

pub fn lifecycle(ctx: &Ctx) -> Outcome {
    let mut tr = tracer(ctx, Instant::now());
    let opts = Opts::machines(LIFECYCLE_MACHINES, ctx.trace);
    let lc = setup_lifecycle(&mut tr, opts, WARMUP_LIFECYCLE);
    let setup_s = ctx.setup_done();
    let mut rng = Rng::new(ctx.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut bad_checksums, mut bad_locations) = (0u64, 0u64);
    let before = lc.sut.counters();
    let window = Window::open(ctx.seconds);
    let mut latency = window.sliced(ctx, true);
    loop {
        let k = rng.below(256) as i64;
        tr.next_op();
        let span = tr.begin("lifecycle.cycle");
        let t = Instant::now();
        let r = lifecycle_cycle(&lc, &mut tr, k);
        let done = Instant::now();
        tr.end(span);
        attempted += 1;
        match r {
            Ok(Cycle {
                checksum_ok: true,
                location_ok: true,
            }) => latency.record(done, (done - t).as_nanos() as u64),
            // A faulty cycle is one failed operation, whatever was wrong.
            Ok(cycle) => {
                failed += 1;
                bad_checksums += !cycle.checksum_ok as u64;
                bad_locations += !cycle.location_ok as u64;
            }
            Err(_) => failed += 1,
        }
        if done >= window.deadline {
            break;
        }
    }
    latency.close();
    let (window_s, cpu_s) = window.close();
    let after = lc.sut.counters();
    let checks = vec![
        check(
            "checksum_after_migrate",
            bad_checksums == 0,
            format!("{bad_checksums} cycles read a wrong checksum"),
        ),
        check(
            "location_is_ring_target",
            bad_locations == 0,
            format!("{bad_locations} objects were not on the ring target"),
        ),
    ];
    lc.sut.shutdown(&mut tr);
    Outcome {
        setup_s,
        attempted,
        failed,
        window_s,
        cpu_s,
        latency: latency.whole(),
        sliced: Some(latency),
        peak_rss_mb: peak_rss_mb(),
        checks,
        tracers: vec![tr],
        window: Some(after.since(&before)),
        in_flight_end: after.in_flight(),
        exec_blocked_end: 0,
        notes: Vec::new(),
    }
}

// ----------------------------------------------------------- fig5_cells (5)

/// The cells of one pass in their order for `seed`: the largest cell, then
/// the others shuffled (Fisher–Yates). The largest goes first so that
/// `peak_rss_mb` is its footprint alone; after smaller cells it is that plus
/// what the allocator kept from them, 52 to 62 MB depending on the order.
fn fig5_order(seed: u64) -> Vec<Fig5Cell> {
    let mut cells = FIG5_CELLS.to_vec();
    let largest = (0..cells.len())
        .max_by_key(|&i| cells[i].n)
        .expect("FIG5_CELLS is not empty");
    cells.swap(0, largest);
    let mut rng = Rng::new(seed);
    for i in (2..cells.len()).rev() {
        cells.swap(i, 1 + rng.below(i));
    }
    cells
}

pub fn fig5_cells(ctx: &Ctx) -> Outcome {
    let mut tr = tracer(ctx, Instant::now());
    // Set-up: one verified N=400 × 2-node cell (panics on a wrong product).
    sut::fig5_cell(&mut tr, Fig5Cell { n: 400, day: false }, 2, true);
    let setup_s = ctx.setup_done();
    // The window is a whole number of passes so every run times the same
    // cells: scaled sleeps dominate, and a time-boxed loop would end on a
    // different cell from run to run.
    let passes = ((ctx.seconds / FIG5_PASS_SECONDS).round() as usize).max(1);
    let order = fig5_order(ctx.seed);
    let mut latency = Histogram::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let (mut modeled_sleep_s, mut messages) = (0.0, 0u64);
    let window = Window::open(ctx.seconds);
    for _ in 0..passes {
        for &cell in &order {
            tr.next_op();
            let t = Instant::now();
            let run = sut::fig5_cell(&mut tr, cell, FIG5_NODES, false);
            let wall = t.elapsed();
            attempted += 1;
            if run.virt_seconds.is_finite() && run.virt_seconds > 0.0 && run.messages > 0 {
                latency.record(wall.as_nanos() as u64);
            } else {
                failed += 1;
            }
            modeled_sleep_s += run.modeled_sleep_s;
            messages += run.messages;
            notes.push(format!(
                "cell n {} {} wall_s {:.3} virt_s {:.3} msgs {}",
                cell.n,
                if cell.day { "day" } else { "night" },
                wall.as_secs_f64(),
                run.virt_seconds,
                run.messages
            ));
        }
    }
    let (window_s, cpu_s) = window.close();
    notes.push(format!(
        "passes {passes} cells {attempted} modeled_sleep_s {modeled_sleep_s:.3} msgs {messages} \
         (slow_half_us is the mean of the two slowest cells)"
    ));
    let checks = vec![check(
        "cells_finite_with_messages",
        failed == 0,
        format!("{failed} of {attempted} cells had no finite time or no messages"),
    )];
    Outcome {
        setup_s,
        attempted,
        failed,
        window_s,
        cpu_s,
        latency,
        sliced: None,
        peak_rss_mb: peak_rss_mb(),
        checks,
        tracers: vec![tr],
        window: None,
        in_flight_end: 0,
        exec_blocked_end: 0,
        notes,
    }
}

// ---------------------------------------------------------------- swarm (6)

#[derive(Clone, Copy, Debug, PartialEq)]
enum SwarmOp {
    OnewayAdd,
    SyncAdd,
    AsyncAdd,
    SyncGet,
    Migrate(usize),
    Churn(usize),
}

/// One driver's op stream: 59 % one-sided add, 15 % sync add, 10 % async add,
/// 10 % sync get, 1 % migrate to a seeded machine, 5 % free + create (the last
/// two behind a [`SwarmDriver::barrier`]).
///
/// Migration is 1 %, not more, because of what it costs the program today:
/// each one makes the executor spawn a spare worker whose thread is kept,
/// un-joined, until shutdown. At 5 % a 10 s window spawned about 31,000 of
/// them and the process died of `ENOMEM` at `vm.max_map_count`.
struct SwarmGen {
    rng: Rng,
    objects: usize,
}

impl SwarmGen {
    fn new(seed: u64, driver: usize, objects: usize) -> Self {
        SwarmGen {
            rng: Rng::new(seed ^ ((driver as u64 + 1) << 32)),
            objects,
        }
    }

    fn next(&mut self) -> (usize, SwarmOp) {
        let idx = self.rng.below(self.objects);
        let op = match self.rng.below(100) {
            0..=58 => SwarmOp::OnewayAdd,
            59..=73 => SwarmOp::SyncAdd,
            74..=83 => SwarmOp::AsyncAdd,
            84..=93 => SwarmOp::SyncGet,
            94 => SwarmOp::Migrate(self.rng.below(SWARM_MACHINES)),
            _ => SwarmOp::Churn(self.rng.below(SWARM_MACHINES)),
        };
        (idx, op)
    }
}

#[derive(Default)]
struct SwarmTally {
    attempted: u64,
    failed: u64,
    /// Method invocations the program accepted (each must execute once).
    invocations: u64,
}

/// One driver thread's state: its slice of the objects and its stream.
struct SwarmDriver {
    objs: Vec<JsObj>,
    gen: SwarmGen,
    pending: Vec<ResultHandle>,
    tally: SwarmTally,
    /// Invocations the program has accepted since boot, from every driver.
    issued: Arc<AtomicU64>,
}

impl SwarmDriver {
    fn drain_async(&mut self, tr: &mut Tracer) {
        for h in self.pending.drain(..) {
            self.tally.failed += sut::get_result(tr, &h).is_err() as u64;
        }
    }

    /// Runs the next op of the stream; its latency is the whole step.
    /// `false` when the program failed or refused it.
    fn step(&mut self, sut: &Sut, tr: &mut Tracer) -> bool {
        let (idx, op) = self.gen.next();
        let one = [Value::I64(1)];
        self.tally.attempted += 1;
        let ok = match op {
            SwarmOp::OnewayAdd => sut::oinvoke(tr, &self.objs[idx], "add", &one).is_ok(),
            SwarmOp::SyncAdd => sut::sinvoke(tr, &self.objs[idx], "add", &one).is_ok(),
            SwarmOp::SyncGet => sut::sinvoke(tr, &self.objs[idx], "get", &[]).is_ok(),
            SwarmOp::AsyncAdd => match sut::ainvoke(tr, &self.objs[idx], "add", &one) {
                Ok(h) => {
                    self.pending.push(h);
                    if self.pending.len() >= SWARM_ASYNC_WINDOW {
                        self.drain_async(tr);
                    }
                    true
                }
                Err(_) => false,
            },
            SwarmOp::Migrate(to) => {
                self.barrier(tr, idx)
                    && sut::migrate(tr, &self.objs[idx], sut.machines()[to]).is_ok()
            }
            SwarmOp::Churn(to) => {
                let freed = self.barrier(tr, idx) && sut::free(tr, &self.objs[idx]).is_ok();
                match sut.create(tr, "Counter", &[], Place::On(sut.machines()[to])) {
                    Ok(obj) => {
                        self.objs[idx] = obj;
                        freed
                    }
                    Err(_) => false,
                }
            }
        };
        let invoked = matches!(
            op,
            SwarmOp::OnewayAdd | SwarmOp::SyncAdd | SwarmOp::SyncGet | SwarmOp::AsyncAdd
        );
        if ok && invoked {
            self.accepted();
        }
        self.tally.failed += !ok as u64;
        // One-sided calls return before they run, so a driver can outrun the
        // executor without bound; like a caller with a send window, it waits
        // while too many accepted invocations have not executed yet. That
        // keeps the loop closed and the backlog out of `peak_rss_mb`.
        if self.tally.attempted.is_multiple_of(SWARM_FLOW_CHECK_EVERY) {
            while self.issued.load(Ordering::Relaxed)
                > sut.invocations_executed() + SWARM_MAX_BACKLOG
            {
                std::thread::yield_now();
            }
        }
        ok
    }

    fn accepted(&mut self) {
        self.tally.invocations += 1;
        self.issued.fetch_add(1, Ordering::Relaxed);
    }

    /// A synchronous `get` on the object before it moves or is freed. Calls
    /// on one object run in arrival order, so when the `get` returns, every
    /// one-sided and asynchronous add issued to it earlier has executed; the
    /// program drops a one-sided call that finds its object gone, and a loss
    /// that depends on timing cannot be part of a benchmark.
    fn barrier(&mut self, tr: &mut Tracer, idx: usize) -> bool {
        let ok = sut::sinvoke(tr, &self.objs[idx], "get", &[]).is_ok();
        if ok {
            self.accepted();
        }
        ok
    }
}

struct Swarm {
    sut: Sut,
    drivers: Vec<SwarmDriver>,
    issued: Arc<AtomicU64>,
}

/// Waits until every accepted invocation has executed (one-sided calls count
/// when executed). `false` if they have not after ten seconds.
fn swarm_drain(swarm: &Swarm) -> bool {
    let issued = swarm.issued.load(Ordering::Relaxed);
    let give_up = Instant::now() + Duration::from_secs(10);
    while swarm.sut.invocations_executed() < issued {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// 1,000 machines on a 2-worker executor; 2 drivers create the counters
/// round-robin over the machines, then run a fixed warm-up of their streams.
fn setup_swarm(tr: &mut Tracer, ctx: &Ctx) -> Swarm {
    let mut opts = Opts::machines(SWARM_MACHINES, ctx.trace);
    opts.executor = 2;
    let sut = Sut::boot(opts, tr);
    let per = SWARM_OBJECTS / SWARM_DRIVERS;
    let issued = Arc::new(AtomicU64::new(0));
    let mut drivers: Vec<SwarmDriver> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SWARM_DRIVERS)
            .map(|d| {
                let (sut, issued) = (&sut, issued.clone());
                s.spawn(move || {
                    let mut tr = Tracer::disabled();
                    let objs = (0..per)
                        .map(|i| {
                            let at = sut.machines()[(d * per + i) % SWARM_MACHINES];
                            sut.create(&mut tr, "Counter", &[], Place::On(at))
                                .expect("create a counter")
                        })
                        .collect();
                    SwarmDriver {
                        objs,
                        gen: SwarmGen::new(ctx.seed ^ WARMUP_SEED, d, per),
                        pending: Vec::new(),
                        tally: SwarmTally::default(),
                        issued,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("creating driver"))
            .collect()
    });
    std::thread::scope(|s| {
        for driver in &mut drivers {
            let sut = &sut;
            s.spawn(move || {
                let mut tr = Tracer::disabled();
                for _ in 0..WARMUP_SWARM_PER_DRIVER {
                    driver.step(sut, &mut tr);
                }
                driver.drain_async(&mut tr);
            });
        }
    });
    let swarm = Swarm {
        sut,
        drivers,
        issued,
    };
    assert!(swarm_drain(&swarm), "warm-up invocations did not drain");
    swarm
}

pub fn swarm(ctx: &Ctx) -> Outcome {
    let epoch = Instant::now();
    let mut main_tr = tracer(ctx, epoch);
    let mut swarm = setup_swarm(&mut main_tr, ctx);
    // The window streams start from the run's seed; warm-up used another.
    for (d, driver) in swarm.drivers.iter_mut().enumerate() {
        assert_eq!(driver.tally.failed, 0, "warm-up operations failed");
        driver.gen = SwarmGen::new(ctx.seed, d, driver.objs.len());
        driver.tally = SwarmTally::default();
    }
    let setup_s = ctx.setup_done();
    // Memory per machine and object: read before the window, because in the
    // window every migration leaves a spare executor thread behind and the
    // peak then grows with the number of operations the run completes.
    let rss_at_open_mb = peak_rss_mb();
    let before = swarm.sut.counters();
    let window = Window::open(ctx.seconds);
    let results: Vec<(Sliced, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = swarm
            .drivers
            .iter_mut()
            .enumerate()
            .map(|(d, driver)| {
                let (sut, window) = (&swarm.sut, &window);
                s.spawn(move || {
                    let mut tr = tracer(ctx, epoch);
                    // The first driver keeps the CPU clock for every slice.
                    let mut latency = window.sliced(ctx, d == 0);
                    loop {
                        tr.next_op();
                        let t = Instant::now();
                        let ok = driver.step(sut, &mut tr);
                        let done = Instant::now();
                        if ok {
                            latency.record(done, (done - t).as_nanos() as u64);
                        }
                        if done >= window.deadline {
                            break;
                        }
                    }
                    driver.drain_async(&mut tr);
                    (latency, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread"))
            .collect()
    });
    let drained = swarm_drain(&swarm);
    let mut results = results.into_iter();
    let (mut latency, first_tr) = results.next().expect("SWARM_DRIVERS > 0");
    latency.close();
    let (window_s, cpu_s) = window.close();
    let after = swarm.sut.counters();
    let delta = after.since(&before);
    let exec_blocked_end = swarm.sut.exec_blocked();

    let Swarm { sut, drivers, .. } = swarm;
    sut.shutdown(&mut main_tr);
    let mut tracers = vec![main_tr, first_tr];
    for (other, tr) in results {
        latency.merge(&other);
        tracers.push(tr);
    }
    let attempted: u64 = drivers.iter().map(|d| d.tally.attempted).sum();
    let failed: u64 = drivers.iter().map(|d| d.tally.failed).sum();
    let issued: u64 = drivers.iter().map(|d| d.tally.invocations).sum();
    let checks = vec![
        check(
            "invocations_executed",
            drained && delta.invocations == issued,
            format!("issued {issued}, executed {}", delta.invocations),
        ),
        check(
            "sent_eq_delivered_plus_dropped",
            after.in_flight() == 0,
            format!("{} messages in flight after the drain", after.in_flight()),
        ),
        check(
            "nothing_dropped",
            delta.msgs_dropped == 0,
            format!("{} messages dropped", delta.msgs_dropped),
        ),
        check(
            "exec_blocked_end",
            exec_blocked_end == 0,
            format!("{exec_blocked_end} executor workers still blocked"),
        ),
    ];
    Outcome {
        setup_s,
        attempted,
        failed,
        window_s,
        cpu_s,
        latency: latency.whole(),
        sliced: Some(latency),
        peak_rss_mb: rss_at_open_mb,
        checks,
        tracers,
        window: Some(delta),
        in_flight_end: after.in_flight(),
        exec_blocked_end,
        notes: vec![format!(
            "machines {SWARM_MACHINES} objects {SWARM_OBJECTS} drivers {SWARM_DRIVERS} executor 2 \
             (peak_rss_mb is VmHWM at the window's opening)"
        )],
    }
}

// ----------------------------------------------------------------- dispatch

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "rmi_sync_local" => rmi_sync(ctx, false),
        "rmi_sync_remote" => rmi_sync(ctx, true),
        "rmi_pipelined" => rmi_pipelined(ctx),
        "lifecycle" => lifecycle(ctx),
        "fig5_cells" => fig5_cells(ctx),
        "swarm" => swarm(ctx),
        _ => return None,
    })
}

/// Words of a stream prefix hashed into the run's record.
const HASHED_OPS: usize = 4096;

/// Hash of the first [`HASHED_OPS`] operations the workload's generator
/// yields for `seed`: same seed ⇒ same stream ⇒ same hash.
pub fn stream_hash(name: &str, seed: u64) -> u64 {
    let mut h = StreamHash::new();
    match name {
        "rmi_sync_local" | "rmi_sync_remote" | "rmi_pipelined" => {
            let mut gen = RmiGen::new(seed);
            for _ in 0..HASHED_OPS {
                let (i, echo) = gen.next();
                h.push(i as u64);
                h.push((echo && name == "rmi_pipelined") as u64);
            }
        }
        "lifecycle" => {
            let mut rng = Rng::new(seed);
            (0..HASHED_OPS).for_each(|_| h.push(rng.below(256) as u64));
        }
        "fig5_cells" => {
            for cell in fig5_order(seed) {
                h.push(cell.n as u64);
                h.push(cell.day as u64);
            }
        }
        "swarm" => {
            for d in 0..SWARM_DRIVERS {
                let mut gen = SwarmGen::new(seed, d, SWARM_OBJECTS / SWARM_DRIVERS);
                for _ in 0..HASHED_OPS {
                    let (idx, op) = gen.next();
                    h.push(idx as u64);
                    h.push(match op {
                        SwarmOp::OnewayAdd => 0,
                        SwarmOp::SyncAdd => 1,
                        SwarmOp::AsyncAdd => 2,
                        SwarmOp::SyncGet => 3,
                        SwarmOp::Migrate(to) => 4 | (to as u64) << 8,
                        SwarmOp::Churn(to) => 5 | (to as u64) << 8,
                    });
                }
            }
        }
        _ => {}
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_hash_and_different_seed_differs() {
        for name in NAMES {
            assert_eq!(stream_hash(name, 2000), stream_hash(name, 2000), "{name}");
            // fig5_cells has 24 orders of its cells, so two seeds may agree by
            // chance; 2000 and 7 do not.
            assert_ne!(stream_hash(name, 2000), stream_hash(name, 7), "{name}");
        }
    }

    #[test]
    fn fig5_order_is_a_permutation_of_the_cells() {
        for seed in 0..50 {
            let order = fig5_order(seed);
            for cell in FIG5_CELLS {
                assert_eq!(order.iter().filter(|&&c| c == cell).count(), 1);
            }
            assert_eq!(order[0].n, 600, "the largest cell runs first");
        }
    }

    #[test]
    fn swarm_mix_matches_its_shares() {
        let mut gen = SwarmGen::new(2000, 0, 1000);
        let mut oneway = 0;
        let n = 100_000;
        for _ in 0..n {
            let (idx, op) = gen.next();
            assert!(idx < 1000);
            oneway += (op == SwarmOp::OnewayAdd) as u32;
        }
        assert!((oneway as f64 / n as f64 - 0.59).abs() < 0.01);
    }
}
