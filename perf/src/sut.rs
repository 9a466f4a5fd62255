//! The one adapter between the benchmark and the program: every call into the
//! library crates is made here, so an API change breaks this file only. Each
//! call is wrapped in a bench-side span (`trace.rs`); with tracing off that is
//! one branch.
//!
//! Public functions of the program used:
//!
//! * `jsym_core::JsShell::{new, add_machines, time_scale, cost_model,
//!   monitor_period, failure_timeout, observability, executor,
//!   directory_replicas, boot}` and `MachineConfig::idle`, `CostModel::free`
//! * `jsym_core::Deployment::{register_app, machines, vda, pool, net_stats,
//!   net_hot_stats, exec_stats, node_stats, plane_stats, obs, shutdown}`
//! * `jsym_core::testkit::register_test_classes` (`Counter`, `Blob`)
//! * `jsym_core::JsRegistration::{codebase, load_stored, unregister}`,
//!   `JsCodebase::{add, load_cluster}`
//! * `jsym_core::JsObj::{create, sinvoke, ainvoke, oinvoke, migrate, store,
//!   free, get_location}`, `ResultHandle::get_result`
//! * `jsym_vda::VdaRegistry::{request_cluster, request_node_constrained}`,
//!   `Cluster::{machines, free}`, `Node::free`, `ResourcePool::machine`,
//!   `jsym_sysmon::{SimMachine::snapshot, JsConstraints::{new, set}}`
//! * `jsym_cluster::fig5::{Fig5Config::{paper_collective, scale_for},
//!   run_cell_opts}`
//! * bare layers for the probes: `jsym_net::{Network::{new, register, send,
//!   set_local_hook, partition, heal, stats, shutdown}, SimClock, TimeScale,
//!   Topology, Payload}`, `jsym_exec::{Executor::{new, spawn, spawn_at,
//!   shutdown}, blocking}`, `jsym_dir::{DirReplica::{new, tick, receive,
//!   propose, read_index, take_events, role, id}, DirMsg::{to_bytes,
//!   from_bytes}, DirCommand, DirConfig}`, `jsym_col::{DistCol::{create_default,
//!   scatter, gather, reduce, relocate, chunk_range, free}, partition_weighted,
//!   register_col_classes}`, `jsym_obs::{ObsRegistry::{new, counter,
//!   histogram, tracer}, Counter::inc, Histogram::observe, Tracer::span}`

use crate::trace::Tracer;
use jsym_cluster::catalog::LoadKind;
use jsym_cluster::fig5::{run_cell_opts, Fig5Config};
use jsym_col::{partition_weighted, register_col_classes, DistCol, ReduceOp};
use jsym_core::testkit::register_test_classes;
use jsym_core::{
    CostModel, Deployment, JsRegistration, JsShell, MachineConfig, MigrateTarget, Placement,
};
use jsym_dir::{DirCommand, DirConfig, DirEvent, DirMsg, DirReplica, Role};
use jsym_exec::Executor;
use jsym_net::{Envelope, Network, Payload, SimClock, TimeScale, Topology};
use jsym_obs::ObsRegistry;
use jsym_sysmon::{JsConstraints, SysParam};
use std::sync::Arc;
use std::time::Instant;

pub use jsym_core::{JsObj, ResultHandle, Value};
pub use jsym_net::NodeId;
pub use jsym_vda::Cluster;

pub type Error = jsym_core::JsError;
pub type Result<T> = std::result::Result<T, Error>;

/// How a deployment differs from the benchmark's common settings
/// (`JsShell` defaults with zero modeled latency and the NA quiesced).
#[derive(Clone, Copy)]
pub struct Opts {
    pub machines: usize,
    pub observability: bool,
    /// Executor worker threads; 0 keeps the default thread-per-node runtime.
    pub executor: usize,
    /// Directory replicas; 0 keeps the default origin-AppOA authority.
    pub directory_replicas: u32,
}

impl Opts {
    pub fn machines(machines: usize, observability: bool) -> Opts {
        Opts {
            machines,
            observability,
            executor: 0,
            directory_replicas: 0,
        }
    }
}

/// Where a new object goes.
#[derive(Clone, Copy)]
pub enum Place<'a> {
    Local,
    On(NodeId),
    InCluster(&'a Cluster),
}

/// The program's public running totals, read at the edges of a window.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        #[derive(Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// `self − earlier`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
}

counters!(
    msgs_sent,
    bytes_sent,
    msgs_delivered,
    msgs_dropped,
    ep_cache_hits,
    ep_cache_misses,
    contended,
    loopback,
    invocations,
    transient_workers,
    plane_hits,
    plane_misses,
    exec_steals,
    exec_parks,
    exec_spare_spawns,
    exec_wakes_targeted,
    exec_wakes_escalated,
);

impl Counters {
    /// Messages sent and not yet delivered or dropped.
    pub fn in_flight(&self) -> i64 {
        self.msgs_sent as i64 - self.msgs_delivered as i64 - self.msgs_dropped as i64
    }
}

/// A booted deployment with one registered application on machine 0.
pub struct Sut {
    d: Deployment,
    reg: JsRegistration,
    machines: Vec<NodeId>,
}

impl Sut {
    /// Boots `opts.machines` idle LAN machines `m0..`, registers the test
    /// classes and one application (home: `m0`).
    pub fn boot(opts: Opts, tr: &mut Tracer) -> Sut {
        let span = tr.begin("core.boot");
        let mut shell = JsShell::new()
            .add_machines((0..opts.machines).map(|i| MachineConfig::idle(&format!("m{i}"), 50.0)))
            .observability(opts.observability)
            .time_scale(1e-6)
            .cost_model(CostModel::free())
            .monitor_period(1e9)
            .failure_timeout(1e9);
        if opts.executor > 0 {
            shell = shell.executor(opts.executor);
        }
        if opts.directory_replicas > 0 {
            shell = shell.directory_replicas(opts.directory_replicas);
        }
        let d = shell.boot();
        tr.end(span);
        register_test_classes(&d);
        let reg = d.register_app().expect("register the application");
        let machines = d.machines();
        Sut { d, reg, machines }
    }

    /// Unregisters the application and stops the deployment.
    pub fn shutdown(self, tr: &mut Tracer) {
        let span = tr.begin("core.shutdown");
        self.reg.unregister().expect("unregister the application");
        self.d.shutdown();
        tr.end(span);
    }

    pub fn machines(&self) -> &[NodeId] {
        &self.machines
    }

    pub fn create(
        &self,
        tr: &mut Tracer,
        class: &str,
        args: &[Value],
        at: Place<'_>,
    ) -> Result<JsObj> {
        let placement = match at {
            Place::Local => Placement::Local,
            Place::On(node) => Placement::OnPhys(node),
            Place::InCluster(c) => Placement::InCluster(c),
        };
        let span = tr.begin("core.create");
        let r = JsObj::create(&self.reg, class, args, placement, None);
        tr.end(span);
        r
    }

    /// A cluster of `n` machines with `blob.jar` loaded on each.
    pub fn blob_cluster(&self, tr: &mut Tracer, n: usize) -> Result<Cluster> {
        let cluster = self.request_cluster(tr, n)?;
        let codebase = self.reg.codebase();
        codebase.add("blob.jar", 1000);
        codebase.load_cluster(&cluster)?;
        Ok(cluster)
    }

    pub fn request_cluster(&self, tr: &mut Tracer, n: usize) -> Result<Cluster> {
        let span = tr.begin("vda.request_cluster");
        let r = self.d.vda().request_cluster(n, None);
        tr.end(span);
        Ok(r?)
    }

    /// Requests a cluster of `n` machines and frees it again.
    pub fn request_and_free_cluster(&self, tr: &mut Tracer, n: usize) -> Result<()> {
        free_cluster(self.request_cluster(tr, n)?)
    }

    /// Requests (and frees again) one node that must be idle enough.
    pub fn request_node_constrained(&self, tr: &mut Tracer) -> Result<()> {
        let mut constraints = JsConstraints::new();
        constraints.set(SysParam::CpuLoad1, "<=", 4.0);
        let span = tr.begin("vda.request_node_constrained");
        let r = self.d.vda().request_node_constrained(&constraints);
        tr.end(span);
        Ok(r?.free()?)
    }

    /// Takes a fresh system snapshot of machine `i`.
    pub fn machine_snapshot(&self, tr: &mut Tracer, i: usize) {
        let machine = self
            .d
            .pool()
            .machine(self.machines[i])
            .expect("machine exists");
        let span = tr.begin("sysmon.snapshot");
        std::hint::black_box(machine.snapshot());
        tr.end(span);
    }

    /// Re-creates the object stored under `key` on machine `at`.
    pub fn load_stored(&self, tr: &mut Tracer, key: &str, at: NodeId) -> Result<JsObj> {
        let span = tr.begin("core.load");
        let r = self.reg.load_stored(key, Placement::OnPhys(at), None);
        tr.end(span);
        r
    }

    pub fn counters(&self) -> Counters {
        let net = self.d.net_stats();
        let hot = self.d.net_hot_stats();
        let plane = self.d.plane_stats();
        let exec = self.d.exec_stats();
        let (mut invocations, mut transient_workers) = (0, 0);
        for &m in &self.machines {
            if let Some(s) = self.d.node_stats(m) {
                invocations += s.invocations;
                transient_workers += s.transient_workers;
            }
        }
        Counters {
            msgs_sent: net.msgs_sent,
            bytes_sent: net.bytes_sent,
            msgs_delivered: net.msgs_delivered,
            msgs_dropped: net.msgs_dropped,
            ep_cache_hits: hot.ep_cache_hits,
            ep_cache_misses: hot.ep_cache_misses,
            contended: hot.pair_contended + hot.pending_contended + hot.gaps_contended,
            loopback: self
                .d
                .obs()
                .metrics()
                .snapshot()
                .counter_total("net.loopback"),
            invocations,
            transient_workers,
            plane_hits: plane.hits,
            plane_misses: plane.misses,
            exec_steals: exec.as_ref().map_or(0, |e| e.steals),
            exec_parks: exec.as_ref().map_or(0, |e| e.parks),
            exec_spare_spawns: exec.as_ref().map_or(0, |e| e.spare_spawns),
            exec_wakes_targeted: exec.as_ref().map_or(0, |e| e.wakes_targeted),
            exec_wakes_escalated: exec.as_ref().map_or(0, |e| e.wakes_escalated),
        }
    }

    /// Executor workers blocked right now (0 on the thread-per-node runtime).
    pub fn exec_blocked(&self) -> u64 {
        self.d.exec_stats().map_or(0, |e| e.blocked as u64)
    }

    /// Method invocations executed so far, summed over every node.
    pub fn invocations_executed(&self) -> u64 {
        self.machines
            .iter()
            .filter_map(|&m| self.d.node_stats(m))
            .map(|s| s.invocations)
            .sum()
    }
}

pub fn sinvoke(tr: &mut Tracer, obj: &JsObj, method: &str, args: &[Value]) -> Result<Value> {
    let span = tr.begin("core.sinvoke");
    let r = obj.sinvoke(method, args);
    tr.end(span);
    r
}

pub fn ainvoke(tr: &mut Tracer, obj: &JsObj, method: &str, args: &[Value]) -> Result<ResultHandle> {
    let span = tr.begin("core.ainvoke_issue");
    let r = obj.ainvoke(method, args);
    tr.end(span);
    r
}

pub fn get_result(tr: &mut Tracer, handle: &ResultHandle) -> Result<Value> {
    let span = tr.begin("core.get_result_wait");
    let r = handle.get_result();
    tr.end(span);
    r
}

pub fn oinvoke(tr: &mut Tracer, obj: &JsObj, method: &str, args: &[Value]) -> Result<()> {
    let span = tr.begin("core.oinvoke_issue");
    let r = obj.oinvoke(method, args);
    tr.end(span);
    r
}

pub fn migrate(tr: &mut Tracer, obj: &JsObj, to: NodeId) -> Result<NodeId> {
    let span = tr.begin("core.migrate");
    let r = obj.migrate(MigrateTarget::ToPhys(to), None);
    tr.end(span);
    r
}

/// The first call on an object after it moved, spanned under its own name.
pub fn sinvoke_after_migrate(
    tr: &mut Tracer,
    obj: &JsObj,
    method: &str,
    args: &[Value],
) -> Result<Value> {
    let span = tr.begin("core.first_call_after_migrate");
    let r = obj.sinvoke(method, args);
    tr.end(span);
    r
}

/// Gives the machines of `cluster` back to the pool.
pub fn free_cluster(cluster: Cluster) -> Result<()> {
    Ok(cluster.free()?)
}

/// The machines of `cluster` in its own order (the lifecycle ring).
pub fn cluster_machines(cluster: &Cluster) -> Vec<NodeId> {
    cluster.machines()
}

pub fn location(obj: &JsObj) -> Result<NodeId> {
    obj.get_location()
}

pub fn store(tr: &mut Tracer, obj: &JsObj) -> Result<String> {
    let span = tr.begin("core.store");
    let r = obj.store(None);
    tr.end(span);
    r
}

pub fn free(tr: &mut Tracer, obj: &JsObj) -> Result<()> {
    let span = tr.begin("core.free");
    let r = obj.free();
    tr.end(span);
    r
}

// ---------------------------------------------------------------- Figure 5

/// One cell of Figure 5's 13-node column.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Fig5Cell {
    pub n: usize,
    pub day: bool,
}

pub struct Fig5Run {
    pub virt_seconds: f64,
    /// Real seconds the modeled time stands for (`virt_seconds × scale`).
    pub modeled_sleep_s: f64,
    pub messages: u64,
}

/// Runs one cell (boot → multiply → shutdown) in the paper's collective
/// configuration, unchanged. `verify` also computes and checks the product
/// (the run panics on a wrong one).
pub fn fig5_cell(tr: &mut Tracer, cell: Fig5Cell, nodes: usize, verify: bool) -> Fig5Run {
    let cfg = Fig5Config::paper_collective();
    let load = if cell.day {
        LoadKind::Day
    } else {
        LoadKind::Night
    };
    let scale = cfg.scale_for(cell.n);
    let span = tr.begin("cluster.fig5_cell");
    let run = run_cell_opts(
        cell.n,
        nodes,
        load,
        scale,
        cfg.seed,
        verify,
        cfg.kernel,
        cfg.batching,
        cfg.executor,
    );
    tr.end(span);
    Fig5Run {
        virt_seconds: run.seconds,
        modeled_sleep_s: run.seconds * scale,
        messages: run.messages,
    }
}

// ------------------------------------------------------------- bare layers

/// A bare `Network` with endpoints 0 and 1 on a microsecond-scale clock.
pub struct BareNet {
    net: Network,
    rx: [crossbeam::channel::Receiver<Envelope>; 2],
}

impl BareNet {
    pub fn new() -> BareNet {
        let net = Network::new(SimClock::new(TimeScale::new(1e-6)), Topology::new());
        let rx = [net.register(NodeId(0)), net.register(NodeId(1))];
        BareNet { net, rx }
    }

    #[inline]
    pub fn send(&self, src: u32, dst: u32, word: u64) -> bool {
        self.net
            .send(NodeId(src), NodeId(dst), Payload::new("probe", 64, word))
            .is_ok()
    }

    /// Blocks until endpoint `node` receives its next message; returns the
    /// word it carries.
    pub fn recv(&self, node: usize) -> u64 {
        let env = self.rx[node].recv().expect("network is up");
        *env.payload.downcast::<u64>().expect("a probe word")
    }

    /// Routes endpoint 0's node-local traffic to `hook` (inline delivery).
    pub fn set_local_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.net
            .set_local_hook(NodeId(0), Arc::new(move |_| hook()));
    }

    pub fn partition(&self) {
        self.net.partition(NodeId(0), NodeId(1));
    }

    pub fn heal(&self) {
        self.net.heal(NodeId(0), NodeId(1));
    }

    pub fn rejected(&self) -> u64 {
        self.net.stats().msgs_rejected
    }

    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

/// A bare executor with `threads` workers.
pub struct BareExec(Arc<Executor>);

impl BareExec {
    pub fn new(threads: usize) -> BareExec {
        BareExec(Executor::new(threads))
    }

    #[inline]
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.0.spawn(Box::new(job));
    }

    pub fn spawn_at(&self, at: Instant, job: impl FnOnce() + Send + 'static) {
        self.0.spawn_at(at, Box::new(job));
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A wait that depends on other executor jobs, with worker compensation.
pub fn exec_blocking<T>(f: impl FnOnce() -> T) -> T {
    jsym_exec::blocking(f)
}

/// Three in-process directory replicas on a manual clock and a zero-latency
/// bus; messages cross the codec on every hop as they do on the wire.
pub struct BareDir {
    replicas: Vec<DirReplica>,
    now: f64,
    heartbeat: f64,
    pub messages: u64,
}

impl BareDir {
    /// Elects a leader, commits one write and lets the read lease settle.
    pub fn new() -> BareDir {
        let config = DirConfig {
            lease_duration: 1.0,
            ..DirConfig::default()
        };
        let ids = [0, 1, 2];
        let mut dir = BareDir {
            replicas: ids
                .iter()
                .map(|&id| DirReplica::new(id, &ids, config, 0.0))
                .collect(),
            now: 0.0,
            heartbeat: config.heartbeat_interval,
            messages: 0,
        };
        while dir.leader().is_none() {
            dir.step();
        }
        dir.propose_and_commit(0, 0);
        dir.step();
        dir
    }

    fn leader(&self) -> Option<usize> {
        self.replicas.iter().position(|r| r.role() == Role::Leader)
    }

    /// Advances the clock one heartbeat, ticks every replica and delivers
    /// until the bus is quiet.
    fn step(&mut self) {
        self.now += self.heartbeat;
        let mut bus: Vec<(u32, u32, DirMsg)> = Vec::new();
        for r in &mut self.replicas {
            let from = r.id();
            bus.extend(r.tick(self.now).into_iter().map(|(to, m)| (from, to, m)));
        }
        while let Some((from, to, msg)) = bus.pop() {
            self.messages += 1;
            let msg = DirMsg::from_bytes(&msg.to_bytes()).expect("codec round trip");
            let out = self.replicas[to as usize].receive(from, msg, self.now);
            bus.extend(out.into_iter().map(|(next, m)| (to, next, m)));
        }
    }

    /// Proposes one placement on the leader and steps until it commits.
    pub fn propose_and_commit(&mut self, object: u64, node: u32) {
        let leader = self.leader().expect("a leader is elected");
        self.replicas[leader].take_events();
        let cmd = DirCommand::SetLocation { object, node };
        let seq = self.replicas[leader]
            .propose(cmd, self.now)
            .expect("the leader accepts proposals");
        loop {
            self.step();
            let committed = self.replicas[leader]
                .take_events()
                .iter()
                .any(|e| matches!(e, DirEvent::Committed { seq: s, .. } if *s == seq));
            if committed {
                return;
            }
        }
    }

    /// One linearizable read on the leader; `true` when the lease served it.
    pub fn read(&mut self) -> bool {
        let leader = self.leader().expect("a leader is elected");
        let seq = self.replicas[leader]
            .read_index(self.now)
            .expect("the leader accepts reads");
        self.replicas[leader]
            .take_events()
            .iter()
            .any(|e| matches!(e, DirEvent::ReadReady { seq: s, lease: true } if *s == seq))
    }
}

/// An append carrying one placement: the message a commit is made of.
pub fn dir_codec_roundtrip(object: u64) -> bool {
    let msg = DirMsg::Append {
        term: 3,
        prev_index: object,
        prev_term: 3,
        entries: vec![jsym_dir::LogEntry {
            term: 3,
            cmd: DirCommand::SetLocation { object, node: 2 },
        }],
        commit: object,
        probe: object,
    };
    DirMsg::from_bytes(&msg.to_bytes()).is_ok_and(|back| back == msg)
}

/// A `DistCol<f32>` over every machine of a zero-cost deployment.
pub struct BareCol {
    sut: Sut,
    col: DistCol<f32>,
    data: Vec<f32>,
}

impl BareCol {
    pub fn new(machines: usize, elems: usize) -> BareCol {
        let sut = Sut::boot(Opts::machines(machines, false), &mut Tracer::disabled());
        register_col_classes(&sut.d);
        let weights: Vec<(NodeId, f64)> = sut.machines.iter().map(|&m| (m, 1.0)).collect();
        let specs = partition_weighted(elems, &weights, 1);
        let col = DistCol::<f32>::create_default(&sut.reg, &specs).expect("create the collection");
        let data = (0..elems).map(|i| (i % 1000) as f32).collect();
        BareCol { sut, col, data }
    }

    pub fn scatter(&self) {
        self.col.scatter(&self.data).expect("scatter");
    }

    pub fn gather(&self) -> bool {
        self.col.gather().expect("gather") == self.data
    }

    pub fn reduce(&self) -> Option<f32> {
        self.col.reduce(ReduceOp::Max).expect("reduce")
    }

    /// Moves the first machine's chunk to the last machine.
    pub fn relocate(&mut self) -> usize {
        let range = self.col.chunk_range(0);
        let to = *self.sut.machines.last().expect("machines");
        self.col.relocate(range, to).expect("relocate")
    }

    pub fn shutdown(self) {
        self.col.free().expect("free the collection");
        self.sut.shutdown(&mut Tracer::disabled());
    }
}

/// A bare observability registry and the three things the program does with
/// one on its hot paths.
pub struct BareObs {
    obs: ObsRegistry,
    counter: jsym_obs::Counter,
    histogram: jsym_obs::Histogram,
}

impl BareObs {
    pub fn new() -> BareObs {
        let obs = ObsRegistry::new();
        let counter = obs.counter("probe.counter", Some(0), "");
        let histogram = obs.histogram(
            "probe.histogram",
            Some(0),
            "",
            jsym_obs::bounds::LATENCY_SECONDS,
        );
        BareObs {
            obs,
            counter,
            histogram,
        }
    }

    #[inline]
    pub fn counter_inc(&self) {
        self.counter.inc();
    }

    #[inline]
    pub fn hist_observe(&self, v: f64) {
        self.histogram.observe(v);
    }

    #[inline]
    pub fn span(&self, at: f64) {
        self.obs.tracer().span("probe.span", at).finish(at + 1e-6);
    }
}
