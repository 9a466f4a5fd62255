//! The JS-Shell and deployments.
//!
//! Paper §5: "The nodes on which JRS is installed are configured by using
//! the JS-Shell. The set of nodes can be changed by adding or removing nodes
//! dynamically ... The performance measurement and collection periods can be
//! controlled under the JS-Shell ... it is possible to enable/disable
//! automatic migration under the JS-Shell."
//!
//! [`JsShell`] is the configuration builder; [`JsShell::boot`] brings up a
//! [`Deployment`]: one work-stealing executor, one node runtime per machine
//! (tasks on that executor, no thread of its own), a simulated network wired
//! from each machine's link class, the virtual-architecture registry, the
//! class registry and the object store.

use crate::appoa::AppShared;
use crate::class::ClassRegistry;
use crate::cost::CostModel;
use crate::error::JsError;
use crate::ids::{AppId, IdGen};
use crate::na::{self, NaConfig, NaState};
use crate::persist::ObjectStore;
use crate::registration::JsRegistration;
use crate::runtime::{self, NodeShared, RuntimeConfig, StatCounters};
use crate::Result;
use crate::{automigrate, recovery};
use jsym_net::{LinkClass, Network, NodeId, SimClock, TimeScale, Topology};
use jsym_sysmon::{LoadModel, LoadProfile, MachineSpec, SimMachine, SysSnapshot};
use jsym_vda::{ResourcePool, VdaRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One machine to bring up: spec, background-load model and network
/// attachment.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Static machine description.
    pub spec: MachineSpec,
    /// Background (other-user) load model.
    pub load: LoadModel,
    /// Network attachment class.
    pub link: LinkClass,
}

impl MachineConfig {
    /// An idle machine on fast Ethernet — the common test fixture.
    pub fn idle(name: &str, peak_mflops: f64) -> Self {
        MachineConfig {
            spec: MachineSpec::generic(name, peak_mflops, 256.0),
            load: LoadModel::new(LoadProfile::Idle, 0),
            link: LinkClass::Lan100,
        }
    }
}

/// Configuration of the affinity plane (DESIGN.md §14): decayed
/// caller→object traffic counters feeding affinity-guided re-placement,
/// plus lease-based local reads in the replicated directory.
///
/// Everything defaults to **off**, in which state the runtime is
/// byte-identical to a deployment without the plane — the differential
/// oracle the affinity proptests compare against.
#[derive(Clone, Copy, Debug)]
pub struct AffinityConfig {
    /// Migrate hot objects toward their dominant callers during
    /// automigrate supervisor rounds (also enables traffic recording).
    pub placement: bool,
    /// Grant directory read leases so `resolve_location` on the leader is
    /// served locally without a read-index heartbeat round (requires
    /// [`JsShell::directory_replicas`] > 0 to have any effect).
    pub leases: bool,
    /// Traffic-counter half-life in virtual seconds.
    pub half_life: f64,
    /// Minimum dominant-caller share of an object's call mass before it is
    /// migrated (hysteresis against ping-pong under mixed traffic).
    pub min_share: f64,
    /// Minimum decayed call mass before an object counts as hot.
    pub min_calls: f64,
    /// Virtual seconds an object is ineligible after an affinity migration.
    pub cooldown: f64,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            placement: false,
            leases: false,
            half_life: 20.0,
            min_share: 0.6,
            min_calls: 8.0,
            cooldown: 30.0,
        }
    }
}

impl AffinityConfig {
    /// Placement and leases both on, default thresholds.
    pub fn enabled() -> Self {
        AffinityConfig {
            placement: true,
            leases: true,
            ..AffinityConfig::default()
        }
    }
}

/// The JS-Shell: deployment configuration builder.
#[derive(Clone, Debug)]
pub struct JsShell {
    machines: Vec<MachineConfig>,
    time_scale: TimeScale,
    monitor_period: f64,
    failure_timeout: f64,
    automigration: bool,
    automigrate_period: f64,
    checkpointing: Option<f64>,
    cost: CostModel,
    call_timeout: Duration,
    store: Option<ObjectStore>,
    shared_segments: Vec<LinkClass>,
    observability: bool,
    directory_replicas: u32,
    rmi_batching: Option<jsym_net::BatchConfig>,
    executor_threads: usize,
    pub(crate) affinity: AffinityConfig,
}

impl JsShell {
    /// A shell with no machines and default tunables (1 virtual s = 1 real
    /// ms, 2 s monitoring period, 10 s failure timeout, auto-migration off).
    pub fn new() -> Self {
        JsShell {
            machines: Vec::new(),
            time_scale: TimeScale::default(),
            monitor_period: NaConfig::default().monitor_period,
            failure_timeout: NaConfig::default().failure_timeout,
            automigration: false,
            automigrate_period: 4.0,
            checkpointing: None,
            cost: CostModel::default(),
            call_timeout: Duration::from_secs(120),
            store: None,
            shared_segments: Vec::new(),
            observability: true,
            directory_replicas: 0,
            rmi_batching: None,
            executor_threads: 0,
            affinity: AffinityConfig::default(),
        }
    }

    /// Adds a machine to the configuration.
    pub fn add_machine(mut self, machine: MachineConfig) -> Self {
        self.machines.push(machine);
        self
    }

    /// Adds several machines.
    pub fn add_machines(mut self, machines: impl IntoIterator<Item = MachineConfig>) -> Self {
        self.machines.extend(machines);
        self
    }

    /// Sets the virtual-to-real time scale.
    pub fn time_scale(mut self, real_per_virt: f64) -> Self {
        self.time_scale = TimeScale::new(real_per_virt);
        self
    }

    /// Sets the monitoring period (virtual seconds): how often each NA
    /// samples and reports, and for how long the architecture registry
    /// answers allocation and component queries from one sample per machine
    /// (`DESIGN.md` §9).
    pub fn monitor_period(mut self, secs: f64) -> Self {
        self.monitor_period = secs;
        self
    }

    /// Sets the failure timeout (virtual seconds of silence).
    pub fn failure_timeout(mut self, secs: f64) -> Self {
        self.failure_timeout = secs;
        self
    }

    /// Enables automatic migration with the given check period (virtual
    /// seconds).
    pub fn automigration(mut self, enabled: bool, period: f64) -> Self {
        self.automigration = enabled;
        self.automigrate_period = period;
        self
    }

    /// Enables periodic object checkpointing and failure recovery (paper §7
    /// future work): every `period` virtual seconds each application object
    /// is persisted; when the NAS declares a node failed, its objects are
    /// re-created from their latest checkpoints on surviving machines.
    pub fn checkpointing(mut self, period: f64) -> Self {
        self.checkpointing = Some(period);
        self
    }

    /// Overrides the RMI/serialization cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the real-time budget for one request/reply exchange.
    pub fn call_timeout(mut self, timeout: Duration) -> Self {
        self.call_timeout = timeout;
        self
    }

    /// Uses a specific object store (e.g. an on-disk one).
    pub fn object_store(mut self, store: ObjectStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Models a link class as a *shared medium* (one transmission at a time
    /// across the whole segment) — the paper's 10 Mbit/s Ethernet was a
    /// shared segment, not a switch.
    pub fn shared_segment(mut self, class: LinkClass) -> Self {
        self.shared_segments.push(class);
        self
    }

    /// Enables or disables the observability subsystem (metrics + span
    /// tracing). On by default; when disabled every instrumentation point
    /// collapses to a single branch and no clock reads or allocations occur.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Hosts the replicated object/manager directory on the first `n`
    /// machines (`0` — the default — keeps the legacy single-authority
    /// resolution through each object's origin AppOA).
    ///
    /// With replication on, placement changes are written through to a
    /// leader-based replicated log with majority commit, and location
    /// resolution reads from the directory leader; the directory survives
    /// any minority of replica failures (DESIGN.md §10). Use an odd `n`
    /// (3 or 5) so a majority exists after failures.
    pub fn directory_replicas(mut self, n: u32) -> Self {
        self.directory_replicas = n;
        self
    }

    /// Enables RMI batching: cross-node messages with the same source and
    /// destination that fall inside one `flush_window` (virtual seconds) are
    /// coalesced into a single transfer paying the link latency once plus
    /// the summed payload bytes, flushed early when the batch reaches
    /// `max_bytes`. Per-message delivery semantics, ordering and `NetStats`
    /// attribution are preserved exactly (DESIGN.md §12); node-local traffic
    /// is never batched. Off by default.
    pub fn rmi_batching(mut self, flush_window: f64, max_bytes: usize) -> Self {
        self.rmi_batching = Some(jsym_net::BatchConfig {
            flush_window: flush_window.max(0.0),
            max_bytes: max_bytes.max(1),
            ..jsym_net::BatchConfig::default()
        });
        self
    }

    /// RMI batching with an adaptive flush window: each source/destination
    /// pair tracks an EWMA of its inter-send gaps and flushes after about
    /// two expected gaps, clamped to `[flush_window / 16, flush_window]`.
    /// Chatty pairs stop paying the full window of added latency; sparse
    /// pairs keep the configured ceiling. Semantics are otherwise identical
    /// to [`JsShell::rmi_batching`].
    pub fn rmi_batching_adaptive(mut self, flush_window: f64, max_bytes: usize) -> Self {
        self.rmi_batching = Some(jsym_net::BatchConfig {
            flush_window: flush_window.max(0.0),
            max_bytes: max_bytes.max(1),
            adaptive: true,
        });
        self
    }

    /// Sizes the deployment-wide work-stealing executor every node runs on
    /// (`0` — the default — means [`DEFAULT_EXECUTOR_WORKERS`]). Deliveries
    /// dispatch into node runtimes as executor tasks, NA monitor rounds and
    /// directory replica ticks are self-re-arming timer tasks, and blocking
    /// waits hand their worker to a spare, so no node owns a thread and one
    /// process can simulate tens of thousands of nodes (DESIGN.md §13).
    pub fn executor(mut self, threads: usize) -> Self {
        self.executor_threads = threads;
        self
    }

    /// Configures the affinity plane: decayed caller→object traffic
    /// counters drive affinity-guided re-placement during automigrate
    /// supervisor rounds, and the replicated directory serves leader-local
    /// lease reads (DESIGN.md §14). Off by default; with every
    /// [`AffinityConfig`] toggle off the runtime is byte-identical to one
    /// without the plane.
    pub fn affinity(mut self, config: AffinityConfig) -> Self {
        self.affinity = config;
        self
    }

    /// Boots the deployment: spawns every node runtime and the NAS.
    pub fn boot(self) -> Deployment {
        let clock = SimClock::new(self.time_scale);
        let obs = if self.observability {
            jsym_obs::ObsRegistry::new()
        } else {
            jsym_obs::ObsRegistry::disabled()
        };
        let exec = jsym_exec::Executor::with_obs(
            match self.executor_threads {
                0 => DEFAULT_EXECUTOR_WORKERS,
                n => n,
            },
            obs.clone(),
        );
        let mut topo = Topology::new();
        let network = {
            // Machines get ids 0..n in order; set link classes up front.
            for (i, m) in self.machines.iter().enumerate() {
                topo.set_node_class(NodeId(i as u32), m.link);
            }
            // The delivery plane's wake-ups are executor timer tasks, and
            // every delivery is dispatched into the destination runtime by
            // its hook from the drain task.
            let e = Arc::clone(&exec);
            let spawner: jsym_net::SpawnAt = Arc::new(move |at, job| e.spawn_at(at, job));
            Network::with_obs_and_spawner(
                clock.clone(),
                topo,
                jsym_net::NetworkConfig {
                    shared_segments: self.shared_segments.clone(),
                    batching: self.rmi_batching.clone(),
                    ..jsym_net::NetworkConfig::default()
                },
                obs.clone(),
                Some(spawner),
            )
        };
        let pool = ResourcePool::new();
        let vda = VdaRegistry::with_obs(pool.clone(), obs.clone());
        vda.set_plane_config(jsym_vda::PlaneConfig {
            ttl: self.monitor_period,
            ..jsym_vda::PlaneConfig::default()
        });
        let classes = ClassRegistry::new();
        let store = self.store.clone().unwrap_or_default();
        let events = crate::EventLog::with_tracer(4096, obs.tracer().clone());

        // The replicated directory lives on the first n machines (machines
        // get ids 0..n in boot order). Clamped: every replica needs a host.
        let dir = match self.directory_replicas.min(self.machines.len() as u32) {
            0 => None,
            n => Some(Arc::new(crate::dir::DirCluster::new(
                (0..n).map(NodeId).collect(),
            ))),
        };

        let affinity = Arc::new(jsym_net::AffinityTracker::new(self.affinity.half_life));
        affinity.set_enabled(self.affinity.placement);

        let inner = Arc::new(DeploymentInner {
            clock: clock.clone(),
            network: network.clone(),
            pool: pool.clone(),
            vda: vda.clone(),
            classes,
            store,
            events,
            obs,
            cost: self.cost,
            config: self.clone(),
            nodes: RwLock::new(HashMap::new()),
            apps: RwLock::new(HashMap::new()),
            automigration: AtomicBool::new(self.automigration),
            automigrate_rounds: AtomicU64::new(0),
            affinity,
            affinity_placement: AtomicBool::new(self.affinity.placement),
            affinity_migrations: AtomicU64::new(0),
            affinity_rounds: AtomicU64::new(0),
            dir,
            exec,
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });

        for m in &self.machines {
            Deployment::spawn_node(&inner, m.clone());
        }

        // The auto-migration supervisor (enabled/disabled via the shell).
        {
            let weak = Arc::downgrade(&inner);
            let period = self.automigrate_period;
            let handle = std::thread::Builder::new()
                .name("jsym-automigrate".into())
                .spawn(move || automigrate::run(weak, period))
                .expect("spawn automigrate thread");
            inner.threads.lock().push(handle);
        }

        // Mirror vda manager-role transitions into the replicated directory:
        // every `ManagerChanged` (including backup takeover on failure)
        // becomes a majority-committed `SetRole`, so role assignments are a
        // directory transition visible to any surviving replica.
        if inner.dir.is_some() {
            let weak = Arc::downgrade(&inner);
            let rx = vda.subscribe();
            let handle = std::thread::Builder::new()
                .name("jsym-dir-roles".into())
                .spawn(move || run_role_mirror(weak, rx))
                .expect("spawn dir role mirror");
            inner.threads.lock().push(handle);
        }

        // Checkpointing + failure recovery (paper §7 future work).
        if let Some(period) = self.checkpointing {
            let weak = Arc::downgrade(&inner);
            let handle = std::thread::Builder::new()
                .name("jsym-checkpoint".into())
                .spawn(move || recovery::run_checkpointer(weak, period))
                .expect("spawn checkpoint thread");
            inner.threads.lock().push(handle);
            let weak = Arc::downgrade(&inner);
            let handle = std::thread::Builder::new()
                .name("jsym-recovery".into())
                .spawn(move || recovery::run_recovery(weak))
                .expect("spawn recovery thread");
            inner.threads.lock().push(handle);
        }

        Deployment { inner }
    }
}

impl Default for JsShell {
    fn default() -> Self {
        JsShell::new()
    }
}

/// Executor workers of a deployment whose shell did not size it. Measured,
/// not guessed (DESIGN.md §13, `perf/` on a 2-CPU host): with 2 the Figure 5
/// cells run at 0.34 per second instead of 0.41 and their slow half takes a
/// quarter longer; with one per node of the 13-node column a cell costs 40 %
/// more CPU and the slow half of a synchronous local RMI is 19 % slower; 4
/// holds all three.
pub const DEFAULT_EXECUTOR_WORKERS: usize = 4;

pub(crate) struct DeploymentInner {
    pub clock: SimClock,
    pub network: Network,
    pub pool: ResourcePool,
    pub vda: VdaRegistry,
    pub classes: ClassRegistry,
    pub store: ObjectStore,
    pub events: crate::EventLog,
    pub obs: jsym_obs::ObsRegistry,
    pub cost: CostModel,
    pub config: JsShell,
    pub nodes: RwLock<HashMap<NodeId, Arc<NodeShared>>>,
    pub apps: RwLock<HashMap<AppId, Arc<AppShared>>>,
    pub automigration: AtomicBool,
    pub automigrate_rounds: AtomicU64,
    /// Decayed caller→object traffic counters (recording gated internally).
    pub affinity: Arc<jsym_net::AffinityTracker>,
    /// Whether affinity-guided re-placement rounds run.
    pub affinity_placement: AtomicBool,
    /// Objects moved toward a dominant caller by the affinity loop.
    pub affinity_migrations: AtomicU64,
    /// Affinity placement rounds completed.
    pub affinity_rounds: AtomicU64,
    /// Client view of the replicated directory (`None` = legacy resolution).
    pub dir: Option<Arc<crate::dir::DirCluster>>,
    /// The deployment-wide work-stealing executor.
    pub exec: Arc<jsym_exec::Executor>,
    pub shutdown: AtomicBool,
    pub threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running JavaSymphony deployment.
///
/// Cloning shares the deployment. Dropping the last clone shuts it down.
#[derive(Clone)]
pub struct Deployment {
    inner: Arc<DeploymentInner>,
}

/// Point-in-time affinity-plane statistics (shell `affinity` command).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AffinityStats {
    /// Whether affinity-guided re-placement (and traffic recording) is on.
    pub placement: bool,
    /// Whether the directory grants read leases (boot-time choice).
    pub leases: bool,
    /// Traffic-counter half-life in virtual seconds.
    pub half_life: f64,
    /// Objects with live traffic counters.
    pub objects: usize,
    /// `(caller, object)` pairs with live traffic counters.
    pub pairs: usize,
    /// Affinity placement rounds completed.
    pub rounds: u64,
    /// Objects moved toward a dominant caller by the affinity loop.
    pub migrations: u64,
}

/// Point-in-time runtime counters of one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Methods executed by this node's PubOA.
    pub invocations: u64,
    /// Objects created here.
    pub creations: u64,
    /// Migrations that arrived here.
    pub migrations_in: u64,
    /// Migrations that left here.
    pub migrations_out: u64,
    /// Codebase bytes ever loaded here.
    pub artifact_bytes: u64,
    /// Objects persisted from here.
    pub stores: u64,
    /// Objects currently hosted.
    pub objects_hosted: usize,
    /// Monitoring rounds completed by the NA.
    pub monitor_rounds: u64,
    /// Always 0: nodes have no thread pool of their own any more (blocked
    /// workers are compensated by executor spares, see
    /// [`jsym_exec::ExecStats::spare_spawns`]). Kept for readers of the field.
    pub transient_workers: u64,
}

impl Deployment {
    fn spawn_node(inner: &Arc<DeploymentInner>, config: MachineConfig) -> NodeId {
        let machine = SimMachine::new(config.spec, config.load, inner.clock.clone());
        let phys = inner.pool.add_machine(machine.clone());
        inner
            .network
            .topology()
            .write()
            .set_node_class(phys, config.link);
        let dir = inner.dir.clone();
        let dir_host = match &dir {
            Some(c) if c.replicas.contains(&phys) => Some(Arc::new(crate::dir::DirHost::new(
                phys,
                &c.replicas,
                inner.clock.scale(),
                inner.config.affinity.leases,
                inner.clock.now(),
            ))),
            _ => None,
        };
        let shared = Arc::new(NodeShared {
            phys,
            machine,
            clock: inner.clock.clone(),
            net: inner.network.clone(),
            classes: inner.classes.clone(),
            cost: inner.cost,
            config: RuntimeConfig {
                call_timeout: inner.config.call_timeout,
                ..RuntimeConfig::default()
            },
            store: inner.store.clone(),
            calls: crate::calltable::CallTable::new(),
            objects: Mutex::new(HashMap::new()),
            statics: Mutex::new(HashMap::new()),
            loaded: Mutex::new(std::collections::HashSet::new()),
            apps: RwLock::new(HashMap::new()),
            location_cache: Mutex::new(HashMap::new()),
            affinity: Arc::clone(&inner.affinity),
            na: NaState::new(NaConfig {
                monitor_period: inner.config.monitor_period,
                failure_timeout: inner.config.failure_timeout,
                history: 16,
            }),
            stats: StatCounters::default(),
            events: inner.events.clone(),
            obs: inner.obs.clone(),
            workers: Arc::clone(&inner.exec),
            dir,
            dir_host,
            shutdown: AtomicBool::new(false),
        });
        // Deliveries dispatch straight into the runtime from the delivery
        // plane's drain task. The hook holds the node weakly: shutdown drops
        // the runtime even if the network outlives it, and a hook firing
        // during teardown is a no-op.
        {
            let weak = Arc::downgrade(&shared);
            inner.network.set_local_hook(
                phys,
                Arc::new(move |env| {
                    if let Some(sh) = weak.upgrade() {
                        if !sh.shutdown.load(Ordering::Relaxed) {
                            runtime::dispatch(&sh, env);
                        }
                    }
                }),
            );
        }
        // Register only after the hook is installed: every delivery is
        // hook-routed and nothing reads the mailbox, so nothing must ever be
        // able to land in it.
        drop(inner.network.register(phys));
        // NA rounds and directory ticks are self-re-arming timer tasks.
        na::schedule_monitor(Arc::clone(&shared), inner.vda.clone());
        crate::dir::schedule_dir_ticker(Arc::clone(&shared));
        inner.nodes.write().insert(phys, shared);
        phys
    }

    // ------------------------------------------------------------ accessors

    /// The deployment's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.inner.network
    }

    /// The physical machine pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.inner.pool
    }

    /// The virtual-architecture registry.
    pub fn vda(&self) -> &VdaRegistry {
        &self.inner.vda
    }

    /// The class registry — register application classes here.
    pub fn classes(&self) -> &ClassRegistry {
        &self.inner.classes
    }

    /// The external object store.
    pub fn store(&self) -> &ObjectStore {
        &self.inner.store
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.inner.cost
    }

    /// Machines currently part of the deployment (ascending ids).
    pub fn machines(&self) -> Vec<NodeId> {
        self.inner.pool.ids()
    }

    // --------------------------------------------------------- applications

    /// Registers an application, homing its AppOA on the lowest-id machine.
    pub fn register_app(&self) -> Result<JsRegistration> {
        let home = self
            .machines()
            .into_iter()
            .next()
            .ok_or_else(|| JsError::PlacementFailed("deployment has no machines".into()))?;
        self.register_app_on(home)
    }

    /// Registers an application homed on a specific machine.
    pub fn register_app_on(&self, home: NodeId) -> Result<JsRegistration> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(JsError::ShuttingDown);
        }
        let nodes = self.inner.nodes.read();
        let node = nodes.get(&home).ok_or(JsError::NodeUnreachable(home))?;
        let app = Arc::new(AppShared {
            id: IdGen::app(),
            home,
            node: Arc::downgrade(node),
            pool: self.inner.pool.clone(),
            vda: self.inner.vda.clone(),
            objects: Mutex::new(HashMap::new()),
            unregistered: AtomicBool::new(false),
        });
        node.apps.write().insert(app.id, Arc::clone(&app));
        self.inner.apps.write().insert(app.id, Arc::clone(&app));
        Ok(JsRegistration::new(app))
    }

    // -------------------------------------------------------- shell actions

    /// Adds a machine at runtime (JS-Shell grow).
    pub fn add_machine(&self, config: MachineConfig) -> NodeId {
        Deployment::spawn_node(&self.inner, config)
    }

    /// Gracefully removes a machine (JS-Shell shrink, paper §5: "The set of
    /// nodes can be changed by adding or removing nodes dynamically").
    ///
    /// Refuses while the machine still hosts objects or backs a live
    /// virtual node — drain it first (migrate/free, release architectures).
    pub fn remove_machine(&self, phys: NodeId) -> Result<()> {
        {
            let nodes = self.inner.nodes.read();
            let handle = nodes.get(&phys).ok_or(JsError::NodeUnreachable(phys))?;
            let hosted = handle.objects.lock().len();
            if hosted > 0 {
                return Err(JsError::PlacementFailed(format!(
                    "{phys} still hosts {hosted} object(s); migrate or free them first"
                )));
            }
        }
        // Any live virtual node backed by this machine blocks removal.
        let backing = self.inner.vda.allocation_count(phys);
        if backing > 0 {
            return Err(JsError::PlacementFailed(format!(
                "{phys} backs {backing} live virtual node(s); free the architecture first"
            )));
        }
        let handle = {
            let mut nodes = self.inner.nodes.write();
            nodes.remove(&phys)
        };
        if let Some(handle) = handle {
            handle.shutdown.store(true, Ordering::Relaxed);
            handle.calls.fail_all(JsError::ShuttingDown);
            self.inner.network.unregister(phys);
        }
        self.inner.pool.remove_machine(phys);
        Ok(())
    }

    /// Kills a machine: its endpoint drops off the network and its runtime
    /// tasks stop. Failure *detection* is left to the NAS heartbeats.
    pub fn kill_node(&self, phys: NodeId) {
        self.inner.network.kill_node(phys);
        if let Some(handle) = self.inner.nodes.read().get(&phys) {
            handle.shutdown.store(true, Ordering::Relaxed);
            handle.calls.fail_all(JsError::NodeUnreachable(phys));
        }
    }

    /// Changes the NAS monitoring period at runtime (JS-Shell, §5.1: "The
    /// performance measurement and collection periods can be controlled
    /// under the JS-Shell").
    pub fn set_monitor_period(&self, secs: f64) {
        // The aggregation plane's sample TTL tracks the monitoring period.
        self.inner.vda.set_plane_ttl(secs);
        // Each node's monitor chain is an already-armed timer task that would
        // only pick up the new period after its old deadline fires. Re-arm
        // with the new period now; bumping the generation counter first makes
        // the superseded chain die at its next firing instead of running
        // duplicate rounds alongside the new chain.
        for node in self.inner.nodes.read().values() {
            node.na.knobs.set_monitor_period(secs);
            node.na.timer_gen.fetch_add(1, Ordering::Relaxed);
            na::schedule_monitor(Arc::clone(node), self.inner.vda.clone());
        }
    }

    /// Changes the NAS failure timeout at runtime (JS-Shell, §5.1: the
    /// no-response period is "changeable under JS-Shell").
    pub fn set_failure_timeout(&self, secs: f64) {
        for node in self.inner.nodes.read().values() {
            node.na.knobs.set_failure_timeout(secs);
        }
    }

    /// Enables/disables automatic object migration (JS-Shell toggle, §5.2).
    pub fn set_automigration(&self, enabled: bool) {
        self.inner.automigration.store(enabled, Ordering::Relaxed);
    }

    /// Whether automatic migration is currently enabled.
    pub fn automigration_enabled(&self) -> bool {
        self.inner.automigration.load(Ordering::Relaxed)
    }

    /// Statistics of the parameter aggregation plane (cache hits/misses,
    /// dirty-set and placement-index sizes).
    pub fn plane_stats(&self) -> jsym_vda::PlaneStats {
        self.inner.vda.plane_stats()
    }

    /// Enables/disables affinity-guided re-placement at runtime: toggles
    /// both traffic recording and the placement rounds of the automigrate
    /// supervisor. Directory read leases are a boot-time choice
    /// ([`AffinityConfig::leases`]) and are unaffected.
    pub fn set_affinity(&self, enabled: bool) {
        self.inner.affinity.set_enabled(enabled);
        self.inner
            .affinity_placement
            .store(enabled, Ordering::Relaxed);
    }

    /// Whether affinity-guided re-placement is currently enabled.
    pub fn affinity_enabled(&self) -> bool {
        self.inner.affinity_placement.load(Ordering::Relaxed)
    }

    /// Point-in-time affinity-plane statistics.
    pub fn affinity_stats(&self) -> AffinityStats {
        let t = self.inner.affinity.stats();
        AffinityStats {
            placement: self.affinity_enabled(),
            leases: self.inner.config.affinity.leases,
            half_life: self.inner.affinity.half_life(),
            objects: t.objects,
            pairs: t.pairs,
            rounds: self.inner.affinity_rounds.load(Ordering::Relaxed),
            migrations: self.inner.affinity_migrations.load(Ordering::Relaxed),
        }
    }

    /// Whether this deployment runs the replicated directory.
    pub fn directory_enabled(&self) -> bool {
        self.inner.dir.is_some()
    }

    /// Point-in-time status of every live directory replica, ascending by
    /// node id. Empty when the directory is disabled; killed replicas are
    /// omitted (their runtime is gone).
    pub fn directory_status(&self) -> Vec<crate::DirectoryStatus> {
        let nodes = self.inner.nodes.read();
        let mut out: Vec<crate::DirectoryStatus> = nodes
            .values()
            .filter(|h| !h.shutdown.load(Ordering::Relaxed))
            .filter_map(|h| h.dir_host.as_ref().map(|host| host.status()))
            .collect();
        out.sort_by_key(|s| s.node);
        out
    }

    // ------------------------------------------------------------ telemetry

    /// Runtime counters of one node.
    pub fn node_stats(&self, phys: NodeId) -> Option<NodeStats> {
        let nodes = self.inner.nodes.read();
        let h = nodes.get(&phys)?;
        let s = &h.stats;
        let objects_hosted = h.objects.lock().len();
        Some(NodeStats {
            invocations: s.invocations.load(Ordering::Relaxed),
            creations: s.creations.load(Ordering::Relaxed),
            migrations_in: s.migrations_in.load(Ordering::Relaxed),
            migrations_out: s.migrations_out.load(Ordering::Relaxed),
            artifact_bytes: s.artifact_bytes.load(Ordering::Relaxed),
            stores: s.stores.load(Ordering::Relaxed),
            objects_hosted,
            monitor_rounds: h.na.rounds.load(Ordering::Relaxed),
            transient_workers: 0,
        })
    }

    /// The latest NA snapshot of a node (None before the first round).
    pub fn latest_snapshot(&self, phys: NodeId) -> Option<SysSnapshot> {
        self.inner.nodes.read().get(&phys)?.na.latest.lock().clone()
    }

    /// A manager-side aggregate computed by the NAS, by component label
    /// (e.g. `"vc0"` for the first cluster).
    pub fn aggregated_snapshot(&self, manager: NodeId, label: &str) -> Option<SysSnapshot> {
        self.inner
            .nodes
            .read()
            .get(&manager)?
            .na
            .aggregated
            .lock()
            .get(label)
            .cloned()
    }

    /// Artifacts currently loaded on a node.
    pub fn loaded_artifacts(&self, phys: NodeId) -> Vec<String> {
        self.inner
            .nodes
            .read()
            .get(&phys)
            .map(|h| {
                let mut v: Vec<String> = h.loaded.lock().iter().cloned().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// Network traffic counters.
    pub fn net_stats(&self) -> jsym_net::NetStatsSnapshot {
        self.inner.network.stats()
    }

    /// Delivery-plane hot-path contention counters (stripe-lock waits,
    /// endpoint-cache hit/miss) — see [`jsym_net::NetHotStats`].
    pub fn net_hot_stats(&self) -> jsym_net::NetHotStats {
        self.inner.network.hot_stats()
    }

    /// The deployment's structural event log (creations, migrations,
    /// classloading, persistence, failures, recovery).
    pub fn events(&self) -> &crate::EventLog {
        &self.inner.events
    }

    /// The deployment-scoped observability registry: metrics and span
    /// tracer for every node, the network and the protocol machinery.
    pub fn obs(&self) -> &jsym_obs::ObsRegistry {
        &self.inner.obs
    }

    /// Per-endpoint network traffic counters (sent/delivered/dropped/
    /// rejected), ascending by node id.
    pub fn endpoint_stats(&self) -> Vec<jsym_net::EndpointStatsSnapshot> {
        self.inner.network.endpoint_stats()
    }

    /// Stops every node runtime, the supervisor threads, the network and the
    /// executor. Idempotent; also runs on drop of the last clone.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for node in std::mem::take(&mut *self.inner.nodes.write()).values() {
            node.shutdown.store(true, Ordering::Relaxed);
            node.calls.fail_all(JsError::ShuttingDown);
        }
        let mut threads = std::mem::take(&mut *self.inner.threads.lock());
        for t in threads.drain(..) {
            let _ = t.join();
        }
        self.inner.network.shutdown();
        // Last: the executor joins its workers and drops every pending
        // task (each holds an `Arc<NodeShared>` keeping its runtime alive).
        self.inner.exec.shutdown();
    }

    /// Base worker threads of the executor.
    pub fn executor_threads(&self) -> usize {
        self.inner.exec.threads()
    }

    /// Point-in-time executor counters. Always `Some`: the executor is the
    /// only runtime (the `Option` is what callers already compile against).
    pub fn exec_stats(&self) -> Option<jsym_exec::ExecStats> {
        Some(self.inner.exec.stats())
    }
}

/// Body of the `jsym-dir-roles` thread: forwards every vda manager change
/// to the directory as a `SetRole` proposal through any live node runtime.
fn run_role_mirror(
    weak: std::sync::Weak<DeploymentInner>,
    rx: crossbeam::channel::Receiver<jsym_vda::VdaEvent>,
) {
    use crossbeam::channel::RecvTimeoutError;
    loop {
        let ev = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => {
                match weak.upgrade() {
                    Some(inner) if !inner.shutdown.load(Ordering::Relaxed) => continue,
                    _ => return,
                };
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let jsym_vda::VdaEvent::ManagerChanged {
            scope, new_manager, ..
        } = ev
        else {
            continue;
        };
        let Some(inner) = weak.upgrade() else { return };
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let manager = new_manager.map(|nk| inner.vda.node_handle(nk).phys().0);
        let cmd = jsym_dir::DirCommand::SetRole {
            scope: crate::dir::scope_key(scope),
            manager,
            backup: None,
        };
        // Propose through any node runtime that is still up; a directory
        // quorum behind it handles replica deaths.
        let shared = inner
            .nodes
            .read()
            .values()
            .filter(|h| !h.shutdown.load(Ordering::Relaxed))
            .min_by_key(|s| s.phys)
            .cloned();
        drop(inner);
        if let Some(s) = shared {
            let _ = crate::dir::propose(&s, &cmd);
        }
    }
}

impl Drop for DeploymentInner {
    fn drop(&mut self) {
        // Last clone gone without an explicit shutdown: stop threads without
        // joining (joining from drop of the map they reference is fine here
        // because we own everything now).
        self.shutdown.store(true, Ordering::SeqCst);
        for node in self.nodes.read().values() {
            node.shutdown.store(true, Ordering::Relaxed);
        }
        self.network.shutdown();
        self.exec.shutdown();
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("machines", &self.inner.pool.len())
            .field("apps", &self.inner.apps.read().len())
            .finish()
    }
}
