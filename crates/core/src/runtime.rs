//! Per-node runtime: the paper's "single JVM" hosting the node's public
//! object agent and network agent, plus the dispatcher that routes incoming
//! messages to the right agent. A node owns no thread: everything it does
//! runs as a task on the deployment's executor.

use crate::calltable::CallTable;
use crate::class::{ClassRegistry, ObjectCaller};
use crate::cost::CostModel;
use crate::error::JsError;
use crate::ids::{AgentAddr, AgentKind, IdGen, ObjectHandle, ObjectId, ReqId};
use crate::intern::Sym;
use crate::msg::{Msg, Packet};
use crate::na::NaState;
use crate::persist::ObjectStore;
use crate::value::{args_wire_size, Value};
use crate::{appoa, puboa, Result};
use jsym_exec::{helping, Executor};
use jsym_net::{Envelope, Network, NodeId, Payload, SimClock};
use jsym_sysmon::SimMachine;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An object instance hosted by a PubOA (one row of the paper's
/// remote-objects-table).
#[derive(Clone)]
pub(crate) struct ObjEntry {
    pub class: Sym,
    /// The AppOA this object originates from — the location authority.
    pub origin: AgentAddr,
    /// The instance; the mutex serializes method execution per object and is
    /// what migration/persistence wait on to quiesce the object.
    pub instance: Arc<Mutex<Box<dyn crate::JsClass>>>,
    /// Per-object invocation queue: methods execute in message-arrival
    /// order, like RMI calls draining off one connection.
    pub exec: Arc<ObjExecutor>,
}

impl ObjEntry {
    pub(crate) fn new(class: Sym, origin: AgentAddr, instance: Box<dyn crate::JsClass>) -> Self {
        ObjEntry {
            class,
            origin,
            instance: Arc::new(Mutex::new(instance)),
            exec: Arc::new(ObjExecutor::default()),
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct ExecState {
    queue: std::collections::VecDeque<Job>,
    running: bool,
}

/// Serializes the invocations of one object in arrival order.
///
/// The dispatcher enqueues; at most one drain task runs at a time on the
/// executor, so an `init` delivered before a `multiply` is guaranteed to
/// execute before it — matching RMI calls arriving over one serialized
/// connection.
#[derive(Default)]
pub(crate) struct ObjExecutor {
    state: Mutex<ExecState>,
}

/// How many queued invocations one drain task executes before re-submitting
/// itself, so a hot object cannot monopolize an executor worker while
/// thousands of sibling tasks wait.
const DRAIN_YIELD_BATCH: usize = 64;

impl ObjExecutor {
    /// Enqueues the handler of request `req`, starting a drain task on
    /// `workers` if none is running. A drain started for the request of a
    /// caller waiting on this very thread runs on that caller.
    pub(crate) fn submit(self: &Arc<Self>, workers: &Arc<Executor>, req: ReqId, job: Job) {
        let start_drain = {
            let mut st = self.state.lock();
            st.queue.push_back(job);
            !std::mem::replace(&mut st.running, true)
        };
        if start_drain {
            let (exec, w) = (Arc::clone(self), Arc::clone(workers));
            workers.spawn_for(req.0, Box::new(move || exec.drain(&w)));
        }
    }

    fn drain(self: &Arc<Self>, workers: &Arc<jsym_exec::Executor>) {
        // The drain is one task among up to a million; yield the worker back
        // after a bounded batch. `running` stays true across the yield, so
        // submission order is preserved and no second drain can start. On a
        // waiting caller the batch is the one job the drain was started for
        // (the head): whatever queued up behind it is not that caller's to
        // run, and may need a lock held lower on its stack.
        let mut left = if helping() { 1 } else { DRAIN_YIELD_BATCH };
        loop {
            let job = {
                let mut st = self.state.lock();
                if st.queue.is_empty() {
                    st.running = false;
                    return;
                }
                if left == 0 {
                    break;
                }
                left -= 1;
                st.queue.pop_front().expect("non-empty")
            };
            job();
        }
        let (exec, w) = (Arc::clone(self), Arc::clone(workers));
        workers.spawn(Box::new(move || exec.drain(&w)));
    }
}

/// Counters exposed as [`crate::NodeStats`].
#[derive(Default)]
pub(crate) struct StatCounters {
    pub invocations: AtomicU64,
    pub creations: AtomicU64,
    pub migrations_in: AtomicU64,
    pub migrations_out: AtomicU64,
    pub artifact_bytes: AtomicU64,
    pub stores: AtomicU64,
}

/// Runtime tunables shared by all agents on a node.
#[derive(Clone, Debug)]
pub(crate) struct RuntimeConfig {
    /// Real-time budget for one request/reply exchange.
    pub call_timeout: Duration,
    /// Virtual-seconds pause between retries after `ObjectMoved`.
    pub retry_backoff: f64,
    /// Maximum `ObjectMoved` retries before giving up.
    pub max_retries: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            call_timeout: Duration::from_secs(120),
            retry_backoff: 0.02,
            max_retries: 200,
        }
    }
}

/// All state shared between the tasks of one node runtime.
pub(crate) struct NodeShared {
    pub phys: NodeId,
    pub machine: SimMachine,
    pub clock: SimClock,
    pub net: Network,
    pub classes: ClassRegistry,
    pub cost: CostModel,
    pub config: RuntimeConfig,
    pub store: ObjectStore,
    /// Pending request/reply slots for every local caller.
    pub calls: CallTable,
    /// The PubOA's remote-objects-table.
    pub objects: Mutex<HashMap<ObjectId, ObjEntry>>,
    /// Per-class static contexts hosted on this node (lazily created).
    pub statics: Mutex<HashMap<Sym, ObjEntry>>,
    /// Codebase artifacts present on this node (selective classloading).
    pub loaded: Mutex<HashSet<String>>,
    /// AppOAs homed on this node.
    pub apps: RwLock<HashMap<crate::AppId, Arc<appoa::AppShared>>>,
    /// Location cache for foreign object handles used in nested calls.
    pub location_cache: Mutex<HashMap<ObjectId, NodeId>>,
    /// Deployment-wide caller→object traffic counters (affinity plane).
    pub affinity: Arc<jsym_net::AffinityTracker>,
    /// Network-agent state (monitoring, heartbeats, failure detection).
    pub na: NaState,
    pub stats: StatCounters,
    /// The deployment-wide executor every handler of this node runs on.
    pub workers: Arc<jsym_exec::Executor>,
    /// Deployment-wide structural event log.
    pub events: crate::EventLog,
    /// Deployment-wide observability scope (metrics + span tracer).
    pub obs: jsym_obs::ObsRegistry,
    /// Client view of the replicated directory (`None` = legacy
    /// single-authority resolution).
    pub dir: Option<Arc<crate::dir::DirCluster>>,
    /// The directory replica hosted on this node, if it is one of the first
    /// `directory_replicas` machines.
    pub dir_host: Option<Arc<crate::dir::DirHost>>,
    pub shutdown: AtomicBool,
}

impl NodeShared {
    /// Sends `msg` to an agent, declaring its wire size. Errors are mapped
    /// to `NodeUnreachable`.
    pub fn send(&self, to: AgentAddr, msg: Msg) -> Result<()> {
        let size = msg.wire_size();
        let tag = msg_tag(&msg);
        let dst = to.node;
        if self.obs.is_enabled() {
            self.obs.counter("msg.sent", Some(self.phys.0), tag).inc();
        }
        self.net
            .send(
                self.phys,
                dst,
                Payload::new(tag, size, Packet { to: to.agent, msg }),
            )
            .map_err(|_| JsError::NodeUnreachable(dst))
    }

    /// Sends a reply for `req` to `to`, charging result-marshalling cost.
    pub fn send_reply(&self, to: AgentAddr, req: ReqId, result: Result<Value>) {
        let bytes = Msg::reply_wire_size(&result);
        self.machine.compute(self.cost.result_cost(bytes));
        let _ = self.send(to, Msg::Reply { req, result });
    }

    /// Issues a request and blocks for its reply: the synchronous RMI
    /// primitive every higher-level operation is built on. Caller-side
    /// marshalling must already have been charged by the caller.
    ///
    /// Waits in slices so a node/deployment shutdown unblocks the caller
    /// promptly even if the request was registered after the shutdown's
    /// `fail_all` sweep (its reply would otherwise never come).
    pub fn call(&self, to: AgentAddr, req: ReqId, msg: Msg) -> Result<Value> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(JsError::ShuttingDown);
        }
        let slot = self.calls.register(req);
        let sent = self.run_own_call(req, || self.send(to, msg), |_| slot.is_ready());
        if let Err(e) = sent {
            self.calls.forget(req);
            return Err(e);
        }
        let deadline = std::time::Instant::now() + self.config.call_timeout;
        const SLICE: Duration = Duration::from_millis(50);
        let out = loop {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .unwrap_or(Duration::ZERO);
            match slot.wait(remaining.min(SLICE)) {
                Err(JsError::Timeout) => {
                    if self.shutdown.load(Ordering::Relaxed) {
                        break Err(JsError::ShuttingDown);
                    }
                    if remaining <= SLICE {
                        break Err(JsError::Timeout);
                    }
                }
                other => break other,
            }
        };
        if out.is_err() {
            self.calls.forget(req);
        }
        out
    }

    /// A synchronous caller runs its own call (`jsym_exec::Executor::help`):
    /// what `issue`'s send of `req` makes due now — delivery, handler, reply
    /// — executes on this thread. If that brings no reply, the message may be
    /// waiting on a wake-up armed elsewhere: a worker, which costs a spare to
    /// park, has one go at the drain itself. `rmi.sync` counts the outcome.
    pub fn run_own_call<T, E>(
        &self,
        req: ReqId,
        issue: impl FnOnce() -> std::result::Result<T, E>,
        replied: impl Fn(&T) -> bool,
    ) -> std::result::Result<T, E> {
        let done = |r: &std::result::Result<T, E>| r.as_ref().map_or(true, &replied);
        let issued = self.workers.help(req.0, issue, done);
        if !done(&issued) && jsym_exec::on_worker() {
            let deliver = || self.net.deliver_due();
            self.workers.help(req.0, deliver, |()| done(&issued));
        }
        if self.obs.is_enabled() && issued.is_ok() {
            let how = if done(&issued) { "inline" } else { "parked" };
            self.obs.counter("rmi.sync", Some(self.phys.0), how).inc();
        }
        issued
    }

    /// Resolves the current location of a foreign handle, consulting the
    /// replicated directory (when enabled) or the origin AppOA when the
    /// cache has no answer (paper Figure 4).
    pub fn resolve_location(&self, handle: ObjectHandle) -> Result<NodeId> {
        // Hosted right here?
        if self.objects.lock().contains_key(&handle.id) {
            return Ok(self.phys);
        }
        if let Some(&loc) = self.location_cache.lock().get(&handle.id) {
            return Ok(loc);
        }
        // Replicated directory first: a linearizable leader read. Only a
        // successful hit is authoritative — the write-through is
        // best-effort, so a missing entry may just mean the placement never
        // landed (e.g. quorum was down at create/migrate time). Any miss or
        // failure — NoSuchObject, election in progress, quorum loss — falls
        // back to the legacy origin-authority path.
        if self.dir.is_some() {
            if let Ok(loc) = crate::dir::read_location(self, handle.id) {
                self.location_cache.lock().insert(handle.id, loc);
                return Ok(loc);
            }
        }
        // Ask the origin AppOA. If it is homed on this very node, answer
        // from its table directly (AppOA↔PubOA on one node interact by
        // local method invocation in the paper).
        if handle.origin.node == self.phys {
            if let AgentKind::App(app) = handle.origin.agent {
                if let Some(app_shared) = self.apps.read().get(&app).cloned() {
                    let loc = app_shared
                        .location_of(handle.id)
                        .ok_or(JsError::NoSuchObject(handle.id))?;
                    self.location_cache.lock().insert(handle.id, loc);
                    return Ok(loc);
                }
            }
            return Err(JsError::NoSuchObject(handle.id));
        }
        let req = IdGen::req();
        let reply_to = AgentAddr::pub_oa(self.phys);
        let v = self.call(
            handle.origin,
            req,
            Msg::WhereIs {
                req,
                reply_to,
                obj: handle.id,
            },
        )?;
        let loc = NodeId(
            v.as_i64()
                .ok_or_else(|| JsError::MethodFailed("bad WhereIs reply".into()))?
                as u32,
        );
        self.location_cache.lock().insert(handle.id, loc);
        Ok(loc)
    }

    /// Synchronous invocation of `method` on the object at `loc`, paying
    /// caller-side costs. Returns `ObjectMoved` untranslated so callers can
    /// re-resolve.
    pub fn invoke_at(
        &self,
        loc: NodeId,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        let req = IdGen::req();
        self.machine
            .compute(self.cost.invoke_caller(args_wire_size(args)));
        let result = self.call(
            AgentAddr::pub_oa(loc),
            req,
            Msg::Invoke {
                req,
                reply_to: Some(AgentAddr::pub_oa(self.phys)),
                obj,
                method: Sym::intern(method),
                args: args.to_vec(),
            },
        )?;
        // Caller-side result unmarshalling.
        self.machine
            .compute(self.cost.result_cost(Msg::reply_wire_size_ok(&result)));
        Ok(result)
    }

    /// Full nested-call path with migration retries, used by methods
    /// invoking other objects' methods.
    pub fn call_object(&self, handle: ObjectHandle, method: &str, args: &[Value]) -> Result<Value> {
        let mut attempts = 0;
        loop {
            let loc = self.resolve_location(handle)?;
            match self.invoke_at(loc, handle.id, method, args) {
                Err(JsError::ObjectMoved(_)) => {
                    self.location_cache.lock().remove(&handle.id);
                    attempts += 1;
                    if attempts > self.config.max_retries {
                        return Err(JsError::Timeout);
                    }
                    self.clock.sleep(self.config.retry_backoff);
                }
                Err(JsError::NodeUnreachable(n)) if n == loc => {
                    // The location may be a stale cache entry pointing at a
                    // failed node while the directory/AppOA already knows
                    // the failover placement. Drop the entry; retry only if
                    // it actually was cached — a fresh resolution pointing
                    // at a dead node means the object really is unreachable
                    // right now (recovery, if any, re-resolves next call).
                    let was_cached = self.location_cache.lock().remove(&handle.id).is_some();
                    attempts += 1;
                    if !was_cached || attempts > self.config.max_retries {
                        return Err(JsError::NodeUnreachable(n));
                    }
                    self.clock.sleep(self.config.retry_backoff);
                }
                other => return other,
            }
        }
    }
}

/// [`ObjectCaller`] backed by a node runtime (for nested invocations from
/// inside method bodies).
pub(crate) struct NodeClient {
    pub shared: Arc<NodeShared>,
}

impl ObjectCaller for NodeClient {
    fn call(&self, handle: ObjectHandle, method: &str, args: &[Value]) -> Result<Value> {
        self.shared.call_object(handle, method, args)
    }
}

/// Virtual timestamp for instrumentation: reads the clock only when the
/// observability scope is enabled, so disabled deployments pay nothing.
pub(crate) fn obs_now(shared: &NodeShared) -> f64 {
    if shared.obs.is_enabled() {
        shared.clock.now()
    } else {
        0.0
    }
}

fn msg_tag(msg: &Msg) -> &'static str {
    match msg {
        Msg::CreateObject { .. } => "create",
        Msg::CreateFromState { .. } => "create-from-state",
        Msg::FreeObject { .. } => "free",
        Msg::Invoke { .. } => "invoke",
        Msg::Reply { .. } => "reply",
        Msg::WhereIs { .. } => "where-is",
        Msg::MigrateRequest { .. } => "migrate-req",
        Msg::MigrateTransfer { .. } => "migrate-xfer",
        Msg::StoreObject { .. } => "store",
        Msg::LoadArtifact { .. } => "load-artifact",
        Msg::UnloadArtifact { .. } => "unload-artifact",
        Msg::SysReport { .. } => "sys-report",
        Msg::Heartbeat { .. } => "heartbeat",
        Msg::StaticInvoke { .. } => "static-invoke",
        Msg::DirConsensus { .. } => "dir-consensus",
        Msg::DirPropose { .. } => "dir-propose",
        Msg::DirRead { .. } => "dir-read",
    }
}

/// Routes one incoming envelope to the right agent (the node's delivery hook).
pub(crate) fn dispatch(shared: &Arc<NodeShared>, env: Envelope) {
    let src = env.src;
    let packet = match env.payload.downcast::<Packet>() {
        Ok(p) => *p,
        Err(_) => return, // foreign payload; drop
    };
    // Any traffic proves liveness of the sender.
    shared.na.heard(src, shared.clock.now());

    match packet.msg {
        // Replies complete pending calls regardless of the addressed agent:
        // the call table is shared by all local callers.
        Msg::Reply { req, result } => {
            shared.calls.complete(req, result);
        }
        msg => match packet.to {
            AgentKind::Pub => puboa::handle(shared, src, msg),
            AgentKind::App(app) => appoa::handle_app_msg(shared, app, msg),
            AgentKind::Dir => {
                if let Some(host) = shared.dir_host.clone() {
                    host.handle(shared, src, msg);
                }
                // Directory traffic to a non-replica node is dropped; the
                // client treats the ensuing timeout as "try another replica".
            }
        },
    }
}

/// Hands the potentially long-running or blocking handler of request `req`
/// to the executor — or to the caller waiting for `req` on this thread.
pub(crate) fn spawn_worker(sh: &Arc<NodeShared>, req: ReqId, f: impl FnOnce() + Send + 'static) {
    sh.workers.spawn_for(req.0, Box::new(f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::time::Duration;

    #[test]
    fn obj_executor_preserves_submission_order_across_yields() {
        // More jobs than one drain batch, submitted while the drain runs on
        // a 2-worker executor: every job runs once, in submission order, and
        // never two at a time.
        let workers = jsym_exec::Executor::new(2);
        let exec = Arc::new(ObjExecutor::default());
        let order: Arc<PlMutex<Vec<usize>>> = Arc::new(PlMutex::new(Vec::new()));
        let running = Arc::new(AtomicBool::new(false));
        let n = DRAIN_YIELD_BATCH * 3 + 7;
        for i in 0..n {
            let (order, running) = (Arc::clone(&order), Arc::clone(&running));
            exec.submit(
                &workers,
                IdGen::req(),
                Box::new(move || {
                    assert!(!running.swap(true, Ordering::SeqCst), "two drains at once");
                    order.lock().push(i);
                    std::thread::yield_now();
                    running.store(false, Ordering::SeqCst);
                }),
            );
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while order.lock().len() < n && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock(), (0..n).collect::<Vec<_>>());
        workers.shutdown();
    }

    #[test]
    fn runtime_config_defaults_are_consistent() {
        let c = RuntimeConfig::default();
        assert!(c.call_timeout >= Duration::from_secs(1));
        assert!(c.retry_backoff > 0.0);
        assert!(c.max_retries > 0);
    }
}
