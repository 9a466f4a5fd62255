//! The application object agent (AppOA).
//!
//! One per registered application (paper §5.2): keeps the
//! *local-objects-table* mapping every object the application created to the
//! PubOA currently holding it, issues invocations, and orchestrates object
//! migration. The AppOA is the location authority for its objects — the
//! migration protocol always informs it (Figure 3), and remote PubOAs whose
//! invocations race with a migration come back here to re-resolve
//! (Figure 4).

use crate::calltable::{Reissue, Slot};
use crate::error::JsError;
use crate::ids::{AgentAddr, AppId, IdGen, ObjectHandle, ObjectId, ReqId};
use crate::intern::Sym;
use crate::msg::Msg;
use crate::runtime::{obs_now, NodeShared};
use crate::value::{args_wire_size, Value};
use crate::{Result, ResultHandle};
use jsym_net::NodeId;
use jsym_vda::{ResourcePool, VdaRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// One row of the AppOA's local-objects-table.
#[derive(Clone, Debug)]
pub(crate) struct AppObjEntry {
    /// Node whose PubOA currently holds the object.
    pub location: NodeId,
}

/// Shared state of one application object agent.
pub(crate) struct AppShared {
    pub id: AppId,
    pub home: NodeId,
    /// The node runtime hosting this AppOA. Weak: the deployment owns the
    /// node runtimes; apps must not keep a dead deployment alive.
    pub node: Weak<NodeShared>,
    pub pool: ResourcePool,
    pub vda: VdaRegistry,
    /// The local-objects-table.
    pub objects: Mutex<HashMap<ObjectId, AppObjEntry>>,
    pub unregistered: AtomicBool,
}

impl AppShared {
    pub(crate) fn addr(&self) -> AgentAddr {
        AgentAddr::app_oa(self.home, self.id)
    }

    /// Write-through of a placement change to the replicated directory.
    ///
    /// Best-effort by design: the local-objects-table stays the origin
    /// authority and `resolve_location` falls back to it whenever the
    /// directory cannot answer, so a failed write-through (quorum loss)
    /// degrades to the legacy path instead of wedging the operation. The
    /// `dir.writethrough_errors` counter records the misses.
    fn dir_writethrough(&self, node: &NodeShared, cmd: jsym_dir::DirCommand) {
        let _ = crate::dir::propose(node, &cmd);
    }

    pub(crate) fn node_shared(&self) -> Result<Arc<NodeShared>> {
        self.node.upgrade().ok_or(JsError::ShuttingDown)
    }

    fn ensure_registered(&self) -> Result<()> {
        if self.unregistered.load(Ordering::Relaxed) {
            Err(JsError::AppUnregistered)
        } else {
            Ok(())
        }
    }

    /// Current location of one of this application's objects.
    pub(crate) fn location_of(&self, obj: ObjectId) -> Option<NodeId> {
        self.objects.lock().get(&obj).map(|e| e.location)
    }

    /// The first-order handle for one of this app's objects.
    pub(crate) fn handle_for(&self, obj: ObjectId) -> ObjectHandle {
        ObjectHandle {
            id: obj,
            origin: self.addr(),
        }
    }

    // ------------------------------------------------------------- creation

    /// Creates an object of `class` on `target`, entering it into the
    /// local-objects-table.
    pub(crate) fn create_object(
        self: &Arc<Self>,
        class: &str,
        args: &[Value],
        target: NodeId,
    ) -> Result<ObjectId> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let obj = IdGen::object();
        let req = IdGen::req();
        node.machine
            .compute(node.cost.invoke_caller(args_wire_size(args)));
        let span = node
            .obs
            .tracer()
            .span("rmi.create", obs_now(&node))
            .node(self.home.0)
            .attr("class", class)
            .attr("target", target);
        node.call(
            AgentAddr::pub_oa(target),
            req,
            Msg::CreateObject {
                req,
                reply_to: self.addr(),
                obj,
                class: Sym::intern(class),
                args: args.to_vec(),
                origin: self.addr(),
            },
        )?;
        span.finish(obs_now(&node));
        self.objects
            .lock()
            .insert(obj, AppObjEntry { location: target });
        self.dir_writethrough(
            &node,
            jsym_dir::DirCommand::SetLocation {
                object: obj.0,
                node: target.0,
            },
        );
        Ok(obj)
    }

    /// Re-creates a persistent object from stored state on `target`.
    pub(crate) fn create_from_state(
        self: &Arc<Self>,
        class: &str,
        state: Vec<u8>,
        target: NodeId,
    ) -> Result<ObjectId> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let obj = IdGen::object();
        let req = IdGen::req();
        node.machine.compute(node.cost.state_cost(state.len()));
        node.call(
            AgentAddr::pub_oa(target),
            req,
            Msg::CreateFromState {
                req,
                reply_to: self.addr(),
                obj,
                class: Sym::intern(class),
                state,
                origin: self.addr(),
            },
        )?;
        self.objects
            .lock()
            .insert(obj, AppObjEntry { location: target });
        self.dir_writethrough(
            &node,
            jsym_dir::DirCommand::SetLocation {
                object: obj.0,
                node: target.0,
            },
        );
        Ok(obj)
    }

    /// Re-creates an object *under its existing id* from checkpointed state
    /// (failure recovery): the instance is installed on `target` and the
    /// local-objects-table is repointed, so existing handles keep working.
    pub(crate) fn restore_object_at(
        self: &Arc<Self>,
        obj: ObjectId,
        class: &str,
        state: Vec<u8>,
        target: NodeId,
    ) -> Result<()> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let req = IdGen::req();
        node.machine.compute(node.cost.state_cost(state.len()));
        node.call(
            AgentAddr::pub_oa(target),
            req,
            Msg::CreateFromState {
                req,
                reply_to: self.addr(),
                obj,
                class: Sym::intern(class),
                state,
                origin: self.addr(),
            },
        )?;
        {
            let mut objects = self.objects.lock();
            match objects.get_mut(&obj) {
                Some(entry) => entry.location = target,
                None => {
                    objects.insert(obj, AppObjEntry { location: target });
                }
            }
        }
        self.dir_writethrough(
            &node,
            jsym_dir::DirCommand::SetLocation {
                object: obj.0,
                node: target.0,
            },
        );
        Ok(())
    }

    // ----------------------------------------------------------- invocation

    /// Issues one invocation towards the currently known location, returning
    /// the pending slot. Used by all three invocation modes.
    fn issue(
        self: &Arc<Self>,
        obj: ObjectId,
        method: &str,
        args: &[Value],
        want_reply: bool,
        req: ReqId,
    ) -> Result<Option<Slot>> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let loc = self.location_of(obj).ok_or(JsError::NoSuchObject(obj))?;
        // Caller-side dispatch + marshalling.
        node.machine
            .compute(node.cost.invoke_caller(args_wire_size(args)));
        let slot = want_reply.then(|| node.calls.register(req));
        let msg = Msg::Invoke {
            req,
            reply_to: want_reply.then(|| self.addr()),
            obj,
            method: Sym::intern(method),
            args: args.to_vec(),
        };
        if let Err(e) = node.send(AgentAddr::pub_oa(loc), msg) {
            node.calls.forget(req);
            return Err(e);
        }
        Ok(slot)
    }

    /// `ainvoke` — asynchronous invocation returning a [`ResultHandle`].
    pub(crate) fn ainvoke(
        self: &Arc<Self>,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<ResultHandle> {
        self.ainvoke_traced(obj, method, args, "ainvoke", "rmi.ainvoke", IdGen::req())
    }

    /// Shared `sinvoke`/`ainvoke` body; `mode`/`span_name` only feed the
    /// instrumentation. The caller-side span covers issue → reply and is
    /// finished by the result handle's first successful read (a call that
    /// never completes records no span).
    fn ainvoke_traced(
        self: &Arc<Self>,
        obj: ObjectId,
        method: &str,
        args: &[Value],
        mode: &'static str,
        span_name: &'static str,
        req: ReqId,
    ) -> Result<ResultHandle> {
        let node = self.node_shared()?;
        if node.obs.is_enabled() {
            node.obs.counter("rmi.calls", Some(self.home.0), mode).inc();
        }
        let span = node
            .obs
            .tracer()
            .span(span_name, obs_now(&node))
            .node(self.home.0)
            .attr("obj", obj)
            .attr("method", method);
        let slot = self.issue(obj, method, args, true, req)?;
        let slot = slot.expect("reply requested");
        let app = Arc::clone(self);
        let method_owned = method.to_owned();
        let args_owned = args.to_vec();
        let reissue: Arc<Reissue> = Arc::new(move || {
            // The object moved while the call was in flight; back off a
            // little, then re-issue against the (by now updated) table.
            if let Ok(n) = app.node_shared() {
                n.clock.sleep(n.config.retry_backoff);
            }
            let slot = app.issue(obj, &method_owned, &args_owned, true, IdGen::req())?;
            Ok(slot.expect("reply requested"))
        });
        let machine = node.machine.clone();
        let cost = node.cost;
        let clock = node.clock.clone();
        let caller_hist = node.obs.histogram(
            "rmi.caller_seconds",
            Some(self.home.0),
            mode,
            jsym_obs::bounds::LATENCY_SECONDS,
        );
        let span_cell = Mutex::new(Some(span));
        Ok(ResultHandle::new(
            slot,
            reissue,
            node.config.call_timeout,
            Box::new(move |v: &Value| {
                // Caller-side result unmarshalling.
                machine.compute(cost.result_cost(Msg::reply_wire_size_ok(v)));
                if let Some(span) = span_cell.lock().take() {
                    match span.start_time() {
                        Some(start) => {
                            let now = clock.now();
                            caller_hist.observe(now - start);
                            span.finish(now);
                        }
                        None => span.finish(0.0),
                    }
                }
            }),
        ))
    }

    /// `sinvoke` — synchronous invocation (blocks for the result).
    pub(crate) fn sinvoke(
        self: &Arc<Self>,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        let node = self.node_shared()?;
        let req = IdGen::req();
        let issue = || self.ainvoke_traced(obj, method, args, "sinvoke", "rmi.sinvoke", req);
        node.run_own_call(req, issue, ResultHandle::filled)?
            .get_result()
    }

    /// `oinvoke` — one-sided invocation: no result, no completion wait.
    pub(crate) fn oinvoke(
        self: &Arc<Self>,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<()> {
        let node = self.node_shared()?;
        self.issue(obj, method, args, false, IdGen::req())?;
        if node.obs.is_enabled() {
            node.obs
                .counter("rmi.calls", Some(self.home.0), "oinvoke")
                .inc();
            let now = node.clock.now();
            // Fire-and-forget: recorded as an instant span at issue time.
            node.obs
                .tracer()
                .span("rmi.oinvoke", now)
                .node(self.home.0)
                .attr("obj", obj)
                .attr("method", method)
                .finish(now);
        }
        Ok(())
    }

    /// Issues a static invocation to `class`'s static context on `node`.
    pub(crate) fn static_issue(
        self: &Arc<Self>,
        class: &str,
        target: NodeId,
        method: &str,
        args: &[Value],
        want_reply: bool,
    ) -> Result<Option<Slot>> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let req = IdGen::req();
        node.machine
            .compute(node.cost.invoke_caller(args_wire_size(args)));
        let slot = want_reply.then(|| node.calls.register(req));
        let msg = Msg::StaticInvoke {
            req,
            reply_to: want_reply.then(|| self.addr()),
            class: Sym::intern(class),
            method: Sym::intern(method),
            args: args.to_vec(),
        };
        if let Err(e) = node.send(AgentAddr::pub_oa(target), msg) {
            node.calls.forget(req);
            return Err(e);
        }
        Ok(slot)
    }

    // ------------------------------------------------------------ migration

    /// Explicitly migrates `obj` to `dst` (paper Figure 3: this AppOA is
    /// `ao`). Blocks until the destination confirmed; updates the table.
    pub(crate) fn migrate_object(self: &Arc<Self>, obj: ObjectId, dst: NodeId) -> Result<()> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        // Root span of the migration; the remote protocol steps (request,
        // quiesce, transfer, install, confirm) nest under it via parent
        // links carried on the wire.
        let root = node
            .obs
            .tracer()
            .span("migrate", obs_now(&node))
            .node(self.home.0)
            .attr("obj", obj)
            .attr("dst", dst);
        let mut attempts = 0;
        loop {
            let loc = self.location_of(obj).ok_or(JsError::NoSuchObject(obj))?;
            if loc == dst {
                root.finish(obs_now(&node));
                return Ok(());
            }
            let req = IdGen::req();
            node.machine.compute(node.cost.migrate_flops);
            let step = node
                .obs
                .tracer()
                .span("migrate.request", obs_now(&node))
                .node(self.home.0)
                .parent(root.id())
                .attr("from", loc);
            let out = node.call(
                AgentAddr::pub_oa(loc),
                req,
                Msg::MigrateRequest {
                    req,
                    reply_to: self.addr(),
                    obj,
                    dst,
                    span: jsym_obs::SpanId::to_wire(step.id()),
                },
            );
            match out {
                Ok(v) => {
                    let new_loc = NodeId(v.as_i64().unwrap_or(dst.0 as i64) as u32);
                    if let Some(e) = self.objects.lock().get_mut(&obj) {
                        e.location = new_loc;
                    }
                    self.dir_writethrough(
                        &node,
                        jsym_dir::DirCommand::SetLocation {
                            object: obj.0,
                            node: new_loc.0,
                        },
                    );
                    let now = obs_now(&node);
                    step.finish(now);
                    // Table updated: the AppOA acknowledges the new location
                    // (Figure 3 step 4) — an instant span.
                    node.obs
                        .tracer()
                        .span("migrate.confirm", now)
                        .node(self.home.0)
                        .parent(root.id())
                        .attr("loc", new_loc)
                        .finish(now);
                    root.finish(now);
                    return Ok(());
                }
                // Someone else migrated it concurrently; re-read and retry.
                Err(JsError::ObjectMoved(_)) => {
                    step.finish(obs_now(&node));
                    attempts += 1;
                    if attempts > node.config.max_retries {
                        root.finish(obs_now(&node));
                        return Err(JsError::Timeout);
                    }
                    node.clock.sleep(node.config.retry_backoff);
                }
                Err(e) => {
                    step.finish(obs_now(&node));
                    root.finish(obs_now(&node));
                    return Err(e);
                }
            }
        }
    }

    // ---------------------------------------------------------- persistence

    /// Stores an object's state, returning its persistence key (§4.7).
    pub(crate) fn store_object(
        self: &Arc<Self>,
        obj: ObjectId,
        key: Option<&str>,
    ) -> Result<String> {
        self.ensure_registered()?;
        let node = self.node_shared()?;
        let loc = self.location_of(obj).ok_or(JsError::NoSuchObject(obj))?;
        let req = IdGen::req();
        let v = node.call(
            AgentAddr::pub_oa(loc),
            req,
            Msg::StoreObject {
                req,
                reply_to: self.addr(),
                obj,
                key: key.map(str::to_owned),
            },
        )?;
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsError::MethodFailed("bad store reply".into()))
    }

    // -------------------------------------------------------------- freeing

    /// Frees an object: removes it from the table and tells its host (§4.4).
    pub(crate) fn free_object(self: &Arc<Self>, obj: ObjectId) -> Result<()> {
        let node = self.node_shared()?;
        let entry = self
            .objects
            .lock()
            .remove(&obj)
            .ok_or(JsError::NoSuchObject(obj))?;
        // One-sided: freeing exists to reduce book-keeping, not to block.
        let _ = node.send(AgentAddr::pub_oa(entry.location), Msg::FreeObject { obj });
        self.dir_writethrough(
            &node,
            jsym_dir::DirCommand::RemoveLocation { object: obj.0 },
        );
        Ok(())
    }

    /// Objects currently located on `phys` (for automatic migration).
    pub(crate) fn objects_on(&self, phys: NodeId) -> Vec<ObjectId> {
        self.objects
            .lock()
            .iter()
            .filter(|(_, e)| e.location == phys)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Unregisters the application: the table is dropped and every hosted
    /// object freed (paper §4.1 — unregistration lets the runtime reduce
    /// book-keeping and reclaim memory).
    pub(crate) fn unregister(self: &Arc<Self>) -> Result<()> {
        if self.unregistered.swap(true, Ordering::Relaxed) {
            return Err(JsError::AppUnregistered);
        }
        let node = self.node_shared()?;
        let drained: Vec<(ObjectId, AppObjEntry)> = self.objects.lock().drain().collect();
        for (obj, entry) in drained {
            let _ = node.send(AgentAddr::pub_oa(entry.location), Msg::FreeObject { obj });
            self.dir_writethrough(
                &node,
                jsym_dir::DirCommand::RemoveLocation { object: obj.0 },
            );
        }
        node.apps.write().remove(&self.id);
        Ok(())
    }
}

/// Handles AppOA-addressed messages (runs inline on the receiver thread —
/// table lookups answer inline; directory-routed lookups move to a worker).
pub(crate) fn handle_app_msg(shared: &Arc<NodeShared>, app: AppId, msg: Msg) {
    let Some(app_shared) = shared.apps.read().get(&app).cloned() else {
        // Unknown app: the directory may still know the placement (e.g. the
        // origin restarted and lost its tables); otherwise answer with an
        // error so the caller unblocks.
        if let Msg::WhereIs { req, reply_to, obj } = msg {
            answer_where_is(shared, None, req, reply_to, obj);
        }
        return;
    };
    match msg {
        Msg::WhereIs { req, reply_to, obj } => {
            let table = app_shared.location_of(obj);
            answer_where_is(shared, table, req, reply_to, obj);
        }
        _ => {
            // AppOAs accept no other requests.
        }
    }
}

/// Answers a `WhereIs`: through the replicated directory when it is enabled
/// (a linearizable leader read), keeping the origin's local-objects-table as
/// the authority fallback whenever the directory cannot produce a location.
///
/// The directory-routed path runs on a worker thread — the read blocks on
/// consensus replies that the receiver thread (our caller) must keep
/// dispatching, so answering inline would deadlock the node.
fn answer_where_is(
    shared: &Arc<NodeShared>,
    table: Option<NodeId>,
    req: ReqId,
    reply_to: AgentAddr,
    obj: ObjectId,
) {
    let table_reply = move |loc: Option<NodeId>| {
        loc.map(|n| Value::I64(n.0 as i64))
            .ok_or(JsError::NoSuchObject(obj))
    };
    if shared.dir.is_none() {
        shared.send_reply(reply_to, req, table_reply(table));
        return;
    }
    let sh = Arc::clone(shared);
    crate::runtime::spawn_worker(shared, req, move || {
        let (result, source) = match crate::dir::read_location(&sh, obj) {
            Ok(n) => (Ok(Value::I64(n.0 as i64)), "directory"),
            Err(_) => (table_reply(table), "origin"),
        };
        if sh.obs.is_enabled() {
            sh.obs.counter("dir.whereis", Some(sh.phys.0), source).inc();
        }
        sh.send_reply(reply_to, req, result);
    });
}
