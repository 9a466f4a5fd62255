//! The public object agent (PubOA).
//!
//! One per node (paper §5.2, Figure 2): hosts object instances in the
//! remote-objects-table, executes their methods, participates in the
//! migration protocol, stores/loads persistent objects and receives codebase
//! artifacts. Long-running handlers execute on worker threads so the node's
//! receiver loop stays responsive — the paper's PubOA similarly runs "one
//! thread for every local AppOA, one thread for all remote AppOAs, one
//! thread for all remote PubOAs".

use crate::class::InvokeCtx;
use crate::error::JsError;
use crate::ids::{AgentAddr, IdGen, ObjectId, ReqId};
use crate::intern::Sym;
use crate::msg::Msg;
use crate::runtime::{obs_now, spawn_worker, NodeClient, NodeShared, ObjEntry};
use crate::value::{args_wire_size, Value};
use crate::Result;
use jsym_net::NodeId;
use jsym_obs::SpanId;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Handles one PubOA-addressed message.
pub(crate) fn handle(shared: &Arc<NodeShared>, src: NodeId, msg: Msg) {
    match msg {
        Msg::CreateObject {
            req,
            reply_to,
            obj,
            class,
            args,
            origin,
        } => {
            let sh = Arc::clone(shared);
            spawn_worker(shared, req, move || {
                let result = create_object(&sh, obj, class, &args, origin);
                sh.send_reply(reply_to, req, result);
            });
        }
        Msg::CreateFromState {
            req,
            reply_to,
            obj,
            class,
            state,
            origin,
        } => {
            let sh = Arc::clone(shared);
            spawn_worker(shared, req, move || {
                let result = install_from_state(&sh, obj, class, &state, origin);
                sh.send_reply(reply_to, req, result);
            });
        }
        Msg::FreeObject { obj } => {
            if shared.affinity.enabled() {
                shared.affinity.forget(obj.0);
            }
            if shared.objects.lock().remove(&obj).is_some() {
                shared.events.record(
                    shared.clock.now(),
                    crate::RuntimeEvent::ObjectFreed {
                        obj,
                        node: shared.phys,
                    },
                );
            }
        }
        Msg::Invoke {
            req,
            reply_to,
            obj,
            method,
            args,
        } => {
            // Affinity plane: every delivered invocation feeds the decayed
            // caller→object counters. Same-node traffic reinforces the
            // current placement, which is exactly the hysteresis we want.
            if shared.affinity.enabled() {
                shared.affinity.record(
                    src,
                    obj.0,
                    args_wire_size(&args) as u64,
                    shared.clock.now(),
                );
            }
            // Enqueue on the object's executor *from the dispatcher* so
            // same-object invocations run in message-arrival order.
            let entry = shared.objects.lock().get(&obj).cloned();
            match entry {
                Some(entry) => {
                    let sh = Arc::clone(shared);
                    let exec = Arc::clone(&entry.exec);
                    exec.submit(
                        &shared.workers,
                        req,
                        Box::new(move || {
                            let result = execute(&sh, obj, method, &args);
                            match (reply_to, result) {
                                (Some(to), result) => sh.send_reply(to, req, result),
                                (None, Err(e)) => oneway_lost(&sh, obj, method, e),
                                (None, Ok(_)) => {}
                            }
                        }),
                    );
                }
                None => match reply_to {
                    Some(to) => shared.send_reply(to, req, Err(JsError::ObjectMoved(obj))),
                    None => oneway_lost(shared, obj, method, JsError::ObjectMoved(obj)),
                },
            }
        }
        Msg::MigrateRequest {
            req,
            reply_to,
            obj,
            dst,
            span,
        } => {
            let sh = Arc::clone(shared);
            in_turn(shared, obj, req, move || {
                let result = migrate_out(&sh, obj, dst, SpanId::from_wire(span));
                sh.send_reply(reply_to, req, result);
            });
        }
        Msg::MigrateTransfer {
            req,
            reply_to,
            obj,
            class,
            state,
            origin,
            span,
        } => {
            let sh = Arc::clone(shared);
            spawn_worker(shared, req, move || {
                let result = migrate_in(&sh, obj, class, &state, origin, SpanId::from_wire(span));
                sh.send_reply(reply_to, req, result);
            });
        }
        Msg::StoreObject {
            req,
            reply_to,
            obj,
            key,
        } => {
            let sh = Arc::clone(shared);
            in_turn(shared, obj, req, move || {
                let result = store_object(&sh, obj, key);
                sh.send_reply(reply_to, req, result);
            });
        }
        Msg::LoadArtifact {
            req,
            reply_to,
            name,
            bytes,
        } => {
            // The transfer already paid its bytes on the wire; installing is
            // bookkeeping plus memory accounting.
            let newly = shared.loaded.lock().insert(name.clone());
            if newly {
                shared.machine.add_runtime_bytes(bytes as u64);
                shared
                    .stats
                    .artifact_bytes
                    .fetch_add(bytes as u64, Ordering::Relaxed);
                shared.events.record(
                    shared.clock.now(),
                    crate::RuntimeEvent::ArtifactLoaded {
                        name,
                        node: shared.phys,
                        bytes,
                    },
                );
            }
            shared.send_reply(reply_to, req, Ok(Value::Null));
        }
        Msg::UnloadArtifact { name, bytes } => {
            if shared.loaded.lock().remove(&name) {
                shared.machine.sub_runtime_bytes(bytes as u64);
            }
        }
        Msg::SysReport {
            from,
            label,
            snapshot,
        } => {
            shared.na.receive_report(from, &label, snapshot);
        }
        Msg::Heartbeat { from } => {
            // Liveness was already recorded by the dispatcher.
            let _ = from;
        }
        Msg::StaticInvoke {
            req,
            reply_to,
            class,
            method,
            args,
        } => {
            // Resolve (or lazily create) the class's static context, then
            // run through its per-context FIFO executor like any object.
            match static_entry(shared, class) {
                Ok(entry) => {
                    let sh = Arc::clone(shared);
                    let exec = Arc::clone(&entry.exec);
                    let instance = Arc::clone(&entry.instance);
                    exec.submit(
                        &shared.workers,
                        req,
                        Box::new(move || {
                            let result = execute_static(&sh, &instance, method, &args);
                            if let Some(to) = reply_to {
                                sh.send_reply(to, req, result);
                            }
                        }),
                    );
                }
                Err(e) => {
                    if let Some(to) = reply_to {
                        shared.send_reply(to, req, Err(e));
                    }
                }
            }
        }
        // Routed elsewhere by the dispatcher.
        Msg::Reply { .. }
        | Msg::WhereIs { .. }
        | Msg::DirConsensus { .. }
        | Msg::DirPropose { .. }
        | Msg::DirRead { .. } => {}
    }
    let _ = src;
}

/// Queues `f`, which migrates or stores `obj` for request `req`, behind the
/// calls the object has already received: what is done to one object is done
/// in arrival order, whichever threads deliver and run it. An object not
/// hosted here has no queue; `f` answers `ObjectMoved` from anywhere.
fn in_turn(sh: &Arc<NodeShared>, obj: ObjectId, req: ReqId, f: impl FnOnce() + Send + 'static) {
    let queue = sh.objects.lock().get(&obj).map(|e| Arc::clone(&e.exec));
    match queue {
        Some(queue) => queue.submit(&sh.workers, req, Box::new(f)),
        None => spawn_worker(sh, req, f),
    }
}

/// Resolves the per-node static context of `class`, creating it on first
/// use. Selective classloading applies: the class's artifact must be here.
/// Takes an object's instance lock. Uncontended locks stay on the fast
/// path; a contended acquire can stall for a whole method execution
/// (quiesce, §4.6), so it is declared blocking to the executor — a spare
/// worker keeps the pool at capacity.
fn lock_instance(
    instance: &parking_lot::Mutex<Box<dyn crate::JsClass>>,
) -> parking_lot::MutexGuard<'_, Box<dyn crate::JsClass>> {
    match instance.try_lock() {
        Some(g) => g,
        None => jsym_exec::blocking(|| instance.lock()),
    }
}

fn static_entry(shared: &Arc<NodeShared>, class: Sym) -> Result<ObjEntry> {
    if let Some(entry) = shared.statics.lock().get(&class).cloned() {
        return Ok(entry);
    }
    check_class_available(shared, class)?;
    let instance = shared.classes.create_static_sym(class)?;
    let mut statics = shared.statics.lock();
    // Double-checked: another worker may have created it meanwhile.
    if let Some(entry) = statics.get(&class).cloned() {
        return Ok(entry);
    }
    let entry = ObjEntry::new(class, crate::ids::AgentAddr::pub_oa(shared.phys), instance);
    statics.insert(class, entry.clone());
    Ok(entry)
}

/// Executes a static method on a node's static context. Static contexts do
/// not migrate, so no moved-object re-check is needed.
fn execute_static(
    shared: &Arc<NodeShared>,
    instance: &Arc<parking_lot::Mutex<Box<dyn crate::JsClass>>>,
    method: Sym,
    args: &[Value],
) -> Result<Value> {
    shared
        .machine
        .compute(shared.cost.invoke_callee(args_wire_size(args)));
    let mut guard = lock_instance(instance);
    let client = NodeClient {
        shared: Arc::clone(shared),
    };
    let mut ctx = InvokeCtx::new(&shared.machine, shared.phys, &client);
    let out = catch_panic(|| guard.invoke(method.as_str(), args, &mut ctx));
    shared.stats.invocations.fetch_add(1, Ordering::Relaxed);
    out
}

/// Runs a method body; a panic in it becomes the call's error instead of
/// unwinding into the thread running it — an executor worker, which would be
/// gone for good, or the calling application thread itself.
fn catch_panic(body: impl FnOnce() -> Result<Value>) -> Result<Value> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|p| {
        let why = p.downcast_ref::<String>().map(String::as_str);
        let why = why.or(p.downcast_ref::<&str>().copied()).unwrap_or("?");
        Err(JsError::MethodFailed(format!("panicked: {why}")))
    })
}

/// A one-sided call that failed: there is no caller to tell, so it is counted
/// (`rmi.oneway_lost`: `gone` when the object was not here to run it,
/// `failed` when its method returned the error) and logged.
fn oneway_lost(shared: &NodeShared, obj: ObjectId, method: Sym, error: JsError) {
    if shared.obs.is_enabled() {
        let why = match error {
            JsError::ObjectMoved(o) if o == obj => "gone",
            _ => "failed",
        };
        shared
            .obs
            .counter("rmi.oneway_lost", Some(shared.phys.0), why)
            .inc();
    }
    shared.events.record(
        shared.clock.now(),
        crate::RuntimeEvent::OnewayLost {
            obj,
            node: shared.phys,
            method: method.as_str().to_owned(),
            error: error.to_string(),
        },
    );
}

/// Whether `class` may be instantiated here under selective classloading.
fn check_class_available(shared: &NodeShared, class: Sym) -> Result<()> {
    match shared.classes.artifact_of_sym(class)? {
        None => Ok(()), // preloaded system class
        Some(artifact) => {
            if shared.loaded.lock().contains(&*artifact) {
                Ok(())
            } else {
                Err(JsError::ClassNotLoaded {
                    class: class.as_str().to_owned(),
                    node: shared.phys,
                })
            }
        }
    }
}

fn create_object(
    shared: &Arc<NodeShared>,
    obj: ObjectId,
    class: Sym,
    args: &[Value],
    origin: AgentAddr,
) -> Result<Value> {
    check_class_available(shared, class)?;
    shared
        .machine
        .compute(shared.cost.create_flops + shared.cost.invoke_callee(args_wire_size(args)));
    let instance = shared.classes.create_sym(class, args)?;
    shared
        .objects
        .lock()
        .insert(obj, ObjEntry::new(class, origin, instance));
    shared.stats.creations.fetch_add(1, Ordering::Relaxed);
    shared.events.record(
        shared.clock.now(),
        crate::RuntimeEvent::ObjectCreated {
            obj,
            class: class.as_str().to_owned(),
            node: shared.phys,
        },
    );
    Ok(Value::Null)
}

fn install_from_state(
    shared: &Arc<NodeShared>,
    obj: ObjectId,
    class: Sym,
    state: &[u8],
    origin: AgentAddr,
) -> Result<Value> {
    check_class_available(shared, class)?;
    shared.machine.compute(shared.cost.state_cost(state.len()));
    let instance = shared.classes.restore_sym(class, state)?;
    shared
        .objects
        .lock()
        .insert(obj, ObjEntry::new(class, origin, instance));
    shared.events.record(
        shared.clock.now(),
        crate::RuntimeEvent::ObjectRestored {
            obj,
            node: shared.phys,
        },
    );
    Ok(Value::Null)
}

/// Executes a method on a hosted object.
fn execute(shared: &Arc<NodeShared>, obj: ObjectId, method: Sym, args: &[Value]) -> Result<Value> {
    // Callee-side dispatch + argument unmarshalling.
    shared
        .machine
        .compute(shared.cost.invoke_callee(args_wire_size(args)));
    let entry = shared
        .objects
        .lock()
        .get(&obj)
        .cloned()
        .ok_or(JsError::ObjectMoved(obj))?;
    let mut instance = lock_instance(&entry.instance);
    // Re-check under the instance lock: a migration may have removed the
    // entry while we waited. Executing now would mutate state that has
    // already been shipped elsewhere.
    if !shared.objects.lock().contains_key(&obj) {
        return Err(JsError::ObjectMoved(obj));
    }
    let client = NodeClient {
        shared: Arc::clone(shared),
    };
    let mut ctx = InvokeCtx::new(&shared.machine, shared.phys, &client);
    let start = obs_now(shared);
    let out = catch_panic(|| instance.invoke(method.as_str(), args, &mut ctx));
    if shared.obs.is_enabled() {
        shared
            .obs
            .histogram(
                "invoke.exec_seconds",
                Some(shared.phys.0),
                "",
                jsym_obs::bounds::LATENCY_SECONDS,
            )
            .observe(shared.clock.now() - start);
    }
    shared.stats.invocations.fetch_add(1, Ordering::Relaxed);
    out
}

/// Migration, source side (the paper's `pa1`, Figure 3). `parent` is the
/// requesting AppOA's `migrate.request` span, carried over the wire.
fn migrate_out(
    shared: &Arc<NodeShared>,
    obj: ObjectId,
    dst: NodeId,
    parent: Option<SpanId>,
) -> Result<Value> {
    if dst == shared.phys {
        // Migrating to the node it already lives on is a no-op.
        if shared.objects.lock().contains_key(&obj) {
            return Ok(Value::I64(dst.0 as i64));
        }
        return Err(JsError::ObjectMoved(obj));
    }
    // Remove from the table first so new invocations see "moved" and consult
    // the origin AppOA; in-flight methods still hold the instance lock.
    let entry = shared
        .objects
        .lock()
        .remove(&obj)
        .ok_or(JsError::ObjectMoved(obj))?;
    // Quiesce: wait for unfinished method invocations (paper §4.6).
    let quiesce = shared
        .obs
        .tracer()
        .span("migrate.quiesce", obs_now(shared))
        .node(shared.phys.0)
        .parent(parent)
        .attr("obj", obj);
    let state = {
        let instance = lock_instance(&entry.instance);
        instance.snapshot()
    };
    quiesce.finish(obs_now(shared));
    let state = match state {
        Ok(s) => s,
        Err(e) => {
            shared.objects.lock().insert(obj, entry);
            return Err(e);
        }
    };
    let state_bytes = state.len();
    shared.machine.compute(shared.cost.state_cost(state_bytes));
    // Step 2: transfer object to pa2 and await its confirmation (step 3).
    let req = IdGen::req();
    let transfer = shared
        .obs
        .tracer()
        .span("migrate.transfer", obs_now(shared))
        .node(shared.phys.0)
        .parent(parent)
        .attr("bytes", state_bytes);
    let outcome = shared.call(
        AgentAddr::pub_oa(dst),
        req,
        Msg::MigrateTransfer {
            req,
            reply_to: AgentAddr::pub_oa(shared.phys),
            obj,
            class: entry.class,
            state,
            origin: entry.origin,
            span: SpanId::to_wire(transfer.id()),
        },
    );
    transfer.finish(obs_now(shared));
    match outcome {
        Ok(_) => {
            shared.stats.migrations_out.fetch_add(1, Ordering::Relaxed);
            shared.location_cache.lock().remove(&obj);
            shared.events.record(
                shared.clock.now(),
                crate::RuntimeEvent::Migrated {
                    obj,
                    from: shared.phys,
                    to: dst,
                    state_bytes,
                },
            );
            Ok(Value::I64(dst.0 as i64))
        }
        Err(e) => {
            // Failed transfer: the object stays here.
            shared.objects.lock().insert(obj, entry);
            Err(e)
        }
    }
}

/// Migration, destination side (the paper's `pa2`). `parent` is the source
/// PubOA's `migrate.transfer` span, carried over the wire.
fn migrate_in(
    shared: &Arc<NodeShared>,
    obj: ObjectId,
    class: Sym,
    state: &[u8],
    origin: AgentAddr,
    parent: Option<SpanId>,
) -> Result<Value> {
    check_class_available(shared, class)?;
    let install = shared
        .obs
        .tracer()
        .span("migrate.install", obs_now(shared))
        .node(shared.phys.0)
        .parent(parent)
        .attr("obj", obj);
    shared.machine.compute(shared.cost.state_cost(state.len()));
    let instance = shared.classes.restore_sym(class, state)?;
    shared
        .objects
        .lock()
        .insert(obj, ObjEntry::new(class, origin, instance));
    shared.stats.migrations_in.fetch_add(1, Ordering::Relaxed);
    shared.location_cache.lock().remove(&obj);
    install.finish(obs_now(shared));
    Ok(Value::Null)
}

/// Persists an object's state (paper §4.7): only when no method is
/// executing, which the instance lock guarantees.
fn store_object(shared: &Arc<NodeShared>, obj: ObjectId, key: Option<String>) -> Result<Value> {
    let entry = shared
        .objects
        .lock()
        .get(&obj)
        .cloned()
        .ok_or(JsError::ObjectMoved(obj))?;
    let state = {
        let instance = lock_instance(&entry.instance);
        if !shared.objects.lock().contains_key(&obj) {
            return Err(JsError::ObjectMoved(obj));
        }
        instance.snapshot()?
    };
    shared.machine.compute(shared.cost.state_cost(state.len()));
    let key = shared.store.put(key, entry.class.as_str(), state);
    shared.stats.stores.fetch_add(1, Ordering::Relaxed);
    shared.events.record(
        shared.clock.now(),
        crate::RuntimeEvent::ObjectStored {
            obj,
            key: key.clone(),
        },
    );
    Ok(Value::Str(key))
}
