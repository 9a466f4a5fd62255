//! OAS failure recovery (paper §7 future work, implemented).
//!
//! "Future work will address the issue of allowing the object agent system
//! to at least partially recover from certain system failures." The
//! mechanism here: when checkpointing is enabled through the JS-Shell, a
//! supervisor periodically persists every application object (using the
//! §4.7 persistence machinery, under reserved `__ckpt_*` keys), and a
//! recovery watcher subscribes to the architecture registry's failure
//! events. When the NAS declares a node failed, each object that lived
//! there is re-created *under its original object id* from its most recent
//! checkpoint on a surviving machine, and the owning AppOA's
//! local-objects-table is updated — so existing `JsObj` handles keep
//! working. Updates since the last checkpoint are lost: this is the
//! "partial" in the paper's "partially recover".

use crate::error::JsError;
use crate::ids::ObjectId;
use crate::shell::DeploymentInner;
use jsym_vda::VdaEvent;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Reserved key prefix for recovery checkpoints in the object store.
pub(crate) fn ckpt_key(obj: ObjectId) -> String {
    format!("__ckpt_{}", obj.0)
}

/// Checkpoint supervisor: persists every live object each `period` virtual
/// seconds.
pub(crate) fn run_checkpointer(deployment: Weak<DeploymentInner>, period: f64) {
    loop {
        let Some(d) = deployment.upgrade() else {
            return;
        };
        if d.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let deadline = d.clock.now() + period;
        while d.clock.now() < deadline {
            if d.shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        checkpoint_round(&d);
    }
}

/// One checkpoint round. Returns how many objects were persisted; exposed
/// crate-internally so tests can drive rounds deterministically.
pub(crate) fn checkpoint_round(d: &Arc<DeploymentInner>) -> usize {
    let span = d.obs.tracer().span(
        "checkpoint.round",
        if d.obs.is_enabled() {
            d.clock.now()
        } else {
            0.0
        },
    );
    let apps: Vec<_> = d.apps.read().values().cloned().collect();
    let mut saved = 0;
    for app in apps {
        let objects: Vec<ObjectId> = app.objects.lock().keys().copied().collect();
        for obj in objects {
            // Skip objects on machines already known dead — their state is
            // whatever the last checkpoint captured.
            if let Some(loc) = app.location_of(obj) {
                if d.vda.is_failed(loc) {
                    continue;
                }
            }
            if app.store_object(obj, Some(&ckpt_key(obj))).is_ok() {
                saved += 1;
            }
        }
    }
    span.attr("saved", saved).finish(if d.obs.is_enabled() {
        d.clock.now()
    } else {
        0.0
    });
    saved
}

/// Recovery watcher: reacts to `NodeFailed` events from the architecture
/// registry (fed by the NAS failure detector).
pub(crate) fn run_recovery(deployment: Weak<DeploymentInner>) {
    let events = {
        let Some(d) = deployment.upgrade() else {
            return;
        };
        d.vda.subscribe()
    };
    loop {
        {
            let Some(d) = deployment.upgrade() else {
                return;
            };
            if d.shutdown.load(Ordering::Relaxed) {
                return;
            }
        }
        match events.recv_timeout(Duration::from_millis(20)) {
            Ok(VdaEvent::NodeFailed { phys }) => {
                let Some(d) = deployment.upgrade() else {
                    return;
                };
                d.events.record(
                    d.clock.now(),
                    crate::RuntimeEvent::NodeFailed { node: phys },
                );
                recover_from(&d, phys);
            }
            Ok(VdaEvent::ManagerChanged {
                scope,
                new_manager,
                takeover: true,
            }) => {
                let Some(d) = deployment.upgrade() else {
                    return;
                };
                if d.obs.is_enabled() {
                    let t = d.clock.now();
                    d.obs
                        .tracer()
                        .span("failover.takeover", t)
                        .attr("scope", format!("{scope:?}"))
                        .attr("new_manager", format!("{new_manager:?}"))
                        .finish(t);
                }
            }
            Ok(_) => {}
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Re-creates every checkpointed object that lived on `dead` on surviving
/// machines. Returns how many objects were recovered.
pub(crate) fn recover_from(d: &Arc<DeploymentInner>, dead: jsym_net::NodeId) -> usize {
    let span = d
        .obs
        .tracer()
        .span(
            "recover.node",
            if d.obs.is_enabled() {
                d.clock.now()
            } else {
                0.0
            },
        )
        .node(dead.0)
        .attr("dead", dead);
    let survivors: Vec<jsym_net::NodeId> = d
        .pool
        .ids()
        .into_iter()
        .filter(|&m| m != dead && !d.vda.is_failed(m))
        .collect();
    if survivors.is_empty() {
        span.attr("recovered", 0).finish(if d.obs.is_enabled() {
            d.clock.now()
        } else {
            0.0
        });
        return 0;
    }
    let apps: Vec<_> = d.apps.read().values().cloned().collect();
    let mut recovered = 0;
    for app in apps {
        for obj in app.objects_on(dead) {
            let Ok(stored) = d.store.get(&ckpt_key(obj)) else {
                continue; // never checkpointed: lost, as in the paper today
            };
            // Least-loaded survivor first; skip nodes missing the class's
            // artifact and try the next.
            let mut candidates = survivors.clone();
            while !candidates.is_empty() {
                let Some(target) = d.vda.least_loaded(&candidates, None) else {
                    break;
                };
                match app.restore_object_at(obj, &stored.class, stored.state.clone(), target) {
                    Ok(()) => {
                        recovered += 1;
                        d.events.record(
                            d.clock.now(),
                            crate::RuntimeEvent::Recovered {
                                obj,
                                from: dead,
                                to: target,
                            },
                        );
                        break;
                    }
                    Err(JsError::ClassNotLoaded { .. }) => {
                        candidates.retain(|&c| c != target);
                    }
                    Err(_) => break,
                }
            }
        }
    }
    span.attr("recovered", recovered)
        .finish(if d.obs.is_enabled() {
            d.clock.now()
        } else {
            0.0
        });
    recovered
}
