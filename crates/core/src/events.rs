//! Runtime event log.
//!
//! The paper's JS-Shell is the administrator's window into the running
//! system; this log gives it (and tests, and downstream users) a time-stamped
//! record of the runtime's *structural* events — object lifecycle, migration,
//! classloading, persistence, failures and recovery. Per-invocation traffic
//! is deliberately not logged (it is counted in [`crate::NodeStats`]), bar
//! the one-sided calls that fail with nobody to tell; the log captures the
//! events one would grep for when debugging placement.

use crate::ids::ObjectId;
use jsym_net::{NodeId, VirtTime};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A structural runtime event.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeEvent {
    /// An object was created on a node.
    ObjectCreated {
        /// The object.
        obj: ObjectId,
        /// Its class.
        class: String,
        /// Hosting node.
        node: NodeId,
    },
    /// An object was freed.
    ObjectFreed {
        /// The object.
        obj: ObjectId,
        /// The node it was freed on.
        node: NodeId,
    },
    /// An object migrated between nodes.
    Migrated {
        /// The object.
        obj: ObjectId,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Serialized state size in bytes.
        state_bytes: usize,
    },
    /// A codebase artifact was installed on a node.
    ArtifactLoaded {
        /// Artifact name.
        name: String,
        /// The node.
        node: NodeId,
        /// Size in bytes.
        bytes: usize,
    },
    /// An object was persisted.
    ObjectStored {
        /// The object.
        obj: ObjectId,
        /// Its persistence key.
        key: String,
    },
    /// An object was re-created from stored state.
    ObjectRestored {
        /// The (new or original) object id.
        obj: ObjectId,
        /// The node it was restored on.
        node: NodeId,
    },
    /// The NAS declared a node failed.
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// Failure recovery resurrected an object from its checkpoint.
    Recovered {
        /// The object.
        obj: ObjectId,
        /// The dead node it lived on.
        from: NodeId,
        /// The surviving node it was restored to.
        to: NodeId,
    },
    /// An automatic-migration round moved objects off violating nodes.
    AutoMigrationRound {
        /// Number of objects moved.
        migrated: usize,
    },
    /// A one-sided invocation failed; it has no caller to report to.
    OnewayLost {
        /// The addressed object.
        obj: ObjectId,
        /// The node the call arrived on.
        node: NodeId,
        /// The method called.
        method: String,
        /// Why it was lost.
        error: String,
    },
}

impl RuntimeEvent {
    /// Stable span name for this event kind (`event.*` taxonomy).
    pub fn kind(&self) -> &'static str {
        match self {
            RuntimeEvent::ObjectCreated { .. } => "event.object_created",
            RuntimeEvent::ObjectFreed { .. } => "event.object_freed",
            RuntimeEvent::Migrated { .. } => "event.migrated",
            RuntimeEvent::ArtifactLoaded { .. } => "event.artifact_loaded",
            RuntimeEvent::ObjectStored { .. } => "event.object_stored",
            RuntimeEvent::ObjectRestored { .. } => "event.object_restored",
            RuntimeEvent::NodeFailed { .. } => "event.node_failed",
            RuntimeEvent::Recovered { .. } => "event.recovered",
            RuntimeEvent::AutoMigrationRound { .. } => "event.automigration_round",
            RuntimeEvent::OnewayLost { .. } => "event.oneway_lost",
        }
    }

    /// The node this event is attributed to, if any.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            RuntimeEvent::ObjectCreated { node, .. }
            | RuntimeEvent::ObjectFreed { node, .. }
            | RuntimeEvent::ArtifactLoaded { node, .. }
            | RuntimeEvent::ObjectRestored { node, .. }
            | RuntimeEvent::OnewayLost { node, .. }
            | RuntimeEvent::NodeFailed { node } => Some(*node),
            RuntimeEvent::Migrated { from, .. } => Some(*from),
            RuntimeEvent::Recovered { to, .. } => Some(*to),
            RuntimeEvent::ObjectStored { .. } | RuntimeEvent::AutoMigrationRound { .. } => None,
        }
    }
}

impl fmt::Display for RuntimeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeEvent::ObjectCreated { obj, class, node } => {
                write!(f, "created {obj} ({class}) on {node}")
            }
            RuntimeEvent::ObjectFreed { obj, node } => write!(f, "freed {obj} on {node}"),
            RuntimeEvent::Migrated {
                obj,
                from,
                to,
                state_bytes,
            } => write!(f, "migrated {obj} {from} -> {to} ({state_bytes} B)"),
            RuntimeEvent::ArtifactLoaded { name, node, bytes } => {
                write!(f, "loaded {name} ({bytes} B) on {node}")
            }
            RuntimeEvent::ObjectStored { obj, key } => write!(f, "stored {obj} as {key:?}"),
            RuntimeEvent::ObjectRestored { obj, node } => {
                write!(f, "restored {obj} on {node}")
            }
            RuntimeEvent::NodeFailed { node } => write!(f, "node {node} FAILED"),
            RuntimeEvent::Recovered { obj, from, to } => {
                write!(f, "recovered {obj} from dead {from} onto {to}")
            }
            RuntimeEvent::AutoMigrationRound { migrated } => {
                write!(f, "auto-migration moved {migrated} object(s)")
            }
            RuntimeEvent::OnewayLost {
                obj,
                node,
                method,
                error,
            } => write!(f, "one-sided {method} on {obj} lost on {node}: {error}"),
        }
    }
}

/// Bounded, shared event log. Cloning shares the log.
///
/// When built with [`EventLog::with_tracer`], every recorded event is
/// mirrored into the span tracer as an instant `event.*` span, so the
/// structured trace subsumes this log.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Mutex<VecDeque<(VirtTime, RuntimeEvent)>>>,
    capacity: usize,
    tracer: jsym_obs::Tracer,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self::with_tracer(capacity, jsym_obs::Tracer::disabled())
    }

    /// A log that additionally mirrors every event into `tracer` as an
    /// instant span named by [`RuntimeEvent::kind`].
    pub fn with_tracer(capacity: usize, tracer: jsym_obs::Tracer) -> Self {
        EventLog {
            inner: Arc::new(Mutex::new(VecDeque::with_capacity(capacity.min(1024)))),
            capacity: capacity.max(1),
            tracer,
        }
    }

    /// Appends an event at virtual time `at`.
    pub fn record(&self, at: VirtTime, event: RuntimeEvent) {
        if self.tracer.is_enabled() {
            let mut span = self.tracer.span(event.kind(), at).attr("detail", &event);
            if let Some(node) = event.node() {
                span = span.node(node.0);
            }
            span.finish(at);
        }
        let mut q = self.inner.lock();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back((at, event));
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<(VirtTime, RuntimeEvent)> {
        let q = self.inner.lock();
        q.iter().rev().take(n).rev().cloned().collect()
    }

    /// All events, oldest first.
    pub fn all(&self) -> Vec<(VirtTime, RuntimeEvent)> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drops all retained events.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

impl Default for EventLog {
    /// Keeps the latest 4096 events.
    fn default() -> Self {
        EventLog::new(4096)
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventLog({} events)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_tails_in_order() {
        let log = EventLog::new(10);
        for i in 0..5 {
            log.record(i as f64, RuntimeEvent::NodeFailed { node: NodeId(i) });
        }
        let tail = log.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 3.0);
        assert_eq!(tail[1].0, 4.0);
        assert_eq!(log.all().len(), 5);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = EventLog::new(3);
        for i in 0..7u32 {
            log.record(
                i as f64,
                RuntimeEvent::ObjectFreed {
                    obj: ObjectId(i as u64),
                    node: NodeId(0),
                },
            );
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.all()[0].0, 4.0);
    }

    #[test]
    fn display_is_readable() {
        let e = RuntimeEvent::Migrated {
            obj: ObjectId(7),
            from: NodeId(1),
            to: NodeId(2),
            state_bytes: 1024,
        };
        assert_eq!(e.to_string(), "migrated obj7 n1 -> n2 (1024 B)");
        assert_eq!(
            RuntimeEvent::NodeFailed { node: NodeId(3) }.to_string(),
            "node n3 FAILED"
        );
    }

    #[test]
    fn clear_empties() {
        let log = EventLog::default();
        log.record(0.0, RuntimeEvent::NodeFailed { node: NodeId(0) });
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }
}
