//! The agent wire protocol.
//!
//! Every message between agents travels as a [`Packet`] inside a
//! [`jsym_net::Payload`], addressed to an agent on the destination node. The
//! declared wire size feeds the network delay model; it approximates what
//! Java serialization of the same message would occupy.

use crate::error::JsError;
use crate::ids::{AgentAddr, AgentKind, ObjectId, ReqId};
use crate::intern::Sym;
use crate::value::{args_wire_size, Args, Value};
use jsym_net::NodeId;
use jsym_sysmon::SysSnapshot;

/// A message plus the agent it is addressed to.
#[derive(Debug)]
pub(crate) struct Packet {
    pub to: AgentKind,
    pub msg: Msg,
}

/// Protocol messages between AppOAs, PubOAs and NAs.
#[derive(Debug)]
pub(crate) enum Msg {
    // ---------------------------------------------------------------- OAS
    /// Create an object instance of `class` on the receiving PubOA.
    ///
    /// Class and method names travel as interned [`Sym`]s: a `u32` symbol id
    /// on the (modeled) wire, resolved against the node-local name table
    /// synced at class-registration time. The cost model still charges the
    /// full name bytes — Java RMI serializes the string — via
    /// [`Sym::as_str`].
    CreateObject {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
        class: Sym,
        args: Args,
        origin: AgentAddr,
    },
    /// Re-create an object from serialized state (persistent load).
    CreateFromState {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
        class: Sym,
        state: Vec<u8>,
        origin: AgentAddr,
    },
    /// Release an object (one-sided; no reply).
    FreeObject { obj: ObjectId },
    /// Invoke `method` on `obj`. `reply_to: None` marks a one-sided
    /// invocation (`oinvoke`) — no result, no completion message.
    Invoke {
        req: ReqId,
        reply_to: Option<AgentAddr>,
        obj: ObjectId,
        method: Sym,
        args: Args,
    },
    /// Completion of a request.
    Reply {
        req: ReqId,
        result: Result<Value, JsError>,
    },
    /// Ask an origin AppOA where one of its objects currently lives
    /// (paper Figure 4). Replies `I64(node)`.
    WhereIs {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
    },
    /// Ask the PubOA holding `obj` to migrate it to `dst`
    /// (paper Figure 3, step 1). Replies `I64(dst)` once confirmed.
    MigrateRequest {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
        dst: NodeId,
        /// Wire-encoded tracing span of the requesting operation
        /// ([`jsym_obs::SpanId::to_wire`]; `0` = untraced). Framing only —
        /// not charged as payload bytes.
        span: u64,
    },
    /// Transfer of the serialized object to the destination PubOA
    /// (Figure 3, step 2). The reply is the confirmation (step 3).
    MigrateTransfer {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
        class: Sym,
        state: Vec<u8>,
        origin: AgentAddr,
        /// Wire-encoded tracing span of the sender's transfer step, parent
        /// for the receiver's install span (`0` = untraced).
        span: u64,
    },
    /// Store the object's state under a persistence key. Replies
    /// `Str(key)`.
    StoreObject {
        req: ReqId,
        reply_to: AgentAddr,
        obj: ObjectId,
        key: Option<String>,
    },
    /// Ship a codebase artifact to the receiving node (selective
    /// classloading, §4.3). Replies `Null`.
    LoadArtifact {
        req: ReqId,
        reply_to: AgentAddr,
        name: String,
        bytes: usize,
    },
    /// Remove a previously loaded artifact (one-sided). Carries the size so
    /// the node can release the accounted memory.
    UnloadArtifact { name: String, bytes: usize },
    // ---------------------------------------------------------------- NAS
    /// Periodic monitoring report to a manager: a node's own snapshot
    /// (empty `label`) or the aggregate of a component it manages.
    SysReport {
        from: NodeId,
        label: String,
        snapshot: SysSnapshot,
    },
    /// Liveness heartbeat.
    Heartbeat { from: NodeId },
    /// Invoke a *static* method of `class` on the receiving node's static
    /// context (paper §7 future work: "extending JavaSymphony to handle
    /// static methods and variables").
    StaticInvoke {
        req: ReqId,
        reply_to: Option<AgentAddr>,
        class: Sym,
        method: Sym,
        args: Args,
    },
    // ---------------------------------------------------------- DIRECTORY
    /// Replica-to-replica consensus traffic: one encoded
    /// [`jsym_dir::DirMsg`] (votes, appends, snapshots). One-sided — acks
    /// travel as further `DirConsensus` packets, not `Reply`s.
    DirConsensus { data: Vec<u8> },
    /// Client proposal of an encoded [`jsym_dir::DirCommand`] to a replica.
    /// Replies `Null` once majority-committed, or `DirRedirect`.
    DirPropose {
        req: ReqId,
        reply_to: AgentAddr,
        cmd: Vec<u8>,
    },
    /// Client read of an object's placement from the directory leader
    /// (read-index read). Replies `I64(node)`, `NoSuchObject`, or
    /// `DirRedirect`.
    DirRead {
        req: ReqId,
        reply_to: AgentAddr,
        object: u64,
    },
}

impl Msg {
    /// Approximate serialized size in bytes, for the network cost model.
    pub(crate) fn wire_size(&self) -> usize {
        const HDR: usize = 48; // addressing, ids, protocol framing
        match self {
            Msg::CreateObject { class, args, .. } => {
                HDR + 32 + class.as_str().len() + args_wire_size(args)
            }
            Msg::CreateFromState { class, state, .. } => {
                HDR + 32 + class.as_str().len() + state.len()
            }
            Msg::FreeObject { .. } => HDR,
            Msg::Invoke { method, args, .. } => {
                HDR + 16 + method.as_str().len() + args_wire_size(args)
            }
            Msg::Reply { result, .. } => {
                HDR + match result {
                    Ok(v) => v.wire_size(),
                    Err(_) => 64,
                }
            }
            Msg::WhereIs { .. } => HDR + 8,
            Msg::MigrateRequest { .. } => HDR + 16,
            Msg::MigrateTransfer { class, state, .. } => {
                HDR + 32 + class.as_str().len() + state.len()
            }
            Msg::StoreObject { key, .. } => HDR + 8 + key.as_deref().map_or(0, str::len),
            Msg::LoadArtifact { name, bytes, .. } => HDR + name.len() + bytes,
            Msg::UnloadArtifact { name, .. } => HDR + name.len(),
            // A full snapshot is ~44 parameters; Java-serialized ≈ 800 B.
            Msg::SysReport { label, .. } => HDR + 800 + label.len(),
            Msg::Heartbeat { .. } => HDR,
            Msg::StaticInvoke {
                class,
                method,
                args,
                ..
            } => HDR + 16 + class.as_str().len() + method.as_str().len() + args_wire_size(args),
            Msg::DirConsensus { data } => HDR + data.len(),
            Msg::DirPropose { cmd, .. } => HDR + cmd.len(),
            Msg::DirRead { .. } => HDR + 8,
        }
    }

    /// The reply-size of `result` as it will travel back (used by callers to
    /// pre-charge unmarshalling).
    pub(crate) fn reply_wire_size(result: &Result<Value, JsError>) -> usize {
        48 + match result {
            Ok(v) => v.wire_size(),
            Err(_) => 64,
        }
    }

    /// [`Msg::reply_wire_size`] for a borrowed success value, so the
    /// pre-charge on every synchronous RMI reply does not clone the `Value`
    /// just to size it.
    pub(crate) fn reply_wire_size_ok(v: &Value) -> usize {
        48 + v.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdGen;

    fn addr() -> AgentAddr {
        AgentAddr::pub_oa(NodeId(0))
    }

    #[test]
    fn invoke_size_tracks_args() {
        let small = Msg::Invoke {
            req: IdGen::req(),
            reply_to: Some(addr()),
            obj: ObjectId(1),
            method: Sym::intern("m"),
            args: vec![],
        };
        let big = Msg::Invoke {
            req: IdGen::req(),
            reply_to: Some(addr()),
            obj: ObjectId(1),
            method: Sym::intern("m"),
            args: vec![Value::floats(vec![0.0; 1000])],
        };
        assert!(big.wire_size() > small.wire_size() + 3900);
    }

    #[test]
    fn transfer_size_tracks_state() {
        let m = Msg::MigrateTransfer {
            req: IdGen::req(),
            reply_to: addr(),
            obj: ObjectId(1),
            class: Sym::intern("C"),
            state: vec![0; 5000],
            origin: addr(),
            span: 0,
        };
        assert!(m.wire_size() >= 5000);
    }

    #[test]
    fn artifact_load_pays_its_bytes() {
        let m = Msg::LoadArtifact {
            req: IdGen::req(),
            reply_to: addr(),
            name: "classes.jar".into(),
            bytes: 300_000,
        };
        assert!(m.wire_size() >= 300_000);
        // Unload is control-plane only.
        let u = Msg::UnloadArtifact {
            name: "classes.jar".into(),
            bytes: 300_000,
        };
        assert!(u.wire_size() < 100);
    }

    #[test]
    fn heartbeat_is_small_and_report_is_substantial() {
        let hb = Msg::Heartbeat { from: NodeId(2) };
        assert!(hb.wire_size() < 64);
        let report = Msg::SysReport {
            from: NodeId(2),
            label: "vc0".into(),
            snapshot: SysSnapshot::empty(0.0),
        };
        assert!(report.wire_size() > 500);
    }

    #[test]
    fn reply_size_covers_result_value() {
        let ok: Result<Value, JsError> = Ok(Value::floats(vec![0.0; 100]));
        assert!(Msg::reply_wire_size(&ok) > 400);
        let err: Result<Value, JsError> = Err(JsError::Timeout);
        assert_eq!(Msg::reply_wire_size(&err), 48 + 64);
    }
}
