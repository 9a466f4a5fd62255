//! The replicated directory service: hosts, client and ticker.
//!
//! When [`crate::JsShell::directory_replicas`] is non-zero, the first `n`
//! machines each host one [`jsym_dir::DirReplica`]. The replicas agree on
//! two replicated maps — object→node placement and manager-role assignments
//! — through a leader-based replicated log (see the `jsym-dir` crate and
//! DESIGN.md §10). Consensus traffic rides the ordinary delivery plane as
//! [`Msg::DirConsensus`] packets charged their encoded byte length, so
//! partitions and kills apply to it like to any RMI.
//!
//! With replication off (the default) the runtime keeps the legacy
//! single-authority path: the origin AppOA answers `WhereIs`. With it on,
//! AppOAs *write through* every placement change to the directory and
//! [`crate::runtime::NodeShared::resolve_location`] consults the directory
//! leader instead of the origin — falling back to the origin authority
//! whenever the directory cannot produce a location, whether it cannot
//! answer (e.g. during an election) or has no entry (the write-through is
//! best-effort and may never have landed). Both paths
//! resolve to the same node on fault-free runs; the differential proptest in
//! `tests/dir_props.rs` asserts that byte-for-byte.

use crate::error::JsError;
use crate::ids::{AgentAddr, IdGen, ObjectId, ReqId};
use crate::msg::Msg;
use crate::runtime::NodeShared;
use crate::value::Value;
use crate::Result;
use jsym_dir::{DirCommand, DirConfig, DirEvent, DirMsg, DirReplica};
use jsym_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Rounds of leader discovery before a directory operation gives up. Each
/// round tries every replica once and backs off [`RETRY_BACKOFF`] virtual
/// seconds, so the budget comfortably covers a staggered re-election.
const MAX_ROUNDS: u32 = 200;

/// Virtual-seconds pause between leader-discovery rounds.
const RETRY_BACKOFF: f64 = 0.05;

/// Derives the tick period and consensus deadlines a deployment's time
/// scale can actually honor.
///
/// The ticker sleeps *real* time; the OS floor on a sleep is a few hundred
/// microseconds. At an aggressive scale (e.g. 1 virt s = 10 µs real) that
/// floor spans whole virtual *minutes*, so fixed virtual deadlines like
/// "election after 2 s of silence" would expire on every single tick and
/// the replicas would thrash through elections forever. Instead: compute
/// the virtual span of one achievable real tick and keep heartbeats a
/// couple of ticks apart and elections several heartbeats out — the
/// protocol's *shape* (heartbeats ≪ election timeout) is preserved at any
/// scale, and all deadlines stay expressed in virtual time.
fn scaled_config(scale: jsym_net::TimeScale, leases: bool) -> (f64, DirConfig) {
    let base = DirConfig::default();
    let tick = (base.heartbeat_interval / 5.0).max(scale.to_virt(Duration::from_micros(500)));
    let heartbeat = base.heartbeat_interval.max(2.0 * tick);
    let election = base.election_timeout.max(4.0 * heartbeat);
    // Two heartbeats of lease: long enough that a healthy leader's rounds
    // renew it continuously, and always < election_timeout (>= 4 heartbeats)
    // as the lease safety argument requires (DESIGN.md §14).
    let lease = if leases { 2.0 * heartbeat } else { 0.0 };
    (
        tick,
        DirConfig {
            heartbeat_interval: heartbeat,
            election_timeout: election,
            lease_duration: lease,
            ..base
        },
    )
}

/// Deployment-wide client view of the directory: the replica set and the
/// best-known leader. Shared by every node runtime.
pub(crate) struct DirCluster {
    /// Machines hosting replicas (the first `directory_replicas` machines).
    pub replicas: Vec<NodeId>,
    leader_hint: Mutex<Option<NodeId>>,
}

impl DirCluster {
    pub(crate) fn new(replicas: Vec<NodeId>) -> Self {
        DirCluster {
            replicas,
            leader_hint: Mutex::new(None),
        }
    }

    fn set_leader(&self, leader: Option<NodeId>) {
        *self.leader_hint.lock() = leader;
    }

    /// Replicas to try, best-known leader first.
    fn candidates(&self) -> Vec<NodeId> {
        let hint = *self.leader_hint.lock();
        let mut out = Vec::with_capacity(self.replicas.len());
        if let Some(h) = hint {
            if self.replicas.contains(&h) {
                out.push(h);
            }
        }
        for &r in &self.replicas {
            if Some(r) != hint {
                out.push(r);
            }
        }
        out
    }
}

/// Public point-in-time status of one directory replica (the shell's
/// `directory` command).
#[derive(Clone, Debug)]
pub struct DirectoryStatus {
    /// Machine hosting the replica.
    pub node: u32,
    /// `"leader"`, `"follower"` or `"candidate"`.
    pub role: String,
    /// Current term.
    pub term: u64,
    /// Best-known leader, if any.
    pub leader: Option<u32>,
    /// Commit index.
    pub commit: u64,
    /// Applied index (lag = leader commit − this).
    pub applied: u64,
    /// Log entries currently retained.
    pub log_entries: usize,
    /// Index folded into the snapshot.
    pub snapshot_index: u64,
    /// Object placements in the applied state.
    pub locations: usize,
    /// Manager-role scopes in the applied state.
    pub roles: usize,
    /// Virtual seconds between leader heartbeats (scaled to the deployment's
    /// time scale — see `scaled_config`).
    pub heartbeat_interval: f64,
    /// Virtual seconds of leader silence before a re-election starts.
    pub election_timeout: f64,
    /// Read-lease duration in virtual seconds (`0.0` = leases disabled).
    pub lease_duration: f64,
}

/// One hosted directory replica plus the parked client requests it answers
/// when commits/read-confirmations arrive.
pub(crate) struct DirHost {
    replica: Mutex<DirReplica>,
    /// Virtual-seconds between ticks, matched to the config's deadlines.
    tick_period: f64,
    /// Proposal seq → the caller awaiting majority commit.
    props: Mutex<HashMap<u64, (ReqId, AgentAddr)>>,
    /// Read seq → the caller awaiting leadership confirmation.
    reads: Mutex<HashMap<u64, (ReqId, AgentAddr, u64)>>,
}

impl DirHost {
    pub(crate) fn new(
        id: NodeId,
        replicas: &[NodeId],
        scale: jsym_net::TimeScale,
        leases: bool,
        now: f64,
    ) -> Self {
        let ids: Vec<u32> = replicas.iter().map(|n| n.0).collect();
        let (tick_period, config) = scaled_config(scale, leases);
        DirHost {
            replica: Mutex::new(DirReplica::new(id.0, &ids, config, now)),
            tick_period,
            props: Mutex::new(HashMap::new()),
            reads: Mutex::new(HashMap::new()),
        }
    }

    /// Status snapshot for the shell / Deployment accessor.
    pub(crate) fn status(&self) -> DirectoryStatus {
        let r = self.replica.lock();
        let s = r.status();
        DirectoryStatus {
            node: s.id,
            role: s.role.to_string(),
            term: s.term,
            leader: s.leader,
            commit: s.commit,
            applied: s.applied,
            log_entries: s.log_entries,
            snapshot_index: s.snapshot_index,
            locations: r.state().location_count(),
            roles: r.state().role_count(),
            heartbeat_interval: r.config().heartbeat_interval,
            election_timeout: r.config().election_timeout,
            lease_duration: r.config().lease_duration,
        }
    }

    /// Advances the replica's timers; called by the ticker thread.
    pub(crate) fn tick(&self, shared: &NodeShared) {
        let now = shared.clock.now();
        let (out, events, hint) = {
            let mut r = self.replica.lock();
            let out = r.tick(now);
            (out, r.take_events(), r.leader_hint())
        };
        self.settle(shared, events, hint);
        ship(shared, out);
    }

    /// Routes one directory-addressed message.
    pub(crate) fn handle(&self, shared: &NodeShared, src: NodeId, msg: Msg) {
        let now = shared.clock.now();
        match msg {
            Msg::DirConsensus { data } => {
                let Ok(m) = DirMsg::from_bytes(&data) else {
                    return;
                };
                let (out, events, hint) = {
                    let mut r = self.replica.lock();
                    let out = r.receive(src.0, m, now);
                    (out, r.take_events(), r.leader_hint())
                };
                self.settle(shared, events, hint);
                ship(shared, out);
            }
            Msg::DirPropose { req, reply_to, cmd } => {
                let Ok(cmd) = DirCommand::from_bytes(&cmd) else {
                    shared.send_reply(
                        reply_to,
                        req,
                        Err(JsError::Serialization("bad directory command".into())),
                    );
                    return;
                };
                let (parked, events, hint) = {
                    let mut r = self.replica.lock();
                    match r.propose(cmd, now) {
                        Ok(seq) => {
                            self.props.lock().insert(seq, (req, reply_to));
                            (None, r.take_events(), r.leader_hint())
                        }
                        Err(nl) => (Some(nl.hint), Vec::new(), r.leader_hint()),
                    }
                };
                if let Some(hint) = parked {
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.redirects", Some(shared.phys.0), "propose")
                            .inc();
                    }
                    shared.send_reply(reply_to, req, Err(JsError::DirRedirect { hint }));
                    return;
                }
                self.settle(shared, events, hint);
            }
            Msg::DirRead {
                req,
                reply_to,
                object,
            } => {
                let (parked, events, hint) = {
                    let mut r = self.replica.lock();
                    match r.read_index(now) {
                        Ok(seq) => {
                            self.reads.lock().insert(seq, (req, reply_to, object));
                            (None, r.take_events(), r.leader_hint())
                        }
                        Err(nl) => (Some(nl.hint), Vec::new(), r.leader_hint()),
                    }
                };
                if let Some(hint) = parked {
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.redirects", Some(shared.phys.0), "read")
                            .inc();
                    }
                    shared.send_reply(reply_to, req, Err(JsError::DirRedirect { hint }));
                    return;
                }
                self.settle(shared, events, hint);
            }
            _ => {}
        }
    }

    /// Resolves drained replica events into client replies and telemetry.
    /// Runs with the replica lock *released*; replies may dispatch inline on
    /// this thread via the loopback fast path.
    fn settle(&self, shared: &NodeShared, events: Vec<DirEvent>, hint: Option<u32>) {
        if events.is_empty() {
            return;
        }
        let mut replies: Vec<(AgentAddr, ReqId, Result<Value>)> = Vec::new();
        for ev in events {
            match ev {
                DirEvent::Committed { seq, .. } => {
                    if let Some((req, to)) = self.props.lock().remove(&seq) {
                        replies.push((to, req, Ok(Value::Null)));
                    }
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.commits", Some(shared.phys.0), "")
                            .inc();
                    }
                }
                DirEvent::ProposalDropped { seq } => {
                    if let Some((req, to)) = self.props.lock().remove(&seq) {
                        replies.push((to, req, Err(JsError::DirRedirect { hint })));
                    }
                }
                DirEvent::ReadReady { seq, lease } => {
                    // Take the entry out in its own statement: an `if let`
                    // on `self.reads.lock()` would hold the reads guard for
                    // the whole body while it takes `self.replica.lock()`,
                    // inverting the replica→reads order used by
                    // `handle(Msg::DirRead)` and deadlocking the shards.
                    let entry = self.reads.lock().remove(&seq);
                    if let Some((req, to, object)) = entry {
                        let result = self
                            .replica
                            .lock()
                            .state()
                            .location_of(object)
                            .map(|n| Value::I64(n as i64))
                            .ok_or(JsError::NoSuchObject(ObjectId(object)));
                        replies.push((to, req, result));
                    }
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.reads", Some(shared.phys.0), "")
                            .inc();
                        if lease {
                            // Served from the leader lease: no heartbeat
                            // round trip stood between request and answer.
                            shared
                                .obs
                                .counter("dir.lease.local_reads", Some(shared.phys.0), "")
                                .inc();
                        }
                    }
                }
                DirEvent::ReadDropped { seq } => {
                    if let Some((req, to, _)) = self.reads.lock().remove(&seq) {
                        replies.push((to, req, Err(JsError::DirRedirect { hint })));
                    }
                }
                DirEvent::LeaderIs { leader, term } => {
                    if let Some(cluster) = shared.dir.as_ref() {
                        cluster.set_leader(leader.map(NodeId));
                    }
                    if shared.obs.is_enabled() {
                        let now = shared.clock.now();
                        shared
                            .obs
                            .tracer()
                            .span("dir.leader", now)
                            .node(shared.phys.0)
                            .attr("leader", leader.map_or(-1, |l| l as i64))
                            .attr("term", term as i64)
                            .finish(now);
                    }
                }
                DirEvent::ElectionStarted { .. } => {
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.elections", Some(shared.phys.0), "")
                            .inc();
                    }
                }
                DirEvent::SnapshotTaken { .. } => {
                    if shared.obs.is_enabled() {
                        shared
                            .obs
                            .counter("dir.snapshots", Some(shared.phys.0), "")
                            .inc();
                    }
                }
                DirEvent::Applied { .. } => {}
            }
        }
        for (to, req, result) in replies {
            shared.send_reply(to, req, result);
        }
    }
}

/// Ships consensus messages to peer replicas over the delivery plane,
/// charged their encoded byte length.
fn ship(shared: &NodeShared, out: Vec<(u32, DirMsg)>) {
    for (peer, msg) in out {
        let _ = shared.send(
            AgentAddr::dir(NodeId(peer)),
            Msg::DirConsensus {
                data: msg.to_bytes(),
            },
        );
    }
}

/// The per-replica ticker: a timer task that runs one `tick` per tick period
/// (heartbeats and election timeouts off the virtual clock) and re-arms
/// itself, like `na::schedule_monitor` drives monitoring rounds.
pub(crate) fn schedule_dir_ticker(shared: Arc<NodeShared>) {
    let Some(host) = shared.dir_host.clone() else {
        return;
    };
    if shared.shutdown.load(Ordering::Relaxed) {
        return;
    }
    let at = shared
        .clock
        .real_deadline(shared.clock.now() + host.tick_period);
    let workers = Arc::clone(&shared.workers);
    workers.spawn_at(
        at,
        Box::new(move || {
            if !shared.shutdown.load(Ordering::Relaxed) {
                host.tick(&shared);
                schedule_dir_ticker(shared);
            }
        }),
    );
}

// ------------------------------------------------------------------- client

/// Proposes a placement/role command to the directory, retrying through
/// redirects and re-elections. A no-op `Ok(())` when replication is off.
///
/// Commands are idempotent (see `jsym_dir::DirState`), so retrying after an
/// ambiguous failure (timeout with the commit possibly applied) is safe.
pub(crate) fn propose(shared: &NodeShared, cmd: &DirCommand) -> Result<()> {
    let Some(cluster) = shared.dir.as_ref() else {
        return Ok(());
    };
    if shared.obs.is_enabled() {
        shared
            .obs
            .counter("dir.proposals", Some(shared.phys.0), "")
            .inc();
    }
    let bytes = cmd.to_bytes();
    let reply_to = AgentAddr::pub_oa(shared.phys);
    let backoff = retry_backoff(shared);
    let mut last_err = JsError::Timeout;
    for _ in 0..MAX_ROUNDS {
        for target in cluster.candidates() {
            if shared.shutdown.load(Ordering::Relaxed) {
                return Err(JsError::ShuttingDown);
            }
            let req = IdGen::req();
            match shared.call(
                AgentAddr::dir(target),
                req,
                Msg::DirPropose {
                    req,
                    reply_to,
                    cmd: bytes.clone(),
                },
            ) {
                Ok(_) => {
                    cluster.set_leader(Some(target));
                    return Ok(());
                }
                Err(JsError::DirRedirect { hint }) => {
                    cluster.set_leader(hint.map(NodeId));
                    last_err = JsError::DirRedirect { hint };
                }
                Err(e @ (JsError::NodeUnreachable(_) | JsError::Timeout)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        shared.clock.sleep(backoff);
    }
    if shared.obs.is_enabled() {
        shared
            .obs
            .counter("dir.writethrough_errors", Some(shared.phys.0), "")
            .inc();
    }
    Err(last_err)
}

/// Reads an object's placement from the directory leader (linearizable
/// read-index read). `Err(NoSuchObject)` is returned without retrying, but
/// it is *not* authoritative — the write-through is best-effort, so callers
/// fall back to the origin-authority path on any error.
pub(crate) fn read_location(shared: &NodeShared, obj: ObjectId) -> Result<NodeId> {
    let Some(cluster) = shared.dir.as_ref() else {
        return Err(JsError::NoSuchObject(obj));
    };
    let reply_to = AgentAddr::pub_oa(shared.phys);
    let backoff = retry_backoff(shared);
    let mut last_err = JsError::Timeout;
    for _ in 0..MAX_ROUNDS {
        for target in cluster.candidates() {
            if shared.shutdown.load(Ordering::Relaxed) {
                return Err(JsError::ShuttingDown);
            }
            let req = IdGen::req();
            match shared.call(
                AgentAddr::dir(target),
                req,
                Msg::DirRead {
                    req,
                    reply_to,
                    object: obj.0,
                },
            ) {
                Ok(v) => {
                    cluster.set_leader(Some(target));
                    let node = v
                        .as_i64()
                        .ok_or_else(|| JsError::MethodFailed("bad directory read reply".into()))?;
                    return Ok(NodeId(node as u32));
                }
                Err(JsError::DirRedirect { hint }) => {
                    cluster.set_leader(hint.map(NodeId));
                    last_err = JsError::DirRedirect { hint };
                }
                Err(e @ JsError::NoSuchObject(_)) => return Err(e),
                Err(e @ (JsError::NodeUnreachable(_) | JsError::Timeout)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        shared.clock.sleep(backoff);
    }
    Err(last_err)
}

/// Virtual-seconds backoff between leader-discovery rounds, floored so the
/// full `MAX_ROUNDS` budget always spans several re-elections in *real*
/// time no matter how aggressive the deployment's time scale is.
fn retry_backoff(shared: &NodeShared) -> f64 {
    RETRY_BACKOFF.max(shared.clock.scale().to_virt(Duration::from_micros(200)))
}

/// Encodes a [`jsym_vda::ManagerScope`] as the directory's opaque scope key:
/// component kind in the high 32 bits, arena index in the low 32.
pub(crate) fn scope_key(scope: jsym_vda::ManagerScope) -> u64 {
    match scope {
        jsym_vda::ManagerScope::Cluster(k) => (1u64 << 32) | k.index() as u64,
        jsym_vda::ManagerScope::Site(k) => (2u64 << 32) | k.index() as u64,
        jsym_vda::ManagerScope::Domain(k) => (3u64 << 32) | k.index() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_orders_candidates_by_leader_hint() {
        let c = DirCluster::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.candidates(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        c.set_leader(Some(NodeId(2)));
        assert_eq!(c.candidates(), vec![NodeId(2), NodeId(0), NodeId(1)]);
        // A hint outside the replica set is ignored.
        c.set_leader(Some(NodeId(9)));
        assert_eq!(c.candidates(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
