//! The network agent (NA) and the network agent system (NAS).
//!
//! Paper §5.1: every node runs a network agent that periodically samples the
//! machine's system parameters, forwards them to its cluster manager (which
//! averages them and forwards the averages to the site manager, which
//! forwards to the domain manager), exchanges heartbeats with its managers
//! and members, and declares nodes failed when they stay silent beyond the
//! failure timeout — upon which a backup manager takes over.

use crate::ids::AgentAddr;
use crate::msg::Msg;
use crate::runtime::NodeShared;
use jsym_net::{NodeId, VirtTime};
use jsym_sysmon::{aggregate, ParamHistory, SysSnapshot};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Monitoring configuration (set through the JS-Shell).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NaConfig {
    /// Seconds (virtual) between monitoring rounds.
    pub monitor_period: f64,
    /// Virtual seconds of silence after which a peer is declared failed.
    pub failure_timeout: f64,
    /// Snapshots kept in the local history ring.
    pub history: usize,
}

impl Default for NaConfig {
    fn default() -> Self {
        NaConfig {
            monitor_period: 2.0,
            failure_timeout: 10.0,
            history: 16,
        }
    }
}

/// Runtime-adjustable monitoring knobs (f64 seconds stored as bits).
pub(crate) struct NaKnobs {
    monitor_period: std::sync::atomic::AtomicU64,
    failure_timeout: std::sync::atomic::AtomicU64,
}

impl NaKnobs {
    fn new(config: &NaConfig) -> Self {
        NaKnobs {
            monitor_period: std::sync::atomic::AtomicU64::new(config.monitor_period.to_bits()),
            failure_timeout: std::sync::atomic::AtomicU64::new(config.failure_timeout.to_bits()),
        }
    }

    pub(crate) fn monitor_period(&self) -> f64 {
        f64::from_bits(self.monitor_period.load(Ordering::Relaxed))
    }

    pub(crate) fn set_monitor_period(&self, secs: f64) {
        self.monitor_period.store(secs.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn failure_timeout(&self) -> f64 {
        f64::from_bits(self.failure_timeout.load(Ordering::Relaxed))
    }

    pub(crate) fn set_failure_timeout(&self, secs: f64) {
        self.failure_timeout
            .store(secs.to_bits(), Ordering::Relaxed);
    }
}

/// Per-node NAS state.
pub(crate) struct NaState {
    /// Live knobs (paper §5.1: measurement periods and the failure timeout
    /// are "changeable under JS-Shell").
    pub knobs: NaKnobs,
    /// Most recent local snapshot.
    pub latest: Mutex<Option<SysSnapshot>>,
    /// Short local history ring.
    pub history: Mutex<ParamHistory>,
    /// Latest node-level report per reporting machine (when this node is a
    /// manager).
    pub node_reports: Mutex<HashMap<NodeId, SysSnapshot>>,
    /// Aggregates this node computed as a manager, keyed by component label.
    pub aggregated: Mutex<HashMap<String, SysSnapshot>>,
    /// Aggregates received from lower-level managers, keyed by label.
    pub received_aggregates: Mutex<HashMap<String, SysSnapshot>>,
    /// Virtual time each peer was last heard from.
    pub last_heard: Mutex<HashMap<NodeId, VirtTime>>,
    /// Peers this node has already declared failed (suppress repeats).
    pub declared_failed: Mutex<HashSet<NodeId>>,
    /// Monitoring rounds completed (for tests/benches).
    pub rounds: std::sync::atomic::AtomicU64,
    /// Generation of the monitor timer chain. Re-arming
    /// (e.g. `set_monitor_period`) bumps this; a fired timer task whose
    /// captured generation no longer matches is stale and dies instead of
    /// running a duplicate round and re-arming a second chain.
    pub timer_gen: std::sync::atomic::AtomicU64,
}

impl NaState {
    pub(crate) fn new(config: NaConfig) -> Self {
        NaState {
            knobs: NaKnobs::new(&config),
            latest: Mutex::new(None),
            history: Mutex::new(ParamHistory::new(config.history.max(1))),
            node_reports: Mutex::new(HashMap::new()),
            aggregated: Mutex::new(HashMap::new()),
            received_aggregates: Mutex::new(HashMap::new()),
            last_heard: Mutex::new(HashMap::new()),
            declared_failed: Mutex::new(HashSet::new()),
            rounds: std::sync::atomic::AtomicU64::new(0),
            timer_gen: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records that `peer` was heard from at `now` (any message counts).
    pub(crate) fn heard(&self, peer: NodeId, now: VirtTime) {
        self.last_heard.lock().insert(peer, now);
    }

    /// Stores an incoming monitoring report.
    pub(crate) fn receive_report(&self, from: NodeId, label: &str, snapshot: SysSnapshot) {
        if label.is_empty() {
            self.node_reports.lock().insert(from, snapshot);
        } else {
            self.received_aggregates
                .lock()
                .insert(label.to_owned(), snapshot);
        }
    }
}

/// Arms the node's NA: each round (monitoring, reporting, aggregation,
/// heartbeats, failure detection) is a timer task that runs `monitor_round`
/// and re-arms itself one period ahead. `set_monitor_period` re-arms
/// immediately with the new period by bumping the chain's generation counter
/// and starting a fresh chain; the superseded chain notices the stale
/// generation when its timer fires and dies without running a duplicate
/// round (DESIGN.md §13).
pub(crate) fn schedule_monitor(shared: Arc<NodeShared>, vda: jsym_vda::VdaRegistry) {
    let gen = shared.na.timer_gen.load(Ordering::Relaxed);
    schedule_monitor_gen(shared, vda, gen);
}

fn schedule_monitor_gen(shared: Arc<NodeShared>, vda: jsym_vda::VdaRegistry, gen: u64) {
    let stale = move |sh: &NodeShared| {
        sh.shutdown.load(Ordering::Relaxed) || sh.na.timer_gen.load(Ordering::Relaxed) != gen
    };
    if stale(&shared) {
        return;
    }
    let period = shared.na.knobs.monitor_period().max(1e-4);
    let at = shared.clock.real_deadline(shared.clock.now() + period);
    let workers = Arc::clone(&shared.workers);
    workers.spawn_at(
        at,
        Box::new(move || {
            if !stale(&shared) {
                monitor_round(&shared, &vda);
                schedule_monitor_gen(shared, vda, gen);
            }
        }),
    );
}

/// One monitoring round. Public within the crate so tests and benches can
/// drive rounds deterministically.
pub(crate) fn monitor_round(shared: &Arc<NodeShared>, vda: &jsym_vda::VdaRegistry) {
    let now = shared.clock.now();
    let span = shared
        .obs
        .tracer()
        .span("na.round", if shared.obs.is_enabled() { now } else { 0.0 })
        .node(shared.phys.0);

    // 1. Sample the local machine.
    let snap = shared.machine.snapshot();
    *shared.na.latest.lock() = Some(snap.clone());
    shared.na.history.lock().push(snap.clone());

    // 2. Work out this node's monitoring relationships.
    let view = vda.monitor_view(shared.phys);

    // 3. Aggregate the components this node manages (averaging, §5.1).
    let mut my_aggregates: Vec<(String, SysSnapshot)> = Vec::new();
    {
        let reports = shared.na.node_reports.lock();
        for (label, members) in &view.aggregates {
            let snaps: Vec<SysSnapshot> = members
                .iter()
                .filter_map(|m| {
                    if *m == shared.phys {
                        Some(snap.clone())
                    } else {
                        reports.get(m).cloned()
                    }
                })
                .collect();
            if !snaps.is_empty() {
                my_aggregates.push((label.clone(), aggregate::average(&snaps)));
            }
        }
    }
    {
        let mut agg = shared.na.aggregated.lock();
        for (label, s) in &my_aggregates {
            agg.insert(label.clone(), s.clone());
        }
    }

    // 4. Report upward: node-level snapshot and any aggregates.
    let reports = shared.obs.counter("na.reports", Some(shared.phys.0), "");
    for &mgr in &view.report_to {
        reports.add(1 + my_aggregates.len() as u64);
        let _ = shared.send(
            AgentAddr::pub_oa(mgr),
            Msg::SysReport {
                from: shared.phys,
                label: String::new(),
                snapshot: snap.clone(),
            },
        );
        for (label, s) in &my_aggregates {
            let _ = shared.send(
                AgentAddr::pub_oa(mgr),
                Msg::SysReport {
                    from: shared.phys,
                    label: label.clone(),
                    snapshot: s.clone(),
                },
            );
        }
    }

    // 5. Heartbeats to everyone who watches us (members ↔ managers).
    shared
        .obs
        .counter("na.heartbeats", Some(shared.phys.0), "")
        .add(view.expects_from.len() as u64);
    for &peer in &view.expects_from {
        let _ = shared.send(
            AgentAddr::pub_oa(peer),
            Msg::Heartbeat { from: shared.phys },
        );
    }

    // 6. Failure detection: peers silent past the timeout are declared
    //    failed; the registry promotes backup managers and releases the
    //    node's virtual components.
    let timeout = shared.na.knobs.failure_timeout();
    let mut to_fail: Vec<NodeId> = Vec::new();
    {
        let mut heard = shared.na.last_heard.lock();
        let declared = shared.na.declared_failed.lock();
        for &peer in &view.expects_from {
            if declared.contains(&peer) {
                continue;
            }
            match heard.get(&peer) {
                Some(&t) if now - t > timeout => to_fail.push(peer),
                Some(_) => {}
                None => {
                    // Start the grace period at first expectation.
                    heard.insert(peer, now);
                }
            }
        }
    }
    for peer in to_fail {
        shared.na.declared_failed.lock().insert(peer);
        // Stale location-cache entries pointing at the dead peer would
        // send nested calls into NodeUnreachable; recovery may re-place
        // its objects, so force the next resolution to ask afresh.
        shared.location_cache.lock().retain(|_, &mut l| l != peer);
        if shared.obs.is_enabled() {
            shared
                .obs
                .counter("na.failures_declared", Some(shared.phys.0), "")
                .inc();
            let t = shared.clock.now();
            shared
                .obs
                .tracer()
                .span("na.failure_declared", t)
                .node(shared.phys.0)
                .attr("peer", peer)
                .finish(t);
        }
        vda.handle_phys_failure(peer);
        // Record the failure in the replicated directory too, so surviving
        // replicas agree on the failed set. Off the NA round: a directory
        // election in progress must not stall monitoring.
        if shared.dir.is_some() {
            let s = Arc::clone(shared);
            shared.workers.spawn(Box::new(move || {
                let _ = crate::dir::propose(&s, &jsym_dir::DirCommand::MarkFailed { node: peer.0 });
            }));
        }
    }

    span.finish(crate::runtime::obs_now(shared));
    shared.na.rounds.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heard_and_reports_update_state() {
        let na = NaState::new(NaConfig::default());
        na.heard(NodeId(3), 12.0);
        assert_eq!(na.last_heard.lock().get(&NodeId(3)), Some(&12.0));

        let mut s = SysSnapshot::empty(1.0);
        s.set(jsym_sysmon::SysParam::IdlePct, 80.0);
        na.receive_report(NodeId(3), "", s.clone());
        assert!(na.node_reports.lock().contains_key(&NodeId(3)));
        na.receive_report(NodeId(3), "vc0", s);
        assert!(na.received_aggregates.lock().contains_key("vc0"));
    }

    #[test]
    fn default_config_is_sane() {
        let c = NaConfig::default();
        assert!(c.failure_timeout > c.monitor_period * 2.0);
        assert!(c.history > 0);
    }
}
