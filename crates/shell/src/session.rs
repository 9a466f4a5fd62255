//! Executing shell commands against a live deployment.

use crate::command::{Command, HELP};
use jsym_core::{
    Deployment, JsCodebase, JsObj, JsRegistration, MachineConfig, MigrateTarget, Placement, Value,
};
use jsym_net::NodeId;
use jsym_sysmon::SysParam;
use jsym_vda::Cluster;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// An interactive administration session over one deployment.
///
/// Holds an administrative application registration (objects created from
/// the shell belong to it), the label → object table, requested clusters and
/// shipped codebases.
pub struct ShellSession {
    deployment: Deployment,
    reg: JsRegistration,
    objects: BTreeMap<String, JsObj>,
    clusters: Vec<Cluster>,
    codebases: Vec<JsCodebase>,
    next_obj: u32,
    /// Set once `quit` has been executed.
    pub finished: bool,
}

impl ShellSession {
    /// Opens a session on `deployment` (registers the admin application).
    pub fn new(deployment: Deployment) -> jsym_core::Result<Self> {
        let reg = deployment.register_app()?;
        Ok(ShellSession {
            deployment,
            reg,
            objects: BTreeMap::new(),
            clusters: Vec::new(),
            codebases: Vec::new(),
            next_obj: 1,
            finished: false,
        })
    }

    /// The deployment this session administers.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn node_by_name(&self, name: &str) -> Result<NodeId, String> {
        self.deployment
            .pool()
            .by_name(name)
            .map(|(id, _)| id)
            .map_err(|e| e.to_string())
    }

    fn object(&self, label: &str) -> Result<&JsObj, String> {
        self.objects
            .get(label)
            .ok_or_else(|| format!("no object labelled {label:?}; see `objects`"))
    }

    /// Parses and executes one line.
    pub fn run_line(&mut self, line: &str) -> String {
        match Command::parse(line) {
            Ok(cmd) => self.execute(cmd).unwrap_or_else(|e| format!("error: {e}")),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Executes a parsed command, returning its printable output.
    pub fn execute(&mut self, cmd: Command) -> Result<String, String> {
        match cmd {
            Command::Help => Ok(HELP.to_owned()),
            Command::Quit => {
                self.finished = true;
                Ok("bye".to_owned())
            }
            Command::Nodes => {
                let mut out = format!(
                    "{:<4} {:<10} {:<22} {:>7} {:>6} {:>6} {:>8}\n",
                    "id", "name", "model", "mflops", "idle%", "objs", "status"
                );
                for id in self.deployment.machines() {
                    let machine = self
                        .deployment
                        .pool()
                        .machine(id)
                        .map_err(|e| e.to_string())?;
                    let spec = machine.spec().clone();
                    let idle = machine
                        .snapshot()
                        .num(SysParam::IdlePct)
                        .unwrap_or(f64::NAN);
                    let objs = self
                        .deployment
                        .node_stats(id)
                        .map(|s| s.objects_hosted)
                        .unwrap_or(0);
                    let status = if self.deployment.vda().is_failed(id) {
                        "FAILED"
                    } else {
                        "up"
                    };
                    let _ = writeln!(
                        out,
                        "{:<4} {:<10} {:<22} {:>7.1} {:>6.1} {:>6} {:>8}",
                        id.to_string(),
                        spec.name,
                        spec.model,
                        spec.peak_mflops,
                        idle,
                        objs,
                        status
                    );
                }
                Ok(out)
            }
            Command::Snapshot { node, param } => {
                let id = self.node_by_name(&node)?;
                let snap = self
                    .deployment
                    .pool()
                    .snapshot_of(id)
                    .map_err(|e| e.to_string())?;
                let mut out = String::new();
                match param {
                    Some(p) => {
                        let v = snap.get(p).ok_or_else(|| format!("{p} not present"))?;
                        let _ = writeln!(out, "{p} = {v}");
                    }
                    None => {
                        for (p, v) in snap.iter() {
                            let _ = writeln!(out, "{p:<18} = {v}");
                        }
                    }
                }
                Ok(out)
            }
            Command::Cluster { n, constraints } => {
                let constr = (!constraints.is_empty()).then_some(&constraints);
                let cluster = self
                    .deployment
                    .vda()
                    .request_cluster(n, constr)
                    .map_err(|e| e.to_string())?;
                let names: Vec<String> = (0..cluster.nr_nodes())
                    .filter_map(|i| cluster.get_node(i).ok().and_then(|n| n.name().ok()))
                    .collect();
                let out = format!(
                    "cluster {} with {} nodes: {}",
                    cluster.key(),
                    cluster.nr_nodes(),
                    names.join(", ")
                );
                self.clusters.push(cluster);
                Ok(out)
            }
            Command::Arch => {
                if self.clusters.is_empty() {
                    return Ok("no architectures requested from this shell".to_owned());
                }
                let mut out = String::new();
                for c in &self.clusters {
                    let mgr = c
                        .manager()
                        .and_then(|m| m.name().ok())
                        .unwrap_or_else(|| "-".to_owned());
                    let backup = c
                        .backup_manager()
                        .and_then(|m| m.name().ok())
                        .unwrap_or_else(|| "-".to_owned());
                    let _ = writeln!(
                        out,
                        "{}: {} nodes, manager {}, backup {}{}",
                        c.key(),
                        c.nr_nodes(),
                        mgr,
                        backup,
                        if c.is_live() { "" } else { " (freed)" }
                    );
                }
                Ok(out)
            }
            Command::Create { class, node } => {
                let placement = match &node {
                    Some(name) => Placement::OnPhys(self.node_by_name(name)?),
                    None => Placement::Auto,
                };
                let obj = JsObj::create(&self.reg, &class, &[], placement, None)
                    .map_err(|e| e.to_string())?;
                let label = format!(
                    "{}{}",
                    class.to_ascii_lowercase().chars().next().unwrap_or('o'),
                    self.next_obj
                );
                self.next_obj += 1;
                let location = obj.get_node_name().map_err(|e| e.to_string())?;
                self.objects.insert(label.clone(), obj);
                Ok(format!("created {label} ({class}) on {location}"))
            }
            Command::Invoke { obj, method, args } => {
                let o = self.object(&obj)?;
                let vals: Vec<Value> = args.into_iter().map(Value::I64).collect();
                let out = o.sinvoke(&method, &vals).map_err(|e| e.to_string())?;
                Ok(format!("{out:?}"))
            }
            Command::OInvoke { obj, method, args } => {
                let o = self.object(&obj)?;
                let vals: Vec<Value> = args.into_iter().map(Value::I64).collect();
                o.oinvoke(&method, &vals).map_err(|e| e.to_string())?;
                Ok("issued (one-sided)".to_owned())
            }
            Command::Migrate { obj, node } => {
                let dst = self.node_by_name(&node)?;
                let o = self.object(&obj)?;
                o.migrate(MigrateTarget::ToPhys(dst), None)
                    .map_err(|e| e.to_string())?;
                Ok(format!("{obj} now on {node}"))
            }
            Command::Codebase {
                artifact,
                bytes,
                nodes,
            } => {
                let cb = self.reg.codebase();
                cb.add(&artifact, bytes);
                let mut loaded = Vec::new();
                for name in &nodes {
                    let id = self.node_by_name(name)?;
                    cb.load_phys(id).map_err(|e| e.to_string())?;
                    loaded.push(name.clone());
                }
                self.codebases.push(cb);
                Ok(format!(
                    "loaded {artifact} ({bytes} B) onto {}",
                    loaded.join(", ")
                ))
            }
            Command::Store { obj, key } => {
                let o = self.object(&obj)?;
                let key = o.store(key.as_deref()).map_err(|e| e.to_string())?;
                Ok(format!("stored as {key:?}"))
            }
            Command::Load { key, label, node } => {
                let placement = match &node {
                    Some(name) => Placement::OnPhys(self.node_by_name(name)?),
                    None => Placement::Auto,
                };
                let obj = self
                    .reg
                    .load_stored(&key, placement, None)
                    .map_err(|e| e.to_string())?;
                let location = obj.get_node_name().map_err(|e| e.to_string())?;
                self.objects.insert(label.clone(), obj);
                Ok(format!("loaded {key:?} as {label} on {location}"))
            }
            Command::Kill { node } => {
                let id = self.node_by_name(&node)?;
                self.deployment.kill_node(id);
                Ok(format!("{node} killed (detection is up to the NAS)"))
            }
            Command::AddNode { name, mflops } => {
                if self.deployment.pool().by_name(&name).is_ok() {
                    return Err(format!("a machine named {name:?} already exists"));
                }
                let id = self
                    .deployment
                    .add_machine(MachineConfig::idle(&name, mflops));
                Ok(format!("added {name} as {id} ({mflops} Mflop/s, idle)"))
            }
            Command::RmNode { name } => {
                let id = self.node_by_name(&name)?;
                self.deployment
                    .remove_machine(id)
                    .map_err(|e| e.to_string())?;
                Ok(format!("removed {name}"))
            }
            Command::Period { secs } => {
                self.deployment.set_monitor_period(secs);
                Ok(format!("monitoring period set to {secs} s"))
            }
            Command::Timeout { secs } => {
                self.deployment.set_failure_timeout(secs);
                Ok(format!("failure timeout set to {secs} s"))
            }
            Command::Automigrate { enabled } => {
                self.deployment.set_automigration(enabled);
                Ok(format!(
                    "automatic migration {}",
                    if enabled { "enabled" } else { "disabled" }
                ))
            }
            Command::Params { cached } => {
                if cached {
                    let p = self.deployment.plane_stats();
                    let mut out = format!("aggregation plane: sample ttl {:.2}s\n", p.ttl);
                    let _ = writeln!(
                        out,
                        "sample cache: {} hits, {} misses, {} invalidations, {} entries",
                        p.hits, p.misses, p.invalidations, p.cached
                    );
                    let _ = writeln!(
                        out,
                        "placement heap: {} free machines; rollups: {} node contributions",
                        p.heap, p.tracked
                    );
                    let _ = writeln!(out, "dirty set: {} nodes awaiting re-evaluation", p.dirty);
                    out.push_str(
                        "(counters also export via `metrics` as vda.sample.* / vda.dirty.size)\n",
                    );
                    return Ok(out);
                }
                let mut out = format!(
                    "{:<10} {:>8} {:>7} {:>10} {:>7}\n",
                    "name", "load1", "idle%", "availMB", "procs"
                );
                for id in self.deployment.machines() {
                    let snap = self
                        .deployment
                        .pool()
                        .snapshot_of(id)
                        .map_err(|e| e.to_string())?;
                    let name = snap.str(SysParam::NodeName).unwrap_or("?").to_owned();
                    let num = |p: SysParam| snap.num(p).unwrap_or(f64::NAN);
                    let _ = writeln!(
                        out,
                        "{:<10} {:>8.3} {:>7.1} {:>10.1} {:>7.0}",
                        name,
                        num(SysParam::CpuLoad1),
                        num(SysParam::IdlePct),
                        num(SysParam::AvailMem),
                        num(SysParam::NumProcesses),
                    );
                }
                Ok(out)
            }
            Command::Stats => {
                let net = self.deployment.net_stats();
                let mut out = format!(
                    "network: {} msgs sent, {} delivered, {} dropped, {} bytes\n",
                    net.msgs_sent, net.msgs_delivered, net.msgs_dropped, net.bytes_sent
                );
                for id in self.deployment.machines() {
                    if let Some(s) = self.deployment.node_stats(id) {
                        let _ = writeln!(
                            out,
                            "{id}: {} invocations, {} creations, {}/{} migrations in/out, {} monitor rounds",
                            s.invocations, s.creations, s.migrations_in, s.migrations_out, s.monitor_rounds
                        );
                    }
                }
                Ok(out)
            }
            Command::Directory => {
                let status = self.deployment.directory_status();
                if status.is_empty() {
                    return Ok(
                        "replicated directory disabled (boot with directory_replicas >= 1)"
                            .to_owned(),
                    );
                }
                let max_commit = status.iter().map(|s| s.commit).max().unwrap_or(0);
                let mut out = match status.iter().find(|s| s.role == "leader") {
                    Some(l) => format!(
                        "leader: node {} (term {}, commit {})\n",
                        l.node, l.term, l.commit
                    ),
                    None => "leader: none (election in progress)\n".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "heartbeat {:.3}s, election timeout {:.3}s (virtual)",
                    status[0].heartbeat_interval, status[0].election_timeout
                );
                if status[0].lease_duration > 0.0 {
                    let _ = writeln!(
                        out,
                        "read leases: {:.3}s (leader serves reads locally while leased)",
                        status[0].lease_duration
                    );
                } else {
                    out.push_str("read leases: off (every read runs a probe round)\n");
                }
                let _ = writeln!(
                    out,
                    "{:<5} {:<10} {:>5} {:>7} {:>8} {:>4} {:>4} {:>9} {:>10} {:>6}",
                    "node",
                    "role",
                    "term",
                    "commit",
                    "applied",
                    "lag",
                    "log",
                    "snapshot",
                    "locations",
                    "roles"
                );
                for s in &status {
                    let _ = writeln!(
                        out,
                        "{:<5} {:<10} {:>5} {:>7} {:>8} {:>4} {:>4} {:>9} {:>10} {:>6}",
                        s.node,
                        s.role,
                        s.term,
                        s.commit,
                        s.applied,
                        max_commit - s.commit,
                        s.log_entries,
                        s.snapshot_index,
                        s.locations,
                        s.roles
                    );
                }
                Ok(out)
            }
            Command::Batch => {
                let snap = self.deployment.obs().snapshot();
                let mut out = match self.deployment.network().batching_config() {
                    Some(bc) => format!(
                        "rmi batching: on (flush window {:.2e} s virtual, max batch {} bytes)\n",
                        bc.flush_window, bc.max_bytes
                    ),
                    None => {
                        "rmi batching: off (boot with JsShell::rmi_batching to enable)\n".to_owned()
                    }
                };
                let coalesced = snap.metrics.counter_total("net.batch.coalesced");
                let flushed = snap.metrics.counter_total("net.batch.flushed");
                let msgs = snap.metrics.counter_total("net.batch.msgs");
                let saved = snap.metrics.counter_total("net.batch.bytes_saved");
                // Flushes broken down by why the batch closed.
                let by_reason = |reason: &str| {
                    snap.metrics
                        .counters
                        .iter()
                        .filter(|(k, _)| k.name == "net.batch.flushed" && k.component == reason)
                        .map(|(_, v)| v)
                        .sum::<u64>()
                };
                let _ = writeln!(
                    out,
                    "flushes: {flushed} ({} window, {} bytes-overflow), {msgs} messages carried",
                    by_reason("window"),
                    by_reason("bytes"),
                );
                let mean = if flushed > 0 {
                    msgs as f64 / flushed as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "coalesced followers: {coalesced}; mean batch size: {mean:.2}"
                );
                let _ = writeln!(out, "modeled wire capacity freed: {saved} bytes");
                let open: f64 = snap
                    .metrics
                    .gauges
                    .iter()
                    .filter(|(k, _)| k.name == "net.batch.pending")
                    .map(|(_, v)| v)
                    // Not `.sum()`: its f64 identity is -0.0, which would
                    // render as "-0" when no gauge exists yet.
                    .fold(0.0, |a, v| a + v);
                let _ = writeln!(out, "open batches now: {open:.0}");
                Ok(out)
            }
            Command::Affinity { set } => {
                if let Some(enabled) = set {
                    self.deployment.set_affinity(enabled);
                    return Ok(format!(
                        "affinity-guided re-placement {}",
                        if enabled { "enabled" } else { "disabled" }
                    ));
                }
                let a = self.deployment.affinity_stats();
                let mut out = format!(
                    "affinity plane: {} (half-life {:.1}s virtual)\n",
                    if a.placement { "on" } else { "off" },
                    a.half_life
                );
                let _ = writeln!(
                    out,
                    "traffic counters: {} objects, {} caller/object pairs",
                    a.objects, a.pairs
                );
                let _ = writeln!(
                    out,
                    "re-placement: {} rounds, {} objects moved toward dominant callers",
                    a.rounds, a.migrations
                );
                let snap = self.deployment.obs().snapshot();
                let reads = snap.metrics.counter_total("dir.reads");
                let local = snap.metrics.counter_total("dir.lease.local_reads");
                let _ = writeln!(
                    out,
                    "directory read leases: {} ({local}/{reads} reads served locally)",
                    if a.leases { "on" } else { "off" }
                );
                Ok(out)
            }
            Command::Executor => {
                let s = self
                    .deployment
                    .exec_stats()
                    .expect("every deployment runs on the executor");
                let mut out = format!("work-stealing executor, {} workers\n", s.threads);
                let _ = writeln!(
                    out,
                    "queue depth {}, blocked {}, spares {}, timers pending {}",
                    s.queue_depth, s.blocked, s.spares, s.timer_pending
                );
                let _ = writeln!(
                    out,
                    "steals {}, parks {}, spare spawns {}",
                    s.steals, s.parks, s.spare_spawns
                );
                // How the synchronous waits went (counted with metrics on).
                let metrics = self.deployment.obs().metrics().snapshot();
                let waits = |how: &str| -> u64 {
                    let counted = metrics.counters.iter();
                    counted
                        .filter(|(k, _)| k.name == "rmi.sync" && k.component == how)
                        .map(|(_, n)| n)
                        .sum()
                };
                let _ = writeln!(
                    out,
                    "jobs run by waiting callers {}, sync waits inline {}, parked {}",
                    s.caller_jobs,
                    waits("inline"),
                    waits("parked")
                );
                Ok(out)
            }
            Command::Metrics { json } => {
                if json {
                    return Ok(self.deployment.obs().to_json());
                }
                let mut out = self.deployment.obs().summary();
                let endpoints = self.deployment.endpoint_stats();
                if !endpoints.is_empty() {
                    out.push_str("per-endpoint traffic (msgs/bytes):\n");
                    let _ = writeln!(
                        out,
                        "  {:<6} {:>18} {:>18} {:>18} {:>18}",
                        "node", "sent", "delivered", "dropped", "rejected"
                    );
                    for e in endpoints {
                        let _ = writeln!(
                            out,
                            "  {:<6} {:>18} {:>18} {:>18} {:>18}",
                            e.node.to_string(),
                            format!("{}/{}", e.sent_msgs, e.sent_bytes),
                            format!("{}/{}", e.delivered_msgs, e.delivered_bytes),
                            format!("{}/{}", e.dropped_msgs, e.dropped_bytes),
                            format!("{}/{}", e.rejected_msgs, e.rejected_bytes),
                        );
                    }
                }
                Ok(out)
            }
            Command::Trace { filter } => {
                let spans = self.deployment.obs().tracer().snapshot();
                if spans.is_empty() {
                    return Ok("no spans recorded (is observability enabled?)".to_owned());
                }
                let spans = match &filter {
                    None => spans,
                    Some(prefix) => {
                        // Keep a span when it — or any ancestor — matches, so
                        // `trace migrate` shows the whole protocol subtree.
                        let by_id: HashMap<_, _> = spans.iter().map(|s| (s.id, s)).collect();
                        let matches = |s: &jsym_core::obs::SpanRecord| {
                            let mut cur = Some(s);
                            while let Some(c) = cur {
                                if c.name.starts_with(prefix.as_str()) {
                                    return true;
                                }
                                cur = c.parent.and_then(|p| by_id.get(&p).copied());
                            }
                            false
                        };
                        let kept: Vec<_> = spans.iter().filter(|s| matches(s)).cloned().collect();
                        if kept.is_empty() {
                            return Ok(format!("no spans matching {prefix:?}"));
                        }
                        kept
                    }
                };
                Ok(jsym_core::obs::render_tree(&spans))
            }
            Command::Log { n } => {
                let events = self.deployment.events().tail(n);
                if events.is_empty() {
                    return Ok("no events yet".to_owned());
                }
                let mut out = String::new();
                for (at, ev) in events {
                    let _ = writeln!(out, "[{at:10.2}s] {ev}");
                }
                Ok(out)
            }
            Command::Objects => {
                if self.objects.is_empty() {
                    return Ok("no objects; use `create`".to_owned());
                }
                let mut out = String::new();
                for (label, obj) in &self.objects {
                    let loc = obj.get_node_name().unwrap_or_else(|_| "<gone>".to_owned());
                    let _ = writeln!(out, "{label}: {} on {loc}", obj.class_name());
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    fn session() -> ShellSession {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        ShellSession::new(d).unwrap()
    }

    #[test]
    fn nodes_lists_all_machines() {
        let mut s = session();
        let out = s.run_line("nodes");
        assert!(out.contains("m0") && out.contains("m1") && out.contains("m2"));
        assert!(out.contains("up"));
    }

    #[test]
    fn create_invoke_migrate_flow() {
        let mut s = session();
        let out = s.run_line("create Counter m1");
        assert!(out.contains("created c1"), "{out}");
        assert!(out.contains("on m1"), "{out}");
        assert_eq!(s.run_line("invoke c1 add 41"), "I64(41)");
        assert_eq!(s.run_line("oinvoke c1 add 1"), "issued (one-sided)");
        assert_eq!(s.run_line("invoke c1 get"), "I64(42)");
        assert!(s.run_line("migrate c1 m2").contains("now on m2"));
        assert_eq!(s.run_line("invoke c1 get"), "I64(42)");
        let objs = s.run_line("objects");
        assert!(objs.contains("c1: Counter on m2"), "{objs}");
    }

    #[test]
    fn snapshot_and_single_param() {
        let mut s = session();
        let all = s.run_line("snapshot m0");
        assert!(all.contains("NodeName"));
        assert!(all.contains("IdlePct"));
        let one = s.run_line("snapshot m0 idle");
        assert!(one.starts_with("IdlePct ="), "{one}");
        assert!(s.run_line("snapshot ghost").starts_with("error:"));
    }

    #[test]
    fn params_shows_live_and_cached_views() {
        let mut s = session();
        let live = s.run_line("params");
        assert!(live.contains("name"), "{live}");
        assert!(
            live.contains("m0") && live.contains("m1") && live.contains("m2"),
            "{live}"
        );
        // Allocate something so the plane has cache traffic to report.
        s.run_line("cluster 2 idle>=50");
        let cached = s.run_line("params --cached");
        assert!(cached.contains("aggregation plane: sample ttl"), "{cached}");
        assert!(cached.contains("sample cache:"), "{cached}");
        assert!(cached.contains("dirty set:"), "{cached}");
        assert!(s.run_line("params --cached extra").starts_with("error:"));
    }

    #[test]
    fn cluster_with_constraints_and_arch() {
        let mut s = session();
        let out = s.run_line("cluster 2 idle>=50");
        assert!(out.contains("with 2 nodes"), "{out}");
        let arch = s.run_line("arch");
        assert!(arch.contains("manager"), "{arch}");
    }

    #[test]
    fn codebase_gates_creation() {
        let mut s = session();
        let err = s.run_line("create Blob m0");
        assert!(err.contains("error"), "{err}");
        let out = s.run_line("codebase blob.jar 1000 m0");
        assert!(out.contains("loaded blob.jar"), "{out}");
        let ok = s.run_line("create Blob m0");
        assert!(ok.contains("created b"), "{ok}");
    }

    #[test]
    fn store_and_load_round_trip() {
        let mut s = session();
        s.run_line("create Counter m0");
        s.run_line("invoke c1 add 7");
        assert!(s.run_line("store c1 snap").contains("stored as \"snap\""));
        assert!(s
            .run_line("load snap c2 m1")
            .contains("loaded \"snap\" as c2 on m1"));
        assert_eq!(s.run_line("invoke c2 get"), "I64(7)");
    }

    #[test]
    fn kill_and_stats_and_quit() {
        let mut s = session();
        assert!(s.run_line("kill m2").contains("killed"));
        let nodes = s.run_line("nodes");
        // The machine is network-dead; NAS detection is off in the fixture,
        // so status still reads "up" — but stats must still render.
        assert!(nodes.contains("m2"));
        assert!(s.run_line("stats").contains("network:"));
        assert!(s.run_line("automigrate on").contains("enabled"));
        assert_eq!(s.run_line("quit"), "bye");
        assert!(s.finished);
    }

    #[test]
    fn bad_input_is_reported_not_fatal() {
        let mut s = session();
        assert!(s.run_line("nonsense").starts_with("error:"));
        assert!(s.run_line("invoke ghost get").starts_with("error:"));
        assert!(s.run_line("").starts_with("error:"));
        // The session still works afterwards.
        assert!(s.run_line("nodes").contains("m0"));
    }
}

#[cfg(test)]
mod event_log_tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    #[test]
    fn log_command_shows_lifecycle_events() {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m0");
        s.run_line("migrate c1 m1");
        s.run_line("store c1 snap");
        s.run_line("codebase blob.jar 500 m2");
        let log = s.run_line("log 20");
        assert!(log.contains("created obj"), "{log}");
        assert!(log.contains("migrated obj"), "{log}");
        assert!(log.contains("stored obj"), "{log}");
        assert!(log.contains("loaded blob.jar"), "{log}");
        assert_eq!(Command::parse("log 5").unwrap(), Command::Log { n: 5 });
        assert_eq!(Command::parse("log").unwrap(), Command::Log { n: 20 });
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    #[test]
    fn metrics_command_renders_summary_and_json() {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m0");
        s.run_line("invoke c1 add 5");
        let metrics = s.run_line("metrics");
        assert!(metrics.contains("rmi.calls"), "{metrics}");
        assert!(metrics.contains("per-endpoint traffic"), "{metrics}");
        let json = s.run_line("metrics json");
        assert!(json.contains("\"schema\": \"jsym-obs/v1\""), "{json}");
        assert!(json.contains("\"counters\": ["), "{json}");
    }

    #[test]
    fn batch_command_reports_config_and_counters() {
        let bc = jsym_net::BatchConfig::default();
        let d = shell_with_idle_machines(2)
            .rmi_batching(10.0, bc.max_bytes)
            .boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m1");
        for _ in 0..10 {
            s.run_line("oinvoke c1 add 1");
        }
        s.run_line("invoke c1 get");
        let out = s.run_line("batch");
        assert!(out.contains("rmi batching: on"), "{out}");
        assert!(out.contains("flushes:"), "{out}");
        assert!(out.contains("coalesced followers:"), "{out}");
        assert!(out.contains("open batches now:"), "{out}");
        // The one-sided burst shares windows with its own follow-ups, so
        // at least one follower must have coalesced.
        let followers: u64 = out
            .lines()
            .find(|l| l.starts_with("coalesced followers:"))
            .and_then(|l| {
                l.trim_start_matches("coalesced followers:")
                    .split(';')
                    .next()?
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap();
        assert!(followers > 0, "{out}");
    }

    #[test]
    fn executor_command_reports_size_and_counters() {
        // Unsized deployment: the default worker count.
        let d = shell_with_idle_machines(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        let out = s.run_line("executor");
        let default = jsym_core::DEFAULT_EXECUTOR_WORKERS;
        assert!(
            out.contains(&format!("executor, {default} workers")),
            "{out}"
        );
        // Sized deployment: that worker count and live counters.
        let d = shell_with_idle_machines(2).executor(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m1");
        s.run_line("invoke c1 add 1");
        let out = s.run_line("exec");
        assert!(out.contains("work-stealing executor, 2 workers"), "{out}");
        assert!(out.contains("queue depth"), "{out}");
        assert!(out.contains("steals"), "{out}");
        // The create and the invoke: two synchronous waits, inline unless an
        // NA round happened to own the delivery drain.
        assert!(out.contains("jobs run by waiting callers"), "{out}");
        assert!(
            out.contains("inline 2, parked 0")
                || out.contains("inline 1, parked 1")
                || out.contains("inline 0, parked 2"),
            "{out}"
        );
    }

    #[test]
    fn batch_command_reports_disabled_without_batching() {
        let d = shell_with_idle_machines(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        let out = s.run_line("batch");
        assert!(out.contains("rmi batching: off"), "{out}");
    }

    #[test]
    fn affinity_command_reports_stats_and_toggles() {
        // Plain deployment: the plane is off, stats still render.
        let d = shell_with_idle_machines(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        let out = s.run_line("affinity");
        assert!(out.contains("affinity plane: off"), "{out}");
        assert!(out.contains("directory read leases: off"), "{out}");
        // With re-placement on, traffic counters fill and the toggle works.
        let d = shell_with_idle_machines(3)
            .affinity(jsym_core::AffinityConfig {
                placement: true,
                ..jsym_core::AffinityConfig::default()
            })
            .boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m1");
        for _ in 0..5 {
            s.run_line("invoke c1 add 1");
        }
        let out = s.run_line("affinity");
        assert!(out.contains("affinity plane: on"), "{out}");
        assert!(out.contains("traffic counters: 1 objects"), "{out}");
        assert!(s.run_line("affinity off").contains("disabled"));
        let out = s.run_line("affinity");
        assert!(out.contains("affinity plane: off"), "{out}");
        assert!(s.run_line("affinity on").contains("enabled"));
    }

    #[test]
    fn trace_command_shows_migration_protocol_subtree() {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m0");
        s.run_line("migrate c1 m1");
        let trace = s.run_line("trace migrate");
        for step in [
            "migrate.request",
            "migrate.quiesce",
            "migrate.transfer",
            "migrate.install",
            "migrate.confirm",
        ] {
            assert!(trace.contains(step), "missing {step} in:\n{trace}");
        }
        // The filtered view must not include unrelated spans.
        assert!(!trace.contains("rmi.create"), "{trace}");
        // The unfiltered view includes the RMI spans too.
        let full = s.run_line("trace");
        assert!(full.contains("rmi.create"), "{full}");
        assert!(s.run_line("trace nosuchspan").contains("no spans matching"));
    }
}

#[cfg(test)]
mod directory_tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    #[test]
    fn directory_command_reports_leader_term_and_replica_lag() {
        let d = shell_with_idle_machines(3).directory_replicas(3).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m1");
        s.run_line("invoke c1 add 2");
        // Elections are asynchronous; wait for a stable leader to report.
        let mut out = String::new();
        for _ in 0..400 {
            out = s.run_line("directory");
            if out.contains("leader: node") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(out.contains("leader: node"), "{out}");
        assert!(out.contains("term"), "{out}");
        assert!(out.contains("lag"), "{out}");
        assert!(out.contains("follower"), "{out}");
        assert!(out.contains("heartbeat"), "{out}");
        assert!(out.contains("read leases: off"), "{out}");
    }

    #[test]
    fn directory_command_reports_disabled_without_replicas() {
        let d = shell_with_idle_machines(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        let out = s.run_line("directory");
        assert!(out.contains("disabled"), "{out}");
    }
}

#[cfg(test)]
mod addnode_tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    #[test]
    fn addnode_grows_the_deployment_usably() {
        let d = shell_with_idle_machines(2).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        let out = s.run_line("addnode newton 42");
        assert!(out.contains("added newton"), "{out}");
        // The new machine is immediately usable for placement.
        let created = s.run_line("create Counter newton");
        assert!(created.contains("on newton"), "{created}");
        assert_eq!(s.run_line("invoke c1 add 3"), "I64(3)");
        // Duplicate names are rejected.
        assert!(s.run_line("addnode newton 10").starts_with("error:"));
    }
}

#[cfg(test)]
mod rmnode_tests {
    use super::*;
    use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};

    #[test]
    fn rmnode_refuses_busy_machines_and_removes_drained_ones() {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        let mut s = ShellSession::new(d).unwrap();
        s.run_line("create Counter m2");
        assert!(s.run_line("rmnode m2").starts_with("error:"));
        // Migrate the object away, then remove.
        s.run_line("migrate c1 m0");
        assert_eq!(s.run_line("rmnode m2"), "removed m2");
        let nodes = s.run_line("nodes");
        assert!(!nodes.contains("m2"), "{nodes}");
        assert!(s.run_line("rmnode m2").starts_with("error:"));
    }
}
