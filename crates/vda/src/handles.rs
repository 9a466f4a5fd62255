//! Public handles: [`VdaRegistry`], [`Node`], [`Cluster`], [`Site`],
//! [`Domain`] — the Rust counterpart of the paper's §4.2 API.

use crate::plane::{PlaneConfig, PlaneStats, ViolationScan};
use crate::state::VdaState;
use crate::{ClusterKey, DomainKey, NodeKey, ResourcePool, Result, SiteKey, VdaError, VdaEvent};
use crossbeam::channel::{Receiver, Sender};
use jsym_net::NodeId;
use jsym_obs::ObsRegistry;
use jsym_sysmon::{JsConstraints, ParamRollup, ParamValue, SysParam, SysSnapshot};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

struct RegistryInner {
    pool: ResourcePool,
    state: RwLock<VdaState>,
    subscribers: Mutex<Vec<Sender<VdaEvent>>>,
    obs: ObsRegistry,
}

/// The registry of virtual distributed architectures for one deployment.
///
/// Cloning shares the registry. All component handles keep a reference back
/// to their registry, so the paper's fluent navigation
/// (`d1.getSite(1).getCluster(2).getNode(3)`) works unchanged.
#[derive(Clone)]
pub struct VdaRegistry {
    inner: Arc<RegistryInner>,
}

impl VdaRegistry {
    /// Creates a registry over a pool of physical machines.
    pub fn new(pool: ResourcePool) -> Self {
        Self::with_obs(pool, ObsRegistry::disabled())
    }

    /// Creates a registry that exports aggregation-plane metrics
    /// (`vda.sample.*`, `vda.dirty.size`) through `obs`.
    pub fn with_obs(pool: ResourcePool, obs: ObsRegistry) -> Self {
        VdaRegistry {
            inner: Arc::new(RegistryInner {
                pool,
                state: RwLock::new(VdaState::default()),
                subscribers: Mutex::new(Vec::new()),
                obs,
            }),
        }
    }

    /// The physical machine pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.inner.pool
    }

    /// Subscribes to architecture events (allocation, failure, failover).
    pub fn subscribe(&self) -> Receiver<VdaEvent> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.inner.subscribers.lock().push(tx);
        rx
    }

    /// Runs `f` under the state lock, then broadcasts any events it queued
    /// and exports aggregation-plane counter deltas through obs.
    fn with_state<T>(&self, f: impl FnOnce(&mut VdaState, &ResourcePool) -> T) -> T {
        let (out, events, before, after, dirty) = {
            let mut st = self.inner.state.write();
            let before = st.plane.cache.stats();
            let out = f(&mut st, &self.inner.pool);
            let after = st.plane.cache.stats();
            let events = std::mem::take(&mut st.pending_events);
            (out, events, before, after, st.plane.dirty.len())
        };
        let obs = &self.inner.obs;
        for (name, delta) in [
            ("vda.sample.hits", after.hits - before.hits),
            ("vda.sample.misses", after.misses - before.misses),
            (
                "vda.sample.invalidations",
                after.invalidations - before.invalidations,
            ),
        ] {
            if delta > 0 {
                obs.counter(name, None, "plane").add(delta);
            }
        }
        obs.gauge("vda.dirty.size", None, "plane").set(dirty as f64);
        if !events.is_empty() {
            let mut subs = self.inner.subscribers.lock();
            subs.retain(|tx| events.iter().all(|ev| tx.send(ev.clone()).is_ok()));
        }
        out
    }

    fn read_state<T>(&self, f: impl FnOnce(&VdaState) -> T) -> T {
        f(&self.inner.state.read())
    }

    // ----------------------------------------------------------- node requests

    /// `new Node()` — any machine, picked by the runtime (lowest load).
    pub fn request_node(&self) -> Result<Node> {
        let key = self.with_state(|st, pool| st.alloc_any(pool, None))?;
        Ok(Node {
            key,
            reg: self.clone(),
        })
    }

    /// `new Node("rachel")` — a specific machine by host name.
    pub fn request_node_named(&self, name: &str) -> Result<Node> {
        let key = self.with_state(|st, pool| st.alloc_named(pool, name))?;
        Ok(Node {
            key,
            reg: self.clone(),
        })
    }

    /// `new Node(constr)` — any machine satisfying the constraints.
    pub fn request_node_constrained(&self, constraints: &JsConstraints) -> Result<Node> {
        let key = self.with_state(|st, pool| st.alloc_any(pool, Some(constraints)))?;
        Ok(Node {
            key,
            reg: self.clone(),
        })
    }

    // -------------------------------------------------------- cluster requests

    /// `new Cluster(n [, constr])` — a cluster of `n` distinct machines.
    pub fn request_cluster(
        &self,
        n: usize,
        constraints: Option<&JsConstraints>,
    ) -> Result<Cluster> {
        let key = self.with_state(|st, pool| -> Result<ClusterKey> {
            let nodes = st.alloc_many(pool, n, constraints)?;
            let ck = st.new_cluster(constraints.cloned());
            for nk in nodes {
                st.add_node_to_cluster(ck, nk)?;
            }
            Ok(ck)
        })?;
        Ok(Cluster {
            key,
            reg: self.clone(),
        })
    }

    /// `new Cluster()` — an empty cluster to be populated with `addNode`.
    pub fn empty_cluster(&self) -> Cluster {
        let key = self.with_state(|st, _| st.new_cluster(None));
        Cluster {
            key,
            reg: self.clone(),
        }
    }

    // ----------------------------------------------------------- site requests

    /// `new Site({2,4,5} [, constr])` — clusters of the given sizes.
    pub fn request_site(
        &self,
        cluster_sizes: &[usize],
        constraints: Option<&JsConstraints>,
    ) -> Result<Site> {
        let key = self.with_state(|st, pool| -> Result<SiteKey> {
            // All-or-nothing: allocate every node up front.
            let total: usize = cluster_sizes.iter().sum();
            let mut nodes = st.alloc_many(pool, total, constraints)?.into_iter();
            let sk = st.new_site(constraints.cloned());
            for &size in cluster_sizes {
                let ck = st.new_cluster(None);
                for _ in 0..size {
                    st.add_node_to_cluster(ck, nodes.next().expect("allocated enough"))?;
                }
                st.add_cluster_to_site(sk, ck)?;
            }
            Ok(sk)
        })?;
        Ok(Site {
            key,
            reg: self.clone(),
        })
    }

    /// `new Site()` — an empty site to be populated with `addCluster`.
    pub fn empty_site(&self) -> Site {
        let key = self.with_state(|st, _| st.new_site(None));
        Site {
            key,
            reg: self.clone(),
        }
    }

    // --------------------------------------------------------- domain requests

    /// `new Domain({{1,3,5},{6,4}} [, constr])` — sites of clusters of the
    /// given sizes.
    pub fn request_domain(
        &self,
        site_shapes: &[&[usize]],
        constraints: Option<&JsConstraints>,
    ) -> Result<Domain> {
        let key = self.with_state(|st, pool| -> Result<DomainKey> {
            let total: usize = site_shapes.iter().map(|s| s.iter().sum::<usize>()).sum();
            let mut nodes = st.alloc_many(pool, total, constraints)?.into_iter();
            let dk = st.new_domain(constraints.cloned());
            for &shape in site_shapes {
                let sk = st.new_site(None);
                for &size in shape {
                    let ck = st.new_cluster(None);
                    for _ in 0..size {
                        st.add_node_to_cluster(ck, nodes.next().expect("allocated enough"))?;
                    }
                    st.add_cluster_to_site(sk, ck)?;
                }
                st.add_site_to_domain(dk, sk)?;
            }
            Ok(dk)
        })?;
        Ok(Domain {
            key,
            reg: self.clone(),
        })
    }

    /// `new Domain()` — an empty domain to be populated with `addSite`.
    pub fn empty_domain(&self) -> Domain {
        let key = self.with_state(|st, _| st.new_domain(None));
        Domain {
            key,
            reg: self.clone(),
        }
    }

    // ---------------------------------------------------------------- failure

    /// Declares a physical machine failed (consumed by the runtime's failure
    /// detector): managers fail over, virtual nodes on it are released.
    pub fn handle_phys_failure(&self, phys: NodeId) {
        self.with_state(|st, _| st.handle_phys_failure(phys));
    }

    /// Whether a machine has been declared failed.
    pub fn is_failed(&self, phys: NodeId) -> bool {
        self.read_state(|st| st.failed.contains(&phys))
    }

    /// How many live virtual nodes the machine currently backs.
    pub fn allocation_count(&self, phys: NodeId) -> usize {
        self.read_state(|st| st.allocated.get(&phys).copied().unwrap_or(0))
    }

    // ------------------------------------------------------ aggregation plane

    /// Applies an aggregation-plane configuration (see [`PlaneConfig`]);
    /// the next query re-checks every cached sample against the new TTL.
    pub fn set_plane_config(&self, cfg: PlaneConfig) {
        self.with_state(|st, _| st.set_plane_config(cfg));
    }

    /// The current aggregation-plane configuration.
    pub fn plane_config(&self) -> PlaneConfig {
        self.read_state(|st| st.plane_config())
    }

    /// Point-in-time statistics of the aggregation plane (cache hit/miss
    /// counts, dirty-set size, placement-index size).
    pub fn plane_stats(&self) -> PlaneStats {
        self.read_state(|st| st.plane.stats())
    }

    /// Re-targets the sample TTL (the JS-Shell ties it to the monitoring
    /// period), keeping the dirty threshold.
    pub fn set_plane_ttl(&self, ttl: f64) {
        self.with_state(|st, _| {
            let cfg = PlaneConfig {
                ttl,
                ..st.plane_config()
            };
            st.set_plane_config(cfg);
        });
    }

    /// Where the runtime puts an object it may place freely (§4.4): the live
    /// candidate of lowest `(CpuLoad1, NodeId)`, the allocator's rank, that
    /// satisfies `constraints` — both judged on this period's samples.
    pub fn least_loaded(
        &self,
        candidates: &[NodeId],
        constraints: Option<&JsConstraints>,
    ) -> Option<NodeId> {
        self.with_state(|st, pool| st.least_loaded(pool, candidates, constraints))
    }

    /// This monitoring period's sample of a machine, if it has one.
    pub fn sample_of(&self, machine: NodeId) -> Option<SysSnapshot> {
        self.with_state(|st, pool| st.sample_of(pool, machine).cloned())
    }

    /// Scans for constraint violations. `dirty_only` restricts the scan to
    /// nodes whose sample moved past the configured threshold at a sweep (plus
    /// the nodes already violating), judged on the period's samples — the
    /// event-driven round; otherwise every constrained node, on a fresh one.
    pub fn scan_violations(&self, dirty_only: bool) -> ViolationScan {
        self.with_state(|st, pool| st.scan_violations(pool, dirty_only))
    }

    // ---------------------------------------------------------------- queries

    /// Live virtual nodes whose effective constraints no longer hold,
    /// with the machine backing them. Drives automatic migration.
    /// Always evaluates every constrained node against a fresh sample.
    pub fn violating_nodes(&self) -> Vec<(NodeKey, NodeId)> {
        self.scan_violations(false).violations
    }

    /// Locality-ordered migration candidates for the node: machines in the
    /// same cluster first, then same site, then same domain.
    pub fn locality_candidates(&self, node: &Node) -> Vec<NodeId> {
        self.read_state(|st| st.locality_candidates(node.key))
    }

    /// The conjunction of the node's own creation constraints and those of
    /// every enclosing component.
    pub fn effective_constraints(&self, node: &Node) -> JsConstraints {
        self.read_state(|st| st.effective_constraints(node.key))
    }

    /// A handle for an existing virtual node key (used by the runtime).
    pub fn node_handle(&self, key: NodeKey) -> Node {
        Node {
            key,
            reg: self.clone(),
        }
    }

    /// Computes the monitoring relationships of a physical machine across all
    /// live architectures: whom it reports to, whom it expects heartbeats
    /// from, and which component member-sets it aggregates as a manager
    /// (paper §5.1 — nodes report to cluster managers, cluster managers to
    /// site managers, site managers to domain managers; managers examine the
    /// managers of the next lower and higher level for failures).
    pub fn monitor_view(&self, phys: NodeId) -> MonitorView {
        self.read_state(|st| {
            let mut view = MonitorView::default();
            let phys_of = |st: &crate::state::VdaState, nk: NodeKey| st.node(nk).phys;

            for (ci, cl) in st.clusters.iter().enumerate() {
                if cl.freed || cl.nodes.is_empty() {
                    continue;
                }
                let ck = ClusterKey(ci as u32);
                let Some(mgr) = cl.manager else { continue };
                let mgr_phys = phys_of(st, mgr);
                let members: Vec<NodeId> = cl.nodes.iter().map(|&nk| phys_of(st, nk)).collect();
                let i_am_member = members.contains(&phys);
                let i_am_mgr = mgr_phys == phys;
                if i_am_member && !i_am_mgr {
                    view.report_to.push(mgr_phys);
                    view.expects_from.push(mgr_phys);
                }
                if i_am_mgr {
                    for &m in &members {
                        if m != phys {
                            view.expects_from.push(m);
                        }
                    }
                    view.aggregates.push((format!("{ck}"), members.clone()));
                    // Forward cluster aggregate to the site manager.
                    if let Some(sk) = cl.parent {
                        if let Some(sm) = st.site(sk).manager {
                            let sm_phys = phys_of(st, sm);
                            if sm_phys != phys {
                                view.report_to.push(sm_phys);
                                view.expects_from.push(sm_phys);
                            }
                        }
                    }
                }
            }
            for (si, site) in st.sites.iter().enumerate() {
                if site.freed || site.clusters.is_empty() {
                    continue;
                }
                let sk = SiteKey(si as u32);
                let Some(mgr) = site.manager else { continue };
                if phys_of(st, mgr) != phys {
                    continue;
                }
                // I manage this site: expect from its cluster managers,
                // aggregate its machines, forward to the domain manager.
                for &ck in &site.clusters {
                    if let Some(cm) = st.cluster(ck).manager {
                        let cm_phys = phys_of(st, cm);
                        if cm_phys != phys {
                            view.expects_from.push(cm_phys);
                        }
                    }
                }
                view.aggregates
                    .push((format!("{sk}"), st.site_machines(sk)));
                if let Some(dk) = site.parent {
                    if let Some(dm) = st.domain(dk).manager {
                        let dm_phys = phys_of(st, dm);
                        if dm_phys != phys {
                            view.report_to.push(dm_phys);
                            view.expects_from.push(dm_phys);
                        }
                    }
                }
            }
            for (di, dom) in st.domains.iter().enumerate() {
                if dom.freed || dom.sites.is_empty() {
                    continue;
                }
                let dk = DomainKey(di as u32);
                let Some(mgr) = dom.manager else { continue };
                if phys_of(st, mgr) != phys {
                    continue;
                }
                for &sk in &dom.sites {
                    if let Some(sm) = st.site(sk).manager {
                        let sm_phys = phys_of(st, sm);
                        if sm_phys != phys {
                            view.expects_from.push(sm_phys);
                        }
                    }
                }
                view.aggregates
                    .push((format!("{dk}"), st.domain_machines(dk)));
            }
            view.dedup();
            view
        })
    }

    /// Brings the cached samples up to date and reads one component's
    /// averaged snapshot off its rollup.
    fn rollup_snapshot(&self, rollup: impl FnOnce(&VdaState) -> &ParamRollup) -> SysSnapshot {
        self.with_state(|st, pool| {
            st.plane_refresh(pool);
            rollup(st).to_snapshot()
        })
    }
}

/// The monitoring relationships of one machine, derived from the live
/// virtual architectures (see [`VdaRegistry::monitor_view`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorView {
    /// Machines this node sends its reports/heartbeats to.
    pub report_to: Vec<NodeId>,
    /// Machines this node expects periodic traffic from (for failure
    /// detection).
    pub expects_from: Vec<NodeId>,
    /// Component member-sets this node aggregates as a manager, labeled by
    /// component key.
    pub aggregates: Vec<(String, Vec<NodeId>)>,
}

impl MonitorView {
    fn dedup(&mut self) {
        self.report_to.sort();
        self.report_to.dedup();
        self.expects_from.sort();
        self.expects_from.dedup();
    }

    /// Whether this node has any monitoring relationships at all.
    pub fn is_empty(&self) -> bool {
        self.report_to.is_empty() && self.expects_from.is_empty() && self.aggregates.is_empty()
    }
}

impl std::fmt::Debug for VdaRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.read_state(|st| {
            f.debug_struct("VdaRegistry")
                .field("nodes", &st.nodes.len())
                .field("clusters", &st.clusters.len())
                .field("sites", &st.sites.len())
                .field("domains", &st.domains.len())
                .finish()
        })
    }
}

// ===================================================================== Node

/// A virtual node — one allocated machine inside an architecture.
#[derive(Clone)]
pub struct Node {
    key: NodeKey,
    reg: VdaRegistry,
}

impl Node {
    /// This node's arena key.
    pub fn key(&self) -> NodeKey {
        self.key
    }

    /// The physical machine backing this node.
    pub fn phys(&self) -> NodeId {
        self.reg.read_state(|st| st.node(self.key).phys)
    }

    /// Host name of the backing machine.
    pub fn name(&self) -> Result<String> {
        Ok(self.reg.pool().machine(self.phys())?.spec().name.clone())
    }

    /// Whether the node is still allocated.
    pub fn is_live(&self) -> bool {
        self.reg.read_state(|st| !st.node(self.key).freed)
    }

    /// `getCluster()` — the (possibly implicit) cluster of this node.
    pub fn get_cluster(&self) -> Result<Cluster> {
        // Repeat lookups only take the read lock; the write lock is needed
        // once, to materialize the implicit cluster.
        if let Some(key) = self.reg.read_state(|st| st.cluster_of_node_ref(self.key))? {
            return Ok(Cluster {
                key,
                reg: self.reg.clone(),
            });
        }
        let key = self.reg.with_state(|st, _| st.cluster_of_node(self.key))?;
        Ok(Cluster {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `getSite()` — the (possibly implicit) site of this node.
    pub fn get_site(&self) -> Result<Site> {
        self.get_cluster()?.get_site()
    }

    /// `getDomain()` — the (possibly implicit) domain of this node.
    pub fn get_domain(&self) -> Result<Domain> {
        self.get_site()?.get_domain()
    }

    /// `freeNode()` — releases the node from the application.
    pub fn free(&self) -> Result<()> {
        self.reg.with_state(|st, _| st.free_node(self.key))
    }

    /// Current snapshot of the backing machine.
    pub fn snapshot(&self) -> Result<SysSnapshot> {
        self.reg.pool().snapshot_of(self.phys())
    }

    /// `getSysParam(param)` — one system parameter of this node (§4.6).
    pub fn get_sys_param(&self, param: SysParam) -> Result<ParamValue> {
        self.snapshot()?
            .get(param)
            .cloned()
            .ok_or(VdaError::Empty("parameter"))
    }

    /// `constrHold(constr)` — whether the constraints currently hold here.
    pub fn constr_hold(&self, constraints: &JsConstraints) -> Result<bool> {
        Ok(constraints.holds(&self.snapshot()?))
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && Arc::ptr_eq(&self.reg.inner, &other.reg.inner)
    }
}
impl Eq for Node {}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({} on {})", self.key, self.phys())
    }
}

// ================================================================== Cluster

/// A cluster — an ordered collection of nodes (paper §4.2).
#[derive(Clone)]
pub struct Cluster {
    key: ClusterKey,
    reg: VdaRegistry,
}

impl Cluster {
    /// This cluster's arena key.
    pub fn key(&self) -> ClusterKey {
        self.key
    }

    /// `nrNodes()` — current number of nodes in the cluster.
    pub fn nr_nodes(&self) -> usize {
        self.reg.read_state(|st| st.cluster(self.key).nodes.len())
    }

    /// `getNode(i)` — the `i`-th node (0-based, as in the paper).
    pub fn get_node(&self, index: usize) -> Result<Node> {
        let key = self.reg.read_state(|st| {
            st.cluster(self.key)
                .nodes
                .get(index)
                .copied()
                .ok_or(VdaError::IndexOutOfRange {
                    what: "node",
                    index,
                    len: st.cluster(self.key).nodes.len(),
                })
        })?;
        Ok(Node {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `addNode(n)` — adds an existing node to this cluster.
    pub fn add_node(&self, node: &Node) -> Result<()> {
        self.reg
            .with_state(|st, _| st.add_node_to_cluster(self.key, node.key))
    }

    /// `freeNode(i)` — releases the `i`-th node.
    pub fn free_node_at(&self, index: usize) -> Result<()> {
        let node = self.get_node(index)?;
        node.free()
    }

    /// `freeNode(n)` — releases a member node.
    pub fn free_node(&self, node: &Node) -> Result<()> {
        let is_member = self
            .reg
            .read_state(|st| st.cluster(self.key).nodes.contains(&node.key));
        if !is_member {
            return Err(VdaError::NotAMember);
        }
        node.free()
    }

    /// `getSite()` — the (possibly implicit) site of this cluster.
    pub fn get_site(&self) -> Result<Site> {
        if let Some(key) = self.reg.read_state(|st| st.site_of_cluster_ref(self.key))? {
            return Ok(Site {
                key,
                reg: self.reg.clone(),
            });
        }
        let key = self.reg.with_state(|st, _| st.site_of_cluster(self.key))?;
        Ok(Site {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `getDomain()` — the (possibly implicit) domain of this cluster.
    pub fn get_domain(&self) -> Result<Domain> {
        self.get_site()?.get_domain()
    }

    /// `freeCluster()` — releases the cluster and all its nodes.
    pub fn free(&self) -> Result<()> {
        self.reg.with_state(|st, _| st.free_cluster(self.key))
    }

    /// Whether the cluster is still allocated.
    pub fn is_live(&self) -> bool {
        self.reg.read_state(|st| !st.cluster(self.key).freed)
    }

    /// The cluster manager (a node of the cluster, §5.1).
    pub fn manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.cluster(self.key).manager)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// The pre-designated backup manager.
    pub fn backup_manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.cluster(self.key).backup)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// Averaged snapshot over the cluster's machines (§4.6: "System
    /// parameters for clusters, sites, and domains are averaged across the
    /// contained nodes"), over this monitoring period's samples: a read of
    /// the cluster's incremental rollup.
    pub fn snapshot(&self) -> Result<SysSnapshot> {
        Ok(self.reg.rollup_snapshot(|st| &st.cluster(self.key).rollup))
    }

    /// `getSysParam(param)` — averaged over the cluster.
    pub fn get_sys_param(&self, param: SysParam) -> Result<ParamValue> {
        self.snapshot()?
            .get(param)
            .cloned()
            .ok_or(VdaError::Empty("parameter"))
    }

    /// `constrHold(constr)` — against the averaged snapshot.
    pub fn constr_hold(&self, constraints: &JsConstraints) -> Result<bool> {
        Ok(constraints.holds(&self.snapshot()?))
    }

    /// Physical machines currently backing this cluster's nodes.
    pub fn machines(&self) -> Vec<NodeId> {
        self.reg.read_state(|st| st.cluster_machines(self.key))
    }
}

impl PartialEq for Cluster {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && Arc::ptr_eq(&self.reg.inner, &other.reg.inner)
    }
}
impl Eq for Cluster {}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({}, {} nodes)", self.key, self.nr_nodes())
    }
}

// ===================================================================== Site

/// A site — a collection of clusters, typically one geographic location.
#[derive(Clone)]
pub struct Site {
    key: SiteKey,
    reg: VdaRegistry,
}

impl Site {
    /// This site's arena key.
    pub fn key(&self) -> SiteKey {
        self.key
    }

    /// `nrClusters()` — current number of clusters.
    pub fn nr_clusters(&self) -> usize {
        self.reg.read_state(|st| st.site(self.key).clusters.len())
    }

    /// `nrNodes()` — nodes across all clusters.
    pub fn nr_nodes(&self) -> usize {
        self.reg.read_state(|st| {
            st.site(self.key)
                .clusters
                .iter()
                .map(|&ck| st.cluster(ck).nodes.len())
                .sum()
        })
    }

    /// `getCluster(i)` — the `i`-th cluster (0-based).
    pub fn get_cluster(&self, index: usize) -> Result<Cluster> {
        let key = self.reg.read_state(|st| {
            st.site(self.key)
                .clusters
                .get(index)
                .copied()
                .ok_or(VdaError::IndexOutOfRange {
                    what: "cluster",
                    index,
                    len: st.site(self.key).clusters.len(),
                })
        })?;
        Ok(Cluster {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `getNode(c, n)` — node `n` of cluster `c`.
    pub fn get_node(&self, cluster: usize, node: usize) -> Result<Node> {
        self.get_cluster(cluster)?.get_node(node)
    }

    /// `addCluster(c)` — adds an existing cluster to this site.
    pub fn add_cluster(&self, cluster: &Cluster) -> Result<()> {
        self.reg
            .with_state(|st, _| st.add_cluster_to_site(self.key, cluster.key))
    }

    /// `freeNode(c, n)` — releases node `n` of cluster `c`.
    pub fn free_node(&self, cluster: usize, node: usize) -> Result<()> {
        self.get_cluster(cluster)?.free_node_at(node)
    }

    /// `freeCluster(i)` — releases the `i`-th cluster.
    pub fn free_cluster_at(&self, index: usize) -> Result<()> {
        self.get_cluster(index)?.free()
    }

    /// `freeCluster(c)` — releases a member cluster.
    pub fn free_cluster(&self, cluster: &Cluster) -> Result<()> {
        let is_member = self
            .reg
            .read_state(|st| st.site(self.key).clusters.contains(&cluster.key));
        if !is_member {
            return Err(VdaError::NotAMember);
        }
        cluster.free()
    }

    /// `getDomain()` — the (possibly implicit) domain of this site.
    pub fn get_domain(&self) -> Result<Domain> {
        if let Some(key) = self.reg.read_state(|st| st.domain_of_site_ref(self.key))? {
            return Ok(Domain {
                key,
                reg: self.reg.clone(),
            });
        }
        let key = self.reg.with_state(|st, _| st.domain_of_site(self.key))?;
        Ok(Domain {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `freeSite()` — releases the site, its clusters and their nodes.
    pub fn free(&self) -> Result<()> {
        self.reg.with_state(|st, _| st.free_site(self.key))
    }

    /// Whether the site is still allocated.
    pub fn is_live(&self) -> bool {
        self.reg.read_state(|st| !st.site(self.key).freed)
    }

    /// The site manager (always one of its cluster managers, §5.1).
    pub fn manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.site(self.key).manager)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// The pre-designated backup site manager (another cluster manager).
    pub fn backup_manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.site(self.key).backup)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// Averaged snapshot over all the site's machines: a read of the
    /// site's incremental rollup.
    pub fn snapshot(&self) -> Result<SysSnapshot> {
        Ok(self.reg.rollup_snapshot(|st| &st.site(self.key).rollup))
    }

    /// `getSysParam(param)` — averaged over the site.
    pub fn get_sys_param(&self, param: SysParam) -> Result<ParamValue> {
        self.snapshot()?
            .get(param)
            .cloned()
            .ok_or(VdaError::Empty("parameter"))
    }

    /// `constrHold(constr)` — against the averaged snapshot.
    pub fn constr_hold(&self, constraints: &JsConstraints) -> Result<bool> {
        Ok(constraints.holds(&self.snapshot()?))
    }

    /// Physical machines currently backing this site.
    pub fn machines(&self) -> Vec<NodeId> {
        self.reg.read_state(|st| st.site_machines(self.key))
    }
}

impl PartialEq for Site {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && Arc::ptr_eq(&self.reg.inner, &other.reg.inner)
    }
}
impl Eq for Site {}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Site({}, {} clusters)", self.key, self.nr_clusters())
    }
}

// =================================================================== Domain

/// A domain — a collection of sites; the root of a virtual architecture.
#[derive(Clone)]
pub struct Domain {
    key: DomainKey,
    reg: VdaRegistry,
}

impl Domain {
    /// This domain's arena key.
    pub fn key(&self) -> DomainKey {
        self.key
    }

    /// `nrSites()` — current number of sites.
    pub fn nr_sites(&self) -> usize {
        self.reg.read_state(|st| st.domain(self.key).sites.len())
    }

    /// `nrClusters()` — clusters across all sites.
    pub fn nr_clusters(&self) -> usize {
        self.reg.read_state(|st| {
            st.domain(self.key)
                .sites
                .iter()
                .map(|&sk| st.site(sk).clusters.len())
                .sum()
        })
    }

    /// `nrNodes()` — nodes across all sites and clusters.
    pub fn nr_nodes(&self) -> usize {
        self.reg.read_state(|st| st.domain_machines(self.key).len())
    }

    /// `getSite(i)` — the `i`-th site (0-based).
    pub fn get_site(&self, index: usize) -> Result<Site> {
        let key = self.reg.read_state(|st| {
            st.domain(self.key)
                .sites
                .get(index)
                .copied()
                .ok_or(VdaError::IndexOutOfRange {
                    what: "site",
                    index,
                    len: st.domain(self.key).sites.len(),
                })
        })?;
        Ok(Site {
            key,
            reg: self.reg.clone(),
        })
    }

    /// `getNode(s, c, n)` — node `n` of cluster `c` of site `s`.
    pub fn get_node(&self, site: usize, cluster: usize, node: usize) -> Result<Node> {
        self.get_site(site)?.get_node(cluster, node)
    }

    /// `addSite(s)` — adds an existing site to this domain.
    pub fn add_site(&self, site: &Site) -> Result<()> {
        self.reg
            .with_state(|st, _| st.add_site_to_domain(self.key, site.key))
    }

    /// `freeNode(s, c, n)` — releases node `n` of cluster `c` of site `s`.
    pub fn free_node(&self, site: usize, cluster: usize, node: usize) -> Result<()> {
        self.get_site(site)?.free_node(cluster, node)
    }

    /// `freeCluster(s, c)` — releases cluster `c` of site `s`.
    pub fn free_cluster(&self, site: usize, cluster: usize) -> Result<()> {
        self.get_site(site)?.free_cluster_at(cluster)
    }

    /// `freeSite(i)` — releases the `i`-th site.
    pub fn free_site_at(&self, index: usize) -> Result<()> {
        self.get_site(index)?.free()
    }

    /// `freeSite(s)` — releases a member site.
    pub fn free_site(&self, site: &Site) -> Result<()> {
        let is_member = self
            .reg
            .read_state(|st| st.domain(self.key).sites.contains(&site.key));
        if !is_member {
            return Err(VdaError::NotAMember);
        }
        site.free()
    }

    /// `freeDomain()` — releases the whole architecture.
    pub fn free(&self) -> Result<()> {
        self.reg.with_state(|st, _| st.free_domain(self.key))
    }

    /// Whether the domain is still allocated.
    pub fn is_live(&self) -> bool {
        self.reg.read_state(|st| !st.domain(self.key).freed)
    }

    /// The domain manager (always one of its site managers, §5.1).
    pub fn manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.domain(self.key).manager)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// The pre-designated backup domain manager (another site manager).
    pub fn backup_manager(&self) -> Option<Node> {
        self.reg
            .read_state(|st| st.domain(self.key).backup)
            .map(|key| Node {
                key,
                reg: self.reg.clone(),
            })
    }

    /// Averaged snapshot over all the domain's machines: a read of the
    /// domain's incremental rollup.
    pub fn snapshot(&self) -> Result<SysSnapshot> {
        Ok(self.reg.rollup_snapshot(|st| &st.domain(self.key).rollup))
    }

    /// `getSysParam(param)` — averaged over the domain.
    pub fn get_sys_param(&self, param: SysParam) -> Result<ParamValue> {
        self.snapshot()?
            .get(param)
            .cloned()
            .ok_or(VdaError::Empty("parameter"))
    }

    /// `constrHold(constr)` — against the averaged snapshot.
    pub fn constr_hold(&self, constraints: &JsConstraints) -> Result<bool> {
        Ok(constraints.holds(&self.snapshot()?))
    }

    /// Physical machines currently backing this domain.
    pub fn machines(&self) -> Vec<NodeId> {
        self.reg.read_state(|st| st.domain_machines(self.key))
    }
}

impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && Arc::ptr_eq(&self.reg.inner, &other.reg.inner)
    }
}
impl Eq for Domain {}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Domain({}, {} sites)", self.key, self.nr_sites())
    }
}
