//! Internal arena state and the operations that maintain the architecture
//! invariants (membership, allocation, managers, failure handling).
//!
//! All structural reasoning lives here behind a single lock; the public
//! handles in [`crate::handles`] are thin wrappers.

use crate::event::{ManagerScope, VdaEvent};
use crate::plane::{self, AggPlane, OrdF64, PlaneConfig, ViolationScan};
use crate::{ClusterKey, DomainKey, NodeKey, ResourcePool, Result, SiteKey, VdaError};
use jsym_net::NodeId;
use jsym_sysmon::{JsConstraints, ParamRollup, SysSnapshot};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// Free machines with the load they are indexed under, in rank order.
type Ranked = Vec<(f64, NodeId)>;

#[derive(Debug)]
pub(crate) struct NodeEntry {
    pub phys: NodeId,
    pub parent: Option<ClusterKey>,
    pub freed: bool,
    pub constraints: Option<JsConstraints>,
}

#[derive(Debug)]
pub(crate) struct ClusterEntry {
    pub nodes: Vec<NodeKey>,
    pub parent: Option<SiteKey>,
    pub freed: bool,
    pub constraints: Option<JsConstraints>,
    pub manager: Option<NodeKey>,
    pub backup: Option<NodeKey>,
    /// Incremental parameter aggregate over member nodes.
    pub rollup: ParamRollup,
}

#[derive(Debug)]
pub(crate) struct SiteEntry {
    pub clusters: Vec<ClusterKey>,
    pub parent: Option<DomainKey>,
    pub freed: bool,
    pub constraints: Option<JsConstraints>,
    /// Invariant: a site manager is the manager of one of its clusters.
    pub manager: Option<NodeKey>,
    pub backup: Option<NodeKey>,
    /// Incremental parameter aggregate over all contained nodes.
    pub rollup: ParamRollup,
}

#[derive(Debug)]
pub(crate) struct DomainEntry {
    pub sites: Vec<SiteKey>,
    pub freed: bool,
    pub constraints: Option<JsConstraints>,
    /// Invariant: a domain manager is the manager of one of its sites.
    pub manager: Option<NodeKey>,
    pub backup: Option<NodeKey>,
    /// Incremental parameter aggregate over all contained nodes.
    pub rollup: ParamRollup,
}

#[derive(Default)]
pub(crate) struct VdaState {
    pub nodes: Vec<NodeEntry>,
    pub clusters: Vec<ClusterEntry>,
    pub sites: Vec<SiteEntry>,
    pub domains: Vec<DomainEntry>,
    /// Live virtual nodes per physical machine.
    pub allocated: HashMap<NodeId, usize>,
    /// Machines declared failed.
    pub failed: HashSet<NodeId>,
    /// Events produced by the current operation, drained by the registry.
    pub pending_events: Vec<VdaEvent>,
    /// The parameter aggregation plane: cached samples, placement heap,
    /// dirty set (the component rollups live on the entries above).
    pub plane: AggPlane,
}

impl VdaState {
    // ---------------------------------------------------------------- access

    pub fn node(&self, k: NodeKey) -> &NodeEntry {
        &self.nodes[k.index()]
    }
    pub fn node_mut(&mut self, k: NodeKey) -> &mut NodeEntry {
        &mut self.nodes[k.index()]
    }
    pub fn cluster(&self, k: ClusterKey) -> &ClusterEntry {
        &self.clusters[k.index()]
    }
    pub fn cluster_mut(&mut self, k: ClusterKey) -> &mut ClusterEntry {
        &mut self.clusters[k.index()]
    }
    pub fn site(&self, k: SiteKey) -> &SiteEntry {
        &self.sites[k.index()]
    }
    pub fn site_mut(&mut self, k: SiteKey) -> &mut SiteEntry {
        &mut self.sites[k.index()]
    }
    pub fn domain(&self, k: DomainKey) -> &DomainEntry {
        &self.domains[k.index()]
    }
    pub fn domain_mut(&mut self, k: DomainKey) -> &mut DomainEntry {
        &mut self.domains[k.index()]
    }

    fn emit(&mut self, ev: VdaEvent) {
        self.pending_events.push(ev);
    }

    // ------------------------------------------------------------ allocation

    /// Whether `id` backs no live virtual node and has not failed.
    fn is_free(&self, id: NodeId) -> bool {
        !self.failed.contains(&id) && self.allocated.get(&id).copied().unwrap_or(0) == 0
    }

    fn insert_node(&mut self, phys: NodeId, constraints: Option<JsConstraints>) -> NodeKey {
        let key = NodeKey(self.nodes.len() as u32);
        self.nodes.push(NodeEntry {
            phys,
            parent: None,
            freed: false,
            constraints,
        });
        *self.allocated.entry(phys).or_insert(0) += 1;
        // The node is evaluated on the next dirty scan.
        self.plane.live_by_phys.entry(phys).or_default().push(key);
        self.plane.dirty.insert(key);
        self.emit(VdaEvent::NodeAllocated { node: key, phys });
        key
    }

    /// Pops the next valid free machine off the placement heap, or `None`
    /// when the heap is exhausted. Stale entries (superseded load, machine
    /// no longer free) are discarded lazily. `heap_loads` names the one
    /// valid heap entry of a machine, so it goes with the entry: a machine
    /// that was allocated by name while indexed and freed again must not be
    /// found twice.
    fn pop_free(&mut self) -> Option<(f64, NodeId)> {
        while let Some(Reverse((OrdF64(load), id))) = self.plane.heap.pop() {
            if self.plane.heap_loads.get(&id) != Some(&load) {
                continue; // superseded by a newer load for this machine
            }
            self.plane.heap_loads.remove(&id);
            if self.is_free(id) {
                return Some((load, id));
            }
        }
        None
    }

    /// Pops free machines in ascending `(CpuLoad1, NodeId)` order until `n`
    /// of them satisfy `constraints` (judged on this period's cached
    /// samples) or the heap runs dry. Returns `(satisfying, rejected)`;
    /// whatever the caller does not allocate goes back through
    /// [`Self::unpop`].
    fn pop_satisfying(
        &mut self,
        pool: &ResourcePool,
        n: usize,
        constraints: Option<&JsConstraints>,
    ) -> (Ranked, Ranked) {
        let now = self.plane_refresh(pool);
        let compiled = constraints.map(|c| c.compile());
        let (mut satisfying, mut rejected) = (Vec::new(), Vec::new());
        while satisfying.len() < n {
            let Some((load, id)) = self.pop_free() else {
                break;
            };
            let ok = match &compiled {
                None => true,
                Some(c) => self
                    .plane
                    .cache
                    .get(id, now)
                    .is_some_and(|snap| c.holds(snap)),
            };
            if ok {
                satisfying.push((load, id));
            } else {
                rejected.push((load, id));
            }
        }
        (satisfying, rejected)
    }

    /// Returns popped-but-unallocated machines to the placement heap.
    fn unpop(&mut self, entries: impl IntoIterator<Item = (f64, NodeId)>) {
        for (load, id) in entries {
            self.plane.heap_push(id, load);
        }
    }

    /// Allocates one machine, preferring the least loaded candidate that
    /// satisfies `constraints` ("JRS will allocate a node with low system
    /// load and reasonable resources available", §4.2): the first free
    /// machine in `(CpuLoad1, NodeId)` order whose sample satisfies them.
    pub fn alloc_any(
        &mut self,
        pool: &ResourcePool,
        constraints: Option<&JsConstraints>,
    ) -> Result<NodeKey> {
        let (satisfying, rejected) = self.pop_satisfying(pool, 1, constraints);
        self.unpop(rejected);
        match satisfying.first() {
            Some(&(_, id)) => Ok(self.insert_node(id, constraints.cloned())),
            None if self.plane.heap_loads.is_empty() => Err(VdaError::InsufficientNodes {
                requested: 1,
                available: 0,
            }),
            None => Err(VdaError::ConstraintsUnsatisfied),
        }
    }

    /// Allocates the machine with a specific host name. Named requests are
    /// always honored while the machine is alive, even if it already backs
    /// another virtual node (explicit sharing).
    pub fn alloc_named(&mut self, pool: &ResourcePool, name: &str) -> Result<NodeKey> {
        // Keep the plane's invariant that every machine backing a live node
        // has a cached sample.
        self.plane_refresh(pool);
        let (id, _) = pool.by_name(name)?;
        if self.failed.contains(&id) {
            return Err(VdaError::UnknownPhysicalNode(id));
        }
        Ok(self.insert_node(id, None))
    }

    /// Allocates `n` distinct machines, all satisfying `constraints` — the
    /// `n` lowest-ranked ones that do; all-or-nothing.
    pub fn alloc_many(
        &mut self,
        pool: &ResourcePool,
        n: usize,
        constraints: Option<&JsConstraints>,
    ) -> Result<Vec<NodeKey>> {
        let (satisfying, rejected) = self.pop_satisfying(pool, n, constraints);
        if satisfying.len() < n {
            // The heap was drained, so satisfying + rejected is every free
            // machine.
            let available = satisfying.len();
            let free_total = available + rejected.len();
            self.unpop(satisfying.into_iter().chain(rejected));
            return Err(if constraints.is_some() && free_total >= n {
                VdaError::ConstraintsUnsatisfied
            } else {
                VdaError::InsufficientNodes {
                    requested: n,
                    available,
                }
            });
        }
        self.unpop(rejected);
        Ok(satisfying
            .into_iter()
            .map(|(_, id)| self.insert_node(id, constraints.cloned()))
            .collect())
    }

    // ------------------------------------------------------------ structure

    pub fn new_cluster(&mut self, constraints: Option<JsConstraints>) -> ClusterKey {
        let key = ClusterKey(self.clusters.len() as u32);
        self.clusters.push(ClusterEntry {
            nodes: Vec::new(),
            parent: None,
            freed: false,
            constraints,
            manager: None,
            backup: None,
            rollup: ParamRollup::new(),
        });
        key
    }

    pub fn new_site(&mut self, constraints: Option<JsConstraints>) -> SiteKey {
        let key = SiteKey(self.sites.len() as u32);
        self.sites.push(SiteEntry {
            clusters: Vec::new(),
            parent: None,
            freed: false,
            constraints,
            manager: None,
            backup: None,
            rollup: ParamRollup::new(),
        });
        key
    }

    pub fn new_domain(&mut self, constraints: Option<JsConstraints>) -> DomainKey {
        let key = DomainKey(self.domains.len() as u32);
        self.domains.push(DomainEntry {
            sites: Vec::new(),
            freed: false,
            constraints,
            manager: None,
            backup: None,
            rollup: ParamRollup::new(),
        });
        key
    }

    pub fn add_node_to_cluster(&mut self, ck: ClusterKey, nk: NodeKey) -> Result<()> {
        if self.cluster(ck).freed {
            return Err(VdaError::Freed("cluster"));
        }
        let node = self.node(nk);
        if node.freed {
            return Err(VdaError::Freed("node"));
        }
        if node.parent.is_some() {
            return Err(VdaError::AlreadyAttached("node"));
        }
        self.node_mut(nk).parent = Some(ck);
        self.cluster_mut(ck).nodes.push(nk);
        self.refresh_managers_for_cluster(ck, false);
        self.plane_attach_node(nk);
        Ok(())
    }

    pub fn add_cluster_to_site(&mut self, sk: SiteKey, ck: ClusterKey) -> Result<()> {
        if self.site(sk).freed {
            return Err(VdaError::Freed("site"));
        }
        let cluster = self.cluster(ck);
        if cluster.freed {
            return Err(VdaError::Freed("cluster"));
        }
        if cluster.parent.is_some() {
            return Err(VdaError::AlreadyAttached("cluster"));
        }
        self.cluster_mut(ck).parent = Some(sk);
        self.site_mut(sk).clusters.push(ck);
        self.refresh_site_manager(sk, false);
        if let Some(dk) = self.site(sk).parent {
            self.refresh_domain_manager(dk, false);
        }
        self.plane_lift_cluster(sk, ck);
        Ok(())
    }

    pub fn add_site_to_domain(&mut self, dk: DomainKey, sk: SiteKey) -> Result<()> {
        if self.domain(dk).freed {
            return Err(VdaError::Freed("domain"));
        }
        let site = self.site(sk);
        if site.freed {
            return Err(VdaError::Freed("site"));
        }
        if site.parent.is_some() {
            return Err(VdaError::AlreadyAttached("site"));
        }
        self.site_mut(sk).parent = Some(dk);
        self.domain_mut(dk).sites.push(sk);
        self.refresh_domain_manager(dk, false);
        self.plane_lift_site(dk, sk);
        Ok(())
    }

    /// The (possibly implicit) cluster of a node: every node belongs to a
    /// unique (cluster, site, domain) triple (§3).
    pub fn cluster_of_node(&mut self, nk: NodeKey) -> Result<ClusterKey> {
        if self.node(nk).freed {
            return Err(VdaError::Freed("node"));
        }
        if let Some(ck) = self.node(nk).parent {
            return Ok(ck);
        }
        let ck = self.new_cluster(None);
        self.node_mut(nk).parent = Some(ck);
        self.cluster_mut(ck).nodes.push(nk);
        self.refresh_managers_for_cluster(ck, false);
        self.plane_attach_node(nk);
        Ok(ck)
    }

    /// Read-only variant of [`Self::cluster_of_node`]: `None` when the
    /// implicit cluster has not been materialized yet.
    pub fn cluster_of_node_ref(&self, nk: NodeKey) -> Result<Option<ClusterKey>> {
        if self.node(nk).freed {
            return Err(VdaError::Freed("node"));
        }
        Ok(self.node(nk).parent)
    }

    pub fn site_of_cluster(&mut self, ck: ClusterKey) -> Result<SiteKey> {
        if self.cluster(ck).freed {
            return Err(VdaError::Freed("cluster"));
        }
        if let Some(sk) = self.cluster(ck).parent {
            return Ok(sk);
        }
        let sk = self.new_site(None);
        self.cluster_mut(ck).parent = Some(sk);
        self.site_mut(sk).clusters.push(ck);
        self.refresh_site_manager(sk, false);
        self.plane_lift_cluster(sk, ck);
        Ok(sk)
    }

    /// Read-only variant of [`Self::site_of_cluster`].
    pub fn site_of_cluster_ref(&self, ck: ClusterKey) -> Result<Option<SiteKey>> {
        if self.cluster(ck).freed {
            return Err(VdaError::Freed("cluster"));
        }
        Ok(self.cluster(ck).parent)
    }

    pub fn domain_of_site(&mut self, sk: SiteKey) -> Result<DomainKey> {
        if self.site(sk).freed {
            return Err(VdaError::Freed("site"));
        }
        if let Some(dk) = self.site(sk).parent {
            return Ok(dk);
        }
        let dk = self.new_domain(None);
        self.site_mut(sk).parent = Some(dk);
        self.domain_mut(dk).sites.push(sk);
        self.refresh_domain_manager(dk, false);
        self.plane_lift_site(dk, sk);
        Ok(dk)
    }

    /// Read-only variant of [`Self::domain_of_site`].
    pub fn domain_of_site_ref(&self, sk: SiteKey) -> Result<Option<DomainKey>> {
        if self.site(sk).freed {
            return Err(VdaError::Freed("site"));
        }
        Ok(self.site(sk).parent)
    }

    // --------------------------------------------------------------- freeing

    pub fn free_node(&mut self, nk: NodeKey) -> Result<()> {
        if self.node(nk).freed {
            return Err(VdaError::Freed("node"));
        }
        let phys = self.node(nk).phys;
        let parent = self.node(nk).parent;
        // Remove the node's contribution while its parent chain is intact.
        self.plane_detach_node(nk);
        self.node_mut(nk).freed = true;
        if let Some(count) = self.allocated.get_mut(&phys) {
            *count = count.saturating_sub(1);
        }
        if let Some(ck) = parent {
            self.cluster_mut(ck).nodes.retain(|&k| k != nk);
            self.refresh_managers_for_cluster(ck, false);
        }
        self.plane.dirty.remove(&nk);
        self.plane.watch.remove(&nk);
        if let Some(v) = self.plane.live_by_phys.get_mut(&phys) {
            v.retain(|&k| k != nk);
        }
        // If the machine just became free again, re-index it under its
        // cached load (bit-exact, so the heap entry stays valid).
        if self.is_free(phys) {
            if let Some(load) = self.plane.cache.peek(phys).map(plane::load_of) {
                if self.plane.heap_loads.get(&phys) != Some(&load) {
                    self.plane.heap_push(phys, load);
                }
            }
        }
        self.emit(VdaEvent::NodeFreed { node: nk, phys });
        Ok(())
    }

    pub fn free_cluster(&mut self, ck: ClusterKey) -> Result<()> {
        if self.cluster(ck).freed {
            return Err(VdaError::Freed("cluster"));
        }
        for nk in self.cluster(ck).nodes.clone() {
            // Detach the rollup contribution while the full ancestor chain
            // is still visible, then drop the parent link so free_node does
            // not mutate the cluster we are tearing down.
            self.plane_detach_node(nk);
            self.node_mut(nk).parent = None;
            self.free_node(nk)?;
        }
        let parent = self.cluster(ck).parent;
        let c = self.cluster_mut(ck);
        c.freed = true;
        c.nodes.clear();
        c.manager = None;
        c.backup = None;
        if let Some(sk) = parent {
            self.site_mut(sk).clusters.retain(|&k| k != ck);
            self.refresh_site_manager(sk, false);
            if let Some(dk) = self.site(sk).parent {
                self.refresh_domain_manager(dk, false);
            }
        }
        Ok(())
    }

    pub fn free_site(&mut self, sk: SiteKey) -> Result<()> {
        if self.site(sk).freed {
            return Err(VdaError::Freed("site"));
        }
        for ck in self.site(sk).clusters.clone() {
            // Detach node contributions while cluster->site->domain links
            // are still intact.
            for nk in self.cluster(ck).nodes.clone() {
                self.plane_detach_node(nk);
            }
            self.cluster_mut(ck).parent = None;
            self.free_cluster(ck)?;
        }
        let parent = self.site(sk).parent;
        let s = self.site_mut(sk);
        s.freed = true;
        s.clusters.clear();
        s.manager = None;
        s.backup = None;
        if let Some(dk) = parent {
            self.domain_mut(dk).sites.retain(|&k| k != sk);
            self.refresh_domain_manager(dk, false);
        }
        Ok(())
    }

    pub fn free_domain(&mut self, dk: DomainKey) -> Result<()> {
        if self.domain(dk).freed {
            return Err(VdaError::Freed("domain"));
        }
        for sk in self.domain(dk).sites.clone() {
            for ck in self.site(sk).clusters.clone() {
                for nk in self.cluster(ck).nodes.clone() {
                    self.plane_detach_node(nk);
                }
            }
            self.site_mut(sk).parent = None;
            self.free_site(sk)?;
        }
        let d = self.domain_mut(dk);
        d.freed = true;
        d.sites.clear();
        d.manager = None;
        d.backup = None;
        Ok(())
    }

    // -------------------------------------------------------------- managers

    fn node_is_operational(&self, nk: NodeKey) -> bool {
        let n = self.node(nk);
        !n.freed && !self.failed.contains(&n.phys)
    }

    /// Re-establishes the manager/backup of a cluster and propagates up the
    /// hierarchy. `takeover` marks backup promotions after a failure.
    pub fn refresh_managers_for_cluster(&mut self, ck: ClusterKey, takeover: bool) {
        self.refresh_cluster_manager(ck, takeover);
        if let Some(sk) = self.cluster(ck).parent {
            self.refresh_site_manager(sk, takeover);
            if let Some(dk) = self.site(sk).parent {
                self.refresh_domain_manager(dk, takeover);
            }
        }
    }

    fn refresh_cluster_manager(&mut self, ck: ClusterKey, takeover: bool) {
        let members: Vec<NodeKey> = self.cluster(ck).nodes.clone();
        let live: Vec<NodeKey> = members
            .into_iter()
            .filter(|&nk| self.node_is_operational(nk))
            .collect();
        let current = self.cluster(ck).manager;
        let backup = self.cluster(ck).backup;
        let current_ok = current.is_some_and(|m| live.contains(&m));
        let new_manager;
        let mut was_takeover = false;
        if current_ok {
            new_manager = current;
        } else if backup.is_some_and(|b| live.contains(&b)) {
            // Backup promotion (§5.1 fault tolerance).
            new_manager = backup;
            was_takeover = takeover;
        } else {
            new_manager = live.first().copied();
        }
        let new_backup = live.iter().copied().find(|&nk| Some(nk) != new_manager);
        let c = self.cluster_mut(ck);
        let changed = c.manager != new_manager;
        c.manager = new_manager;
        c.backup = new_backup;
        if changed {
            self.emit(VdaEvent::ManagerChanged {
                scope: ManagerScope::Cluster(ck),
                new_manager,
                takeover: was_takeover,
            });
        }
    }

    fn refresh_site_manager(&mut self, sk: SiteKey, takeover: bool) {
        // Valid site managers are exactly the managers of the site's live
        // clusters ("Only a cluster manager can be a site manager").
        let cluster_managers: Vec<NodeKey> = self
            .site(sk)
            .clusters
            .iter()
            .filter(|&&ck| !self.cluster(ck).freed)
            .filter_map(|&ck| self.cluster(ck).manager)
            .filter(|&nk| self.node_is_operational(nk))
            .collect();
        let current = self.site(sk).manager;
        let backup = self.site(sk).backup;
        let current_ok = current.is_some_and(|m| cluster_managers.contains(&m));
        let new_manager;
        let mut was_takeover = false;
        if current_ok {
            new_manager = current;
        } else if backup.is_some_and(|b| cluster_managers.contains(&b)) {
            new_manager = backup;
            was_takeover = takeover;
        } else {
            new_manager = cluster_managers.first().copied();
        }
        let new_backup = cluster_managers
            .iter()
            .copied()
            .find(|&nk| Some(nk) != new_manager);
        let s = self.site_mut(sk);
        let changed = s.manager != new_manager;
        s.manager = new_manager;
        s.backup = new_backup;
        if changed {
            self.emit(VdaEvent::ManagerChanged {
                scope: ManagerScope::Site(sk),
                new_manager,
                takeover: was_takeover,
            });
        }
    }

    fn refresh_domain_manager(&mut self, dk: DomainKey, takeover: bool) {
        // Valid domain managers are the managers of the domain's live sites
        // ("only a site manager can be a domain manager").
        let site_managers: Vec<NodeKey> = self
            .domain(dk)
            .sites
            .iter()
            .filter(|&&sk| !self.site(sk).freed)
            .filter_map(|&sk| self.site(sk).manager)
            .filter(|&nk| self.node_is_operational(nk))
            .collect();
        let current = self.domain(dk).manager;
        let backup = self.domain(dk).backup;
        let current_ok = current.is_some_and(|m| site_managers.contains(&m));
        let new_manager;
        let mut was_takeover = false;
        if current_ok {
            new_manager = current;
        } else if backup.is_some_and(|b| site_managers.contains(&b)) {
            new_manager = backup;
            was_takeover = takeover;
        } else {
            new_manager = site_managers.first().copied();
        }
        let new_backup = site_managers
            .iter()
            .copied()
            .find(|&nk| Some(nk) != new_manager);
        let d = self.domain_mut(dk);
        let changed = d.manager != new_manager;
        d.manager = new_manager;
        d.backup = new_backup;
        if changed {
            self.emit(VdaEvent::ManagerChanged {
                scope: ManagerScope::Domain(dk),
                new_manager,
                takeover: was_takeover,
            });
        }
    }

    // --------------------------------------------------------------- failure

    /// Declares a physical machine failed: managers fail over (backups take
    /// over, §5.1), then every virtual node it backed is released.
    pub fn handle_phys_failure(&mut self, phys: NodeId) {
        if !self.failed.insert(phys) {
            return; // already handled
        }
        // A failed machine's sample is meaningless and it must never be
        // handed out by the heap.
        self.plane.cache.invalidate(phys);
        self.plane.heap_loads.remove(&phys);
        self.emit(VdaEvent::NodeFailed { phys });
        let affected: Vec<NodeKey> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.freed && n.phys == phys)
            .map(|(i, _)| NodeKey(i as u32))
            .collect();
        // First fail over every manager role held by the dead machine...
        let clusters: Vec<ClusterKey> = affected
            .iter()
            .filter_map(|&nk| self.node(nk).parent)
            .collect();
        for ck in clusters {
            self.refresh_managers_for_cluster(ck, true);
        }
        // ...then release the dead node(s) ("the manager of this cluster
        // simply releases this node").
        for nk in affected {
            let _ = self.free_node(nk);
        }
    }

    // ----------------------------------------------------- aggregation plane

    /// Applies a plane configuration; the next query re-checks every cached
    /// sample against the new TTL.
    pub fn set_plane_config(&mut self, cfg: PlaneConfig) {
        self.plane.cache.set_ttl(cfg.ttl);
        self.plane.dirty_threshold = cfg.dirty_threshold;
        self.plane.last_refresh = None;
    }

    /// Current plane configuration.
    pub fn plane_config(&self) -> PlaneConfig {
        PlaneConfig {
            ttl: self.plane.cache.ttl(),
            dirty_threshold: self.plane.dirty_threshold,
        }
    }

    /// Ancestor chain of a node as it stands right now.
    fn ancestors(&self, nk: NodeKey) -> (Option<ClusterKey>, Option<SiteKey>, Option<DomainKey>) {
        let ck = self.node(nk).parent;
        let sk = ck.and_then(|c| self.cluster(c).parent);
        let dk = sk.and_then(|s| self.site(s).parent);
        (ck, sk, dk)
    }

    /// Starts counting `nk`'s cached sample into its ancestors' rollups.
    /// No-op when the node is unattached or its machine has no cached sample
    /// (failed machines after invalidation).
    fn plane_attach_node(&mut self, nk: NodeKey) {
        let (ck, sk, dk) = self.ancestors(nk);
        let Some(ck) = ck else {
            return;
        };
        let phys = self.node(nk).phys;
        let Some(snap) = self.plane.cache.peek(phys).cloned() else {
            return;
        };
        self.cluster_mut(ck).rollup.add(&snap);
        if let Some(sk) = sk {
            self.site_mut(sk).rollup.add(&snap);
        }
        if let Some(dk) = dk {
            self.domain_mut(dk).rollup.add(&snap);
        }
        self.plane.contrib.insert(nk, snap);
        self.plane.dirty.insert(nk);
    }

    /// Removes `nk`'s contribution from its ancestors' rollups. Idempotent:
    /// a second call finds no stored contribution and does nothing. Must run
    /// while the node's parent chain is still intact.
    fn plane_detach_node(&mut self, nk: NodeKey) {
        let Some(snap) = self.plane.contrib.remove(&nk) else {
            return;
        };
        let (ck, sk, dk) = self.ancestors(nk);
        if let Some(ck) = ck {
            self.cluster_mut(ck).rollup.remove(&snap);
        }
        if let Some(sk) = sk {
            self.site_mut(sk).rollup.remove(&snap);
        }
        if let Some(dk) = dk {
            self.domain_mut(dk).rollup.remove(&snap);
        }
        self.plane.dirty.remove(&nk);
        self.plane.watch.remove(&nk);
    }

    /// A cluster just gained a site parent: its members' contributions now
    /// also count toward the site (and the site's domain, if any).
    fn plane_lift_cluster(&mut self, sk: SiteKey, ck: ClusterKey) {
        let dk = self.site(sk).parent;
        for nk in self.cluster(ck).nodes.clone() {
            if let Some(snap) = self.plane.contrib.get(&nk).cloned() {
                self.site_mut(sk).rollup.add(&snap);
                if let Some(dk) = dk {
                    self.domain_mut(dk).rollup.add(&snap);
                }
            }
            // Ancestor constraints changed: re-evaluate on the next scan.
            self.plane.dirty.insert(nk);
        }
    }

    /// A site just gained a domain parent: lift every contained node's
    /// contribution into the domain rollup.
    fn plane_lift_site(&mut self, dk: DomainKey, sk: SiteKey) {
        for ck in self.site(sk).clusters.clone() {
            for nk in self.cluster(ck).nodes.clone() {
                if let Some(snap) = self.plane.contrib.get(&nk).cloned() {
                    self.domain_mut(dk).rollup.add(&snap);
                }
                self.plane.dirty.insert(nk);
            }
        }
    }

    /// Refreshes the per-machine sample cache if the TTL window has lapsed
    /// (or pool membership changed), propagating new samples into rollups,
    /// the placement heap and the dirty set. Cheap when fresh: a clock read
    /// and a generation comparison. Returns the refresh watermark: validity is
    /// judged there (at steep time scales the TTL can lapse mid-operation).
    pub fn plane_refresh(&mut self, pool: &ResourcePool) -> f64 {
        let now = pool.now();
        // Read before the ids: a late joiner is swept twice, never missed.
        let generation = pool.generation();
        let same_pool = generation == self.plane.pool_generation;
        if let Some(t) = self.plane.last_refresh {
            if same_pool && now - t <= self.plane.cache.ttl() {
                return t;
            }
        }
        let ids = pool.ids();
        if !same_pool {
            let keep: HashSet<NodeId> = ids.iter().copied().collect();
            self.plane.cache.retain(|id| keep.contains(&id));
            self.plane.heap_loads.retain(|id, _| keep.contains(id));
        }
        let mut changed: Vec<(NodeId, Option<SysSnapshot>, SysSnapshot)> = Vec::new();
        for &id in &ids {
            if self.plane.cache.get(id, now).is_none() {
                let Ok(snap) = pool.snapshot_of(id) else {
                    continue;
                };
                let old = self.plane.cache.put(id, snap.clone());
                if old.as_ref() != Some(&snap) {
                    changed.push((id, old, snap));
                }
            }
            if self.is_free(id) {
                let load = self
                    .plane
                    .cache
                    .peek(id)
                    .map(plane::load_of)
                    .unwrap_or(f64::MAX);
                if self.plane.heap_loads.get(&id) != Some(&load) {
                    self.plane.heap_push(id, load);
                }
            } else {
                self.plane.heap_loads.remove(&id);
            }
        }
        let threshold = self.plane.dirty_threshold;
        for (id, old, snap) in changed {
            let exceeded = old
                .as_ref()
                .is_none_or(|o| plane::delta_exceeds(o, &snap, threshold));
            let nks: Vec<NodeKey> = self
                .plane
                .live_by_phys
                .get(&id)
                .cloned()
                .unwrap_or_default();
            for nk in nks {
                if exceeded {
                    self.plane.dirty.insert(nk);
                }
                if let Some(prev) = self.plane.contrib.get(&nk).cloned() {
                    let (ck, sk, dk) = self.ancestors(nk);
                    if let Some(ck) = ck {
                        self.cluster_mut(ck).rollup.replace(&prev, &snap);
                    }
                    if let Some(sk) = sk {
                        self.site_mut(sk).rollup.replace(&prev, &snap);
                    }
                    if let Some(dk) = dk {
                        self.domain_mut(dk).rollup.replace(&prev, &snap);
                    }
                    self.plane.contrib.insert(nk, snap.clone());
                }
            }
        }
        self.plane.last_refresh = Some(now);
        self.plane.pool_generation = generation;
        now
    }

    /// This period's sample of `id` (none outside the pool).
    pub fn sample_of(&mut self, pool: &ResourcePool, id: NodeId) -> Option<&SysSnapshot> {
        let now = self.plane_refresh(pool);
        self.plane.cache.get(id, now)
    }

    /// The lowest-[`plane::rank`]ed live machine among `candidates` whose
    /// sample of this period satisfies `constraints` (§4.4).
    pub fn least_loaded(
        &mut self,
        pool: &ResourcePool,
        candidates: &[NodeId],
        constraints: Option<&JsConstraints>,
    ) -> Option<NodeId> {
        let now = self.plane_refresh(pool);
        let compiled = constraints.map(|c| c.compile());
        let (failed, cache) = (&self.failed, &mut self.plane.cache);
        (candidates.iter())
            .filter(|id| !failed.contains(id))
            .filter_map(|&id| {
                let snap = cache.get(id, now)?;
                (compiled.as_ref())
                    .is_none_or(|c| c.holds(snap))
                    .then(|| plane::rank(plane::load_of(snap), id))
            })
            .min()
            .map(|(_, id)| id)
    }

    /// Scans for constraint violations. Full mode evaluates every live
    /// constrained node against a fresh sample; dirty mode only nodes whose
    /// sample moved past the threshold at a sweep plus the watch set, against
    /// the period's samples. Given the same samples both report the same: an
    /// unchanged sample cannot change an unchanged constraint's verdict.
    pub fn scan_violations(&mut self, pool: &ResourcePool, dirty_only: bool) -> ViolationScan {
        if dirty_only {
            self.scan_violations_dirty(pool)
        } else {
            self.scan_violations_full(pool)
        }
    }

    fn scan_violations_full(&mut self, pool: &ResourcePool) -> ViolationScan {
        let mut violations = Vec::new();
        let mut evaluated = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.freed {
                continue;
            }
            let nk = NodeKey(i as u32);
            let constraints = self.effective_constraints(nk);
            if constraints.is_empty() {
                continue;
            }
            evaluated += 1;
            let Ok(snap) = pool.snapshot_of(n.phys) else {
                continue;
            };
            if !constraints.holds(&snap) {
                violations.push((nk, n.phys));
            }
        }
        // A full scan subsumes all pending dirt and resets the watch set to
        // what is actually violating right now.
        self.plane.watch = violations.iter().map(|&(nk, _)| nk).collect();
        self.plane.dirty.clear();
        ViolationScan {
            violations,
            evaluated,
        }
    }

    fn scan_violations_dirty(&mut self, pool: &ResourcePool) -> ViolationScan {
        let now = self.plane_refresh(pool);
        let mut to_eval: Vec<NodeKey> =
            self.plane.dirty.union(&self.plane.watch).copied().collect();
        to_eval.sort_unstable();
        let mut violations = Vec::new();
        let mut evaluated = 0usize;
        let mut watch = HashSet::new();
        for nk in to_eval {
            let (freed, phys) = {
                let n = self.node(nk);
                (n.freed, n.phys)
            };
            if freed {
                continue;
            }
            let constraints = self.effective_constraints(nk);
            if constraints.is_empty() {
                continue;
            }
            evaluated += 1;
            let holds = match self.plane.cache.get(phys, now) {
                Some(snap) => constraints.holds(snap),
                // No cached sample (failed machine edge): fall back to a
                // fresh one; treat an unreachable machine as conforming —
                // failure handling, not migration, deals with it.
                None => pool
                    .snapshot_of(phys)
                    .map(|s| constraints.holds(&s))
                    .unwrap_or(true),
            };
            if !holds {
                violations.push((nk, phys));
                watch.insert(nk);
            }
        }
        self.plane.watch = watch;
        self.plane.dirty.clear();
        ViolationScan {
            violations,
            evaluated,
        }
    }

    // --------------------------------------------------------------- queries

    /// Effective constraints of a node: its own plus every ancestor's.
    pub fn effective_constraints(&self, nk: NodeKey) -> JsConstraints {
        let mut out = JsConstraints::new();
        let node = self.node(nk);
        if let Some(c) = &node.constraints {
            out.and(c);
        }
        if let Some(ck) = node.parent {
            if let Some(c) = &self.cluster(ck).constraints {
                out.and(c);
            }
            if let Some(sk) = self.cluster(ck).parent {
                if let Some(c) = &self.site(sk).constraints {
                    out.and(c);
                }
                if let Some(dk) = self.site(sk).parent {
                    if let Some(c) = &self.domain(dk).constraints {
                        out.and(c);
                    }
                }
            }
        }
        out
    }

    /// Physical machines of live peers of `nk`, ordered by locality: same
    /// cluster first, then same site, then same domain (§5.2: "To maintain
    /// locality JRS tries to migrate objects of one node to another node
    /// within the same cluster of the original node", then site, and so on).
    pub fn locality_candidates(&self, nk: NodeKey) -> Vec<NodeId> {
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut out: Vec<NodeId> = Vec::new();
        let self_phys = self.node(nk).phys;
        seen.insert(self_phys);

        let push_node =
            |state: &VdaState, k: NodeKey, out: &mut Vec<NodeId>, seen: &mut HashSet<NodeId>| {
                let n = state.node(k);
                if !n.freed && !state.failed.contains(&n.phys) && seen.insert(n.phys) {
                    out.push(n.phys);
                }
            };

        let Some(ck) = self.node(nk).parent else {
            return out;
        };
        for &k in &self.cluster(ck).nodes {
            push_node(self, k, &mut out, &mut seen);
        }
        let Some(sk) = self.cluster(ck).parent else {
            return out;
        };
        for &c in &self.site(sk).clusters {
            for &k in &self.cluster(c).nodes {
                push_node(self, k, &mut out, &mut seen);
            }
        }
        let Some(dk) = self.site(sk).parent else {
            return out;
        };
        for &s in &self.domain(dk).sites {
            for &c in &self.site(s).clusters {
                for &k in &self.cluster(c).nodes {
                    push_node(self, k, &mut out, &mut seen);
                }
            }
        }
        out
    }

    /// All physical machines under a cluster (live nodes only).
    pub fn cluster_machines(&self, ck: ClusterKey) -> Vec<NodeId> {
        self.cluster(ck)
            .nodes
            .iter()
            .map(|&nk| self.node(nk).phys)
            .collect()
    }

    /// All physical machines under a site.
    pub fn site_machines(&self, sk: SiteKey) -> Vec<NodeId> {
        self.site(sk)
            .clusters
            .iter()
            .flat_map(|&ck| self.cluster_machines(ck))
            .collect()
    }

    /// All physical machines under a domain.
    pub fn domain_machines(&self, dk: DomainKey) -> Vec<NodeId> {
        self.domain(dk)
            .sites
            .iter()
            .flat_map(|&sk| self.site_machines(sk))
            .collect()
    }
}
