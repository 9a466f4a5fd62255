//! The physical resource pool.

use crate::{Result, VdaError};
use jsym_net::NodeId;
use jsym_sysmon::{SimMachine, SysSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

struct PoolState {
    machines: BTreeMap<NodeId, SimMachine>,
    next_id: u32,
    /// Bumped whenever a machine joins or leaves.
    generation: u64,
}

/// The set of physical machines the JS-Shell has registered with the runtime
/// (paper §5: "The nodes on which JRS is installed are configured by using
/// the JS-Shell. The set of nodes can be changed by adding or removing nodes
/// dynamically").
///
/// Cloning shares the pool.
#[derive(Clone)]
pub struct ResourcePool {
    state: Arc<RwLock<PoolState>>,
}

impl ResourcePool {
    /// An empty pool.
    pub fn new() -> Self {
        ResourcePool {
            state: Arc::new(RwLock::new(PoolState {
                machines: BTreeMap::new(),
                next_id: 0,
                generation: 0,
            })),
        }
    }

    /// Adds a machine, returning its id.
    pub fn add_machine(&self, machine: SimMachine) -> NodeId {
        let mut st = self.state.write();
        let id = NodeId(st.next_id);
        st.next_id += 1;
        st.generation += 1;
        st.machines.insert(id, machine);
        id
    }

    /// Removes a machine (JS-Shell shrink), returning it if present.
    pub fn remove_machine(&self, id: NodeId) -> Option<SimMachine> {
        let mut st = self.state.write();
        st.generation += 1;
        st.machines.remove(&id)
    }

    /// Changes whenever a machine joins or leaves: "same machines as last
    /// time?" without listing them.
    pub fn generation(&self) -> u64 {
        self.state.read().generation
    }

    /// Looks up a machine by id.
    pub fn machine(&self, id: NodeId) -> Result<SimMachine> {
        self.state
            .read()
            .machines
            .get(&id)
            .cloned()
            .ok_or(VdaError::UnknownPhysicalNode(id))
    }

    /// Finds a machine by host name.
    pub fn by_name(&self, name: &str) -> Result<(NodeId, SimMachine)> {
        self.state
            .read()
            .machines
            .iter()
            .find(|(_, m)| m.spec().name == name)
            .map(|(id, m)| (*id, m.clone()))
            .ok_or_else(|| VdaError::NoSuchMachine(name.to_owned()))
    }

    /// All machine ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.state.read().machines.keys().copied().collect()
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.state.read().machines.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.state.read().machines.is_empty()
    }

    /// Samples a machine's system parameters now — the sampling primitive of
    /// the plane's sweep and the full violation scan; placement reads the
    /// period's samples through `VdaRegistry::least_loaded` / `sample_of`.
    pub fn snapshot_of(&self, id: NodeId) -> Result<SysSnapshot> {
        Ok(self.machine(id)?.snapshot())
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: NodeId) -> bool {
        self.state.read().machines.contains_key(&id)
    }

    /// Current virtual time as seen by the pool's machines (`0.0` when the
    /// pool is empty). All machines of one deployment share a clock.
    pub fn now(&self) -> f64 {
        self.state
            .read()
            .machines
            .values()
            .next()
            .map(|m| m.clock().now())
            .unwrap_or(0.0)
    }
}

impl Default for ResourcePool {
    fn default() -> Self {
        ResourcePool::new()
    }
}

impl std::fmt::Debug for ResourcePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourcePool")
            .field("machines", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsym_net::SimClock;
    use jsym_sysmon::{LoadModel, LoadProfile, MachineSpec, SysParam};

    fn mk(name: &str) -> SimMachine {
        SimMachine::new(
            MachineSpec::generic(name, 10.0, 128.0),
            LoadModel::new(LoadProfile::Idle, 0),
            SimClock::default(),
        )
    }

    #[test]
    fn add_and_lookup() {
        let pool = ResourcePool::new();
        let a = pool.add_machine(mk("alpha"));
        let b = pool.add_machine(mk("beta"));
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.machine(a).unwrap().spec().name, "alpha");
        let (id, m) = pool.by_name("beta").unwrap();
        assert_eq!(id, b);
        assert_eq!(m.spec().name, "beta");
    }

    #[test]
    fn missing_lookups_error() {
        let pool = ResourcePool::new();
        assert!(matches!(
            pool.by_name("ghost"),
            Err(VdaError::NoSuchMachine(_))
        ));
        assert!(matches!(
            pool.machine(NodeId(5)),
            Err(VdaError::UnknownPhysicalNode(_))
        ));
    }

    #[test]
    fn remove_machine_shrinks_pool() {
        let pool = ResourcePool::new();
        let a = pool.add_machine(mk("a"));
        assert!(pool.contains(a));
        let m = pool.remove_machine(a).unwrap();
        assert_eq!(m.spec().name, "a");
        assert!(!pool.contains(a));
        assert!(pool.is_empty());
        // Ids are not recycled.
        let b = pool.add_machine(mk("b"));
        assert_ne!(a, b);
        // Join, leave, join: three membership changes.
        assert_eq!(pool.generation(), 3);
    }

    #[test]
    fn snapshot_of_live_machine() {
        let pool = ResourcePool::new();
        let a = pool.add_machine(mk("a"));
        let snap = pool.snapshot_of(a).unwrap();
        assert_eq!(snap.str(SysParam::NodeName), Some("a"));
    }

    #[test]
    fn clones_share_state() {
        let pool = ResourcePool::new();
        let clone = pool.clone();
        pool.add_machine(mk("shared"));
        assert_eq!(clone.len(), 1);
    }
}
