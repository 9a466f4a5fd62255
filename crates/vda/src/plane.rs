//! The parameter aggregation plane: the registry's one view of every
//! machine's system parameters, and the indexes allocation and automigration
//! read it through (`DESIGN.md` §9).
//!
//! Paper §5.1 has each node sample its parameters once per monitoring period
//! and its managers average them up the cluster → site → domain hierarchy;
//! queries between two periods see the same values. The plane is that
//! pipeline's state inside the registry:
//!
//! * a per-machine [`SampleCache`] with a virtual-time TTL (the monitoring
//!   period), so one period's worth of queries shares one sample per
//!   machine — a TTL of `0.0` makes every query take a fresh sample through
//!   the same code;
//! * per-component [`ParamRollup`]s (running sum + count per parameter) on
//!   cluster/site/domain entries, updated as nodes attach, detach and
//!   refresh — a component's averaged snapshot is a read of its rollup;
//! * a lazy-deletion min-heap over free machines keyed by `(CpuLoad1,
//!   NodeId)`, which `alloc_any`/`alloc_many` pop candidates from in
//!   ascending [`rank`] — the order object placement (`least_loaded`) takes
//!   the minimum of, over the same cached samples.
//!
//! A dirty set tracks virtual nodes whose cached sample moved past a
//! relative threshold since the last automigration scan; dirty-mode scans
//! re-evaluate only those plus the currently-violating watch set.
//!
//! The reference model these structures are checked against is
//! `tests/placement_model.rs`: a free set, a linear scan over the period's
//! samples and `aggregate::average`.

use crate::keys::NodeKey;
use jsym_net::NodeId;
use jsym_sysmon::{ParamValue, SampleCache, SysParam, SysSnapshot};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Default virtual-time TTL for cached samples: the default monitoring
/// period.
pub const DEFAULT_TTL: f64 = 2.0;

/// `f64` with a total order, usable as a heap key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Configuration of the aggregation plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlaneConfig {
    /// Virtual-time TTL of cached per-machine samples — the monitoring
    /// period. `0.0` means every query sees a fresh sample.
    pub ttl: f64,
    /// Relative change in any numeric parameter (vs `max(|old|, 1)`) above
    /// which a node is marked dirty for the next automigration scan. `0.0`
    /// marks on any change.
    pub dirty_threshold: f64,
}

/// Default dirty threshold: 5% relative movement. Large enough that the
/// load model's per-interval jitter (memory noise, page-fault drift) does
/// not mark idle nodes dirty every refresh, small enough that any real load
/// shift does.
pub const DEFAULT_DIRTY_THRESHOLD: f64 = 0.05;

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            ttl: DEFAULT_TTL,
            dirty_threshold: DEFAULT_DIRTY_THRESHOLD,
        }
    }
}

/// Point-in-time statistics of the aggregation plane.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlaneStats {
    /// Sample TTL in virtual seconds.
    pub ttl: f64,
    /// Cache hits since the plane was created.
    pub hits: u64,
    /// Cache misses (fresh samples taken) since the plane was created.
    pub misses: u64,
    /// Explicit evictions (failed machines, machines that left the pool).
    pub invalidations: u64,
    /// Machines currently holding a cached sample.
    pub cached: usize,
    /// Virtual nodes queued for the next dirty-mode automigration scan.
    pub dirty: usize,
    /// Free machines currently indexed by the placement heap.
    pub heap: usize,
    /// Virtual nodes contributing to a component rollup.
    pub tracked: usize,
}

/// Result of one constraint-violation scan.
#[derive(Clone, Debug, Default)]
pub struct ViolationScan {
    /// Violating `(node, machine)` pairs in ascending node order.
    pub violations: Vec<(NodeKey, NodeId)>,
    /// Number of nodes whose constraints were actually evaluated.
    pub evaluated: usize,
}

/// Mutable state of the aggregation plane, owned by `VdaState`.
#[derive(Debug)]
pub(crate) struct AggPlane {
    /// Relative dirty-marking threshold (see [`PlaneConfig`]).
    pub dirty_threshold: f64,
    /// Per-machine sample cache (virtual-time TTL + eviction on failure).
    pub cache: SampleCache,
    /// Virtual time of the last completed refresh sweep, if any.
    pub last_refresh: Option<f64>,
    /// The pool's membership generation at the last refresh; a change forces
    /// a sweep even inside the TTL window.
    pub pool_generation: u64,
    /// The exact snapshot each attached node currently contributes to its
    /// ancestor rollups — removed verbatim on detach, so rollups never leak.
    pub contrib: HashMap<NodeKey, SysSnapshot>,
    /// Live virtual nodes per physical machine, for dirty propagation.
    pub live_by_phys: HashMap<NodeId, Vec<NodeKey>>,
    /// Min-heap of free machines by `(CpuLoad1, NodeId)`, lazily pruned.
    pub heap: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    /// The load each indexed machine's one valid heap entry carries; an
    /// entry is valid only if it matches this bit-exactly, and popping it
    /// removes the machine from the map.
    pub heap_loads: HashMap<NodeId, f64>,
    /// Nodes whose cached sample moved past the threshold since the last
    /// scan (plus freshly allocated/re-attached nodes).
    pub dirty: HashSet<NodeKey>,
    /// Nodes found violating by the last scan; always re-evaluated so a
    /// recovery is noticed even without a sample delta.
    pub watch: HashSet<NodeKey>,
}

impl Default for AggPlane {
    fn default() -> Self {
        let cfg = PlaneConfig::default();
        AggPlane {
            dirty_threshold: cfg.dirty_threshold,
            cache: SampleCache::new(cfg.ttl),
            last_refresh: None,
            pool_generation: 0,
            contrib: HashMap::new(),
            live_by_phys: HashMap::new(),
            heap: BinaryHeap::new(),
            heap_loads: HashMap::new(),
            dirty: HashSet::new(),
            watch: HashSet::new(),
        }
    }
}

impl AggPlane {
    /// Snapshot of the plane's statistics.
    pub fn stats(&self) -> PlaneStats {
        let c = self.cache.stats();
        PlaneStats {
            ttl: self.cache.ttl(),
            hits: c.hits,
            misses: c.misses,
            invalidations: c.invalidations,
            cached: c.entries,
            dirty: self.dirty.len(),
            heap: self.heap_loads.len(),
            tracked: self.contrib.len(),
        }
    }

    /// Indexes `id` as a free machine under `load`.
    pub fn heap_push(&mut self, id: NodeId, load: f64) {
        self.heap_loads.insert(id, load);
        self.heap.push(Reverse(rank(load, id)));
    }
}

/// The load a cached sample is ranked under: smoothed 1-minute load, with
/// missing values sorting last.
pub(crate) fn load_of(snap: &SysSnapshot) -> f64 {
    snap.num(SysParam::CpuLoad1).unwrap_or(f64::MAX)
}

/// The one ranking of machines by load: ascending load, ties to the lower
/// machine id. The allocator's heap pops in this order and object placement
/// takes its minimum.
pub(crate) fn rank(load: f64, id: NodeId) -> (OrdF64, NodeId) {
    (OrdF64(load), id)
}

/// Whether the sample moved enough to re-evaluate its nodes' constraints.
///
/// Numeric parameters compare relatively (`|new - old| > thr * max(|old|,
/// 1)`, so MB-scale and fraction-scale parameters get comparable
/// sensitivity); any string change, or a parameter appearing/disappearing,
/// always trips it. A threshold of `0.0` trips on any change at all.
///
/// `UptimeSecs` is excluded: it grows linearly with virtual time, so it
/// would mark every node dirty on every refresh. Constraints on it are
/// still caught by the periodic full scan.
pub(crate) fn delta_exceeds(old: &SysSnapshot, new: &SysSnapshot, threshold: f64) -> bool {
    if old.len() != new.len() {
        return true;
    }
    for (param, nv) in new.iter() {
        if *param == SysParam::UptimeSecs {
            continue;
        }
        match (old.get(*param), nv) {
            (Some(ParamValue::Num(o)), ParamValue::Num(n)) => {
                if (n - o).abs() > threshold * o.abs().max(1.0) {
                    return true;
                }
            }
            (Some(ov), nv) => {
                if ov != nv {
                    return true;
                }
            }
            (None, _) => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsym_sysmon::SysParam;

    fn snap(load: f64, mem: f64, name: &str) -> SysSnapshot {
        let mut s = SysSnapshot::empty(0.0);
        s.set(SysParam::CpuLoad1, load);
        s.set(SysParam::AvailMem, mem);
        s.set(SysParam::NodeName, name);
        s
    }

    #[test]
    fn ord_f64_orders_totally() {
        let mut v = vec![OrdF64(2.0), OrdF64(f64::MAX), OrdF64(0.5), OrdF64(0.0)];
        v.sort();
        assert_eq!(v[0], OrdF64(0.0));
        assert_eq!(v[3], OrdF64(f64::MAX));
    }

    #[test]
    fn delta_is_relative_per_parameter() {
        let a = snap(0.10, 200.0, "m0");
        // 200 -> 205 MB is a 2.5% move: below a 0.25 threshold.
        let b = snap(0.10, 205.0, "m0");
        assert!(!delta_exceeds(&a, &b, 0.25));
        // Load 0.10 -> 0.90 compares against max(|old|, 1) = 1.
        let c = snap(0.90, 200.0, "m0");
        assert!(delta_exceeds(&a, &c, 0.25));
        // Zero threshold trips on any change.
        assert!(delta_exceeds(&a, &b, 0.0));
        assert!(!delta_exceeds(&a, &a.clone(), 0.0));
    }

    #[test]
    fn delta_trips_on_strings_and_shape() {
        let a = snap(0.1, 200.0, "m0");
        let renamed = snap(0.1, 200.0, "m1");
        assert!(delta_exceeds(&a, &renamed, 10.0));
        let mut fewer = a.clone();
        fewer.set(SysParam::IdlePct, 50.0);
        assert!(delta_exceeds(&a, &fewer, 10.0));
    }

    #[test]
    fn heap_pops_in_load_then_id_order() {
        let mut p = AggPlane::default();
        p.heap_push(NodeId(3), 0.5);
        p.heap_push(NodeId(1), 0.5);
        p.heap_push(NodeId(2), 0.1);
        let mut order = Vec::new();
        while let Some(Reverse((_, id))) = p.heap.pop() {
            order.push(id.0);
        }
        assert_eq!(order, vec![2, 1, 3]);
    }
}
