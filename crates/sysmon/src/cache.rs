//! Per-node sample cache with a virtual-time TTL and explicit eviction.
//!
//! Paper §5.1 has every node forward its observed system parameters to the
//! cluster manager once per monitoring period; queries between two periods
//! see the same values. [`SampleCache`] reproduces that economics for the
//! simulated registry: a snapshot taken at virtual time `t` stays valid
//! until `t + ttl`, so repeated `sample()` calls within one monitoring tick
//! cost a map lookup instead of rebuilding the full 44-parameter snapshot.
//!
//! Two invalidation channels exist:
//! * **TTL** — entries older than `ttl` virtual seconds are treated as
//!   misses on [`SampleCache::get`];
//! * **eviction** — [`SampleCache::invalidate`] drops a single node's entry
//!   (machine failed) and [`SampleCache::retain`] the entries of machines
//!   that left the pool.

use crate::SysSnapshot;
use jsym_net::{NodeId, VirtTime};
use std::collections::HashMap;

/// Point-in-time statistics of a [`SampleCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls answered from the cache.
    pub hits: u64,
    /// `get` calls that found no valid entry.
    pub misses: u64,
    /// Entries evicted via `invalidate` or `retain`.
    pub invalidations: u64,
    /// Entries currently stored (valid or stale).
    pub entries: usize,
}

/// A per-node snapshot cache keyed by physical [`NodeId`].
///
/// Not thread-safe by itself; the owner (the VDA registry state) serializes
/// access under its own lock.
#[derive(Clone, Debug)]
pub struct SampleCache {
    ttl: VirtTime,
    entries: HashMap<NodeId, SysSnapshot>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl SampleCache {
    /// A cache whose entries stay valid for `ttl` virtual seconds.
    pub fn new(ttl: VirtTime) -> Self {
        SampleCache {
            ttl: ttl.max(0.0),
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// The validity window in virtual seconds.
    pub fn ttl(&self) -> VirtTime {
        self.ttl
    }

    /// Changes the validity window (existing entries keep their timestamps).
    pub fn set_ttl(&mut self, ttl: VirtTime) {
        self.ttl = ttl.max(0.0);
    }

    /// Looks up the cached snapshot for `id`, valid at virtual time `now`.
    ///
    /// An entry is valid when it is at most `ttl` virtual seconds old. Counts
    /// a hit or a miss.
    pub fn get(&mut self, id: NodeId, now: VirtTime) -> Option<&SysSnapshot> {
        let valid = self
            .entries
            .get(&id)
            .is_some_and(|snap| now - snap.at <= self.ttl);
        if valid {
            self.hits += 1;
            self.entries.get(&id)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Reads the stored snapshot for `id` without freshness checks or hit
    /// accounting — for consumers that just refreshed the cache and want the
    /// authoritative stored value.
    pub fn peek(&self, id: NodeId) -> Option<&SysSnapshot> {
        self.entries.get(&id)
    }

    /// Stores a snapshot for `id`, returning the previously stored one if
    /// any.
    pub fn put(&mut self, id: NodeId, snap: SysSnapshot) -> Option<SysSnapshot> {
        self.entries.insert(id, snap)
    }

    /// Evicts the entry for `id`, returning it. Counts an invalidation when
    /// something was actually stored.
    pub fn invalidate(&mut self, id: NodeId) -> Option<SysSnapshot> {
        let old = self.entries.remove(&id);
        if old.is_some() {
            self.invalidations += 1;
        }
        old
    }

    /// Drops entries whose id fails `keep` (machines removed from the pool).
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let before = self.entries.len();
        self.entries.retain(|&id, _| keep(id));
        self.invalidations += (before - self.entries.len()) as u64;
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: self.entries.len(),
        }
    }
}

impl Default for SampleCache {
    /// A cache with a 2-virtual-second validity window.
    fn default() -> Self {
        SampleCache::new(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: VirtTime) -> SysSnapshot {
        let mut s = SysSnapshot::empty(at);
        s.set(crate::SysParam::IdlePct, 90.0);
        s
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut c = SampleCache::new(1.0);
        c.put(NodeId(0), snap(10.0));
        assert!(c.get(NodeId(0), 10.5).is_some());
        assert!(c.get(NodeId(0), 11.0).is_some(), "boundary is inclusive");
        assert!(c.get(NodeId(0), 11.1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn invalidate_evicts_and_counts() {
        let mut c = SampleCache::new(5.0);
        c.put(NodeId(3), snap(0.0));
        assert!(c.invalidate(NodeId(3)).is_some());
        assert!(c.invalidate(NodeId(3)).is_none(), "double evict no-ops");
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.get(NodeId(3), 0.0).is_none());
    }

    #[test]
    fn put_returns_previous_entry() {
        let mut c = SampleCache::new(1.0);
        assert!(c.put(NodeId(0), snap(1.0)).is_none());
        let old = c.put(NodeId(0), snap(2.0)).expect("previous entry");
        assert_eq!(old.at, 1.0);
    }

    #[test]
    fn retain_drops_missing_machines() {
        let mut c = SampleCache::new(1.0);
        c.put(NodeId(0), snap(0.0));
        c.put(NodeId(1), snap(0.0));
        c.retain(|id| id == NodeId(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.peek(NodeId(0)).is_some());
    }
}
