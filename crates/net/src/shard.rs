//! Lock-striped hot-path state for the delivery plane.
//!
//! Every modeled send touches per-pair connection state (`pair_last`), and —
//! with coalescing armed — per-pair batch and gap-EWMA state. Behind one
//! process-global mutex each, those maps serialize every sender in the
//! process at swarm scale. This module replaces them with lock striping
//! over a packed `u64` pair key: the same pair always lands on the same
//! stripe (preserving the per-pair critical-section protocol exactly), while
//! unrelated pairs proceed in parallel.

use jsym_obs::Counter;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{LinkClass, NodeId};

/// Packs a directed `(src, dst)` node pair into one `u64` map key. Replaces
/// tuple-key hashing: one integer mix instead of SipHash over 8 bytes of
/// struct, and the key doubles as the stripe selector input.
#[inline]
pub(crate) fn pair_key(src: NodeId, dst: NodeId) -> u64 {
    ((src.0 as u64) << 32) | dst.0 as u64
}

/// Fibonacci multiplier (2^64 / φ); mixes the packed key's low and high
/// halves into well-distributed upper bits.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trivial one-multiply hasher for the packed pair keys. The keys are
/// already unique integers; SipHash would burn most of a map lookup's cost
/// on DoS resistance the simulator does not need.
#[derive(Default)]
pub(crate) struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; anything else is a bug.
        debug_assert!(bytes.len() == 8, "PairKeyHasher is for u64 keys only");
        let mut k = [0u8; 8];
        k[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        self.write_u64(u64::from_le_bytes(k));
    }

    #[inline]
    fn write_u64(&mut self, k: u64) {
        self.0 = k.wrapping_mul(MIX);
    }
}

/// A pair-keyed map in this module: `HashMap` with the one-multiply hasher.
pub(crate) type PairMap<V> = HashMap<u64, V, BuildHasherDefault<PairKeyHasher>>;

/// Stripe count: a power of two, so stripe selection is a mask.
const STRIPES: usize = 64;

/// Lock-striped `u64 → V` map over [`STRIPES`] stripes; every stripe's map
/// is pre-sized so the hot path never rehashes under a stripe lock.
pub(crate) struct Striped<V> {
    shards: Box<[Mutex<PairMap<V>>]>,
    /// Stripe-lock acquisitions that found the lock held (`try_lock` failed
    /// and we had to wait).
    contended: AtomicU64,
    /// Pre-resolved `net.shard.contended` handle (no-op when obs is off).
    obs_contended: Counter,
}

impl<V> Striped<V> {
    /// Each stripe's map is pre-sized to `capacity` entries.
    pub(crate) fn new(capacity: usize, obs_contended: Counter) -> Self {
        let shards = (0..STRIPES)
            .map(|_| {
                Mutex::new(PairMap::with_capacity_and_hasher(
                    capacity,
                    Default::default(),
                ))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Striped {
            shards,
            contended: AtomicU64::new(0),
            obs_contended,
        }
    }

    #[inline]
    fn index(key: u64) -> usize {
        // High bits of the mix are the well-distributed ones.
        (key.wrapping_mul(MIX) >> 32) as usize & (STRIPES - 1)
    }

    /// Locks the stripe owning `key`, counting contended acquisitions.
    pub(crate) fn lock(&self, key: u64) -> MutexGuard<'_, PairMap<V>> {
        let shard = &self.shards[Self::index(key)];
        match shard.try_lock() {
            Some(g) => g,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.obs_contended.inc();
                shard.lock()
            }
        }
    }

    /// Stripe count.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Contended stripe-lock acquisitions so far.
    pub(crate) fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// Per-link-class "segment busy until" slots, replacing the
/// `Mutex<HashMap<LinkClass, f64>>` the shared-segment model kept: there are
/// only four link classes, so the map was pure overhead and a single global
/// lock. One word-sized mutex per class; `0.0` means "never used", which is
/// indistinguishable from an absent entry because virtual arrivals are
/// strictly positive.
pub(crate) struct SegmentSlots {
    slots: [Mutex<f64>; 4],
}

#[inline]
fn class_index(link: LinkClass) -> usize {
    match link {
        LinkClass::Loopback => 0,
        LinkClass::Lan100 => 1,
        LinkClass::Lan10 => 2,
        LinkClass::Wan => 3,
    }
}

impl SegmentSlots {
    pub(crate) fn new() -> Self {
        SegmentSlots {
            slots: [
                Mutex::new(0.0),
                Mutex::new(0.0),
                Mutex::new(0.0),
                Mutex::new(0.0),
            ],
        }
    }

    /// Locks the class's busy-until slot.
    pub(crate) fn lock(&self, link: LinkClass) -> MutexGuard<'_, f64> {
        self.slots[class_index(link)].lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsym_obs::ObsRegistry;

    fn counter() -> Counter {
        ObsRegistry::disabled().counter("net.shard.contended", None, "test")
    }

    #[test]
    fn pair_key_packs_src_high_dst_low() {
        assert_eq!(pair_key(NodeId(0), NodeId(0)), 0);
        assert_eq!(pair_key(NodeId(1), NodeId(2)), (1 << 32) | 2);
        assert_ne!(
            pair_key(NodeId(1), NodeId(2)),
            pair_key(NodeId(2), NodeId(1)),
            "directed pairs must stay distinct"
        );
    }

    #[test]
    fn same_key_always_lands_on_same_stripe() {
        let s: Striped<u32> = Striped::new(4, counter());
        let key = pair_key(NodeId(7), NodeId(13));
        s.lock(key).insert(key, 42);
        // Any later lock of the same key must see the entry.
        assert_eq!(s.lock(key).get(&key), Some(&42));
    }

    #[test]
    fn distinct_pairs_spread_over_stripes() {
        let mut used = std::collections::HashSet::new();
        for src in 0..64u32 {
            for dst in 0..64u32 {
                used.insert(Striped::<u32>::index(pair_key(NodeId(src), NodeId(dst))));
            }
        }
        assert!(
            used.len() > 48,
            "4096 pairs should hit most of 64 stripes, hit {}",
            used.len()
        );
    }

    #[test]
    fn contended_counts_waited_acquisitions() {
        let s: std::sync::Arc<Striped<u32>> = std::sync::Arc::new(Striped::new(4, counter()));
        let key = pair_key(NodeId(0), NodeId(1));
        let guard = s.lock(key);
        let s2 = std::sync::Arc::clone(&s);
        let t = std::thread::spawn(move || {
            let _g = s2.lock(key);
        });
        // Give the thread time to hit the held lock.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        t.join().unwrap();
        assert_eq!(s.contended(), 1);
    }

    #[test]
    fn segment_slots_start_idle() {
        let seg = SegmentSlots::new();
        assert_eq!(*seg.lock(LinkClass::Lan10), 0.0);
        *seg.lock(LinkClass::Lan10) = 4.5;
        assert_eq!(*seg.lock(LinkClass::Lan10), 4.5);
        assert_eq!(*seg.lock(LinkClass::Wan), 0.0);
    }
}
