//! Automatic object migration (paper §4.6, §5.2).
//!
//! "The PubOA periodically examines whether the constraints of the stored
//! virtual architectures are still fulfilled ... The AppOA is then trying to
//! migrate all objects originating from its JSA that are on this list to
//! other architecture components which fulfill the original constraints. To
//! maintain locality JRS tries to migrate objects of one node to another
//! node within the same cluster of the original node", then the same site,
//! then the domain.

use crate::shell::DeploymentInner;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Supervisor loop: wakes every `period` virtual seconds and runs the
/// enabled placement passes — constraint-violation automigration (finds
/// nodes whose creation constraints no longer hold and migrates affected
/// objects to the nearest cluster → site → domain machine that satisfies
/// them) and affinity-guided co-location (migrates traffic-hot objects
/// toward their dominant callers, DESIGN.md §14). The two toggles are
/// independent.
pub(crate) fn run(deployment: Weak<DeploymentInner>, period: f64) {
    loop {
        // Sleep one period in small real slices so shutdown stays prompt.
        {
            let Some(d) = deployment.upgrade() else {
                return;
            };
            if d.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let deadline = d.clock.now() + period;
            while d.clock.now() < deadline {
                if d.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut moved = 0;
            if d.automigration.load(Ordering::Relaxed) {
                moved += round(&d);
            }
            if d.affinity_placement.load(Ordering::Relaxed) {
                moved += affinity_round(&d);
            }
            if moved > 0 {
                d.events.record(
                    d.clock.now(),
                    crate::RuntimeEvent::AutoMigrationRound { migrated: moved },
                );
            }
        }
    }
}

/// Objects one affinity round will migrate at most, so a sudden traffic
/// shift cannot stall the supervisor in one huge migration storm.
const AFFINITY_MOVES_PER_ROUND: usize = 32;

/// One affinity co-location round: migrate each hot object to its dominant
/// caller when that caller clearly dominates (`min_share`), the object is
/// not inside its post-migration cooldown, and the target machine is alive
/// and not markedly busier than the current host. Returns the number of
/// objects migrated; exposed crate-internally so tests can drive rounds
/// deterministically.
pub(crate) fn affinity_round(d: &Arc<DeploymentInner>) -> usize {
    d.affinity_rounds.fetch_add(1, Ordering::Relaxed);
    d.obs.counter("affinity.rounds", None, "").inc();
    let cfg = d.config.affinity;
    let now = d.clock.now();
    let hot = d.affinity.hot_objects(now, cfg.min_calls, cfg.cooldown);
    if hot.is_empty() {
        return 0;
    }
    let apps: Vec<_> = d.apps.read().values().cloned().collect();
    let mut migrated = 0;
    for h in hot {
        if migrated >= AFFINITY_MOVES_PER_ROUND {
            break;
        }
        // Hysteresis: only a clearly dominant caller justifies a move.
        if h.share < cfg.min_share {
            continue;
        }
        if d.vda.is_failed(h.dominant) {
            continue;
        }
        let obj = crate::ids::ObjectId(h.object);
        // Find the owning application and the object's current location.
        let Some((app, loc)) = apps.iter().find_map(|a| a.location_of(obj).map(|l| (a, l))) else {
            continue;
        };
        if loc == h.dominant {
            continue;
        }
        // Load check, on this period's samples: never migrate onto a
        // machine markedly busier than the current host — co-location must
        // not create hotspots.
        let load = |n| {
            let snap = d.vda.sample_of(n)?;
            Some(snap.num(jsym_sysmon::SysParam::CpuLoad1).unwrap_or(0.0))
        };
        let Some(target_load) = load(h.dominant) else {
            continue; // machine gone from the pool
        };
        if target_load > load(loc).unwrap_or(0.0) + 2.0 {
            continue;
        }
        if app.migrate_object(obj, h.dominant).is_ok() {
            d.affinity.note_migration(h.object, now);
            d.affinity_migrations.fetch_add(1, Ordering::Relaxed);
            d.obs.counter("affinity.migrations", None, "").inc();
            migrated += 1;
        }
    }
    migrated
}

/// One auto-migration round. Returns the number of objects migrated;
/// exposed crate-internally so tests can drive rounds deterministically.
pub(crate) fn round(d: &Arc<DeploymentInner>) -> usize {
    let n = d.automigrate_rounds.fetch_add(1, Ordering::Relaxed);
    // Dirty-set scans only re-evaluate nodes whose cached sample moved past
    // the threshold; every 8th round falls back to a full scan so drift
    // below the threshold cannot hide a violation forever.
    let use_dirty = n % 8 != 0;
    let mode = if use_dirty { "dirty" } else { "full" };
    let scan = d.vda.scan_violations(use_dirty);
    d.obs.counter("automigrate.rounds", None, mode).inc();
    d.obs
        .counter("automigrate.nodes_evaluated", None, mode)
        .add(scan.evaluated as u64);
    if scan.violations.is_empty() {
        return 0;
    }
    let mut migrated = 0;
    for (node_key, phys) in scan.violations {
        let node = d.vda.node_handle(node_key);
        let constraints = d.vda.effective_constraints(&node);
        // Locality order: same cluster, then same site, then same domain.
        let target = (d.vda.locality_candidates(&node).into_iter())
            .find(|&m| (d.vda.sample_of(m)).is_some_and(|s| constraints.holds(&s)));
        let Some(target) = target else {
            continue; // nowhere satisfying the constraints; leave objects
        };
        let apps: Vec<_> = d.apps.read().values().cloned().collect();
        for app in apps {
            for obj in app.objects_on(phys) {
                if app.migrate_object(obj, target).is_ok() {
                    migrated += 1;
                }
            }
        }
    }
    migrated
}
