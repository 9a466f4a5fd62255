//! E10 — parameter-aggregation-plane ablation: constraint-aware placement
//! and component parameter queries with the plane on and off
//! (DESIGN.md §9).
//!
//! Two claims are checked: (a) the indexed fast path (sample cache +
//! placement heap + incremental rollups) makes repeated `alloc_any` and
//! component `get_sys_param` queries substantially cheaper than the
//! recompute-from-scratch slow path on a 64-machine domain, and (b) it is
//! invisible to the model — both paths pick the exact same machines in the
//! exact same order for the whole run.
//!
//! The clock is effectively frozen (1e9 real seconds per virtual second),
//! so both sides see bit-identical samples and the comparison is exact.

use jsym_bench::write_json;
use jsym_net::{NodeId, SimClock, TimeScale};
use jsym_sysmon::{JsConstraints, LoadModel, LoadProfile, MachineSpec, SimMachine, SysParam};
use jsym_vda::{PlaneConfig, ResourcePool, VdaRegistry};
use serde::Serialize;
use std::time::Instant;

const MACHINES: usize = 64;
const CLUSTER: usize = 16;
const ALLOCS_PER_ITER: usize = 8;

#[derive(Serialize)]
struct Row {
    scenario: String,
    nodes: usize,
    iters: usize,
    wall_seconds: f64,
    micros_per_op: f64,
    speedup_vs_slow: f64,
    identical_decisions: bool,
}

fn build_pool(clock: &SimClock) -> ResourcePool {
    let pool = ResourcePool::new();
    for i in 0..MACHINES {
        pool.add_machine(SimMachine::new(
            MachineSpec::generic(&format!("m{i}"), 50.0, 256.0),
            LoadModel::new(
                LoadProfile::Constant((i * 37 % 90) as f64 / 100.0),
                i as u64,
            ),
            clock.clone(),
        ));
    }
    pool
}

fn constraints() -> JsConstraints {
    let mut c = JsConstraints::new();
    c.set(SysParam::CpuLoad1, "<=", 0.8);
    c.set(SysParam::NodeName, "!=", "m13");
    c
}

/// One workload pass: `iters` rounds of (8 constrained single-node
/// allocations, one cluster-level parameter query, free the 8). Returns the
/// wall time and the full placement-decision sequence.
fn run(reg: &VdaRegistry, iters: usize) -> (f64, Vec<NodeId>) {
    let cluster = reg
        .request_cluster(CLUSTER, None)
        .expect("component cluster");
    let constr = constraints();
    let mut decisions = Vec::with_capacity(iters * ALLOCS_PER_ITER);
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut batch = Vec::with_capacity(ALLOCS_PER_ITER);
        for _ in 0..ALLOCS_PER_ITER {
            let n = reg
                .request_node_constrained(&constr)
                .expect("pool has satisfying free machines");
            decisions.push(n.phys());
            batch.push(n);
        }
        cluster
            .get_sys_param(SysParam::CpuLoad1)
            .expect("component parameter");
        for n in batch {
            n.free().expect("allocated node frees");
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    cluster.free().expect("cluster frees");
    (wall, decisions)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 40 } else { 2000 };
    // Ops per iteration: 8 allocations + 8 frees + 1 component query.
    let ops = iters * (2 * ALLOCS_PER_ITER + 1);

    let clock = SimClock::new(TimeScale::new(1e9));
    let slow = VdaRegistry::new(build_pool(&clock));
    let fast = VdaRegistry::new(build_pool(&clock));
    fast.set_plane_config(PlaneConfig {
        enabled: true,
        ttl: 60.0,
        ..PlaneConfig::default()
    });

    let (slow_wall, slow_decisions) = run(&slow, iters);
    let (fast_wall, fast_decisions) = run(&fast, iters);
    let identical = slow_decisions == fast_decisions;
    assert!(
        identical,
        "fast path diverged from slow path: {} vs {} decisions",
        fast_decisions.len(),
        slow_decisions.len()
    );

    let stats = fast.plane_stats();
    println!(
        "{MACHINES} machines, {iters} iters x ({ALLOCS_PER_ITER} allocs + 1 query): \
         slow {slow_wall:.3}s, fast {fast_wall:.3}s, speedup {:.1}x",
        slow_wall / fast_wall
    );
    println!(
        "plane: {} cache hits, {} misses, heap {} free machines",
        stats.hits, stats.misses, stats.heap
    );
    println!(
        "identical decisions: {identical} ({} placements)",
        slow_decisions.len()
    );

    let rows = vec![
        Row {
            scenario: "slow: recompute per query".into(),
            nodes: MACHINES,
            iters,
            wall_seconds: slow_wall,
            micros_per_op: slow_wall * 1e6 / ops as f64,
            speedup_vs_slow: 1.0,
            identical_decisions: identical,
        },
        Row {
            scenario: "fast: aggregation plane".into(),
            nodes: MACHINES,
            iters,
            wall_seconds: fast_wall,
            micros_per_op: fast_wall * 1e6 / ops as f64,
            speedup_vs_slow: slow_wall / fast_wall,
            identical_decisions: identical,
        },
    ];
    let path = write_json("ablate_placement", &rows).expect("write results");
    println!("wrote {}", path.display());
}
