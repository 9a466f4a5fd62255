//! Workspace test guarding the *shape* claims of the experiments: the
//! Figure 5 reproduction (the acceptance criteria in DESIGN.md §4, on a
//! reduced sweep so the test stays in CI budget; the full sweep lives in
//! `jsym-bench --bin fig5`) and E3's memory claim (`--bin ablate_codebase`).

use jsym_cluster::catalog::{testbed_machines, LoadKind};
use jsym_cluster::fig5::run_cell;
use jsym_core::JsShell;

const SCALE: f64 = 2e-2;
const SEED: u64 = 11;
const N: usize = 600;

#[test]
fn night_parallel_beats_sequential_and_thirteen_nodes_regress() {
    // One representative N; nodes 1, 2, 6 and 13.
    let t1 = run_cell(N, 1, LoadKind::Night, SCALE, SEED, false);
    let t2 = run_cell(N, 2, LoadKind::Night, SCALE, SEED, false);
    let t6 = run_cell(N, 6, LoadKind::Night, SCALE, SEED, false);
    let t13 = run_cell(N, 13, LoadKind::Night, SCALE, SEED, false);

    // Scaling improves through 6 nodes...
    assert!(t2 < t1, "2 nodes ({t2:.1}s) should beat 1 ({t1:.1}s)");
    assert!(t6 < t2, "6 nodes ({t6:.1}s) should beat 2 ({t2:.1}s)");
    // ...with meaningful speed-up at 6 (the paper: "almost linear"),
    let speedup6 = t1 / t6;
    assert!(
        speedup6 > 2.5,
        "6-node night speed-up only {speedup6:.2} (t1 {t1:.1}s, t6 {t6:.1}s)"
    );
    // ...and using all 13 machines is *worse* than 6 (paper: "using more
    // than 10 nodes increases the execution time").
    assert!(
        t13 > t6,
        "13 nodes ({t13:.1}s) should be slower than 6 ({t6:.1}s)"
    );
}

#[test]
fn day_is_slower_than_night() {
    let night = run_cell(N, 4, LoadKind::Night, SCALE, SEED, false);
    let day = run_cell(N, 4, LoadKind::Day, SCALE, SEED, false);
    assert!(
        day > night * 1.1,
        "day ({day:.1}s) should be clearly slower than night ({night:.1}s)"
    );
}

#[test]
fn sequential_baseline_tracks_problem_size_cubically() {
    let t400 = run_cell(400, 1, LoadKind::Dedicated, SCALE, SEED, false);
    let t800 = run_cell(800, 1, LoadKind::Dedicated, SCALE, SEED, false);
    let ratio = t800 / t400;
    assert!(
        (6.0..10.5).contains(&ratio),
        "2x problem size should be ~8x the work, got {ratio:.1}x"
    );
}

/// E3 (paper §4.3, "can reduce the overall memory requirement of an
/// application"): bytes resident on the 13-machine testbed after loading 16
/// artifacts of 250 kB everywhere, or each on the two machines that use it.
/// Resident bytes are exact; load time and shipped bytes carry NA traffic
/// and are not asserted.
fn resident_bytes_after_loading(selective: bool) -> u64 {
    const ARTIFACTS: usize = 16;
    const ARTIFACT_BYTES: usize = 250_000;
    let d = JsShell::new()
        .time_scale(1e-4)
        .add_machines(testbed_machines(13, LoadKind::Dedicated, 0))
        .boot();
    let reg = d.register_app().unwrap();
    let machines = d.machines();
    if selective {
        for k in 0..ARTIFACTS {
            let cb = reg.codebase();
            cb.add(&format!("classes-{k}.jar"), ARTIFACT_BYTES);
            cb.load_phys(machines[k % machines.len()]).unwrap();
            cb.load_phys(machines[(k + 1) % machines.len()]).unwrap();
        }
    } else {
        let cb = reg.codebase();
        for k in 0..ARTIFACTS {
            cb.add(&format!("classes-{k}.jar"), ARTIFACT_BYTES);
        }
        for &m in &machines {
            cb.load_phys(m).unwrap();
        }
    }
    let resident = machines
        .iter()
        .map(|&m| d.pool().machine(m).unwrap().runtime_bytes())
        .sum();
    d.shutdown();
    resident
}

#[test]
fn selective_classloading_keeps_two_copies_per_artifact_not_thirteen() {
    assert_eq!(resident_bytes_after_loading(false), 13 * 16 * 250_000);
    assert_eq!(resident_bytes_after_loading(true), 2 * 16 * 250_000);
}
