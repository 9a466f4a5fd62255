//! A node owns no thread: booting 64 machines starts exactly as many OS
//! threads as booting 4 (the executor's workers and timer, the delivery
//! plane's none, the deployment's supervisors). Alone in its test binary, so
//! no other test's threads are counted.
#![cfg(target_os = "linux")]

use jsym_core::{JsShell, MachineConfig};

/// Threads of this process, executor spares aside (a spare stands in for a
/// blocked worker for as long as it is blocked; it is not a per-node thread).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| !name.starts_with("jsym-exec-s"))
        .count()
}

fn threads_while_booted(machines: usize) -> usize {
    let d = JsShell::new()
        .add_machines((0..machines).map(|i| MachineConfig::idle(&format!("m{i}"), 50.0)))
        .boot();
    let n = threads();
    d.shutdown();
    n
}

#[test]
fn a_64_machine_boot_starts_no_more_threads_than_a_4_machine_one() {
    let idle = threads();
    let four = threads_while_booted(4);
    assert_eq!(threads(), idle, "shutdown joins what boot started");
    let sixty_four = threads_while_booted(64);
    assert!(four > idle, "the executor's workers are threads");
    assert_eq!(sixty_four, four);
}
