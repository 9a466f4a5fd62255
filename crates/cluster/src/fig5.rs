//! The Figure 5 experiment driver: JavaSymphony matrix multiplication
//! performance for different problem sizes, node counts and system loads.

use crate::catalog::{aggregate_mflops, testbed_machines, LoadKind, TESTBED};
use crate::matmul::{
    register_matmul_classes, run_collective, run_master_slave, run_sequential, MatmulConfig,
};
use jsym_core::JsShell;
use serde::{Deserialize, Serialize};

/// Which multiplication kernel a sweep cell runs (one-node cells are always
/// the sequential no-JavaSymphony baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig5Kernel {
    /// The paper's polling master/slave task farm (Figure 6).
    MasterSlave,
    /// The `DistCol` collective kernel: weighted static row chunks, one
    /// teamed `multiply` fan-out, no polling loop.
    Collective,
}

impl Fig5Kernel {
    /// Label used in result rows and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Fig5Kernel::MasterSlave => "master_slave",
            Fig5Kernel::Collective => "collective",
        }
    }
}

/// Sweep configuration for the Figure 5 reproduction.
#[derive(Clone, Debug)]
pub struct Fig5Config {
    /// Matrix sizes N (the paper plots several).
    pub sizes: Vec<usize>,
    /// Node counts (1 = sequential baseline without JavaSymphony).
    pub node_counts: Vec<usize>,
    /// Load regimes (the paper: day and night).
    pub loads: Vec<LoadKind>,
    /// Real seconds per virtual second for the simulation.
    pub time_scale: f64,
    /// Base seed for the load streams.
    pub seed: u64,
    /// Whether slaves compute actual values (slower; for tests).
    pub verify: bool,
    /// The multiplication kernel for multi-node cells.
    pub kernel: Fig5Kernel,
    /// Whether the deployment coalesces same-destination RMI traffic
    /// (`JsShell::rmi_batching` with default window/size).
    pub batching: bool,
    /// Executor worker threads (`JsShell::executor`); 0 = the default size.
    pub executor: usize,
}

impl Fig5Config {
    /// The full paper-scale sweep: N ∈ {200,400,600,800,1000},
    /// nodes ∈ 1..=13, day and night, master/slave kernel.
    pub fn paper() -> Self {
        Fig5Config {
            sizes: vec![200, 400, 600, 800, 1000],
            node_counts: (1..=13).collect(),
            loads: vec![LoadKind::Night, LoadKind::Day],
            time_scale: 5e-2,
            seed: 20001204, // the CLUSTER 2000 conference date
            verify: false,
            kernel: Fig5Kernel::MasterSlave,
            batching: false,
            executor: 0,
        }
    }

    /// The collective-kernel sweep: the paper sizes plus N = 2000 (which the
    /// task farm's per-task round trips made impractically slow), RMI
    /// batching on.
    pub fn paper_collective() -> Self {
        let mut cfg = Fig5Config::paper();
        cfg.sizes.push(2000);
        cfg.kernel = Fig5Kernel::Collective;
        cfg.batching = true;
        cfg
    }

    /// Real seconds per virtual second for one problem size: the base
    /// [`time_scale`](Fig5Config::time_scale) stretched for small N and
    /// compressed for the largest.
    ///
    /// Virtual results are scale-invariant in the cost model; the scale only
    /// sets how much real wall time buys one virtual second, i.e. how much
    /// of the host's real scheduling noise bleeds into a measurement
    /// (bleed ≈ real overhead ÷ scale). Small-N cells last a fraction of a
    /// virtual second, so they can afford a much larger scale for precision
    /// at negligible wall cost, while N=2000 cells run hundreds of virtual
    /// seconds dominated by modeled compute and tolerate a smaller one.
    pub fn scale_for(&self, n: usize) -> f64 {
        self.time_scale * (1500.0 / n.max(1) as f64).clamp(0.5, 8.0)
    }

    /// A laptop-second smoke sweep used by the integration tests.
    pub fn smoke() -> Self {
        Fig5Config {
            sizes: vec![400],
            node_counts: vec![1, 2, 4, 6, 13],
            loads: vec![LoadKind::Night],
            time_scale: 2e-2,
            seed: 7,
            verify: false,
            kernel: Fig5Kernel::MasterSlave,
            batching: false,
            executor: 0,
        }
    }
}

/// One measured point of Figure 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Matrix dimension N.
    pub n: usize,
    /// Number of nodes used (1 = sequential, no JavaSymphony).
    pub nodes: usize,
    /// Load regime label ("day"/"night"/"dedicated").
    pub load: String,
    /// Measured execution time in (virtual) seconds.
    pub seconds: f64,
    /// Speed-up relative to the same-load one-node baseline.
    pub speedup: f64,
    /// Parallel efficiency against the heterogeneous ideal: ideal time =
    /// 2N³ / (aggregate speed of the allocated machines).
    pub efficiency: f64,
    /// RMI-layer messages sent during the run (0 for sequential).
    pub messages: u64,
    /// Kernel label ("master_slave"/"collective"; "sequential" for one-node
    /// cells).
    pub kernel: String,
}

/// One cell's measurements plus the deployment's metrics.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Measured execution time in virtual seconds.
    pub seconds: f64,
    /// RMI-layer messages sent (0 for the sequential baseline).
    pub messages: u64,
    /// The cell's deployment-wide metrics at the end of the run (per-node
    /// message counters, per-RMI-mode call counts and caller-latency
    /// histograms, per-link byte/latency histograms); the harness folds them
    /// into one summary row per cell.
    pub metrics: jsym_core::obs::MetricsSnapshot,
}

/// Runs one cell of the sweep: builds a fresh deployment of the first
/// `nodes` testbed machines under `load` and measures the multiplication.
pub fn run_cell(
    n: usize,
    nodes: usize,
    load: LoadKind,
    time_scale: f64,
    seed: u64,
    verify: bool,
) -> f64 {
    run_cell_with_messages(n, nodes, load, time_scale, seed, verify).0
}

/// As [`run_cell`], also returning the number of messages sent.
pub fn run_cell_with_messages(
    n: usize,
    nodes: usize,
    load: LoadKind,
    time_scale: f64,
    seed: u64,
    verify: bool,
) -> (f64, u64) {
    let run = run_cell_full(n, nodes, load, time_scale, seed, verify);
    (run.seconds, run.messages)
}

/// As [`run_cell_with_messages`], also capturing the deployment's metrics.
/// Runs the historical master/slave kernel without batching; see
/// [`run_cell_opts`] for kernel and batching control.
pub fn run_cell_full(
    n: usize,
    nodes: usize,
    load: LoadKind,
    time_scale: f64,
    seed: u64,
    verify: bool,
) -> CellRun {
    run_cell_opts(
        n,
        nodes,
        load,
        time_scale,
        seed,
        verify,
        Fig5Kernel::MasterSlave,
        false,
        0,
    )
}

/// Runs one sweep cell with an explicit kernel, RMI-batching setting and
/// executor size (`executor` worker threads; 0 = the default size).
#[allow(clippy::too_many_arguments)]
pub fn run_cell_opts(
    n: usize,
    nodes: usize,
    load: LoadKind,
    time_scale: f64,
    seed: u64,
    verify: bool,
    kernel: Fig5Kernel,
    batching: bool,
    executor: usize,
) -> CellRun {
    assert!((1..=TESTBED.len()).contains(&nodes));
    let mut shell = JsShell::new()
        .time_scale(time_scale)
        .monitor_period(5.0)
        .failure_timeout(1e9)
        .add_machines(testbed_machines(nodes, load, seed));
    if batching {
        let bc = jsym_net::BatchConfig::default();
        shell = shell.rmi_batching(bc.flush_window, bc.max_bytes);
    }
    let deployment = shell.executor(executor).boot();
    register_matmul_classes(&deployment);

    let (seconds, messages) = if nodes == 1 {
        // One-node points: sequential multiplication without JavaSymphony.
        let machine = deployment
            .pool()
            .machine(deployment.machines()[0])
            .expect("machine exists");
        (run_sequential(&machine, n), 0)
    } else {
        let cluster = deployment
            .vda()
            .request_cluster(nodes, None)
            .expect("testbed has enough machines");
        let mut cfg = MatmulConfig::new(n);
        cfg.verify = verify;
        // Small problems are latency-bound: one chunk per node halves the
        // fan-out round trips; larger ones keep two so same-destination
        // requests stay in flight for the coalescing stage and imbalance
        // from load drift stays amortised.
        if n <= 400 {
            cfg.chunks_per_node = 1;
        }
        let report = match kernel {
            Fig5Kernel::MasterSlave => run_master_slave(&deployment, &cluster, &cfg),
            Fig5Kernel::Collective => run_collective(&deployment, &cluster, &cfg),
        }
        .expect("matmul run");
        if verify {
            assert_eq!(report.correct, Some(true), "distributed product wrong");
        }
        (report.virt_seconds, report.messages)
    };
    let metrics = deployment.obs().metrics().snapshot();
    deployment.shutdown();
    CellRun {
        seconds,
        messages,
        metrics,
    }
}

/// Runs the full sweep, printing one row per cell to `out` as it completes
/// (the harness binary passes stdout) and returning every row.
pub fn run_fig5(cfg: &Fig5Config, mut progress: impl FnMut(&Fig5Row)) -> Vec<Fig5Row> {
    run_fig5_instrumented(cfg, |row, _metrics| progress(row))
}

/// As [`run_fig5`], additionally handing each cell's metrics to the callback
/// so the harness can write an observability summary next to the result rows.
pub fn run_fig5_instrumented(
    cfg: &Fig5Config,
    mut progress: impl FnMut(&Fig5Row, &jsym_core::obs::MetricsSnapshot),
) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for &load in &cfg.loads {
        for &n in &cfg.sizes {
            let mut baseline = None;
            for &nodes in &cfg.node_counts {
                let run = run_cell_opts(
                    n,
                    nodes,
                    load,
                    cfg.scale_for(n),
                    cfg.seed,
                    cfg.verify,
                    cfg.kernel,
                    cfg.batching,
                    cfg.executor,
                );
                if nodes == 1 {
                    baseline = Some(run.seconds);
                }
                let base = baseline.unwrap_or(run.seconds);
                let ideal = 2.0 * (n as f64).powi(3) / (aggregate_mflops(nodes) * 1e6);
                let row = Fig5Row {
                    n,
                    nodes,
                    load: load.label().to_owned(),
                    seconds: run.seconds,
                    speedup: base / run.seconds,
                    efficiency: ideal / run.seconds,
                    messages: run.messages,
                    kernel: if nodes == 1 {
                        "sequential".to_owned()
                    } else {
                        cfg.kernel.label().to_owned()
                    },
                };
                progress(&row, &run.metrics);
                rows.push(row);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_covers_the_figure() {
        let cfg = Fig5Config::paper();
        assert_eq!(cfg.sizes.len(), 5);
        assert_eq!(cfg.node_counts, (1..=13).collect::<Vec<_>>());
        assert_eq!(cfg.loads.len(), 2);
        assert_eq!(cfg.kernel, Fig5Kernel::MasterSlave);
        assert!(!cfg.batching);
    }

    #[test]
    fn collective_config_adds_n2000_and_batching() {
        let cfg = Fig5Config::paper_collective();
        assert!(cfg.sizes.contains(&2000));
        assert_eq!(cfg.kernel, Fig5Kernel::Collective);
        assert!(cfg.batching);
        assert_eq!(Fig5Kernel::Collective.label(), "collective");
    }

    #[test]
    fn collective_cell_verifies_the_product_under_batching() {
        // verify=true makes run_cell_opts assert the sampled product inside.
        let run = run_cell_opts(
            120,
            3,
            LoadKind::Dedicated,
            1e-1,
            0,
            true,
            Fig5Kernel::Collective,
            true,
            0,
        );
        assert!(run.messages > 0);
        assert!(run.seconds > 0.0);
    }

    #[test]
    fn sequential_cell_matches_machine_speed() {
        // N=200 on the 30 Mflop/s dedicated Ultra: 16 Mflop / 30 Mflop/s
        // ≈ 0.53 virtual s. Scale 1e-1 (53 ms real) keeps OS sleep overshoot
        // small even when the whole workspace's tests oversubscribe a
        // single-core host.
        let secs = run_cell(200, 1, LoadKind::Dedicated, 1e-1, 0, false);
        assert!(
            (0.45..0.9).contains(&secs),
            "sequential N=200 took {secs} virtual s, expected ≈0.53"
        );
    }

    #[test]
    fn two_dedicated_nodes_beat_one() {
        // Time scale large enough that real thread-hop overhead (~1 ms per
        // RMI round trip on a single-core host) stays well below the modeled
        // per-task compute time.
        let one = run_cell(400, 1, LoadKind::Dedicated, 1e-1, 0, false);
        let two = run_cell(400, 2, LoadKind::Dedicated, 1e-1, 0, false);
        assert!(
            two < one,
            "2 equal nodes should beat sequential: 1={one:.2}s 2={two:.2}s"
        );
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    /// Exercises the sweep driver itself (progress callback, baselines,
    /// derived columns) on a two-cell configuration.
    #[test]
    fn run_fig5_produces_consistent_rows() {
        let cfg = Fig5Config {
            sizes: vec![200],
            node_counts: vec![1, 2],
            loads: vec![LoadKind::Dedicated],
            time_scale: 1e-2,
            seed: 1,
            verify: false,
            kernel: Fig5Kernel::MasterSlave,
            batching: false,
            executor: 0,
        };
        let mut seen = 0;
        let rows = run_fig5(&cfg, |_| seen += 1);
        assert_eq!(seen, 2);
        assert_eq!(rows.len(), 2);
        let base = &rows[0];
        assert_eq!(base.nodes, 1);
        assert_eq!(base.speedup, 1.0);
        assert_eq!(base.messages, 0, "sequential run uses no RMI");
        let two = &rows[1];
        assert_eq!(two.nodes, 2);
        assert!(two.messages > 0);
        assert!((two.speedup - base.seconds / two.seconds).abs() < 1e-9);
        assert!(two.efficiency > 0.0 && two.efficiency <= 1.05);
    }

    /// The instrumented driver exports a metrics-only observability artifact
    /// for every cell: per-node message counters and per-RMI-mode call data,
    /// with spans stripped.
    #[test]
    fn instrumented_cells_export_metrics() {
        let run = run_cell_full(200, 2, LoadKind::Dedicated, 1e-2, 1, false);
        assert!(run.messages > 0);
        assert!(
            run.metrics.counter_total("rmi.calls") > 0,
            "no RMI counters"
        );
        assert!(
            run.metrics.counter_total("msg.sent") > 0,
            "no per-node counters"
        );
        assert!(
            run.metrics
                .histograms
                .keys()
                .any(|k| k.name == "rmi.caller_seconds"),
            "no caller-latency histograms"
        );
    }
}
