//! The paper's evaluation workload: master/slave matrix multiplication
//! (§6, Figure 6), plus the sequential baseline used for one-node points and
//! a `DistCol`-based collective variant of the same multiplication.

use jsym_col::{partition_weighted, DistCol};
use jsym_core::{encode_state, Deployment, InvokeCtx, JsClass, JsError, JsObj, Placement, Value};
use jsym_sysmon::SimMachine;
use jsym_vda::Cluster;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The artifact carrying the `Matrix` class ("../matrix-test/classes.jar"
/// in Figure 6); ~300 KB of byte-code.
pub const MATRIX_ARTIFACT: &str = "matrix-classes.jar";
/// Size of [`MATRIX_ARTIFACT`].
pub const MATRIX_ARTIFACT_BYTES: usize = 300_000;

/// The slave-side `Matrix` class: holds the replicated B matrix and
/// multiplies row-blocks of A against it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Matrix {
    dim_a2: usize,
    dim_b2: usize,
    b: Vec<f32>,
    /// When false, the arithmetic is skipped (cost is still modeled) — used
    /// by large benchmark runs where the numeric result is not checked.
    verify: bool,
}

jsym_core::impl_state!(Matrix {
    dim_a2,
    dim_b2,
    b,
    verify
});

impl Matrix {
    /// Builds an empty Matrix slave (B arrives via `init`).
    pub fn from_args(_args: &[Value]) -> Self {
        Matrix {
            dim_a2: 0,
            dim_b2: 0,
            b: Vec::new(),
            verify: true,
        }
    }
}

impl JsClass for Matrix {
    fn class_name(&self) -> &str {
        "Matrix"
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        ctx: &mut InvokeCtx<'_>,
    ) -> jsym_core::Result<Value> {
        match method {
            // init(dimA2, dimB2, B, verify) — replicate B on this node
            // (paper: one-sided invocation of method init).
            "init" => {
                let dim_a2 = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
                let dim_b2 = args.get(1).and_then(Value::as_i64).unwrap_or(0) as usize;
                let b = args
                    .get(2)
                    .and_then(Value::as_floats)
                    .ok_or_else(|| JsError::BadArguments("init(.., B: floats)".into()))?;
                if b.len() != dim_a2 * dim_b2 {
                    return Err(JsError::BadArguments(format!(
                        "B has {} elements, expected {}",
                        b.len(),
                        dim_a2 * dim_b2
                    )));
                }
                self.dim_a2 = dim_a2;
                self.dim_b2 = dim_b2;
                self.b = b.as_ref().clone();
                self.verify = args.get(3).and_then(Value::as_bool).unwrap_or(true);
                Ok(Value::Null)
            }
            // multiply(first_row, rowsA) → [first_row, C-block]
            "multiply" => {
                let first_row = args
                    .first()
                    .and_then(Value::as_i64)
                    .ok_or_else(|| JsError::BadArguments("multiply(first_row, rows)".into()))?;
                let rows_a = args
                    .get(1)
                    .and_then(Value::as_floats)
                    .ok_or_else(|| JsError::BadArguments("multiply(first_row, rows)".into()))?;
                if self.dim_a2 == 0 {
                    return Err(JsError::MethodFailed("init was never called".into()));
                }
                let n_rows = rows_a.len() / self.dim_a2;
                // The modeled cost: 2·rows·K·M flops of Java arithmetic.
                let flops = 2.0 * n_rows as f64 * self.dim_a2 as f64 * self.dim_b2 as f64;
                ctx.compute(flops);
                let mut block = vec![0.0f32; n_rows * self.dim_b2];
                if self.verify {
                    for r in 0..n_rows {
                        let a_row = &rows_a[r * self.dim_a2..(r + 1) * self.dim_a2];
                        let c_row = &mut block[r * self.dim_b2..(r + 1) * self.dim_b2];
                        for (k, &a) in a_row.iter().enumerate() {
                            let b_row = &self.b[k * self.dim_b2..(k + 1) * self.dim_b2];
                            for (c, &b) in c_row.iter_mut().zip(b_row) {
                                *c += a * b;
                            }
                        }
                    }
                }
                Ok(Value::List(vec![
                    Value::I64(first_row),
                    Value::F32Vec(Arc::new(block)),
                ]))
            }
            // Setup barrier: confirms a previously issued one-sided init
            // has been applied (per-object FIFO makes this a happens-after).
            "ready" => Ok(Value::Bool(self.dim_a2 > 0)),
            _ => Err(JsError::NoSuchMethod {
                class: "Matrix".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        encode_state(self)
    }
}

/// Registers the `Matrix` class (carried by [`MATRIX_ARTIFACT`]).
pub fn register_matmul_classes(deployment: &Deployment) {
    deployment
        .classes()
        .register_class::<Matrix, _>("Matrix", Some(MATRIX_ARTIFACT), |args| {
            Ok(Matrix::from_args(args))
        });
}

/// Parameters of one master/slave run.
#[derive(Clone, Debug)]
pub struct MatmulConfig {
    /// Matrix dimension (N×N · N×N).
    pub n: usize,
    /// Rows of A per task; fixed for the whole run (paper: "The number of
    /// rows does not change during execution of the application").
    pub rows_per_task: usize,
    /// Whether slaves actually compute values (tests) or only model the
    /// cost (large benchmark sweeps).
    pub verify: bool,
    /// Master poll interval in virtual seconds (the paper's WHILE loop).
    pub poll_interval: f64,
    /// Chunks per node for [`run_collective`]. Two keeps same-destination
    /// requests in flight for the batching stage; one minimises per-call
    /// latency when the fan-out itself dominates (small N).
    pub chunks_per_node: usize,
}

impl MatmulConfig {
    /// A configuration with the experiment defaults: ~26 tasks, verification
    /// on, 10 ms poll (the paper's master polls in a tight loop; a small
    /// virtual pause keeps the simulated master from monopolising its CPU).
    pub fn new(n: usize) -> Self {
        MatmulConfig {
            n,
            rows_per_task: n.div_ceil(26).max(1),
            verify: true,
            poll_interval: 0.01,
            chunks_per_node: COLLECTIVE_CHUNKS_PER_NODE,
        }
    }

    /// Disables numeric verification (cost-model-only slaves).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }
}

/// Outcome of one master/slave run.
#[derive(Clone, Debug)]
pub struct MatmulReport {
    /// Virtual seconds of the multiplication itself: task farming from the
    /// first task issued through the last merged result. This is the
    /// quantity Figure 5 plots; setup is reported separately.
    pub virt_seconds: f64,
    /// Virtual seconds of setup: codebase distribution, object creation and
    /// the replication of matrix B.
    pub setup_seconds: f64,
    /// Number of tasks farmed out.
    pub tasks: usize,
    /// Number of slave nodes.
    pub nodes: usize,
    /// `Some(true)` when verification ran and every sampled element of C
    /// matched the direct product.
    pub correct: Option<bool>,
    /// RMI-layer messages sent during the run (network-wide delta).
    pub messages: u64,
}

/// Deterministic test matrices: small integers so f32 products are exact.
fn a_elem(i: usize, j: usize) -> f32 {
    ((i * 31 + j * 7) % 13) as f32 - 6.0
}
fn b_elem(i: usize, j: usize) -> f32 {
    ((i * 17 + j * 3) % 11) as f32 - 5.0
}

/// The master/slave matrix multiplication of Figure 6, transcribed onto the
/// Rust API. Registers an application, loads the codebase onto the cluster,
/// replicates B with one-sided invocations, farms out row-block tasks with
/// asynchronous invocations, merges results as they become ready, and
/// unregisters.
pub fn run_master_slave(
    deployment: &Deployment,
    cluster: &Cluster,
    cfg: &MatmulConfig,
) -> jsym_core::Result<MatmulReport> {
    let n = cfg.n;
    let clock = deployment.clock().clone();
    let msgs_before = deployment.net_stats().msgs_sent;

    // register JavaSymphony application
    let reg = deployment.register_app()?;

    let t_setup = clock.now();

    // define codebase and load on cluster c1
    let cb = reg.codebase();
    cb.add(MATRIX_ARTIFACT, MATRIX_ARTIFACT_BYTES);
    cb.load_cluster(cluster).inspect_err(|_e| {
        let _ = reg.unregister();
    })?;

    // allocate and initialize matrices A, B (C is assembled from results)
    let a: Arc<Vec<f32>> = Arc::new((0..n * n).map(|idx| a_elem(idx / n, idx % n)).collect());
    let b: Arc<Vec<f32>> = Arc::new((0..n * n).map(|idx| b_elem(idx / n, idx % n)).collect());
    let mut c = vec![0.0f32; n * n];

    let nr_nodes = cluster.nr_nodes();
    // One Matrix object per cluster node; copy matrix B to all cluster
    // nodes via one-sided invocation of init.
    let mut slaves: Vec<JsObj> = Vec::with_capacity(nr_nodes);
    for i in 0..nr_nodes {
        let node = cluster.get_node(i)?;
        let slave = JsObj::create(&reg, "Matrix", &[], Placement::OnNode(&node), None)?;
        slave.oinvoke(
            "init",
            &[
                Value::I64(n as i64),
                Value::I64(n as i64),
                Value::F32Vec(Arc::clone(&b)),
                Value::Bool(cfg.verify),
            ],
        )?;
        slaves.push(slave);
    }

    // Wait until every replica of B has been applied (one-sided init gives
    // no completion, but per-object FIFO means a synchronous `ready` call
    // returning true happens after it).
    for slave in &slaves {
        let ok = slave.sinvoke("ready", &[])?;
        if ok != Value::Bool(true) {
            return Err(JsError::MethodFailed("init not applied".into()));
        }
    }
    let t_start = clock.now();
    let setup_seconds = t_start - t_setup;

    // determine nr of tasks to be processed by cluster nodes
    let rows_per_task = cfg.rows_per_task.max(1);
    let nr_tasks = n.div_ceil(rows_per_task);
    let mut next_task = 0usize;
    // nodeBusy[i] = Some(task) while node i executes task
    let mut node_busy: Vec<Option<usize>> = vec![None; nr_nodes];
    let mut handles: Vec<Option<jsym_core::ResultHandle>> = (0..nr_nodes).map(|_| None).collect();
    let mut merged = 0usize;

    let merge = |result: Value, c: &mut [f32]| merge_block(result, c, n);

    // distribute tasks (sets of rows of matrix A) to nodes of cluster
    while merged < nr_tasks {
        let mut progressed = false;
        for i in 0..nr_nodes {
            // node is executing task: is the result available?
            if node_busy[i].is_some() {
                let ready = handles[i].as_ref().is_some_and(|h| h.is_ready());
                if ready {
                    let h = handles[i].take().expect("handle present");
                    merge(h.get_result()?, &mut c)?; // merge result in matrix C
                    node_busy[i] = None; // node is free again
                    merged += 1;
                    progressed = true;
                }
            }
            // node is free to work on next task
            if node_busy[i].is_none() && next_task < nr_tasks {
                let first_row = next_task * rows_per_task;
                let rows = rows_per_task.min(n - first_row);
                let task_rows: Arc<Vec<f32>> =
                    Arc::new(a[first_row * n..(first_row + rows) * n].to_vec());
                let h = slaves[i].ainvoke(
                    "multiply",
                    &[Value::I64(first_row as i64), Value::F32Vec(task_rows)],
                )?;
                handles[i] = Some(h);
                node_busy[i] = Some(next_task);
                next_task += 1;
                progressed = true;
            }
        }
        if !progressed {
            clock.sleep(cfg.poll_interval);
        }
    }

    let virt_seconds = clock.now() - t_start;

    // ... do something with the result: verify a sample against the direct
    // product when requested.
    let correct = if cfg.verify {
        Some(verify_sample(&a, &b, &c, n))
    } else {
        None
    };

    for s in &slaves {
        let _ = s.free();
    }
    // unregister JavaSymphony application
    reg.unregister()?;

    Ok(MatmulReport {
        virt_seconds,
        setup_seconds,
        tasks: nr_tasks,
        nodes: nr_nodes,
        correct,
        messages: deployment.net_stats().msgs_sent - msgs_before,
    })
}

/// Merges one `multiply` result (`[first_row, C-block]`) into C.
fn merge_block(result: Value, c: &mut [f32], n: usize) -> jsym_core::Result<()> {
    let list = result
        .as_list()
        .ok_or_else(|| JsError::MethodFailed("bad multiply result".into()))?;
    let first_row = list[0].as_i64().unwrap_or(0) as usize;
    let block = list[1]
        .as_floats()
        .ok_or_else(|| JsError::MethodFailed("bad multiply block".into()))?;
    let rows = block.len() / n;
    c[first_row * n..(first_row + rows) * n].copy_from_slice(block);
    Ok(())
}

/// Chunks per node used by [`run_collective`]: splitting each node's row
/// share in two keeps more than one same-destination request in flight per
/// round, which is what the RMI batching stage coalesces.
pub const COLLECTIVE_CHUNKS_PER_NODE: usize = 2;

/// The same multiplication expressed on a [`DistCol`]: rows of A are
/// partitioned statically across the cluster proportionally to the speed
/// each node can actually deliver — peak Mflop/s discounted by the
/// background load the sysmon reports, and, on the master, by the
/// serialization workload of the fan-out itself (the paper's task farm
/// reaches a similar steady-state split dynamically). The whole
/// multiplication is one teamed `multiply` fan-out — no polling loop,
/// every request in flight at once, so same-destination traffic coalesces
/// when `JsShell::rmi_batching` is on.
///
/// Setup (codebase distribution, chunk creation, replication of B into
/// every chunk object) is reported separately, exactly as in
/// [`run_master_slave`].
pub fn run_collective(
    deployment: &Deployment,
    cluster: &Cluster,
    cfg: &MatmulConfig,
) -> jsym_core::Result<MatmulReport> {
    let n = cfg.n;
    let clock = deployment.clock().clone();
    let msgs_before = deployment.net_stats().msgs_sent;

    let reg = deployment.register_app()?;
    let t_setup = clock.now();

    let cb = reg.codebase();
    cb.add(MATRIX_ARTIFACT, MATRIX_ARTIFACT_BYTES);
    cb.load_cluster(cluster).inspect_err(|_e| {
        let _ = reg.unregister();
    })?;

    let a: Arc<Vec<f32>> = Arc::new((0..n * n).map(|idx| a_elem(idx / n, idx % n)).collect());
    let b: Arc<Vec<f32>> = Arc::new((0..n * n).map(|idx| b_elem(idx / n, idx % n)).collect());
    let mut c = vec![0.0f32; n * n];

    // Static weighted partition: rows proportional to the Mflop/s each node
    // can actually deliver — peak speed discounted by the background load the
    // sysmon has observed recently. On a dedicated (night) testbed this is
    // within noise of a plain peak split; under office-hours load it keeps a
    // busy workstation from gating the whole fan-out.
    let nr_nodes = cluster.nr_nodes();
    let now = clock.now();
    let mut weights = Vec::with_capacity(nr_nodes);
    for i in 0..nr_nodes {
        let phys = cluster.get_node(i)?.phys();
        let mflops = deployment
            .pool()
            .machine(phys)
            .map(|m| {
                // Current sample plus two short lags: tracks the load the
                // multiply is about to run under without chasing jitter.
                let busy: f64 = [0.0, 5.0, 10.0]
                    .iter()
                    .map(|lag| m.user_cpu((now - lag).max(0.0)))
                    .sum::<f64>()
                    / 3.0;
                m.spec().peak_mflops * (1.0 - busy).max(0.03)
            })
            .unwrap_or(1.0);
        weights.push((phys, mflops));
    }

    // The master's CPU also marshals every chunk's arguments and unmarshals
    // every result — (marshal + unmarshal) flops per byte over the ~4N²
    // bytes of A fanned out and the ~4N² bytes of C gathered back. Charge
    // that serialization workload against the master's weight so the
    // partition doesn't overcommit the one CPU the whole fan-out funnels
    // through; for small N it can push the master's share to zero rows,
    // while for large N it fades (serialization is O(N) per row, compute
    // O(N²)).
    let master = reg.local_phys();
    let total_eff: f64 = weights.iter().map(|&(_, w)| w).sum();
    if total_eff > 0.0 {
        let cost = deployment.cost_model();
        let wire_bytes = 4.0 * (n * n) as f64;
        let marshal_flops =
            (cost.marshal_flops_per_byte + cost.unmarshal_flops_per_byte) * wire_bytes;
        // Estimated multiply duration if compute were the only work, in
        // seconds; weights are in Mflop/s.
        let t_est = 2.0 * (n as f64).powi(3) / (total_eff * 1e6);
        let discount_mflops = marshal_flops / t_est / 1e6;
        if let Some(w) = weights.iter_mut().find(|(phys, _)| *phys == master) {
            w.1 = (w.1 - discount_mflops).max(0.0);
        }
    }
    let specs = partition_weighted(n, &weights, cfg.chunks_per_node.max(1));
    let dist = DistCol::<f32>::create(&reg, "Matrix", &specs)?;

    // Replicate B into every chunk object via one-sided init, then barrier
    // on `ready` (per-object FIFO makes the sync call a happens-after).
    let init_args = [
        Value::I64(n as i64),
        Value::I64(n as i64),
        Value::F32Vec(Arc::clone(&b)),
        Value::Bool(cfg.verify),
    ];
    for i in 0..dist.chunk_count() {
        dist.chunk_obj(i).oinvoke("init", &init_args)?;
    }
    for i in 0..dist.chunk_count() {
        if dist.chunk_obj(i).sinvoke("ready", &[])? != Value::Bool(true) {
            return Err(JsError::MethodFailed("init not applied".into()));
        }
    }
    let t_start = clock.now();
    let setup_seconds = t_start - t_setup;

    // One `multiply` per chunk, all issued before any reply is awaited.
    let results = dist.map_chunks_with("multiply", |_i, start, len| {
        vec![
            Value::I64(start as i64),
            Value::F32Vec(Arc::new(a[start * n..(start + len) * n].to_vec())),
        ]
    })?;
    for result in results {
        merge_block(result, &mut c, n)?;
    }
    let virt_seconds = clock.now() - t_start;

    let correct = if cfg.verify {
        Some(verify_sample(&a, &b, &c, n))
    } else {
        None
    };

    let tasks = dist.chunk_count();
    let _ = dist.free();
    reg.unregister()?;

    Ok(MatmulReport {
        virt_seconds,
        setup_seconds,
        tasks,
        nodes: nr_nodes,
        correct,
        messages: deployment.net_stats().msgs_sent - msgs_before,
    })
}

/// Spot-checks C against the direct product on a deterministic sample of
/// elements (full O(N³) verification would dwarf the simulation itself).
fn verify_sample(a: &[f32], b: &[f32], c: &[f32], n: usize) -> bool {
    let stride = (n / 17).max(1);
    for i in (0..n).step_by(stride) {
        for j in (0..n).step_by(stride) {
            let mut expect = 0.0f32;
            for k in 0..n {
                expect += a[i * n + k] * b[k * n + j];
            }
            if (c[i * n + j] - expect).abs() > 1e-3 * expect.abs().max(1.0) {
                return false;
            }
        }
    }
    true
}

/// The paper's one-node points: "the times plotted for the one-node
/// experiments are based on a sequential matrix multiplication that does not
/// use JavaSymphony at all". Executes 2·N³ flops on `machine` and returns
/// the virtual seconds taken.
pub fn run_sequential(machine: &SimMachine, n: usize) -> f64 {
    let clock = machine.clock().clone();
    let t0 = clock.now();
    machine.compute(2.0 * (n as f64).powi(3));
    clock.now() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_matrices_are_small_integers() {
        for i in 0..20 {
            for j in 0..20 {
                assert!(a_elem(i, j).abs() <= 6.5);
                assert!(b_elem(i, j).abs() <= 5.5);
                assert_eq!(a_elem(i, j), a_elem(i, j));
            }
        }
    }

    #[test]
    fn verify_sample_accepts_true_product_and_rejects_garbage() {
        let n = 12;
        let a: Vec<f32> = (0..n * n).map(|idx| a_elem(idx / n, idx % n)).collect();
        let b: Vec<f32> = (0..n * n).map(|idx| b_elem(idx / n, idx % n)).collect();
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        assert!(verify_sample(&a, &b, &c, n));
        c[5] += 1.0;
        assert!(!verify_sample(&a, &b, &c, n));
    }

    #[test]
    fn config_defaults_give_about_26_tasks() {
        let cfg = MatmulConfig::new(1000);
        assert_eq!(cfg.rows_per_task, 39);
        assert_eq!(1000usize.div_ceil(cfg.rows_per_task), 26);
        assert!(cfg.verify);
        assert!(!cfg.clone().without_verification().verify);
    }
}
