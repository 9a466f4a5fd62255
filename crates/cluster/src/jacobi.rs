//! Jacobi heat-diffusion workload: a 2-D grid partitioned into row blocks,
//! one worker object per node, ghost rows exchanged every iteration.
//!
//! Not from the paper's evaluation, but exactly the class of application its
//! introduction targets: iterative, communication-heavy, and sensitive to
//! where neighbouring blocks live. The master drives bulk-synchronous
//! rounds: pull boundary rows (asynchronously, in parallel), push them to
//! neighbours as ghosts (one-sided), then step every worker and reduce the
//! residual — exercising all three invocation modes per iteration.

use jsym_col::{ChunkSpec, DistCol};
use jsym_core::{encode_state, Deployment, InvokeCtx, JsClass, JsError, Value};
use jsym_vda::Cluster;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The artifact carrying the Jacobi classes.
pub const JACOBI_ARTIFACT: &str = "jacobi-classes.jar";
/// Size of [`JACOBI_ARTIFACT`].
pub const JACOBI_ARTIFACT_BYTES: usize = 150_000;

/// One worker: a horizontal slab of the grid plus ghost rows.
#[derive(Debug, Serialize, Deserialize)]
pub struct JacobiWorker {
    rows: usize,
    cols: usize,
    /// Whether this slab contains the global top/bottom boundary.
    is_top: bool,
    is_bottom: bool,
    grid: Vec<f32>,
    ghost_above: Vec<f32>,
    ghost_below: Vec<f32>,
    /// Skip actual arithmetic (cost still modeled) for large sweeps.
    verify: bool,
}

jsym_core::impl_state!(JacobiWorker {
    rows,
    cols,
    is_top,
    is_bottom,
    grid,
    ghost_above,
    ghost_below,
    verify
});

impl JacobiWorker {
    /// Builds a slab from `[rows, cols, is_top, is_bottom, verify]`.
    pub fn from_args(args: &[Value]) -> Result<Self, JsError> {
        let rows = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
        let cols = args.get(1).and_then(Value::as_i64).unwrap_or(0) as usize;
        if rows == 0 || cols == 0 {
            return Err(JsError::BadArguments("JacobiWorker(rows, cols, ..)".into()));
        }
        let is_top = args.get(2).and_then(Value::as_bool).unwrap_or(false);
        let is_bottom = args.get(3).and_then(Value::as_bool).unwrap_or(false);
        let mut grid = vec![0.0f32; rows * cols];
        if is_top {
            // Dirichlet boundary: the hot edge of the plate.
            for v in grid[..cols].iter_mut() {
                *v = 100.0;
            }
        }
        Ok(JacobiWorker {
            rows,
            cols,
            is_top,
            is_bottom,
            grid,
            ghost_above: vec![0.0; cols],
            ghost_below: vec![0.0; cols],
            verify: args.get(4).and_then(Value::as_bool).unwrap_or(true),
        })
    }

    fn step(&mut self, ctx: &mut InvokeCtx<'_>) -> f64 {
        // 5 flops per interior cell (4 adds + 1 multiply + residual).
        ctx.compute(6.0 * (self.rows * self.cols) as f64);
        if !self.verify {
            return 1.0; // residual is meaningless without arithmetic
        }
        let (rows, cols) = (self.rows, self.cols);
        let old = self.grid.clone();
        let mut residual = 0.0f32;
        let first = if self.is_top { 1 } else { 0 };
        let last = if self.is_bottom { rows - 1 } else { rows };
        for r in first..last {
            for c in 1..cols - 1 {
                let above = if r == 0 {
                    self.ghost_above[c]
                } else {
                    old[(r - 1) * cols + c]
                };
                let below = if r == rows - 1 {
                    self.ghost_below[c]
                } else {
                    old[(r + 1) * cols + c]
                };
                let new = 0.25 * (above + below + old[r * cols + c - 1] + old[r * cols + c + 1]);
                residual = residual.max((new - old[r * cols + c]).abs());
                self.grid[r * cols + c] = new;
            }
        }
        residual as f64
    }
}

impl JsClass for JacobiWorker {
    fn class_name(&self) -> &str {
        "JacobiWorker"
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        ctx: &mut InvokeCtx<'_>,
    ) -> jsym_core::Result<Value> {
        match method {
            // boundary(0) → top row; boundary(1) → bottom row.
            "boundary" => {
                let which = args.first().and_then(Value::as_i64).unwrap_or(0);
                let row = if which == 0 {
                    self.grid[..self.cols].to_vec()
                } else {
                    self.grid[(self.rows - 1) * self.cols..].to_vec()
                };
                Ok(Value::F32Vec(Arc::new(row)))
            }
            // set_ghost(0, row) → ghost above; set_ghost(1, row) → below.
            "set_ghost" => {
                let which = args.first().and_then(Value::as_i64).unwrap_or(0);
                let row = args
                    .get(1)
                    .and_then(Value::as_floats)
                    .ok_or_else(|| JsError::BadArguments("set_ghost(which, row)".into()))?;
                if row.len() != self.cols {
                    return Err(JsError::BadArguments("ghost row width mismatch".into()));
                }
                if which == 0 {
                    self.ghost_above = row.as_ref().clone();
                } else {
                    self.ghost_below = row.as_ref().clone();
                }
                Ok(Value::Null)
            }
            "step" => Ok(Value::F64(self.step(ctx))),
            // Row `r` of the slab, for assembling the full grid in tests.
            "row" => {
                let r = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
                if r >= self.rows {
                    return Err(JsError::BadArguments("row out of range".into()));
                }
                Ok(Value::F32Vec(Arc::new(
                    self.grid[r * self.cols..(r + 1) * self.cols].to_vec(),
                )))
            }
            _ => Err(JsError::NoSuchMethod {
                class: "JacobiWorker".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        encode_state(self)
    }
}

/// Registers the Jacobi classes with a deployment.
pub fn register_jacobi_classes(deployment: &Deployment) {
    deployment.classes().register_class::<JacobiWorker, _>(
        "JacobiWorker",
        Some(JACOBI_ARTIFACT),
        JacobiWorker::from_args,
    );
}

/// Outcome of a distributed Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Final global residual (max over workers).
    pub residual: f64,
    /// Virtual seconds for the iteration loop (excluding setup).
    pub virt_seconds: f64,
    /// The assembled grid (row-major), if `collect` was requested.
    pub grid: Option<Vec<f32>>,
}

/// Runs `iterations` of Jacobi on an `n × n` grid partitioned over the
/// cluster's nodes (row blocks in node order).
///
/// The row distribution is a [`DistCol`] of `JacobiWorker` chunks — each
/// chunk covers its block's rows, so the collection's location tables record
/// where every grid row lives — with the bulk-synchronous step and residual
/// reduction expressed as chunk collectives. Ghost-row exchange stays an
/// explicit per-neighbour protocol (it is deliberately *not* a collective:
/// only adjacent chunks talk).
pub fn run_jacobi(
    deployment: &Deployment,
    cluster: &Cluster,
    n: usize,
    iterations: usize,
    verify: bool,
    collect: bool,
) -> jsym_core::Result<JacobiReport> {
    let workers_n = cluster.nr_nodes();
    assert!(workers_n >= 1 && n >= workers_n, "grid must cover workers");
    let reg = deployment.register_app()?;
    let cb = reg.codebase();
    cb.add(JACOBI_ARTIFACT, JACOBI_ARTIFACT_BYTES);
    cb.load_cluster(cluster).inspect_err(|_e| {
        let _ = reg.unregister();
    })?;

    // Row blocks, top to bottom, one worker chunk per node; the chunk
    // element count is the block's row count.
    let base = n / workers_n;
    let extra = n % workers_n;
    let mut specs = Vec::with_capacity(workers_n);
    for w in 0..workers_n {
        let rows = base + usize::from(w < extra);
        specs.push(ChunkSpec::with_args(
            cluster.get_node(w)?.phys(),
            rows,
            vec![
                Value::I64(rows as i64),
                Value::I64(n as i64),
                Value::Bool(w == 0),
                Value::Bool(w == workers_n - 1),
                Value::Bool(verify),
            ],
        ));
    }
    let workers = DistCol::<f32>::create(&reg, "JacobiWorker", &specs)?;

    let clock = deployment.clock().clone();
    let t0 = clock.now();
    let mut residual = f64::INFINITY;
    for _ in 0..iterations {
        // 1. Pull boundary rows in parallel (asynchronous invocation).
        let tops = workers.map_chunks("boundary", &[Value::I64(0)])?;
        let bottoms = workers.map_chunks("boundary", &[Value::I64(1)])?;
        // 2. Push ghosts to neighbours (one-sided — per-object FIFO makes
        //    the subsequent synchronous step see them).
        for w in 0..workers_n {
            if w > 0 {
                workers
                    .chunk_obj(w)
                    .oinvoke("set_ghost", &[Value::I64(0), bottoms[w - 1].clone()])?;
            }
            if w + 1 < workers_n {
                workers
                    .chunk_obj(w)
                    .oinvoke("set_ghost", &[Value::I64(1), tops[w + 1].clone()])?;
            }
        }
        // 3. Step everyone in parallel; reduce the residual.
        let steps = workers.map_chunks("step", &[])?;
        residual = steps
            .iter()
            .fold(0.0, |acc, v| acc.max(v.as_f64().unwrap_or(0.0)));
    }
    let virt_seconds = clock.now() - t0;

    let grid = if collect {
        let mut grid = Vec::with_capacity(n * n);
        for w in 0..workers.chunk_count() {
            let rows = workers.chunk_range(w).len();
            let worker = workers.chunk_obj(w);
            for r in 0..rows {
                let row = worker.sinvoke("row", &[Value::I64(r as i64)])?;
                grid.extend_from_slice(row.as_floats().expect("row is floats"));
            }
        }
        Some(grid)
    } else {
        None
    };

    let _ = workers.free();
    reg.unregister()?;
    Ok(JacobiReport {
        iterations,
        residual,
        virt_seconds,
        grid,
    })
}

/// Reference sequential Jacobi for correctness checks (same boundary
/// conditions as the distributed version).
pub fn sequential_jacobi(n: usize, iterations: usize) -> Vec<f32> {
    let mut grid = vec![0.0f32; n * n];
    for v in grid[..n].iter_mut() {
        *v = 100.0;
    }
    for _ in 0..iterations {
        let old = grid.clone();
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                grid[r * n + c] = 0.25
                    * (old[(r - 1) * n + c]
                        + old[(r + 1) * n + c]
                        + old[r * n + c - 1]
                        + old[r * n + c + 1]);
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_jacobi_diffuses_heat_downward() {
        let g = sequential_jacobi(8, 50);
        // Top row stays hot.
        assert_eq!(g[0], 100.0);
        // Heat has reached the second row but decays with depth.
        assert!(g[8 + 4] > g[3 * 8 + 4]);
        assert!(g[3 * 8 + 4] > 0.0);
    }

    #[test]
    fn worker_rejects_bad_construction() {
        assert!(JacobiWorker::from_args(&[]).is_err());
        assert!(JacobiWorker::from_args(&[Value::I64(0), Value::I64(5)]).is_err());
        assert!(JacobiWorker::from_args(&[Value::I64(4), Value::I64(4)]).is_ok());
    }
}
