//! # jsym-col — chunked distributed arrays and teamed collectives
//!
//! JavaSymphony applications (CLUSTER 2000, §5) distribute regular data —
//! matrix rows, grid blocks — across the cluster by hand: one remote object
//! per node, explicit index arithmetic, and a per-object invocation loop.
//! This crate packages that pattern as [`DistCol<T>`], a chunked distributed
//! array:
//!
//! * an array of `len` elements is split into **chunks**, each held by a
//!   remote object placed on an explicit node ([`ChunkSpec`]); chunk
//!   locations are registered in the runtime's directory-aware location
//!   tables like any other object, so lookups and migration work unchanged;
//! * **teamed collectives** — [`DistCol::scatter`], [`DistCol::gather`],
//!   [`DistCol::reduce`], [`DistCol::map_chunks`] — issue one `ainvoke` per
//!   chunk *before* waiting on any reply, so same-destination requests fall
//!   into the same coalescing window when RMI batching
//!   (`JsShell::rmi_batching`) is enabled and share one modeled wire charge;
//! * **bulk relocation** ([`DistCol::relocate`]) migrates every chunk
//!   overlapping a range concurrently, so same-link state transfers batch
//!   into one transfer instead of paying per-chunk latency.
//!
//! Chunks are instances of any registered class that speaks the small
//! *chunk protocol* (`col_set` / `col_get` / `col_reduce`); the built-in
//! [`ColChunk`] class implements it for plain element storage, and richer
//! classes (e.g. the cluster workloads' `Matrix`) add their own compute
//! methods on top and drive them through [`DistCol::map_chunks_with`].
//!
//! Reductions over `i64` are exact (integer arithmetic is associative);
//! floating-point reductions fold per chunk and then across chunks in chunk
//! order, which is deterministic but may differ from a strict left-to-right
//! fold by rounding.

#![warn(missing_docs)]

use jsym_core::{
    Deployment, InvokeCtx, JsClass, JsError, JsObj, JsRegistration, MigrateTarget, Placement,
    Result, Value,
};
use jsym_net::NodeId;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::ops::Range;

/// Class name of the built-in [`ColChunk`] storage class.
pub const COL_CHUNK_CLASS: &str = "jsym.ColChunk";

/// Combining operator for [`DistCol::reduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise addition.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl ReduceOp {
    /// Wire name of the operator, as passed to a chunk's `col_reduce`.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }
}

/// Element types a [`DistCol`] can hold.
///
/// The encoding is self-describing ([`Value`] variants carry their type), so
/// the generic [`ColChunk`] class can reduce a chunk without knowing `T`.
pub trait ColElem: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// Encodes a slice of elements as a wire [`Value`].
    fn encode(slice: &[Self]) -> Value;
    /// Decodes a chunk payload produced by [`ColElem::encode`].
    fn decode(v: &Value) -> Result<Vec<Self>>;
    /// Decodes a scalar reduction partial.
    fn decode_scalar(v: &Value) -> Result<Self>;
    /// Combines two reduction partials.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

fn decode_err(want: &str, got: &Value) -> JsError {
    JsError::BadArguments(format!("expected {want} chunk payload, got {got:?}"))
}

impl ColElem for f32 {
    fn encode(slice: &[Self]) -> Value {
        Value::floats(slice.to_vec())
    }

    fn decode(v: &Value) -> Result<Vec<Self>> {
        match v {
            Value::F32Vec(data) => Ok(data.as_ref().clone()),
            Value::Null => Ok(Vec::new()),
            other => Err(decode_err("F32Vec", other)),
        }
    }

    fn decode_scalar(v: &Value) -> Result<Self> {
        v.as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| decode_err("float scalar", v))
    }

    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl ColElem for f64 {
    fn encode(slice: &[Self]) -> Value {
        Value::List(slice.iter().map(|&x| Value::F64(x)).collect())
    }

    fn decode(v: &Value) -> Result<Vec<Self>> {
        match v {
            Value::List(items) => items
                .iter()
                .map(|item| item.as_f64().ok_or_else(|| decode_err("F64 list", item)))
                .collect(),
            Value::Null => Ok(Vec::new()),
            other => Err(decode_err("F64 list", other)),
        }
    }

    fn decode_scalar(v: &Value) -> Result<Self> {
        v.as_f64().ok_or_else(|| decode_err("float scalar", v))
    }

    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl ColElem for i64 {
    fn encode(slice: &[Self]) -> Value {
        Value::List(slice.iter().map(|&x| Value::I64(x)).collect())
    }

    fn decode(v: &Value) -> Result<Vec<Self>> {
        match v {
            Value::List(items) => items
                .iter()
                .map(|item| item.as_i64().ok_or_else(|| decode_err("I64 list", item)))
                .collect(),
            Value::Null => Ok(Vec::new()),
            other => Err(decode_err("I64 list", other)),
        }
    }

    fn decode_scalar(v: &Value) -> Result<Self> {
        v.as_i64().ok_or_else(|| decode_err("integer scalar", v))
    }

    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// The built-in chunk storage class: holds one chunk's elements as a
/// [`Value`] and implements the chunk protocol (`col_set`, `col_get`,
/// `col_len`, `col_reduce`).
#[derive(Serialize, Deserialize)]
pub struct ColChunk {
    data: Value,
}

jsym_core::impl_state!(ColChunk { data });

impl ColChunk {
    /// Builds a chunk holding `[data]` (`Null` when absent).
    pub fn from_args(args: &[Value]) -> Self {
        ColChunk {
            data: args.first().cloned().unwrap_or(Value::Null),
        }
    }
}

fn chunk_len(data: &Value) -> usize {
    match data {
        Value::F32Vec(v) => v.len(),
        Value::List(items) => items.len(),
        Value::Null => 0,
        _ => 1,
    }
}

fn reduce_payload(data: &Value, op: &str) -> Result<Value> {
    fn fold_f64(mut iter: impl Iterator<Item = f64>, op: &str) -> Option<f64> {
        let first = iter.next()?;
        Some(iter.fold(first, |a, b| match op {
            "max" => a.max(b),
            "min" => a.min(b),
            _ => a + b,
        }))
    }

    match data {
        Value::Null => Ok(Value::Null),
        Value::F32Vec(v) => {
            // Fold in f32 so the partial matches what a caller-side f32 fold
            // over the same chunk would produce.
            let mut iter = v.iter().copied();
            let Some(first) = iter.next() else {
                return Ok(Value::Null);
            };
            let acc = iter.fold(first, |a, b| match op {
                "max" => a.max(b),
                "min" => a.min(b),
                _ => a + b,
            });
            Ok(Value::F64(acc as f64))
        }
        Value::List(items) if items.is_empty() => Ok(Value::Null),
        Value::List(items) => match items[0] {
            Value::I64(_) => {
                let mut acc: Option<i64> = None;
                for item in items {
                    let x = item.as_i64().ok_or_else(|| decode_err("I64 list", item))?;
                    acc = Some(match (acc, op) {
                        (None, _) => x,
                        (Some(a), "max") => a.max(x),
                        (Some(a), "min") => a.min(x),
                        (Some(a), _) => a + x,
                    });
                }
                Ok(acc.map(Value::I64).unwrap_or(Value::Null))
            }
            _ => {
                let vals: Result<Vec<f64>> = items
                    .iter()
                    .map(|item| item.as_f64().ok_or_else(|| decode_err("F64 list", item)))
                    .collect();
                Ok(fold_f64(vals?.into_iter(), op)
                    .map(Value::F64)
                    .unwrap_or(Value::Null))
            }
        },
        other => Err(decode_err("chunk", other)),
    }
}

impl JsClass for ColChunk {
    fn class_name(&self) -> &str {
        COL_CHUNK_CLASS
    }

    fn invoke(&mut self, method: &str, args: &[Value], ctx: &mut InvokeCtx<'_>) -> Result<Value> {
        match method {
            "col_set" => {
                self.data = args.first().cloned().unwrap_or(Value::Null);
                Ok(Value::Null)
            }
            "col_get" => Ok(self.data.clone()),
            "col_len" => Ok(Value::I64(chunk_len(&self.data) as i64)),
            "col_reduce" => {
                let op = args.first().and_then(Value::as_str).unwrap_or("sum");
                ctx.compute(chunk_len(&self.data) as f64);
                reduce_payload(&self.data, op)
            }
            _ => Err(JsError::NoSuchMethod {
                class: COL_CHUNK_CLASS.to_owned(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        jsym_core::encode_state(self)
    }
}

/// Registers the built-in [`ColChunk`] class (preloaded, no codebase) with a
/// deployment's class registry.
pub fn register_col_classes(deployment: &Deployment) {
    deployment
        .classes()
        .register_class::<ColChunk, _>(COL_CHUNK_CLASS, None, |args| Ok(ColChunk::from_args(args)));
}

/// Placement and sizing of one chunk at creation time.
#[derive(Clone, Debug)]
pub struct ChunkSpec {
    /// Physical node the chunk object is created on.
    pub node: NodeId,
    /// Number of elements the chunk covers.
    pub len: usize,
    /// Constructor arguments for the chunk object (custom chunk classes
    /// take per-chunk configuration here; [`ColChunk`] ignores extras).
    pub args: Vec<Value>,
}

impl ChunkSpec {
    /// A chunk of `len` elements on `node` with no constructor arguments.
    pub fn new(node: NodeId, len: usize) -> Self {
        ChunkSpec {
            node,
            len,
            args: Vec::new(),
        }
    }

    /// A chunk with explicit constructor arguments.
    pub fn with_args(node: NodeId, len: usize, args: Vec<Value>) -> Self {
        ChunkSpec { node, len, args }
    }
}

/// Splits `total` elements across `nodes` proportionally to each node's
/// weight (e.g. peak MFlop/s), then splits each node's allotment into up to
/// `chunks_per_node` near-equal chunks.
///
/// Largest-remainder rounding guarantees the chunk lengths sum to `total`;
/// zero-length chunks are dropped. Non-positive weights are treated as a
/// tiny positive weight so every listed node stays eligible.
pub fn partition_weighted(
    total: usize,
    nodes: &[(NodeId, f64)],
    chunks_per_node: usize,
) -> Vec<ChunkSpec> {
    if total == 0 || nodes.is_empty() {
        return Vec::new();
    }
    let weights: Vec<f64> = nodes.iter().map(|&(_, w)| w.max(1e-9)).collect();
    let sum: f64 = weights.iter().sum();
    // Largest-remainder apportionment of `total` over the nodes.
    let mut shares: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(nodes.len());
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let ideal = total as f64 * w / sum;
        let base = ideal.floor() as usize;
        shares.push(base);
        fracs.push((i, ideal - base as f64));
        assigned += base;
    }
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (i, _) in fracs.into_iter().take(total - assigned) {
        shares[i] += 1;
    }

    let per_node = chunks_per_node.max(1);
    let mut specs = Vec::new();
    for (&(node, _), share) in nodes.iter().zip(shares) {
        if share == 0 {
            continue;
        }
        let pieces = per_node.min(share);
        let base = share / pieces;
        let extra = share % pieces;
        for p in 0..pieces {
            let len = base + usize::from(p < extra);
            specs.push(ChunkSpec::new(node, len));
        }
    }
    specs
}

struct Chunk {
    obj: JsObj,
    start: usize,
    len: usize,
    node: NodeId,
}

/// A chunked distributed array of `T` elements.
///
/// Each chunk is a remote object created through the normal object machinery
/// (so it participates in location tables, migration, and fault handling);
/// the collectives fan invocations out with `ainvoke` and only then wait, so
/// the underlying RMI batching stage can coalesce same-destination traffic.
pub struct DistCol<T: ColElem> {
    chunks: Vec<Chunk>,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: ColElem> DistCol<T> {
    /// Creates the chunk objects of a distributed array from explicit
    /// per-chunk placements, using chunk class `class` (which must speak the
    /// chunk protocol and be registered/loaded on the target nodes).
    pub fn create(reg: &JsRegistration, class: &str, specs: &[ChunkSpec]) -> Result<DistCol<T>> {
        let mut chunks = Vec::with_capacity(specs.len());
        let mut start = 0usize;
        for spec in specs {
            let obj = JsObj::create(reg, class, &spec.args, Placement::OnPhys(spec.node), None)?;
            chunks.push(Chunk {
                obj,
                start,
                len: spec.len,
                node: spec.node,
            });
            start += spec.len;
        }
        Ok(DistCol {
            chunks,
            len: start,
            _elem: PhantomData,
        })
    }

    /// Creates a distributed array backed by the built-in [`ColChunk`]
    /// class (see [`register_col_classes`]).
    pub fn create_default(reg: &JsRegistration, specs: &[ChunkSpec]) -> Result<DistCol<T>> {
        Self::create(reg, COL_CHUNK_CLASS, specs)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The remote object holding chunk `i`.
    pub fn chunk_obj(&self, i: usize) -> &JsObj {
        &self.chunks[i].obj
    }

    /// Element range `[start, start + len)` covered by chunk `i`.
    pub fn chunk_range(&self, i: usize) -> Range<usize> {
        let c = &self.chunks[i];
        c.start..c.start + c.len
    }

    /// The node chunk `i` currently lives on (as tracked by relocation; an
    /// externally migrated chunk is still found through the location
    /// tables, this is the collection's own placement record).
    pub fn chunk_node(&self, i: usize) -> NodeId {
        self.chunks[i].node
    }

    /// Distributes `data` across the chunks: one `col_set` per chunk, all
    /// issued before any reply is awaited.
    pub fn scatter(&self, data: &[T]) -> Result<()> {
        if data.len() != self.len {
            return Err(JsError::BadArguments(format!(
                "scatter of {} elements into a {}-element DistCol",
                data.len(),
                self.len
            )));
        }
        let mut handles = Vec::with_capacity(self.chunks.len());
        for c in &self.chunks {
            let payload = T::encode(&data[c.start..c.start + c.len]);
            handles.push(c.obj.ainvoke("col_set", &[payload])?);
        }
        for h in handles {
            h.get_result()?;
        }
        Ok(())
    }

    /// Collects the full array back: one `col_get` per chunk.
    pub fn gather(&self) -> Result<Vec<T>> {
        let mut handles = Vec::with_capacity(self.chunks.len());
        for c in &self.chunks {
            handles.push(c.obj.ainvoke("col_get", &[])?);
        }
        let mut out = Vec::with_capacity(self.len);
        for (h, c) in handles.into_iter().zip(&self.chunks) {
            let decoded = T::decode(&h.get_result()?)?;
            if decoded.len() != c.len {
                return Err(JsError::BadArguments(format!(
                    "chunk at {} returned {} elements, expected {}",
                    c.start,
                    decoded.len(),
                    c.len
                )));
            }
            out.extend(decoded);
        }
        Ok(out)
    }

    /// Reduces the array with `op`: each chunk folds locally (`col_reduce`)
    /// and the partials are combined in chunk order. Returns `None` for an
    /// empty array. Exact for `i64`; floating-point results are
    /// deterministic but chunking-dependent in the last bits.
    pub fn reduce(&self, op: ReduceOp) -> Result<Option<T>> {
        let arg = Value::Str(op.name().to_owned());
        let mut handles = Vec::with_capacity(self.chunks.len());
        for c in &self.chunks {
            handles.push(c.obj.ainvoke("col_reduce", std::slice::from_ref(&arg))?);
        }
        let mut acc: Option<T> = None;
        for h in handles {
            let partial = h.get_result()?;
            if matches!(partial, Value::Null) {
                continue; // empty chunk
            }
            let x = T::decode_scalar(&partial)?;
            acc = Some(match acc {
                None => x,
                Some(a) => T::combine(op, a, x),
            });
        }
        Ok(acc)
    }

    /// Invokes `method(args)` on every chunk object concurrently and
    /// returns the raw results in chunk order.
    pub fn map_chunks(&self, method: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.map_chunks_with(method, |_, _, _| args.to_vec())
    }

    /// Like [`DistCol::map_chunks`], but computes each chunk's arguments
    /// from `(chunk_index, start, len)` — the building block for kernels
    /// whose work depends on the index range (e.g. `multiply(first_row,
    /// rows)`).
    pub fn map_chunks_with(
        &self,
        method: &str,
        mut args_for: impl FnMut(usize, usize, usize) -> Vec<Value>,
    ) -> Result<Vec<Value>> {
        let mut handles = Vec::with_capacity(self.chunks.len());
        for (i, c) in self.chunks.iter().enumerate() {
            let args = args_for(i, c.start, c.len);
            handles.push(c.obj.ainvoke(method, &args)?);
        }
        handles.into_iter().map(|h| h.get_result()).collect()
    }

    /// Migrates every chunk overlapping `range` (element indices) to
    /// `node`, concurrently, so that same-link state transfers coalesce
    /// into one batched transfer. Returns the number of chunks moved.
    pub fn relocate(&mut self, range: Range<usize>, node: NodeId) -> Result<usize> {
        let targets: Vec<usize> = self
            .chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.start < range.end && c.start + c.len > range.start)
            .filter(|(_, c)| c.node != node)
            .map(|(i, _)| i)
            .collect();
        if targets.is_empty() {
            return Ok(0);
        }
        let results: Vec<Result<NodeId>> = std::thread::scope(|scope| {
            let joins: Vec<_> = targets
                .iter()
                .map(|&i| {
                    let obj = self.chunks[i].obj.clone();
                    scope.spawn(move || obj.migrate(MigrateTarget::ToPhys(node), None))
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("relocate worker panicked"))
                .collect()
        });
        let mut moved = 0usize;
        let mut first_err = None;
        for (&i, res) in targets.iter().zip(results) {
            match res {
                Ok(dst) => {
                    self.chunks[i].node = dst;
                    moved += 1;
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(moved),
        }
    }

    /// Re-balances the chunk placement against a new weight vector — the
    /// `addnode`/`rmnode` companion: after the JS-Shell grows the
    /// deployment, pass the enlarged node list and the collection spreads
    /// onto the new capacity; before a shrink, pass a list without the
    /// leaving node and the collection drains off it (so `remove_machine`
    /// succeeds).
    ///
    /// Chunks themselves are not re-split: each chunk is assigned to the
    /// node whose ideal contiguous span (per [`partition_weighted`] with
    /// one chunk per node) contains the chunk's midpoint, and contiguous
    /// runs with the same target move through one bulk [`DistCol::relocate`]
    /// call each, so same-link state transfers keep coalescing. Returns the
    /// number of chunks moved.
    pub fn rebalance(&mut self, weights: &[(NodeId, f64)]) -> Result<usize> {
        if self.len == 0 || weights.is_empty() || self.chunks.is_empty() {
            return Ok(0);
        }
        // Ideal contiguous spans, one per node with a non-zero share, in
        // the caller's node order.
        let mut spans: Vec<(NodeId, Range<usize>)> = Vec::new();
        let mut at = 0usize;
        for spec in partition_weighted(self.len, weights, 1) {
            spans.push((spec.node, at..at + spec.len));
            at += spec.len;
        }
        // Target node per chunk: the span holding the chunk's midpoint.
        let target_of = |start: usize, len: usize| -> NodeId {
            let mid = start + len / 2;
            spans
                .iter()
                .find(|(_, r)| r.contains(&mid))
                .map(|&(n, _)| n)
                .unwrap_or_else(|| spans.last().expect("spans nonempty").0)
        };
        // Group contiguous chunks with one target into single relocates.
        let mut moved = 0usize;
        let mut run: Option<(NodeId, Range<usize>)> = None;
        let mut pending: Vec<(NodeId, Range<usize>)> = Vec::new();
        for c in &self.chunks {
            if c.len == 0 {
                continue;
            }
            let target = target_of(c.start, c.len);
            match &mut run {
                Some((node, range)) if *node == target => range.end = c.start + c.len,
                other => {
                    if let Some(r) = other.take() {
                        pending.push(r);
                    }
                    run = Some((target, c.start..c.start + c.len));
                }
            }
        }
        pending.extend(run);
        for (node, range) in pending {
            moved += self.relocate(range, node)?;
        }
        Ok(moved)
    }

    /// Frees all chunk objects.
    pub fn free(self) -> Result<()> {
        let mut first_err = None;
        for c in &self.chunks {
            if let Err(e) = c.obj.free() {
                first_err = first_err.or(Some(e));
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsym_core::testkit::shell_with_idle_machines;

    fn even_specs(nodes: &[NodeId], total: usize, per_node: usize) -> Vec<ChunkSpec> {
        partition_weighted(
            total,
            &nodes.iter().map(|&n| (n, 1.0)).collect::<Vec<_>>(),
            per_node,
        )
    }

    #[test]
    fn partition_weighted_sums_and_weights() {
        let nodes = [(NodeId(0), 300.0), (NodeId(1), 100.0), (NodeId(2), 100.0)];
        let specs = partition_weighted(100, &nodes, 2);
        let total: usize = specs.iter().map(|s| s.len).sum();
        assert_eq!(total, 100);
        // Node 0 carries 3/5 of the weight: 60 elements over two chunks.
        let n0: usize = specs
            .iter()
            .filter(|s| s.node == NodeId(0))
            .map(|s| s.len)
            .sum();
        assert_eq!(n0, 60);
        assert!(specs.iter().all(|s| s.len > 0));
        assert_eq!(specs.iter().filter(|s| s.node == NodeId(0)).count(), 2);
    }

    #[test]
    fn partition_weighted_degenerate_cases() {
        assert!(partition_weighted(0, &[(NodeId(0), 1.0)], 2).is_empty());
        assert!(partition_weighted(10, &[], 2).is_empty());
        // More requested chunks than elements: capped, no empty chunks.
        let specs = partition_weighted(3, &[(NodeId(0), 1.0)], 8);
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().all(|s| s.len == 1));
    }

    #[test]
    fn scatter_gather_roundtrip_f32() {
        let deployment = shell_with_idle_machines(3).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();

        let data: Vec<f32> = (0..97).map(|i| i as f32 * 0.5).collect();
        let nodes = deployment.machines();
        let col = DistCol::<f32>::create_default(&reg, &even_specs(&nodes, data.len(), 2)).unwrap();
        assert_eq!(col.len(), 97);
        assert_eq!(col.chunk_count(), 6);
        col.scatter(&data).unwrap();
        assert_eq!(col.gather().unwrap(), data);
        col.free().unwrap();
        reg.unregister().unwrap();
        deployment.shutdown();
    }

    #[test]
    fn reduce_matches_serial_fold_i64() {
        let deployment = shell_with_idle_machines(3).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();

        let data: Vec<i64> = (0..50).map(|i| (i * 37) % 101 - 50).collect();
        let nodes = deployment.machines();
        let col = DistCol::<i64>::create_default(&reg, &even_specs(&nodes, data.len(), 3)).unwrap();
        col.scatter(&data).unwrap();
        assert_eq!(
            col.reduce(ReduceOp::Sum).unwrap(),
            Some(data.iter().sum::<i64>())
        );
        assert_eq!(
            col.reduce(ReduceOp::Max).unwrap(),
            data.iter().copied().max()
        );
        assert_eq!(
            col.reduce(ReduceOp::Min).unwrap(),
            data.iter().copied().min()
        );
        deployment.shutdown();
    }

    #[test]
    fn reduce_empty_array_is_none() {
        let deployment = shell_with_idle_machines(2).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();
        let col = DistCol::<i64>::create_default(&reg, &[ChunkSpec::new(NodeId(1), 0)]).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.reduce(ReduceOp::Sum).unwrap(), None);
        assert_eq!(col.gather().unwrap(), Vec::<i64>::new());
        deployment.shutdown();
    }

    #[test]
    fn scatter_length_mismatch_rejected() {
        let deployment = shell_with_idle_machines(2).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();
        let col = DistCol::<i64>::create_default(&reg, &[ChunkSpec::new(NodeId(0), 4)]).unwrap();
        assert!(matches!(
            col.scatter(&[1, 2, 3]),
            Err(JsError::BadArguments(_))
        ));
        deployment.shutdown();
    }

    #[test]
    fn relocate_moves_overlapping_chunks_and_preserves_data() {
        let deployment = shell_with_idle_machines(3).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();

        let data: Vec<i64> = (0..40).collect();
        // Four 10-element chunks: two on node 0, two on node 1.
        let specs = vec![
            ChunkSpec::new(NodeId(0), 10),
            ChunkSpec::new(NodeId(0), 10),
            ChunkSpec::new(NodeId(1), 10),
            ChunkSpec::new(NodeId(1), 10),
        ];
        let mut col = DistCol::<i64>::create_default(&reg, &specs).unwrap();
        col.scatter(&data).unwrap();

        // Elements 5..25 overlap chunks 0, 1, and 2.
        let moved = col.relocate(5..25, NodeId(2)).unwrap();
        assert_eq!(moved, 3);
        for i in 0..3 {
            assert_eq!(col.chunk_node(i), NodeId(2));
            assert_eq!(col.chunk_obj(i).get_location().unwrap(), NodeId(2));
        }
        assert_eq!(col.chunk_node(3), NodeId(1));
        assert_eq!(col.gather().unwrap(), data);

        // Relocating the same range again is a no-op.
        assert_eq!(col.relocate(5..25, NodeId(2)).unwrap(), 0);
        deployment.shutdown();
    }

    #[test]
    fn rebalance_converges_after_addnode_and_drains_for_rmnode() {
        let deployment = shell_with_idle_machines(2).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();

        let data: Vec<i64> = (0..48).collect();
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        // Eight 6-element chunks over the two seed nodes.
        let mut col =
            DistCol::<i64>::create_default(&reg, &even_specs(&[n0, n1], data.len(), 4)).unwrap();
        col.scatter(&data).unwrap();

        // addnode: grow the deployment, then rebalance over equal weights.
        let n2 = deployment.add_machine(jsym_core::MachineConfig::idle("m-grown", 50.0));
        let weights = [(n0, 1.0), (n1, 1.0), (n2, 1.0)];
        let moved = col.rebalance(&weights).unwrap();
        assert!(moved > 0, "rebalance moved nothing onto the new node");

        // Per-node element shares re-converge to the weight vector, within
        // one chunk of the ideal (chunks are moved whole, never re-split).
        let share_of = |col: &DistCol<i64>, node: NodeId| -> usize {
            (0..col.chunk_count())
                .filter(|&i| col.chunk_node(i) == node)
                .map(|i| col.chunk_range(i).len())
                .sum()
        };
        let ideal = data.len() / 3;
        let max_chunk = (0..col.chunk_count())
            .map(|i| col.chunk_range(i).len())
            .max()
            .unwrap();
        for &(node, _) in &weights {
            let share = share_of(&col, node);
            assert!(
                share.abs_diff(ideal) <= max_chunk,
                "{node} holds {share} elements, ideal {ideal} ± {max_chunk}"
            );
        }
        assert_eq!(col.gather().unwrap(), data);
        // Already balanced: a second pass is a no-op.
        assert_eq!(col.rebalance(&weights).unwrap(), 0);

        // rmnode: rebalance without the leaving node drains it completely,
        // after which the JS-Shell shrink succeeds.
        col.rebalance(&[(n0, 1.0), (n1, 1.0)]).unwrap();
        assert_eq!(share_of(&col, n2), 0);
        assert_eq!(col.gather().unwrap(), data);
        deployment.remove_machine(n2).unwrap();

        col.free().unwrap();
        reg.unregister().unwrap();
        deployment.shutdown();
    }

    #[test]
    fn map_chunks_with_sees_chunk_geometry() {
        let deployment = shell_with_idle_machines(2).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();
        let specs = vec![ChunkSpec::new(NodeId(0), 3), ChunkSpec::new(NodeId(1), 5)];
        let col = DistCol::<i64>::create_default(&reg, &specs).unwrap();
        col.scatter(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        // col_len ignores args; use the geometry hook to check ranges too.
        let mut seen = Vec::new();
        let lens = col
            .map_chunks_with("col_len", |i, start, len| {
                seen.push((i, start, len));
                Vec::new()
            })
            .unwrap();
        assert_eq!(seen, vec![(0, 0, 3), (1, 3, 5)]);
        assert_eq!(lens, vec![Value::I64(3), Value::I64(5)]);
        assert_eq!(col.chunk_range(1), 3..8);
        deployment.shutdown();
    }

    #[test]
    fn f64_roundtrip_and_reduce() {
        let deployment = shell_with_idle_machines(2).boot();
        register_col_classes(&deployment);
        let reg = deployment.register_app().unwrap();
        let data: Vec<f64> = vec![1.5, -2.25, 8.0, 0.75];
        let nodes = deployment.machines();
        let col = DistCol::<f64>::create_default(&reg, &even_specs(&nodes, data.len(), 1)).unwrap();
        col.scatter(&data).unwrap();
        assert_eq!(col.gather().unwrap(), data);
        assert_eq!(col.reduce(ReduceOp::Max).unwrap(), Some(8.0));
        assert_eq!(col.reduce(ReduceOp::Sum).unwrap(), Some(8.0));
        deployment.shutdown();
    }
}
