//! Every distributed class in the tree, through the state codec and through
//! the JSON path it replaced.
//!
//! For seeded random states of `Counter`, `Blob`, `ColChunk`, `Matrix`,
//! `Stage` and `JacobiWorker`: the state the class snapshots, restored by the
//! registry, answers a fixed list of calls exactly as the original does — and
//! exactly as a copy taken through `snapshot_state` / `serde_json::from_slice`
//! does. JSON is the oracle here and nowhere else: the runtime has one codec.
//! (`ablate_affinity::Driver` and `exec_props::ChainNode` have no fields; their
//! state is the version byte.)
//!
//! Plain `#[test]`s with an in-file xorshift: the seeds are fixed, so a
//! failure (which names its seed) reproduces by running the test again.

use jsym_cluster::jacobi::{register_jacobi_classes, JacobiWorker, JACOBI_ARTIFACT};
use jsym_cluster::matmul::{register_matmul_classes, Matrix, MATRIX_ARTIFACT};
use jsym_cluster::pipeline::{register_pipeline_classes, Stage, PIPELINE_ARTIFACT};
use jsym_col::{register_col_classes, ColChunk, COL_CHUNK_CLASS};
use jsym_core::testkit::{
    invoke_detached, register_test_classes, shell_with_idle_machines, Blob, Counter,
};
use jsym_core::{
    snapshot_state, AgentAddr, AppId, ClassRegistry, JsClass, ObjectHandle, ObjectId, Value,
};
use jsym_net::NodeId;

const SEEDS: std::ops::Range<u64> = 1..25;

struct XorShift(u64);

impl XorShift {
    fn seeded(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
    fn float(&mut self) -> f32 {
        self.next() as i16 as f32 / 8.0
    }
    fn floats(&mut self, n: usize) -> Value {
        Value::floats((0..n).map(|_| self.float()).collect())
    }
    fn handle(&mut self) -> ObjectHandle {
        ObjectHandle {
            id: ObjectId(self.next()),
            origin: AgentAddr::app_oa(NodeId(self.next() as u32), AppId(self.next() as u32)),
        }
    }
    /// A random chunk payload, lists at most `depth` deep.
    fn value(&mut self, depth: usize) -> Value {
        match self.below(if depth == 0 { 7 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.flag()),
            2 => Value::I64(self.next() as i64),
            3 => Value::F64(self.next() as i32 as f64 / 256.0),
            4 => Value::Str(format!("s{}\u{e9}\"", self.below(1000))),
            5 => Value::Bytes((0..self.below(64)).map(|_| self.next() as u8).collect()),
            6 => {
                let n = self.below(64);
                self.floats(n)
            }
            _ => Value::List((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
        }
    }
}

type Call = (&'static str, Vec<Value>);

/// The deployment-wide registry with every in-tree class in it.
fn registry() -> ClassRegistry {
    let d = shell_with_idle_machines(1).boot();
    register_test_classes(&d);
    register_col_classes(&d);
    register_matmul_classes(&d);
    register_pipeline_classes(&d);
    register_jacobi_classes(&d);
    let classes = d.classes().clone();
    d.shutdown();
    classes
}

fn answers(obj: &mut dyn JsClass, calls: &[Call]) -> Vec<String> {
    calls
        .iter()
        .map(|(method, args)| format!("{method}: {:?}", invoke_detached(obj, method, args)))
        .collect()
}

/// `original`, its state restored by the registry, and `via_json` must give
/// the same answers to `calls`, in order.
fn same_answers(
    what: &str,
    classes: &ClassRegistry,
    mut original: Box<dyn JsClass>,
    mut via_json: Box<dyn JsClass>,
    calls: &[Call],
) {
    let state = original.snapshot().unwrap();
    let mut via_codec = classes
        .restore(original.class_name(), &state)
        .unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
    assert_eq!(
        via_codec.snapshot().unwrap(),
        state,
        "{what}: the restored object snapshots differently"
    );
    let expect = answers(&mut *original, calls);
    assert_eq!(answers(&mut *via_codec, calls), expect, "{what}: codec");
    assert_eq!(
        answers(&mut *via_json, calls),
        expect,
        "{what}: JSON oracle"
    );
}

/// Boxes `$obj` next to its copy through the JSON path.
macro_rules! with_json_twin {
    ($ty:ty, $obj:expr) => {{
        let obj: $ty = $obj;
        let json = snapshot_state(&obj).unwrap();
        let twin: $ty = serde_json::from_slice(&json).unwrap();
        (
            Box::new(obj) as Box<dyn JsClass>,
            Box::new(twin) as Box<dyn JsClass>,
        )
    }};
}

#[test]
fn every_class_restores_to_the_same_answers_as_the_json_oracle() {
    let classes = registry();
    assert!(classes.artifact_of("Matrix").unwrap().as_deref() == Some(MATRIX_ARTIFACT));
    assert!(classes.artifact_of("Stage").unwrap().as_deref() == Some(PIPELINE_ARTIFACT));
    assert!(classes.artifact_of("JacobiWorker").unwrap().as_deref() == Some(JACOBI_ARTIFACT));
    for seed in SEEDS {
        let mut rng = XorShift::seeded(seed);

        let mut counter = Counter::from_args(&[Value::I64(rng.next() as i64 >> 1)]);
        invoke_detached(&mut counter, "add", &[Value::I64(rng.below(100) as i64)]).unwrap();
        let (obj, twin) = with_json_twin!(Counter, counter);
        same_answers(
            &format!("seed {seed} Counter"),
            &classes,
            obj,
            twin,
            &[("get", vec![]), ("add", vec![Value::I64(1)])],
        );

        let mut blob = Blob::from_args(&[Value::I64(rng.below(3000) as i64)]);
        invoke_detached(&mut blob, "fill", &[Value::I64(rng.below(256) as i64)]).unwrap();
        let (obj, twin) = with_json_twin!(Blob, blob);
        same_answers(
            &format!("seed {seed} Blob"),
            &classes,
            obj,
            twin,
            &[("size", vec![]), ("checksum", vec![])],
        );

        let chunk = ColChunk::from_args(&[rng.value(3)]);
        let (obj, twin) = with_json_twin!(ColChunk, chunk);
        assert_eq!(obj.class_name(), COL_CHUNK_CLASS);
        same_answers(
            &format!("seed {seed} ColChunk"),
            &classes,
            obj,
            twin,
            &[("col_get", vec![]), ("col_len", vec![])],
        );

        let (k, m) = (1 + rng.below(5), 1 + rng.below(5));
        let mut matrix = Matrix::from_args(&[]);
        let init = [
            Value::I64(k as i64),
            Value::I64(m as i64),
            rng.floats(k * m),
            Value::Bool(rng.flag()),
        ];
        invoke_detached(&mut matrix, "init", &init).unwrap();
        let n_rows = 1 + rng.below(3);
        let rows = rng.floats(k * n_rows);
        let (obj, twin) = with_json_twin!(Matrix, matrix);
        same_answers(
            &format!("seed {seed} Matrix"),
            &classes,
            obj,
            twin,
            &[("ready", vec![]), ("multiply", vec![Value::I64(7), rows])],
        );

        let mut stage = Stage::from_args(&[
            Value::I64(rng.below(9) as i64),
            Value::F64(rng.below(5000) as f64),
        ]);
        for _ in 0..rng.below(4) {
            let item = rng.floats(3);
            invoke_detached(&mut stage, "process", &[item]).unwrap();
        }
        if rng.flag() {
            // With a successor `process` fails on the detached instance —
            // naming the handle's object id, so the handle is compared too.
            invoke_detached(&mut stage, "set_next", &[Value::Handle(rng.handle())]).unwrap();
        }
        let item = rng.floats(4);
        let (obj, twin) = with_json_twin!(Stage, stage);
        same_answers(
            &format!("seed {seed} Stage"),
            &classes,
            obj,
            twin,
            &[
                ("processed", vec![]),
                ("process", vec![item]),
                ("processed", vec![]),
            ],
        );

        let (rows, cols) = (1 + rng.below(5), 3 + rng.below(5));
        let mut worker = JacobiWorker::from_args(&[
            Value::I64(rows as i64),
            Value::I64(cols as i64),
            Value::Bool(rng.flag()),
            Value::Bool(rng.flag()),
            Value::Bool(rng.below(4) > 0),
        ])
        .unwrap();
        for which in 0..2 {
            let ghost = rng.floats(cols);
            invoke_detached(&mut worker, "set_ghost", &[Value::I64(which), ghost]).unwrap();
        }
        for _ in 0..rng.below(3) {
            invoke_detached(&mut worker, "step", &[]).unwrap();
        }
        let mut calls: Vec<Call> = vec![
            ("boundary", vec![Value::I64(0)]),
            ("boundary", vec![Value::I64(1)]),
            ("step", vec![]),
        ];
        calls.extend((0..rows).map(|r| ("row", vec![Value::I64(r as i64)])));
        let (obj, twin) = with_json_twin!(JacobiWorker, worker);
        same_answers(
            &format!("seed {seed} JacobiWorker"),
            &classes,
            obj,
            twin,
            &calls,
        );
    }
}

/// The layout of one multi-field class, byte for byte: a stored `Stage` is
/// read back by a later build, so field order is part of the format.
#[test]
fn stage_layout_is_pinned() {
    let mut stage = Stage::from_args(&[Value::I64(-2), Value::F64(1.5)]);
    let next = ObjectHandle {
        id: ObjectId(0x0102_0304_0506_0708),
        origin: AgentAddr::app_oa(NodeId(9), AppId(5)),
    };
    invoke_detached(&mut stage, "set_next", &[Value::Handle(next)]).unwrap();
    invoke_detached(&mut stage, "process", &[Value::floats(vec![])]).unwrap_err();
    let mut expect = vec![1u8]; // version
    expect.extend_from_slice(&(-2i64).to_le_bytes()); // stage_id
    expect.extend_from_slice(&1.5f64.to_le_bytes()); // flops_per_element
    expect.push(1); // next: Some
    expect.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]); // handle: object id
    expect.extend_from_slice(&[9, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0]); // node, App, app id, reserved
    expect.extend_from_slice(&1u64.to_le_bytes()); // processed
    assert_eq!(stage.snapshot().unwrap(), expect);
}
