//! The state codec from outside the crate: random values round-trip at
//! their analytic wire size, a class's state comes back, and hostile input
//! is an error — never a panic, never an allocation sized by a lie.
//!
//! Plain `#[test]`s with an in-file xorshift: the seeds are fixed, so a
//! failure (which names its seed) reproduces by running the test again.

use jsym_core::state::{decode_state, Reader, State, Writer, STATE_VERSION};
use jsym_core::testkit::{invoke_detached, Blob, Counter};
use jsym_core::{
    encode_state, AgentAddr, AppId, ClassRegistry, JsError, ObjectHandle, ObjectId, Value,
};
use jsym_net::NodeId;

const SEEDS: std::ops::Range<u64> = 1..33;
const BLOB_BYTES: usize = 16 << 10;

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
}

fn handle(rng: &mut XorShift) -> ObjectHandle {
    let node = NodeId(rng.next() as u32);
    ObjectHandle {
        id: ObjectId(rng.next()),
        origin: match rng.below(3) {
            0 => AgentAddr::pub_oa(node),
            1 => AgentAddr::app_oa(node, AppId(rng.next() as u32)),
            _ => AgentAddr::dir(node),
        },
    }
}

/// A random value, lists at most `depth` deep.
fn value(rng: &mut XorShift, depth: usize) -> Value {
    match rng.below(if depth == 0 { 8 } else { 9 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next() & 1 == 1),
        2 => Value::I64(rng.next() as i64),
        3 => Value::F64(rng.next() as i64 as f64 / 1024.0),
        4 => {
            let n = rng.below(12);
            Value::Str(
                (0..n)
                    .map(|_| "aé🦀 \"\\\n"[..].chars().nth(rng.below(7)).unwrap())
                    .collect(),
            )
        }
        5 => {
            let n = rng.below(300);
            Value::Bytes((0..n).map(|_| rng.next() as u8).collect())
        }
        6 => {
            let n = rng.below(300);
            Value::floats((0..n).map(|_| rng.next() as i32 as f32 / 64.0).collect())
        }
        7 => Value::Handle(handle(rng)),
        _ => {
            let n = rng.below(5);
            Value::List((0..n).map(|_| value(rng, depth - 1)).collect())
        }
    }
}

fn bare(v: &Value) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.finish().expect("generated values are encodable")
}

#[test]
fn random_values_round_trip_at_their_wire_size() {
    for seed in SEEDS {
        let mut rng = XorShift::seeded(seed);
        for case in 0..40 {
            let v = value(&mut rng, 4);
            let bytes = bare(&v);
            assert_eq!(
                bytes.len(),
                v.wire_size(),
                "seed {seed} case {case}: encoded length is not wire_size for {v:?}"
            );
            let mut r = Reader::new(&bytes);
            let back =
                Value::decode(&mut r).unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}"));
            r.finish()
                .unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}"));
            assert_eq!(back, v, "seed {seed} case {case}");
            // And inside a state: version byte, then the same bytes.
            let state = encode_state(&v).unwrap();
            assert_eq!(state[0], STATE_VERSION);
            assert_eq!(&state[1..], &bytes[..], "seed {seed} case {case}");
        }
    }
}

/// Any corruption of a valid encoding decodes to *something* or fails with
/// `Serialization`; it never panics.
#[test]
fn corrupted_values_never_panic() {
    for seed in SEEDS {
        let mut rng = XorShift::seeded(seed);
        for case in 0..40 {
            let mut bytes = encode_state(&value(&mut rng, 4)).unwrap();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            bytes.truncate(rng.below(bytes.len() + 1));
            match decode_state::<Value>(&bytes) {
                Ok(_) | Err(JsError::Serialization(_)) => {}
                Err(other) => panic!("seed {seed} case {case}: unexpected error {other}"),
            }
        }
    }
}

fn registry() -> ClassRegistry {
    let reg = ClassRegistry::new();
    reg.register_class::<Counter, _>("Counter", None, |args| Ok(Counter::from_args(args)));
    reg.register_class::<Blob, _>("Blob", None, |args| Ok(Blob::from_args(args)));
    reg
}

fn blob_state(reg: &ClassRegistry, size: usize, fill: u8) -> Vec<u8> {
    let mut blob = reg.create("Blob", &[Value::I64(size as i64)]).unwrap();
    invoke_detached(&mut *blob, "fill", &[Value::I64(fill as i64)]).unwrap();
    blob.snapshot().unwrap()
}

#[test]
fn class_state_round_trips_and_its_layout_is_pinned() {
    let reg = registry();
    for seed in SEEDS {
        let mut rng = XorShift::seeded(seed);
        let start = rng.next() as i64 >> 1;
        let mut counter = reg.create("Counter", &[Value::I64(start)]).unwrap();
        invoke_detached(&mut *counter, "add", &[Value::I64(3)]).unwrap();
        let state = counter.snapshot().unwrap();
        let mut expect = vec![STATE_VERSION];
        expect.extend_from_slice(&(start + 3).to_le_bytes());
        assert_eq!(state, expect, "seed {seed}: Counter is version + value");
        let mut back = reg.restore("Counter", &state).unwrap();
        assert_eq!(
            invoke_detached(&mut *back, "get", &[]).unwrap(),
            Value::I64(start + 3),
            "seed {seed}"
        );

        let (size, fill) = (rng.below(5000), rng.next() as u8);
        let state = blob_state(&reg, size, fill);
        assert_eq!(
            state.len(),
            1 + 4 + size,
            "seed {seed}: Blob is version + count + bytes"
        );
        assert_eq!(state[1..5], (size as u32).to_le_bytes(), "seed {seed}");
        let mut back = reg.restore("Blob", &state).unwrap();
        assert_eq!(
            invoke_detached(&mut *back, "checksum", &[]).unwrap(),
            Value::I64(size as i64 * fill as i64),
            "seed {seed}"
        );
    }
}

fn rejected(reg: &ClassRegistry, class: &str, bytes: &[u8], what: &str) {
    match reg.restore(class, bytes) {
        Err(JsError::Serialization(_)) => {}
        Err(other) => panic!("{what}: expected Serialization, got {other}"),
        Ok(_) => panic!("{what}: restored"),
    }
}

#[test]
fn hostile_state_fails_cleanly() {
    let reg = registry();
    let good = blob_state(&reg, BLOB_BYTES, 0x5A);
    assert!(reg.restore("Blob", &good).is_ok());

    rejected(&reg, "Blob", b"", "empty");
    rejected(&reg, "Blob", b"not json", "text");
    rejected(&reg, "Blob", br#"{"data":[171,171]}"#, "the old JSON state");
    for version in [0, STATE_VERSION + 1, 0xFF] {
        let mut wrong = good.clone();
        wrong[0] = version;
        rejected(&reg, "Blob", &wrong, "wrong version byte");
    }
    for cut in 0..good.len() {
        rejected(&reg, "Blob", &good[..cut], "a strict prefix");
    }
    let mut trailing = good.clone();
    trailing.push(0);
    rejected(&reg, "Blob", &trailing, "trailing bytes");
    let mut counter_trailing = encode_state(&7i64).unwrap();
    counter_trailing.push(0);
    rejected(
        &reg,
        "Counter",
        &counter_trailing,
        "trailing bytes after a Counter",
    );
}

/// A count of `u32::MAX` in front of a few bytes: refused before anything is
/// sized by it, on the bulk path (`Vec<u8>`, `Vec<f32>`), the per-element
/// path (`Vec<Value>`, `Vec<String>`) and inside a `Value`.
#[test]
fn a_lying_length_prefix_is_refused_before_allocating() {
    let reg = registry();
    let mut lying = vec![STATE_VERSION];
    lying.extend_from_slice(&u32::MAX.to_le_bytes());
    lying.extend_from_slice(&[0xAB; 64]);
    rejected(&reg, "Blob", &lying, "u32::MAX bytes");
    assert!(matches!(
        decode_state::<Vec<f32>>(&lying),
        Err(JsError::Serialization(_))
    ));
    assert!(matches!(
        decode_state::<Vec<u64>>(&lying),
        Err(JsError::Serialization(_))
    ));
    assert!(matches!(
        decode_state::<Vec<Value>>(&lying),
        Err(JsError::Serialization(_))
    ));
    assert!(matches!(
        decode_state::<Vec<String>>(&lying),
        Err(JsError::Serialization(_))
    ));
    assert!(matches!(
        decode_state::<String>(&lying),
        Err(JsError::Serialization(_))
    ));
    for tag_of in [
        Value::Str(String::new()),
        Value::Bytes(Vec::new()),
        Value::floats(Vec::new()),
        Value::List(Vec::new()),
    ] {
        let mut inside = vec![STATE_VERSION, bare(&tag_of)[0]];
        inside.extend_from_slice(&lying[1..]);
        assert!(
            matches!(
                decode_state::<Value>(&inside),
                Err(JsError::Serialization(_))
            ),
            "a lying count inside {tag_of:?}"
        );
    }
    // A count that fits the input but not once multiplied by the width.
    let mut wide = vec![STATE_VERSION];
    wide.extend_from_slice(&40u32.to_le_bytes());
    wide.extend_from_slice(&[0; 64]);
    assert!(matches!(
        decode_state::<Vec<f64>>(&wide),
        Err(JsError::Serialization(_))
    ));
}
