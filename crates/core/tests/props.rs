//! Property-based tests for the runtime's data model and live invariants.

use jsym_core::testkit::{register_test_classes, shell_with_idle_machines};
use jsym_core::{JsObj, MigrateTarget, Placement, Value};
use jsym_net::NodeId;
use proptest::prelude::*;

// ------------------------------------------------------------- value model

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<i32>().prop_map(|v| Value::F64(v as f64 / 3.0)),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        proptest::collection::vec(-1e6f32..1e6, 0..64).prop_map(Value::floats),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        proptest::collection::vec(inner, 0..6).prop_map(Value::List)
    })
}

proptest! {
    /// Every value survives the state codec (the migration and persistence
    /// format) and occupies exactly its analytic wire size there.
    #[test]
    fn value_state_round_trip(v in arb_value()) {
        let bytes = jsym_core::encode_state(&v).unwrap();
        prop_assert_eq!(bytes.len(), 1 + v.wire_size());
        let back: Value = jsym_core::state::decode_state(&bytes).unwrap();
        prop_assert_eq!(v, back);
    }

    /// Wire size is positive and monotone under list extension.
    #[test]
    fn wire_size_positive_and_monotone(v in arb_value(), w in arb_value()) {
        prop_assert!(v.wire_size() >= 1);
        let small = Value::List(vec![v.clone()]);
        let big = Value::List(vec![v, w]);
        prop_assert!(big.wire_size() > small.wire_size());
    }

    /// Wire size of a float vector is linear in its length.
    #[test]
    fn f32vec_wire_size_linear(n in 0usize..4096) {
        let v = Value::floats(vec![0.0; n]);
        prop_assert_eq!(v.wire_size(), 5 + 4 * n);
    }
}

// ----------------------------------------------------- live runtime (slow)

/// Random sequences of object operations must preserve the counter's value
/// semantics regardless of placement and migration interleaving.
#[derive(Clone, Debug)]
enum Op {
    Add(i64),
    MigrateTo(u8),
    Store,
    SyncRead,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-100i64..100).prop_map(Op::Add),
        (0u8..3).prop_map(Op::MigrateTo),
        Just(Op::Store),
        Just(Op::SyncRead),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case boots a deployment; keep the count low
        .. ProptestConfig::default()
    })]

    #[test]
    fn object_semantics_invariant_under_ops(ops in proptest::collection::vec(arb_op(), 1..14)) {
        let d = shell_with_idle_machines(3).boot();
        register_test_classes(&d);
        let reg = d.register_app().unwrap();
        let obj = JsObj::create(&reg, "Counter", &[], Placement::Auto, None).unwrap();
        let mut model = 0i64;
        let mut stored: Vec<(String, i64)> = Vec::new();
        for op in &ops {
            match op {
                Op::Add(k) => {
                    let v = obj.sinvoke("add", &[Value::I64(*k)]).unwrap();
                    model += k;
                    prop_assert_eq!(v, Value::I64(model));
                }
                Op::MigrateTo(n) => {
                    obj.migrate(MigrateTarget::ToPhys(NodeId(*n as u32)), None).unwrap();
                    prop_assert_eq!(obj.get_location().unwrap(), NodeId(*n as u32));
                }
                Op::Store => {
                    let key = obj.store(None).unwrap();
                    stored.push((key, model));
                }
                Op::SyncRead => {
                    prop_assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(model));
                }
            }
        }
        // Every stored snapshot resurrects with the value at store time.
        for (key, expect) in stored {
            let copy = reg.load_stored(&key, Placement::Auto, None).unwrap();
            prop_assert_eq!(copy.sinvoke("get", &[]).unwrap(), Value::I64(expect));
        }
        // Exactly one live object table entry per surviving object.
        let hosted: usize = d
            .machines()
            .iter()
            .map(|&m| d.node_stats(m).unwrap().objects_hosted)
            .sum();
        // obj + the resurrected copies.
        prop_assert!(hosted >= 1);
        reg.unregister().unwrap();
        d.shutdown();
    }

    /// Migration conservation: migrations_in == migrations_out across the
    /// deployment, and the object is hosted exactly once afterwards.
    #[test]
    fn migrations_conserve_objects(hops in proptest::collection::vec(0u8..4, 1..10)) {
        let d = shell_with_idle_machines(4).boot();
        register_test_classes(&d);
        let reg = d.register_app().unwrap();
        let obj = JsObj::create(&reg, "Counter", &[Value::I64(5)], Placement::OnPhys(NodeId(0)), None).unwrap();
        for &h in &hops {
            obj.migrate(MigrateTarget::ToPhys(NodeId(h as u32)), None).unwrap();
        }
        let stats: Vec<_> = d.machines().iter().map(|&m| d.node_stats(m).unwrap()).collect();
        let ins: u64 = stats.iter().map(|s| s.migrations_in).sum();
        let outs: u64 = stats.iter().map(|s| s.migrations_out).sum();
        prop_assert_eq!(ins, outs);
        let hosted: usize = stats.iter().map(|s| s.objects_hosted).sum();
        prop_assert_eq!(hosted, 1, "object must live exactly once");
        prop_assert_eq!(obj.sinvoke("get", &[]).unwrap(), Value::I64(5));
        d.shutdown();
    }
}
