//! Tests of the stand-ins in `stubs/`: they are this repository's code and
//! part of what the benchmark measures, so their behaviour is pinned here —
//! the JSON layout real `serde_json` gives the same derives, and the channel
//! semantics the runtime relies on.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i32, String);

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum Key {
    Alpha,
    Beta,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    One(f64),
    Two(i64, bool),
    Named { id: Newtype, tag: Option<String> },
    Bulk(Arc<Vec<f32>>),
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    pub name: String,
    pub(crate) bytes: Vec<u8>,
    shapes: Vec<Shape>,
    map: BTreeMap<Key, Pair>,
    missing: Option<u32>,
}

fn record() -> Record {
    Record {
        name: "a \"quoted\" \\ name\n\u{1}é😀".into(),
        bytes: vec![0, 7, 255],
        shapes: vec![
            Shape::Unit,
            Shape::One(-1.5e-7),
            Shape::Two(i64::MIN, true),
            Shape::Named {
                id: Newtype(u64::MAX),
                tag: None,
            },
            Shape::Bulk(Arc::new(vec![0.1, 3.0e10])),
        ],
        map: BTreeMap::from([
            (Key::Beta, Pair(-3, "x".into())),
            (Key::Alpha, Pair(4, String::new())),
        ]),
        missing: None,
    }
}

/// Structs as objects in field order, newtypes as their inner value, enums
/// externally tagged, maps in key order, `None` as `null`: `serde_json`'s
/// layout. Floats are the one difference: Rust's shortest round-trip digits
/// without the exponent form `ryu` would pick (`-1.5e-7`); both parse back to
/// the same value.
#[test]
fn json_layout_follows_serde_json() {
    let text = String::from_utf8(serde_json::to_vec(&record()).unwrap()).unwrap();
    assert_eq!(
        text,
        "{\"name\":\"a \\\"quoted\\\" \\\\ name\\n\\u0001é😀\",\"bytes\":[0,7,255],\
         \"shapes\":[\"Unit\",{\"One\":-0.00000015},{\"Two\":[-9223372036854775808,true]},\
         {\"Named\":{\"id\":18446744073709551615,\"tag\":null}},{\"Bulk\":[0.1,30000000000]}],\
         \"map\":{\"Alpha\":[4,\"\"],\"Beta\":[-3,\"x\"]},\"missing\":null}"
    );
}

#[test]
fn values_round_trip() {
    let bytes = serde_json::to_vec(&record()).unwrap();
    assert_eq!(serde_json::from_slice::<Record>(&bytes).unwrap(), record());
}

#[test]
fn parser_takes_white_space_unknown_fields_escapes_and_absent_options() {
    let text =
        " { \"extra\" : [1, {\"a\": \"]\"}, null] , \"name\" : \"\\u00e9\\ud83d\\ude00\\/\" ,\n\
                \"bytes\":[ ] ,\"shapes\":[ {\"Unit\":null} ],\"map\":{ } } ";
    let r: Record = serde_json::from_slice(text.as_bytes()).unwrap();
    assert_eq!(r.name, "é😀/");
    assert_eq!(r.shapes, [Shape::Unit]);
    assert_eq!(r.missing, None);
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    for text in [
        "",
        "{",
        "{\"name\":\"x\"}",
        "{\"name\":\"x\",\"bytes\":[256],\"shapes\":[],\"map\":{}}",
        "{\"name\":\"x\",\"bytes\":[1.5],\"shapes\":[],\"map\":{}}",
        "{\"name\":\"x\",\"bytes\":[],\"shapes\":[\"Nope\"],\"map\":{}}",
        "{\"name\":\"x\",\"bytes\":[],\"shapes\":[],\"map\":{}} trailing",
        "{\"name\":\"\\ud83d\",\"bytes\":[],\"shapes\":[],\"map\":{}}",
        "{\"name\":\"unterminated",
    ] {
        assert!(
            serde_json::from_slice::<Record>(text.as_bytes()).is_err(),
            "{text}"
        );
    }
    assert!(serde_json::from_slice::<Shape>(b"{\"One\":null}").is_err());
}

#[test]
fn non_finite_floats_write_null_as_serde_json_does() {
    assert_eq!(
        serde_json::to_vec(&Shape::One(f64::NAN)).unwrap(),
        b"{\"One\":null}"
    );
}

#[test]
fn the_runtime_state_codec_round_trips_a_blob() {
    // What `lifecycle` migrates: `jsym_core::snapshot_state` of 16 KiB.
    let state = Record {
        bytes: (0..16_384).map(|i| (i % 251) as u8).collect(),
        ..record()
    };
    let bytes = jsym_core::snapshot_state(&state).unwrap();
    assert_eq!(serde_json::from_slice::<Record>(&bytes).unwrap(), state);
}

#[test]
fn channel_is_fifo_multi_consumer_and_disconnects() {
    use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError};
    let (tx, rx) = unbounded();
    (0..100).for_each(|i| tx.send(i).unwrap());
    assert_eq!(
        (0..100).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
        (0..100).collect::<Vec<_>>()
    );
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvTimeoutError::Timeout)
    );

    // Two consumers share one queue: every message is taken exactly once.
    let rx2 = rx.clone();
    let takers: Vec<_> = [rx, rx2]
        .into_iter()
        .map(|rx| std::thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).count()))
        .collect();
    (0..1000).for_each(|i| tx.send(i).unwrap());
    drop(tx);
    assert_eq!(
        takers.into_iter().map(|t| t.join().unwrap()).sum::<usize>(),
        1000
    );

    // A full bounded channel blocks the sender until a slot frees up.
    let (tx, rx) = bounded(1);
    tx.send(1).unwrap();
    let sender = std::thread::spawn(move || tx.send(2).is_ok());
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
    assert!(sender.join().unwrap());
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    let (tx, rx) = bounded::<u8>(1);
    drop(rx);
    assert!(tx.send(1).is_err());
}

#[test]
fn condvar_waits_in_place_and_locks_do_not_poison() {
    use parking_lot::{Condvar, Mutex};
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let waker = {
        let pair = pair.clone();
        std::thread::spawn(move || {
            *pair.0.lock() = true;
            pair.1.notify_all();
        })
    };
    let mut ready = pair.0.lock();
    while !*ready {
        pair.1.wait(&mut ready);
    }
    // A timed wait hands the guard back, still locked and usable.
    pair.1.wait_for(&mut ready, Duration::from_millis(1));
    assert!(*ready);
    drop(ready);
    waker.join().unwrap();

    let poisoned = pair.clone();
    let _ = std::thread::spawn(move || {
        let _guard = poisoned.0.lock();
        panic!("poison attempt");
    })
    .join();
    assert!(
        *pair.0.lock(),
        "the lock is usable after a panicking holder"
    );
}
