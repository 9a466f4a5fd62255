//! The binary codec object state travels in.
//!
//! Migration (§4.6), persistence (§4.7) and recovery checkpoints all ship
//! *the serialized object*. This module is that serialization: a fixed-width
//! little-endian [`Writer`]/[`Reader`] in the manner of `jsym-dir`'s codec,
//! and the [`State`] trait a class's fields implement. A state is one
//! [`STATE_VERSION`] byte followed by the fields in declaration order; there
//! are no field names, no padding and no self-description, so the bytes
//! shipped are about the bytes held.
//!
//! A [`Value`] encodes to exactly [`Value::wire_size`] bytes (tag + payload,
//! 5-byte container header, 25-byte handle): the size the cost model charges
//! for an argument and the size a state holding it ships are one number.
//!
//! Input is untrusted (a stored object may come from any file): every length
//! is checked against the bytes that remain before anything is allocated,
//! nesting is bounded by [`MAX_VALUE_DEPTH`], and a state must be consumed to
//! its last byte. Every failure is a [`JsError::Serialization`].

use crate::error::JsError;
use crate::ids::{AgentAddr, AgentKind, AppId, ObjectHandle, ObjectId};
use crate::value::Value;
use crate::Result;
use jsym_net::NodeId;
use std::sync::Arc;

/// First byte of every encoded state. Bumped when a layout below changes.
pub const STATE_VERSION: u8 = 1;

/// Deepest `Value::List` nesting the codec encodes or decodes. Decoding
/// recurses once per level, so the bound is what keeps hostile input from
/// overflowing the stack.
pub const MAX_VALUE_DEPTH: usize = 64;

fn malformed(what: &str) -> JsError {
    JsError::Serialization(format!("malformed object state: {what}"))
}

/// Byte writer. Appending never fails; a length beyond `u32::MAX` or a value
/// nested beyond [`MAX_VALUE_DEPTH`] is remembered and reported by
/// [`Writer::finish`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
    depth: usize,
    unencodable: Option<&'static str>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends raw bytes.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends an element count as a u32.
    pub fn count(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.raw(&n.to_le_bytes()),
            Err(_) => self.unencodable = Some("a container holds more than u32::MAX elements"),
        }
    }

    /// Finishes, returning the encoded buffer.
    pub fn finish(self) -> Result<Vec<u8>> {
        match self.unencodable {
            None => Ok(self.buf),
            Some(why) => Err(JsError::Serialization(format!(
                "object state cannot be encoded: {why}"
            ))),
        }
    }
}

/// Byte reader over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, depth: 0 }
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(malformed("truncated"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads an element count. Every element encodes to at least one byte, so
    /// a count beyond the bytes that remain is rejected here, before the
    /// caller sizes anything by it.
    pub fn count(&mut self) -> Result<usize> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n > self.buf.len() {
            return Err(malformed("a length prefix exceeds the input"));
        }
        Ok(n)
    }

    /// Succeeds when the whole buffer has been consumed.
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(malformed("trailing bytes"))
        }
    }
}

/// A type that can be part of an object's state.
///
/// `encode` and `decode` must mirror each other field for field.
/// [`impl_state!`](crate::impl_state) writes both for a plain struct.
pub trait State: Sized {
    /// Appends this value.
    fn encode(&self, w: &mut Writer);

    /// Reads a value back.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Appends `items` back to back (no count). Element types with a fixed
    /// width override this to write the whole slice in one pass, as
    /// `Hash::hash_slice` does for hashing.
    fn encode_slice(items: &[Self], w: &mut Writer) {
        for item in items {
            item.encode(w);
        }
    }

    /// Reads `n` values back to back; `n` has been checked by
    /// [`Reader::count`].
    fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// Encodes an object's state: the version byte, then the state. This is
/// what a [`JsClass::snapshot`](crate::JsClass::snapshot) returns.
pub fn encode_state<T: State>(state: &T) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.u8(STATE_VERSION);
    state.encode(&mut w);
    w.finish()
}

/// Decodes what [`encode_state`] produced; the whole input must be consumed.
pub fn decode_state<T: State>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    match r.u8() {
        Ok(STATE_VERSION) => {}
        Ok(other) => {
            return Err(JsError::Serialization(format!(
                "object state is format version {other}, not {STATE_VERSION}"
            )))
        }
        Err(_) => return Err(malformed("empty")),
    }
    let state = T::decode(&mut r)?;
    r.finish()?;
    Ok(state)
}

/// Implements [`State`] for a struct with named fields (or none), each of
/// which is itself `State`, encoded in the order listed:
///
/// ```
/// struct Account { owner: String, cents: i64, history: Vec<i64> }
/// jsym_core::impl_state!(Account { owner, cents, history });
///
/// let a = Account { owner: "ada".into(), cents: 5, history: vec![2, 3] };
/// let bytes = jsym_core::encode_state(&a).unwrap();
/// let b: Account = jsym_core::state::decode_state(&bytes).unwrap();
/// assert_eq!((b.owner.as_str(), b.cents, b.history), ("ada", 5, vec![2, 3]));
/// ```
#[macro_export]
macro_rules! impl_state {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::state::State for $ty {
            #[allow(unused_variables)]
            fn encode(&self, w: &mut $crate::state::Writer) {
                $( $crate::state::State::encode(&self.$field, w); )*
            }

            #[allow(unused_variables)]
            fn decode(r: &mut $crate::state::Reader<'_>) -> $crate::Result<Self> {
                Ok($ty { $( $field: $crate::state::State::decode(r)?, )* })
            }
        }
    };
}

impl State for u8 {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u8()
    }

    fn encode_slice(items: &[Self], w: &mut Writer) {
        w.raw(items);
    }

    fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>> {
        Ok(r.take(n)?.to_vec())
    }
}

/// Fixed-width little-endian numbers; a slice of them is one resize and one
/// pass of `N`-byte copies the compiler turns into a block move.
macro_rules! le_number_state {
    ($($t:ty),*) => {$(
        impl State for $t {
            fn encode(&self, w: &mut Writer) {
                w.raw(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }

            fn encode_slice(items: &[Self], w: &mut Writer) {
                const N: usize = std::mem::size_of::<$t>();
                let at = w.buf.len();
                w.buf.resize(at + items.len() * N, 0);
                for (dst, v) in w.buf[at..].chunks_exact_mut(N).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = r.take(n.checked_mul(N).ok_or_else(|| malformed("length overflow"))?)?;
                Ok(bytes
                    .chunks_exact(N)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact yields N bytes")))
                    .collect())
            }
        }
    )*};
}
le_number_state!(u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// `usize` travels as a u64 so a state means the same on every host.
impl State for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        usize::try_from(u64::decode(r)?).map_err(|_| malformed("a usize does not fit this host"))
    }
}

impl State for bool {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(malformed("a bool is neither 0 nor 1")),
        }
    }
}

impl State for String {
    fn encode(&self, w: &mut Writer) {
        w.count(self.len());
        w.raw(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| malformed("a string is not UTF-8"))
    }
}

impl<T: State> State for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            _ => Err(malformed("an Option tag is neither 0 nor 1")),
        }
    }
}

impl<T: State> State for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.count(self.len());
        T::encode_slice(self, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        T::decode_vec(r, n)
    }
}

/// Shared data is written through the pointer and comes back unshared.
impl<T: State> State for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        T::decode(r).map(Arc::new)
    }
}

const AGENT_PUB: u32 = 0;
const AGENT_APP: u32 = 1;
const AGENT_DIR: u32 = 2;

/// 24 bytes: object id (u64), origin node (u32), origin agent kind (u32),
/// application id (u32, zero unless the kind is `App`), four reserved zero
/// bytes.
impl State for ObjectHandle {
    fn encode(&self, w: &mut Writer) {
        let (kind, app) = match self.origin.agent {
            AgentKind::Pub => (AGENT_PUB, 0),
            AgentKind::App(app) => (AGENT_APP, app.0),
            AgentKind::Dir => (AGENT_DIR, 0),
        };
        self.id.0.encode(w);
        for word in [self.origin.node.0, kind, app, 0] {
            word.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let id = ObjectId(u64::decode(r)?);
        let node = NodeId(u32::decode(r)?);
        let (kind, app, reserved) = (u32::decode(r)?, u32::decode(r)?, u32::decode(r)?);
        let agent = match (kind, app, reserved) {
            (AGENT_PUB, 0, 0) => AgentKind::Pub,
            (AGENT_APP, app, 0) => AgentKind::App(AppId(app)),
            (AGENT_DIR, 0, 0) => AgentKind::Dir,
            _ => return Err(malformed("an object handle names no agent")),
        };
        Ok(ObjectHandle {
            id,
            origin: AgentAddr { node, agent },
        })
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_F32VEC: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_HANDLE: u8 = 8;

/// One tag byte, then the payload's own encoding: `encode` appends exactly
/// [`Value::wire_size`] bytes.
impl State for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(TAG_NULL),
            Value::Bool(v) => {
                w.u8(TAG_BOOL);
                v.encode(w);
            }
            Value::I64(v) => {
                w.u8(TAG_I64);
                v.encode(w);
            }
            Value::F64(v) => {
                w.u8(TAG_F64);
                v.encode(w);
            }
            Value::Str(v) => {
                w.u8(TAG_STR);
                v.encode(w);
            }
            Value::Bytes(v) => {
                w.u8(TAG_BYTES);
                v.encode(w);
            }
            Value::F32Vec(v) => {
                w.u8(TAG_F32VEC);
                v.encode(w);
            }
            Value::List(v) => {
                w.u8(TAG_LIST);
                w.depth += 1;
                if w.depth > MAX_VALUE_DEPTH {
                    w.unencodable = Some("a Value::List nests deeper than MAX_VALUE_DEPTH");
                }
                v.encode(w);
                w.depth -= 1;
            }
            Value::Handle(v) => {
                w.u8(TAG_HANDLE);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(State::decode(r)?),
            TAG_I64 => Value::I64(State::decode(r)?),
            TAG_F64 => Value::F64(State::decode(r)?),
            TAG_STR => Value::Str(State::decode(r)?),
            TAG_BYTES => Value::Bytes(State::decode(r)?),
            TAG_F32VEC => Value::F32Vec(State::decode(r)?),
            TAG_LIST => {
                if r.depth == MAX_VALUE_DEPTH {
                    return Err(malformed("a Value::List nests deeper than MAX_VALUE_DEPTH"));
                }
                r.depth += 1;
                let items = State::decode(r);
                r.depth -= 1;
                Value::List(items?)
            }
            TAG_HANDLE => Value::Handle(State::decode(r)?),
            _ => return Err(malformed("an unknown Value tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: State + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_state(&v).unwrap();
        assert_eq!(decode_state::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_and_containers_round_trip() {
        round_trip(0xABu8);
        round_trip(-5i64);
        round_trip(usize::MAX);
        round_trip(f64::MIN_POSITIVE);
        round_trip(true);
        round_trip("héllo".to_owned());
        round_trip(Some(vec![1.5f32, -2.0]));
        round_trip(None::<u32>);
        round_trip(vec![vec![1u16, 2], vec![]]);
        round_trip(Arc::new(vec![0.25f32; 3]));
    }

    #[test]
    fn layout_is_version_then_fixed_width_little_endian() {
        assert_eq!(
            encode_state(&0x0102u16).unwrap(),
            [STATE_VERSION, 0x02, 0x01]
        );
        assert_eq!(
            encode_state(&vec![7u8, 8]).unwrap(),
            [STATE_VERSION, 2, 0, 0, 0, 7, 8]
        );
        assert_eq!(
            encode_state(&Some("a".to_owned())).unwrap(),
            [STATE_VERSION, 1, 1, 0, 0, 0, b'a']
        );
        assert_eq!(
            encode_state(&vec![1.0f32]).unwrap(),
            [STATE_VERSION, 1, 0, 0, 0, 0, 0, 0x80, 0x3f]
        );
    }

    #[test]
    fn nan_payloads_survive() {
        let weird = f32::from_bits(0x7fc0_1234);
        let back: Vec<f32> = decode_state(&encode_state(&vec![weird]).unwrap()).unwrap();
        assert_eq!(back[0].to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_tags_are_rejected() {
        for bytes in [
            &[STATE_VERSION, 2][..], // bool
            &[STATE_VERSION, 9][..], // Option tag
        ] {
            assert!(decode_state::<bool>(bytes).is_err());
            assert!(decode_state::<Option<u8>>(bytes).is_err());
        }
        assert!(decode_state::<Value>(&[STATE_VERSION, 200]).is_err());
        assert!(decode_state::<String>(&[STATE_VERSION, 1, 0, 0, 0, 0xff]).is_err());
    }

    #[test]
    fn handle_rejects_unknown_agents_and_reserved_bytes() {
        let h = ObjectHandle {
            id: ObjectId(9),
            origin: AgentAddr::app_oa(NodeId(3), AppId(4)),
        };
        let good = encode_state(&h).unwrap();
        assert_eq!(good.len(), 1 + 24);
        assert_eq!(decode_state::<ObjectHandle>(&good).unwrap(), h);
        let mut bad_kind = good.clone();
        bad_kind[1 + 12] = 7;
        assert!(decode_state::<ObjectHandle>(&bad_kind).is_err());
        let mut bad_reserved = good;
        bad_reserved[1 + 20] = 1;
        assert!(decode_state::<ObjectHandle>(&bad_reserved).is_err());
    }

    #[test]
    fn nesting_is_bounded_both_ways() {
        let nest = |depth: usize| (0..depth).fold(Value::Null, |v, _| Value::List(vec![v]));
        round_trip(nest(MAX_VALUE_DEPTH));
        assert!(matches!(
            encode_state(&nest(MAX_VALUE_DEPTH + 1)),
            Err(JsError::Serialization(_))
        ));
        // A hostile encoding of a very deep list: no stack overflow, an error.
        let mut deep = vec![STATE_VERSION];
        for _ in 0..100_000 {
            deep.extend_from_slice(&[TAG_LIST, 1, 0, 0, 0]);
        }
        deep.push(TAG_NULL);
        assert!(matches!(
            decode_state::<Value>(&deep),
            Err(JsError::Serialization(_))
        ));
    }
}
