//! Stand-in for the part of `serde` this repository uses. It is not a data
//! model: the only format the repository serializes to is JSON (object state
//! through `serde_json::{to_vec, from_slice}`), so `Serialize` writes JSON
//! text and `Deserialize` reads it, in the layout real `serde_json` produces
//! for the same derives (structs as objects, newtypes as their inner value,
//! enums externally tagged).

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use json::{Error, Parser, Writer};
use std::collections::BTreeMap;
use std::sync::Arc;

pub trait Serialize {
    fn serialize(&self, w: &mut Writer);
}

pub trait Deserialize: Sized {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error>;

    /// The value of a struct field that is absent from the input. Only
    /// `Option` has one.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

pub mod de {
    /// Every `Deserialize` here owns its data; the name exists for bounds
    /// written against real serde.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.int(*self as i128);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                let v = p.int()?;
                <$t>::try_from(v).map_err(|_| Error::new(format!("{v} is out of range for {}", stringify!($t))))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                if self.is_finite() {
                    w.display(self);
                } else {
                    w.raw("null");
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                p.number_text()?
                    .parse::<$t>()
                    .map_err(|e| Error::new(e.to_string()))
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.eat_literal("true") {
            Ok(true)
        } else if p.eat_literal("false") {
            Ok(false)
        } else {
            Err(p.error("expected a boolean"))
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        T::deserialize(p).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.eat_literal("null") {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn missing(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.raw("[");
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            v.serialize(w);
        }
        w.raw("]");
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = Vec::new();
        p.expect(b'[')?;
        let mut first = true;
        while p.next_element(b']', &mut first)? {
            out.push(T::deserialize(p)?);
        }
        Ok(out)
    }
}

/// Keys are written as they serialize, which must be as a string (strings,
/// unit enum variants): the one map the repository serializes is keyed by a
/// unit-only enum.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.raw("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            let start = w.len();
            k.serialize(w);
            assert!(
                w.starts_string_at(start),
                "map key does not serialize as a string"
            );
            w.raw(":");
            v.serialize(w);
        }
        w.raw("}");
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeMap::new();
        p.expect(b'{')?;
        let mut first = true;
        while p.next_element(b'}', &mut first)? {
            let k = K::deserialize(p)?;
            p.expect(b':')?;
            out.insert(k, V::deserialize(p)?);
        }
        Ok(out)
    }
}
