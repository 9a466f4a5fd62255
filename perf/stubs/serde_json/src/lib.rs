//! Stand-in for the two `serde_json` entry points the library crates call
//! (`to_vec`, `from_slice`), over the serde stand-in's JSON codec.

use serde::de::DeserializeOwned;
use serde::json::{Parser, Writer};
use serde::Serialize;

pub use serde::json::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    value.serialize(&mut w);
    Ok(w.into_bytes())
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut p = Parser::new(bytes);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}
