//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build container has no crates.io access, so the workspace vendors a
//! small streaming serialization framework with the same *surface* as
//! serde: `#[derive(Serialize, Deserialize)]` (provided by the sibling
//! `serde_derive` shim) plus `serde_json::{to_string, to_string_pretty,
//! from_str}`. JSON is the only format, so instead of serde's
//! format-agnostic `Serializer`/`Deserializer` traits the two directions
//! are concrete types: [`Serialize`] writes JSON text straight into a
//! [`Serializer`], and [`Deserialize`] reads straight from the
//! [`Deserializer`] pull parser. Neither direction builds an intermediate
//! tree, and there is no untyped document type: every read names the Rust
//! type it expects. Swap the `[workspace.dependencies]` path entries for
//! the real crates to get the upstream implementation.
//!
//! Output is deterministic: derived structs write their fields in sorted
//! key order and maps sort their keys, so every object's keys appear in
//! byte order — a property the explore cache's content hashes rely on.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod de;
mod ser;

pub use de::Deserializer;
use de::Number;
pub use ser::Serializer;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// Error for a missing struct field.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error::custom(format!("missing field `{field}` of `{ty}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `s`.
    fn serialize(&self, s: &mut Serializer);
}

/// Types that can be read from JSON.
pub trait Deserialize: Sized {
    /// Reads one value from `d`.
    ///
    /// # Errors
    ///
    /// Returns an error if the JSON is malformed or does not describe a
    /// `Self`.
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error>;

    /// The value of a field of struct `ty` that the input leaves out: an
    /// error naming it, except for `Option`, which reads as `None`.
    ///
    /// # Errors
    ///
    /// Returns the missing-field error unless `Self` has a default.
    fn absent_field(ty: &str, field: &str) -> Result<Self, Error> {
        Err(Error::missing_field(ty, field))
    }
}

// ---- primitive impls -------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                match d.number(stringify!($t))? {
                    Number::Int(i) => <$t>::try_from(i).map_err(|_| Error::custom(format!(
                        "{i} out of range for {}", stringify!($t)
                    ))),
                    other => Err(Error::custom(format!(
                        "expected {}, got {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl Serialize for u64 {
    fn serialize(&self, s: &mut Serializer) {
        s.u64(*self);
    }
}

impl Deserialize for u64 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        match d.number("u64")? {
            Number::Int(i) if i >= 0 => Ok(i as u64),
            Number::UInt(u) => Ok(u),
            other => Err(Error::custom(format!("expected u64, got {}", other.kind()))),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        Ok(match d.number("f64")? {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        })
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        f64::deserialize(d).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        let s = d.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

// ---- container impls -------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        if d.peek() == Some(b'n') {
            d.null().map(|()| None)
        } else {
            T::deserialize(d).map(Some)
        }
    }

    fn absent_field(_: &str, _: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        d.begin_array()?;
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_array();
        for item in self {
            s.element(item);
        }
        s.end_array();
    }
}

/// Writes `(key, value)` pairs, already in sorted key order, as an object.
fn serialize_entries<'a, V: Serialize + 'a>(
    s: &mut Serializer,
    entries: impl IntoIterator<Item = (&'a String, &'a V)>,
) {
    s.begin_object();
    for (key, value) in entries {
        s.field(key, value);
    }
    s.end_object();
}

/// Reads an object into a map; a repeated key is inserted again, so the
/// map keeps its last value.
fn deserialize_entries<V: Deserialize, M: Default + Extend<(String, V)>>(
    d: &mut Deserializer<'_>,
) -> Result<M, Error> {
    let mut map = M::default();
    d.begin_object()?;
    while let Some(key) = d.next_key()? {
        let value = V::deserialize(d)?;
        map.extend([(key.into_owned(), value)]);
    }
    Ok(map)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, s: &mut Serializer) {
        serialize_entries(s, self);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        deserialize_entries(d)
    }
}

impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn serialize(&self, s: &mut Serializer) {
        // Sort keys so output is deterministic regardless of hasher state.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        serialize_entries(s, entries);
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        deserialize_entries(d)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, s: &mut Serializer) {
                s.begin_array();
                $(s.element(&self.$idx);)+
                s.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                let len = [$($idx,)+].len();
                let wrong_length = || Error::custom(format!("expected an array of {len}"));
                d.begin_array()?;
                let tuple = ($(
                    if d.next_element()? {
                        $name::deserialize(d)?
                    } else {
                        return Err(wrong_length());
                    },
                )+);
                if d.next_element()? {
                    return Err(wrong_length());
                }
                Ok(tuple)
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(value: &T) -> String {
        let mut s = Serializer::compact();
        value.serialize(&mut s);
        s.into_string()
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut d = Deserializer::new(text);
        let value = T::deserialize(&mut d)?;
        d.end()?;
        Ok(value)
    }

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
        read(&compact(value)).unwrap()
    }

    #[test]
    fn primitives_round_trip() {
        for v in [0i64, -3, i64::MIN, i64::MAX] {
            assert_eq!(round_trip(&v), v);
        }
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&"hi".to_string()), "hi");
        assert_eq!(round_trip(&1.5f64), 1.5);
        assert_eq!(round_trip(&'é'), 'é');
    }

    #[test]
    fn integers_write_like_format() {
        for u in [0, 9, 10, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(compact(&u), format!("{u}"));
        }
        for i in [0, 9, 10, -1, -10, i64::MIN, i64::MAX] {
            assert_eq!(compact(&i), format!("{i}"));
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(round_trip(&v), v);
        assert_eq!(round_trip(&Vec::<u32>::new()), Vec::<u32>::new());
        let o: Option<u32> = None;
        assert_eq!(round_trip(&o), None);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        assert_eq!(round_trip(&m), m);
        let t = (1u32, "x".to_string());
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn maps_write_sorted_keys() {
        let m: HashMap<String, u32> = ["b", "c", "a"]
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), i as u32))
            .collect();
        assert_eq!(compact(&m), r#"{"a":2,"b":0,"c":1}"#);
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(read::<u32>(r#""x""#).is_err());
        assert!(read::<u32>("-1").is_err());
        assert!(read::<Vec<u32>>("null").is_err());
        assert!(read::<(u32,)>("[]").is_err());
    }
}
