//! [`Value`], an owned JSON document, for callers that inspect or edit JSON
//! whose shape no Rust type describes.

use std::collections::BTreeMap;

use crate::de::Number;
use crate::{Deserialize, Deserializer, Error, Serialize, Serializer};

/// Map type used for JSON objects. `BTreeMap` keeps keys sorted, so a
/// written [`Value`] is deterministic.
pub type Map = BTreeMap<String, Value>;

/// An owned JSON value (mirrors `serde_json::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with deterministic (sorted) key order.
    Object(Map),
}

impl Value {
    /// Borrows the object map if this value is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the array if this value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows the string if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric value as `f64` if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Returns the numeric value as `u64` if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            Value::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// Returns the numeric value as `i64` if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// Looks up a field of an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl Serialize for Value {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Int(i) => s.i64(*i),
            Value::UInt(u) => s.u64(*u),
            Value::Float(f) => s.f64(*f),
            Value::String(v) => s.str(v),
            Value::Array(items) => items.serialize(s),
            Value::Object(map) => map.serialize(s),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        Ok(match d.peek() {
            Some(b'{') => Value::Object(Map::deserialize(d)?),
            Some(b'[') => Value::Array(Vec::deserialize(d)?),
            Some(b'"') => Value::String(d.str()?.into_owned()),
            Some(b't' | b'f') => Value::Bool(d.bool()?),
            Some(b'n') => {
                d.null()?;
                Value::Null
            }
            _ => match d.number("value")? {
                Number::Int(i) => Value::Int(i),
                Number::UInt(u) => Value::UInt(u),
                Number::Float(f) => Value::Float(f),
            },
        })
    }
}
