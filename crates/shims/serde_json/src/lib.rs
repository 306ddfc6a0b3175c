//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`parse_value`] and
//! the re-exported [`Value`].
//!
//! A thin front end over the sibling `serde` shim, which does the work in
//! one pass each way: writing walks the value into a `serde::Serializer`,
//! which appends JSON text as it goes, and reading drives the target's
//! `serde::Deserialize` impl over a `serde::Deserializer` pull parser. No
//! intermediate tree is built in either direction. Object keys are written
//! in sorted order, so output is deterministic and stable across runs — a
//! property the explore cache relies on.

#![forbid(unsafe_code)]

pub use serde::{Error, Map, Value};

use serde::{Deserializer, Serializer};

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Never fails; the `Result` mirrors `serde_json`'s signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::compact();
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Serializes `value` to a human-readable, two-space-indented JSON string.
///
/// # Errors
///
/// Never fails; the `Result` mirrors `serde_json`'s signature.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::pretty();
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error if the text is not one well-formed JSON value
/// describing a `T`.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut d = Deserializer::new(text);
    let value = T::deserialize(&mut d)?;
    d.end()?;
    Ok(value)
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns an error if the text is not one well-formed JSON value.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let mut obj = Map::new();
        obj.insert("name".into(), Value::String("atax_u2".into()));
        obj.insert("cycles".into(), Value::Int(1234));
        obj.insert("energy".into(), Value::Float(5.5));
        obj.insert(
            "tags".into(),
            Value::Array(vec![Value::Bool(true), Value::Null]),
        );
        let v = Value::Object(obj);
        let compact = to_string(&v).unwrap();
        let parsed = parse_value(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash ünïcode";
        let v = Value::String(s.to_string());
        let text = to_string(&v).unwrap();
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn numbers_parse_with_correct_types() {
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-7").unwrap(), Value::Int(-7));
        assert_eq!(
            parse_value("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(parse_value("1.5e3").unwrap(), Value::Float(1500.0));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let text = to_string(&3.0f64).unwrap();
        assert_eq!(text, "3.0");
        assert_eq!(parse_value(&text).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Python's json.dumps escapes non-BMP characters as surrogate pairs.
        let v = parse_value(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v, Value::String("\u{1F600} ok".to_string()));
        assert!(
            parse_value(r#""\ud83d""#).is_err(),
            "unpaired high surrogate"
        );
        assert!(
            parse_value(r#""\ud83d\u0041""#).is_err(),
            "low surrogate out of range"
        );
        // BMP escapes still decode directly, as does raw UTF-8.
        assert_eq!(
            parse_value(r#""\u00e9""#).unwrap(),
            Value::String("é".to_string())
        );
        assert_eq!(
            parse_value("\"é 😀\"").unwrap(),
            Value::String("é 😀".to_string())
        );
    }

    #[test]
    fn multi_byte_strings_round_trip_and_parse_in_linear_time() {
        for s in ["é", "😀", "a😀b\\é\"", "\u{10FFFF}\u{7F}\u{80}\u{800}"] {
            let v = Value::String(s.to_string());
            assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v, "{s:?}");
        }
        // ~6 MB of mixed-width text with escapes: a parser that rescans the
        // rest of the input per character never finishes this.
        let big: String = "plain ascii, é ü, 𝄞 😀 \"q\" \\ \n".repeat(150_000);
        let v = Value::String(big);
        let text = to_string(&v).unwrap();
        assert!(text.len() > 6_000_000);
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("tru").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn typed_round_trip_via_from_str() {
        let v: Vec<u64> = vec![1, 2, 3];
        let text = to_string(&v).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
