//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`].
//!
//! A thin front end over the sibling `serde` shim, which does the work in
//! one pass each way: writing walks the value into a `serde::Serializer`,
//! which appends JSON text as it goes, and reading drives the target's
//! `serde::Deserialize` impl over a `serde::Deserializer` pull parser. No
//! intermediate tree is built in either direction. Object keys are written
//! in sorted order, so output is deterministic and stable across runs — a
//! property the explore cache relies on.

#![forbid(unsafe_code)]

pub use serde::Error;

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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Row {
        name: String,
        cycles: i64,
        energy: f64,
        tags: Vec<Option<bool>>,
    }

    #[test]
    fn typed_values_round_trip_through_text() {
        let row = Row {
            name: "atax_u2".into(),
            cycles: 1234,
            energy: 5.5,
            tags: vec![Some(true), None],
        };
        let compact = to_string(&row).unwrap();
        assert_eq!(from_str::<Row>(&compact).unwrap(), row);
        let pretty = to_string_pretty(&row).unwrap();
        assert_eq!(from_str::<Row>(&pretty).unwrap(), row);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash ünïcode";
        let text = to_string(s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
    }

    #[test]
    fn numbers_parse_with_correct_types() {
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(from_str::<i64>("18446744073709551615").is_err());
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
        assert!(from_str::<i64>("1.5e3").is_err());
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let text = to_string(&3.0f64).unwrap();
        assert_eq!(text, "3.0");
        assert_eq!(from_str::<f64>(&text).unwrap(), 3.0);
        assert!(from_str::<i64>(&text).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let read = from_str::<String>;
        // Python's json.dumps escapes non-BMP characters as surrogate pairs.
        assert_eq!(read(r#""\ud83d\ude00 ok""#).unwrap(), "\u{1F600} ok");
        assert!(read(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(
            read(r#""\ud83d\u0041""#).is_err(),
            "low surrogate out of range"
        );
        // BMP escapes still decode directly, as does raw UTF-8.
        assert_eq!(read(r#""\u00e9""#).unwrap(), "é");
        assert_eq!(read("\"é 😀\"").unwrap(), "é 😀");
    }

    #[test]
    fn multi_byte_strings_round_trip_and_parse_in_linear_time() {
        for s in ["é", "😀", "a😀b\\é\"", "\u{10FFFF}\u{7F}\u{80}\u{800}"] {
            assert_eq!(
                from_str::<String>(&to_string(s).unwrap()).unwrap(),
                s,
                "{s:?}"
            );
        }
        // ~6 MB of mixed-width text with escapes: a parser that rescans the
        // rest of the input per character never finishes this.
        let big: String = "plain ascii, é ü, 𝄞 😀 \"q\" \\ \n".repeat(150_000);
        let text = to_string(&big).unwrap();
        assert!(text.len() > 6_000_000);
        assert_eq!(from_str::<String>(&text).unwrap(), big);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<std::collections::BTreeMap<String, u64>>("{").is_err());
        assert!(from_str::<Vec<u64>>("[1,]").is_err());
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<u64>("1 2").is_err());
    }

    #[test]
    fn typed_round_trip_via_from_str() {
        let v: Vec<u64> = vec![1, 2, 3];
        let text = to_string(&v).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
