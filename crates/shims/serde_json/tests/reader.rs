//! What the derived readers accept and reject, pinned one behaviour per
//! test: the explore cache's compatibility with files written by earlier
//! builds rests on these rules.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: u32,
    label: Option<String>,
    weight: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shade {
    Light,
    Dark,
}

#[test]
fn a_missing_option_field_reads_as_none() {
    let p: Point = serde_json::from_str(r#"{"x": 1, "weight": 2.5}"#).unwrap();
    assert_eq!(
        p,
        Point {
            x: 1,
            label: None,
            weight: 2.5
        }
    );
}

#[test]
fn a_missing_required_field_is_an_error_naming_it() {
    let err = serde_json::from_str::<Point>(r#"{"label": "a", "weight": 2.5}"#).unwrap_err();
    assert!(err.to_string().contains("`x`"), "{err}");
}

#[test]
fn unknown_fields_are_skipped_nested_values_included() {
    let text = r#"{"extra": {"a": [1, {"b": null}], "c": "}"}, "x": 3,
                   "more": [[], {}, "]", -1.5e3, true], "weight": 1.0}"#;
    let p: Point = serde_json::from_str(text).unwrap();
    assert_eq!((p.x, p.label, p.weight), (3, None, 1.0));
}

#[test]
fn a_duplicate_key_keeps_its_last_value() {
    let p: Point = serde_json::from_str(r#"{"x": 1, "weight": 0.5, "x": 2}"#).unwrap();
    assert_eq!(p.x, 2);
    let m: std::collections::BTreeMap<String, u32> =
        serde_json::from_str(r#"{"k": 1, "k": 7}"#).unwrap();
    assert_eq!(m["k"], 7);
}

#[test]
fn an_integer_reads_as_a_float() {
    let p: Point = serde_json::from_str(r#"{"x": 1, "weight": 4}"#).unwrap();
    assert_eq!(p.weight, 4.0);
    assert_eq!(serde_json::from_str::<f64>("-12").unwrap(), -12.0);
}

#[test]
fn a_float_is_rejected_for_an_integer_type() {
    assert!(serde_json::from_str::<Point>(r#"{"x": 1.0, "weight": 4}"#).is_err());
    assert!(serde_json::from_str::<u64>("2.5").is_err());
    assert!(serde_json::from_str::<i32>("1e3").is_err());
}

#[test]
fn a_u64_above_i64_max_round_trips() {
    for v in [i64::MAX as u64 + 1, u64::MAX] {
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(text, v.to_string());
        assert_eq!(serde_json::from_str::<u64>(&text).unwrap(), v);
    }
    assert!(serde_json::from_str::<i64>(&u64::MAX.to_string()).is_err());
}

#[test]
fn a_tuple_of_the_wrong_length_is_an_error() {
    assert_eq!(
        serde_json::from_str::<(u32, String)>(r#"[1, "a"]"#).unwrap(),
        (1, "a".to_string())
    );
    assert!(serde_json::from_str::<(u32, String)>(r#"[1]"#).is_err());
    assert!(serde_json::from_str::<(u32, String)>(r#"[1, "a", 2]"#).is_err());
}

#[test]
fn an_unknown_enum_variant_is_an_error() {
    assert_eq!(
        serde_json::from_str::<Shade>(r#""Dark""#).unwrap(),
        Shade::Dark
    );
    let err = serde_json::from_str::<Shade>(r#""Dim""#).unwrap_err();
    assert!(err.to_string().contains("Dim"), "{err}");
}

#[test]
fn numbers_read_as_the_narrowest_kind_that_holds_them() {
    use serde_json::from_str;
    // Each number's kind, seen through the typed reads: an integer that
    // fits `i64` reads as every type, one above `i64::MAX` only as `u64`
    // and `f64`, and anything else only as `f64`.
    let cases = [
        ("0", Some(0), Some(0), 0.0),
        ("-0", Some(0), Some(0), 0.0),
        ("007", Some(7), Some(7), 7.0),
        (
            "-9223372036854775808",
            Some(i64::MIN),
            None,
            i64::MIN as f64,
        ),
        (
            "9223372036854775808",
            None,
            Some(1 << 63),
            9223372036854775808.0,
        ),
        ("-9223372036854775809", None, None, -9223372036854775809.0),
        ("18446744073709551616", None, None, 18446744073709551616.0),
        ("-1.5e-3", None, None, -0.0015),
        ("2E2", None, None, 200.0),
    ];
    for (text, int, uint, float) in cases {
        assert_eq!(from_str::<i64>(text).ok(), int, "{text}");
        assert_eq!(from_str::<u64>(text).ok(), uint, "{text}");
        assert_eq!(from_str::<f64>(text).unwrap(), float, "{text}");
    }
    for bad in ["-", "--1", "1-2", "1.2.3", "+1", ".5"] {
        assert!(from_str::<i64>(bad).is_err(), "{bad}");
        assert!(from_str::<u64>(bad).is_err(), "{bad}");
        assert!(from_str::<f64>(bad).is_err(), "{bad}");
    }
}
