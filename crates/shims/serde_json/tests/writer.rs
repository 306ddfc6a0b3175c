//! The exact bytes the writer produces. Persisted caches, frontier files
//! and the content hashes behind cache keys all depend on them, so any
//! change here is a format change.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;

#[derive(Serialize)]
struct Doc {
    zeta: Vec<u32>,
    alpha: BTreeMap<String, Vec<i64>>,
    mid: Option<f64>,
    empty: Vec<u32>,
    none: HashMap<String, u32>,
    big: u64,
    text: String,
}

fn doc() -> Doc {
    Doc {
        zeta: vec![7],
        alpha: [("k".to_string(), vec![1, -2])].into(),
        mid: Some(3.0),
        empty: Vec::new(),
        none: HashMap::new(),
        big: u64::MAX,
        text: "q\"\\\n\t\r\u{1}é".to_string(),
    }
}

#[test]
fn compact_output_is_pinned() {
    assert_eq!(
        serde_json::to_string(&doc()).unwrap(),
        r#"{"alpha":{"k":[1,-2]},"big":18446744073709551615,"empty":[],"mid":3.0,"none":{},"text":"q\"\\\n\t\r\u0001é","zeta":[7]}"#
    );
}

#[test]
fn pretty_output_is_pinned() {
    let expected = r#"{
  "alpha": {
    "k": [
      1,
      -2
    ]
  },
  "big": 18446744073709551615,
  "empty": [],
  "mid": 3.0,
  "none": {},
  "text": "q\"\\\n\t\r\u0001é",
  "zeta": [
    7
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&doc()).unwrap(), expected);
}

#[test]
fn floats_keep_their_shortest_form() {
    let cases = [
        (0.0, "0.0"),
        (-2.0, "-2.0"),
        (0.1 + 0.2, "0.30000000000000004"),
        (1e15, "1000000000000000"),
        (2.5e16, "25000000000000000"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
    ];
    for (f, text) in cases {
        assert_eq!(serde_json::to_string(&f).unwrap(), text, "{f}");
    }
}
