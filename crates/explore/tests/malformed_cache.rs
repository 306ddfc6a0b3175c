//! Malformed result caches are errors, never panics: a real saved cache
//! truncated at any byte, or with any one value's JSON type flipped, must
//! make `ResultCache::load` return `Err`, and `plaid-dse merge` must exit
//! non-zero with a message instead of panicking. A two-record cache is
//! tried at every byte and every flip; the full one at random samples.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use plaid_arch::SpaceSpec;
use plaid_explore::{run_sweep, ResultCache, SweepPlan};
use plaid_workloads::find_workload;
use proptest::prelude::*;
use serde_json::Value;

/// Scratch directory private to this test process.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plaid-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The text of a real cache: a smoke-grid sweep of one workload, saved
/// through `ResultCache::save`. Built once per test binary.
fn saved_cache() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let plan = SweepPlan::cross(
            &[find_workload("dwconv").unwrap()],
            &SpaceSpec::smoke_grid(),
        );
        let cache = ResultCache::new();
        run_sweep(&plan, &cache);
        let path = scratch().join("real.json");
        cache.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        ResultCache::load(&path).expect("the intact cache loads");
        text
    })
}

/// A two-record cache cut from the real one: its smallest failed record
/// and its smallest record carrying a placement seed, small enough to try
/// every prefix and every flip of.
fn small_cache() -> String {
    let Value::Object(buckets) = serde_json::parse_value(saved_cache()).unwrap() else {
        panic!("a saved cache is an object");
    };
    let record = |bucket: &Value| bucket.as_array().unwrap()[0].clone();
    let has_seed = |bucket: &Value| {
        record(bucket)
            .get("summary")
            .and_then(|s| s.get("seed"))
            .is_some_and(|seed| *seed != Value::Null)
    };
    let failed = |bucket: &Value| record(bucket).get("ok") == Some(&Value::Bool(false));
    let smallest = |keep: &dyn Fn(&Value) -> bool| {
        buckets
            .iter()
            .filter(|(_, bucket)| keep(bucket))
            .min_by_key(|(_, bucket)| serde_json::to_string(bucket).unwrap().len())
            .map(|(key, bucket)| (key.clone(), bucket.clone()))
            .expect("the smoke sweep has such a record")
    };
    let small: serde_json::Map = [smallest(&failed), smallest(&has_seed)].into();
    let text = serde_json::to_string_pretty(&Value::Object(small)).unwrap();
    let cache = load_bytes("small", text.as_bytes()).expect("the small cache loads");
    assert_eq!(cache.len(), 2);
    text
}

/// Writes `bytes` to a file named after `tag` and loads it.
fn load_bytes(tag: &str, bytes: &[u8]) -> std::io::Result<ResultCache> {
    let path = scratch().join(format!("{tag}.json"));
    std::fs::write(&path, bytes).unwrap();
    ResultCache::load(&path)
}

/// Counts the strings, numbers and objects in `value`: the values `flip`
/// can target.
fn flippable(value: &Value, count: &mut usize) {
    match value {
        Value::String(_) | Value::Int(_) | Value::UInt(_) | Value::Float(_) => *count += 1,
        Value::Object(map) => {
            *count += 1;
            map.values().for_each(|v| flippable(v, count));
        }
        Value::Array(items) => items.iter().for_each(|v| flippable(v, count)),
        Value::Null | Value::Bool(_) => {}
    }
}

/// Flips the type of the `target`-th flippable value (pre-order):
/// string → number, number → string, object → array of its values.
/// Returns `true` once the flip is done.
fn flip(value: &mut Value, target: usize, seen: &mut usize) -> bool {
    let here = matches!(
        value,
        Value::String(_) | Value::Int(_) | Value::UInt(_) | Value::Float(_) | Value::Object(_)
    );
    if here {
        if *seen == target {
            *value = match std::mem::replace(value, Value::Null) {
                Value::String(_) => Value::Int(7),
                Value::Object(map) => Value::Array(map.into_values().collect()),
                _ => Value::String("7".into()),
            };
            return true;
        }
        *seen += 1;
    }
    match value {
        Value::Object(map) => map.values_mut().any(|v| flip(v, target, seen)),
        Value::Array(items) => items.iter_mut().any(|v| flip(v, target, seen)),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncated_caches_fail_to_load(cut in 0usize..1_000_000) {
        let bytes = saved_cache().trim_end().as_bytes();
        let at = cut % bytes.len();
        prop_assert!(
            load_bytes("cut", &bytes[..at]).is_err(),
            "a cache truncated to {at} of {} bytes loaded",
            bytes.len()
        );
    }

    #[test]
    fn mistyped_caches_fail_to_load(pick in 0usize..1_000_000) {
        let mut value = serde_json::parse_value(saved_cache()).unwrap();
        let mut count = 0;
        flippable(&value, &mut count);
        let target = pick % count;
        prop_assert!(flip(&mut value, target, &mut 0));
        let text = serde_json::to_string(&value).unwrap();
        prop_assert!(
            load_bytes("flip", text.as_bytes()).is_err(),
            "a cache with value {target} of {count} flipped loaded"
        );
    }
}

#[test]
fn every_prefix_and_every_flip_of_a_small_cache_fails_to_load() {
    let text = small_cache();
    for at in 0..text.len() {
        assert!(
            load_bytes("prefix", &text.as_bytes()[..at]).is_err(),
            "the small cache truncated to {at} of {} bytes loaded",
            text.len()
        );
    }
    let value = serde_json::parse_value(&text).unwrap();
    let mut count = 0;
    flippable(&value, &mut count);
    for target in 0..count {
        let mut flipped = value.clone();
        assert!(flip(&mut flipped, target, &mut 0));
        let flipped = serde_json::to_string_pretty(&flipped).unwrap();
        assert!(
            load_bytes("every-flip", flipped.as_bytes()).is_err(),
            "the small cache with value {target} of {count} flipped loaded"
        );
    }
}

/// Runs `plaid-dse merge` over one malformed shard.
fn merge_rejects(dir: &Path, tag: &str, shard: &[u8]) {
    let input = dir.join(format!("{tag}-shard.json"));
    std::fs::write(&input, shard).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .arg("merge")
        .arg(dir.join(format!("{tag}-merged.json")))
        .arg(&input)
        .args(["--no-frontier-file", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{tag}: merge accepted a malformed shard"
    );
    assert!(
        !stderr.contains("panicked"),
        "{tag}: merge panicked: {stderr}"
    );
    assert!(
        stderr.contains("cannot load shard cache") && stderr.contains(&*input.to_string_lossy()),
        "{tag}: unexpected error message: {stderr}"
    );
}

#[test]
fn merge_reports_malformed_shards_without_panicking() {
    let dir = scratch();
    let text = saved_cache();
    merge_rejects(&dir, "truncated", &text.as_bytes()[..text.len() / 2]);
    let mut value = serde_json::parse_value(text).unwrap();
    let mut count = 0;
    flippable(&value, &mut count);
    assert!(flip(&mut value, count / 2, &mut 0));
    merge_rejects(
        &dir,
        "mistyped",
        serde_json::to_string(&value).unwrap().as_bytes(),
    );
}

#[test]
fn merge_rejects_a_shard_supplied_twice() {
    // Two copies of one valid shard: every record of the second re-supplies
    // an identity the first already contributed.
    let dir = scratch();
    let first = dir.join("twice-a.json");
    let second = dir.join("twice-b.json");
    std::fs::write(&first, saved_cache()).unwrap();
    std::fs::write(&second, saved_cache()).unwrap();
    let merged = dir.join("twice-merged.json");
    let out = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .arg("merge")
        .arg(&merged)
        .args([&first, &second])
        .args(["--no-frontier-file", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "merge accepted a repeated shard");
    assert!(!stderr.contains("panicked"), "merge panicked: {stderr}");
    assert!(
        stderr.contains(&format!("merge: {} contributes", second.display())),
        "the error does not name the second shard: {stderr}"
    );
    assert!(!merged.exists(), "a rejected merge wrote its output");
}
