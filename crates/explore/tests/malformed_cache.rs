//! Malformed result caches are errors, never panics: a real saved cache
//! truncated at any byte, or with any one value's JSON type flipped, must
//! make `ResultCache::load` return `Err`, and `plaid-dse merge` must exit
//! non-zero with a message instead of panicking. A two-record cache is
//! tried at every byte and every flip; the full one at random samples.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use plaid_arch::{ArchClass, BwClass, CommSpec, SpaceSpec, Topology};
use plaid_explore::{run_sweep, EvalRecord, ResultCache, SweepPlan};
use plaid_workloads::find_workload;
use proptest::prelude::*;

/// A cache file's content, read through the same types `ResultCache::load`
/// uses: records bucketed by cache key.
type Buckets = BTreeMap<String, Vec<EvalRecord>>;

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
    let buckets: Buckets = serde_json::from_str(saved_cache()).unwrap();
    let has_seed =
        |bucket: &[EvalRecord]| bucket[0].summary.as_ref().is_some_and(|s| s.seed.is_some());
    let failed = |bucket: &[EvalRecord]| !bucket[0].ok;
    let smallest = |keep: &dyn Fn(&[EvalRecord]) -> bool| {
        buckets
            .iter()
            .filter(|(_, bucket)| keep(bucket))
            .min_by_key(|(_, bucket)| serde_json::to_string(bucket).unwrap().len())
            .map(|(key, bucket)| (key.clone(), bucket.clone()))
            .expect("the smoke sweep has such a record")
    };
    let small: Buckets = [smallest(&failed), smallest(&has_seed)].into();
    let text = serde_json::to_string_pretty(&small).unwrap();
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

/// A value of a JSON text that `flip` can target: a string, a number, or
/// an object with the spans of its members' values.
struct Flippable {
    span: Range<usize>,
    members: Option<Vec<Range<usize>>>,
}

/// The strings, numbers and objects of the well-formed JSON `text`, in
/// pre-order (an object before its members).
fn flippable(text: &str) -> Vec<Flippable> {
    fn skip_space(text: &[u8], at: &mut usize) {
        while text[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }
    /// Scans the value at `at`, returning its span.
    fn value(text: &[u8], at: &mut usize, out: &mut Vec<Flippable>) -> Range<usize> {
        skip_space(text, at);
        let start = *at;
        match text[start] {
            open @ (b'{' | b'[') => {
                let object = open == b'{';
                let index = out.len();
                if object {
                    let members = Some(Vec::new());
                    out.push(Flippable {
                        span: 0..0,
                        members,
                    });
                }
                *at += 1;
                skip_space(text, at);
                while !matches!(text[*at], b'}' | b']') {
                    if object {
                        value(text, at, &mut Vec::new()); // the key
                        skip_space(text, at);
                        *at += 1; // the colon
                    }
                    let member = value(text, at, out);
                    if object {
                        out[index].members.as_mut().unwrap().push(member);
                    }
                    skip_space(text, at);
                    if text[*at] == b',' {
                        *at += 1;
                        skip_space(text, at);
                    }
                }
                *at += 1;
                if object {
                    out[index].span = start..*at;
                }
            }
            b'"' => {
                *at += 1;
                while text[*at] != b'"' {
                    *at += if text[*at] == b'\\' { 2 } else { 1 };
                }
                *at += 1;
                out.push(Flippable {
                    span: start..*at,
                    members: None,
                });
            }
            b'-' | b'0'..=b'9' => {
                while matches!(text[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    *at += 1;
                }
                out.push(Flippable {
                    span: start..*at,
                    members: None,
                });
            }
            _ => {
                while text[*at].is_ascii_alphabetic() {
                    *at += 1;
                }
            }
        }
        start..*at
    }
    let mut out = Vec::new();
    // A trailing space stops the scans at the end of the text.
    value(format!("{text} ").as_bytes(), &mut 0, &mut out);
    out
}

/// `text` with the type of its `target`-th flippable value flipped:
/// string → number, number → string, object → array of its values.
fn flip(text: &str, target: usize) -> String {
    let value = flippable(text).swap_remove(target);
    let replacement = match value.members {
        Some(members) => {
            let values: Vec<&str> = members.into_iter().map(|m| &text[m]).collect();
            format!("[{}]", values.join(","))
        }
        None if text[value.span.clone()].starts_with('"') => "7".to_string(),
        None => "\"7\"".to_string(),
    };
    format!(
        "{}{replacement}{}",
        &text[..value.span.start],
        &text[value.span.end..]
    )
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
        let count = flippable(saved_cache()).len();
        let target = pick % count;
        let text = flip(saved_cache(), target);
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
    let count = flippable(&text).len();
    for target in 0..count {
        let flipped = flip(&text, target);
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
    let count = flippable(text).len();
    merge_rejects(&dir, "mistyped", flip(text, count / 2).as_bytes());
}

/// The text of a real cache holding one torus point, whose design carries
/// its comm spec as an object (`"select":"proportional"`, both bandwidths
/// `base`) rather than a preset name.
fn torus_cache() -> String {
    let plan = SweepPlan::cross(
        &[find_workload("dwconv").unwrap()],
        &SpaceSpec {
            classes: vec![ArchClass::SpatioTemporal],
            dims: vec![(2, 2)],
            config_entries: vec![16],
            comm_specs: vec![CommSpec::uniform(Topology::Torus, BwClass::Base)],
        },
    );
    let cache = ResultCache::new();
    run_sweep(&plan, &cache);
    let path = scratch().join("torus.json");
    cache.save(&path).unwrap();
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn split_bandwidths_and_fixed_selects_fail_to_load() {
    // The comm axis has one bandwidth class and proportional select bits;
    // a record naming anything else is not a point the program can build.
    let text = torus_cache();
    load_bytes("torus", text.as_bytes()).expect("the intact torus cache loads");
    let dir = scratch();
    for (tag, from, to, field) in [
        (
            "split",
            r#""local_bw":"base""#,
            r#""local_bw":"half""#,
            "local_bw",
        ),
        (
            "fixed",
            r#""select":"proportional""#,
            r#""select":"fixed""#,
            "select",
        ),
    ] {
        assert!(text.contains(from), "{tag}: the cache has no {from}");
        let edited = text.replacen(from, to, 1);
        let err = load_bytes(tag, edited.as_bytes()).expect_err(tag);
        assert!(err.to_string().contains(field), "{tag}: {err}");
        merge_rejects(&dir, tag, edited.as_bytes());
    }
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
