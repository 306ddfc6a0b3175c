//! When `plaid-dse --cache` writes its file: always when the file does not
//! exist yet, even if nothing compiled (an empty shard still leaves `{}`
//! for whatever collects shard caches), and otherwise only when a pass
//! compiled a point. A fully cached re-run leaves the file's bytes and
//! modification time alone.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, SystemTime};

use plaid_explore::{shard_plan, ShardSpec, SweepPlan};
use plaid_workloads::find_workload;

/// Scratch directory private to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("plaid-cache-rewrite-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a one-pass `plaid-dse` smoke sweep with `--cache cache` and the
/// extra `args`, and returns its stderr.
fn sweep(cache: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .args(["--grid", "smoke", "--passes", "1", "--no-frontier-file"])
        .args(["--quiet", "--cache"])
        .arg(cache)
        .args(args)
        .output()
        .expect("plaid-dse runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "plaid-dse failed: {stderr}");
    stderr
}

fn modified(path: &Path) -> SystemTime {
    std::fs::metadata(path).unwrap().modified().unwrap()
}

/// Sets `path`'s modification time to 2000-01-01, so a rewrite shows even
/// within the file system's timestamp resolution.
fn back_date(path: &Path) -> SystemTime {
    let then = SystemTime::UNIX_EPOCH + Duration::from_secs(946_684_800);
    std::fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(then)
        .unwrap();
    then
}

#[test]
fn a_missing_cache_file_is_written_even_when_nothing_compiles() {
    let plan = SweepPlan::cross(
        &[find_workload("dwconv").unwrap()],
        &plaid_arch::SpaceSpec::smoke_grid(),
    );
    let empty = (0..16)
        .map(|index| ShardSpec { index, count: 16 })
        .find(|&shard| shard_plan(&plan, shard).is_empty())
        .expect("6 points leave some of 16 shards empty");
    let dir = scratch("empty-shard");
    let cache = dir.join("shard.json");
    let spec = format!("{}/16", empty.index);
    let args = ["--workloads", "dwconv", "--shard", &spec];
    let stderr = sweep(&cache, &args);
    assert!(stderr.contains("0 compiled"), "{stderr}");
    assert!(stderr.contains("saved 0 results"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&cache).unwrap(), "{}");
    // Once the file exists, the same empty run leaves it alone.
    let then = back_date(&cache);
    let stderr = sweep(&cache, &args);
    assert!(stderr.contains("cache unchanged: 0 results"), "{stderr}");
    assert_eq!(modified(&cache), then);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_fully_cached_rerun_leaves_the_file_alone() {
    let dir = scratch("rerun");
    let cache = dir.join("cache.json");
    let stderr = sweep(&cache, &["--workloads", "dwconv"]);
    assert!(stderr.contains("saved 6 results"), "{stderr}");
    let bytes = std::fs::read(&cache).unwrap();
    let then = back_date(&cache);

    let stderr = sweep(&cache, &["--workloads", "dwconv"]);
    assert!(stderr.contains("100% hit rate"), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "cache unchanged: 6 results in {}",
            cache.display()
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("saved"), "{stderr}");
    assert_eq!(std::fs::read(&cache).unwrap(), bytes);
    assert_eq!(modified(&cache), then);

    // A run that compiles new points into an existing file saves it.
    let stderr = sweep(&cache, &["--workloads", "dwconv,atax_u2"]);
    assert!(stderr.contains("saved 12 results"), "{stderr}");
    assert_ne!(modified(&cache), then);
    std::fs::remove_dir_all(&dir).unwrap();
}
