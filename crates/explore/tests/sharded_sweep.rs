//! The headline sharding guarantee, end to end: a 4-way sharded run of the
//! default 216-point sweep, merged through the `plaid-dse merge` subcommand,
//! reproduces the single-process `run_sweep` output byte for byte — frontier
//! JSON and `SweepStats` totals alike.
//!
//! This is the reproducibility contract CI's shard-matrix + merge-verify
//! jobs enforce on real multi-process runs; here the same path runs
//! in-process (shard sweeps + cache saves) with the actual `plaid-dse`
//! binary doing the merge, so `cargo test` covers it on every platform.

use std::process::Command;

use plaid_explore::{
    run_sweep, run_sweep_sharded, EvalRecord, FrontierReport, ResultCache, SeedPolicy, ShardSpec,
    SweepPlan, SweepStats,
};
use plaid_workloads::table2_workloads;

/// The `plaid-dse` default plan: the 54-point default grid crossed with the
/// `rep8` workload selection (every 8th registry workload) — 216 points.
fn default_plan() -> SweepPlan {
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    let plan = SweepPlan::cross(&workloads, &plaid_arch::SpaceSpec::default_grid());
    assert_eq!(plan.len(), 216, "the default sweep is 216 points");
    plan
}

fn strip_seeds(records: &[EvalRecord]) -> Vec<EvalRecord> {
    records.iter().map(EvalRecord::without_seed).collect()
}

#[test]
fn four_way_sharded_default_sweep_merges_bit_identically() {
    let plan = default_plan();
    let scratch = std::env::temp_dir().join(format!("plaid-shard-test-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();

    // Single-process reference, computed independently of the shards.
    let whole_cache = ResultCache::new();
    let whole = run_sweep(&plan, &whole_cache);
    let whole_frontier = FrontierReport::from_records(&whole.records);
    let whole_frontier_json = serde_json::to_string_pretty(&whole_frontier).unwrap();

    // Four shard runs, each with its own cache file and seed store —
    // exactly what four `plaid-dse --shard i/4` processes would do. Their
    // caches union into one, as `plaid-dse merge` unions the files.
    const SHARDS: u32 = 4;
    let mut shard_stats = Vec::new();
    let merged = ResultCache::new();
    let mut shard_cache_paths = Vec::new();
    for index in 0..SHARDS {
        let cache = ResultCache::new();
        let outcome = run_sweep_sharded(
            &plan,
            ShardSpec {
                index,
                count: SHARDS,
            },
            &cache,
            SeedPolicy::Exact,
        );
        assert_eq!(
            cache.len(),
            outcome.records.len(),
            "shard cache holds exactly its shard's records"
        );
        let path = scratch.join(format!("shard-{index}.json"));
        cache.save(&path).unwrap();
        shard_cache_paths.push(path);
        assert_eq!(
            merged.union_merge(&cache),
            cache.len(),
            "shards are disjoint"
        );
        shard_stats.push(outcome.stats);
    }

    // Library-level merge: the union of the shard caches holds the
    // single-process cache's records, and the shard totals sum to the
    // single-process pass's (seeding counters are intra-shard and wall time
    // is per shard, so only the deterministic totals compare).
    let total = |count: fn(&SweepStats) -> usize| shard_stats.iter().map(count).sum::<usize>();
    assert_eq!(total(|s| s.points), whole.stats.points);
    assert_eq!(total(|s| s.compiled), whole.stats.compiled);
    assert_eq!(total(|s| s.cache_hits), whole.stats.cache_hits);
    assert_eq!(total(|s| s.failures), whole.stats.failures);
    assert_eq!(
        strip_seeds(&merged.canonical_records()),
        strip_seeds(&whole_cache.canonical_records()),
        "merged records are the single-process records"
    );

    // Binary-level merge: `plaid-dse merge` unions the four shard caches
    // and emits the merged frontier JSON.
    let merged_cache_path = scratch.join("merged.json");
    let merged_frontier_path = scratch.join("merged_frontier.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plaid-dse"));
    cmd.arg("merge")
        .arg(&merged_cache_path)
        .args(&shard_cache_paths)
        .arg("--frontier")
        .arg(&merged_frontier_path)
        .arg("--quiet");
    let output = cmd.output().expect("plaid-dse merge runs");
    assert!(
        output.status.success(),
        "plaid-dse merge failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The headline assertion: byte-for-byte identical frontier JSON.
    let merged_frontier_json = std::fs::read_to_string(&merged_frontier_path).unwrap();
    assert_eq!(
        merged_frontier_json, whole_frontier_json,
        "merged frontier JSON diverges from the single-process sweep"
    );

    // The merged cache covers the whole plan and reloads cleanly.
    let reloaded = ResultCache::load(&merged_cache_path).unwrap();
    assert_eq!(reloaded.len(), plan.len());

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn shard_cli_flag_runs_the_content_hash_subset() {
    // Cheap end-to-end check of `--shard I/N` on the smoke grid: the saved
    // shard cache holds exactly the shard sub-plan's points.
    let scratch = std::env::temp_dir().join(format!("plaid-shard-cli-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let cache_path = scratch.join("shard-cli.json");
    let output = Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .args([
            "--grid",
            "smoke",
            "--shard",
            "1/3",
            "--passes",
            "1",
            "--no-frontier-file",
            "--quiet",
            "--cache",
        ])
        .arg(&cache_path)
        .output()
        .expect("plaid-dse --shard runs");
    assert!(
        output.status.success(),
        "plaid-dse --shard failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    let plan = SweepPlan::cross(&workloads, &plaid_arch::SpaceSpec::smoke_grid());
    let sub = plaid_explore::shard_plan(&plan, ShardSpec { index: 1, count: 3 });
    assert!(!sub.is_empty(), "shard 1/3 of the smoke plan is non-empty");
    let cache = ResultCache::load(&cache_path).unwrap();
    assert_eq!(cache.len(), sub.len());
    std::fs::remove_dir_all(&scratch).ok();
}
