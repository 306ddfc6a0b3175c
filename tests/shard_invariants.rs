//! Property tests for the sweep-sharding layer: the shard plans of an
//! `N`-way split (`shard_plan` for every index, membership by
//! `ShardSpec::contains`) are a true partition (disjoint, covering, stable
//! under point permutation) and
//! `ResultCache::union_merge` of arbitrarily split caches reconstructs the
//! unsplit cache — including colliding-key buckets, where two records of
//! different identity share one 64-bit key (the PR 2 bucket format).

use plaid_arch::{ArchClass, CommSpec, SpaceSpec};
use plaid_explore::{
    cache_key, shard_plan, EvalRecord, ResultCache, ShardSpec, SweepPlan, SweepPoint,
};
use plaid_workloads::find_workload;
use proptest::prelude::*;

/// A deterministic pool of distinct sweep points to sample from: two
/// workloads crossed with a mixed preset/structured grid.
fn point_pool() -> Vec<SweepPoint> {
    let spec = SpaceSpec {
        classes: vec![
            ArchClass::SpatioTemporal,
            ArchClass::Spatial,
            ArchClass::Plaid,
        ],
        dims: vec![(2, 2), (3, 3)],
        config_entries: vec![8, 16],
        comm_specs: CommSpec::presets(),
    };
    let workloads = [
        find_workload("dwconv").unwrap(),
        find_workload("fc").unwrap(),
    ];
    SweepPlan::cross(&workloads, &spec).points
}

/// Deterministic Fisher–Yates driven by an LCG, so permutations are
/// reproducible from the proptest-generated seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// The `count` shard plans of `plan`, by index.
fn split_plan(plan: &SweepPlan, count: u32) -> Vec<SweepPlan> {
    (0..count)
        .map(|index| shard_plan(plan, ShardSpec { index, count }))
        .collect()
}

/// Selects a subset of the pool from a bitmask seed (always non-empty).
fn subset(pool: &[SweepPoint], mask: u64) -> Vec<SweepPoint> {
    let picked: Vec<SweepPoint> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
        .map(|(_, p)| p.clone())
        .collect();
    if picked.is_empty() {
        vec![pool[0].clone()]
    } else {
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_is_disjoint_covering_and_permutation_stable(
        mask in any::<u64>(),
        perm_seed in any::<u64>(),
        count in 1u32..7,
    ) {
        let pool = point_pool();
        let points = subset(&pool, mask);
        let plan = SweepPlan { points: points.clone() };
        let shards = split_plan(&plan, count);

        // Disjoint and covering: every point appears in exactly one shard,
        // and only that shard's spec contains it.
        let mut seen = std::collections::HashMap::new();
        for (i, shard) in (0..count).zip(&shards) {
            for point in &shard.points {
                for index in 0..count {
                    prop_assert_eq!(ShardSpec { index, count }.contains(point), index == i);
                }
                prop_assert!(
                    seen.insert(cache_key(point), i).is_none(),
                    "point assigned to two shards"
                );
            }
        }
        prop_assert_eq!(seen.len(), plan.len());

        // Permutation-stable: shuffling the plan changes only within-shard
        // order, never membership.
        let mut permuted_points = points;
        shuffle(&mut permuted_points, perm_seed);
        let permuted = split_plan(&SweepPlan { points: permuted_points }, count);
        for (a, b) in shards.iter().zip(permuted.iter()) {
            let mut ka: Vec<String> = a.points.iter().map(cache_key).collect();
            let mut kb: Vec<String> = b.points.iter().map(cache_key).collect();
            ka.sort();
            kb.sort();
            prop_assert_eq!(ka, kb, "shard membership moved under permutation");
        }
    }

    #[test]
    fn union_merge_of_random_splits_equals_the_unsplit_cache(
        mask in any::<u64>(),
        split_seed in any::<u64>(),
        parts in 1usize..6,
    ) {
        let pool = point_pool();
        let points = subset(&pool, mask);

        // The unsplit reference: every point's record under its own key,
        // plus forced colliding-key buckets — the first two pool points
        // stored under one shared key with distinct identities (the PR 2
        // bucket format survives 64-bit collisions).
        let collider_key = "v1:00000000c0111de5".to_string();
        let colliders = [
            EvalRecord::failed(&pool[0], "collider-a"),
            EvalRecord::failed(&pool[1], "collider-b"),
        ];
        let unsplit = ResultCache::new();
        for point in &points {
            unsplit.insert(cache_key(point), EvalRecord::failed(point, "probe"));
        }
        for record in &colliders {
            unsplit.insert(collider_key.clone(), record.clone());
        }

        // Split the same inserts across `parts` caches by an LCG draw —
        // crucially, the two colliding records may land in *different*
        // caches, so the merge must union their bucket rather than evict.
        let split: Vec<ResultCache> = (0..parts).map(|_| ResultCache::new()).collect();
        let mut seed = split_seed;
        let mut draw = |n: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % n
        };
        for point in &points {
            split[draw(parts)].insert(cache_key(point), EvalRecord::failed(point, "probe"));
        }
        for record in &colliders {
            split[draw(parts)].insert(collider_key.clone(), record.clone());
        }

        let merged = ResultCache::new();
        let mut added = 0usize;
        for part in &split {
            added += merged.union_merge(part);
        }
        prop_assert_eq!(added, unsplit.len(), "every record newly added once");
        prop_assert_eq!(merged.len(), unsplit.len());
        // Canonical snapshots are byte-comparable regardless of which cache
        // each record travelled through.
        prop_assert_eq!(merged.canonical_records(), unsplit.canonical_records());
    }
}
