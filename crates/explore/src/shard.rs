//! Deterministic sweep sharding: split one [`SweepPlan`] across processes or
//! hosts, evaluate each shard independently, and merge the results back into
//! exactly what a single-process sweep would have produced.
//!
//! Shard assignment is *content-addressed*: a point belongs to shard
//! `cache_key_hash(point) % count` — the same stable FNV-1a hash the
//! [`ResultCache`] keys records by. Because the hash depends only on the
//! point's content (workload, design parameterization, mapper), never on its
//! position, the partition is invariant under plan reordering and identical
//! on every host that enumerates the same space: `N` machines can each run
//! `plaid-dse --shard i/N` against the same grid with no coordination and be
//! guaranteed disjoint, covering work sets.
//!
//! Merging is a pure union: shard-local caches are disjoint by construction,
//! so [`ResultCache::union_merge`] reconstructs the full record set and
//! [`merge_outcomes`] reorders it into plan order, making the merged
//! [`SweepOutcome`] — and, headline guarantee, the [`crate::FrontierReport`]
//! JSON derived from it — byte-for-byte identical to an unsharded
//! [`crate::run_sweep`]. Seeding stays *intra-shard* (each shard
//! builds its own seed store), which is sound for [`SeedPolicy::Exact`]:
//! exact seeding is result-preserving by contract, so per-shard seed
//! visibility changes how much work is skipped, never what is produced. The
//! one carve-out is the mapper-internal `seed` field inside a record's
//! summary: its capacity certificate depends on how each II ladder was
//! reached (which seeds happened to be visible), so raw records compare
//! equal only after [`EvalRecord::without_seed`] — exactly as
//! [`crate::FrontierReport`] already strips it, keeping frontier output
//! seed-schedule-independent.

use serde::{Deserialize, Serialize};

use crate::cache::{cache_key_hash, ResultCache};
use crate::record::EvalRecord;
use crate::seed::SeedPolicy;
use crate::sweep::{run_sweep_with, SweepOutcome, SweepPlan, SweepPoint, SweepStats};

/// One shard of a sharded sweep: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards, `>= 1`.
    pub count: u32,
}

impl ShardSpec {
    /// The trivial single-shard spec (the whole plan).
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Parses the CLI form `I/N` (e.g. `0/4`), zero-based.
    ///
    /// # Errors
    ///
    /// Returns a message when the form is not `I/N`, `N` is zero or `I` is
    /// out of range.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (index, count) = spec
            .split_once('/')
            .ok_or_else(|| format!("bad shard `{spec}` (expected I/N, e.g. 0/4)"))?;
        let index: u32 = index
            .parse()
            .map_err(|_| format!("bad shard index in `{spec}`"))?;
        let count: u32 = count
            .parse()
            .map_err(|_| format!("bad shard count in `{spec}`"))?;
        let shard = ShardSpec { index, count };
        shard.validate()?;
        Ok(shard)
    }

    /// Checks `count >= 1` and `index < count`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.index >= self.count {
            return Err(format!(
                "shard index {} out of range (count {})",
                self.index, self.count
            ));
        }
        Ok(())
    }

    /// Display form `I/N`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }

    /// Whether `point` belongs to this shard.
    pub fn contains(&self, point: &SweepPoint) -> bool {
        shard_of(point, self.count) == self.index
    }
}

/// The shard a point belongs to in a `count`-way partition: its content hash
/// modulo `count`. Stable across plan orderings, processes and hosts.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn shard_of(point: &SweepPoint, count: u32) -> u32 {
    assert!(count > 0, "shard count must be at least 1");
    (cache_key_hash(point) % u64::from(count)) as u32
}

/// The sub-plan of `plan` belonging to `shard`, preserving the plan's point
/// order within the shard.
///
/// # Panics
///
/// Panics if `shard` is invalid ([`ShardSpec::validate`]) — the `pub`
/// fields allow constructing an out-of-range spec directly; parse or
/// validate first when the spec comes from user input.
pub fn shard_plan(plan: &SweepPlan, shard: ShardSpec) -> SweepPlan {
    shard.validate().expect("invalid shard spec");
    SweepPlan {
        points: plan
            .points
            .iter()
            .filter(|p| shard.contains(p))
            .cloned()
            .collect(),
    }
}

/// Splits `plan` into `count` disjoint, covering sub-plans by content hash.
///
/// Every point lands in exactly one shard (`partition_plan` is a partition),
/// and because assignment is content-addressed the same point lands in the
/// same shard no matter how the input plan is ordered — only the *within*-
/// shard order follows the input. Shards are not guaranteed equal-sized
/// (hash balance is statistical), but for sweep grids of hundreds of points
/// the imbalance is small.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn partition_plan(plan: &SweepPlan, count: u32) -> Vec<SweepPlan> {
    assert!(count > 0, "shard count must be at least 1");
    let mut shards: Vec<SweepPlan> = (0..count).map(|_| SweepPlan::default()).collect();
    for point in &plan.points {
        shards[shard_of(point, count) as usize]
            .points
            .push(point.clone());
    }
    shards
}

/// Evaluates one shard of `plan` under `policy`, against a (typically
/// shard-local) cache.
///
/// This is [`run_sweep_with`] over [`shard_plan`]: the shard gets its own
/// seed store, so seed reuse never crosses shard boundaries — under
/// [`SeedPolicy::Exact`] the mappings and metrics are identical to what an
/// unsharded sweep produces for the same points (merely with fewer seeding
/// opportunities); only the mapper-internal seed certificate inside each
/// summary may differ, and it is stripped from frontier reports (see the
/// module docs). Records come back in shard-plan order; merge them across
/// shards with [`merge_outcomes`].
///
/// # Panics
///
/// Panics if `shard` is invalid ([`ShardSpec::validate`]), via
/// [`shard_plan`].
pub fn run_sweep_sharded(
    plan: &SweepPlan,
    shard: ShardSpec,
    cache: &ResultCache,
    policy: SeedPolicy,
) -> SweepOutcome {
    run_sweep_with(&shard_plan(plan, shard), cache, policy)
}

/// The identity of a record (or plan point) used to align shard records back
/// to plan positions: the full workload descriptor, design point and mapper
/// — everything [`crate::cache_key`] hashes, un-hashed so 64-bit collisions
/// cannot alias two points during a merge.
fn identity_of(
    workload: &plaid_workloads::WorkloadDescriptor,
    design: &plaid_arch::DesignPoint,
    mapper: plaid::pipeline::MapperChoice,
) -> String {
    format!(
        "{}|{}|{}",
        serde_json::to_string(workload).expect("descriptor serializes"),
        serde_json::to_string(design).expect("design serializes"),
        mapper.label(),
    )
}

/// Merges per-shard outcomes back into the single-process [`SweepOutcome`]
/// for `plan`: records are reordered into plan order and the shard
/// [`SweepStats`] are summed.
///
/// The merged records are what [`crate::run_sweep`] over the whole plan
/// returns (under [`SeedPolicy::Exact`] or [`SeedPolicy::Off`], the
/// result-preserving policies), up to the mapper-internal seed certificate
/// in each summary — strip with [`EvalRecord::without_seed`] to compare, as
/// frontier extraction already does. Of the summed stats, `points`, `compiled`,
/// `cache_hits` and `failures` equal the unsharded totals; `seeded`,
/// `seed_hits` and `work` reflect intra-shard seeding (a whole-plan sweep
/// sees more reuse opportunities; under [`SeedPolicy::Off`] `work` equals
/// the unsharded total) and `wall_ms` is the *aggregate* shard wall time,
/// not the elapsed time of a parallel shard fleet.
///
/// # Errors
///
/// Returns a message when the shard outcomes are not a partition of the
/// plan: a plan point missing from every shard, the same point evaluated by
/// two shards, or a shard record for a point outside the plan (a host swept
/// a different grid or workload set).
pub fn merge_outcomes(plan: &SweepPlan, shards: &[SweepOutcome]) -> Result<SweepOutcome, String> {
    let mut by_identity: std::collections::HashMap<String, EvalRecord> =
        std::collections::HashMap::with_capacity(plan.len());
    for outcome in shards {
        for record in &outcome.records {
            let id = identity_of(&record.workload, &record.design, record.mapper);
            if by_identity.insert(id, record.clone()).is_some() {
                return Err(format!(
                    "duplicate record across shards for {} on {}",
                    record.workload.name, record.arch
                ));
            }
        }
    }
    let mut records = Vec::with_capacity(plan.len());
    for point in &plan.points {
        let id = identity_of(&point.workload.descriptor(), &point.design, point.mapper);
        let record = by_identity.remove(&id).ok_or_else(|| {
            format!(
                "no shard evaluated {} on {}",
                point.workload.name,
                point.design.label()
            )
        })?;
        records.push(record);
    }
    if let Some(extra) = by_identity.into_values().next() {
        // A leftover record means a shard evaluated points outside this
        // plan (mismatched --grid/--workloads across hosts); dropping it
        // silently would also leave the summed stats inconsistent with the
        // returned records, so reject the merge outright.
        return Err(format!(
            "shard record for {} on {} is not in the plan (mismatched sweep configuration?)",
            extra.workload.name, extra.arch
        ));
    }
    let mut stats = SweepStats {
        points: 0,
        compiled: 0,
        cache_hits: 0,
        failures: 0,
        seeded: 0,
        seed_hits: 0,
        work: Default::default(),
        wall_ms: 0,
    };
    for outcome in shards {
        stats.points += outcome.stats.points;
        stats.compiled += outcome.stats.compiled;
        stats.cache_hits += outcome.stats.cache_hits;
        stats.failures += outcome.stats.failures;
        stats.seeded += outcome.stats.seeded;
        stats.seed_hits += outcome.stats.seed_hits;
        stats.work += outcome.stats.work;
        stats.wall_ms += outcome.stats.wall_ms;
    }
    Ok(SweepOutcome { records, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;
    use plaid_arch::{ArchClass, CommSpec, SpaceSpec};
    use plaid_workloads::find_workload;

    fn small_plan() -> SweepPlan {
        let spec = SpaceSpec {
            classes: vec![ArchClass::SpatioTemporal, ArchClass::Plaid],
            dims: vec![(2, 2)],
            config_entries: vec![8, 16],
            comm_specs: CommSpec::presets(),
        };
        SweepPlan::cross(
            &[
                find_workload("dwconv").unwrap(),
                find_workload("fc").unwrap(),
            ],
            &spec,
        )
    }

    #[test]
    fn parse_accepts_valid_and_rejects_invalid_specs() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().label(), "3/4");
        assert!(ShardSpec::parse("4/4").is_err(), "index out of range");
        assert!(ShardSpec::parse("0/0").is_err(), "zero shards");
        assert!(ShardSpec::parse("1").is_err(), "missing slash");
        assert!(ShardSpec::parse("a/b").is_err(), "non-numeric");
        assert!(ShardSpec::WHOLE.validate().is_ok());
    }

    #[test]
    fn partition_is_disjoint_and_covering() {
        let plan = small_plan();
        for count in [1u32, 2, 3, 4, 7] {
            let shards = partition_plan(&plan, count);
            assert_eq!(shards.len(), count as usize);
            let total: usize = shards.iter().map(SweepPlan::len).sum();
            assert_eq!(total, plan.len(), "{count}-way partition covers the plan");
            // Each point's key appears in exactly the shard its hash names.
            let mut seen = std::collections::HashSet::new();
            for (i, shard) in shards.iter().enumerate() {
                for point in &shard.points {
                    assert_eq!(shard_of(point, count) as usize, i);
                    assert!(seen.insert(cache_key(point)), "point in two shards");
                }
            }
        }
    }

    #[test]
    fn assignment_is_stable_under_plan_reordering() {
        let plan = small_plan();
        let mut reversed = plan.clone();
        reversed.points.reverse();
        for count in [2u32, 4] {
            let forward = partition_plan(&plan, count);
            let backward = partition_plan(&reversed, count);
            for (f, b) in forward.iter().zip(backward.iter()) {
                let mut fk: Vec<String> = f.points.iter().map(cache_key).collect();
                let mut bk: Vec<String> = b.points.iter().map(cache_key).collect();
                fk.sort();
                bk.sort();
                assert_eq!(fk, bk, "shard membership changed with plan order");
            }
        }
    }

    #[test]
    fn shard_plan_matches_partition_and_preserves_order() {
        let plan = small_plan();
        let shards = partition_plan(&plan, 3);
        for index in 0..3u32 {
            let spec = ShardSpec { index, count: 3 };
            let filtered = shard_plan(&plan, spec);
            let keys: Vec<String> = filtered.points.iter().map(cache_key).collect();
            let expect: Vec<String> = shards[index as usize]
                .points
                .iter()
                .map(cache_key)
                .collect();
            assert_eq!(keys, expect);
            // Within-shard order follows plan order.
            let positions: Vec<usize> = filtered
                .points
                .iter()
                .map(|p| {
                    plan.points
                        .iter()
                        .position(|q| cache_key(q) == cache_key(p))
                        .unwrap()
                })
                .collect();
            assert!(positions.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sharded_evaluation_merges_to_the_unsharded_outcome() {
        let plan = small_plan();
        let whole_cache = ResultCache::new();
        let whole = run_sweep_with(&plan, &whole_cache, SeedPolicy::Exact);

        let count = 4u32;
        let mut outcomes = Vec::new();
        let merged_cache = ResultCache::new();
        for index in 0..count {
            let shard_cache = ResultCache::new();
            let outcome = run_sweep_sharded(
                &plan,
                ShardSpec { index, count },
                &shard_cache,
                SeedPolicy::Exact,
            );
            merged_cache.union_merge(&shard_cache);
            outcomes.push(outcome);
        }
        let merged = merge_outcomes(&plan, &outcomes).expect("shards partition the plan");

        assert_eq!(merged.stats.points, whole.stats.points);
        assert_eq!(merged.stats.compiled, whole.stats.compiled);
        assert_eq!(merged.stats.cache_hits, whole.stats.cache_hits);
        assert_eq!(merged.stats.failures, whole.stats.failures);
        // Records are bit-identical up to the mapper-internal seed (whose
        // capacity certificate depends on how each II ladder was reached).
        let strip = |records: &[EvalRecord]| -> Vec<EvalRecord> {
            records.iter().map(EvalRecord::without_seed).collect()
        };
        assert_eq!(strip(&merged.records), strip(&whole.records));
        // And the derived frontiers are byte-for-byte identical.
        let whole_frontier = crate::FrontierReport::from_records(&whole.records);
        let merged_frontier = crate::FrontierReport::from_records(&merged.records);
        assert_eq!(
            serde_json::to_string_pretty(&merged_frontier).unwrap(),
            serde_json::to_string_pretty(&whole_frontier).unwrap()
        );
        // The unioned cache holds every plan point.
        assert_eq!(merged_cache.len(), plan.len());
    }

    #[test]
    fn merge_rejects_missing_and_duplicate_points() {
        let plan = small_plan();
        let shards = partition_plan(&plan, 2);
        let cache = ResultCache::new();
        let a = run_sweep_with(&shards[0], &cache, SeedPolicy::Off);
        let b = run_sweep_with(&shards[1], &cache, SeedPolicy::Off);
        assert!(
            merge_outcomes(&plan, std::slice::from_ref(&a)).is_err(),
            "missing shard"
        );
        assert!(
            merge_outcomes(&plan, &[a.clone(), a.clone(), b.clone()]).is_err(),
            "duplicated shard"
        );
        // A record for a point outside the plan (a host swept a different
        // grid or workload set) must be rejected, not silently dropped.
        let mut trimmed = plan.clone();
        trimmed.points.pop().expect("plan is non-empty");
        assert!(
            merge_outcomes(&trimmed, &[a.clone(), b.clone()]).is_err(),
            "foreign record accepted"
        );
        assert!(merge_outcomes(&plan, &[a, b]).is_ok());
    }
}
