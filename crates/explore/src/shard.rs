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
//! Merging is a pure union of the shard caches: they are disjoint by
//! construction, so [`ResultCache::union_merge`] reconstructs the full
//! record set, and [`ResultCache::canonical_records`] lists it in an order
//! that depends only on its content. The merged records — and, headline
//! guarantee, the [`crate::FrontierReport`] JSON derived from them — are
//! byte-for-byte those of an unsharded [`crate::run_sweep`]. Seeding stays
//! *intra-shard* (each shard builds its own seed store), which is sound for
//! [`SeedPolicy::Exact`]: exact seeding is result-preserving by contract, so
//! per-shard seed visibility changes how much work is skipped, never what is
//! produced. The one carve-out is the mapper-internal `seed` field inside a
//! record's summary: its capacity certificate depends on how each II ladder
//! was reached (which seeds happened to be visible), so raw records compare
//! equal only after [`crate::EvalRecord::without_seed`] — exactly as
//! [`crate::FrontierReport`] already strips it, keeping frontier output
//! seed-schedule-independent.

use crate::cache::{cache_key_hash, ResultCache};
use crate::seed::SeedPolicy;
use crate::sweep::{run_sweep_with, SweepOutcome, SweepPlan, SweepPoint};

/// One shard of a sharded sweep: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards, `>= 1`.
    pub count: u32,
}

impl ShardSpec {
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

    /// Whether `point` belongs to this shard: its content hash modulo
    /// `count` is `index`. Stable across plan orderings, processes and
    /// hosts.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn contains(&self, point: &SweepPoint) -> bool {
        cache_key_hash(point) % u64::from(self.count) == u64::from(self.index)
    }
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

/// Evaluates one shard of `plan` under `policy`, against a (typically
/// shard-local) cache.
///
/// This is [`run_sweep_with`] over [`shard_plan`]: the shard gets its own
/// seed store, so seed reuse never crosses shard boundaries — under
/// [`SeedPolicy::Exact`] the mappings and metrics are identical to what an
/// unsharded sweep produces for the same points (merely with fewer seeding
/// opportunities); only the mapper-internal seed certificate inside each
/// summary may differ, and it is stripped from frontier reports (see the
/// module docs). Records come back in shard-plan order; merge shards by
/// unioning their caches ([`ResultCache::union_merge`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;
    use crate::record::EvalRecord;
    use crate::sweep::SweepStats;
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

    /// The `count` shard plans of `plan`, by index.
    fn split_plan(plan: &SweepPlan, count: u32) -> Vec<SweepPlan> {
        (0..count)
            .map(|index| shard_plan(plan, ShardSpec { index, count }))
            .collect()
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
        assert!(ShardSpec { index: 0, count: 1 }.validate().is_ok());
    }

    #[test]
    fn partition_is_disjoint_and_covering() {
        let plan = small_plan();
        for count in [1u32, 2, 3, 4, 7] {
            let shards = split_plan(&plan, count);
            let total: usize = shards.iter().map(SweepPlan::len).sum();
            assert_eq!(total, plan.len(), "{count}-way partition covers the plan");
            // Each point is in exactly the shard that contains it.
            let mut seen = std::collections::HashSet::new();
            for (index, shard) in (0..count).zip(&shards) {
                for point in &shard.points {
                    for other in 0..count {
                        let spec = ShardSpec {
                            index: other,
                            count,
                        };
                        assert_eq!(spec.contains(point), other == index);
                    }
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
            let forward = split_plan(&plan, count);
            let backward = split_plan(&reversed, count);
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
        for index in 0..3u32 {
            let spec = ShardSpec { index, count: 3 };
            let filtered = shard_plan(&plan, spec);
            // Exactly the plan points the spec contains, in plan order.
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
            let expect: Vec<usize> = (0..plan.len())
                .filter(|&i| spec.contains(&plan.points[i]))
                .collect();
            assert_eq!(positions, expect);
        }
    }

    #[test]
    fn sharded_evaluation_merges_to_the_unsharded_outcome() {
        let plan = small_plan();
        let whole_cache = ResultCache::new();
        let whole = run_sweep_with(&plan, &whole_cache, SeedPolicy::Exact);

        let count = 4u32;
        let merged_cache = ResultCache::new();
        let mut shard_stats = Vec::new();
        for index in 0..count {
            let shard_cache = ResultCache::new();
            let outcome = run_sweep_sharded(
                &plan,
                ShardSpec { index, count },
                &shard_cache,
                SeedPolicy::Exact,
            );
            assert_eq!(merged_cache.union_merge(&shard_cache), shard_cache.len());
            shard_stats.push(outcome.stats);
        }
        let merged = merged_cache.canonical_records();

        // The deterministic totals sum to the single-process pass's.
        let total = |count: fn(&SweepStats) -> usize| shard_stats.iter().map(count).sum::<usize>();
        assert_eq!(total(|s| s.points), whole.stats.points);
        assert_eq!(total(|s| s.compiled), whole.stats.compiled);
        assert_eq!(total(|s| s.cache_hits), whole.stats.cache_hits);
        assert_eq!(total(|s| s.failures), whole.stats.failures);

        // Records are bit-identical up to the mapper-internal seed (whose
        // capacity certificate depends on how each II ladder was reached).
        let strip = |records: &[EvalRecord]| -> Vec<EvalRecord> {
            records.iter().map(EvalRecord::without_seed).collect()
        };
        assert_eq!(merged.len(), plan.len());
        assert_eq!(strip(&merged), strip(&whole_cache.canonical_records()));
        // And the derived frontiers are byte-for-byte identical.
        let whole_frontier = crate::FrontierReport::from_records(&whole.records);
        let merged_frontier = crate::FrontierReport::from_records(&merged);
        assert_eq!(
            serde_json::to_string_pretty(&merged_frontier).unwrap(),
            serde_json::to_string_pretty(&whole_frontier).unwrap()
        );
    }
}
