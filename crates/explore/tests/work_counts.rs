//! The mappers' work counts are exact: the same plan and policy count the
//! same work on every run, in every build profile, and the totals equal
//! the committed `BENCH_sweep.json` (`plaid-bench counts`). Seeding and the
//! cache show up in them as work not done.

use std::collections::BTreeMap;

use plaid::pipeline::WorkCounts;
use plaid_arch::{ArchClass, CommSpec, SpaceSpec};
use plaid_explore::{run_sweep_with, ResultCache, SeedPolicy, SweepPlan};
use plaid_workloads::{find_workload, table2_workloads};

/// The `plaid-dse` default plan: the `rep8` workloads on the default grid.
fn default_plan() -> SweepPlan {
    let workloads: Vec<_> = table2_workloads().into_iter().step_by(8).collect();
    SweepPlan::cross(&workloads, &SpaceSpec::default_grid())
}

/// The work of one sweep of `plan` from an empty cache.
fn cold_work(plan: &SweepPlan, policy: SeedPolicy) -> WorkCounts {
    run_sweep_with(plan, &ResultCache::new(), policy).stats.work
}

#[test]
fn default_plan_counts_repeat_and_match_the_committed_file() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sweep.json"
    ))
    .unwrap();
    let committed: BTreeMap<String, BTreeMap<String, WorkCounts>> =
        serde_json::from_str(&text).unwrap();
    let plan = default_plan();
    for policy in [SeedPolicy::Off, SeedPolicy::Exact] {
        let first = cold_work(&plan, policy);
        assert_eq!(cold_work(&plan, policy), first, "{policy:?}");
        assert_eq!(
            committed["default_plan"][policy.label()],
            first,
            "{policy:?}: regenerate with `plaid-bench counts > BENCH_sweep.json`"
        );
    }
}

#[test]
fn exact_seeding_runs_fewer_rungs_and_repairs_than_off() {
    let plan = default_plan();
    let off = cold_work(&plan, SeedPolicy::Off);
    let exact = cold_work(&plan, SeedPolicy::Exact);
    assert!(exact.rungs < off.rungs, "{exact:?} vs {off:?}");
    assert!(
        exact.repair_iterations < off.repair_iterations,
        "{exact:?} vs {off:?}"
    );
}

#[test]
fn an_all_hit_pass_does_no_work() {
    let plan = SweepPlan::cross(
        &[find_workload("dwconv").unwrap()],
        &SpaceSpec::smoke_grid(),
    );
    let cache = ResultCache::new();
    let cold = run_sweep_with(&plan, &cache, SeedPolicy::Exact);
    assert!(cold.stats.work.rungs > 0 && cold.stats.work.route_searches > 0);
    let warm = run_sweep_with(&plan, &cache, SeedPolicy::Exact);
    assert_eq!(warm.stats.cache_hits, plan.len());
    assert_eq!(warm.stats.work, WorkCounts::default());
}

#[test]
fn a_replayed_point_runs_no_rungs() {
    // Two depths of one Plaid fabric: the shallow point maps cold, and the
    // deep one replays its seed, so the pair costs what the first alone
    // does.
    let spec = |config_entries| SpaceSpec {
        classes: vec![ArchClass::Plaid],
        dims: vec![(2, 2)],
        config_entries,
        comm_specs: vec![CommSpec::ALIGNED],
    };
    let workloads = [find_workload("dwconv").unwrap()];
    let pair = SweepPlan::cross(&workloads, &spec(vec![8, 16]));
    let outcome = run_sweep_with(&pair, &ResultCache::new(), SeedPolicy::Exact);
    assert_eq!((outcome.stats.seeded, outcome.stats.seed_hits), (1, 1));
    assert!(outcome.records.iter().all(|r| r.ok));
    let first = cold_work(
        &SweepPlan::cross(&workloads, &spec(vec![8])),
        SeedPolicy::Exact,
    );
    assert!(first.rungs > 0);
    assert_eq!(outcome.stats.work, first);
}
