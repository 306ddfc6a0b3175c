//! Sweep throughput of the design-space exploration engine: cold evaluation
//! through the full pipeline versus warm (content-addressed cache) lookups.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use plaid_arch::SpaceSpec;
use plaid_explore::{
    run_sweep, run_sweep_with, FrontierReport, ResultCache, SeedPolicy, SweepPlan,
};
use plaid_workloads::find_workload;

fn bench(c: &mut Criterion) {
    let workloads = vec![
        find_workload("dwconv").expect("registry workload"),
        find_workload("atax_u2").expect("registry workload"),
    ];
    let plan = SweepPlan::cross(&workloads, &SpaceSpec::smoke_grid());

    // Print the sweep summary once, like the figure benches print their rows.
    let cache = ResultCache::new();
    let outcome = run_sweep(&plan, &cache);
    let frontier = FrontierReport::from_records(&outcome.records);
    println!(
        "dse sweep: {} points, {} compiled, {} infeasible, frontier {} points\n",
        outcome.stats.points,
        outcome.stats.compiled,
        outcome.stats.failures,
        frontier.frontier_size()
    );

    let mut group = c.benchmark_group("dse_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    group.bench_function("cold_sweep_smoke_grid", |b| {
        // Pinned to SeedPolicy::Off so this keeps measuring the from-scratch
        // sweep; the seeded_sweep bench covers the seeded path.
        b.iter(|| {
            let cold = ResultCache::new();
            run_sweep_with(&plan, &cold, SeedPolicy::Off)
        })
    });
    group.bench_function("warm_sweep_smoke_grid", |b| {
        b.iter(|| run_sweep(&plan, &cache))
    });
    group.bench_function("frontier_extraction", |b| {
        b.iter(|| FrontierReport::from_records(&outcome.records))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
