//! Figure 15: per-kernel performance per area, normalized to the
//! spatio-temporal baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use plaid::experiments;
use plaid::pipeline::{compile_workload, ArchChoice, MapperChoice};
use plaid_bench::{bench_scope, measurement_workload};

fn bench(c: &mut Criterion) {
    let result = experiments::architecture_comparison(bench_scope());
    println!("{}", result.render_perf_per_area());

    let mut group = c.benchmark_group("fig15_perf_per_area");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    let w = measurement_workload();
    group.bench_function("compile_dwconv_on_spatio_temporal", |b| {
        b.iter(|| {
            compile_workload(
                &w,
                &ArchChoice::SpatioTemporal4x4.build(),
                MapperChoice::Sa,
                None,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
