//! Figure 12: per-kernel cycles on the spatio-temporal baseline, the spatial
//! baseline and Plaid, normalized to the spatio-temporal CGRA.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use plaid::experiments;
use plaid::pipeline::{compile_workload, ArchChoice, MapperChoice};
use plaid_bench::{bench_scope, measurement_workload};

fn bench(c: &mut Criterion) {
    let result = experiments::architecture_comparison(bench_scope());
    println!("{}", result.render_performance());
    println!(
        "geomean: plaid/spatio-temporal = {:.2}x cycles, spatial/plaid = {:.2}x cycles (paper: ~1.0x and ~1.4x)\n",
        result.plaid_vs_st_cycles(),
        result.spatial_vs_plaid_cycles()
    );

    let mut group = c.benchmark_group("fig12_performance");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    let w = measurement_workload();
    group.bench_function("compile_dwconv_on_plaid", |b| {
        b.iter(|| {
            compile_workload(&w, &ArchChoice::Plaid2x2.build(), MapperChoice::Plaid, None).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
