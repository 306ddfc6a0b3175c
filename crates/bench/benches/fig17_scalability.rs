//! Figure 17: scalability — 3×3 Plaid versus 2×2 Plaid.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use plaid::experiments;
use plaid::pipeline::{compile_workload, ArchChoice, MapperChoice};
use plaid_bench::{bench_scope, measurement_workload};

fn bench(c: &mut Criterion) {
    let (_rows, text) = experiments::scalability(bench_scope());
    println!("{text}");

    let mut group = c.benchmark_group("fig17_scalability");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    let w = measurement_workload();
    group.bench_function("compile_dwconv_on_plaid_3x3", |b| {
        b.iter(|| {
            compile_workload(&w, &ArchChoice::Plaid3x3.build(), MapperChoice::Plaid, None).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
