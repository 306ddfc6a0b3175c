//! Throughput of the incremental mapper kernel: annealing moves per second
//! (journalled rip-up / re-place / re-route transactions) and router
//! searches per second, on a 4×4 and an 8×8 fabric.
//!
//! The measured operations live in [`plaid_bench::kernel`], shared with the
//! `plaid-bench` regression-gate binary so the gate compares exactly what
//! this bench tracks. The headline pass prints both rates directly; the
//! Criterion loops then track the same operations interactively.
//!
//! The committed `BENCH_mapper.json` at the workspace root is the CI
//! gate's *baseline*, so this bench deliberately does **not** rewrite it
//! as a side effect (a dirtied baseline committed by accident would re-pin
//! the gate to whatever machine last ran `cargo bench`). Re-pin explicitly
//! with `plaid-bench --update`.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plaid_arch::spatio_temporal;
use plaid_bench::kernel::{bench_dfg, measure_kernel, one_move, one_route, placed_state};
use plaid_mapper::route::{Reach, RouterScratch};

fn headline() {
    let report = measure_kernel(Duration::from_millis(400));
    for (label, rates) in &report.fabrics {
        println!(
            "mapper_kernel headline [{label}]: {:.0} moves/s, {:.0} routes/s",
            rates.moves_per_sec, rates.routes_per_sec
        );
    }
    println!(
        "(baseline BENCH_mapper.json is gated in CI and not auto-rewritten; \
         re-pin with `plaid-bench --update`)"
    );
}

fn bench(c: &mut Criterion) {
    headline();

    let dfg = bench_dfg();
    let mut group = c.benchmark_group("mapper_kernel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    for (label, arch) in [
        ("st4x4", spatio_temporal::build(4, 4)),
        ("st8x8", spatio_temporal::build(8, 8)),
    ] {
        let mut state = placed_state(&dfg, &arch);
        let mut step = 0x5EED_u64;
        group.bench_function(&format!("moves/{label}"), |b| {
            b.iter(|| one_move(&mut state, &mut step))
        });

        let route_state = placed_state(&dfg, &arch);
        let fus: Vec<_> = arch.functional_units().map(|r| r.id).collect();
        let mut scratch = RouterScratch::new();
        let reach = Reach::of(&arch);
        let mut step = 0x00DD_5EED_u64;
        group.bench_function(&format!("routes/{label}"), |b| {
            b.iter(|| {
                black_box(one_route(
                    &mut scratch,
                    &arch,
                    &reach,
                    &route_state,
                    &fus,
                    &mut step,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
