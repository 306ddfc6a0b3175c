//! Compare one kernel across the three architectures the paper evaluates:
//! the high-performance spatio-temporal baseline, the energy-minimal spatial
//! baseline and Plaid.
//!
//! Run with `cargo run --example gemm_pipeline [kernel-name]`.

use plaid::pipeline::{
    compile_workload, ArchChoice, MapperChoice, PreparedFabric, PreparedWorkload,
};
use plaid::report::render_table;
use plaid_workloads::find_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requested = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "gemm_u2".to_string());
    let workload = find_workload(&requested).ok_or_else(|| {
        format!("unknown workload {requested}; see plaid_workloads::table2_workloads()")
    })?;

    let configs = [
        (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa),
        (ArchChoice::Spatial4x4, MapperChoice::Spatial),
        (ArchChoice::Plaid2x2, MapperChoice::Plaid),
    ];

    let prepared = PreparedWorkload::new(&workload)?;
    let mut rows = Vec::new();
    let mut baseline_cycles = None;
    for (arch, mapper) in configs {
        let fabric = PreparedFabric::new(arch.build());
        let result = compile_workload(&prepared, &fabric, mapper, None)?;
        let cycles = result.metrics.cycles;
        let baseline = *baseline_cycles.get_or_insert(cycles);
        rows.push(vec![
            arch.label().to_string(),
            mapper.label().to_string(),
            result.metrics.ii.to_string(),
            cycles.to_string(),
            format!("{:.2}", cycles as f64 / baseline as f64),
            format!("{:.1}", result.metrics.power_uw),
            format!("{:.1}", result.metrics.energy_nj),
            format!("{:.0}", result.metrics.area_um2),
        ]);
    }

    println!(
        "{}",
        render_table(
            &format!("{} across architectures", workload.name),
            &[
                "architecture",
                "mapper",
                "II",
                "cycles",
                "norm cycles",
                "power µW",
                "energy nJ",
                "area µm²"
            ],
            &rows,
        )
    );
    Ok(())
}
