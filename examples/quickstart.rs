//! Quickstart: compile one kernel onto Plaid and print what the toolchain did.
//!
//! Run with `cargo run --example quickstart`.

use plaid::pipeline::{
    compile_workload, ArchChoice, MapperChoice, PreparedFabric, PreparedWorkload,
};
use plaid_workloads::find_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pick the paper's running example family: a linear-algebra kernel.
    let workload = find_workload("gemm_u2").expect("gemm_u2 is registered");

    println!(
        "kernel: {} ({} loop iterations)",
        workload.name,
        workload.iterations()
    );

    let prepared = PreparedWorkload::new(&workload)?;
    let fabric = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let result = compile_workload(&prepared, &fabric, MapperChoice::Plaid, None)?;

    println!(
        "DFG: {} nodes ({} compute, {} memory), {} edges",
        result.dfg.node_count(),
        result.dfg.compute_node_count(),
        result.dfg.memory_node_count(),
        result.dfg.edge_count()
    );
    println!(
        "motifs: {} covering {}/{} compute nodes (fan-in {}, fan-out {}, unicast {})",
        result.coverage.motif_count(),
        result.coverage.covered_nodes,
        result.coverage.compute_nodes,
        result.coverage.fan_in,
        result.coverage.fan_out,
        result.coverage.unicast
    );

    let mapping = result.mapping.as_ref().expect("modulo-scheduled mapping");
    println!(
        "mapping: II={} schedule length={} cycles ({} total cycles for the loop)",
        mapping.ii,
        mapping.schedule_length(),
        result.metrics.cycles
    );
    if let Some(config) = &result.config {
        println!(
            "configuration: {} entries x {} bits per PCU ({} bits total, {:.0}% of entries active)",
            config.entries,
            config.bits_per_entry,
            config.total_bits(),
            config.entry_utilization() * 100.0
        );
    }
    println!(
        "cost: {:.1} µW fabric power, {:.1} nJ energy, {:.0} µm² fabric area",
        result.metrics.power_uw, result.metrics.energy_nj, result.metrics.area_um2
    );
    Ok(())
}
