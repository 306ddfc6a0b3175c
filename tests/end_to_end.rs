//! Cross-crate integration tests: every registered workload flows through the
//! full pipeline, and mappings are validated and functionally verified.

use plaid::pipeline::{
    compile_workload, ArchChoice, MapperChoice, PipelineError, PreparedFabric, PreparedWorkload,
};
use plaid_dfg::interp::MemoryImage;
use plaid_mapper::MapError;
use plaid_sim::engine::execute_mapping;
use plaid_workloads::{table2_workloads, Workload};

fn workload(name: &str) -> Workload {
    table2_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} missing from registry"))
}

fn prepare(w: &Workload) -> PreparedWorkload {
    PreparedWorkload::new(w).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// A deterministic, non-trivial initial memory image for `w`'s arrays.
fn memory_for(w: &Workload) -> MemoryImage {
    MemoryImage::for_kernel(&w.kernel, |array, i| {
        (array.len() as i64 * 3 + i as i64) % 19 + 1
    })
}

#[test]
fn every_workload_lowers_and_identifies_motifs() {
    for w in table2_workloads() {
        let dfg = w.lower().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        dfg.validate_structure().unwrap();
        let hdfg = plaid_motif::identify_motifs(&dfg, &plaid_motif::IdentifyOptions::default());
        assert!(hdfg.covered_compute_nodes() <= dfg.compute_node_count());
        for motif in hdfg.motifs() {
            assert!(motif.is_valid_in(&dfg), "{}: invalid motif", w.name);
        }
    }
}

#[test]
fn representative_workloads_map_on_all_architectures() {
    // One workload per domain keeps the integration test fast while touching
    // every architecture and mapper combination used in the evaluation.
    for name in ["atax_u2", "conv2x2", "jacobi_u2"] {
        let w = prepare(&workload(name));
        for (arch, mapper) in [
            (ArchChoice::SpatioTemporal4x4, MapperChoice::Sa),
            (ArchChoice::Spatial4x4, MapperChoice::Spatial),
            (ArchChoice::Plaid2x2, MapperChoice::Plaid),
        ] {
            let built = PreparedFabric::new(arch.build());
            let compiled = compile_workload(&w, &built, mapper, None)
                .unwrap_or_else(|e| panic!("{name} on {arch:?}: {e}"));
            assert!(compiled.metrics.cycles > 0);
            if let Some(mapping) = &compiled.mapping {
                mapping.validate(&compiled.dfg, built.arch()).unwrap();
            }
        }
    }
}

#[test]
fn mapped_execution_matches_reference_semantics() {
    let fabric = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    for name in ["dwconv", "gesumm_u2", "fc"] {
        let w = workload(name);
        let compiled = compile_workload(&prepare(&w), &fabric, MapperChoice::Plaid, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mapping = compiled.mapping.as_ref().unwrap();
        let report = execute_mapping(&compiled.dfg, fabric.arch(), mapping, &memory_for(&w))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.verified, "{name}: mapped execution diverged");
        assert_eq!(report.cycles, compiled.metrics.cycles);
    }
}

#[test]
fn every_plaid_mapping_of_the_suite_executes_correctly() {
    // The functional oracle over the whole Table 2 suite: every workload the
    // Plaid mapper maps on a Plaid fabric must compute what the reference
    // interpreter computes. The mapped counts are pinned, so a mapper change
    // that silently loses or gains a mapping fails here; the misses are
    // heuristic misses (SA and PathFinder map them), not infeasible points.
    for (choice, expected) in [(ArchChoice::Plaid2x2, 23), (ArchChoice::Plaid3x3, 21)] {
        let fabric = PreparedFabric::new(choice.build());
        let mut mapped = 0;
        for w in table2_workloads() {
            let compiled = match compile_workload(&prepare(&w), &fabric, MapperChoice::Plaid, None)
            {
                Ok(compiled) => compiled,
                Err(PipelineError::Mapping(MapError::NoValidMapping { .. })) => continue,
                Err(e) => panic!("{} on {choice:?}: {e}", w.name),
            };
            let mapping = compiled.mapping.as_ref().unwrap();
            let report = execute_mapping(&compiled.dfg, fabric.arch(), mapping, &memory_for(&w))
                .unwrap_or_else(|e| panic!("{} on {choice:?}: {e}", w.name));
            assert!(
                report.verified,
                "{} on {choice:?}: mapped execution diverged",
                w.name
            );
            assert_eq!(report.cycles, compiled.metrics.cycles, "{}", w.name);
            mapped += 1;
        }
        assert_eq!(mapped, expected, "{choice:?}: Plaid mappings of the suite");
    }
}

#[test]
fn plaid_mapper_is_competitive_with_generic_mappers_on_plaid() {
    // Figure 18's claim is about the average across the suite; individual
    // kernels can swing either way because all three mappers are stochastic
    // search procedures. Here we only require that the motif-aware mapper
    // stays within a factor of two of the SA baseline on a couple of kernels;
    // the suite-level comparison lives in the fig18_mappers bench.
    let arch = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    for name in ["gemm_u2", "bicg_u2"] {
        let w = prepare(&workload(name));
        let plaid = compile_workload(&w, &arch, MapperChoice::Plaid, None).unwrap();
        if let Ok(sa) = compile_workload(&w, &arch, MapperChoice::Sa, None) {
            assert!(
                plaid.metrics.cycles <= sa.metrics.cycles * 2,
                "{name}: plaid mapper much slower than SA ({} vs {})",
                plaid.metrics.cycles,
                sa.metrics.cycles
            );
        }
    }
}

#[test]
fn spatial_partitioning_pays_for_large_unrolled_kernels() {
    let small = prepare(&workload("atax_u2"));
    let large = prepare(&workload("atax_u4"));
    let arch = PreparedFabric::new(ArchChoice::Spatial4x4.build());
    let small_sp = compile_workload(&small, &arch, MapperChoice::Spatial, None).unwrap();
    let large_sp = compile_workload(&large, &arch, MapperChoice::Spatial, None).unwrap();
    let small_parts = small_sp.spatial.as_ref().unwrap().partitions.len();
    let large_parts = large_sp.spatial.as_ref().unwrap().partitions.len();
    assert!(large_parts >= small_parts);
}
