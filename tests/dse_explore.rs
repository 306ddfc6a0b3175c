//! Cross-crate integration tests of the design-space exploration subsystem:
//! Pareto-frontier invariants, cache behaviour and JSON round-tripping.

use plaid::pipeline::{
    compile_workload, ArchChoice, CompileSummary, MapperChoice, PreparedFabric, PreparedWorkload,
};
use plaid_arch::{ArchClass, BwClass, CommSpec, DesignPoint, SpaceSpec, Topology};
use plaid_explore::{
    cache_key, run_sweep, run_sweep_with, EvalRecord, FrontierReport, Objectives, ResultCache,
    SeedPolicy, SweepOutcome, SweepPlan,
};
use plaid_workloads::find_workload;

fn small_plan() -> SweepPlan {
    let spec = SpaceSpec {
        classes: vec![ArchClass::SpatioTemporal, ArchClass::Plaid],
        dims: vec![(2, 2)],
        config_entries: vec![8, 16],
        comm_specs: CommSpec::presets(),
    };
    let workloads = vec![
        find_workload("dwconv").unwrap(),
        find_workload("atax_u2").unwrap(),
    ];
    SweepPlan::cross(&workloads, &spec)
}

#[test]
fn no_dominated_point_survives_the_frontier() {
    let cache = ResultCache::new();
    let outcome = run_sweep(&small_plan(), &cache);
    let report = FrontierReport::from_records(&outcome.records);
    assert!(!report.frontiers.is_empty());
    for frontier in &report.frontiers {
        assert!(
            !frontier.points.is_empty(),
            "{} has an empty frontier",
            frontier.workload
        );
        // Frontier points must be mutually non-dominated, and no evaluated
        // point of the same workload may dominate any of them.
        let candidates: Vec<&EvalRecord> = outcome
            .records
            .iter()
            .filter(|r| r.ok && r.workload.name == frontier.workload)
            .collect();
        for point in &frontier.points {
            let obj = point.objectives().unwrap();
            for other in &candidates {
                let other_obj = other.objectives().unwrap();
                assert!(
                    !other_obj.dominates(&obj),
                    "{}: frontier point {} dominated by {}",
                    frontier.workload,
                    point.arch,
                    other.arch
                );
            }
        }
        // And every non-frontier evaluated point is dominated by some
        // frontier point (otherwise it should have survived).
        for candidate in &candidates {
            let on_frontier = frontier
                .points
                .iter()
                .any(|p| p.arch == candidate.arch && p.mapper == candidate.mapper);
            if !on_frontier {
                let obj = candidate.objectives().unwrap();
                assert!(
                    frontier
                        .points
                        .iter()
                        .any(|p| p.objectives().unwrap().dominates(&obj)),
                    "{}: non-frontier point {} is not dominated",
                    frontier.workload,
                    candidate.arch
                );
            }
        }
    }
}

#[test]
fn frontier_extraction_is_deterministic() {
    let cache = ResultCache::new();
    let outcome = run_sweep(&small_plan(), &cache);
    let a = FrontierReport::from_records(&outcome.records);
    let b = FrontierReport::from_records(&outcome.records);
    assert_eq!(a, b);
    // Shuffled record order produces the identical report.
    let mut reversed = outcome.records.clone();
    reversed.reverse();
    let c = FrontierReport::from_records(&reversed);
    assert_eq!(a, c, "frontier depends on record order");
    // And serialization is byte-stable.
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap()
    );
}

#[test]
fn repeated_sweep_recompiles_nothing() {
    let plan = small_plan();
    let cache = ResultCache::new();
    let cold = run_sweep(&plan, &cache);
    assert_eq!(cold.stats.compiled, plan.len());
    assert_eq!(cold.stats.cache_hits, 0);

    let warm = run_sweep(&plan, &cache);
    assert_eq!(
        warm.stats.compiled, 0,
        "second identical sweep must not recompile"
    );
    assert_eq!(warm.stats.cache_hits, plan.len());
    assert!(
        (warm.stats.hit_rate() - 1.0).abs() < 1e-12,
        "hit rate must be 100%"
    );
    assert_eq!(warm.records, cold.records);
}

#[test]
fn persisted_cache_survives_process_boundaries() {
    let plan = small_plan();
    let dir = std::env::temp_dir().join("plaid-dse-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    std::fs::remove_file(&path).ok();

    let cache = ResultCache::new();
    let cold = run_sweep(&plan, &cache);
    cache.save(&path).unwrap();

    // A fresh cache loaded from disk serves the whole sweep.
    let reloaded = ResultCache::load(&path).unwrap();
    assert_eq!(reloaded.len(), plan.len());
    let warm = run_sweep(&plan, &reloaded);
    assert_eq!(warm.stats.compiled, 0);
    assert_eq!(warm.records, cold.records);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_outcome_round_trips_through_json() {
    let spec = SpaceSpec {
        classes: vec![ArchClass::Plaid],
        dims: vec![(2, 2)],
        config_entries: vec![16],
        comm_specs: vec![CommSpec::ALIGNED, CommSpec::LEAN],
    };
    let plan = SweepPlan::cross(&[find_workload("dwconv").unwrap()], &spec);
    let cache = ResultCache::new();
    let outcome = run_sweep(&plan, &cache);

    let json = serde_json::to_string_pretty(&outcome).unwrap();
    let back: SweepOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome);

    let report = FrontierReport::from_records(&outcome.records);
    let json = serde_json::to_string(&report).unwrap();
    let back: FrontierReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn compile_summary_round_trips_through_json() {
    let w = PreparedWorkload::new(&find_workload("dwconv").unwrap()).unwrap();
    let fabric = PreparedFabric::new(ArchChoice::Plaid2x2.build());
    let compiled = compile_workload(&w, &fabric, MapperChoice::Plaid, None).unwrap();
    let summary = compiled.summary();
    let json = serde_json::to_string(&summary).unwrap();
    let back: CompileSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(back, summary);
    assert_eq!(back.metrics.cycles, compiled.metrics.cycles);
    assert_eq!(back.coverage.total_nodes, compiled.coverage.total_nodes);
}

#[test]
fn design_points_and_params_round_trip_through_json() {
    for point in SpaceSpec::default_grid().enumerate() {
        let json = serde_json::to_string(&point).unwrap();
        let back: DesignPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, point);
        let params_json = serde_json::to_string(&point.params()).unwrap();
        let params: plaid_arch::ArchParams = serde_json::from_str(&params_json).unwrap();
        assert_eq!(params, point.params());
    }
}

#[test]
fn objectives_dominance_matches_frontier_membership() {
    // Hand-constructed objective vectors with a known frontier.
    let objs = [
        Objectives {
            cycles: 100,
            area_um2: 50.0,
            energy_nj: 10.0,
        },
        Objectives {
            cycles: 100,
            area_um2: 50.0,
            energy_nj: 12.0,
        }, // dominated
        Objectives {
            cycles: 80,
            area_um2: 70.0,
            energy_nj: 9.0,
        },
        Objectives {
            cycles: 120,
            area_um2: 40.0,
            energy_nj: 11.0,
        },
    ];
    let keep = plaid_explore::pareto_indices(&objs);
    assert_eq!(keep, vec![0, 2, 3]);
}

#[test]
fn topology_sweep_covers_non_mesh_points() {
    // The structured communication axis end-to-end: a sweep over
    // {mesh, torus, express} x {half, base} must enumerate distinct points,
    // evaluate them, and surface non-mesh points in the frontier. On the
    // 3x3 Plaid fabric the atax_u2 workload genuinely benefits from the
    // wraparound links: the half-bandwidth torus achieves a lower II (288
    // cycles vs. 320 for every mesh variant), so it is non-dominated despite
    // its wiring premium — the BandMap-style trade the structured axis
    // exists to expose. A stride-2 express adds no link the 3x3 torus
    // lacks, so the express points come from the 4x4 array.
    let spec = SpaceSpec {
        classes: vec![ArchClass::Plaid],
        dims: vec![(3, 3), (4, 4)],
        config_entries: vec![16],
        comm_specs: CommSpec::presets(),
    }
    .with_comm_grid(
        &[
            Topology::Mesh,
            Topology::Torus,
            Topology::Express { stride: 2 },
        ],
        &[BwClass::Half, BwClass::Base],
    );
    assert_eq!(spec.cardinality(), 12);
    let designs = spec.enumerate();
    assert_eq!(designs.len(), 10);
    assert!(designs
        .iter()
        .all(|d| d.rows == 4 || !matches!(d.comm.topology, Topology::Express { .. })));
    // Labels and cache keys are unique across the structured axis; the
    // uniform mesh specs collapse onto the legacy presets.
    let workload = find_workload("atax_u2").unwrap();
    let plan = SweepPlan::cross(std::slice::from_ref(&workload), &spec);
    let mut labels: Vec<String> = designs.iter().map(|d| d.label()).collect();
    assert!(labels.iter().any(|l| l.ends_with("/lean")));
    assert!(labels.iter().any(|l| l.ends_with("/aligned")));
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), designs.len());
    let mut keys: Vec<String> = plan.points.iter().map(cache_key).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), plan.len(), "comm specs alias cache keys");
    // Non-mesh fabrics are structurally richer than their mesh siblings.
    let link_count = |n: u32, comm: CommSpec| {
        DesignPoint {
            class: ArchClass::Plaid,
            rows: n,
            cols: n,
            config_entries: 16,
            comm,
        }
        .build()
        .links()
        .len()
    };
    assert!(
        link_count(3, CommSpec::uniform(Topology::Torus, BwClass::Base))
            > link_count(3, CommSpec::ALIGNED)
    );
    assert!(
        link_count(
            4,
            CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base)
        ) > link_count(4, CommSpec::ALIGNED)
    );

    let outcome = run_sweep(&plan, &ResultCache::new());
    assert_eq!(outcome.stats.points, 10);
    let succeeded: Vec<&EvalRecord> = outcome.records.iter().filter(|r| r.ok).collect();
    assert!(
        succeeded
            .iter()
            .any(|r| r.design.comm.topology == Topology::Torus),
        "torus point must map"
    );
    let report = FrontierReport::from_records(&outcome.records);
    assert!(
        report
            .frontiers
            .iter()
            .flat_map(|f| f.points.iter())
            .any(|p| p.design.comm.topology != Topology::Mesh),
        "frontier must surface a non-mesh point: {:?}",
        report
            .frontiers
            .iter()
            .flat_map(|f| f.points.iter().map(|p| p.arch.clone()))
            .collect::<Vec<_>>()
    );
    // Structured design points survive the record JSON round trip.
    let json = serde_json::to_string(&outcome).unwrap();
    let back: SweepOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome);
}

#[test]
fn exact_seeding_preserves_the_frontier_bit_for_bit() {
    // The warm-start acceptance property: an exactly-seeded sweep must emit
    // the same frontier JSON as a cold sweep of the same plan, while
    // actually exercising the seeding path (seeded > 0).
    let plan = small_plan();
    let cold = run_sweep_with(&plan, &ResultCache::new(), SeedPolicy::Off);
    let seeded = run_sweep_with(&plan, &ResultCache::new(), SeedPolicy::Exact);
    assert!(seeded.stats.seeded > 0, "plan must exercise warm starts");
    assert!(
        seeded.stats.seed_hits > 0,
        "warm starts must demonstrably skip work"
    );
    let cold_json = serde_json::to_string(&FrontierReport::from_records(&cold.records)).unwrap();
    let seeded_json =
        serde_json::to_string(&FrontierReport::from_records(&seeded.records)).unwrap();
    assert_eq!(cold_json, seeded_json);
    // Off-policy stats never report seeding activity.
    assert_eq!(cold.stats.seeded, 0);
    assert_eq!(cold.stats.seed_hits, 0);
}
